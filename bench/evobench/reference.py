"""Independent references, written from the paper's formulas in plain numpy.

Nothing here imports evometry: the operator families, Born weights,
channel spectra and Schmidt values are rebuilt from their definitions so
that a defect shared by the program and its own tests still shows.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
TRIM = 1e-12


def haar_unitary(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_state(d: int, rng) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_kraus(d: int, k: int, rng) -> list:
    """k operator elements of a random channel: the d columns of a Haar
    unitary on C^(d k), cut into k blocks of d rows."""
    iso = haar_unitary(d * k, rng)[:, :d]
    return [iso[i * d:(i + 1) * d] for i in range(k)]


def isometry_rows(k: int, k_out: int, rng) -> np.ndarray:
    """A k x k_out matrix with orthonormal rows."""
    return haar_unitary(k_out, rng)[:k, :]


def pauli_strings(n: int) -> np.ndarray:
    """All 4^n tensor products of (I, X, Y, Z), first qubit most
    significant, as an array of shape (4^n, 2^n, 2^n)."""
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        out = np.einsum("aij,bkl->abikjl", out, np.stack([_I, _X, _Y, _Z]))
        a, b, i, k, j, l = out.shape
        out = out.reshape(a * b, i * k, j * l)
    return out


def clock_shift_products(d: int) -> np.ndarray:
    """Z^mu X^nu at index mu*d + nu, with Z = diag(w^j), X|j> = |j+1>."""
    w = np.exp(2j * np.pi / d)
    j = np.arange(d)
    out = np.zeros((d * d, d, d), dtype=complex)
    for mu in range(d):
        for nu in range(d):
            # (Z^mu X^nu)[r, c] = w^(mu r) when r = c + nu (mod d)
            rows = (j + nu) % d
            out[mu * d + nu, rows, j] = w ** (mu * rows)
    return out


def born_weights(u: np.ndarray, u0: np.ndarray | None, sigmas: np.ndarray):
    """|tr((u0 s_a)^dag u)|^2 / d^2 for every a."""
    d = u.shape[0]
    v = u if u0 is None else u0.conj().T @ u
    c = np.einsum("aij,ij->a", sigmas.conj(), v) / d
    return np.abs(c) ** 2


def collapsed_state(u0, sigma, psi: np.ndarray, d: int) -> np.ndarray:
    """(u0 s_a (x) 1) psi normalized; psi may carry a bystander factor."""
    m = psi.reshape(d, -1)
    out = sigma @ m if u0 is None else u0 @ (sigma @ m)
    out = out.ravel()
    return out / np.linalg.norm(out)


def phase_aligned(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """v with its global phase turned to match ref."""
    ov = np.vdot(v, ref)
    return v * (ov / abs(ov)) if abs(ov) > 0 else v


def bystander_state(psi: np.ndarray, d: int) -> np.ndarray:
    """Reduced density matrix of everything after the first d levels."""
    m = psi.reshape(d, -1)
    return m.T @ m.conj()


def channel_spectrum(ops) -> np.ndarray:
    """Channel-state eigenvalues above TRIM, descending.

    The channel state is V V^dag with columns vec(M_i)/sqrt(d); its
    nonzero spectrum is that of the k x k Gram matrix tr(M_i^dag M_j)/d.
    """
    d = ops[0].shape[0]
    flat = np.stack([m.ravel() for m in ops])
    w = np.linalg.eigvalsh(flat.conj() @ flat.T / d)[::-1]
    return w[w > TRIM]


def shannon_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def channel_state(ops) -> np.ndarray:
    d = ops[0].shape[0]
    flat = np.stack([m.ravel() for m in ops]) / math.sqrt(d)
    return flat.T @ flat.conj()


def rotate_elements(ops, rows: np.ndarray) -> list:
    """N_i = sum_c conj(rows[i, c]) M_c, the elements read out of a
    dilation when its ancilla is measured in the basis given by rows."""
    stack = np.stack(ops)
    return list(np.einsum("ic,crs->irs", rows.conj(), stack))


def fourier_rows(a: int) -> np.ndarray:
    w = np.exp(2j * np.pi / a)
    return w ** np.outer(np.arange(a), np.arange(a)) / math.sqrt(a)


def element_weights(ops) -> np.ndarray:
    d = ops[0].shape[0]
    return np.array([np.vdot(m, m).real / d for m in ops])


def canonical_elements(ops) -> tuple[np.ndarray, np.ndarray]:
    """Channel-state eigenvalues above TRIM (descending) and the matching
    unit-Frobenius-norm eigen-operators F_m, shape (D, d, d)."""
    d = ops[0].shape[0]
    flat = np.stack([m.ravel() for m in ops]) / math.sqrt(d)
    w, e = np.linalg.eigh(flat.conj() @ flat.T)
    keep = w > TRIM
    w, e = w[keep][::-1], e[:, keep][:, ::-1]
    vecs = (flat.T @ e) / np.sqrt(w)
    return w, vecs.T.reshape(-1, d, d)


def herald_probability(ops, index: int, psi: np.ndarray) -> float:
    """Herald rate of retrieving M_i onto psi through the canonical record.

    The register holds M_i's weights over the D canonical elements F_m,
    each branch applies its element to psi, and a Fourier readout heralds
    on the uniform-phase outcome. Normalised over the readout outcomes
    this is ||M psi||^2 / (D sum_m |<F_m, M>|^2 ||F_m psi||^2), which
    equals the closed form below when every F_m is proportional to a
    unitary (then ||F_m psi||^2 = 1/d).
    """
    m = ops[index]
    _, f = canonical_elements(ops)
    overlaps = np.einsum("mij,ij->m", f.conj(), m)
    branch = np.linalg.norm(f @ psi, axis=1) ** 2
    mpsi = m @ psi
    return float(np.vdot(mpsi, mpsi).real
                 / (f.shape[0] * np.sum(np.abs(overlaps) ** 2 * branch)))


def herald_closed_form(ops, index: int, psi: np.ndarray) -> float:
    """d ||M_i psi||^2 / (tr(M_i^dag M_i) D), valid for channels whose
    canonical elements are proportional to unitaries."""
    d = ops[0].shape[0]
    m = ops[index]
    support = channel_spectrum(ops).size
    return float(d * np.vdot(m @ psi, m @ psi).real
                 / (np.vdot(m, m).real * support))


def random_frame_kraus(d: int, k: int, rng) -> list:
    """k elements sqrt(q_i) V s_i W over distinct Pauli strings s_i
    (d a power of two), random weights q and Haar V, W. The canonical
    elements are then proportional to unitaries."""
    strings = pauli_strings(d.bit_length() - 1)
    pick = rng.choice(len(strings), size=k, replace=False)
    q = rng.dirichlet(np.ones(k))
    v, w = haar_unitary(d, rng), haar_unitary(d, rng)
    return [math.sqrt(qi) * v @ strings[a] @ w for qi, a in zip(q, pick)]


def compositions(n: int, k: int) -> np.ndarray:
    """All occupation vectors of n draws over k outcomes, shape (C, k)."""
    rows = []
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1,) + bars + (n + k - 1,)
        rows.append([edges[j + 1] - edges[j] - 1 for j in range(k)])
    return np.array(rows, dtype=np.int64)


def multinomials(comps: np.ndarray) -> list:
    n = int(comps[0].sum())
    return [math.factorial(n) // math.prod(math.factorial(int(c)) for c in row)
            for row in comps]


def composition_tables(draws: dict) -> dict:
    """support k -> (compositions of draws[k] over k, their multinomials)."""
    out = {}
    for k, n in draws.items():
        comps = compositions(n, k)
        out[k] = (comps, multinomials(comps))
    return out


def typical_set(p: np.ndarray, comps: np.ndarray, sizes: list, delta: float):
    """(kept record count, discarded probability mass) of the delta-typical
    composition classes of n draws from p."""
    n = int(comps[0].sum())
    surprisal = -np.log2(p)
    ent = float(p @ surprisal)
    per_draw = comps @ surprisal / n
    keep = np.abs(per_draw - ent) <= delta + 1e-12
    kept = sum(s for s, k in zip(sizes, keep) if k)
    class_prob = np.exp(comps @ np.log(p))
    mass = math.fsum(s * float(q) for s, q, k in zip(sizes, class_prob, keep) if k)
    return kept, max(0.0, 1.0 - mass)


def schmidt_values(u: np.ndarray, da: int, db: int) -> np.ndarray:
    """Operator Schmidt values by realignment: u[(i j), (k l)] becomes
    R[(i k), (j l)], whose singular values are s_m sqrt(dA dB)."""
    r = u.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    s = np.linalg.svd(r, compute_uv=False) / math.sqrt(da * db)
    return s[s * s > TRIM]


def sector_law(n: int, alpha: float, beta: float) -> np.ndarray:
    pa, pb = alpha * alpha, beta * beta
    return np.array([math.comb(n, k) * pa ** k * pb ** (n - k)
                     for k in range(n + 1)])
