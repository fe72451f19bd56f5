"""Two-time measurement circuits that identify which evolution occurred.

The measured quantity is a temporal correlation: couple ancillas to the
system before an unknown evolution U acts, couple them again afterwards,
then read the ancillas out. For a basis {U_0 s_a} built from a reference
unitary U_0 and mutually orthogonal unitaries s_a, every basis element is
an eigenoperator of the correlation, so the readout projects the
evolution itself onto one element: outcome a occurs with probability
|C_a|^2 where U = sum_a C_a U_0 s_a, and the system collapses to
U_0 s_a |psi> regardless of what |psi> was.

Circuit layout used here, per clock/shift pair (Z, X) on a d-level site:
two d-level ancillas start in uniform superpositions. At t1 a
controlled-power coupling applies Z^beta then X^alpha to the site
(beta, alpha being the ancilla levels). After the evolution, the inverse
couplings, conjugated by U_0, are applied. The first ancilla then holds
the Fourier vector sum_alpha zeta^{alpha mu}|alpha> and the second
sum_beta zeta^{-beta nu}|beta> whenever the evolution was U_0 Z^mu X^nu,
so a Fourier-basis readout reveals (mu, nu). Applying the couplings
inverted at t2 (an echo) is what makes the end states exact products; at
d = 2 the inversion only reorders the two self-inverse couplings, which
is the same circuit up to a known controlled phase between the ancillas
that the +/- readout basis absorbs.

Simulation: the joint state is one (bystander, configuration, level)
array, never a global matrix. Every coupling is a phase times a cyclic
shift, so all sites' couplings at one time step compose into one index
table and one phase table over (configuration, level): t1 is one gather
of psi and one product, t2 one gather of the joint array and one
product. The tables depend only on the site dimensions; they are built
once per site tuple (the 16 most recent are kept) and are read-only:
192 KiB at n = 4 qubits, 1.5 MiB at n = 5, 12 MiB at n = 6 (48 bytes
per amplitude). u0^dag U before the echo and u0 after it are one GEMM
each on the level axis, and the Fourier readout is one q^2 x q^2 kernel
kron(conj(F_q), F_q) per site, applied over the configuration axis,
whose rows for a Pauli site are already in label order. For n qubits
and a bystander of dimension b the joint array holds 4^n * 2^n * b
amplitudes; the gathers and products cost time in proportion to that,
the readout 4n times that, and the two GEMMs 4^n * 4^n * b. One call
takes about 0.2 ms at n = 4, 2 ms at n = 5 and 20 ms at n = 6 (median,
one BLAS thread, 2-vCPU Xeon VM).

Validation: a circuit requires its basis to be of the product form
{u0 s_a} in its family's ordering. A basis is frozen and owns a
read-only copy of its u0, so the check runs once per basis object and
family (Pauli or Weyl) and is memoised on the basis; a failed check
raises and runs again on the next call. The branch records are checked
in bulk: one norm check per call covers every observed row (one bad
row, NaN included, rejects the call), and each record is then filled
without running its validator. A PureState built directly, or through
dataclasses.replace, still checks its own norm.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .basis import (
    PRODUCT_FORM_ATOL,
    OperatorBasis,
    _n_qubits,
    _reference,
    clock_shift,
    clock_shift_powers,
    expand,
)
from .linalg import (
    _array_hash,
    _check,
    _fourier,
    _frozen,
    _prechecked,
    _record,
    _records,
    _sample,
    _unitary,
    dag,
)

EIGEN_RTOL = 1e-9
NORM_ATOL = 1e-12
# an outcome law sums to 1 within this: the law of a unitary that passes
# its 1e-10 check does, with room for the rounding of 4^n terms
PROBABILITY_ATOL = 1e-9


class NotAnEigenoperator(Exception):
    """Raised when an operator fails the eigenvalue relation of a
    two-time observable."""


@_record
class PureState:
    """A unit vector, held as a read-only copy of the input; tolerance on
    the norm is 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = _frozen(np.ravel(self.amplitudes))
        _check(abs(np.linalg.norm(v) - 1.0), NORM_ATOL, "state norm is not 1")
        object.__setattr__(self, "amplitudes", v)

    @classmethod
    def _rows(cls, rows) -> list:
        """One state per row of a 2-D array, each holding a read-only view
        of its row: the caller hands the array over and keeps no use for
        it. The norm check runs once over all rows, so one bad row (NaN
        included) rejects the batch, and __post_init__ is not run."""
        rows = np.asarray(rows, dtype=complex).view()
        rows.setflags(write=False)
        dev = np.abs(np.linalg.norm(rows, axis=1) - 1.0).max(initial=0.0)
        _check(dev, NORM_ATOL, "state norm is not 1")
        return _prechecked(cls, rows)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@_record
class TwoTimeObservable:
    """A correlation [u0 g u0^dag at t2][g at t1] with generator g.

    family selects the generator: "z" for the clock operator (sigma_z at
    d = 2) and "x" for the shift operator (sigma_x at d = 2).
    """

    family: str
    dim: int
    u0: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in ("z", "x"):
            raise ValueError("family must be 'z' or 'x'")
        if self.u0 is not None:
            object.__setattr__(self, "u0", _unitary(self.u0, self.dim, "u0"))

    def __hash__(self) -> int:
        u0 = None if self.u0 is None else _array_hash(self.u0)
        return hash((self.family, self.dim, u0))

    def generator(self) -> np.ndarray:
        z, x = clock_shift(self.dim)
        return z.matrix if self.family == "z" else x.matrix

    def reference(self) -> np.ndarray:
        return _reference(self.u0, self.dim)


@_record
class WhichUnitaryResult:
    """One measurement branch: outcome index, collapsed state, exact
    probability of that branch."""

    outcome: int
    collapsed: PureState
    exact_prob: float


@_record
class OutcomeDistribution:
    """Exact outcome probabilities, optionally with sampled counts.

    One finite, non-negative probability per label, summing to 1 within
    PROBABILITY_ATOL; counts, when given, hold one entry per label and
    sum to the number of shot_outcomes."""

    labels: tuple
    probabilities: np.ndarray
    counts: np.ndarray | None = None
    shot_outcomes: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        n = len(self.labels)
        if p.shape != (n,):
            raise ValueError(f"need one probability per label: {n} labels, "
                             f"probabilities of shape {p.shape}")
        # a NaN makes the minimum NaN, and an infinity the sum
        if not p.min(initial=0.0) >= 0.0:
            raise ValueError("probabilities must be finite and non-negative")
        _check(abs(p.sum() - 1.0), PROBABILITY_ATOL,
               "probabilities do not sum to 1")
        if self.counts is not None:
            counts = np.asarray(self.counts)
            if counts.shape != (n,):
                raise ValueError(f"need one count per label: {n} labels, "
                                 f"counts of shape {counts.shape}")
            shots = 0 if self.shot_outcomes is None else len(self.shot_outcomes)
            if counts.sum() != shots:
                raise ValueError(f"counts sum to {counts.sum()}, not to the "
                                 f"{shots} shot outcomes")
        object.__setattr__(self, "probabilities", p)

    @property
    def shots(self) -> int:
        return 0 if self.counts is None else int(self.counts.sum())


def temporal_eigenvalue(obs: TwoTimeObservable, u) -> complex:
    """Eigenvalue of u under the two-time correlation, if it has one.

    The correlation pairs the generator at t2 with its inverse at t1,
    acting on an operator as M = (u0 g u0^dag) u g^dag; the t1 factor
    is the one the echo circuit undoes. For d = 2 the generators are
    self-inverse, so this is the familiar sandwich (u0 g u0^dag) u g.
    When M = lambda u within a relative tolerance of 1e-9 the
    eigenvalue lambda is returned (a sign for the d = 2 families, a
    power of exp(2 pi i / d) for clock/shift bases); otherwise
    NotAnEigenoperator is raised.
    """
    um = _unitary(u, obs.dim, "unitary")
    ref = obs.reference()
    g = obs.generator()
    m = ref @ g @ dag(ref) @ um @ dag(g)
    lam = np.trace(dag(um) @ m) / obs.dim
    resid = np.linalg.norm(m - lam * um)
    if resid > EIGEN_RTOL * max(1.0, np.linalg.norm(m)):
        raise NotAnEigenoperator(
            f"residual {resid:.3e} exceeds relative tolerance {EIGEN_RTOL}"
        )
    return complex(lam)


def observable_commutator_norm(
    obs1: TwoTimeObservable, obs2: TwoTimeObservable
) -> float:
    """Frobenius norm of the commutator of the two induced maps.

    Each observable acts on operators as L(U) = (u0 g u0^dag) U g,
    represented by the d^2 x d^2 matrix (u0 g u0^dag) kron g^T. Note
    that for generators from the same clock/shift pair these maps share
    the common eigenoperator basis {u0 Z^mu X^nu} and therefore commute
    exactly: the norm is 0 for the z/x pair at any d and any u0. That
    shared eigenbasis is precisely what lets one readout identify every
    basis element even though the generators themselves do not commute
    as matrices.
    """
    if obs1.dim != obs2.dim:
        raise ValueError("observables act on different dimensions")
    r1, r2 = obs1.reference(), obs2.reference()
    if np.abs(r1 - r2).max() > PRODUCT_FORM_ATOL:
        raise ValueError("observables must share the same reference u0")
    l1 = np.kron(r1 @ obs1.generator() @ dag(r1), obs1.generator().T)
    l2 = np.kron(r2 @ obs2.generator() @ dag(r2), obs2.generator().T)
    return float(np.linalg.norm(l1 @ l2 - l2 @ l1))


def which_unitary_distribution(u, basis: OperatorBasis) -> OutcomeDistribution:
    """Exact outcome law |C_a|^2 for measuring which basis element acted."""
    coeffs = expand(u, basis)
    return OutcomeDistribution(basis.labels, coeffs.probabilities())


# ---------------------------------------------------------------------------
# circuit engine


@functools.lru_cache(maxsize=16)
def _couplings(site_dims: tuple) -> tuple:
    """The echo couplings of every site composed into read-only
    (configuration, level) tables (src1, ph1, src2, ph2): Z^beta then
    X^alpha at t1 map psi to psi[src1] * ph1, with the 1/sqrt(d^2) of the
    uniform ancilla start in ph1, and X^-alpha then Z^-beta at t2 map the
    flattened joint array t to t[src2] * ph2. Each is summed or
    multiplied up from one (alpha, beta, level) piece per site."""
    n, dim = len(site_dims), math.prod(site_dims)
    src1, src2, ph1, ph2 = 0, 0, 1 / dim, 1
    stride = dim
    for j, q in enumerate(site_dims):
        stride //= q
        shape = [1] * (3 * n)
        shape[2 * j] = shape[2 * j + 1] = shape[2 * n + j] = q
        # w[m, k] = zeta^(m k) is Z^m; X^m takes level k from k - m
        w = np.diagonal(clock_shift_powers(q)[0], axis1=1, axis2=2)
        alpha, beta, level = np.indices((q, q, q))
        down = (level - alpha) % q
        src1 = src1 + (down * stride).reshape(shape)
        src2 = src2 + ((level + alpha) % q * stride).reshape(shape)
        ph1 = ph1 * w[beta, down].reshape(shape)
        ph2 = ph2 * w.conj()[beta, level].reshape(shape)
    tables = [a.reshape(dim * dim, dim) for a in (src1, ph1, src2, ph2)]
    tables[2] = tables[2] + np.arange(0, dim ** 3, dim)[:, None]
    for a in tables:
        a.setflags(write=False)
    return tuple(tables)


# readout pair index 2 mu + nu carrying each of I, X, Y, Z on one qubit;
# Y sits at (mu, nu) = (1, 1) because Z X = i sigma_y
_PAULI_PAIRS = np.array([0, 1, 3, 2])


@functools.lru_cache(maxsize=None)
def _readout(q: int, pauli: bool) -> np.ndarray:
    """One site's Fourier readout kron(conj(F_q), F_q) on its ancilla
    pair (alpha, beta): row q mu + nu projects onto outcome (mu, nu), or
    for a Pauli site row l onto label l of I, X, Y, Z. Read-only."""
    kernel = np.kron(_fourier(q).conj(), _fourier(q))
    return _frozen(kernel[_PAULI_PAIRS] if pauli else kernel)


def _echo_joint(u, u0, site_dims, psi):
    """(bystander, configuration, level) array after the echo circuit,
    before the ancilla readout: [b, c] is the unnormalized system vector
    paired with bystander level b and ancilla configuration
    c = (alpha_1, beta_1, ..., alpha_n, beta_n) in mixed-radix order."""
    src1, ph1, src2, ph2 = _couplings(tuple(site_dims))
    dim = ph1.shape[1]
    b = psi.size // dim
    t = np.take(psi.reshape(dim, b).T, src1, axis=1)
    t *= ph1
    t = t.reshape(-1, dim) @ (dag(u0) @ u).T
    t = np.take(t.reshape(b, -1), src2, axis=1)
    t *= ph2
    return (t.reshape(-1, dim) @ u0.T).reshape(b, -1, dim)


def _system_rows(t):
    """(configuration or outcome, level x bystander) rows of an array
    laid out as _echo_joint's."""
    return np.moveaxis(t, 0, -1).reshape(t.shape[1], -1)


def _circuit_rows(u, u0, site_dims, psi, pauli=False):
    """Run the echo circuit; return per-outcome unnormalized system rows.

    Outcomes are indexed by per-site pairs (mu_j, nu_j), or for a Pauli
    basis by per-site labels, in the same mixed-radix order as ancilla
    configurations. Row norms squared are the outcome probabilities;
    normalized rows are the collapsed states.
    """
    t = _echo_joint(u, u0, site_dims, psi)
    shape = t.shape
    batch = shape[0]
    for q in site_dims:
        t = _readout(q, pauli) @ t.reshape(batch, q * q, -1)
        batch *= q * q
    return _system_rows(t.reshape(shape))


def _finish(labels, probs, collapsed_rows, shots, seed):
    """The distribution and one result per observed outcome, whose
    collapsed state is its row of collapsed_rows normalised. The observed
    rows are normalised and norm-checked as one array, and the records
    are filled without a per-row validator."""
    probs = np.asarray(probs)
    counts = None
    shot_outcomes = None
    if shots:
        shot_outcomes = _sample(probs, shots, seed)
        counts = np.bincount(shot_outcomes, minlength=probs.size)
        observed = np.flatnonzero(counts)
    else:
        observed = np.flatnonzero(probs > 1e-14)
    rows = collapsed_rows[observed]
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    results = _prechecked(WhichUnitaryResult, observed.tolist(),
                          PureState._rows(rows), probs[observed].tolist())
    dist = OutcomeDistribution(
        labels, probs, counts=counts, shot_outcomes=shot_outcomes, seed=seed
    )
    return dist, results


def _circuit_inputs(u, basis, psi):
    """Validated unitary and state (with any bystander factor) for a
    circuit over the basis."""
    um = _unitary(u, basis.dim, "unitary")
    psi = PureState(getattr(psi, "amplitudes", psi)).amplitudes
    if psi.size % basis.dim != 0:
        raise ValueError(
            f"state dim {psi.size} is not a multiple of basis dim {basis.dim}"
        )
    return um, psi


def _run_product_measurement(u, basis, psi, shots, seed, site_dims,
                             pauli=False):
    """Run the circuit and read out in basis-label order."""
    um, psi = _circuit_inputs(u, basis, psi)
    rows = _circuit_rows(um, _reference(basis.u0, basis.dim), site_dims,
                         psi, pauli)
    probs = np.linalg.norm(rows, axis=1) ** 2
    return _finish(basis.labels, probs, rows, shots, seed)


def measure_which_unitary(u, basis: OperatorBasis, psi, shots: int = 0,
                          seed: int | None = None):
    """Simulate the two-ancilla-per-qubit circuit for a Pauli-form basis.

    Requires basis elements u0 s_a with s_a the tensor-product Pauli
    strings (the pauli_basis ordering). psi may live on C^d or carry an
    extra untouched tensor factor, in which case the factor rides along
    and stays entangled exactly as it was.

    Returns (OutcomeDistribution, results) where results holds one
    WhichUnitaryResult per outcome that occurred (all outcomes of
    nonzero probability when shots == 0): repeated shots that land on
    the same outcome share the same collapsed state, so the per-shot
    record lives in the distribution's shot_outcomes.
    """
    basis._pauli_form  # ValueError unless the elements are u0 s_a
    return _run_product_measurement(
        u, basis, psi, shots, seed, (2,) * _n_qubits(basis.dim), pauli=True
    )


def measure_which_unitary_qudit(u, basis: OperatorBasis, psi,
                                shots: int = 0, seed: int | None = None):
    """Simulate the two-qudit-ancilla circuit for a clock/shift basis.

    Requires basis elements u0 Z^mu X^nu in weyl_basis ordering. The
    ancilla end state for element (mu, nu) is the product of the two
    Fourier vectors with kernels zeta^{alpha mu} and zeta^{-beta nu}.
    """
    basis._weyl_form  # ValueError unless the elements are u0 Z^mu X^nu
    return _run_product_measurement(u, basis, psi, shots, seed, (basis.dim,))


def circuit_end_state(u, basis: OperatorBasis, psi) -> np.ndarray:
    """Joint (ancilla configs x system) array after the echo circuit.

    Row c of the result is the unnormalized system vector paired with
    ancilla computational configuration c; summing |row|^2 gives 1.
    This is the clock/shift circuit of measure_which_unitary_qudit
    stopped before its readout, exposed for inspection of the ancilla
    end states.
    """
    basis._weyl_form  # ValueError unless the elements are u0 Z^mu X^nu
    um, psi = _circuit_inputs(u, basis, psi)
    return _system_rows(
        _echo_joint(um, _reference(basis.u0, basis.dim), (basis.dim,), psi))


def measure_choi_side(op, basis: OperatorBasis, shots: int = 0,
                      seed: int | None = None):
    """Which-element measurement through the channel-state picture.

    The operator acts on one half of a maximally entangled pair and the
    pair is measured projectively in the orthonormal family
    (B_a (x) 1)|phi+>. This backend handles any trace-orthogonal basis,
    including rotated ones whose elements are no longer unitary, at the
    cost of consuming the entangled pair instead of preserving an
    arbitrary input state. Collapsed states are the post-measurement
    pair states.
    """
    # the amplitude on (B_a (x) 1)|phi+> is <<B_a|op>>/d = C_a
    probs = expand(op, basis).probabilities()
    return _finish(basis.labels, probs, _records(basis.elements), shots, seed)
