import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry.basis import clock_shift, weyl_basis
from evometry.linalg import (
    _check,
    _draw,
    _fix_gauge,
    _isometry_deviation,
    _kernel,
    _records,
    _sample,
    _tally,
    deterministic_eigh,
    entanglement_entropy,
    is_unitary,
    max_entangled,
    partial_trace,
    phase_fixed,
    random_state,
    random_unitary,
    shannon_entropy,
)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(81)
    for dim in (2, 3, 5):
        for _ in range(5):
            assert is_unitary(random_unitary(dim, rng))


def test_random_helpers_accept_plain_seeds():
    assert np.abs(random_unitary(3, 11) - random_unitary(3, 11)).max() == 0.0
    assert np.abs(random_state(4, 11) - random_state(4, 11)).max() == 0.0


def test_max_entangled_marginal_is_uniform():
    for d in (2, 3):
        phi = max_entangled(d)
        rho = np.outer(phi, phi.conj())
        marg = partial_trace(rho, (d, d), 0)
        assert np.abs(marg - np.eye(d) / d).max() < 1e-12


def test_records_are_the_element_on_half_a_max_entangled_pair():
    rng = np.random.default_rng(82)
    for d in (1, 2, 3):
        stack = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        want = [np.kron(m, np.eye(d)) @ max_entangled(d) for m in stack]
        assert np.abs(_records(stack) - want).max() < 1e-15


def test_isometry_deviation_reads_columns_of_each_matrix():
    u = random_unitary(4, 83)
    assert _isometry_deviation(u[:, :2]) < 1e-15
    assert _isometry_deviation(np.stack([u, u.T])) < 1e-15
    # the rows of a tall isometry are not orthonormal
    assert _isometry_deviation(u[:, :2].conj().T) > 0.1


def test_check_fails_closed():
    _check(1e-10, 1e-10, "at the bound")
    for dev in (2e-10, np.nan):
        with pytest.raises(ValueError, match=r"residual \(deviation"):
            _check(dev, 1e-10, "residual")


def test_partial_trace_both_sides():
    rng = np.random.default_rng(82)
    v = random_state(6, rng)
    rho = np.outer(v, v.conj())
    left = partial_trace(rho, (2, 3), 0)
    right = partial_trace(rho, (2, 3), 1)
    assert abs(np.trace(left) - 1.0) < 1e-12
    assert abs(np.trace(right) - 1.0) < 1e-12
    # both marginals of a pure state share a spectrum
    wl = np.sort(np.linalg.eigvalsh(left))[-2:]
    wr = np.sort(np.linalg.eigvalsh(right))[-2:]
    assert np.abs(wl - wr).max() < 1e-10


def test_entanglement_entropy_of_bell_pair():
    assert abs(entanglement_entropy(max_entangled(2), (2, 2)) - 1.0) < 1e-12
    prod = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(entanglement_entropy(prod.astype(complex), (2, 2))) < 1e-12


def test_shannon_entropy_edge_cases():
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    for p in ([1.0000000000000004], [1.0], []):
        h = shannon_entropy(np.array(p))
        assert h == 0.0 and np.copysign(1.0, h) == 1.0
    assert abs(shannon_entropy(np.array([0.25] * 4)) - 2.0) < 1e-12


def test_deterministic_eigh_is_stable_under_degeneracy():
    m = np.eye(4, dtype=complex) / 4
    w1, v1 = deterministic_eigh(m)
    w2, v2 = deterministic_eigh(m)
    assert np.abs(v1 - v2).max() == 0.0
    assert np.abs(w1 - 0.25).max() < 1e-12
    assert np.abs(v1.conj().T @ v1 - np.eye(4)).max() < 1e-10


def test_deterministic_eigh_sorts_descending():
    rng = np.random.default_rng(83)
    a = random_unitary(4, rng)
    m = a @ np.diag([0.1, 0.4, 0.3, 0.2]) @ a.conj().T
    w, v = deterministic_eigh(m)
    assert np.all(np.diff(w) <= 0)
    assert np.abs(m @ v - v @ np.diag(w)).max() < 1e-10


def test_phase_fixed_largest_entry_real_positive():
    v = np.array([0.1j, -0.9, 0.2], dtype=complex)
    f = phase_fixed(v)
    k = np.argmax(np.abs(f))
    assert f[k].real > 0 and abs(f[k].imag) < 1e-12


def _tied(nudged, phases):
    """Entries 1 and 2 share the largest magnitude, except that entry
    `nudged` is one ulp larger."""
    mags = np.array([0.3, 0.6, 0.6, 0.2])
    mags[nudged] = np.nextafter(mags[nudged], 1.0)
    return mags * np.array([1.0, *phases, -1j])


@pytest.mark.parametrize("phases", [(1, -1), (1j, 1), (np.exp(0.3j),
                                                        np.exp(2.1j))])
def test_phase_fix_anchors_the_first_of_tied_entries(phases):
    """Either nudge gives one gauge, with the first tied entry real and
    positive, in phase_fixed and in the gauge step of deterministic_eigh."""
    fixed = [phase_fixed(_tied(k, phases)) for k in (1, 2)]
    assert np.abs(fixed[0] - fixed[1]).max() <= 1e-15
    assert fixed[0][1].real > 0 and abs(fixed[0][1].imag) <= 1e-15
    other = np.array([0.5, -0.5j, 0.5, 0.5])
    gauged = [_fix_gauge(np.array([0.9, 0.1]),
                         np.stack([_tied(k, phases), other], axis=1))[1]
              for k in (1, 2)]
    assert np.abs(gauged[0] - gauged[1]).max() <= 1e-15
    assert np.abs(gauged[0][:, 0] - fixed[0]).max() <= 1e-15


def _column_loop_eigh(h, degeneracy_tol=1e-10):
    """Reference: the gauge fix as a per-column Gram-Schmidt loop.

    Projects e_0, e_1, ... onto each degenerate eigenspace, keeps the
    projections with norm above 1e-6 after orthogonalizing them in order,
    falls back to the LAPACK block when too few survive, and fixes each
    vector's phase.
    """
    vals, vecs = np.linalg.eigh(np.asarray(h))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    n = vals.size
    out = np.zeros_like(vecs)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(vals[j] - vals[i]) <= degeneracy_tol:
            j += 1
        block = vecs[:, i:j]
        proj = block @ block.conj().T
        cols = []
        for k in range(n):
            v = proj[:, k].copy()
            for c in cols:
                v -= c * np.vdot(c, v)
            nv = np.linalg.norm(v)
            if nv > 1e-6:
                cols.append(v / nv)
            if len(cols) == j - i:
                break
        if len(cols) < j - i:
            for k in range(j - i):
                v = block[:, k].copy()
                for c in cols:
                    v -= c * np.vdot(c, v)
                nv = np.linalg.norm(v)
                if nv > 1e-8:
                    cols.append(v / nv)
                if len(cols) == j - i:
                    break
        for m, c in enumerate(cols):
            out[:, i + m] = phase_fixed(c)
        i = j
    return vals, out


@settings(max_examples=40, deadline=None)
@given(
    multiplicities=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    rotated=st.integers(0, 20),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_deterministic_eigh_matches_the_column_loop(multiplicities, rotated,
                                                    seed):
    """Planted degenerate levels; eigenvectors mixed by a Haar unitary on
    the first `rotated` coordinates and then permuted, so some blocks
    project e_k to zero and take the loop's fallback."""
    rng = np.random.default_rng(seed)
    levels = rng.permutation(len(multiplicities)) * 0.5
    vals = np.repeat(levels, multiplicities)
    n = vals.size
    r = min(rotated, n)
    v = np.eye(n, dtype=complex)
    if r:
        v[:r, :r] = random_unitary(r, rng)
    v = v[rng.permutation(n)]
    h = v @ np.diag(vals) @ v.conj().T
    w, vecs = deterministic_eigh(h)
    want_w, want_vecs = _column_loop_eigh(h)
    assert np.array_equal(w, want_w)
    assert np.abs(vecs - want_vecs).max() <= 1e-10


@st.composite
def _weights(draw):
    """1 to 300 weights: random, with zeros, one-hot, equal or skewed."""
    k = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "zeros", "one-hot", "equal",
                                 "skewed"]))
    if kind == "equal":
        return np.full(k, 1.0 / k)
    if kind == "one-hot":
        p = np.zeros(k)
        p[rng.integers(k)] = 1.0
        return p
    p = rng.random(k) ** (rng.integers(1, 9) if kind == "skewed" else 1)
    if kind == "zeros":
        p[rng.random(k) < 0.5] = 0.0
        p[rng.integers(k)] = rng.random() + 0.5
    return p


@settings(max_examples=200, deadline=None)
@given(p=_weights(), shots=st.integers(0, 2000),
       seed=st.integers(0, 2 ** 64 - 1))
def test_sample_draws_what_generator_choice_draws(p, shots, seed):
    """The inverse-CDF draw is Generator.choice's, bit for bit."""
    got = _sample(p, shots, seed)
    want = np.random.default_rng(seed).choice(p.size, size=shots,
                                              p=p / p.sum())
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype


@settings(max_examples=300, deadline=None)
@given(p=_weights(), shots=st.integers(0, 2048),
       seed=st.integers(0, 2 ** 64 - 1))
def test_tally_counts_the_draws(p, shots, seed):
    """The sorted-key tally is the bincount of the inverse-CDF draws, bit
    for bit: the same counts and the same dtype."""
    got = _tally(p, p.sum(), shots, seed)
    want = np.bincount(_draw(p, p.sum(), shots, seed), minlength=p.size)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype


@pytest.mark.parametrize("weights", [
    [0.5, np.nan], [0.5, -0.1, 0.6], [1.0, np.inf], [np.inf, -np.inf],
    [0.0, 0.0], [], [[0.5, 0.5]], [1e308, 1e308],
], ids=["nan", "negative", "infinite", "infinite-pair", "all-zero", "empty",
        "2-d", "overflowing-sum"])
def test_sample_refuses_bad_weights_without_a_warning(weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weights must be a 1-D array"):
            _sample(np.array(weights), 5, 1)



@pytest.mark.parametrize("n", range(1, 17))
def test_kernel_is_exact_at_the_quarter_turns(n):
    """zeta^(jk) is read at jk mod n: 1, i, -1 and -i exactly where 4 jk / n
    is whole, with +0.0 real and imaginary parts, and every other entry
    within 1e-14 of exp(2 pi i jk / n) (the powers are products); K K^dag
    = n 1."""
    jk = np.arange(n)[:, None] * np.arange(n) % n
    k = _kernel(n)
    turns = 4 * jk % n == 0
    exact = np.array([1, 1j, -1, complex(0, -1)])[4 * jk[turns] // n]
    assert np.array_equal(k[turns], exact)
    assert not np.signbit(k.real[k.real == 0]).any()
    assert not np.signbit(k.imag[k.imag == 0]).any()
    assert np.abs(k - np.exp(2j * np.pi * jk / n)).max() <= 1e-14
    assert np.abs(k @ k.conj().T - n * np.eye(n)).max() <= 1e-13


def test_clock_shift_at_two_levels_is_exactly_the_pauli_pair():
    z, x = clock_shift(2)
    assert np.array_equal(z.matrix, np.diag([1, -1]))
    assert np.array_equal(x.matrix, [[0, 1], [1, 0]])
    # so the d = 2 Weyl elements carry no imaginary rounding
    assert np.array_equal(weyl_basis(2).elements.imag[:3], np.zeros((3, 2, 2)))
