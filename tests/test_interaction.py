import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import (
    BipartiteUnitary,
    OperatorSchmidt,
    bipartite_expand,
    concentrate,
    concentration_sectors,
    entropy,
    induced_local_map,
    interaction_entanglement,
    operator_schmidt,
    pauli_basis,
    weyl_basis,
)
from evometry.gates import CNOT, H, SWAP, X
from evometry.linalg import random_unitary


MAXENT = (np.kron(np.eye(2), np.eye(2)) + 1j * np.kron(X, X)) / np.sqrt(2)


def test_cnot_schmidt_values():
    s = operator_schmidt(CNOT)
    assert np.abs(np.asarray(s.values) - np.array([0.5 ** 0.5, 0.5 ** 0.5])).max() < 1e-9


def test_entangling_power_reference_values():
    assert abs(interaction_entanglement(CNOT) - 1.0) < 1e-9
    assert abs(interaction_entanglement(SWAP) - 2.0) < 1e-9
    assert abs(interaction_entanglement(MAXENT) - 1.0) < 1e-9
    assert abs(interaction_entanglement(np.kron(H, X))) < 1e-9


def test_swap_has_four_equal_values():
    s = operator_schmidt(SWAP)
    assert len(s.values) == 4
    assert np.abs(np.asarray(s.values) - 0.5).max() < 1e-9


def test_schmidt_reconstruction():
    rng = np.random.default_rng(61)
    for _ in range(10):
        u = random_unitary(4, rng)
        s = operator_schmidt(u)
        assert np.abs(s.reconstruct() - u).max() < 1e-9
        assert abs(np.sum(np.asarray(s.values) ** 2) - 1.0) < 1e-10


def test_schmidt_local_operators_are_orthogonal():
    s = operator_schmidt(CNOT)
    for i, a in enumerate(s.ops_a):
        for j, b in enumerate(s.ops_a):
            ov = np.trace(a.conj().T @ b) / 2
            assert abs(ov - (1.0 if i == j else 0.0)) < 1e-9


def test_unequal_factor_dimensions():
    rng = np.random.default_rng(62)
    u = random_unitary(6, rng)
    s = operator_schmidt(u, dims=(2, 3))
    assert np.abs(s.reconstruct() - u).max() < 1e-9


def test_bipartite_expand_coefficient_normalization():
    c = bipartite_expand(CNOT)
    assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-10


def test_induced_map_entropy_equals_interaction_entanglement():
    rng = np.random.default_rng(63)
    for u in (CNOT, SWAP, MAXENT, random_unitary(4, rng)):
        m = induced_local_map(u, other_state="maximally_mixed")
        assert abs(entropy(m) - interaction_entanglement(u)) < 1e-9


def test_induced_map_on_fixed_state():
    """CNOT with the target in |0> dephases the control into projectors."""
    m = induced_local_map(CNOT, side="A", other_state=None)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    got = sorted((np.abs(op - p0).max(), np.abs(op - p1).max()) for op in m.operators)
    assert got[0][0] < 1e-9 and got[1][1] < 1e-9
    # a zero or non-finite vector used to fail later, as a completeness
    # sum of deviation nan
    for bad in ([0, 0], [np.nan, 1], [np.inf, 0]):
        with pytest.raises(ValueError, match="traced-side state must be a "
                                             "nonzero finite vector"):
            induced_local_map(CNOT, other_state=bad)
    with pytest.raises(ValueError, match="traced-side state has the wrong"):
        induced_local_map(CNOT, other_state=[1, 0, 0])


def test_induced_map_side_b():
    m = induced_local_map(SWAP, side="B",
                          other_state=np.array([0.0, 1.0], dtype=complex))
    rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    out = m.apply(rho)
    # swapping hands side B the fixed |1><1| state
    assert np.abs(out - np.diag([0.0, 1.0])).max() < 1e-9


def test_concentration_combinatorial_law():
    dist = concentrate(4, np.sqrt(0.75))
    want = np.array([
        math.comb(4, k) * 0.75 ** k * 0.25 ** (4 - k) for k in range(5)
    ])
    assert np.abs(dist.probabilities - want).max() < 1e-12
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12


def test_concentration_exact_matrix_matches_combinatorics():
    for n in (1, 2, 3, 4):
        dist = concentrate(n, np.sqrt(0.75), mode="exact-matrix")
        assert dist.sector_deviation is not None
        assert dist.sector_deviation < 1e-10


def test_concentration_sector_blocks_have_expected_weight():
    n = 3
    alpha = np.sqrt(0.6)
    sectors = concentration_sectors(n, alpha)
    weights = np.array([np.linalg.norm(g) ** 2 for g in sectors])
    weights /= weights.sum()
    want = np.array([
        math.comb(n, k) * 0.6 ** k * 0.4 ** (n - k) for k in range(n + 1)
    ])
    assert np.abs(weights - want).max() < 1e-10


def _bucket_sectors(n, alpha, beta):
    """Reference: the sectors by projecting the full operator onto the
    +1 and -1 parts of each copy's sign conjugation in turn."""
    block = alpha * np.eye(4, dtype=complex) + beta * np.kron(X, X)
    full = block
    for _ in range(n - 1):
        full = np.kron(full, block)
    nq = 2 * n
    buckets = {0: full}
    for copy in range(n):
        signs = 1.0 - 2.0 * ((np.arange(2 ** nq) >> (nq - 1 - 2 * copy)) & 1)
        nxt = {}
        for count, mat in buckets.items():
            flipped = signs[:, None] * mat * signs[None, :]
            nxt[count + 1] = nxt.get(count + 1, 0) + 0.5 * (mat + flipped)
            nxt[count] = nxt.get(count, 0) + 0.5 * (mat - flipped)
        buckets = nxt
    return [buckets[k] for k in range(n + 1)]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_concentration_sectors_equal_the_bucket_projections(n, seed):
    rng = np.random.default_rng(seed)
    alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
    norm = math.hypot(abs(alpha), abs(beta))
    alpha, beta = alpha / norm, beta / norm
    got = concentration_sectors(n, alpha, beta)
    want = _bucket_sectors(n, alpha, beta)
    assert len(got) == n + 1
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_concentration_block_sizes_are_binomial():
    dist = concentrate(5, np.sqrt(0.75))
    assert [r.term_count for r in dist.records] == [
        math.comb(5, k) for k in range(6)
    ]


def test_concentration_yield_frozen_values():
    d16, d32 = concentrate(16, np.sqrt(0.75)), concentrate(32, np.sqrt(0.75))
    assert abs(d16.yield_bits() / 16 - 0.6346538529407203) < 1e-12
    assert abs(math.log2(d16.expected_term_count()) / 16
               - 0.7261271321531075) < 1e-12
    assert abs(math.log2(d32.expected_term_count()) / 32
               - 0.7975701347752850) < 1e-12


def test_concentration_rate_approaches_entropy():
    h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    r16 = math.log2(concentrate(16, np.sqrt(0.75)).expected_term_count()) / 16
    r32 = math.log2(concentrate(32, np.sqrt(0.75)).expected_term_count()) / 32
    assert abs(r32 - h) < abs(r16 - h)


def test_concentration_sampling_is_reproducible():
    a = concentrate(6, np.sqrt(0.75), shots=100, seed=5)
    b = concentrate(6, np.sqrt(0.75), shots=100, seed=5)
    assert np.array_equal(a.samples, b.samples)
    with pytest.raises(ValueError):
        concentrate(6, np.sqrt(0.75), shots=10)


def test_concentration_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError):
        concentrate(4, 0.9, 0.9)
    with pytest.raises(ValueError):
        concentrate(0, 1.0)


def test_yield_never_exceeds_expected_count_exponent():
    # Jensen: E[log C] <= log E[C]
    for n in (8, 16, 24):
        dist = concentrate(n, np.sqrt(0.75))
        y = dist.yield_bits()
        e = math.log2(dist.expected_term_count())
        assert y <= e + 1e-12


@pytest.mark.parametrize("n, message", [(0, "at least 1"),
                                        (2000, "capped at n = 64")])
def test_yield_and_term_count_share_the_cap_of_concentrate(n, message):
    with pytest.raises(ValueError, match=message):
        concentrate(n, 0.8)


def test_schmidt_operators_are_read_only_arrays():
    s = operator_schmidt(CNOT)
    for ops in (s.ops_a, s.ops_b):
        assert isinstance(ops, np.ndarray) and ops.shape == (len(s), 2, 2)
        assert not ops.flags.writeable
        with pytest.raises(ValueError):
            ops[0][0, 0] = 0.0


def test_reconstruct_matches_the_kron_sum():
    for u, dims in ((CNOT, None), (random_unitary(16, 5), None),
                    (random_unitary(6, 7), (2, 3))):
        s = operator_schmidt(u, dims=dims)
        want = sum(v * np.kron(a, b)
                   for v, a, b in zip(s.values, s.ops_a, s.ops_b))
        assert np.abs(s.reconstruct() - want).max() <= 1e-14


def test_induced_map_elements_are_the_blocks_in_order():
    u = random_unitary(6, 9)
    u4 = u.reshape(2, 3, 2, 3)
    mixed = induced_local_map(u, other_state="maximally_mixed", dims=(2, 3))
    want = [u4[:, j, :, t] / np.sqrt(3) for j in range(3) for t in range(3)]
    assert np.abs(mixed.operators - np.stack(want)).max() == 0.0
    phi = np.array([0.6, 0.8j])
    fixed = induced_local_map(u, side="B", other_state=phi, dims=(2, 3))
    ub = u4.transpose(1, 0, 3, 2)
    want = [np.einsum("rct,t->rc", ub[:, j], phi) for j in range(2)]
    assert np.abs(fixed.operators - np.stack(want)).max() < 1e-15
    assert not fixed.operators.flags.writeable


def test_bipartite_unitary_rejects_nan():
    with pytest.raises(ValueError, match="unitary"):
        BipartiteUnitary((2, 2), np.full((4, 4), np.nan, dtype=complex))


@pytest.mark.parametrize("dims, message", [
    ((2,), "dims must be two positive integers"),
    ((2.5, 1.6), "dims must be two positive integers"),
    ((0, 4), "dims must be two positive integers"),
    ((True, 4), "dims must be two positive integers"),
    ((2, 3), "matrix has dim 4, expected 6"),
])
def test_caller_dims_are_checked(dims, message):
    """dims used to pass unchecked: (2,) failed to unpack, and (2.5, 1.6)
    was truncated to (2, 1) and failed in the basis builder."""
    with pytest.raises(ValueError, match=message):
        operator_schmidt(np.eye(4), dims=dims)
    with pytest.raises(ValueError, match=message):
        BipartiteUnitary(dims, np.eye(4))


@pytest.mark.parametrize("entry", [operator_schmidt, bipartite_expand,
                                   induced_local_map])
@pytest.mark.parametrize("u, shape", [(5.0, "()"), (np.ones((2, 3)), "(2, 3)"),
                                      (np.ones(4), "(4,)")])
def test_an_interaction_must_be_a_square_matrix(entry, u, shape):
    """A 0-d input used to raise IndexError from reading its shape."""
    message = "interaction must be a square matrix, got shape " + shape
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(u)


def test_a_one_level_factor_has_the_one_element_basis():
    """dim 1 used to be taken for a power of two and given a Pauli basis
    of no qubits."""
    s = operator_schmidt(np.eye(4), dims=(1, 4))
    assert np.array_equal(s.values, [1.0])
    assert s.ops_a.shape == (1, 1, 1) and s.ops_b.shape == (1, 4, 4)
    assert interaction_entanglement(np.eye(1)) == 0.0
    assert np.allclose(bipartite_expand(CNOT, dims=(4, 1)),
                       pauli_basis(dim=4).elements.reshape(16, -1).conj()
                       @ CNOT.ravel()[:, None] / 4)


def test_numpy_integer_dims_are_plain_ints():
    bu = BipartiteUnitary((np.int64(2), np.int64(2)), CNOT)
    assert bu.dims == (2, 2) and all(type(x) is int for x in bu.dims)


def test_operator_schmidt_rejects_nan_values():
    with pytest.raises(ValueError, match="sum to 1"):
        OperatorSchmidt(np.array([np.nan]), (np.eye(2),), (np.eye(2),))


def test_concentration_rejects_nan_amplitude():
    with pytest.raises(ValueError, match="is not 1"):
        concentrate(2, np.nan)


def test_expand_matches_the_trace_definition():
    u = random_unitary(6, 71)
    ba, bb = pauli_basis(dim=2), weyl_basis(3)
    coeff = bipartite_expand(u, ba, bb, dims=(2, 3))
    want = np.array([
        [np.trace(np.kron(a, b).conj().T @ u) / 6 for b in bb.elements]
        for a in ba.elements
    ])
    assert np.abs(coeff - want).max() < 1e-14
