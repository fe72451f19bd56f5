"""Properties of the echo circuit and the dense-coding decode over random
inputs: each is checked against the closed form from expand."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import (
    OperatorBasis,
    clock_shift_powers,
    expand,
    measure_which_unitary,
    measure_which_unitary_qudit,
    pauli_basis,
    pauli_strings,
    superdense_send,
    weyl_basis,
)
from evometry.linalg import random_state, random_unitary

ATOL = 1e-13
# the bystander of a normalised branch: a branch of weight 1e-9 scales
# the rounding of its row by 3e4
BYSTANDER_ATOL = 1e-10
FEW = settings(max_examples=8, deadline=None)


def _bystander_state(psi, d):
    m = np.asarray(psi).reshape(d, -1)
    return m.T @ m.conj()


def _check_circuit(u, basis, psi):
    """Both entry names bit for bit, then the Born law, closed-form rows,
    bystander untouched, dense coding."""
    d = basis.dim
    coeffs = expand(u, basis).coeffs
    dist, results = measure_which_unitary(u, basis, psi)
    other, other_results = measure_which_unitary_qudit(u, basis, psi)
    assert other == dist and other_results == results
    assert np.abs(dist.probabilities - np.abs(coeffs) ** 2).max() < ATOL

    # row a, unnormalized, is C_a (B_a (x) 1) psi with B_a = u0 s_a
    reported = {r.outcome for r in results}
    assert all(abs(coeffs[a]) ** 2 <= 1e-14
               for a in set(range(d * d)) - reported)
    for r in results:
        row = np.sqrt(r.exact_prob) * r.collapsed.amplitudes
        want = coeffs[r.outcome] * (
            basis.elements[r.outcome] @ psi.reshape(d, -1)
        ).ravel()
        assert np.abs(row - want).max() < ATOL
        if psi.size > d:
            assert np.abs(_bystander_state(r.collapsed.amplitudes, d)
                          - _bystander_state(psi, d)).max() < BYSTANDER_ATOL

    sent = superdense_send(u, basis)
    assert np.abs(sent.coefficients - coeffs).max() < ATOL


def _check_direct(basis, products, u0, u, psi):
    """The basis built directly from u0 times the products is the
    builder's basis: equal, hashed alike and read out bit for bit."""
    direct = OperatorBasis(u0 @ products, basis.labels)
    assert direct == basis and hash(direct) == hash(basis)
    seed = 7
    assert (measure_which_unitary(u, direct, psi, shots=32, seed=seed)
            == measure_which_unitary(u, basis, psi, shots=32, seed=seed))


@FEW
@given(n=st.integers(1, 3), with_u0=st.booleans(), bystander=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pauli_circuit_matches_closed_form(n, with_u0, bystander, seed):
    rng = np.random.default_rng(seed)
    d = 2 ** n
    u0 = random_unitary(d, rng) if with_u0 else np.eye(d)
    basis = pauli_basis(u0) if with_u0 else pauli_basis(dim=d)
    u = random_unitary(d, rng)
    psi = random_state(2 * d if bystander else d, rng)
    _check_circuit(u, basis, psi)
    _check_direct(basis, pauli_strings(n), u0, u, psi)


@settings(max_examples=16, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 5, 7]), with_u0=st.booleans(),
       bystander=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_weyl_circuit_matches_closed_form(d, with_u0, bystander, seed):
    """d = 2 and 4 are powers of two read out in Weyl order, not Pauli."""
    rng = np.random.default_rng(seed)
    u0 = random_unitary(d, rng) if with_u0 else np.eye(d)
    basis = weyl_basis(d, u0 if with_u0 else None)
    u = random_unitary(d, rng)
    psi = random_state(2 * d if bystander else d, rng)
    _check_circuit(u, basis, psi)
    zp, xp = clock_shift_powers(d)
    products = np.stack([z @ x for z in zp for x in xp])
    _check_direct(basis, products, u0, u, psi)
