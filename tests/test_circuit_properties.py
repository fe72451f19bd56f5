"""Properties of the echo circuit and the dense-coding decode over random
inputs: each is checked against the closed form from expand."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evometry import (
    OperatorBasis,
    TwoTimeObservable,
    clock_shift_powers,
    expand,
    measure_which_unitary,
    measure_which_unitary_qudit,
    pauli_basis,
    pauli_strings,
    superdense_send,
    temporal_eigenvalue,
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


# (mu, nu) of I, X, Y, Z in the one-qubit Pauli basis, Y up to the
# phase of Z X = i sigma_y
_PAULI_PAIRS = ((0, 0), (0, 1), (1, 1), (1, 0))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["pauli", "weyl"]), size=st.integers(0, 5),
       with_u0=st.booleans(), bystander=st.booleans(),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_a_basis_element_is_read_out_whatever_the_state(
        family, size, with_u0, bystander, data, seed):
    """The paper's state independence: run on u = element a of
    pauli_basis (n <= 3) or weyl_basis (d <= 7), the circuit gives
    outcome a with probability 1 for a Haar psi, with or without a
    bystander, and leaves the state (u (x) 1) psi. Element a = u0 Z^mu
    X^nu is an eigenoperator of both two-time observables, with the
    eigenvalues (zeta^nu, zeta^-mu); the observables hold one clock/shift
    site, so that half covers the Weyl bases and the one-qubit Pauli
    basis."""
    rng = np.random.default_rng(seed)
    d = 2 ** (size % 3 + 1) if family == "pauli" else size + 2
    u0 = random_unitary(d, rng) if with_u0 else None
    basis = pauli_basis(u0, dim=d) if family == "pauli" else weyl_basis(d, u0)
    a = data.draw(st.integers(0, d * d - 1), label="element")
    u = basis[a]
    psi = random_state(2 * d if bystander else d, rng)
    dist, results = measure_which_unitary(u, basis, psi)
    assert abs(dist.probabilities[a] - 1.0) <= 1e-12
    assert [r.outcome for r in results] == [a]
    want = (u @ psi.reshape(d, -1)).ravel()
    assert np.abs(results[0].collapsed.amplitudes - want).max() <= 1e-12
    if family == "pauli" and d > 2:
        return
    mu, nu = _PAULI_PAIRS[a] if family == "pauli" else divmod(a, d)
    zeta = np.exp(2j * np.pi / d)
    for g, want in (("z", zeta ** nu), ("x", zeta ** -mu)):
        lam = temporal_eigenvalue(TwoTimeObservable(g, d, u0=u0), u)
        assert abs(lam - want) <= 1e-12
