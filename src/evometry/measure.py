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

Simulation: the joint state is one (bystander, outcome, level) array,
never a global matrix, and the circuit's first half has a closed form.
Each ancilla block, the alpha levels of every site and the beta levels,
is a mixed-radix index over the sites, and every level difference below
is taken digit by digit mod the site dims. Let V = u0^dag U and D the
product of the site dims. t1 gives X^alpha Z^beta psi = zeta^(beta (l -
alpha)) psi[l - alpha] / D, V acts on the level axis, and the beta
block's Fourier readout F[nu, beta] = zeta^(nu beta) / sqrt(D) sums beta
away, keeping one source level: [nu, alpha, l] = psi[-nu] V[l, alpha -
nu] / sqrt(D). Since F[nu, beta] zeta^(-beta l) = F[nu - l, beta], t2
is the gather [(alpha, nu), l] <- [(nu - l, alpha), l + alpha] of that
array, which leaves psi[l - nu] S[nu, l + alpha] / sqrt(D) with S[nu, k]
= V[k, k - nu]. Its V factor depends on neither psi nor the bystander.
So a call takes S from V and spreads it over the alpha axis by two
gathers, reads the alpha block with conj(F), the circuit's last readout,
and multiplies by psi shifted by nu, one factor per bystander level.
The readout holds the unnormalised kernel K = zeta^(nu beta)
(linalg._kernel), not F = K / sqrt(D), and the two 1/sqrt(D) of the
readouts are one division of the shifted state by D, so a run of qubits
reads with a real kron of [[1, 1], [1, -1]] over the float view and
rounds only in its sums. The outcomes lie as (nu block, mu block); the
labels, Pauli labels included, are reached by permuting the D^2 weights
and the observed indices, never the rows. The index tables (D x D, 512
KiB at n = 8 qubits), the kernel runs and the label order are the
product family's, basis._couplings and basis._readout, the same tables
that expand's transform reads (basis._family_traces): each depends only
on the site dims, is built once per site tuple (the 16 most recent are
kept) whichever reader asks first, and is read-only. A block is read in
runs of consecutive sites whose kron'd kernel has at most READ_ROWS = 16
rows. u0 is unitary, so the law is the rows' squared norms before the
final u0, taken in one contraction over the float view, and u0 then acts
on the observed rows alone. When u0 is exactly the identity (every
builder basis without u0, which the basis memoises) its products are
skipped, with the same result to the last bit. For n qubits and a
bystander of dimension b the joint array holds 8^n b amplitudes; the
gather of S and the psi product cost time in proportion to 8^n and 8^n
b, the readout up to 16 times 8^n, and u0^dag U 8^n. The law takes about
50 us at n = 4, 0.87 ms at n = 5 and 5.4 ms at n = 6, and with a Haar u0
and a two-level bystander 0.088, 0.91 and 6.0 ms (medians over five
fresh processes of each one's median, one BLAS thread, 2-vCPU Xeon VM).
At n = 8 a 64-shot first call, tables included, takes about 0.6 s and
the process peaks at about 565 MB.

Validation: a circuit requires its basis to be of a product form
{u0 s_a} with s_0 = 1, Pauli strings on qubit sites or clock/shift
products on one d-level site. The reference u0 is the basis's first
element. A basis from pauli_basis or weyl_basis carries its form from
the build, which memoises it; any other basis finds the form in its own
elements on the first call and memoises it (a basis is frozen). A basis
of neither form, or of one level, raises, naming the first element that
deviates or the dimension, and is checked again on the next call.
shots goes through linalg._count, which refuses a bool, a float or a
negative with a ValueError naming the argument, and the seed through
linalg._seed, which also refuses a missing seed when shots > 0 and
checks a given one even when shots is 0 and nothing is drawn.

Results: a call checks each quantity once, in _finish: the seed, the law
(_law, the check of OutcomeDistribution: one finite, non-negative
probability per label, summing to 1 within PROBABILITY_ATOL, so each is
at most 1 + PROBABILITY_ATOL) and the observed rows, whose squared norms
(one contraction over the float view) must be finite normal floats, so
one NaN, infinite or zero row rejects the call. Each observed row is
divided by its own norm after u0, so a u0 that passes its 1e-10
unitarity check still gives unit rows. The draws (linalg._draw) are
label indices by construction. The call then fills the
OutcomeDistribution and one CircuitBranches record of the observed
outcomes, their unit rows and their exact probabilities from these
fresh arrays, frozen in place, by linalg._filled, without running their
validators again; a record built directly, a copy or a pickle runs them.
The weight of each circuit row, taken before u0, is the outcome's
probability. The record's WhichUnitaryResult views are built when read
and run no validator; a PureState built directly, or through
dataclasses.replace, still checks its norm. At n = 4 with 512 shots
(about 170 branches) a call takes about 18% less time than when its
records checked the law and the rows again, 0.37 against 0.45 ms (the
median of 300 single calls on fresh inputs, both versions rotated in one
process by tools/layers.py, BENCH_31.json; one BLAS thread, 2-vCPU Xeon
VM), and 16-21% less at every n = 1..4 and d = 3..11.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from .basis import (
    PRODUCT_FORM_ATOL,
    OperatorBasis,
    _couplings,
    _read,
    _readout,
    clock_shift,
    expand,
)
from .linalg import (
    _array_hash,
    _check,
    _count,
    _draw,
    _filled,
    _frozen,
    _record,
    _records,
    _seed,
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
        return np.eye(self.dim, dtype=complex) if self.u0 is None else self.u0


@_record
class WhichUnitaryResult:
    """One measurement branch: outcome index, collapsed state, exact
    probability of that branch."""

    outcome: int
    collapsed: PureState
    exact_prob: float


@_record
class CircuitBranches(Sequence):
    """The observed branches of one measurement as three read-only
    arrays: outcomes (k label indices), states (k x D unit rows, the
    collapsed states) and probabilities (k exact probabilities).

    A sequence of WhichUnitaryResult views built when read: item i has
    outcome outcomes[i], exact_prob probabilities[i] and a state whose
    amplitudes are the row states[i]; a slice is the record of those
    branches. The rows are norm-checked at once, here or by the call
    that fills the record (measure._finish), so no view's state runs its
    validator.
    """

    outcomes: np.ndarray
    states: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        outcomes, states = np.array(self.outcomes), _frozen(self.states)
        p = np.array(self.probabilities, dtype=float)
        k = len(outcomes)
        if (outcomes.ndim != 1 or outcomes.dtype.kind not in "iu"
                or states.ndim != 2 or len(states) != k or p.shape != (k,)):
            raise ValueError("need k outcome indices, k state rows and k "
                             f"probabilities, got shapes {outcomes.shape}, "
                             f"{states.shape} and {p.shape}")
        # as in OutcomeDistribution, a probability may round up to
        # PROBABILITY_ATOL past 1; a NaN or an infinity fails either test
        if not (p.min(initial=0.0) >= 0.0
                and p.max(initial=0.0) <= 1.0 + PROBABILITY_ATOL):
            raise ValueError("probabilities must lie in [0, 1]")
        _check(np.abs(np.linalg.norm(states, axis=1) - 1.0).max(initial=0.0),
               NORM_ATOL, "state norm is not 1")
        outcomes.setflags(write=False)
        p.setflags(write=False)
        for name, a in zip(("outcomes", "states", "probabilities"),
                           (outcomes, states, p)):
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CircuitBranches(self.outcomes[i], self.states[i],
                                   self.probabilities[i])
        i = operator.index(i)
        return _branch(int(self.outcomes[i]), self.states[i],
                       float(self.probabilities[i]))

    def __iter__(self):
        return map(_branch, self.outcomes.tolist(), self.states,
                   self.probabilities.tolist())


def _branch(outcome: int, row: np.ndarray, prob: float):
    """A branch view over a row that CircuitBranches has norm-checked:
    its PureState is filled without running the validator again."""
    return WhichUnitaryResult(outcome, _filled(PureState, amplitudes=row),
                              prob)


@_record
class OutcomeDistribution:
    """Exact outcome probabilities, optionally with sampled shots.

    One finite, non-negative probability per label, summing to 1 within
    PROBABILITY_ATOL (_law); shot_outcomes, when given, is a 1-D array of
    label indices, and counts and shots are read from it. Both are held
    as read-only arrays, copies of the inputs when built directly."""

    labels: tuple
    probabilities: np.ndarray
    shot_outcomes: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        n = len(self.labels)
        p = _frozen(self.probabilities, float)
        _law(p, n)
        if self.shot_outcomes is not None:
            s = _frozen(self.shot_outcomes, None)
            if (s.ndim != 1 or s.dtype.kind not in "iu"
                    or s.size and not 0 <= s.min() <= s.max() < n):
                raise ValueError(f"shot outcomes must be indices of the {n} "
                                 "labels")
            object.__setattr__(self, "shot_outcomes", s)
        object.__setattr__(self, "probabilities", p)

    @property
    def counts(self) -> np.ndarray | None:
        """Shots per label, or None when nothing was drawn."""
        if self.shot_outcomes is None:
            return None
        return np.bincount(self.shot_outcomes, minlength=len(self.labels))

    @property
    def shots(self) -> int:
        return 0 if self.shot_outcomes is None else len(self.shot_outcomes)


def _law(p: np.ndarray, n: int) -> float:
    """The check of every outcome law, p a float array: n finite,
    non-negative probabilities summing to 1 within PROBABILITY_ATOL, else
    a ValueError. Returns the sum, which a draw from p divides by."""
    if p.shape != (n,):
        raise ValueError(f"need one probability per label: {n} labels, "
                         f"probabilities of shape {p.shape}")
    # a NaN makes the minimum NaN, and an infinity the sum
    if not p.min(initial=0.0) >= 0.0:
        raise ValueError("probabilities must be finite and non-negative")
    total = p.sum()
    _check(abs(total - 1.0), PROBABILITY_ATOL,
           "probabilities do not sum to 1")
    return total


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


def _induced_map(obs: TwoTimeObservable) -> np.ndarray:
    """The d^2 x d^2 matrix of U -> (u0 g u0^dag) U g^dag, the map of
    temporal_eigenvalue, on U flattened row-major: A U B is
    kron(A, B^T), and (g^dag)^T = conj(g)."""
    ref, g = obs.reference(), obs.generator()
    return np.kron(ref @ g @ dag(ref), g.conj())


def observable_commutator_norm(
    obs1: TwoTimeObservable, obs2: TwoTimeObservable
) -> float:
    """Frobenius norm of the commutator of the two induced maps.

    Each observable acts on operators as L(U) = (u0 g u0^dag) U g^dag,
    the map of temporal_eigenvalue, represented by the d^2 x d^2 matrix
    (u0 g u0^dag) kron conj(g). Every element u0 Z^mu X^nu of the basis
    is an eigenoperator of both the z and the x map, so the two commute
    exactly: the norm is 0 for the z/x pair at any d and any u0. That
    shared eigenbasis is precisely what lets one readout identify every
    basis element even though the generators themselves do not commute
    as matrices.
    """
    if obs1.dim != obs2.dim:
        raise ValueError("observables act on different dimensions")
    if np.abs(obs1.reference() - obs2.reference()).max() > PRODUCT_FORM_ATOL:
        raise ValueError("observables must share the same reference u0")
    l1, l2 = _induced_map(obs1), _induced_map(obs2)
    return float(np.linalg.norm(l1 @ l2 - l2 @ l1))


def which_unitary_distribution(u, basis: OperatorBasis) -> OutcomeDistribution:
    """Exact outcome law |C_a|^2 for measuring which basis element acted."""
    p = expand(u, basis).probabilities()
    _law(p, len(basis.labels))
    return _filled(OutcomeDistribution, labels=basis.labels, probabilities=p)


# ---------------------------------------------------------------------------
# circuit engine


def _echo_joint(u, u0, site_dims, psi, runs):
    """(bystander, outcome, level) array of the echo circuit read out by
    the runs of _readout, before its final u0 product: [b, c] is the
    unnormalized system vector paired with bystander level b and outcome
    c = (nu block, mu block) in mixed-radix order. With V = u0^dag U and
    S[nu, k] = V[k, k - nu], V taken at diag, it is psi_b[l - nu], psi
    taken at down, times the alpha block's conj(K) readout of S[nu, l +
    alpha], S taken at up, over D: the runs hold the unnormalised
    kernels, so the 1/sqrt(D) of each of the two Fourier readouts is one
    division of the shifted state (see the module docstring). u0=None
    stands for the identity reference and skips the product with u0^dag,
    with the same result to the last bit."""
    down, up, diag = _couplings(site_dims)
    dim = len(down)
    v = u if u0 is None else dag(u0) @ u
    t = _read(np.take(v.ravel()[diag], up, axis=1), runs, dim, True)
    shifted = np.take(psi.reshape(dim, -1).T, down, axis=1) / dim
    return (t * shifted[:, :, None]).reshape(len(shifted), -1, dim)


def _circuit_rows(u, u0, site_dims, psi, pauli=False):
    """Run the echo circuit: (weights, rows_of).

    weights[a] is the squared norm of label a's system row, the outcome
    probability, taken before the final u0 product (u0 is unitary);
    rows_of(labels) gives the unnormalized rows of those labels, u0
    applied to them alone. Labels are per-site pairs (mu_j, nu_j), or
    for a Pauli basis per-site labels, in mixed-radix order; the engine
    holds its outcomes as (nu block, mu block) and reaches the labels by
    permuting weights and indices, never the rows.
    """
    runs, order = _readout(site_dims, pauli)
    t = _echo_joint(u, u0, site_dims, psi, runs)
    b, _, dim = t.shape
    floats = t.view(float)
    weights = np.einsum("bcx,bcx->c", floats, floats)

    def rows_of(labels):
        rows = np.take(t, order[labels], axis=1)
        if u0 is not None:
            rows = rows @ u0.T
        return rows.transpose(1, 2, 0).reshape(len(labels), dim * b)

    return weights[order], rows_of


def _finish(labels, probs, rows_of, shots, seed):
    """The distribution and the CircuitBranches of the observed outcomes,
    whose states are the rows rows_of(observed) made unit by _unit, which
    refuses the call on one bad row (NaN included). Each quantity is
    checked once, here: the seed (even when nothing is drawn), the law
    probs (_law, which also bounds each probability by 1 +
    PROBABILITY_ATOL) and the rows; the draws are label indices by
    construction. The records are filled from these fresh arrays, not
    checked again."""
    checked = _seed(seed, shots)
    p = np.asarray(probs, dtype=float)
    total = _law(p, len(labels))
    if shots:
        shot_outcomes = _draw(p, total, shots, checked)
        observed = np.flatnonzero(np.bincount(shot_outcomes,
                                              minlength=p.size))
    else:
        shot_outcomes = None
        observed = np.flatnonzero(p > 1e-14)
    states = _unit(rows_of(observed))
    dist = _filled(OutcomeDistribution, labels=labels, probabilities=p,
                   shot_outcomes=shot_outcomes, seed=seed)
    return dist, _filled(CircuitBranches, outcomes=observed, states=states,
                         probabilities=p[observed])


# a squared row norm at or above this is a normal float, so the row's
# norm is exact to rounding and dividing by it gives a unit row
_NORMAL = np.finfo(float).tiny


def _unit(rows):
    """A fresh array of the complex rows, each divided by its own norm,
    the rows' one norm check: ValueError unless every squared norm is a
    finite normal float, so a NaN, infinite or zero row, or one too
    small to normalise, is refused. One contraction and the division
    run on the float views, real ones, several times cheaper than
    complex ones; the rows' last axis must be contiguous."""
    v = rows.view(float)
    squares = np.einsum("ij,ij->i", v, v)
    if not (squares.min(initial=1.0) >= _NORMAL
            and squares.max(initial=1.0) < np.inf):
        raise ValueError("state norm is not 1: a row is NaN, infinite, "
                         "zero or too small to normalise")
    unit = np.empty_like(rows)
    np.divide(v, np.sqrt(squares)[:, None], out=unit.view(float))
    return unit


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


def measure_which_unitary(u, basis: OperatorBasis, psi, shots: int = 0,
                          seed: int | None = None):
    """Simulate the echo circuit that reads out which basis element acted.

    The basis must be of a product form {u0 s_a}, which its own elements
    give: Pauli strings in pauli_basis ordering, read by two qubit
    ancillas per qubit, or u0 Z^mu X^nu in weyl_basis ordering, read by
    two d-level ancillas that end in the Fourier vectors with kernels
    zeta^{alpha mu} and zeta^{-beta nu}. Any other basis is refused,
    naming the first element that deviates. psi may live on C^d or carry
    an extra untouched tensor factor, which rides along and stays
    entangled exactly as it was.

    Returns (OutcomeDistribution, CircuitBranches): the record holds one
    branch per outcome that occurred (all outcomes of nonzero
    probability when shots == 0), as the arrays outcomes, states (unit
    rows, the collapsed states) and probabilities, and reads as a
    sequence of WhichUnitaryResult views. Repeated shots that land on
    the same outcome share the same collapsed state, so the per-shot
    record lives in the distribution's shot_outcomes.
    """
    shots = _count(shots, "shots")
    site_dims, pauli, u0 = basis._product_form
    um, psi = _circuit_inputs(u, basis, psi)
    weights, rows_of = _circuit_rows(um, u0, site_dims, psi, pauli)
    return _finish(basis.labels, weights, rows_of, shots, seed)


def measure_which_unitary_qudit(u, basis: OperatorBasis, psi,
                                shots: int = 0, seed: int | None = None):
    """measure_which_unitary under the name of its clock/shift case."""
    return measure_which_unitary(u, basis, psi, shots, seed)


def circuit_end_state(u, basis: OperatorBasis, psi) -> np.ndarray:
    """Joint (ancilla configs x system) array after the echo circuit.

    Row c of the result is the unnormalized system vector paired with
    ancilla computational configuration c; summing |row|^2 gives 1.
    This is the circuit of measure_which_unitary stopped before its
    readout, for either product form, exposed for inspection of the
    ancilla end states.
    """
    site_dims, pauli, u0 = basis._product_form
    um, psi = _circuit_inputs(u, basis, psi)
    runs, _ = _readout(site_dims, pauli)
    t = _echo_joint(um, u0, site_dims, psi, runs)
    if u0 is not None:
        t = t @ u0.T
    # undo the readout, the mu block back to alpha with K and the nu
    # block to beta with conj(K) (K conj(K) = D 1 on a block, so the two
    # unnormalised undos are divided by D), then interleave the blocks as
    # (alpha_1, beta_1, ..., alpha_n, beta_n)
    b, _, dim = t.shape
    t = _read(_read(t, runs, b * dim, False), runs, b, True) / dim
    n = len(site_dims)
    t = t.reshape((b,) + site_dims * 2 + (dim,))
    axes = [1 + k + s for k in range(n) for s in (n, 0)]
    return t.transpose(axes + [2 * n + 1, 0]).reshape(dim * dim, -1)


def measure_choi_side(op, basis: OperatorBasis, shots: int = 0,
                      seed: int | None = None):
    """Which-element measurement through the channel-state picture.

    The operator acts on one half of a maximally entangled pair and the
    pair is measured projectively in the orthonormal family
    (B_a (x) 1)|phi+>. This backend handles any trace-orthogonal basis,
    including rotated ones whose elements are no longer unitary, at the
    cost of consuming the entangled pair instead of preserving an
    arbitrary input state.

    Returns (OutcomeDistribution, CircuitBranches) as
    measure_which_unitary does; the branch states are the
    post-measurement pair states (B_a (x) 1)|phi+>, unit rows of length
    d^2.
    """
    shots = _count(shots, "shots")
    # the amplitude on (B_a (x) 1)|phi+> is <<B_a|op>>/d = C_a
    probs = expand(op, basis).probabilities()
    return _finish(basis.labels, probs,
                   lambda a: _records(basis.elements[a]), shots, seed)
