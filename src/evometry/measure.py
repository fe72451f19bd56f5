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

Simulation: the circuit has a closed form, and the engine computes it
instead of the joint state. Each ancilla block, the alpha levels of
every site and the beta levels, is a mixed-radix index over the sites,
and every level difference below is taken digit by digit mod the site
dims. Let V = u0^dag U and D the product of the site dims. t1 gives
X^alpha Z^beta psi = zeta^(beta (l - alpha)) psi[l - alpha] / D, V acts
on the level axis, and the beta block's Fourier readout F[nu, beta] =
zeta^(nu beta) / sqrt(D) sums beta away. By the shift identity
F[nu, beta] zeta^(-beta l) = F[nu - l, beta], t2 moves each level by its
ancillas, leaving psi[l - nu] V[l + alpha, l + alpha - nu] / sqrt(D),
and the alpha block's readout, conj(F) over alpha, turns V's factor
into sum_k zeta^(-mu (k - l)) V[k, k - nu] = zeta^(mu l) tr((Z^mu
X^nu)^dag V) = zeta^(mu l) D C_a, k = l + alpha. So outcome
a = (mu, nu) leaves the system row C_a zeta^(mu l) psi[l - nu] = C_a s_a
psi before the final u0, with probability |C_a|^2 whatever psi was,
and the bystander rides along. The law is the product family's one
transform of V over D (basis._family_traces, the transform expand
reads), so it is the exact law of which_unitary_distribution to the
last bit; a Pauli label's coefficient is taken against Z X in place of
Y = -i Z X, the conjugate of the transform's phase. The rows are built
for the observed labels alone: the kernel rows zeta^(mu l) of the
readout runs (linalg._kernel kron'd over runs of consecutive sites of at
most READ_ROWS = 16 levels; a run of qubits is a real +-1 kron) at the
label's mu digits, times C_a, times psi taken at the down table at nu,
one factor per bystander level, and u0 then acts on those rows alone.
The tables (D x D, basis._couplings), the kernel runs and the label
order (basis._readout, outcomes held as (nu block, mu block)) depend
only on the site dims, are built once per site tuple (the 16 most recent
are kept) whichever reader asks first, and are read-only. When u0 is
exactly the identity (every builder basis without u0, which the basis
memoises) its products are skipped, with the same result to the last
bit. The law holds a few D x D arrays (4^n amplitudes at n qubits) and
costs u0^dag U, 8^n, and the transform, D^2 times the run sizes; k
observed rows hold k D b amplitudes for a bystander of dimension b, and
every outcome of nonzero weight is observed at shots = 0 (up to 8^n b).
The law takes about 11 us at n = 4, 23 us at n = 5 and 61 us at n = 6,
and with a Haar u0 and a two-level bystander 16, 36 and 166 us
(medians over five fresh processes of each one's median, one BLAS
thread, 2-vCPU Xeon VM). A 64-shot first call, tables included, takes
about 0.02 s at n = 8 and peaks at about 55 MB in a fresh process, 0.07
s and 111 MB at n = 9, and 0.36 s and 321 MB at n = 10, about 0.2 s of
it the unitarity check of U.

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
checks a given one even when shots is 0 and nothing is drawn. U and the
state are checked in place, since the call keeps neither: U by
linalg._checked_unitary and the state by linalg._state, the norm check
that PureState runs, which reads a PureState's amplitudes and checks
their norm again. No copy of either is made and no PureState is built
for the input.

Results: a call checks each quantity once, in _finish: the seed, the law
(_law, the check of OutcomeDistribution: one finite, non-negative
probability per label, summing to 1 within PROBABILITY_ATOL, so each is
at most 1 + PROBABILITY_ATOL) and the observed rows, whose squared norms
(one contraction over the float view) must be finite normal floats, so
one NaN, infinite or zero row rejects the call. Each observed row is
divided by its own norm after u0, in place, so a u0 that passes its
1e-10 unitarity check still gives unit rows. The draws are counted, not drawn
one by one: linalg._tally sorts the seed's keys once and searches each
label's CDF entry among them, and its counts, one per label by
construction, name the observed outcomes. The call then fills the
OutcomeDistribution, holding that tally, and one CircuitBranches record
of the observed outcomes, their unit rows and their exact probabilities
from these fresh arrays, sealed in place, by linalg._filled, without
running their validators again; a record built directly, a copy or a
pickle runs them. The distribution's shot_outcomes are drawn on their
first read (linalg._draw, the same draws the tally counted, bit for
bit), so a call that reads only the counts never makes the per-shot
array.
The squared norm of each circuit row before u0 is the outcome's
probability |C_a|^2. The record's WhichUnitaryResult views are built when read
and run no validator; a PureState built directly, or through
dataclasses.replace, still checks its norm. At n = 4 with 512 shots
(about 170 branches) a call takes about 0.15 ms, 0.17 ms over a basis
with a Haar u0, 0.16 ms with a one-qubit bystander and 0.21 ms with
both, and at n = 3 about 0.11 ms (the medians of 600 single calls on
fresh inputs in one run of tools/layers.py; one BLAS thread, 2-vCPU
Xeon VM whose speed drifts by up to 1.8x).
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from .basis import (
    PRODUCT_FORM_ATOL,
    OperatorBasis,
    _coefficients,
    _couplings,
    _family_traces,
    _read,
    _readout,
    _trace_order,
    clock_shift,
)
from .linalg import (
    NORM_ATOL,
    _array_hash,
    _check,
    _checked_unitary,
    _count,
    _draw,
    _filled,
    _frozen,
    _record,
    _records,
    _seed,
    _state,
    _tally,
    _unitary,
    dag,
)

EIGEN_RTOL = 1e-9
# an outcome law sums to 1 within this: the law of a unitary that passes
# its 1e-10 check does, with room for the rounding of 4^n terms
PROBABILITY_ATOL = 1e-9


class NotAnEigenoperator(Exception):
    """Raised when an operator fails the eigenvalue relation of a
    two-time observable."""


@_record
class PureState:
    """A unit vector, held as a read-only copy of the input; tolerance on
    the norm is 1e-12 (linalg._state)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(_state(self.amplitudes)))

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
        outcomes, states = np.asarray(self.outcomes), _frozen(self.states)
        p = _frozen(self.probabilities, float)
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
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probabilities", p)

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
    as read-only arrays, copies of the inputs when built directly.

    A measurement (_finish) fills the record with its tally (linalg._tally)
    in place of shot_outcomes, and counts and shots read the tally; the
    per-shot outcomes are drawn from the law, the shots and the seed on
    their first read (linalg._draw), the draws the tally counted, bit for
    bit, and kept read-only."""

    labels: tuple
    probabilities: np.ndarray
    shot_outcomes: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        n = len(self.labels)
        p = _frozen(self.probabilities, float)
        _law(p, n)
        if self.shot_outcomes is not None:
            s = np.asarray(self.shot_outcomes)
            if (s.ndim != 1 or s.dtype.kind not in "iu"
                    or s.size and not 0 <= s.min() <= s.max() < n):
                raise ValueError(f"shot outcomes must be indices of the {n} "
                                 "labels")
        object.__setattr__(self, "probabilities", p)

    def _build_shot_outcomes(self) -> np.ndarray | None:
        counts = vars(self).get("_counts")
        if counts is None:
            return None
        p = self.probabilities
        return _draw(p, p.sum(), int(counts.sum()), self.seed)

    @property
    def counts(self) -> np.ndarray | None:
        """Shots per label, or None when nothing was drawn."""
        counts = vars(self).get("_counts")
        if counts is None and self.shot_outcomes is not None:
            counts = np.bincount(self.shot_outcomes,
                                 minlength=len(self.labels))
        return counts

    @property
    def shots(self) -> int:
        counts = self.counts
        return 0 if counts is None else int(counts.sum())


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
    p = np.abs(_coefficients(u, basis)) ** 2
    _law(p, len(basis.labels))
    return _filled(OutcomeDistribution, labels=basis.labels, probabilities=p)


# ---------------------------------------------------------------------------
# circuit engine


def _circuit_rows(u, u0, site_dims, psi, pauli=False):
    """Run the echo circuit in its closed form: (law, rows_of).

    law[a] = |C_a|^2 in label order, C_a = tr(s_a^dag V) / D the product
    family's transform of V = u0^dag U (basis._family_traces), bit for
    bit the law of expand. rows_of(labels) gives the unnormalized system
    rows C_a u0 s_a psi of those labels alone (see the module docstring):
    (s_a psi)[l] = zeta^(mu l) psi[l - nu], the readout runs' kernel rows
    at the mu digits times psi taken at the down table at nu, a Pauli
    label's C_a taken against Z X in place of Y (the conjugate of
    _trace_order's phase), and u0 applied to the rows alone. Labels are
    per-site pairs (mu_j, nu_j), or for a Pauli basis per-site labels, in
    mixed-radix order; _readout's order gives each one's (nu block, mu
    block) index.
    """
    dim = math.prod(site_dims)
    runs, order = _readout(site_dims, pauli)
    down = _couplings(site_dims)
    c = _family_traces(site_dims, pauli, u if u0 is None else dag(u0) @ u)
    c = c / dim
    # C_a against Z^mu X^nu, the product the circuit reads: a Pauli Y is
    # -i Z X, so the transform's phase comes off
    amp = c * _trace_order(site_dims, pauli)[2].conj() if pauli else c

    # a label's nu block and the digits of its mu block, one per run
    radix = (dim,) + tuple(r for _, r, _, _ in runs)

    def rows_of(labels):
        nu, *mu = np.unravel_index(order.take(labels), radix)
        kernel = amp.take(labels)[:, None]
        for (_, _, f, _), digit in zip(runs, mu):
            kernel = (kernel[:, :, None] * f.take(digit, 0)[:, None]).reshape(
                len(labels), -1)
        if u0 is None:
            # (row, level, bystander level), the output's order: one
            # gather and no copy
            rows = psi.reshape(dim, -1).take(down.take(nu, 0), 0)
            rows *= kernel[:, :, None]
            return rows.reshape(len(labels), -1)
        # (bystander level, row, level): u0 acts on the last axis, one
        # product over every row, and the rows move to the output's order
        # (a copy only with a bystander)
        rows = psi.reshape(dim, -1).T.take(down.take(nu, 0), 1)
        rows *= kernel
        return (rows @ u0.T).transpose(1, 2, 0).reshape(len(labels), -1)

    return np.abs(c) ** 2, rows_of


def _finish(labels, probs, rows_of, shots, seed):
    """The distribution and the CircuitBranches of the observed outcomes,
    whose states are the rows rows_of(observed) made unit by _unit, which
    refuses the call on one bad row (NaN included). Each quantity is
    checked once, here: the seed (even when nothing is drawn), the law
    probs (_law, which also bounds each probability by 1 +
    PROBABILITY_ATOL) and the rows; the observed outcomes are read from
    the tally of the draws (linalg._tally), one count per label by
    construction, and the distribution holds that tally, not the draws.
    The records are filled from these fresh arrays, not checked
    again."""
    checked = _seed(seed, shots)
    p = np.asarray(probs, dtype=float)
    total = _law(p, len(labels))
    if shots:
        # the tally, not the draws: shot_outcomes draws them when read
        counts = _tally(p, total, shots, checked)
        observed = counts.nonzero()[0]
    else:
        counts = None
        observed = (p > 1e-14).nonzero()[0]
    states = _unit(rows_of(observed))
    dist = _filled(OutcomeDistribution, labels=labels, probabilities=p,
                   seed=seed, _counts=counts)
    return dist, _filled(CircuitBranches, outcomes=observed, states=states,
                         probabilities=p[observed])


# a squared row norm at or above this is a normal float, so the row's
# norm is exact to rounding and dividing by it gives a unit row
_NORMAL = np.finfo(float).tiny


def _unit(rows):
    """The complex rows, a fresh array that no one else holds, each
    divided by its own norm in place, the rows' one norm check:
    ValueError unless every squared norm is a finite normal float, so a
    NaN, infinite or zero row, or one too small to normalise, is refused
    and no row is changed. One contraction and the division run on the
    float view, real, several times cheaper than complex; the rows' last
    axis must be contiguous."""
    v = rows.view(float)
    squares = np.einsum("ij,ij->i", v, v)
    if not (squares.min(initial=1.0) >= _NORMAL
            and squares.max(initial=1.0) < np.inf):
        raise ValueError("state norm is not 1: a row is NaN, infinite, "
                         "zero or too small to normalise")
    v /= np.sqrt(squares)[:, None]
    return rows


def _circuit(u, basis, psi):
    """(law, rows_of) of the echo circuit (_circuit_rows) of u over the
    basis on the state psi, which may carry a bystander factor. u and psi
    are checked in place, since the circuit keeps neither
    (_checked_unitary, _state)."""
    site_dims, pauli, u0 = basis._product_form
    um = _checked_unitary(u, basis.dim, "unitary")
    psi = _state(psi)
    if psi.size % basis.dim != 0:
        raise ValueError(
            f"state dim {psi.size} is not a multiple of basis dim {basis.dim}"
        )
    return _circuit_rows(um, u0, site_dims, psi, pauli)


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
    record lives in the distribution's shot_outcomes, drawn from the law
    and the seed when first read; its counts are the tally of the call
    (linalg._tally).
    """
    shots = _count(shots, "shots")
    return _finish(basis.labels, *_circuit(u, basis, psi), shots, seed)


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
    site_dims, pauli, _ = basis._product_form
    runs, order = _readout(site_dims, pauli)
    _, rows_of = _circuit(u, basis, psi)
    # every row in the readout's (nu block, mu block) order; undo the
    # readout, the mu block back to alpha with K and the nu block to beta
    # with conj(K) (K conj(K) = D 1 on a block, so the two unnormalised
    # undos are divided by D), then interleave the blocks as
    # (alpha_1, beta_1, ..., alpha_n, beta_n)
    dim, n = basis.dim, len(site_dims)
    t = rows_of(np.argsort(order))
    t = _read(_read(t, runs, dim, False), runs, 1, True) / dim
    t = t.reshape(site_dims * 2 + (-1,))
    axes = [k + s for k in range(n) for s in (n, 0)]
    return t.transpose(axes + [2 * n]).reshape(dim * dim, -1)


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
    probs = np.abs(_coefficients(op, basis)) ** 2
    return _finish(basis.labels, probs,
                   lambda a: _records(basis.elements[a]), shots, seed)
