"""Constructive classical simulations of quantum and ball-model channels.

Each simulator returns an explicit convex-mixture certificate: a weighted
list of classical protocols whose mixture reproduces the target transition
matrix. Quantum and ball targets are decomposed along the outcome
distribution induced by mixed discriminants (or the ball pairing). That
distribution and every state column built from it are symmetric under
reordering an outcome tuple, so all orderings of a multiset class give the
same protocol matrix, and the certificate holds one protocol per class.
The per-class state columns come either from a transport plan (noiseless
and ball cases) or from a feasibility LP whose constraints keep every
column inside the declared noise set. Classes are processed in
lexicographic order throughout, so certificates are reproducible byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from . import lp
from ._multiset import submultisets
from .certify import BinomialWitness, permutohedron_simulable_by_d
from .channels import (
    BallEffect,
    BallState,
    ClassicalMixture,
    ClassicalProtocol,
    Delta,
    Noiseless,
    NoiseSpec,
    Permutohedron,
    Rational,
    TransitionMatrix,
    as_transition,
    ball_born_matrix,
    bracket,
    mixture_matrix,
    noisy_classical_extremals,
    satisfies_noise,
    spec_for_column,
    validate_partition_of_unity,
)
from .errors import (
    BadRange,
    DimensionMismatch,
    EnumerationCapExceeded,
    LengthMismatch,
    LpInfeasible,
    NotMajorized,
    PreconditionViolated,
    TransportInfeasible,
)
from .linalg import born_matrix, hermitian_eigenvalues, validate_density, validate_povm
from .majorize import hlp_decompose, max_subset_distribution
from .mixdisc import (
    DEFAULT_CAP,
    OutcomeDistribution,
    distribution_from_class_values,
    outcome_distribution,
)
from .transport import HallViolator, TransportInstance, conditional_columns, feasible_transport

RESIDUAL_TOL = 1e-8
WEIGHT_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A simulation certificate: target, reproducing mixture, and the
    largest entrywise reconstruction error."""

    target: TransitionMatrix
    mixture: ClassicalMixture
    residual: float


@dataclass(frozen=True, eq=False)
class RowReduction:
    """Decomposition of a matrix as sum p_i B(i) with row i of B(i) zero."""

    target: TransitionMatrix
    terms: tuple[tuple[float, TransitionMatrix], ...]
    residual: float


def _finalize(target: TransitionMatrix, mixture: ClassicalMixture) -> SimulationResult:
    recon = mixture_matrix(mixture).matrix
    residual = float(np.max(np.abs(recon - target.matrix)))
    return SimulationResult(target=target, mixture=mixture, residual=residual)


def _transport_conditionals(
    dist: OutcomeDistribution, a: np.ndarray
) -> list[dict[tuple[int, ...], dict[int, float]]]:
    """Per input column and multiset class, the value of each slot that
    carries output i: the class's conditional output mass on i, found by
    transport from class weights to the column, split evenly over the
    slots carrying i."""
    classes = dict(sorted(dist.weights.items()))
    k = a.shape[0]
    edges = frozenset((ms, i) for ms in classes for i in set(ms))
    values = []
    for j in range(a.shape[1]):
        demand = {i: float(a[i, j]) for i in range(k)}
        inst = TransportInstance(left_supply=classes, right_demand=demand, edges=edges)
        result = feasible_transport(inst)
        if isinstance(result, HallViolator):
            raise TransportInfeasible(
                f"column {j}: transport infeasible by {result.deficit:.3e} "
                "(numerical tolerance failure; feasibility is guaranteed)",
                violator=result,
            )
        positive = {ms: w for ms, w in classes.items() if w > 1e-12}
        conds = conditional_columns(result, positive)
        values.append(
            {ms: {i: col.get(i, 0.0) / ms.count(i) for i in set(ms)} for ms, col in conds.items()}
        )
    return values


def _class_mixture(
    dist: OutcomeDistribution,
    values: list[dict[tuple[int, ...], dict[int, float]]],
    noise: NoiseSpec,
    delta: float = 0.0,
) -> ClassicalMixture:
    """One protocol per multiset class ms, weighted by the class total: the
    decoder sends slot m to output ms[m], and for input j the slot holds
    delta/n + (1-delta) values[j][ms][ms[m]] (delta/n is the noise floor
    when simulating a noisy target). Each column is rescaled to sum to 1,
    because the LP meets its equalities only within its tolerance. Classes
    at or below WEIGHT_FLOOR are dropped and the remaining weights
    renormalized."""
    n = dist.n
    kept = [(ms, w) for ms, w in sorted(dist.weights.items()) if w > WEIGHT_FLOOR]
    total = sum(w for _, w in kept)
    terms = []
    for ms, w in kept:
        x = np.array([[col[ms][i] for col in values] for i in ms])
        x = delta / n + (1.0 - delta) * x
        x /= x.sum(axis=0, keepdims=True)
        protocol = ClassicalProtocol(decoder=np.array(ms), states=x, num_outputs=dist.k)
        terms.append((w / total, protocol))
    return ClassicalMixture(terms=tuple(terms), num_states=n, noise=noise)


def simulate_quantum_noiseless(
    povm: Sequence[np.ndarray],
    states: Sequence[np.ndarray],
    *,
    tol: float = 1e-9,
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate a level-n quantum channel by the noiseless classical
    channel with n states."""
    validate_povm(povm, tol)
    for rho in states:
        validate_density(rho, tol)
    a = born_matrix(povm, states)
    dist = outcome_distribution(povm, cap=cap)
    mixture = _class_mixture(dist, _transport_conditionals(dist, a), Noiseless())
    return _finalize(TransitionMatrix(a), mixture)


def simulate_ball(
    effects: Sequence[BallEffect],
    states: Sequence[BallState],
    delta: Rational = 0.0,
    norm_index: int | None = None,
    *,
    tol: float = 1e-9,
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate the delta-noisy ball channel by the delta-noisy classical
    channel with n states (n the even norm index)."""
    validate_partition_of_unity(effects, tol)
    n = effects[0].norm_index
    if norm_index is not None and norm_index != n:
        raise DimensionMismatch(f"norm index {norm_index} does not match effects ({n})")
    dist = distribution_from_class_values(
        len(effects), n, lambda ms: bracket([effects[i] for i in ms]), cap=cap
    )
    aprime = ball_born_matrix(effects, states, delta=0.0, tol=tol)
    target = ball_born_matrix(effects, states, delta=delta, tol=tol)
    values = _transport_conditionals(dist, aprime.matrix)
    mixture = _class_mixture(dist, values, Delta(delta), delta=float(delta))
    return _finalize(target, mixture)


def _noisy_column_states(
    dist: OutcomeDistribution,
    a_col: np.ndarray,
    prefix: np.ndarray,
) -> dict[tuple[int, ...], dict[int, float]]:
    """Solve the per-column feasibility system in class-aggregated scaled
    variables v[M, i] = weight(M) * x[M, i].

    For every class M and every nonempty submultiset of M the selected
    variables must dominate the matching prefix sum of the state's
    spectrum (these are the subset constraints of the full tuple system,
    quotiented by slot symmetry), and for every output i the mixture must
    reproduce the Born probability exactly. Returns, per class M above
    WEIGHT_FLOOR, the value x[M, i] of each slot that carries output i.
    """
    classes = sorted(dist.weights.items())
    var_of: dict[tuple[tuple[int, ...], int], int] = {}
    for ms, _ in classes:
        for i in sorted(set(ms)):
            var_of[(ms, i)] = len(var_of)
    program = lp.LinearProgram(num_vars=len(var_of), nonneg=True)
    for ms, w_m in classes:
        for sub in submultisets(ms):
            row = np.zeros(len(var_of))
            for i in set(sub):
                row[var_of[(ms, i)]] = sub.count(i)
            program.add(row, lp.GE, w_m * prefix[len(sub) - 1])
    for i in range(dist.k):
        row = np.zeros(len(var_of))
        for ms, _ in classes:
            if i in set(ms):
                row[var_of[(ms, i)]] = ms.count(i)
        program.add(row, lp.EQ, float(a_col[i]))
    result = lp.solve(program)
    if isinstance(result, lp.Infeasible):
        raise LpInfeasible(
            "noisy simulation LP infeasible (numerical tolerance failure; "
            "feasibility is guaranteed)",
            certificate=result.certificate,
        )
    v = result.x
    out: dict[tuple[int, ...], dict[int, float]] = {}
    for ms, w_m in classes:
        if w_m <= WEIGHT_FLOOR:
            continue
        out[ms] = {i: float(v[var_of[(ms, i)]]) / w_m for i in set(ms)}
    return out


def simulate_quantum_noisy(
    povm: Sequence[np.ndarray],
    states: Sequence[np.ndarray],
    spec: NoiseSpec,
    *,
    tol: float = 1e-9,
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate a noisy quantum channel by the equally noisy classical one.

    Each state must have its spectrum inside the declared noise set; the
    produced mixture's state columns land in the same set.
    """
    validate_povm(povm, tol)
    for rho in states:
        validate_density(rho, tol)
    a = born_matrix(povm, states)
    dist = outcome_distribution(povm, cap=cap)
    n = dist.n
    if n > 6:
        raise EnumerationCapExceeded(
            f"subset-constraint enumeration is capped at dimension 6, got n={n}"
        )

    values = []
    for j, rho in enumerate(states):
        mu = hermitian_eigenvalues(rho, tol)
        spec_j = spec_for_column(spec, j)
        if not satisfies_noise(mu, spec_j, tol):
            raise NotMajorized(f"state {j}: spectrum violates the declared noise set")
        prefix = np.cumsum(np.clip(mu, 0.0, None))
        values.append(_noisy_column_states(dist, a[:, j], prefix))
    return _finalize(TransitionMatrix(a), _class_mixture(dist, values, spec))


def _spec_base_vector(spec: NoiseSpec, n: int) -> np.ndarray:
    """Ascending worst-case state vector of a permutation-invariant spec."""
    if isinstance(spec, Delta):
        return np.sort(noisy_classical_extremals(n, spec.delta)[0])
    if isinstance(spec, Permutohedron):
        if len(spec.base) != n:
            raise LengthMismatch(f"spec base length {len(spec.base)} vs n={n}")
        return np.sort(np.asarray(spec.base, dtype=float))
    if isinstance(spec, Noiseless):
        out = np.zeros(n)
        out[-1] = 1.0
        return out
    raise TypeError(f"unsupported spec for this simulation: {type(spec).__name__}")


def simulate_noisy_by_noiseless(
    spec: NoiseSpec,
    target: Union[ClassicalProtocol, TransitionMatrix, np.ndarray],
    d: int,
    *,
    tol: float = 1e-9,
) -> Union[SimulationResult, BinomialWitness]:
    """Simulate a noisy n-state channel by the noiseless d-state channel.

    Returns the failing prefix-sum index as a witness when the noise set
    itself is not d-simulable. Otherwise every input column is decomposed
    over permutations of the max-of-a-random-d-subset distribution, and
    each of the C(n,d) subsets becomes one d-state protocol.
    """
    if isinstance(target, ClassicalProtocol):
        decoder = target.decoder
        x = target.states
        k_out = target.num_outputs
    else:
        t = as_transition(target)
        x = t.matrix
        decoder = np.arange(x.shape[0])
        k_out = x.shape[0]
    n, l = x.shape
    if not 1 <= d <= n:
        raise BadRange(f"need 1 <= d <= n, got d={d}, n={n}")

    witness = permutohedron_simulable_by_d(_spec_base_vector(spec, n), d, tol)
    if witness is not None:
        return witness

    nu = max_subset_distribution(n, d)
    col_mixes = []
    for j in range(l):
        if not satisfies_noise(x[:, j], spec_for_column(spec, j), tol):
            raise NotMajorized(f"target column {j} violates the declared noise spec")
        col_mixes.append(hlp_decompose(x[:, j], nu, tol=4 * tol))

    subsets = np.array(list(combinations(range(n), d)), dtype=np.intp)
    rows = np.arange(len(subsets))
    xs = np.zeros((len(subsets), d, l))
    for j, mix in enumerate(col_mixes):
        for w, perm in mix.terms:
            # in every subset, the element whose permuted rank is largest
            # receives this term's mass; this is exactly the distribution
            # whose prefix sums are C(r,d)/C(n,d)
            xs[rows, np.argmax(np.asarray(perm)[subsets], axis=1), j] += w
    weight = 1.0 / len(subsets)
    terms = [
        (weight, ClassicalProtocol(decoder=decoder[s], states=xs[t], num_outputs=k_out))
        for t, s in enumerate(subsets)
    ]
    mixture = ClassicalMixture(terms=tuple(terms), num_states=d, noise=Noiseless())

    e = np.zeros((k_out, n))
    e[decoder, np.arange(n)] = 1.0
    return _finalize(TransitionMatrix(e @ x), mixture)


def reduce_rows(m, p=None, *, tol: float = 1e-9) -> RowReduction:
    """Write A as sum p_i B(i) where B(i) is column-stochastic with its
    i-th row zero; requires the row slacks 1 - max_j a_ij to sum to >= 1."""
    t = as_transition(m)
    a = t.matrix
    k, l = a.shape
    slack = 1.0 - a.max(axis=1)
    if p is None:
        total = float(slack.sum())
        if total < 1.0 - tol:
            raise PreconditionViolated(
                f"row slacks sum to {total!r} < 1; no valid row weighting exists"
            )
        weights = slack / total
    else:
        weights = np.asarray(p, dtype=float)
        if weights.shape != (k,):
            raise DimensionMismatch(f"weights shape {weights.shape}, expected ({k},)")
        if np.any(weights < -tol) or abs(weights.sum() - 1.0) > tol:
            raise PreconditionViolated("weights must form a probability vector")
        if np.any(weights > slack + tol):
            raise PreconditionViolated("some weight exceeds its row slack 1 - max_j a_ij")

    kept = [i for i in range(k) if weights[i] > 1e-12]
    inflows: dict[int, np.ndarray] = {i: np.zeros((k, l)) for i in kept}
    edges = frozenset((u, v) for u in range(k) for v in range(k) if u != v)
    for j in range(l):
        supply = {i: float(a[i, j]) for i in range(k)}
        demand = {i: float(weights[i]) for i in range(k)}
        result = feasible_transport(
            TransportInstance(left_supply=supply, right_demand=demand, edges=edges)
        )
        if isinstance(result, HallViolator):
            raise TransportInfeasible(
                f"column {j}: row reduction transport infeasible by {result.deficit:.3e}",
                violator=result,
            )
        by_right: dict[int, dict[int, float]] = {}
        for (u, v), f in result.flow.items():
            by_right.setdefault(v, {})[u] = f
        for v in kept:
            col = by_right.get(v, {})
            mass = sum(col.values())
            if mass <= 0.0:
                # demand below the flow tolerance: any stochastic column
                # with a zero v-th entry works, its weight is dust
                for u in range(k):
                    if u != v:
                        inflows[v][u, j] = 1.0 / (k - 1)
                continue
            for u, f in col.items():
                inflows[v][u, j] = f / mass
    terms = tuple((float(weights[i]), TransitionMatrix(inflows[i])) for i in kept)
    recon = sum(w * b.matrix for w, b in terms)
    residual = float(np.max(np.abs(recon - a)))
    return RowReduction(target=t, terms=terms, residual=residual)
