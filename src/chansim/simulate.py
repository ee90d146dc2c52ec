"""Constructive classical simulations of quantum and ball-model channels.

Each simulator returns an explicit convex-mixture certificate: a weighted
list of classical protocols whose mixture reproduces the target transition
matrix. Quantum and ball targets are decomposed along the outcome
distribution induced by mixed discriminants (or the ball pairing). That
distribution and every state column built from it are symmetric under
reordering an outcome tuple, so all orderings of a multiset class give the
same protocol matrix, and each class is one candidate protocol. The
per-class state columns of all three (noiseless, noisy and ball) come from
one layered transport per input column, which keeps every class's slot
vector in the permutation hull of the state's spectrum and so inside the
declared noise set. The noisy-to-noiseless construction has one candidate
per d-subset; each input column is a mixture of at most n permutations of
the max-of-a-random-d-subset distribution (``majorize.hlp_decompose``), so
the subsets are gathered at most n times per column.

A k x l target lies in an l(k-1)-dimensional affine space, so every
certificate keeps at most l(k-1) + 1 of its candidates, reweighted by
``majorize.caratheodory`` to the same mixture matrix; the survivors are
candidates unchanged, so their states stay in the noise set. That reduction
walks an SVD null basis and clamps no weight, so it moves no mass beyond
round-off; still, a certificate whose recomposition misses its target by more
than RESIDUAL_TOL is never returned: ``NumericalBreakdown`` names the stage
instead. Classes and subsets are processed in lexicographic order
throughout, and the reduction is deterministic, so certificates are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Union

import numpy as np

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
    mixture_matrix,
    noisy_classical_extremals,
    protocol_matrices,
    satisfies_noise,
    spec_for_column,
    validate_partition_of_unity,
)
from .errors import (
    BadRange,
    DimensionMismatch,
    LengthMismatch,
    NotMajorized,
    NumericalBreakdown,
    PreconditionViolated,
    TransportInfeasible,
)
from .linalg import born_matrix, hermitian_eigenvalues, validate_density, validate_povm
from .majorize import caratheodory, hlp_decompose, max_subset_distribution
from .mixdisc import (
    DEFAULT_CAP,
    OutcomeDistribution,
    distribution_from_class_values,
    outcome_distribution,
)
from .transport import (
    BALANCE_TOL,
    DROP_TOL,
    HallViolator,
    TransportInstance,
    conditional_columns,
    feasible_transport,
)

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


def _checked_residual(stage: str, recon: np.ndarray, target: np.ndarray) -> float:
    """The largest entrywise error of ``recon`` against ``target``; above
    RESIDUAL_TOL it raises, so no certificate that ``verify`` rejects is
    ever returned."""
    residual = float(np.max(np.abs(recon - target)))
    if residual > RESIDUAL_TOL:
        raise NumericalBreakdown(
            f"{stage}: recomposition residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    return residual


def _finalize(
    target: TransitionMatrix,
    weights: np.ndarray,
    decoders: np.ndarray,
    states: np.ndarray,
    noise: NoiseSpec,
) -> SimulationResult:
    """The certificate for T candidate protocols given as arrays: weights
    (T,), decoders (T, n) and states (T, n, l). A k x l column-stochastic
    target lies in an l(k-1)-dimensional affine space, so when T exceeds
    l(k-1) + 1 the mixture is cut to at most that many protocols with the
    same matrix (``caratheodory`` on the T protocol matrices). Weights at or
    below WEIGHT_FLOOR are then dropped, the rest renormalized, and the
    survivors' rows, in candidate order, make the mixture. Raises
    NumericalBreakdown when the survivors miss the target by more than
    RESIDUAL_TOL."""
    k, l = target.matrix.shape
    keep, w = np.arange(len(weights)), weights
    if len(w) > l * (k - 1) + 1:
        matrices = protocol_matrices(decoders, states, k)
        keep, w = caratheodory(w, matrices.reshape(len(w), -1))
    live = w > WEIGHT_FLOOR
    keep, w = keep[live], w[live] / w[live].sum()
    mixture = ClassicalMixture(
        weights=w,
        decoders=decoders[keep],
        states=states[keep],
        num_outputs=k,
        num_states=decoders.shape[1],
        noise=noise,
    )
    recon = mixture_matrix(mixture).matrix
    residual = _checked_residual("simulation", recon, target.matrix)
    return SimulationResult(target=target, mixture=mixture, residual=residual)


def _class_values(
    dist: OutcomeDistribution, a: np.ndarray, mus: Sequence[np.ndarray]
) -> np.ndarray:
    """Array (l, classes, k): per input column j and multiset class M (in
    sorted order), the value of each slot that carries output i, such that
    the classes reproduce column j and every class's slot vector lies in the
    permutation hull of the ascending vector mus[j]. Entries for outputs
    that M does not carry are unused.

    Layer cake: every slot holds the floor mu[0]. Each gap
    g = mu[t] - mu[t-1] (0-based t >= 1) is a layer of at most g per slot
    over the top n - t slots: it leaves node (M, t) with supply
    w_M g (n - t) and enters output i with capacity w_M g c_M(i), c_M(i) the
    slots of M carrying i (no cap when c_M(i) >= n - t). This transport is
    feasible exactly when a(T) >= sum_M w_M P(c_M(T)) for every output set
    T, P the ascending prefix sums of mu; otherwise its min cut is raised.
    When some output cannot hold the floor, the floor is 0 and mu[0] is
    routed as the layer t = 0.
    """
    n, k, w = dist.n, dist.k, dist.weights
    counts = dist.counts.astype(float)
    num_classes = len(w)
    slots = w @ counts  # sum_M w_M c_M(i): the floor puts floor * slots[i] on i
    values = np.empty((len(mus), num_classes, k))
    for j, mu in enumerate(mus):
        floor = mu[0] if np.all(a[:, j] - mu[0] * slots >= -BALANCE_TOL) else 0.0
        gaps = np.diff(mu, prepend=floor)
        layers = np.flatnonzero(gaps > 0.0)
        heights, gap = n - layers, gaps[layers]
        # left nodes (M, t) in row-major order over classes x layers; depth
        # is a layer's slot mass per unit class weight
        depth = np.tile(gap * heights, num_classes)
        weight = np.repeat(w, len(layers))
        supply = weight * depth
        capacity = np.outer(w, gap)[:, :, None] * counts[:, None, :]
        capacity[counts[:, None, :] >= heights[:, None]] = np.inf
        capacity = capacity.reshape(len(supply), k)
        # a dust layer stays out of the transport: it is spread evenly over
        # its class's n slots, and the transport meets the rest of column j
        layered = depth[:, None] * np.repeat(counts, len(layers), axis=0) / n
        keep = supply > DROP_TOL
        demand = a[:, j] - floor * slots - weight[~keep] @ layered[~keep]
        result = feasible_transport(TransportInstance(supply[keep], demand, capacity[keep]))
        if isinstance(result, HallViolator):
            raise TransportInfeasible(
                f"column {j}: transport infeasible by {result.deficit:.3e}",
                violator=result,
            )
        # each kept layer's depth, spread by its flow and shared among the
        # c_M(i) slots that carry output i
        layered[keep] = conditional_columns(result) * depth[keep, None]
        per_class = layered.reshape(num_classes, len(layers), k).sum(axis=1)
        values[j] = floor + per_class / np.maximum(counts, 1.0)
    return values


def _class_terms(
    dist: OutcomeDistribution, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One candidate protocol per class c = dist.classes[c], weighted by
    the class total: the decoder sends slot m to output c[m], and for input
    j the slot holds values[j, c, c[m]]. Each column is rescaled to sum to
    1, because transport meets its demands only up to float rounding. Dust
    classes stay: ``_finalize`` drops weights only after pruning, so their
    mass reaches ``caratheodory``. Returns the weights, decoders and states
    that ``_finalize`` takes."""
    decoders = dist.classes
    x = values[:, np.arange(len(decoders))[:, None], decoders]  # (l, classes, n)
    x /= x.sum(axis=2, keepdims=True)
    return dist.weights, decoders, x.transpose(1, 2, 0)


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
    values = _class_values(dist, a, [_spec_base_vector(Noiseless(), dist.n)] * a.shape[1])
    return _finalize(TransitionMatrix(a), *_class_terms(dist, values), Noiseless())


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
    n, c, v = _ball_arrays(effects, states, norm_index)
    validate_partition_of_unity(effects, tol)

    def brackets(classes: np.ndarray) -> np.ndarray:
        # channels.bracket per row, multiplied slot by slot in its order
        cs, vs = 1.0, 1.0
        for slot in classes.T:
            cs, vs = cs * c[slot], vs * v[slot]
        return cs - vs.sum(axis=1)

    dist = distribution_from_class_values(len(effects), n, brackets, cap=cap)
    target = ball_born_matrix(effects, states, delta=delta, tol=tol)
    mu = _spec_base_vector(Delta(delta), n)
    values = _class_values(dist, target.matrix, [mu] * len(states))
    return _finalize(target, *_class_terms(dist, values), Delta(delta))


def _ball_arrays(
    effects: Sequence[BallEffect], states: Sequence[BallState], norm_index: int | None
) -> tuple[int, np.ndarray, np.ndarray]:
    """The norm index n of a ball instance, its effects' constants (k,) and
    vectors (k, dim). Raises DimensionMismatch unless every effect and state
    has norm index n (``norm_index`` when given) and one dimension dim."""
    if not effects:
        raise DimensionMismatch("need at least one effect")
    n = effects[0].norm_index if norm_index is None else norm_index
    if {p.norm_index for p in [*effects, *states]} != {n}:
        raise DimensionMismatch(f"every effect and state must have norm index {n}")
    if len({len(e.v) for e in effects} | {len(s.x) for s in states}) > 1:
        raise DimensionMismatch("effects and states must share one dimension")
    return n, np.array([e.c for e in effects]), np.array([e.v for e in effects])


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
    mus = []
    for j, rho in enumerate(states):
        mu = hermitian_eigenvalues(rho, tol)
        if not satisfies_noise(mu, spec_for_column(spec, j), tol):
            raise NotMajorized(f"state {j}: spectrum violates the declared noise set")
        mus.append(np.clip(mu, 0.0, None))
    values = _class_values(dist, a, mus)
    return _finalize(TransitionMatrix(a), *_class_terms(dist, values), spec)


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
    over at most n permutations of the max-of-a-random-d-subset
    distribution, and each of the C(n,d) subsets becomes one candidate
    d-state protocol, of which at most l(k-1) + 1 are kept.
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
    e = np.zeros((k_out, n))
    e[decoder, np.arange(n)] = 1.0
    weights = np.full(len(subsets), 1.0 / len(subsets))
    return _finalize(TransitionMatrix(e @ x), weights, decoder[subsets], xs, Noiseless())


def reduce_rows(m, p=None, *, tol: float = 1e-9) -> RowReduction:
    """Write A as sum p_i B(i) where B(i) is column-stochastic with its
    i-th row zero; requires the row slacks 1 - max_j a_ij to sum to >= 1.
    Raises NumericalBreakdown when the terms miss A by more than
    RESIDUAL_TOL."""
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

    # transposed transport: each kept row v sends its weight p_v to the
    # other rows u, output u taking a_uj; B(v)'s column j is v's flow. The
    # weights and the column are each stochastic only within tolerance, so
    # supplies that do not balance the column are scaled to its total
    kept = np.flatnonzero(weights > 1e-12)
    capacity = np.where(np.eye(k, dtype=bool)[kept], 0.0, np.inf)
    columns = np.empty((len(kept), k, l))
    for j in range(l):
        supply, total = weights[kept], a[:, j].sum()
        if abs(supply.sum() - total) > BALANCE_TOL:
            supply = supply * (total / supply.sum())
        result = feasible_transport(TransportInstance(supply, a[:, j], capacity))
        if isinstance(result, HallViolator):
            raise TransportInfeasible(
                f"column {j}: row reduction transport infeasible by {result.deficit:.3e}",
                violator=result,
            )
        # a dust weight may receive no flow within the feasibility tolerance:
        # any stochastic column with a zero v-th entry works for it
        dust = result.flow.sum(axis=1) <= 0.0
        result.flow[dust] = capacity[dust] > 0.0
        columns[:, :, j] = conditional_columns(result)
    terms = tuple((float(weights[v]), TransitionMatrix(b)) for v, b in zip(kept, columns))
    recon = sum(w * b.matrix for w, b in terms)
    residual = _checked_residual("row reduction", recon, a)
    return RowReduction(target=t, terms=terms, residual=residual)
