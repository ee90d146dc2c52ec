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
per d-subset, and the same transport solver gives its states: per input
column, each subset sends an equal share of the column into its own members.

A k x l target lies in an l(k-1)-dimensional affine space, so every
certificate keeps at most l(k-1) + 1 of its candidates, reweighted by
``majorize.caratheodory`` to the same mixture matrix; the survivors are
candidates unchanged, so their states stay in the noise set. That reduction
walks an SVD null basis and clamps no weight, so it moves no mass beyond
round-off; still, a certificate whose recomposition misses its target by more
than RESIDUAL_TOL is never returned: ``NumericalBreakdown`` names the stage
instead. Inputs and noise sets are checked at the fixed tolerances that
``verify`` checks a certificate with; no entry point takes a tolerance.
Classes and subsets are processed in lexicographic order throughout, and
the reduction is deterministic, so certificates are reproducible byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from .certify import BinomialWitness, permutohedron_simulable_by_d
from .channels import (
    ENTRY_TOL,
    STOCHASTIC_TOL,
    BallEffect,
    BallState,
    ClassicalMixture,
    ClassicalProtocol,
    Delta,
    Noiseless,
    NoiseSpec,
    Rational,
    TransitionMatrix,
    as_transition,
    ball_born_matrix,
    convex_weights,
    mixture_matrix,
    noise_bases,
    protocol_matrices,
    read_only,
    require_column_stochastic,
)
from .errors import (
    BadRange,
    DimensionMismatch,
    InvalidCertificate,
    NotMajorized,
    NumericalBreakdown,
    PreconditionViolated,
    TransportInfeasible,
)
from .linalg import (
    born_matrix,
    hermitian_eigenvalues,
    validate_density,
    validate_povm,
)
from .majorize import caratheodory, majorized_by_permutohedron
# no caller here: kept importable because the bench trace hooks patch them by name
from .majorize import hlp_decompose, max_subset_distribution  # noqa: F401
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
    TransportPlan,
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
    """Decomposition of a k x l target as sum_t p_t B_t, held as arrays:
    ``weights`` (T,) the p_t, ``matrices`` (T, k, l) the B_t, and row
    ``zero_rows[t]`` of B_t is zero. Construction validates all terms once,
    as for ``ClassicalMixture``: convex weights, column-stochastic terms of
    the target's shape, and distinct row indices (integers, not booleans)
    that are zero in their terms. The arrays are copied and stored
    read-only.
    """

    target: TransitionMatrix
    weights: np.ndarray
    zero_rows: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        b = np.array(self.matrices, dtype=float)
        if b.ndim != 3 or b.shape[1:] != self.target.matrix.shape:
            raise DimensionMismatch(
                f"terms are {b.shape[1:]} matrices, the target is {self.target.matrix.shape}"
            )
        require_column_stochastic(b, "row-reduction term")
        # as objects, so that a boolean stays one
        rows = np.array(self.zero_rows, dtype=object)
        if rows.shape != (len(b),):
            raise DimensionMismatch(f"{rows.size} zero rows for {len(b)} terms")
        rows, k = rows.tolist(), self.target.num_outputs
        outside = [r for r in rows if type(r) is not int or not 0 <= r < k]
        if outside:
            raise BadRange(f"claimed zero row {outside[0]!r} is not a row index")
        if len(set(rows)) != len(rows):
            raise InvalidCertificate(f"zero rows {rows} repeat a row")
        z = np.array(rows, dtype=np.intp)
        nonzero = np.abs(b[np.arange(len(b)), z]).max(axis=1, initial=0.0) > ENTRY_TOL
        if nonzero.any():
            raise InvalidCertificate(f"claimed zero row {z[nonzero][0]} is nonzero in its term")
        object.__setattr__(self, "weights", convex_weights(self.weights, len(b)))
        object.__setattr__(self, "zero_rows", read_only(z))
        object.__setattr__(self, "matrices", read_only(b))

    @property
    def residual(self) -> float:
        """The largest entrywise error of the recomposition."""
        recon = row_reduction_matrix(self.weights, self.matrices)
        return float(np.max(np.abs(recon - self.target.matrix)))

    @property
    def terms(self) -> tuple[tuple[float, TransitionMatrix], ...]:
        """The (weight, term) pairs, built on each access."""
        return tuple((float(w), TransitionMatrix(b)) for w, b in zip(self.weights, self.matrices))


def row_reduction_matrix(weights: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """sum_t weights[t] matrices[t] over T terms, weights (T,) and matrices
    (T, k, l), summed in term order like ``mixture_matrix``."""
    return (weights[:, None, None] * matrices).sum(axis=0)


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


def _transport(
    column: int, stage: str, supply: np.ndarray, demand: np.ndarray, capacity: np.ndarray
) -> TransportPlan:
    """A plan sending ``supply`` to input column ``column``'s ``demand``
    through ``capacity``. The supplies and the column are each stochastic
    only within tolerance, so supplies that do not balance the column are
    scaled to its total. Raises TransportInfeasible, naming the column and
    ``stage``, with the Hall violator when no plan exists."""
    total = demand.sum()
    if abs(supply.sum() - total) > BALANCE_TOL:
        supply = supply * (total / supply.sum())
    result = feasible_transport(TransportInstance(supply, demand, capacity))
    if isinstance(result, HallViolator):
        raise TransportInfeasible(
            f"column {column}: {stage} infeasible by {result.deficit:.3e}", violator=result
        )
    return result


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
        result = _transport(j, "transport", supply[keep], demand, capacity[keep])
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
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate a level-n quantum channel by the noiseless classical
    channel with n states."""
    validate_povm(povm)
    for rho in states:
        validate_density(rho)
    a = born_matrix(povm, states)
    dist = outcome_distribution(povm, cap=cap)
    values = _class_values(dist, a, noise_bases(Noiseless(), dist.n, a.shape[1]))
    return _finalize(TransitionMatrix(a), *_class_terms(dist, values), Noiseless())


def simulate_ball(
    effects: Sequence[BallEffect],
    states: Sequence[BallState],
    delta: Rational = 0.0,
    norm_index: int | None = None,
    *,
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate the delta-noisy ball channel by the delta-noisy classical
    channel with n states (n the even norm index)."""
    n, c, v = _ball_arrays(effects, states, norm_index)
    target = ball_born_matrix(effects, states, delta=delta)

    def brackets(classes: np.ndarray) -> np.ndarray:
        # channels.bracket per row, multiplied slot by slot in its order
        cs, vs = 1.0, 1.0
        for slot in classes.T:
            cs, vs = cs * c[slot], vs * v[slot]
        return cs - vs.sum(axis=1)

    dist = distribution_from_class_values(len(effects), n, brackets, cap=cap)
    values = _class_values(dist, target.matrix, noise_bases(Delta(delta), n, len(states)))
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
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate a noisy quantum channel by the equally noisy classical one.

    Each state must have its spectrum inside the declared noise set; the
    produced mixture's state columns land in the same set.
    """
    validate_povm(povm)
    for rho in states:
        validate_density(rho)
    a = born_matrix(povm, states)
    dist = outcome_distribution(povm, cap=cap)
    mus = np.array([hermitian_eigenvalues(rho) for rho in states])
    inside = majorized_by_permutohedron(mus, noise_bases(spec, dist.n, len(mus)), STOCHASTIC_TOL)
    if not inside.all():
        raise NotMajorized(f"state {np.argmin(inside)}: spectrum violates the declared noise set")
    values = _class_values(dist, a, np.clip(mus, 0.0, None))
    return _finalize(TransitionMatrix(a), *_class_terms(dist, values), spec)


def simulate_noisy_by_noiseless(
    spec: NoiseSpec,
    target: Union[ClassicalProtocol, TransitionMatrix, np.ndarray],
    d: int,
) -> Union[SimulationResult, BinomialWitness]:
    """Simulate a noisy n-state channel by the noiseless d-state channel.

    Returns the failing prefix-sum index as a witness when the noise set
    itself is not d-simulable. Otherwise each of the C(n,d) subsets becomes
    one candidate d-state protocol of weight 1/C(n,d), which decodes its
    members as the target does. Its state for input column j is its row of
    one transport per column: every subset supplies 1/C(n,d) and may send
    it only into its own members, and the states demand the column. Of the
    candidates at most l(k-1) + 1 are kept. A ``PerColumn`` spec raises
    PerColumnNoise, since the witness names no column.
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

    base = noise_bases(spec, n)[0]
    witness = permutohedron_simulable_by_d(base, d)
    if witness is not None:
        return witness

    inside = majorized_by_permutohedron(x.T, base, STOCHASTIC_TOL)
    if not inside.all():
        raise NotMajorized(f"target column {np.argmin(inside)} violates the declared noise spec")
    # each subset sends its share of column j into its own members; by Gale's
    # theorem this is feasible when every r states carry at least
    # C(r,d)/C(n,d) of the column, which the base's threshold guarantees
    subsets = np.array(list(combinations(range(n), d)), dtype=np.intp)
    rows = np.arange(len(subsets))[:, None]
    capacity = np.zeros((len(subsets), n))
    capacity[rows, subsets] = np.inf
    weights = np.full(len(subsets), 1.0 / len(subsets))
    xs = np.empty((len(subsets), d, l))
    for j in range(l):
        result = _transport(j, "subset transport", weights, x[:, j], capacity)
        xs[:, :, j] = conditional_columns(result)[rows, subsets]
    e = np.zeros((k_out, n))
    e[decoder, np.arange(n)] = 1.0
    return _finalize(TransitionMatrix(e @ x), weights, decoder[subsets], xs, Noiseless())


def reduce_rows(m, p=None) -> RowReduction:
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
        if total < 1.0 - STOCHASTIC_TOL:
            raise PreconditionViolated(
                f"row slacks sum to {total!r} < 1; no valid row weighting exists"
            )
        weights = slack / total
    else:
        weights = convex_weights(p, k)
        if np.any(weights > slack + STOCHASTIC_TOL):
            raise PreconditionViolated("some weight exceeds its row slack 1 - max_j a_ij")

    # transposed transport: each kept row v sends its weight p_v to the
    # other rows u, output u taking a_uj; B(v)'s column j is v's flow
    kept = np.flatnonzero(weights > 1e-12)
    capacity = np.where(np.eye(k, dtype=bool)[kept], 0.0, np.inf)
    columns = np.empty((len(kept), k, l))
    for j in range(l):
        result = _transport(j, "row reduction transport", weights[kept], a[:, j], capacity)
        # a dust weight may receive no flow within the feasibility tolerance:
        # any stochastic column with a zero v-th entry works for it
        dust = result.flow.sum(axis=1) <= 0.0
        result.flow[dust] = capacity[dust] > 0.0
        columns[:, :, j] = conditional_columns(result)
    _checked_residual("row reduction", row_reduction_matrix(weights[kept], columns), a)
    return RowReduction(target=t, weights=weights[kept], zero_rows=kept, matrices=columns)
