"""Constructive classical simulations of quantum and ball-model channels.

Each simulator returns an explicit convex-mixture certificate: a weighted
list of classical protocols whose mixture reproduces the target transition
matrix. Every construction takes one path with data per multiset class.
Quantum and ball targets are decomposed along the outcome distribution
induced by mixed discriminants (or the ball pairing), which is symmetric
under reordering an outcome tuple; noisy-to-noiseless targets along the
outputs that a random d-subset of the states decodes to. All orderings of
a class give the same protocol matrix, so each class is one candidate
protocol, and its state columns come from a layered transport, one
instance per input column, which keeps its slot vector in the permutation
hull of the state's spectrum and so inside the declared noise set. The
columns that share a noise base share the transport's left nodes, supplies
and edges and differ only in demand, so they are solved as one stack. The
noiseless and delta-noisy quantum simulations take another route, through
output supports: with rho = (1 - delta) sigma + delta I / n, the noiseless
transport for the sigma-channel sees a class only through its support, the
outputs it carries, so it runs on the support totals
(``mixdisc.support_totals``): 2^k - 1 determinants, whatever n is. For
delta > 0 one more transport decides which output each support's extra
copies decode to, so that output i is expected tr E_i times, and every
slot then gets delta / n on top of (1 - delta) times its noiseless share.

A k x l target lies in an l(k-1)-dimensional affine space, so every
certificate keeps at most l(k-1) + 1 of its candidates, reweighted by
``majorize.caratheodory`` to the same mixture matrix; the survivors are
candidates unchanged, so their states stay in the noise set. That reduction
walks an SVD null basis and clamps no weight, so it moves no mass beyond
round-off; still, a certificate whose recomposition misses its target by more
than RESIDUAL_TOL is never returned: ``NumericalBreakdown`` names the stage
instead. Inputs and noise sets are checked at the fixed tolerances that
``verify`` checks a certificate with; no entry point takes a tolerance.
Classes are processed in lexicographic order throughout, and the reduction
is deterministic, so certificates are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    protocol_matrix,
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
from .linalg import born_matrix, validate_density, validate_povm
# no caller here: kept importable because the bench trace hooks patch it by name
from .linalg import hermitian_eigenvalues  # noqa: F401
from .majorize import caratheodory, majorized_by_permutohedron
# no caller here: kept importable because the bench trace hooks patch them by name
from .majorize import hlp_decompose, max_subset_distribution  # noqa: F401
from .mixdisc import (
    DEFAULT_CAP,
    OutcomeDistribution,
    class_table,
    distribution_from_class_values,
    outcome_distribution,
    support_sizes,
    support_totals,
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
    where: Sequence[str], supply: np.ndarray, demand: np.ndarray, capacity: np.ndarray
) -> TransportPlan:
    """The stacked plan (b, L, R) sending supply[i] to demand[i] through
    ``capacity`` (shared, or one per instance) for each of b instances, in
    one solve. Each instance's supplies and demands balance only within
    tolerance, so supplies that do not balance their demands are scaled to
    their total. Raises TransportInfeasible, prefixed by where[i], with the
    Hall violator of the first infeasible instance i."""
    total, sums = demand.sum(axis=1), supply.sum(axis=1)
    off = np.abs(sums - total) > BALANCE_TOL
    if off.any():
        scale = np.ones(len(sums))
        scale[off] = total[off] / sums[off]
        supply = supply * scale[:, None]
    results = feasible_transport(TransportInstance(supply, demand, capacity))
    for label, result in zip(where, results):
        if isinstance(result, HallViolator):
            raise TransportInfeasible(
                f"{label} infeasible by {result.deficit:.3e}", violator=result
            )
    flows = [plan.flow for plan in results]
    # the flows are views of one stack; a stack of one needs no copy
    return TransportPlan(flow=flows[0][None] if len(flows) == 1 else np.stack(flows))


def _class_values(
    dist: OutcomeDistribution, a: np.ndarray, mus: np.ndarray
) -> np.ndarray:
    """Array (l, classes, k): per input column j and multiset class M (in
    sorted order), the value of each slot that carries output i, such that
    the classes reproduce column j and every class's slot vector lies in the
    permutation hull of the ascending vector mus[j] (mus is (l, n)). Entries
    for outputs that M does not carry are unused.

    Layer cake: every slot holds the floor mu[0]. Each gap
    g = mu[t] - mu[t-1] (0-based t >= 1) is a layer of at most g per slot
    over the top n - t slots: it leaves node (M, t) with supply
    w_M g (n - t) and enters output i with capacity w_M g c_M(i), c_M(i) the
    slots of M carrying i (no cap when c_M(i) >= n - t). This transport is
    feasible exactly when a(T) >= sum_M w_M P(c_M(T)) for every output set
    T, P the ascending prefix sums of mu; otherwise its min cut is raised.
    When some output cannot hold the floor, the floor is 0 and mu[0] is
    routed as the layer t = 0. Columns with the same floor and base share
    their left nodes, supplies and capacities and differ only in demand, so
    each such group is built once and solved as one stack of transports.
    """
    n, k, w = dist.n, dist.k, dist.weights
    counts = dist.counts.astype(float)
    num_classes = len(w)
    slots = w @ counts  # sum_M w_M c_M(i): the floor puts floor * slots[i] on i
    mus = np.asarray(mus, dtype=float)
    holds = np.all(a - slots[:, None] * mus[:, 0] >= -BALANCE_TOL, axis=0)
    floors = np.where(holds, mus[:, 0], 0.0)
    groups: dict[bytes, list[int]] = {}
    for j, key in enumerate(np.column_stack([floors, mus])):
        groups.setdefault(key.tobytes(), []).append(j)
    values = np.empty((len(mus), num_classes, k))
    for columns in groups.values():
        floor, mu = floors[columns[0]], mus[columns[0]]
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
        # its class's n slots, and the transport meets the rest of each column
        layered = depth[:, None] * np.repeat(counts, len(layers), axis=0) / n
        dust = supply <= DROP_TOL
        demand = a.T[columns] - floor * slots - weight[dust] @ layered[dust]
        keep = np.flatnonzero(~dust) if dust.any() else slice(None)
        plan = _transport(
            [f"column {j}: transport" for j in columns],
            np.broadcast_to(supply[keep], (len(columns),) + supply[keep].shape),
            demand,
            capacity[keep],
        )
        # each kept layer's depth, spread by its flow and shared among the
        # c_M(i) slots that carry output i; a dust layer keeps its even spread
        spread = conditional_columns(plan)
        spread *= depth[keep, None]
        if dust.any():
            full = np.repeat(layered[None], len(columns), axis=0)
            full[:, keep] = spread
            spread = full
        per_class = spread.reshape(len(columns), num_classes, len(layers), k).sum(axis=2)
        values[columns] = floor + per_class / np.maximum(counts, 1.0)
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
    channel with n states: the support route of ``_simulate_by_supports``
    at delta = 0, ``cap`` bounding the 2^k - 1 supports."""
    return _simulate_by_supports(povm, states, Noiseless(), cap)


def _simulate_by_supports(
    povm: Sequence[np.ndarray],
    states: Sequence[np.ndarray],
    spec: Union[Noiseless, Delta],
    cap: int,
) -> SimulationResult:
    """Simulate the delta-noisy quantum channel, delta in [0, 1] (0 for
    ``Noiseless``), by the equally noisy classical one, through the
    supports of the outcome distribution.

    Write rho_j = (1 - delta) sigma_j + delta I / n. sigma_j is a density
    matrix exactly when rho_j's spectrum lies in the Delta set (checked for
    a ``Delta`` spec), and then the target is A = (1 - delta) B + delta
    (tr E_i / n)_i, with B_ij = tr(E_i sigma_j). The noiseless transport
    for B has one layer, in which a class may send any mass to the outputs
    it carries and none elsewhere, so it depends on each class only
    through its support: one left node per support (``support_totals``,
    ``cap`` bounding the 2^k - 1 supports). With delta > 0,
    ``_copy_candidates`` decides which output each support's extra copies
    decode to. A candidate's state for input j is (1 - delta) times its
    support's shares of column j of B (``_first_slot_states``) plus
    delta / n on every slot: every entry is at least delta / n, so the
    column lies in the Delta set, and the candidates recompose A. At
    delta = 1 every state is uniform and B is not needed; at delta = 0
    where the extra copies go does not change a protocol matrix, and they
    stay on each support's smallest output. Equal protocol matrices merge
    before ``_finalize``."""
    povm = validate_povm(povm)
    spectra = validate_density(states)
    a = born_matrix(povm, states)
    n, l = povm.shape[1], a.shape[1]
    delta = 0.0 if isinstance(spec, Noiseless) else float(spec.delta)
    if isinstance(spec, Delta):
        _check_spectra(spectra, spec)
    dist = _support_classes(support_totals(povm, cap=cap), n)
    if delta > 0.0:
        traces = np.trace(povm, axis1=1, axis2=2).real
        support, decoders, weights = _copy_candidates(dist, traces)
    else:
        support, decoders, weights = np.arange(len(dist.weights)), dist.classes, dist.weights
    if delta < 1.0:
        # B's transport scaled by 1 - delta: demand (1 - delta) B and one
        # layer of height 1 - delta, because dividing by 1 - delta would
        # blow up round-off near delta = 1. Entries below zero are round-off
        # or within the spectrum check's tolerance.
        b = a if delta == 0.0 else np.maximum(a - delta / n * traces[:, None], 0.0)
        values = _class_values(dist, b, (1.0 - delta) * noise_bases(Noiseless(), n, l))
        x = _first_slot_states(dist, values, support, decoders)
    else:
        x = np.zeros((len(decoders), n, l))
    if delta > 0.0:
        x = (1.0 - delta) * x + delta / n
    weights, first = _distinct_protocols(weights, protocol_matrices(decoders, x, dist.k))
    return _finalize(TransitionMatrix(a), weights, decoders[first], x[first], spec)


def _support_classes(totals: np.ndarray, n: int) -> OutcomeDistribution:
    """One class per support S of positive total, totals[S] as in
    ``support_totals``: the outputs of S once each and n - |S| more copies
    of the smallest, rows in lexicographic order. ``_finalize`` would drop a
    dust support, at or below WEIGHT_FLOOR, with its mass, so first, smaller
    supports first, each dust support of fewer than n outputs moves its
    total to its heaviest proper superset of at most n outputs (the lowest
    on ties). Capacities only grow, so the transport stays feasible."""
    k = len(totals).bit_length() - 1
    sizes = support_sizes(k)
    totals = totals.copy()
    if np.any((totals > 0.0) & (totals <= WEIGHT_FLOOR) & (sizes < n)):
        heir = _heaviest_superset(totals, sizes, n)
        for size in range(1, min(n, k)):
            dust = (sizes == size) & (totals > 0.0) & (totals <= WEIGHT_FLOOR)
            np.add.at(totals, heir[dust], totals[dust])
            totals[dust] = 0.0
    masks = np.flatnonzero(totals > 0.0)
    counts = masks[:, None] >> np.arange(k) & 1
    counts[np.arange(len(masks)), counts.argmax(axis=1)] += n - sizes[masks]
    classes = np.repeat(np.tile(np.arange(k), len(masks)), counts.ravel()).reshape(-1, n)
    order = np.lexsort(classes.T[::-1])
    return OutcomeDistribution(n=n, k=k, classes=classes[order], weights=totals[masks][order])


def _heaviest_superset(totals: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """Per support S < 2^k of fewer than min(n, k) outputs, the heaviest
    support of at most n outputs that strictly contains S, the lowest on
    ties; other entries are unused."""
    k = len(sizes).bit_length() - 1
    order = np.argsort(np.where(sizes <= n, -totals, np.inf), kind="stable")
    best = np.empty_like(order)
    best[order] = np.arange(len(order))  # rank 0 is the heaviest
    for i in range(k):  # then best[S] is the best rank of a superset of S
        pairs = best.reshape(-1, 2, 2**i)
        np.minimum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    proper = np.full_like(best, len(best) - 1)  # the full support keeps a dummy
    for i in range(k):  # then proper[S] is the best over S plus one output
        without, with_i = proper.reshape(-1, 2, 2**i)[:, 0], best.reshape(-1, 2, 2**i)[:, 1]
        np.minimum(without, with_i, out=without)
    return order[proper]


def _copy_candidates(
    dist: OutcomeDistribution, traces: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates whose expected copies of output i are traces[i] = tr E_i,
    from the supports of ``_support_classes``. Support S, of total t_S,
    carries its outputs once each and n - |S| extra copies. One transport
    sends t_S (n - |S|) from each S to its own outputs, uncapped, to meet
    output i's demand tr E_i - sum_{S carrying i} t_S: the extra copies of
    the classes with support S are such a flow, since the expected count of
    i under the outcome distribution is n D(E_i, I, ..., I) = tr E_i, so
    the transport is feasible. Candidate (S, i) is S's outputs once each
    plus n - |S| copies of i, weighted by t_S times S's share of its flow
    into i. A support of n outputs, or one whose supply is at most
    DROP_TOL, stays as its class row, extra copies on its smallest output,
    which that output's demand gives up. Returns per candidate the row of
    its support in ``dist``, its decoder and its weight, in lexicographic
    order of the decoders."""
    n, k, w = dist.n, dist.k, dist.weights
    member = np.minimum(dist.counts, 1)
    extra = n - member.sum(axis=1)
    moved = w * extra > DROP_TOL
    demand = traces - w @ np.where(moved[:, None], member, dist.counts)
    capacity = np.where(member[moved] > 0, np.inf, 0.0)
    plan = _transport(["copy-count transport"], (w * extra)[moved][None], demand[None], capacity)
    shares = conditional_columns(plan)[0]
    rows, outputs = np.nonzero(shares)
    flowing = np.flatnonzero(moved)[rows]
    placed = member[flowing] + extra[flowing, None] * (outputs[:, None] == np.arange(k))
    support = np.r_[flowing, np.flatnonzero(~moved)]
    counts = np.vstack([placed, dist.counts[~moved]])
    weights = np.r_[w[flowing] * shares[rows, outputs], w[~moved]]
    decoders = np.repeat(np.tile(np.arange(k), len(counts)), counts.ravel()).reshape(-1, n)
    order = np.lexsort(decoders.T[::-1])
    return support[order], decoders[order], weights[order]


def _first_slot_states(
    dist: OutcomeDistribution, values: np.ndarray, support: np.ndarray, decoders: np.ndarray
) -> np.ndarray:
    """States (T, n, l) for T candidates of the noiseless support transport
    ``values`` over the classes of ``_support_classes``: candidate c
    decodes by decoders[c], a multiset over the outputs of its support
    dist.classes[support[c]], and for input j puts each output's whole
    share, values[j, support[c], i] times its copies in the support's class,
    on the first slot that decodes to i and 0.0 on the others: still a
    noiseless column, and a shorter certificate. Each column is rescaled to
    sum to 1, because transport meets its demands only up to float
    rounding."""
    first = np.diff(decoders, axis=1, prepend=-1) != 0
    shares = (values * dist.counts)[:, support[:, None], decoders]
    x = np.where(first, shares, 0.0)
    x /= x.sum(axis=2, keepdims=True)
    return x.transpose(1, 2, 0)


def simulate_ball(
    effects: Sequence[BallEffect],
    states: Sequence[BallState],
    delta: Rational = 0.0,
    *,
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate the delta-noisy ball channel by the delta-noisy classical
    channel with n states, n the even norm index; DimensionMismatch unless
    every effect and state has norm index n and one dimension."""
    if not effects:
        raise DimensionMismatch("need at least one effect")
    n = effects[0].norm_index
    if {p.norm_index for p in [*effects, *states]} != {n}:
        raise DimensionMismatch(f"every effect and state must have norm index {n}")
    if len({len(e.v) for e in effects} | {len(s.x) for s in states}) > 1:
        raise DimensionMismatch("effects and states must share one dimension")
    c, v = np.array([e.c for e in effects]), np.array([e.v for e in effects])
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


def simulate_quantum_noisy(
    povm: Sequence[np.ndarray],
    states: Sequence[np.ndarray],
    spec: NoiseSpec,
    *,
    cap: int = DEFAULT_CAP,
) -> SimulationResult:
    """Simulate a noisy quantum channel by the equally noisy classical one.

    Each state must have its spectrum inside the declared noise set; the
    produced mixture's state columns land in the same set. A ``Delta`` spec
    takes the support route (``_simulate_by_supports``, ``cap`` bounding
    the 2^k - 1 supports). A ``Permutohedron`` or ``PerColumn`` spec reads
    the class totals (``outcome_distribution``, ``cap`` bounding the
    C(n+k-1, n) classes) and runs the layered transport, which keeps every
    slot vector in the permutation hull of its state's spectrum.
    """
    if isinstance(spec, Delta):
        return _simulate_by_supports(povm, states, spec, cap)
    povm = validate_povm(povm)
    spectra = validate_density(states)
    a = born_matrix(povm, states)
    dist = outcome_distribution(povm, cap=cap)
    _check_spectra(spectra, spec)
    values = _class_values(dist, a, np.clip(spectra, 0.0, None))
    return _finalize(TransitionMatrix(a), *_class_terms(dist, values), spec)


def _check_spectra(spectra: np.ndarray, spec: NoiseSpec) -> None:
    """NotMajorized unless each of the l ascending state spectra (l, n)
    lies in its column's noise set."""
    l, n = spectra.shape
    inside = majorized_by_permutohedron(spectra, noise_bases(spec, n, l), STOCHASTIC_TOL)
    if not inside.all():
        raise NotMajorized(f"state {np.argmin(inside)}: spectrum violates the declared noise set")


def simulate_noisy_by_noiseless(
    spec: NoiseSpec,
    target: Union[ClassicalProtocol, TransitionMatrix, np.ndarray],
    d: int,
) -> Union[SimulationResult, BinomialWitness]:
    """Simulate a noisy n-state channel by the noiseless d-state channel.

    Returns the failing prefix-sum index as a witness when the noise set
    itself is not d-simulable. Otherwise each d-subset of the n states,
    decoded as the target decodes them (state m to output m for a matrix),
    is a d-state protocol. The subsets that decode to one multiset of
    outputs form one class (``_subset_classes``), and the classes are mixed
    along the quantum path's noiseless layered transport. By Gale's theorem
    the subsets have a feasible transport, each sending 1/C(n,d) of a column
    only into its own members, when every r states carry at least
    C(r,d)/C(n,d) of the column, which the base's threshold guarantees; that
    flow, summed over each class, is a feasible class transport. Classes
    with equal protocol matrices merge into one candidate, the first one
    weighted by their total, and at most l(k-1) + 1 candidates are kept. A
    ``PerColumn`` spec raises PerColumnNoise, since the witness names no
    column.
    """
    if not isinstance(target, ClassicalProtocol):
        x = as_transition(target).matrix
        target = ClassicalProtocol(decoder=np.arange(len(x)), states=x, num_outputs=len(x))
    decoder, x, k = target.decoder, target.states, target.num_outputs
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
    a = protocol_matrix(target)
    dist = _subset_classes(np.bincount(decoder, minlength=k), d)
    values = _class_values(dist, a.matrix, noise_bases(Noiseless(), d, l))
    weights, decoders, states = _class_terms(dist, values)
    weights, first = _distinct_protocols(weights, protocol_matrices(decoders, states, k))
    return _finalize(a, weights, decoders[first], states[first], Noiseless())


def _subset_classes(sizes: np.ndarray, d: int) -> OutcomeDistribution:
    """The outputs that a uniformly random d-subset of the states decodes
    to, as classes: with n_i = sizes[i] states decoding to output i, the
    class with c_i copies of i holds prod_i C(n_i, c_i) of the C(n, d)
    subsets, an exact integer divided once."""
    classes, counts = class_table(d, sizes)
    subsets = np.ones(len(classes), dtype=object)
    for i in np.flatnonzero(sizes > 1):  # C(1, c) = C(0, 0) = 1
        ways = np.array([math.comb(int(sizes[i]), c) for c in range(d + 1)], dtype=object)
        subsets *= ways[counts[:, i]]
    weights = (subsets / math.comb(int(sizes.sum()), d)).astype(float)
    return OutcomeDistribution(n=d, k=len(sizes), classes=classes, weights=weights)


def _distinct_protocols(weights: np.ndarray, matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group T candidates, weights (T,), by exact equality of their protocol
    matrices (T, k, l). Returns each group's weight, the sum of its members'
    weights, and the index of its first member, with groups in the order of
    their first members. One stable lexsort puts equal matrices next to each
    other, members in index order, so no step depends on hashing."""
    flat = matrices.reshape(len(matrices), -1)
    order = np.lexsort(flat.T)
    ranked = flat[order]
    starts = np.flatnonzero(np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)])
    sums = np.add.reduceat(weights[order], starts)
    first = order[starts]
    by_first = np.argsort(first)
    return sums[by_first], first[by_first]


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
    # one contiguous demand row per column, summed as the column alone is
    plan = _transport(
        [f"column {j}: row reduction transport" for j in range(l)],
        np.broadcast_to(weights[kept], (l, len(kept))),
        np.ascontiguousarray(a.T),
        capacity,
    )
    # a dust weight may receive no flow within the feasibility tolerance:
    # any stochastic column with a zero v-th entry works for it
    dust = plan.flow.sum(axis=2) <= 0.0
    plan.flow[dust] = np.broadcast_to(capacity > 0.0, plan.flow.shape)[dust]
    columns = conditional_columns(plan).transpose(1, 2, 0)
    _checked_residual("row reduction", row_reduction_matrix(weights[kept], columns), a)
    return RowReduction(target=t, weights=weights[kept], zero_rows=kept, matrices=columns)
