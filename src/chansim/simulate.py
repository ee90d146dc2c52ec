"""Constructive classical simulations of quantum and ball-model channels.

Each simulator returns an explicit convex-mixture certificate: a weighted
list of classical protocols whose mixture reproduces the target transition
matrix. Quantum and ball targets are decomposed along the outcome
distribution induced by mixed discriminants or the ball pairing, which is
symmetric under reordering an outcome tuple; noisy-to-noiseless targets
along the outputs that a random d-subset of the states decodes to. All
orderings of a multiset class give the same protocol matrix, so each class
is one candidate protocol. Every delta-noisy quantum or ball channel (delta
= 0 for a noiseless one) takes one route, through output supports
(``_simulate_by_supports``): its target is (1 - delta) times a noiseless
channel's plus delta times the expected copies of each output over n, and
the noiseless transport sees a class only through its support, the outputs
it carries, so it runs on the support totals (``mixdisc.support_totals``
or ``mixdisc.ball_support_totals``): 2^k - 1 determinants or brackets,
whatever n is. For delta > 0 a copy-count instance decides which output
each support's extra copies decode to, and every slot then gets delta / n
on top of (1 - delta) times its noiseless share. Noisy-to-noiseless targets
keep one candidate per class of decoded outputs. Both have a one-layer
noiseless transport, solved as one stack (``_one_layer``): an instance per
input column, and the copy-count one, on the same left nodes and edges.
Permutohedron- and per-column-noisy quantum targets keep one candidate per
class and solve no transport: each column lies in the base polytope of a
submodular function of output sets built from the class totals and the
state's spectrum, and Wolfe's min-norm point over its greedy vertices
(``minnorm.min_norm_point``) writes it as a mixture of output orders
(``_corral_values``). Each order gives every class a permutation of the
spectrum, so each slot vector stays in the permutation hull of the state's
spectrum and so inside the declared noise set.

Candidates with equal protocol matrices merge first. A k x l target lies
in an l(k-1)-dimensional affine space, so every certificate keeps at most
l(k-1) + 1 of its candidates, reweighted by
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
# no caller here: kept importable because the bench trace hooks patch them by name
from .linalg import hermitian_eigenvalues  # noqa: F401
from .majorize import caratheodory, majorized_by_permutohedron
from .majorize import hlp_decompose, max_subset_distribution  # noqa: F401
from .minnorm import min_norm_point
from .mixdisc import (
    OutcomeDistribution,
    ball_support_totals,
    class_table,
    distribution_from_class_values,  # noqa: F401 (no caller; the bench hooks patch it)
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
# the farthest a min-norm point may lie from a column it must reproduce
CORRAL_TOL = 1e-10


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
    (T,), decoders (T, n) and states (T, n, l). Equal protocol matrices
    merge into their first candidate (``_distinct_protocols``); a k x l
    column-stochastic target lies in an l(k-1)-dimensional affine space, so
    more than l(k-1) + 1 are cut to that many with the same matrix
    (``caratheodory``). Weights at or below WEIGHT_FLOOR are then dropped,
    the rest renormalized, and the survivors' rows, in candidate order, make
    the mixture. NumericalBreakdown if the survivors miss the target by more
    than RESIDUAL_TOL."""
    k, l = target.matrix.shape
    matrices = protocol_matrices(decoders, states, k)
    w, keep = _distinct_protocols(weights, matrices)
    if len(w) > l * (k - 1) + 1:
        chosen, w = caratheodory(w, matrices[keep].reshape(len(w), -1))
        keep = keep[chosen]
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
    where: Sequence[str], supply: np.ndarray, demand: np.ndarray, adjacent: np.ndarray
) -> TransportPlan:
    """The stacked plan (b, L, R) sending supply[i] to demand[i] along the
    edges of ``adjacent`` (L, R) for each of b instances, in one solve.
    Each instance's supplies and demands balance only within tolerance, so
    supplies that do not balance their demands are scaled to their total.
    Raises TransportInfeasible, prefixed by where[i], with the Hall violator
    of the first infeasible instance i."""
    total, sums = demand.sum(axis=1), supply.sum(axis=1)
    off = np.abs(sums - total) > BALANCE_TOL
    if off.any():
        scale = np.ones(len(sums))
        scale[off] = total[off] / sums[off]
        supply = supply * scale[:, None]
    results = feasible_transport(TransportInstance(supply, demand, adjacent))
    for label, result in zip(where, results):
        if isinstance(result, HallViolator):
            raise TransportInfeasible(
                f"{label} infeasible by {result.deficit:.3e}", violator=result
            )
    # the plans are views of one (b, L, R) stack: hand on the stack, not a copy
    return TransportPlan(flow=results[0].flow.base)


def _greedy_shares(counts: np.ndarray, top: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Array (k, classes): row p holds the mass that each class M puts on
    output order[p] when its slots take the entries of a spectrum from the
    largest down, output by output in ``order``: top[pre + c_M(i)] - top[pre],
    top[r] the sum of the r largest entries, counts (k, classes) the c_M(i)
    and pre the slots of the outputs before i."""
    share = top[counts[order].cumsum(axis=0, dtype=counts.dtype)]
    share[1:] -= share[:-1]
    return share


def _greedy_vertex(weights: np.ndarray, counts: np.ndarray, top: np.ndarray):
    """The vertex oracle of the base polytope of g(U) = sum_M w_M top[c_M(U)],
    weights (classes,), counts (k, classes) the c_M(i), and top (n + 1,)
    concave with top[0] = 0, so g is submodular. For a direction y the order
    sigma sorts y ascending, ties by output (a stable sort); the vertex puts
    g(sigma_1..sigma_i) - g(sigma_1..sigma_(i-1)) on sigma_i, the classes'
    ``_greedy_shares`` summed by weight, and the label is sigma."""

    def vertex(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = direction.argsort(kind="stable")
        v = np.empty(len(order))
        v[order] = _greedy_shares(counts, top, order) @ weights
        return order, v

    return vertex


def _corral_values(dist: OutcomeDistribution, a: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Array (l, classes, k): per input column j of a (k, l) and class M, the
    value of each slot of M that carries output i, such that the classes
    reproduce column j and every class's slot vector lies in the permutation
    hull of spectra[j] (spectra is (l, n)), clipped at 0 and normalized.
    Entries for outputs that M does not carry are 0.

    With top[r] the sum of the r largest entries of that spectrum, column j
    must lie in the base polytope of g(U) = sum_M w_M top[c_M(U)], c_M(U)
    the slots of M carrying outputs in U. Wolfe's min-norm point over its
    greedy vertices (``minnorm.min_norm_point``, ``_greedy_vertex``) writes
    the column as sum_sigma lambda_sigma v_sigma over output orders sigma.
    For order sigma the slots of each class take the spectrum's entries
    from the largest down, output by output (``_greedy_shares``): a
    permutation of the spectrum, averaged within each output. Each class
    weighs these by lambda_sigma. NumericalBreakdown, naming the column, if
    the min-norm point misses the column by more than CORRAL_TOL."""
    # per output, a contiguous row over the classes, in the narrowest type
    # that holds n, which the prefix sums then keep
    counts = dist.counts.T.astype(np.min_scalar_type(dist.n))
    spectra = np.clip(spectra, 0.0, None)
    top = np.zeros((len(spectra), dist.n + 1))
    top[:, 1:] = np.cumsum(spectra[:, ::-1], axis=1)
    top /= top[:, -1:]
    values = np.zeros((len(spectra), dist.k, len(dist.weights)))
    for j, column in enumerate(a.T):
        vertex = _greedy_vertex(dist.weights, counts, top[j])
        corral = min_norm_point(vertex, column, f"column {j}")
        if corral.distance > CORRAL_TOL:
            raise NumericalBreakdown(
                f"column {j}: min-norm point at distance {corral.distance:.3e} "
                f"exceeds {CORRAL_TOL:.1e}"
            )
        for order, weight in zip(corral.labels, corral.weights):
            share = _greedy_shares(counts, top[j], order)
            share *= weight
            values[j, order] += share
    values /= np.maximum(counts, 1)
    return values.transpose(0, 2, 1)


def _class_terms(
    dist: OutcomeDistribution, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One candidate protocol per class c = dist.classes[c], weighted by
    the class total: the decoder sends slot m to output c[m], and for input
    j the slot holds values[j, c, c[m]]. Each column is rescaled to sum to
    1, because a corral's or a transport's weights are exact only up to
    float rounding. Dust
    classes stay: ``_finalize`` drops weights only after pruning, so their
    mass reaches ``caratheodory``. Returns the weights, decoders and states
    that ``_finalize`` takes."""
    decoders = dist.classes
    x = values[:, np.arange(len(decoders))[:, None], decoders]  # (l, classes, n)
    x /= x.sum(axis=2, keepdims=True)
    return dist.weights, decoders, x.transpose(1, 2, 0)


def simulate_quantum_noiseless(
    povm: Sequence[np.ndarray], states: Sequence[np.ndarray]
) -> SimulationResult:
    """Simulate a level-n quantum channel by the noiseless classical
    channel with n states: the support route at delta = 0."""
    return _simulate_quantum(povm, states, Noiseless())


def simulate_quantum_noisy(
    povm: Sequence[np.ndarray], states: Sequence[np.ndarray], spec: NoiseSpec
) -> SimulationResult:
    """Simulate a noisy quantum channel by the equally noisy classical one.

    Each state must have its spectrum inside the declared noise set; the
    produced mixture's state columns land in the same set. A ``Delta`` or
    ``Noiseless`` spec takes the support route (``_simulate_by_supports``)
    through the 2^k - 1 determinants of ``support_totals`` and one stacked
    one-layer transport; output i is expected n D(E_i, I, ..., I) = tr E_i
    times. A ``Permutohedron`` or ``PerColumn`` spec reads the C(n+k-1, n)
    class totals (``outcome_distribution``) and finds, per column, Wolfe's
    min-norm point over greedy vertices (``_corral_values``), which keeps
    every slot vector in the permutation hull of its state's spectrum; no
    transport is solved. On a 2-CPU host (one BLAS thread, instances as in
    ``bench/workloads.py``, best of 3) permutohedron (n, k, l) = (10,10,3)
    takes 1.66-1.70 s in 194 MiB and (8,8,12) 0.19-0.21 s, against 6.3 s in
    865 MiB and 0.66-0.71 s through the layered transport it replaced.
    """
    return _simulate_quantum(povm, states, spec)


def _simulate_quantum(
    povm: Sequence[np.ndarray], states: Sequence[np.ndarray], spec: NoiseSpec
) -> SimulationResult:
    povm = validate_povm(povm)
    spectra = validate_density(states)
    target = TransitionMatrix(born_matrix(povm, states))
    if isinstance(spec, (Noiseless, Delta)):
        if isinstance(spec, Delta):
            _check_spectra(spectra, spec)
        totals, traces = support_totals(povm), np.trace(povm, axis1=1, axis2=2).real
        return _simulate_by_supports(target, totals, traces, povm.shape[1], spec)
    dist = outcome_distribution(povm)
    _check_spectra(spectra, spec)
    values = _corral_values(dist, target.matrix, spectra)
    return _finalize(target, *_class_terms(dist, values), spec)


def _simulate_by_supports(
    target: TransitionMatrix, totals: np.ndarray, copies: np.ndarray, n: int, spec: NoiseSpec
) -> SimulationResult:
    """Simulate a delta-noisy channel (delta = 0 for ``Noiseless``) by the
    equally noisy classical one with n states, through the supports of its
    outcome distribution: totals[S] as ``mixdisc.support_totals`` gives
    them, and copies[i] the expected copies of output i in a class. The
    target is A = (1 - delta) B + delta copies / n, B the noiseless
    channel's matrix. B's transport has one layer, in which a class sends
    any mass to the outputs it carries, so it has one left node per support
    and one instance per column, scaled by 1 - delta (dividing by it would
    blow up round-off near delta = 1). For delta > 0 a copy-count instance
    joins the stack (``_one_layer``): support S sends its extra copies,
    t_S (n - |S|), to its outputs to meet copies[i] - sum_{S carrying i} t_S,
    and candidate (S, i), with them on i, weighs t_S times S's share of that
    flow into i (S keeps them on its smallest output if |S| = n or its supply
    is dust). For input j each output's share goes on its first slot, times
    1 - delta, plus delta / n on every slot: a Delta-set column."""
    a, l = target.matrix, target.matrix.shape[1]
    delta = 0.0 if isinstance(spec, Noiseless) else float(spec.delta)
    dist = _support_classes(totals, n)
    w, k, counts = dist.weights, dist.k, dist.counts
    member = counts > 0
    extra = n - member.sum(axis=1)
    copy = None
    if delta > 0.0:
        moved = w * extra > DROP_TOL
        copy = np.where(moved, w * extra, 0.0), copies - w @ np.where(moved[:, None], member, counts)
    # entries below zero are round-off; at delta = 1 no column instance
    b = a if delta == 0.0 else np.maximum(a - delta / n * copies[:, None], 0.0)
    values, placement = _one_layer(dist, b if delta < 1.0 else b[:, :0], 1.0 - delta, copy)
    if delta > 0.0:
        support, outputs = np.nonzero(placement)
        placed = member[support] + extra[support, None] * (outputs[:, None] == np.arange(k))
        weights = w[support] * placement[support, outputs]
        decoders = np.repeat(np.tile(np.arange(k), len(placed)), placed.ravel()).reshape(-1, n)
        order = np.lexsort(decoders.T[::-1])
        support, decoders, weights = support[order], decoders[order], weights[order]
    else:
        support, decoders, weights = np.arange(len(w)), dist.classes, w
    if delta < 1.0:
        # rescaled, as transport meets its demands only up to rounding
        x = values[:, support[:, None], decoders] * counts[support[:, None], decoders]
        x[:, np.diff(decoders, axis=1, prepend=-1) == 0] = 0.0
        x /= x.sum(axis=2, keepdims=True)
        x = x.transpose(1, 2, 0)
    else:
        x = np.zeros((len(decoders), n, l))
    del values, placement
    x *= 1.0 - delta
    x += delta / n
    return _finalize(target, weights, decoders, x, spec)


def _one_layer(
    dist: OutcomeDistribution, a: np.ndarray, depth: float, copy: tuple | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Array (l, classes, k): per column j of a (k, l) and class M, the
    value of each slot of M that carries output i under the base (0, ...,
    0, depth), such that the classes reproduce column j. Its one layer
    sends w_M depth from M to its outputs, uncapped, and M's flow into i is
    shared among the c_M(i) slots that carry i; a class of supply at most
    DROP_TOL stays out, spread evenly and taken off the demand.
    ``copy``, supplies (classes,) and demands (k,), is one more instance of
    the stack; its conditional columns are returned too (else None), a
    class with no supply there sent to its smallest output."""
    n, w, l = dist.n, dist.weights, a.shape[1]
    counts = dist.counts.astype(float)
    even = depth * counts / n
    dust = w * depth <= DROP_TOL
    supply = np.broadcast_to(np.where(dust, 0.0, w * depth), (l, len(w)))
    demand = a.T - w[dust] @ even[dust]
    where = [f"column {j}: transport" for j in range(l)]
    if copy is not None:
        supply, demand = np.vstack([supply, copy[0]]), np.vstack([demand, copy[1]])
        where.append("copy-count transport")
    plan = _transport(where, supply, demand, counts > 0.0)
    # any row on its edges serves a dust row without flow: its values are set below
    plan.flow[:l, dust] = counts[dust]
    if copy is not None:
        idle = copy[0] == 0.0
        plan.flow[l, idle] = np.eye(dist.k)[counts[idle].argmax(axis=1)]
    spread = conditional_columns(plan)
    values = spread[:l]
    values *= depth
    values[:, dust] = even[dust]
    values /= np.maximum(counts, 1.0)
    return values, None if copy is None else spread[l]


def _support_classes(totals: np.ndarray, n: int) -> OutcomeDistribution:
    """One class per support S of positive total, totals[S] as in
    ``support_totals``: the outputs of S once each and n - |S| more copies
    of the smallest, rows in lexicographic order. ``_finalize`` would drop a
    dust support, at or below WEIGHT_FLOOR, with its mass, so first, smaller
    supports first, each dust support of fewer than n outputs moves its
    total to its heaviest proper superset of at most n outputs (the lowest
    on ties). A superset has every edge of its subset, so the transport
    stays feasible."""
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


def simulate_ball(
    effects: Sequence[BallEffect], states: Sequence[BallState], delta: Rational = 0.0
) -> SimulationResult:
    """Simulate the delta-noisy ball channel by the delta-noisy classical
    channel with n states, n the even norm index, through the supports of
    its 2^k - 1 brackets (``ball_support_totals``); output i is expected
    n bracket(e_i, u, ..., u) = n c_i times, u = (1, 0) the unit effect.
    DimensionMismatch unless every effect and state has norm index n and
    one dimension."""
    if not effects:
        raise DimensionMismatch("need at least one effect")
    n = effects[0].norm_index
    if {p.norm_index for p in [*effects, *states]} != {n}:
        raise DimensionMismatch(f"every effect and state must have norm index {n}")
    if len({len(e.v) for e in effects} | {len(s.x) for s in states}) > 1:
        raise DimensionMismatch("effects and states must share one dimension")
    c, v = np.array([e.c for e in effects]), np.array([e.v for e in effects])
    target = ball_born_matrix(effects, states, delta=delta)
    totals = ball_support_totals(c, v, n)
    return _simulate_by_supports(target, totals, n * c, n, Delta(delta))


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
    along the one-layer noiseless transport (``_one_layer``), one stacked
    solve. By Gale's theorem
    the subsets have a feasible transport, each sending 1/C(n,d) of a column
    only into its own members, when every r states carry at least
    C(r,d)/C(n,d) of the column, which the base's threshold guarantees; that
    flow, summed over each class, is a feasible class transport. A
    ``PerColumn`` spec raises PerColumnNoise, since the witness names no
    column.
    """
    if not isinstance(target, ClassicalProtocol):
        x = as_transition(target).matrix
        target = ClassicalProtocol(decoder=np.arange(len(x)), states=x, num_outputs=len(x))
    decoder, x, k = target.decoder, target.states, target.num_outputs
    n = len(x)
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
    values, _ = _one_layer(dist, a.matrix, 1.0)
    return _finalize(a, *_class_terms(dist, values), Noiseless())


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
    adjacent = ~np.eye(k, dtype=bool)[kept]
    # one contiguous demand row per column, summed as the column alone is
    plan = _transport(
        [f"column {j}: row reduction transport" for j in range(l)],
        np.broadcast_to(weights[kept], (l, len(kept))),
        np.ascontiguousarray(a.T),
        adjacent,
    )
    # a dust weight may receive no flow within the feasibility tolerance:
    # any stochastic column with a zero v-th entry works for it
    dust = plan.flow.sum(axis=2) <= 0.0
    plan.flow[dust] = np.broadcast_to(adjacent, plan.flow.shape)[dust]
    columns = conditional_columns(plan).transpose(1, 2, 0)
    _checked_residual("row reduction", row_reduction_matrix(weights[kept], columns), a)
    return RowReduction(target=t, weights=weights[kept], zero_rows=kept, matrices=columns)
