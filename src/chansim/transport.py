"""Supply-demand feasibility on bipartite graphs, for stacks of instances.

A transport instance routes probability mass from L left nodes (supplies)
to R right nodes (demands) through an (L, R) capacity matrix: an entry of 0
means no edge, ``inf`` an uncapped edge, and any other value the most that
edge carries. A stack holds b such instances on the same nodes, supplies
(b, L) and demands (b, R), with one (L, R) capacity matrix for all of them
or a (b, L, R) stack; a single instance is a stack of one. The stack is
validated once, at construction, and solved in one call. Feasibility is
decided by a max flow (source -> left -> right -> sink) held as the
(b, L, R) flow array itself, next to the unused supply per left node and
the unmet demand per right node; every step is a few numpy operations on
whole columns, not one interpreter step per edge. The networks here have
many left nodes and few right ones, and bipartite max flow can be driven by
the small side (Ahuja, Orlin, Stein and Tarjan, SIAM J. Comput. 23, 1994):

- Greedy start: each right node in turn takes its demand from the left
  nodes, in every instance of the stack at once: the left nodes with an
  edge into it and unused supply in some instance, each giving at most its
  unused supply and its capacity into that node (one stable argsort, one
  cumsum and one clip over the stack). The left nodes with the least room
  to place their supply in the right nodes still to come give first, so
  most solves at the sizes used here end right there. A node gives exactly
  0 in an instance where it has no room, and each instance totals its own
  gifts alone, so every instance of a stack gets, bit for bit, the flow
  that it gets when it is solved alone.
- Array levels: Dinic then routes the remainder, for each instance that
  still has unmet demand. Each phase levels the residual network by a BFS
  over the matrices, forward where capacity - flow > RESIDUAL_EPS and
  backward where flow > RESIDUAL_EPS, so left nodes get odd levels and
  right nodes even ones.
- Hop pushes: the blocking flow walks level-increasing paths over right
  nodes only. A hop a -> b runs through the left nodes one level above a;
  pushing x over it spreads x across them by cumsum and clip, moving flow
  from column a to column b. Each push empties a hop or a sink edge, and
  hop rooms only shrink within a phase, so the phase ends in a true
  blocking flow.
- Phase bound: a shortest augmenting path visits each left and right node
  at most once, so its length grows with every phase and there are at most
  min(L, R) phases before the final BFS finds the sink unreachable (that
  BFS is skipped once every demand is met).
- Min cut: the right nodes that final BFS does not reach form a Hall-type
  violator: a right-node set whose demand exceeds what the left side can
  send into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import DimensionMismatch, NotFinite, UnbalancedInstance, ZeroSupplyNode

BALANCE_TOL = 1e-9
FEAS_TOL = 1e-8
DROP_TOL = 1e-12
RESIDUAL_EPS = 1e-15


@dataclass(frozen=True, eq=False)
class TransportInstance:
    """One instance, supplies (L,), demands (R,) and capacities (L, R), or
    a stack of b: supplies (b, L), demands (b, R) and capacities (L, R)
    shared by all b or (b, L, R); capacity 0 is no edge and ``inf`` an
    uncapped one. Finiteness, signs and each instance's balance are checked
    here, once for the whole stack."""

    supply: np.ndarray
    demand: np.ndarray
    capacity: np.ndarray

    def __post_init__(self):
        supply = np.asarray(self.supply, dtype=float)
        demand = np.asarray(self.demand, dtype=float)
        capacity = np.asarray(self.capacity, dtype=float)
        if not (
            supply.ndim in (1, 2)
            and demand.ndim == supply.ndim
            and supply.shape[:-1] == demand.shape[:-1]
            and capacity.shape[-2:] == supply.shape[-1:] + demand.shape[-1:]
            and capacity.shape[:-2] in ((), supply.shape[:-1])
        ):
            raise DimensionMismatch(
                f"supply {supply.shape}, demand {demand.shape} and capacity "
                f"{capacity.shape} form neither an (L,), (R,), (L, R) instance "
                "nor a (b, L), (b, R), (L, R) or (b, L, R) stack"
            )
        if not (np.all(np.isfinite(supply)) and np.all(np.isfinite(demand))):
            raise NotFinite("transport supply or demand has a non-finite entry")
        if np.any(np.isnan(capacity)):
            raise NotFinite("transport capacity has a NaN entry")
        if np.any(supply < -BALANCE_TOL):
            raise UnbalancedInstance("negative supply")
        if np.any(demand < -BALANCE_TOL):
            raise UnbalancedInstance("negative demand")
        if np.any(capacity < 0.0):
            raise UnbalancedInstance("negative capacity")
        total_s, total_d = supply.sum(axis=-1).reshape(-1), demand.sum(axis=-1).reshape(-1)
        off = np.abs(total_s - total_d) > BALANCE_TOL
        if off.any():
            i = int(off.argmax())
            where = f"instance {i}: " if supply.ndim == 2 else ""
            raise UnbalancedInstance(
                f"{where}supply {float(total_s[i])!r} and demand {float(total_d[i])!r} "
                "differ by more than 1e-9"
            )
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "capacity", capacity)

    @property
    def edges(self) -> np.ndarray:
        """The (u, v) pairs with positive capacity, one per row, row-major;
        (i, u, v) triples for a (b, L, R) capacity stack."""
        return np.argwhere(self.capacity > 0.0)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Flow (L, R) meeting the supplies and demands within FEAS_TOL, or a
    stack (b, L, R) of such flows."""

    flow: np.ndarray


@dataclass(frozen=True)
class HallViolator:
    """Right-node set T whose demand exceeds the most the left side can send
    into it: the sum over left nodes u of min(supply(u), capacity(u -> T))."""

    right_set: frozenset[int]
    demand: float
    neighborhood_supply: float

    @property
    def deficit(self) -> float:
        return self.demand - self.neighborhood_supply


SOURCE = -1  # the source, as a path node next to the right nodes


def _spread(room: np.ndarray, amount) -> np.ndarray:
    """Split ``amount`` over nodes in order along the last axis, each taking
    at most its room: the first nodes fill up and at most one is filled in
    part."""
    before = room.cumsum(axis=-1) - room
    return np.minimum(np.maximum(0.0, amount - before), room)


def _levels(
    capacity: np.ndarray, flow: np.ndarray, spare: np.ndarray, unmet: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Array BFS from the source over the residual network: source to left
    u where spare(u) > RESIDUAL_EPS, u to right v where capacity - flow >
    RESIDUAL_EPS, v back to u where flow > RESIDUAL_EPS, and v to the sink
    where unmet(v) > RESIDUAL_EPS. Returns the level of each left node (odd)
    and right node (even), -1 where not reached, and the sink's level, -1
    when unreachable. The BFS stops at the first right level that reaches
    the sink."""
    left = np.full(len(spare), -1)
    right = np.full(len(unmet), -1)
    frontier = spare > RESIDUAL_EPS
    depth = 1
    left[frontier] = depth
    room = capacity - flow
    while True:
        reached = (room[frontier] > RESIDUAL_EPS).any(axis=0) & (right < 0)
        if not reached.any():
            return left, right, -1
        right[reached] = depth + 1
        if np.any(unmet[reached] > RESIDUAL_EPS):
            return left, right, depth + 2
        frontier = (flow[:, reached] > RESIDUAL_EPS).any(axis=1) & (left < 0)
        if not frontier.any():
            return left, right, -1
        depth += 2
        left[frontier] = depth


def _blocking_flow(
    capacity: np.ndarray,
    flow: np.ndarray,
    spare: np.ndarray,
    unmet: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    sink: int,
) -> None:
    """Augment along level-increasing paths until none is left, in place.

    Paths are walked over right nodes: a hop a -> b (a a right node or the
    source, b a right node two levels up) runs through every left node u
    one level above a, which can carry min(flow(u, a), capacity(u, b) -
    flow(u, b)), or min(spare(u), ...) from the source. ``path`` holds the
    nodes from the source, ``hops[i]`` the rows and room of the hop from
    path[i] to path[i + 1], and ``ahead[a]`` the hops out of a not yet found
    dead, last first. A path ends at a right node one level below the sink.
    Hop rooms only shrink within a phase, and each push empties a hop or a
    sink edge, so the phase ends in a blocking flow."""
    rows = {level: np.flatnonzero(left == level) for level in range(1, sink, 2)}
    path, hops = [SOURCE], []
    ahead: dict[int, list[int]] = {}

    def taken(a: int, u: np.ndarray) -> np.ndarray:
        return spare[u] if a == SOURCE else flow[u, a]

    def alive(b: int) -> bool:
        if right[b] == sink - 1:
            return unmet[b] > RESIDUAL_EPS
        return ahead.get(b) != []

    while True:
        a = path[-1]
        if a != SOURCE and right[a] == sink - 1:
            push = min(unmet[a], *(room.sum() for _, room in hops))
            for (u, room), tail, head in zip(hops, path, path[1:]):
                moved = _spread(room, push)
                flow[u, head] += moved
                if tail == SOURCE:
                    spare[u] -= moved
                else:
                    flow[u, tail] -= moved
                room -= moved
            unmet[a] -= push
            # back to the tail of the first emptied hop; the last hop
            # counts as emptied once its head's demand is met
            cut = next(
                (i for i, (_, room) in enumerate(hops) if not np.any(room > RESIDUAL_EPS)),
                len(hops) - 1,
            )
            del path[cut + 1 :], hops[cut:]
            ahead[path[-1]].pop()
            continue
        level = 0 if a == SOURCE else right[a]
        u = rows[level + 1]
        if a not in ahead:
            ahead[a] = np.flatnonzero(right == level + 2)[::-1].tolist()
        todo = ahead[a]
        while todo:
            b = todo[-1]
            if alive(b):
                room = np.minimum(taken(a, u), capacity[u, b] - flow[u, b])
                room[room <= RESIDUAL_EPS] = 0.0
                if room.any():
                    path.append(b)
                    hops.append((u, room))
                    break
            todo.pop()
        else:
            if a == SOURCE:
                return
            path.pop()
            hops.pop()
            ahead[path[-1]].pop()


def _max_flow(
    capacity: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """For capacities (1, L, R) shared by b instances or (b, L, R),
    supplies (b, L) and demands (b, R): the (b, L, R) flows of a maximum
    flow of each instance, and per instance the right-node levels of its
    final BFS (-1 for nodes on the sink side of a minimum cut), or None
    when every demand is met. A greedy start fills each right node in turn,
    in every instance, first from the left nodes with the least room to
    place their supply in the right nodes after it; Dinic phases then route
    the remainder of each instance."""
    (b, num_left), num_right = supply.shape, demand.shape[1]
    flow = np.zeros((b, num_left, num_right))
    spare, unmet = supply.copy(), demand.copy()
    # capacities (R, 1 or b, L) and needs right node first, so that each
    # right node's columns are one contiguous block; instances with the
    # same supplies and capacities share their need
    by_right = capacity.transpose(2, 0, 1).copy()
    shared = len(capacity) == 1 and (b == 1 or bool((supply == supply[0]).all()))
    rows = supply[:1] if shared else supply
    # need: a left node's room in the right nodes after the current one,
    # less its supply; below 0 it cannot place all of it later. Leaving up
    # to FEAS_TOL unplaced is within tolerance, so that shortfall is none
    share = np.minimum(rows, by_right)
    need = share[::-1].cumsum(axis=0)[::-1] - share - rows
    need[(-FEAS_TOL <= need) & (need < 0.0)] = 0.0
    # instance i's left node u is entry i L + u of the flattened stack
    offset = np.arange(b)[:, None] * num_left
    by_left = flow.reshape(b * num_left, num_right)
    for v in range(num_right):
        room = np.minimum(spare, by_right[v])
        has = room > 0.0
        u = has.any(axis=0).nonzero()[0]
        if not u.size:
            continue
        # the left nodes with room in some instance, in the order of each
        # instance's need; one without room in an instance gives exactly 0
        # there, and each instance totals its own gifts alone, so it gets
        # the flow that it gets when it is solved alone
        at = offset + u[need[v][:, u].argsort(axis=1, kind="stable")]
        give = _spread(room.reshape(-1)[at], unmet[:, v, None])
        by_left[:, v][at] = give
        spare.reshape(-1)[at] -= give
        # when every instance has room at all of u, each totals its whole
        # row, as a lone instance always does
        if b == 1 or (has.sum(axis=1) == u.size).all():
            unmet[:, v] -= give.sum(axis=1)
            continue
        own = has.sum(axis=1)
        # instances in order of their number of own nodes m: each run of
        # equal m is one (instances, m) block of gifts, summed by rows
        order = np.argsort(own, kind="stable")
        gifts = give[order][has.reshape(-1)[at[order]]]
        totals, start = [], 0
        for m, run in groupby(own[order].tolist()):
            alike = len(list(run))
            block = gifts[start : start + m * alike]
            totals.append(block.reshape(alike, m).sum(axis=1) if m else np.zeros(alike))
            start += m * alike
        unmet[order, v] -= np.concatenate(totals)
    rights: list[np.ndarray | None] = [None] * b
    for i in (unmet > RESIDUAL_EPS).any(axis=1).nonzero()[0]:
        # views: the pushes land in the stack
        args = capacity[i % len(capacity)], flow[i], spare[i], unmet[i]
        while np.any(unmet[i] > RESIDUAL_EPS):
            left, rights[i], sink = _levels(*args)
            if sink < 0:
                break
            _blocking_flow(*args, left, rights[i], sink)
    return flow, rights


def feasible_transport(
    inst: TransportInstance,
) -> TransportPlan | HallViolator | tuple[TransportPlan | HallViolator, ...]:
    """Per instance, either a plan meeting both marginals or a Hall
    violator set: a tuple of b results for a stack, the one result for a
    single instance.

    Supplies at or below DROP_TOL are dropped before solving (their mass is
    discarded; it is within the balance tolerance by construction).
    """
    stacked = inst.supply.ndim == 2
    supply = inst.supply if stacked else inst.supply[None]
    demand = inst.demand if stacked else inst.demand[None]
    capacity = inst.capacity if inst.capacity.ndim == 3 else inst.capacity[None]
    flow, rights = _max_flow(capacity, np.where(supply > DROP_TOL, supply, 0.0), demand)
    met = flow.sum(axis=(1, 2)) >= demand.sum(axis=1) - FEAS_TOL
    results = tuple(
        TransportPlan(flow=flow[i])
        if met[i]
        else _violator(supply[i], demand[i], capacity[i % len(capacity)], rights[i])
        for i in range(len(supply))
    )
    return results if stacked else results[0]


def _violator(
    supply: np.ndarray, demand: np.ndarray, capacity: np.ndarray, right: np.ndarray
) -> HallViolator:
    """The Hall violator of one instance: the right nodes with demand that
    its final BFS did not reach."""
    t = np.flatnonzero((demand > 0.0) & (right < 0))
    into = capacity[:, t].sum(axis=1)
    return HallViolator(
        right_set=frozenset(t.tolist()),
        demand=float(demand[t].sum()),
        neighborhood_supply=float(np.minimum(supply, into).sum()),
    )


def conditional_columns(plan: TransportPlan) -> np.ndarray:
    """Per left node, its conditional distribution over right nodes: the
    flow with each row normalised to sum exactly to 1, (L, R) or, for a
    stack of flows, (b, L, R). Weighting the rows by the supplies
    reproduces the right demands within FEAS_TOL."""
    mass = plan.flow.sum(axis=-1, keepdims=True)
    empty = np.argwhere(mass[..., 0] <= 0.0)
    if empty.size:
        where = f"instance {empty[0, 0]}: " if plan.flow.ndim == 3 else ""
        raise ZeroSupplyNode(f"{where}left node {int(empty[0, -1])} received no flow")
    return plan.flow / mass
