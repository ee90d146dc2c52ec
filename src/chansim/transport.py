"""Supply-demand feasibility on bipartite graphs, for stacks of instances.

A transport instance routes probability mass from L left nodes (supplies)
to R right nodes (demands) along the edges of a boolean (L, R) mask; an
edge carries any amount. A stack holds b such instances on the same edges,
supplies (b, L) and demands (b, R); a single instance is a stack of one.
The stack is validated once, at construction, and solved in one call.
Feasibility is decided by a max flow (source -> left -> right -> sink)
held as the (b, L, R) flow array itself, next to the unused supply per
left node and the unmet demand per right node; every step is a few numpy
operations on whole columns, not one interpreter step per edge. The
networks here have many left nodes and few right ones, and bipartite max
flow can be driven by the small side (Ahuja, Orlin, Stein and Tarjan,
SIAM J. Comput. 23, 1994):

- Greedy start: each right node in turn takes its demand from the left
  nodes, in every instance of the stack at once: the left nodes with an
  edge into it and unused supply in some instance, each giving at most its
  unused supply (one stable argsort, one cumsum and one clip over the
  stack). The left nodes with the least room to place their supply in the
  right nodes still to come give first, so most solves at the sizes used
  here end right there. A node gives exactly 0 in an instance where it has
  no room, so every instance of a stack gets the flow that it gets when it
  is solved alone, up to the order in which its gifts are summed.
- Array levels: Dinic then routes the remainder, for each instance that
  still has unmet demand. Each phase levels the residual network by a BFS
  over the matrices, forward along every edge and backward where flow >
  RESIDUAL_EPS, so left nodes get odd levels and right nodes even ones.
- Hop pushes: the blocking flow walks level-increasing paths over right
  nodes only. A hop a -> b runs through the left nodes one level above a;
  pushing x over it spreads x across them by cumsum and clip, moving flow
  from column a to column b. Each push empties a hop or a sink edge, and
  hop rooms only shrink within a phase, so the phase ends in a true
  blocking flow.
- Round-off: a greedy gift at or below RESIDUAL_EPS, and flow that a
  push-back leaves at or below it, are exactly 0 in the plan.
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

import numpy as np

from .errors import DimensionMismatch, NotFinite, UnbalancedInstance, ZeroSupplyNode

BALANCE_TOL = 1e-9
FEAS_TOL = 1e-8
DROP_TOL = 1e-12
RESIDUAL_EPS = 1e-15


@dataclass(frozen=True, eq=False)
class TransportInstance:
    """A stack of b instances on L left and R right nodes: supplies (b, L),
    demands (b, R) and one boolean (L, R) mask of the edges, shared by all
    b; a single instance is a stack of one. Finiteness, signs and each
    instance's balance are checked here, once for the whole stack."""

    supply: np.ndarray
    demand: np.ndarray
    adjacent: np.ndarray

    def __post_init__(self):
        supply = np.asarray(self.supply, dtype=float)
        demand = np.asarray(self.demand, dtype=float)
        adjacent = np.asarray(self.adjacent)
        if not (
            supply.ndim == demand.ndim == 2
            and len(supply) == len(demand)
            and adjacent.dtype == bool
            and adjacent.shape == supply.shape[1:] + demand.shape[1:]
        ):
            raise DimensionMismatch(
                f"supply {supply.shape}, demand {demand.shape} and edge mask "
                f"{adjacent.shape} of {adjacent.dtype} do not form a (b, L), (b, R), "
                "(L, R) boolean stack"
            )
        if not (np.all(np.isfinite(supply)) and np.all(np.isfinite(demand))):
            raise NotFinite("transport supply or demand has a non-finite entry")
        if np.any(supply < -BALANCE_TOL):
            raise UnbalancedInstance("negative supply")
        if np.any(demand < -BALANCE_TOL):
            raise UnbalancedInstance("negative demand")
        total_s, total_d = supply.sum(axis=1), demand.sum(axis=1)
        off = np.abs(total_s - total_d) > BALANCE_TOL
        if off.any():
            i = int(off.argmax())
            raise UnbalancedInstance(
                f"instance {i}: supply {float(total_s[i])!r} and demand "
                f"{float(total_d[i])!r} differ by more than 1e-9"
            )
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "adjacent", adjacent)

    @property
    def edges(self) -> np.ndarray:
        """The (u, v) pairs of the edges, one per row, row-major."""
        return np.argwhere(self.adjacent)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Flow (L, R) meeting the supplies and demands within FEAS_TOL, or a
    stack (b, L, R) of such flows."""

    flow: np.ndarray


@dataclass(frozen=True)
class HallViolator:
    """Right-node set T whose demand exceeds the most the left side can send
    into it: the supply of the left nodes with an edge into T."""

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
    adjacent: np.ndarray, flow: np.ndarray, spare: np.ndarray, unmet: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Array BFS from the source over the residual network: source to left
    u where spare(u) > RESIDUAL_EPS, u to right v along every edge, v back
    to u where flow > RESIDUAL_EPS, and v to the sink
    where unmet(v) > RESIDUAL_EPS. Returns the level of each left node (odd)
    and right node (even), -1 where not reached, and the sink's level, -1
    when unreachable. The BFS stops at the first right level that reaches
    the sink."""
    left = np.full(len(spare), -1)
    right = np.full(len(unmet), -1)
    frontier = spare > RESIDUAL_EPS
    depth = 1
    left[frontier] = depth
    while True:
        reached = adjacent[frontier].any(axis=0) & (right < 0)
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
    adjacent: np.ndarray,
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
    one level above a with an edge into b, which can carry flow(u, a), or
    spare(u) from the source. ``path`` holds the
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
                    back = flow[u, tail] - moved
                    flow[u, tail] = np.where(back > RESIDUAL_EPS, back, 0.0)
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
                room = np.where(adjacent[u, b], taken(a, u), 0.0)
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
    adjacent: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """For edges (L, R) shared by b instances, supplies (b, L) and demands
    (b, R): the (b, L, R) flows of a maximum flow of each instance, and per
    instance the right-node levels of its final BFS (-1 for nodes on the
    sink side of a minimum cut), or None when every demand is met. A greedy
    start fills each right node in turn, in every instance, first from the
    left nodes with the least room to place their supply in the right nodes
    after it; Dinic phases then route the remainder of each instance."""
    (b, num_left), num_right = supply.shape, demand.shape[1]
    flow = np.zeros((b, num_left, num_right))
    spare, unmet = supply.copy(), demand.copy()
    # edges (R, 1, L) and needs right node first, so that each right node's
    # columns are one contiguous block; each run of instances with equal
    # supplies shares one need row
    by_right = adjacent.T[:, None].copy()
    first = np.ones(b, dtype=bool)
    first[1:] = np.any(supply[1:] != supply[:-1], axis=1)
    rows, row_of = supply[first], np.cumsum(first) - 1
    # need: a left node's room in the right nodes after the current one,
    # less its supply; below 0 it cannot place all of it later. Leaving up
    # to FEAS_TOL unplaced is within tolerance, so that shortfall is none
    share = np.where(by_right, rows, 0.0)
    need = share[::-1].cumsum(axis=0)[::-1]
    need -= share
    need -= rows
    need[(-FEAS_TOL <= need) & (need < 0.0)] = 0.0
    # instance i's left node u is entry i L + u of the flattened stack
    offset = np.arange(b)[:, None] * num_left
    by_left = flow.reshape(b * num_left, num_right)
    for v in range(num_right):
        room = np.where(by_right[v], spare, 0.0)
        u = (room > 0.0).any(axis=0).nonzero()[0]
        if not u.size:
            continue
        # the left nodes with room in some instance, in the order of each
        # instance's need; one without room in an instance gives exactly 0
        # there
        at = offset + u[need[v][:, u].argsort(axis=1, kind="stable")][row_of]
        give = _spread(room.reshape(-1)[at], unmet[:, v, None])
        give[give <= RESIDUAL_EPS] = 0.0
        by_left[:, v][at] = give
        spare.reshape(-1)[at] -= give
        unmet[:, v] -= give.sum(axis=1)
    rights: list[np.ndarray | None] = [None] * b
    for i in (unmet > RESIDUAL_EPS).any(axis=1).nonzero()[0]:
        # views: the pushes land in the stack
        args = adjacent, flow[i], spare[i], unmet[i]
        while np.any(unmet[i] > RESIDUAL_EPS):
            left, rights[i], sink = _levels(*args)
            if sink < 0:
                break
            _blocking_flow(*args, left, rights[i], sink)
    return flow, rights


def feasible_transport(inst: TransportInstance) -> tuple[TransportPlan | HallViolator, ...]:
    """Per instance of the stack, either a plan meeting both marginals or a
    Hall violator set, b results in all; the plans are views of one
    (b, L, R) ``base``.

    Supplies at or below DROP_TOL are dropped before solving (their mass is
    discarded; it is within the balance tolerance by construction).
    """
    supply, demand, adjacent = inst.supply, inst.demand, inst.adjacent
    flow, rights = _max_flow(adjacent, np.where(supply > DROP_TOL, supply, 0.0), demand)
    met = flow.sum(axis=(1, 2)) >= demand.sum(axis=1) - FEAS_TOL
    return tuple(
        TransportPlan(flow=flow[i])
        if met[i]
        else _violator(supply[i], demand[i], adjacent, rights[i])
        for i in range(len(supply))
    )


def _violator(
    supply: np.ndarray, demand: np.ndarray, adjacent: np.ndarray, right: np.ndarray
) -> HallViolator:
    """The Hall violator of one instance: the right nodes T with demand
    that its final BFS did not reach, against the supply of the left nodes
    with an edge into T."""
    t = np.flatnonzero((demand > 0.0) & (right < 0))
    return HallViolator(
        right_set=frozenset(t.tolist()),
        demand=float(demand[t].sum()),
        neighborhood_supply=float(np.where(adjacent[:, t].any(axis=1), supply, 0.0).sum()),
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
