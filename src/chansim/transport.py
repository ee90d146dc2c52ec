"""Supply-demand feasibility on bipartite graphs.

A transport instance routes probability mass from L left nodes (supplies)
to R right nodes (demands) through an (L, R) capacity matrix: an entry of 0
means no edge, ``inf`` an uncapped edge, and any other value the most that
edge carries. Feasibility is decided by max-flow with BFS augmenting paths
on a network whose nodes are numbered 0..L+R+1; the min cut turns directly
into a Hall-type violator: a right-node set whose demand exceeds what the
left side can send into it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotFinite, UnbalancedInstance, ZeroSupplyNode

BALANCE_TOL = 1e-9
FEAS_TOL = 1e-8
DROP_TOL = 1e-12
RESIDUAL_EPS = 1e-15


@dataclass(frozen=True, eq=False)
class TransportInstance:
    """Supplies (L,), demands (R,) and capacities (L, R); capacity 0 is no
    edge and ``inf`` an uncapped one."""

    supply: np.ndarray
    demand: np.ndarray
    capacity: np.ndarray

    def __post_init__(self):
        supply = np.asarray(self.supply, dtype=float)
        demand = np.asarray(self.demand, dtype=float)
        capacity = np.asarray(self.capacity, dtype=float)
        if supply.ndim != 1 or demand.ndim != 1 or capacity.shape != supply.shape + demand.shape:
            raise DimensionMismatch(
                f"supply {supply.shape}, demand {demand.shape} and capacity "
                f"{capacity.shape} do not form an (L,), (R,), (L, R) instance"
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
        total_s, total_d = float(supply.sum()), float(demand.sum())
        if abs(total_s - total_d) > BALANCE_TOL:
            raise UnbalancedInstance(
                f"supply {total_s!r} and demand {total_d!r} differ by more than 1e-9"
            )
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "capacity", capacity)

    @property
    def edges(self) -> np.ndarray:
        """The (u, v) pairs with positive capacity, one per row, row-major."""
        return np.argwhere(self.capacity > 0.0)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Flow (L, R) meeting the supplies and demands within FEAS_TOL."""

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


class _FlowNetwork:
    """Residual graph on nodes 0..size-1: adjacency as lists of edge ids,
    cap indexed by edge id, with the reverse edge stored at id ^ 1."""

    def __init__(self, size: int):
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, c: float) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def bfs(self, s: int, stop: int = -1) -> list:
        """Per node, the edge id by which BFS over residual capacity first
        reached it from s: -1 for s, None if unreached. Stops at ``stop``."""
        prev: list = [None] * len(self.adj)
        prev[s] = -1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == stop:
                break
            for eid in self.adj[u]:
                v = self.to[eid]
                if prev[v] is None and self.cap[eid] > RESIDUAL_EPS:
                    prev[v] = eid
                    queue.append(v)
        return prev

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            prev = self.bfs(s, t)
            if prev[t] is None:
                return total
            path = []
            v = t
            while v != s:
                eid = prev[v]
                path.append(eid)
                v = self.to[eid ^ 1]
            push = min(self.cap[eid] for eid in path)
            for eid in path:
                self.cap[eid] -= push
                self.cap[eid ^ 1] += push
            total += push


def feasible_transport(inst: TransportInstance) -> TransportPlan | HallViolator:
    """Either a plan meeting both marginals or a Hall violator set.

    Supplies below 1e-12 are dropped before solving (their mass is
    discarded; it is within the balance tolerance by construction).
    Left node u is network node u, right node v is L + v, and the source
    and sink are L + R and L + R + 1.
    """
    n_left, n_right = inst.capacity.shape
    source, sink = n_left + n_right, n_left + n_right + 1
    net = _FlowNetwork(n_left + n_right + 2)
    kept = inst.supply > DROP_TOL
    for u in np.flatnonzero(kept).tolist():
        net.add_edge(source, u, float(inst.supply[u]))
    for v in np.flatnonzero(inst.demand > 0.0).tolist():
        net.add_edge(n_left + v, sink, float(inst.demand[v]))
    edges = inst.edges
    us, vs = edges[kept[edges[:, 0]]].T
    first = len(net.to)
    for u, v, c in zip(us.tolist(), vs.tolist(), inst.capacity[us, vs].tolist()):
        net.add_edge(u, n_left + v, c)

    if net.max_flow(source, sink) >= inst.demand.sum() - FEAS_TOL:
        flow = np.zeros((n_left, n_right))
        flow[us, vs] = net.cap[first + 1 :: 2]  # flow pushed equals reverse residual
        return TransportPlan(flow=flow)

    reach = net.bfs(source)
    right = [v for v in range(n_right) if inst.demand[v] > 0.0 and reach[n_left + v] is None]
    into = inst.capacity[:, right].sum(axis=1)
    return HallViolator(
        right_set=frozenset(right),
        demand=float(inst.demand[right].sum()),
        neighborhood_supply=float(np.minimum(inst.supply, into).sum()),
    )


def conditional_columns(plan: TransportPlan) -> np.ndarray:
    """Per left node, its conditional distribution over right nodes: the
    flow with each row normalised to sum exactly to 1. Weighting the rows
    by the supplies reproduces the right demands within FEAS_TOL."""
    mass = plan.flow.sum(axis=1, keepdims=True)
    empty = np.flatnonzero(mass[:, 0] <= 0.0)
    if empty.size:
        raise ZeroSupplyNode(f"left node {int(empty[0])} received no flow")
    return plan.flow / mass
