"""Supply-demand feasibility on bipartite graphs.

A transport instance routes probability mass from left nodes (supplies) to
right nodes (demands) along admissible edges, each uncapped unless the
instance lists a capacity for it. Feasibility is decided by max-flow with
BFS augmenting paths; the min cut turns directly into a Hall-type violator:
a right-node set whose demand exceeds what the left side can send into it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from .errors import UnbalancedInstance, ZeroSupplyNode

BALANCE_TOL = 1e-9
FEAS_TOL = 1e-8
DROP_TOL = 1e-12
RESIDUAL_EPS = 1e-15


@dataclass(frozen=True)
class TransportInstance:
    """Supplies, demands and admissible edges; an edge listed in
    ``capacity`` carries at most that much flow, the others are uncapped."""

    left_supply: dict[Hashable, float]
    right_demand: dict[Hashable, float]
    edges: frozenset[tuple[Hashable, Hashable]]
    capacity: dict[tuple[Hashable, Hashable], float] = field(default_factory=dict)

    def __post_init__(self):
        if any(v < -BALANCE_TOL for v in self.left_supply.values()):
            raise UnbalancedInstance("negative supply")
        if any(v < -BALANCE_TOL for v in self.right_demand.values()):
            raise UnbalancedInstance("negative demand")
        total_s = sum(self.left_supply.values())
        total_d = sum(self.right_demand.values())
        if abs(total_s - total_d) > BALANCE_TOL:
            raise UnbalancedInstance(
                f"supply {total_s!r} and demand {total_d!r} differ by more than 1e-9"
            )
        for u, v in self.edges:
            if u not in self.left_supply or v not in self.right_demand:
                raise UnbalancedInstance(f"edge ({u!r}, {v!r}) references unknown node")
        for e, c in self.capacity.items():
            if e not in self.edges or c < 0.0:
                raise UnbalancedInstance(f"capacity {c!r} on {e!r} is negative or off the edges")


@dataclass(frozen=True)
class TransportPlan:
    flow: dict[tuple[Hashable, Hashable], float]

    def left_marginals(self) -> dict[Hashable, float]:
        out: dict[Hashable, float] = {}
        for (u, _), f in self.flow.items():
            out[u] = out.get(u, 0.0) + f
        return out

    def right_marginals(self) -> dict[Hashable, float]:
        out: dict[Hashable, float] = {}
        for (_, v), f in self.flow.items():
            out[v] = out.get(v, 0.0) + f
        return out


@dataclass(frozen=True)
class HallViolator:
    """Right-node set T whose demand exceeds the most the left side can send
    into it: the sum over left nodes u of min(supply(u), capacity(u -> T))."""

    right_set: frozenset
    demand: float
    neighborhood_supply: float

    @property
    def deficit(self) -> float:
        return self.demand - self.neighborhood_supply


@dataclass
class _FlowNetwork:
    # adjacency as lists of edge ids; cap/flow indexed by edge id, with the
    # reverse edge stored at id ^ 1
    adj: dict = field(default_factory=dict)
    to: list = field(default_factory=list)
    cap: list = field(default_factory=list)

    def add_node(self, v):
        self.adj.setdefault(v, [])

    def add_edge(self, u, v, c: float):
        self.add_node(u)
        self.add_node(v)
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def bfs_path(self, s, t):
        prev_edge = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for eid in self.adj[u]:
                v = self.to[eid]
                if v not in prev_edge and self.cap[eid] > RESIDUAL_EPS:
                    prev_edge[v] = eid
                    queue.append(v)
        if t not in prev_edge:
            return None
        path = []
        v = t
        while prev_edge[v] is not None:
            eid = prev_edge[v]
            path.append(eid)
            v = self.to[eid ^ 1]
        return path

    def max_flow(self, s, t) -> float:
        total = 0.0
        while True:
            path = self.bfs_path(s, t)
            if path is None:
                return total
            push = min(self.cap[eid] for eid in path)
            for eid in path:
                self.cap[eid] -= push
                self.cap[eid ^ 1] += push
            total += push

    def reachable(self, s) -> set:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if v not in seen and self.cap[eid] > RESIDUAL_EPS:
                    seen.add(v)
                    queue.append(v)
        return seen


def feasible_transport(inst: TransportInstance) -> TransportPlan | HallViolator:
    """Either a plan meeting both marginals or a Hall violator set.

    Supplies below 1e-12 are dropped before solving (their mass is
    discarded; it is within the balance tolerance by construction).
    """
    supply = {u: s for u, s in inst.left_supply.items() if s > DROP_TOL}
    demand = inst.right_demand
    total_demand = sum(demand.values())

    net = _FlowNetwork()
    source, sink = ("__source__",), ("__sink__",)
    net.add_node(source)
    net.add_node(sink)
    edge_ids: dict[tuple[Hashable, Hashable], int] = {}
    for u, s in supply.items():
        net.add_edge(source, ("L", u), s)
    for v, d in demand.items():
        if d > 0.0:
            net.add_edge(("R", v), sink, d)
        else:
            net.add_node(("R", v))
    for u, v in sorted(inst.edges, key=repr):
        if u in supply:
            edge_ids[(u, v)] = len(net.to)
            net.add_edge(("L", u), ("R", v), inst.capacity.get((u, v), float("inf")))

    flow_value = net.max_flow(source, sink)
    if flow_value >= total_demand - FEAS_TOL:
        flow = {}
        for (u, v), eid in edge_ids.items():
            f = net.cap[eid ^ 1]  # flow pushed equals reverse residual
            if f > 0.0:
                flow[(u, v)] = f
        return TransportPlan(flow=flow)

    reach = net.reachable(source)
    right_set = frozenset(
        v for v, d in demand.items() if d > 0.0 and ("R", v) not in reach
    )
    t_demand = sum(demand[v] for v in right_set)
    into: dict[Hashable, float] = {}
    for u, v in inst.edges:
        if v in right_set:
            into[u] = into.get(u, 0.0) + inst.capacity.get((u, v), float("inf"))
    n_supply = sum(min(inst.left_supply[u], c) for u, c in into.items())
    return HallViolator(right_set=right_set, demand=t_demand, neighborhood_supply=n_supply)


def conditional_columns(
    plan: TransportPlan, supply: dict[Hashable, float]
) -> dict[Hashable, dict[Hashable, float]]:
    """Per-left-node conditional distributions over right nodes.

    Each returned column is normalized to be exactly stochastic; weighting
    the columns by the supplies reproduces the right demands within the
    feasibility tolerance.
    """
    outflow: dict[Hashable, dict[Hashable, float]] = {}
    for (u, v), f in plan.flow.items():
        outflow.setdefault(u, {})[v] = f
    columns: dict[Hashable, dict[Hashable, float]] = {}
    for u, s in supply.items():
        if s <= DROP_TOL:
            raise ZeroSupplyNode(f"left node {u!r} has supply {s!r} <= 1e-12")
        col = outflow.get(u)
        if not col:
            raise ZeroSupplyNode(f"left node {u!r} received no flow")
        mass = sum(col.values())
        columns[u] = {v: f / mass for v, f in col.items()}
    return columns
