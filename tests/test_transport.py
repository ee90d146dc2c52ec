from itertools import combinations, product

import numpy as np
import pytest
import scipy.optimize

from chansim.transport import (
    HallViolator,
    TransportInstance,
    TransportPlan,
    conditional_columns,
    feasible_transport,
)
from chansim.errors import DimensionMismatch, NotFinite, UnbalancedInstance, ZeroSupplyNode


def make_instance(supply, demand, edges, capacity=None):
    """Index-array instance for label-keyed supplies, demands and edges:
    left and right nodes are numbered in the order of the two dicts, and an
    edge without a listed capacity is uncapped."""
    lefts, rights = list(supply), list(demand)
    cap = np.zeros((len(lefts), len(rights)))
    for u, v in edges:
        cap[lefts.index(u), rights.index(v)] = (capacity or {}).get((u, v), np.inf)
    return TransportInstance(
        supply=np.array(list(supply.values()), dtype=float),
        demand=np.array(list(demand.values()), dtype=float),
        capacity=cap,
    )


def right_labels(violator, demand):
    """The violator's right set as labels of ``demand``."""
    rights = list(demand)
    return frozenset(rights[v] for v in violator.right_set)


def reachable_supply(supply, edges, capacity, subset):
    """Most the left side can send into a right subset: per left node, the
    smaller of its supply and its total edge capacity into the subset."""
    into = {}
    for u, v in edges:
        if v in subset:
            into[u] = into.get(u, 0.0) + capacity.get((u, v), float("inf"))
    return sum(min(supply.get(u, 0.0), c) for u, c in into.items())


def hall_feasible(supply, demand, edges, capacity=None):
    """Brute-force oracle: check every right subset's demand against what
    the left side can send into it."""
    rights = list(demand)
    for r in range(1, len(rights) + 1):
        for subset in combinations(rights, r):
            t_demand = sum(demand[v] for v in subset)
            if t_demand > reachable_supply(supply, edges, capacity or {}, subset) + 1e-8:
                return False
    return True


def lp_feasible(supply, demand, edges, capacity=None):
    """Second oracle: transportation feasibility as a plain LP, edge
    capacities as upper bounds."""
    capacity = capacity or {}
    edge_list = sorted(edges, key=repr)
    if not edge_list:
        return all(d <= 1e-8 for d in demand.values())
    lefts = sorted(supply, key=repr)
    rights = sorted(demand, key=repr)
    a_eq, b_eq = [], []
    for u in lefts:
        a_eq.append([1.0 if e[0] == u else 0.0 for e in edge_list])
        b_eq.append(supply[u])
    for v in rights:
        a_eq.append([1.0 if e[1] == v else 0.0 for e in edge_list])
        b_eq.append(demand[v])
    res = scipy.optimize.linprog(
        c=[0.0] * len(edge_list),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=[(0, capacity.get(e)) for e in edge_list],
    )
    return res.status == 0


def check_plan(plan, supply, demand, edges, tol=1e-8, capacity=None):
    lefts, rights = list(supply), list(demand)
    flow = plan.flow
    assert flow.shape == (len(lefts), len(rights))
    assert np.all(flow >= 0.0)
    on_edge = np.zeros(flow.shape, dtype=bool)
    for u, v in edges:
        on_edge[lefts.index(u), rights.index(v)] = True
    assert np.all(flow[~on_edge] == 0.0)
    for (u, v), c in (capacity or {}).items():
        assert flow[lefts.index(u), rights.index(v)] <= c + tol
    assert np.max(np.abs(flow.sum(axis=1) - list(supply.values()))) < tol
    assert np.max(np.abs(flow.sum(axis=0) - list(demand.values()))) < tol


def test_complete_graph_feasible():
    supply = {0: 0.2, 1: 0.8}
    demand = {"a": 0.5, "b": 0.5}
    edges = set(product(supply, demand))
    plan = feasible_transport(make_instance(supply, demand, edges))
    assert isinstance(plan, TransportPlan)
    check_plan(plan, supply, demand, edges)


def test_diagonal_violator():
    supply = {1: 0.7, 2: 0.3}
    demand = {1: 0.5, 2: 0.5}
    edges = {(1, 1), (2, 2)}
    result = feasible_transport(make_instance(supply, demand, edges))
    assert isinstance(result, HallViolator)
    assert right_labels(result, demand) == frozenset({2})
    assert result.deficit > 1e-8


def test_unbalanced_rejected():
    with pytest.raises(UnbalancedInstance):
        make_instance({0: 1.0}, {0: 0.5}, {(0, 0)})
    with pytest.raises(UnbalancedInstance):
        make_instance({0: 1.0}, {0: 1.0}, {(0, 0)}, {(0, 0): -0.5})


def test_malformed_arrays_rejected():
    with pytest.raises(DimensionMismatch):
        TransportInstance(np.ones(2) / 2, np.ones(1), np.full((1, 2), np.inf))
    with pytest.raises(NotFinite):
        TransportInstance(np.ones(1), np.ones(1), np.full((1, 1), np.nan))
    with pytest.raises(NotFinite):
        TransportInstance(np.array([np.nan]), np.ones(1), np.ones((1, 1)))


def test_conditional_single_left_node():
    supply = {0: 1.0}
    demand = {"a": 0.25, "b": 0.75}
    edges = {(0, "a"), (0, "b")}
    plan = feasible_transport(make_instance(supply, demand, edges))
    cols = conditional_columns(plan)
    assert cols[0] == pytest.approx([0.25, 0.75])


def test_conditional_symmetric_uniform():
    supply = {0: 0.5, 1: 0.5}
    demand = {0: 0.5, 1: 0.5}
    edges = set(product(supply, demand))
    plan = feasible_transport(make_instance(supply, demand, edges))
    cols = conditional_columns(plan)
    assert np.array(list(supply.values())) @ cols == pytest.approx(list(demand.values()))


def test_conditional_zero_supply_rejected():
    supply = {0: 1.0, 1: 0.0}
    demand = {"a": 1.0}
    plan = feasible_transport(make_instance(supply, demand, {(0, "a")}))
    with pytest.raises(ZeroSupplyNode):
        conditional_columns(plan)


def test_random_instances_match_hall_oracle(rng):
    for trial in range(200):
        nl = int(rng.integers(1, 7))
        nr = int(rng.integers(1, 7))
        supply = {i: float(w) for i, w in enumerate(rng.dirichlet(np.ones(nl)))}
        demand = {j: float(w) for j, w in enumerate(rng.dirichlet(np.ones(nr)))}
        # every other trial caps about half of a denser edge set, so that
        # the caps decide feasibility in about a third of those trials
        capped = trial % 2 == 1
        edges = {
            (i, j)
            for i in range(nl)
            for j in range(nr)
            if rng.random() < (0.9 if capped else 0.55)
        }
        capacity = {}
        if capped:
            capacity = {
                e: float(rng.uniform(0.0, 0.5)) for e in sorted(edges) if rng.random() < 0.5
            }
        result = feasible_transport(make_instance(supply, demand, edges, capacity))
        oracle = hall_feasible(supply, demand, edges, capacity)
        if trial % 5 < 2:
            assert oracle == lp_feasible(supply, demand, edges, capacity)
        if isinstance(result, TransportPlan):
            assert oracle
            check_plan(result, supply, demand, edges, capacity=capacity)
        else:
            assert not oracle
            assert result.deficit > 1e-8
            right_set = right_labels(result, demand)
            recomputed = sum(demand[v] for v in right_set) - reachable_supply(
                supply, edges, capacity, right_set
            )
            assert recomputed == pytest.approx(result.deficit)


def test_outcome_tuple_structure_always_feasible(rng):
    # supplies on index tuples, demands on the alphabet, edge iff the index
    # occurs in the tuple: feasible whenever every subset of the alphabet
    # holds at least the mass of the tuples confined to it
    from itertools import product as iproduct

    for _ in range(30):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        tuples = list(iproduct(range(k), repeat=n))
        supply = {t: float(w) for t, w in zip(tuples, rng.dirichlet(np.ones(len(tuples))))}
        demand_vec = np.zeros(k)
        # meet the neighborhood condition by construction: route each
        # tuple's mass to indices occurring in it
        for t, w in supply.items():
            split = rng.dirichlet(np.ones(n))
            for m, i in enumerate(t):
                demand_vec[i] += w * split[m]
        demand = {i: float(demand_vec[i]) for i in range(k)}
        edges = {(t, i) for t in tuples for i in set(t)}
        result = feasible_transport(make_instance(supply, demand, edges))
        assert isinstance(result, TransportPlan)
        check_plan(result, supply, demand, edges)


def test_reconstruction_residual(rng):
    for _ in range(50):
        nl = int(rng.integers(1, 5))
        nr = int(rng.integers(1, 5))
        supply = {i: float(w) for i, w in enumerate(rng.dirichlet(np.ones(nl)))}
        demand = {j: float(w) for j, w in enumerate(rng.dirichlet(np.ones(nr)))}
        edges = set(product(range(nl), range(nr)))
        plan = feasible_transport(make_instance(supply, demand, edges))
        cols = conditional_columns(plan)
        recon = np.array(list(supply.values())) @ cols
        assert np.max(np.abs(recon - list(demand.values()))) < 1e-8
