from itertools import combinations, product

import numpy as np
import pytest
import scipy.optimize

from chansim import transport
from chansim.transport import (
    HallViolator,
    TransportInstance,
    TransportPlan,
    conditional_columns,
    feasible_transport,
)
from chansim.errors import DimensionMismatch, NotFinite, UnbalancedInstance, ZeroSupplyNode


def make_instance(supply, demand, edges):
    """Index-array stack of one for label-keyed supplies, demands and edges:
    left and right nodes are numbered in the order of the two dicts."""
    lefts, rights = list(supply), list(demand)
    adjacent = np.zeros((len(lefts), len(rights)), dtype=bool)
    for u, v in edges:
        adjacent[lefts.index(u), rights.index(v)] = True
    return TransportInstance(
        supply=np.array([list(supply.values())], dtype=float),
        demand=np.array([list(demand.values())], dtype=float),
        adjacent=adjacent,
    )


def solve(supply, demand, edges):
    """The one result of a label-keyed instance."""
    (result,) = feasible_transport(make_instance(supply, demand, edges))
    return result


def solve_one(supply, demand, adjacent):
    """The one result of the stack of one over (L,) supplies, (R,) demands
    and an (L, R) edge mask."""
    (result,) = feasible_transport(TransportInstance(supply[None], demand[None], adjacent))
    return result


def right_labels(violator, demand):
    """The violator's right set as labels of ``demand``."""
    rights = list(demand)
    return frozenset(rights[v] for v in violator.right_set)


def reachable_supply(supply, edges, subset):
    """Most the left side can send into a right subset: the supply of the
    left nodes with an edge into it."""
    return sum(supply[u] for u in {u for u, v in edges if v in subset})


def hall_feasible(supply, demand, edges):
    """Brute-force oracle: check every right subset's demand against what
    the left side can send into it."""
    rights = list(demand)
    for r in range(1, len(rights) + 1):
        for subset in combinations(rights, r):
            t_demand = sum(demand[v] for v in subset)
            if t_demand > reachable_supply(supply, edges, subset) + 1e-8:
                return False
    return True


def lp_feasible(supply, demand, edges):
    """Second oracle: transportation feasibility as a plain LP."""
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
        bounds=(0, None),
    )
    return res.status == 0


def check_plan(plan, supply, demand, edges, tol=1e-8):
    lefts, rights = list(supply), list(demand)
    flow = plan.flow
    assert flow.shape == (len(lefts), len(rights))
    assert np.all(flow >= 0.0)
    on_edge = np.zeros(flow.shape, dtype=bool)
    for u, v in edges:
        on_edge[lefts.index(u), rights.index(v)] = True
    assert np.all(flow[~on_edge] == 0.0)
    assert np.max(np.abs(flow.sum(axis=1) - list(supply.values()))) < tol
    assert np.max(np.abs(flow.sum(axis=0) - list(demand.values()))) < tol


def test_complete_graph_feasible():
    supply = {0: 0.2, 1: 0.8}
    demand = {"a": 0.5, "b": 0.5}
    edges = set(product(supply, demand))
    plan = solve(supply, demand, edges)
    assert isinstance(plan, TransportPlan)
    check_plan(plan, supply, demand, edges)


def test_diagonal_violator():
    supply = {1: 0.7, 2: 0.3}
    demand = {1: 0.5, 2: 0.5}
    edges = {(1, 1), (2, 2)}
    result = solve(supply, demand, edges)
    assert isinstance(result, HallViolator)
    assert right_labels(result, demand) == frozenset({2})
    assert result.deficit > 1e-8


def test_unbalanced_rejected():
    with pytest.raises(UnbalancedInstance):
        make_instance({0: 1.0}, {0: 0.5}, {(0, 0)})


def test_malformed_arrays_rejected():
    with pytest.raises(DimensionMismatch):
        TransportInstance(np.ones((1, 2)) / 2, np.ones((1, 1)), np.ones((1, 2), dtype=bool))
    with pytest.raises(NotFinite):
        TransportInstance(np.array([[np.nan]]), np.ones((1, 1)), np.ones((1, 1), dtype=bool))


def test_the_edges_are_one_boolean_mask_of_the_node_shape():
    supply, demand = np.full((2, 3), 1.0 / 3), np.full((2, 2), 0.5)
    adjacent = np.array([[True, False], [True, True], [False, True]])
    inst = TransportInstance(supply, demand, adjacent)
    assert len(inst.edges) == adjacent.sum()
    for edges in (
        np.where(adjacent, np.inf, 0.0),  # a capacity matrix
        adjacent.T,
        np.stack([adjacent] * 2),  # one mask per instance
    ):
        with pytest.raises(DimensionMismatch):
            TransportInstance(supply, demand, edges)
    # a single instance is a stack of one, not (L,) and (R,) vectors
    with pytest.raises(DimensionMismatch):
        TransportInstance(supply[0], demand[0], adjacent)


def test_a_stack_of_no_instances_has_no_results():
    nothing = TransportInstance(np.zeros((0, 3)), np.zeros((0, 2)), np.ones((3, 2), dtype=bool))
    assert feasible_transport(nothing) == ()


def test_conditional_single_left_node():
    supply = {0: 1.0}
    demand = {"a": 0.25, "b": 0.75}
    edges = {(0, "a"), (0, "b")}
    plan = solve(supply, demand, edges)
    cols = conditional_columns(plan)
    assert cols[0] == pytest.approx([0.25, 0.75])


def test_conditional_symmetric_uniform():
    supply = {0: 0.5, 1: 0.5}
    demand = {0: 0.5, 1: 0.5}
    edges = set(product(supply, demand))
    plan = solve(supply, demand, edges)
    cols = conditional_columns(plan)
    assert np.array(list(supply.values())) @ cols == pytest.approx(list(demand.values()))


def test_conditional_zero_supply_rejected():
    supply = {0: 1.0, 1: 0.0}
    demand = {"a": 1.0}
    plan = solve(supply, demand, {(0, "a")})
    with pytest.raises(ZeroSupplyNode):
        conditional_columns(plan)


@pytest.fixture
def level_calls(monkeypatch):
    """What each transport._levels call returned, in call order."""
    calls = []
    levels = transport._levels

    def counted(*args):
        calls.append(levels(*args))
        return calls[-1]

    monkeypatch.setattr(transport, "_levels", counted)
    return calls


def test_random_instances_match_hall_oracle(rng, level_calls):
    # every solve takes at most min(L, R) + 1 BFS levelings: one per Dinic
    # phase and the last, which finds the sink unreachable
    for trial in range(260):
        if trial < 200:
            nl = int(rng.integers(1, 7))
            nr = int(rng.integers(1, 7))
            edges = {(i, j) for i in range(nl) for j in range(nr) if rng.random() < 0.55}
        else:
            # the complete k x k graph without its diagonal, as in reduce_rows
            nl = nr = int(rng.integers(2, 8))
            edges = {(i, j) for i in range(nl) for j in range(nr) if i != j}
        supply = {i: float(w) for i, w in enumerate(rng.dirichlet(np.ones(nl)))}
        demand = {j: float(w) for j, w in enumerate(rng.dirichlet(np.ones(nr)))}
        level_calls.clear()
        result = solve(supply, demand, edges)
        assert len(level_calls) <= min(nl, nr) + 1
        oracle = hall_feasible(supply, demand, edges)
        if trial % 5 < 2:
            assert oracle == lp_feasible(supply, demand, edges)
        if isinstance(result, TransportPlan):
            assert oracle
            check_plan(result, supply, demand, edges)
        else:
            assert not oracle
            assert result.deficit > 1e-8
            right_set = right_labels(result, demand)
            recomputed = sum(demand[v] for v in right_set) - reachable_supply(
                supply, edges, right_set
            )
            assert recomputed == pytest.approx(result.deficit)


def test_staircase_leaves_one_augmenting_path_through_every_right_node(level_calls):
    # right v < m - 1 is met by left v + 1 and right m - 1 by left 0 only,
    # but the greedy start hands right v its decoy edge to left v, which
    # has no room in the right nodes after v (left 0 ties with left 1 and
    # comes first). That leaves left m - 1 with its supply and right m - 1
    # unmet, joined by the single augmenting path m-1 -> m-2 -> ... -> 0 ->
    # m-1 over all m right nodes, which one Dinic phase pushes back
    m = 60
    adjacent = np.zeros((m, m), dtype=bool)
    adjacent[np.arange(1, m), np.arange(m - 1)] = True  # left v + 1 -> right v
    adjacent[np.arange(m - 1), np.arange(m - 1)] = True  # decoys
    adjacent[0, m - 1] = True
    supply = demand = np.full(m, 1.0 / m)
    plan = solve_one(supply, demand, adjacent)
    expected = np.zeros((m, m))
    expected[np.arange(1, m), np.arange(m - 1)] = 1.0 / m
    expected[0, m - 1] = 1.0 / m
    assert isinstance(plan, TransportPlan)
    assert np.array_equal(plan.flow, expected)
    # one phase, whose path reaches the sink at level 2m + 1; it meets every
    # demand, so no closing BFS is needed
    assert len(level_calls) == 1
    assert level_calls[0][2] == 2 * m + 1

    # move right 0's demand onto right m - 1, which only left 0 reaches
    raised = demand.copy()
    raised[m - 1], raised[0] = 2.0 / m, 0.0
    result = solve_one(supply, raised, adjacent)
    assert isinstance(result, HallViolator)
    assert result.right_set == frozenset({m - 1})
    assert result.demand == pytest.approx(2.0 / m)
    assert result.neighborhood_supply == pytest.approx(1.0 / m)


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
        result = solve(supply, demand, edges)
        assert isinstance(result, TransportPlan)
        check_plan(result, supply, demand, edges)


def test_reconstruction_residual(rng):
    for _ in range(50):
        nl = int(rng.integers(1, 5))
        nr = int(rng.integers(1, 5))
        supply = {i: float(w) for i, w in enumerate(rng.dirichlet(np.ones(nl)))}
        demand = {j: float(w) for j, w in enumerate(rng.dirichlet(np.ones(nr)))}
        edges = set(product(range(nl), range(nr)))
        plan = solve(supply, demand, edges)
        cols = conditional_columns(plan)
        recon = np.array(list(supply.values())) @ cols
        assert np.max(np.abs(recon - list(demand.values()))) < 1e-8


def _same_result(got, alone, supply, demand, adjacent):
    """A stacked instance's result against its solve as a stack of one: the
    same violator, or a plan on the edges that meets its own supplies and
    demands within FEAS_TOL and lies within 1e-12 of the lone plan (a stack
    may sum an instance's gifts in another order)."""
    assert type(got) is type(alone)
    if isinstance(alone, TransportPlan):
        flow, tol = got.flow, transport.FEAS_TOL
        assert np.all(flow >= 0.0) and np.all(flow[~adjacent] == 0.0)
        assert np.max(np.abs(flow.sum(axis=1) - supply)) <= tol
        assert np.max(np.abs(flow.sum(axis=0) - demand)) <= tol
        assert np.max(np.abs(flow - alone.flow)) <= 1e-12
    else:
        assert got == alone


def _random_stack(rng, b, nl, nr, same):
    """b instances on nl x nr nodes: random demands and random supplies,
    all on one supply row when ``same`` and about half of them otherwise,
    over one random edge mask, so that some instances need Dinic and some
    are infeasible."""
    supply = rng.dirichlet(np.ones(nl), size=b)
    supply[(rng.random(b) < 0.5) | same] = supply[0]
    demand = rng.dirichlet(np.ones(nr), size=b)
    return supply, demand, rng.random((nl, nr)) < 0.6


def test_stacks_match_their_stacks_of_one(rng, level_calls):
    # up to 8 instances of up to 12 left nodes: each instance's greedy
    # start takes only its own left nodes, so every violator is the one it
    # gets when solved alone, and every flow the same up to round-off,
    # Dinic or not
    dinic_stacks = infeasible = feasible = 0
    for trial in range(240):
        b, nl, nr = int(rng.integers(1, 9)), int(rng.integers(1, 13)), int(rng.integers(1, 7))
        # one supply row for all, as for the columns of a simulation, in
        # every fourth trial
        supply, demand, adjacent = _random_stack(rng, b, nl, nr, trial % 4 == 0)
        level_calls.clear()
        results = feasible_transport(TransportInstance(supply, demand, adjacent))
        dinic_stacks += bool(level_calls)
        assert isinstance(results, tuple) and len(results) == b
        for i, got in enumerate(results):
            alone = solve_one(supply[i], demand[i], adjacent)
            _same_result(got, alone, supply[i], demand[i], adjacent)
            infeasible += isinstance(got, HallViolator)
            feasible += isinstance(got, TransportPlan)
    assert dinic_stacks >= 20 and infeasible >= 20 and feasible >= 20


def test_staircase_in_a_stack_runs_dinic_and_matches_its_solve_alone(level_calls):
    # the staircase of the test above needs one Dinic phase after the greedy
    # start; next to it in a stack, an instance on the same graph whose
    # demands the greedy start meets alone
    m = 12
    adjacent = np.zeros((m, m), dtype=bool)
    adjacent[np.arange(1, m), np.arange(m - 1)] = True
    adjacent[np.arange(m - 1), np.arange(m - 1)] = True
    adjacent[0, m - 1] = True
    uniform = np.full(m, 1.0 / m)
    easy = np.r_[2.0 / m, np.full(m - 2, 1.0 / m), 0.0]
    supply, demand = np.stack([uniform, uniform]), np.stack([easy, uniform])
    results = feasible_transport(TransportInstance(supply, demand, adjacent))
    assert len(level_calls) == 1  # only the staircase runs a phase
    level_calls.clear()
    for i in range(2):
        alone = solve_one(supply[i], demand[i], adjacent)
        _same_result(results[i], alone, supply[i], demand[i], adjacent)
    assert len(level_calls) == 1


def test_an_infeasible_instance_in_a_stack_keeps_its_own_violator():
    # the diagonal violator of test_diagonal_violator between two feasible
    # instances on the same graph
    adjacent = np.eye(2, dtype=bool)
    supply = np.array([[0.5, 0.5], [0.7, 0.3], [0.4, 0.6]])
    demand = np.array([[0.5, 0.5], [0.5, 0.5], [0.4, 0.6]])
    first, middle, last = feasible_transport(TransportInstance(supply, demand, adjacent))
    assert isinstance(first, TransportPlan) and isinstance(last, TransportPlan)
    alone = solve_one(supply[1], demand[1], adjacent)
    assert isinstance(middle, HallViolator) and middle == alone
    assert middle.right_set == frozenset({1})


def test_a_stack_is_validated_as_a_whole():
    supply, demand = np.full((3, 2), 0.5), np.full((3, 2), 0.5)
    adjacent = np.ones((2, 2), dtype=bool)
    TransportInstance(supply, demand, adjacent)
    bad = supply.copy()
    bad[1, 0] = np.nan
    with pytest.raises(NotFinite):
        TransportInstance(bad, demand, adjacent)
    bad[1] = [1.5, -0.5]
    with pytest.raises(UnbalancedInstance, match="negative supply"):
        TransportInstance(bad, demand, adjacent)
    bad[1] = [0.5, 0.6]
    with pytest.raises(UnbalancedInstance, match="instance 1: supply"):
        TransportInstance(bad, demand, adjacent)
    with pytest.raises(DimensionMismatch):
        TransportInstance(supply, demand[:2], adjacent)


def test_stacked_edges_and_conditional_columns():
    adjacent = np.array([[True, False], [True, True]])
    supply, demand = np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[0.5, 0.5], [0.75, 0.25]])
    assert TransportInstance(supply, demand, adjacent).edges.tolist() == [[0, 0], [1, 0], [1, 1]]
    plans = feasible_transport(TransportInstance(supply, demand, adjacent))
    stacked = conditional_columns(TransportPlan(flow=np.stack([p.flow for p in plans])))
    for plan, columns in zip(plans, stacked):
        assert np.array_equal(columns, conditional_columns(plan))
    # no left nodes: every instance with no demand is feasible
    no_left = TransportInstance(np.zeros((2, 0)), np.zeros((2, 3)), np.zeros((0, 3), dtype=bool))
    nothing = feasible_transport(no_left)
    assert [p.flow.shape for p in nothing] == [(0, 3), (0, 3)]
    empty = TransportPlan(flow=np.array([[[1.0, 0.0]], [[0.0, 0.0]]]))
    with pytest.raises(ZeroSupplyNode, match="instance 1: left node 0"):
        conditional_columns(empty)
