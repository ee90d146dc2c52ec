from itertools import combinations

import numpy as np
import pytest
import scipy.optimize

from chansim import lp
from chansim.errors import LpInfeasible
from chansim.lp import EQ, LE, LinearProgram, Optimal, Unbounded, solve


def vertex_enumeration_feasible(program, tol=1e-9):
    """Brute-force oracle: enumerate basic points from constraint intersections.

    Sound for bounded systems (the generators below always include box
    bounds, so a nonempty region has a vertex).
    """
    n = program.num_vars
    rows = program.constraints
    candidates = []
    for subset in combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in subset])
        b = np.array([rows[i][2] for i in subset])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        candidates.append(np.linalg.solve(a, b))
    for x in candidates:
        gaps = [(row @ x - rhs, rel) for row, rel, rhs in rows]
        if all(gap <= tol if rel == LE else abs(gap) <= tol for gap, rel in gaps):
            return True
    return False


def random_box_program(rng, n_vars, n_rows):
    """Box bounds |x_v| <= 3 plus random rows, one in ten an equality."""
    program = LinearProgram(num_vars=n_vars)
    for e in np.eye(n_vars):
        program.add(e, LE, 3.0)
        program.add(-e, LE, 3.0)
    for _ in range(n_rows):
        rel = EQ if rng.random() < 0.1 else LE
        program.add(rng.normal(size=n_vars), rel, float(rng.normal()))
    return program


def solve_or_none(program):
    """``solve``, with None for a program that has no feasible point."""
    try:
        return solve(program)
    except LpInfeasible:
        return None


def scipy_rows(program):
    """The rows of a program as linprog's A_ub, b_ub, A_eq and b_eq."""
    rows = {}
    for name, rel in (("ub", LE), ("eq", EQ)):
        picked = [(row, rhs) for row, r, rhs in program.constraints if r == rel]
        rows[f"A_{name}"] = np.array([row for row, _ in picked]) if picked else None
        rows[f"b_{name}"] = np.array([rhs for _, rhs in picked]) if picked else None
    return rows


def test_simple_maximum():
    program = LinearProgram(num_vars=1, objective=np.array([1.0]))
    program.add(np.array([1.0]), LE, 3.0)
    result = solve(program)
    assert isinstance(result, Optimal)
    assert result.x[0] == pytest.approx(3.0)
    assert result.value == pytest.approx(3.0)
    with pytest.raises(ValueError, match="unknown relation"):
        program.add(np.array([1.0]), ">=", 0.0)


def test_one_dim_infeasible_raises():
    program = LinearProgram(num_vars=1)
    program.add(np.array([-1.0]), LE, -1.0)
    program.add(np.array([1.0]), LE, 0.0)
    with pytest.raises(LpInfeasible):
        solve(program)


def test_unbounded():
    program = LinearProgram(num_vars=2, objective=np.array([1.0, 0.0]))
    # without rows, the tableau has no row to bound the free variable
    assert solve(program) == Unbounded()
    program.add(np.array([0.0, 1.0]), LE, 1.0)
    program.add(np.array([0.0, -1.0]), LE, 0.0)
    program.add(np.array([-1.0, 0.0]), LE, 0.0)
    assert solve(program) == Unbounded()


def test_feasibility_only_returns_point():
    # no objective is c = 0, so every feasible point is optimal, and without
    # rows that point is the origin
    result = solve(LinearProgram(num_vars=2))
    assert isinstance(result, Optimal)
    assert np.array_equal(result.x, np.zeros(2)) and result.value == 0.0
    program = LinearProgram(num_vars=2, nonneg=True)
    program.add(np.array([1.0, 1.0]), EQ, 1.0)
    result = solve(program)
    assert isinstance(result, Optimal) and result.value == 0.0
    assert lp.residuals(program, result.x) < 1e-8


def test_equality_system():
    program = LinearProgram(num_vars=2, objective=np.array([1.0, 2.0]))
    program.add(np.array([1.0, 1.0]), EQ, 1.0)
    program.add(np.array([1.0, -1.0]), EQ, 0.0)
    result = solve(program)
    assert isinstance(result, Optimal)
    assert np.allclose(result.x, [0.5, 0.5], atol=1e-9)


def test_nonneg_flags_respected():
    # no rows: max -x1 - x2 over x >= 0 is at the origin
    program = LinearProgram(num_vars=2, objective=np.array([-1.0, -1.0]), nonneg=True)
    result = solve(program)
    assert isinstance(result, Optimal)
    assert np.array_equal(result.x, np.zeros(2)) and result.value == 0.0


def test_random_feasibility_matches_vertex_oracle(rng):
    for _ in range(120):
        n_vars = int(rng.integers(2, 4))
        program = random_box_program(rng, n_vars, int(rng.integers(1, 5)))
        result = solve_or_none(program)
        assert vertex_enumeration_feasible(program) == (result is not None)
        if result is not None:
            assert isinstance(result, Optimal)
            assert lp.residuals(program, result.x) < 1e-8


def test_random_optimization_matches_scipy(rng):
    for _ in range(40):
        n_vars = int(rng.integers(2, 9))
        program = random_box_program(rng, n_vars, int(rng.integers(1, 8)))
        c = rng.normal(size=n_vars)
        program.objective = c
        result = solve_or_none(program)
        # linprog minimizes, so it gets -c
        ref = scipy.optimize.linprog(-c, **scipy_rows(program), bounds=[(None, None)] * n_vars)
        if result is None:
            assert ref.status == 2
        else:
            assert ref.status == 0
            assert isinstance(result, Optimal)
            assert result.value == pytest.approx(-ref.fun, abs=1e-6)


def test_larger_feasibility_systems_against_scipy(rng):
    for _ in range(10):
        n_vars = 30
        program = LinearProgram(num_vars=n_vars, nonneg=True)
        for _ in range(12):
            row = np.clip(rng.normal(size=n_vars), 0, None)
            program.add(row, LE, float(rng.uniform(0.5, 2.0)))
        for _ in range(3):
            row = rng.uniform(0.1, 1.0, size=n_vars)
            program.add(row, EQ, float(rng.uniform(0.5, 1.5)))
        result = solve_or_none(program)
        ref = scipy.optimize.linprog(
            np.zeros(n_vars), **scipy_rows(program), bounds=[(0, None)] * n_vars
        )
        if result is None:
            assert ref.status == 2
        else:
            assert ref.status == 0
            assert lp.residuals(program, result.x) < 1e-8


def test_determinism(rng):
    program = random_box_program(rng, 3, 4)
    program.objective = np.array([1.0, -1.0, 0.5])
    first = solve_or_none(program)
    second = solve_or_none(program)
    assert type(first) is type(second)
    if isinstance(first, Optimal):
        assert np.array_equal(first.x, second.x)


def random_program_through_a_point(rng, n_vars, n_rows, open_top):
    """Box bounds |x_v| <= 3, except that x_0 has no upper bound when
    ``open_top``, plus random rows through a point of the box: each an
    equality one time in five, else a <= row with a little room. Many
    right-hand sides are negative, so phase 1 runs."""
    program = LinearProgram(num_vars=n_vars)
    for v, e in enumerate(np.eye(n_vars)):
        if not (open_top and v == 0):
            program.add(e, LE, 3.0)
        program.add(-e, LE, 3.0)
    point = rng.uniform(-2.0, 2.0, size=n_vars)
    for _ in range(n_rows):
        row = rng.normal(size=n_vars)
        if rng.random() < 0.2:
            program.add(row, EQ, float(row @ point))
        else:
            program.add(row, LE, float(row @ point + rng.uniform(0.0, 0.5)))
    return program


def test_maximize_each_matches_one_solve_per_objective_and_scipy(rng):
    statuses, phase_one = [], 0
    for trial in range(40):
        n_vars = int(rng.integers(2, 7))
        program = random_program_through_a_point(rng, n_vars, int(rng.integers(1, 7)), trial % 2)
        # e_0 first: unbounded whenever no row caps x_0, then bounded ones
        objectives = [np.eye(n_vars)[0], *rng.normal(size=(4, n_vars))]
        phase_one += any(rel == EQ or rhs < 0 for _, rel, rhs in program.constraints)
        results = lp.maximize_each(program, objectives)
        assert len(results) == len(objectives)
        for c, result in zip(objectives, results):
            program.objective = c
            alone = solve(program)
            ref = scipy.optimize.linprog(-c, **scipy_rows(program), bounds=[(None, None)] * n_vars)
            statuses.append(ref.status)
            if ref.status == 3:
                assert result == Unbounded() and alone == Unbounded()
                continue
            assert ref.status == 0
            assert isinstance(result, Optimal) and isinstance(alone, Optimal)
            assert result.value == pytest.approx(-ref.fun, abs=1e-6)
            assert result.value == pytest.approx(alone.value, abs=1e-9)
            assert lp.residuals(program, result.x) < 1e-8
    # most programs needed phase 1, and both kinds of result occurred, so an
    # optimum after an unbounded objective was checked
    assert phase_one >= 30 and 0 in statuses and 3 in statuses


def test_maximize_each_resumes_after_an_unbounded_objective():
    # x_0 >= 1 (a negative right-hand side) and x_0 + x_1 = 2 need phase 1
    program = LinearProgram(num_vars=2)
    program.add(np.array([-1.0, 0.0]), LE, -1.0)
    program.add(np.array([1.0, 1.0]), EQ, 2.0)
    first, second, third = lp.maximize_each(
        program, [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 1.0])]
    )
    assert first == Unbounded()
    assert isinstance(second, Optimal) and second.value == pytest.approx(-1.0)
    assert np.allclose(second.x, [1.0, 1.0])
    assert isinstance(third, Optimal) and third.value == pytest.approx(1.0)


def test_maximize_each_raises_once_when_infeasible():
    program = LinearProgram(num_vars=1)
    program.add(np.array([-1.0]), LE, -1.0)
    program.add(np.array([1.0]), LE, 0.0)
    with pytest.raises(LpInfeasible):
        lp.maximize_each(program, [np.array([1.0]), np.array([-1.0])])
