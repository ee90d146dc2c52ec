import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
import scipy.optimize

from chansim import majorize
from chansim.errors import BadRange, LengthMismatch, NotDoublyStochastic, NotMajorized
from chansim.channels import Permutohedron
from conftest import oracle_satisfies_noise, random_point_in_permutohedron


def random_doubly_stochastic(rng, n, terms=6):
    w = rng.dirichlet(np.ones(terms))
    d = np.zeros((n, n))
    for t in range(terms):
        perm = rng.permutation(n)
        d[np.arange(n), perm] += w[t]
    return d


def lp_birkhoff_oracle(d):
    """Brute-force oracle: decompose via an LP over all permutation matrices."""
    n = d.shape[0]
    perms = list(permutations(range(n)))
    a = np.zeros((n * n + 1, len(perms)))
    for t, perm in enumerate(perms):
        p = np.zeros((n, n))
        p[np.arange(n), perm] = 1.0
        a[: n * n, t] = p.ravel()
    a[-1, :] = 1.0
    b = np.concatenate([d.ravel(), [1.0]])
    res = scipy.optimize.linprog(
        c=np.zeros(len(perms)), A_eq=a, b_eq=b, bounds=[(0, None)] * len(perms)
    )
    if not res.success:
        return None
    recon = np.zeros((n, n))
    for t, perm in enumerate(perms):
        recon[np.arange(n), perm] += res.x[t]
    return recon


def test_majorized_trivials():
    x = np.array([0.2, 0.3, 0.5])
    assert majorize.majorized_by_permutohedron(x, x)
    uniform = np.ones(3) / 3
    assert majorize.majorized_by_permutohedron(uniform, x)
    assert not majorize.majorized_by_permutohedron(
        np.array([1.0, 0.0, 0.0]), uniform
    )


def test_majorized_length_mismatch():
    with pytest.raises(LengthMismatch):
        majorize.majorized_by_permutohedron(np.ones(2) / 2, np.ones(3) / 3)


def test_majorized_over_last_axis_matches_the_oracle(rng):
    bases = rng.dirichlet(np.ones(4), size=3)
    specs = [Permutohedron(base=tuple(b)) for b in bases]
    x = rng.dirichlet(np.ones(4) * 0.5, size=(6, 3))
    x[:3] = [[random_point_in_permutohedron(rng, b) for b in bases] for _ in range(3)]
    verdicts = majorize.majorized_by_permutohedron(x, bases)
    assert verdicts.shape == (6, 3)
    for t, j in np.ndindex(6, 3):
        assert verdicts[t, j] == oracle_satisfies_noise(x[t, j], specs[j])
    assert verdicts[:3].all() and not verdicts[3:].all()
    # one base broadcast over every vector
    alone = majorize.majorized_by_permutohedron(x, bases[0])
    assert alone.tolist() == [[oracle_satisfies_noise(v, specs[0]) for v in row] for row in x]


def test_hlp_identity_single_term():
    mu = np.array([0.1, 0.6, 0.3])
    mix = majorize.hlp_decompose(mu, mu)
    assert len(mix.terms) == 1
    w, perm = mix.terms[0]
    assert w == pytest.approx(1.0)
    assert perm == (0, 1, 2)


def test_hlp_uniform_from_skewed():
    mu = np.ones(3) / 3
    nu = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    mix = majorize.hlp_decompose(mu, nu)
    assert np.max(np.abs(mix.apply(nu) - mu)) < 1e-10
    assert abs(mix.total_weight() - 1.0) < 1e-9


def test_hlp_random_interior_points(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        nu = rng.dirichlet(np.ones(n))
        terms = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(terms))
        mu = np.zeros(n)
        for t in range(terms):
            mu += w[t] * rng.permutation(nu)
        mix = majorize.hlp_decompose(mu, nu)
        assert np.max(np.abs(mix.apply(nu) - mu)) < 1e-8
        assert len(mix.terms) <= n
        assert all(wt >= 0 for wt, _ in mix.terms)
        assert abs(mix.total_weight() - 1.0) < 1e-9


def test_hlp_at_most_n_terms_recompose_exactly(rng):
    # the permuted vectors nu[perm] lie in an (n-1)-dimensional affine
    # space, so Carathéodory keeps at most n of the Birkhoff terms
    for trial in range(60):
        n = int(rng.integers(2, 21))
        if trial % 3 == 0:  # ties and zeros, as in the noisy-to-noiseless path
            nu = majorize.max_subset_distribution(n, int(rng.integers(1, n + 1)))
        else:
            nu = rng.dirichlet(np.ones(n))
        w = rng.dirichlet(np.ones(int(rng.integers(1, 3 * n))))
        mu = sum(wt * rng.permutation(nu) for wt in w)
        mix = majorize.hlp_decompose(mu, nu)
        assert len(mix.terms) <= n
        assert all(wt > 0 for wt, _ in mix.terms)
        assert abs(mix.total_weight() - 1.0) <= 1e-12
        assert np.max(np.abs(mix.apply(nu) - mu)) <= 1e-12


def test_hlp_not_majorized():
    with pytest.raises(NotMajorized):
        majorize.hlp_decompose(np.array([1.0, 0.0]), np.array([0.5, 0.5]))


def test_birkhoff_permutation_is_fixed_point():
    p = np.zeros((3, 3))
    p[[0, 1, 2], [2, 0, 1]] = 1.0
    mix = majorize.birkhoff(p)
    assert len(mix.terms) == 1
    assert mix.terms[0][0] == pytest.approx(1.0)
    assert np.allclose(mix.matrix(3), p)


def test_birkhoff_half_half():
    d = np.ones((2, 2)) / 2
    mix = majorize.birkhoff(d)
    assert len(mix.terms) == 2
    assert sorted(w for w, _ in mix.terms) == pytest.approx([0.5, 0.5])


def test_birkhoff_random_reconstruction(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = random_doubly_stochastic(rng, n, terms=int(rng.integers(2, 8)))
        mix = majorize.birkhoff(d)
        assert np.max(np.abs(mix.matrix(n) - d)) < 1e-8
        assert len(mix.terms) <= (n - 1) ** 2 + 1


def test_birkhoff_terms_are_linearly_independent(rng):
    # the reason no Carathéodory pruning is needed: every greedy term
    # zeroes an entry that no later term uses
    for _ in range(50):
        n = int(rng.integers(2, 8))
        d = rng.random((n, n)) ** 2
        for _ in range(2000):
            d /= d.sum(axis=0)
            d /= d.sum(axis=1, keepdims=True)
        mix = majorize.birkhoff(d)
        perms = np.zeros((len(mix.terms), n, n))
        for t, (_, perm) in enumerate(mix.terms):
            perms[t, np.arange(n), perm] = 1.0
        assert np.linalg.matrix_rank(perms.reshape(len(perms), -1)) == len(mix.terms)


def test_birkhoff_not_doubly_stochastic():
    with pytest.raises(NotDoublyStochastic):
        majorize.birkhoff(np.array([[0.9, 0.0], [0.1, 1.0]]))


def test_birkhoff_agrees_with_lp_oracle(rng):
    for _ in range(20):
        d = random_doubly_stochastic(rng, 3, terms=4)
        mix = majorize.birkhoff(d)
        oracle = lp_birkhoff_oracle(d)
        assert oracle is not None
        assert np.max(np.abs(mix.matrix(3) - d)) < 1e-8
        assert np.max(np.abs(oracle - d)) < 1e-6


def test_max_subset_distribution_values():
    assert np.allclose(
        majorize.max_subset_distribution(3, 2), [0.0, 1.0 / 3.0, 2.0 / 3.0]
    )
    assert np.allclose(majorize.max_subset_distribution(4, 4), [0, 0, 0, 1])
    assert np.allclose(majorize.max_subset_distribution(5, 1), np.ones(5) / 5)


def test_max_subset_distribution_prefix_sums_exact():
    for n in range(1, 7):
        for d in range(1, n + 1):
            nu = majorize.max_subset_distribution(n, d)
            prefix = np.cumsum(nu)
            for r in range(1, n + 1):
                want = Fraction(math.comb(r, d), math.comb(n, d))
                assert prefix[r - 1] == pytest.approx(float(want), abs=1e-15)


def test_max_subset_distribution_bad_range():
    with pytest.raises(BadRange):
        majorize.max_subset_distribution(3, 0)
    with pytest.raises(BadRange):
        majorize.max_subset_distribution(3, 4)


def _point_set(rng, kind, t, dim):
    if kind == "random":
        return rng.normal(size=(t, dim))
    if kind == "duplicated":
        distinct = rng.normal(size=(max(1, t // 7), dim))
        return distinct[rng.integers(0, len(distinct), size=t)]
    # rank-deficient: an affine image of a 2-dimensional set
    return rng.normal(size=(t, 2)) @ rng.normal(size=(2, dim)) + rng.normal(size=dim)


@pytest.mark.parametrize("kind", ["random", "duplicated", "rank-deficient"])
@pytest.mark.parametrize("t", [1, 2, 5, 13, 60, 400, 3000])
def test_caratheodory_keeps_the_point_with_affine_rank_plus_one_terms(rng, kind, t):
    dim = 5
    points = _point_set(rng, kind, t, dim)
    weights = rng.dirichlet(np.ones(t))
    weights[rng.integers(0, t, size=t // 4)] = 0.0  # zero weights are dropped
    weights /= weights.sum()
    index, kept = majorize.caratheodory(weights, points)
    assert np.all(np.diff(index) > 0)
    assert np.all(kept >= 0.0)
    assert abs(kept.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(kept @ points[index] - weights @ points)) <= 1e-12
    assert len(index) <= np.linalg.matrix_rank(np.vstack([points.T, np.ones(t)]))
    again_index, again_kept = majorize.caratheodory(weights, points)
    assert np.array_equal(again_index, index) and np.array_equal(again_kept, kept)


def test_caratheodory_reaches_the_bound_on_protocol_like_points(rng):
    # column-stochastic 4 x 3 matrices span an affine space of dimension
    # 3 * (4 - 1) = 9, so at most 10 of 500 survive
    points = rng.dirichlet(np.ones(4), size=(500, 3)).transpose(0, 2, 1).reshape(500, -1)
    weights = np.full(500, 1.0 / 500)
    index, kept = majorize.caratheodory(weights, points)
    assert len(index) <= 10
    assert np.max(np.abs(kept @ points[index] - weights @ points)) <= 1e-12


@pytest.mark.parametrize("spread", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("t", [60, 3000])
def test_caratheodory_on_near_degenerate_protocols(rng, spread, t):
    # 4 x 3 protocols that stay within `spread` of six distinct ones, with
    # weights over 14 decades: the null directions they add are real, so a
    # rank cut-off far above round-off would walk along non-null vectors
    base = rng.dirichlet(np.ones(4), size=(6, 3))
    mats = base[rng.integers(0, 6, size=t)] + spread * rng.dirichlet(np.ones(4), size=(t, 3))
    mats /= mats.sum(axis=2, keepdims=True)
    points = mats.transpose(0, 2, 1).reshape(t, -1)
    weights = 10.0 ** rng.uniform(-14, 0, size=t)
    weights /= weights.sum()
    index, kept = majorize.caratheodory(weights, points)
    assert len(index) <= 3 * (4 - 1) + 1
    assert np.all(kept >= 0.0)
    assert abs(kept.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(kept @ points[index] - weights @ points)) <= 1e-12


def test_caratheodory_with_more_ties_than_null_vectors():
    # equal weights on repeated points: one step zeroes several weights at
    # once, the last of them after every null vector is used up
    points = np.array([[-1.0]] * 3 + [[0.0]] * 3 + [[-1.0]] * 5)
    weights = np.full(11, 1.0 / 11)
    index, kept = majorize.caratheodory(weights, points)
    assert len(index) <= 2
    assert np.all(kept > 0.0)
    assert abs(kept.sum() - 1.0) <= 1e-15
    assert abs(kept @ points[index, 0] + 8.0 / 11) <= 1e-15


def test_caratheodory_lets_no_small_coefficient_skip_the_ratio_test():
    # c is the affine combination 0.3 v0 + 0.2 v1 + 0.2 v2 + 0.3 v3
    # + 1e-10 v4 - 1e-10 v5 of the simplex vertices v0 = 0, v1..v5 = e_i,
    # and v4, v5 weigh 1e-13: whichever way the one null vector points, a
    # 1e-10 coefficient blocks the step first; skipping it would drive its
    # weight below zero by about 4e-11, and dropping or clamping that weight
    # would lose or add the mass
    vertices = np.vstack([np.zeros(5), np.eye(5)])
    lam = np.array([0.3, 0.2, 0.2, 0.3, 1e-10, -1e-10])
    points = np.vstack([vertices, lam @ vertices])
    weights = np.array([0.125, 0.125, 0.125, 0.125, 1e-13, 1e-13, 0.5])
    index, kept = majorize.caratheodory(weights, points)
    assert len(index) == 6
    assert np.all(kept >= 0.0)
    assert abs(kept.sum() - weights.sum()) <= 1e-15
    assert np.max(np.abs(kept @ points[index] - weights @ points)) <= 1e-15


def test_caratheodory_on_the_candidate_protocols_of_a_noiseless_simulation(
    bench_workloads, monkeypatch
):
    # the candidate protocols of a (6, 8, 3) simulation, weighted and
    # flattened as the certificate builder hands them over; a tableau that
    # ignored small negative coefficients and clamped the weights they
    # drove negative missed their weighted sum by 7.8e-2 on the 1716
    # multiset-class protocols of the noiseless instance, which now takes
    # the min-norm route and needs no reduction, so the instance is moved
    # into the delta = 1/2 set, whose support route still hands over more
    # than 3 * (8 - 1) + 1 candidates
    from fractions import Fraction

    from chansim import jsonio, simulate
    from chansim.channels import Delta

    calls = []

    def record(weights, points):
        calls.append((weights, points))
        return np.arange(len(weights)), weights

    monkeypatch.setattr(simulate, "caratheodory", record)
    inst = bench_workloads._quantum_instance(np.random.default_rng([6, 6, 8]), 6, 8, 3, "delta:1/2")
    povm, states = jsonio.quantum_instance_from_json(inst.payload)
    simulate.simulate_quantum_noisy(povm, states, Delta(Fraction(1, 2)))
    ((weights, points),) = calls
    assert len(weights) > 3 * (8 - 1) + 1
    index, kept = majorize.caratheodory(weights, points)
    assert len(index) <= 3 * (8 - 1) + 1
    assert np.all(kept >= 0.0)
    assert abs(kept.sum() - weights.sum()) <= 1e-12
    assert np.max(np.abs(kept @ points[index] - weights @ points)) <= 1e-12
