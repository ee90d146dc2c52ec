import math
from itertools import permutations

import numpy as np
import pytest

from chansim import mixdisc
from chansim.errors import DimensionMismatch, EnumerationCapExceeded, NegativeWeight
from conftest import (
    multiplicity,
    multiset_classes,
    random_hermitian,
    random_povm,
    random_unitary,
)


def permutation_expansion(mats) -> float:
    """Reference D(E_1, ..., E_n): the average over permutations pi of the
    determinant whose column t is column t of E_{pi(t)} (n! terms)."""
    n = len(mats)
    total = 0.0
    for perm in permutations(range(n)):
        total += np.linalg.det(np.stack([mats[perm[t]][:, t] for t in range(n)], axis=1))
    return float(total.real) / math.factorial(n)


def class_weights(dist) -> dict:
    """The class table as {sorted multiset: class total}."""
    return dict(zip(map(tuple, dist.classes.tolist()), dist.weights.tolist()))


def assert_class_totals(povm, dist, discriminant, tol):
    """Every class total of ``dist`` (zero for omitted classes) equals the
    number of orderings times ``discriminant`` of the class, within tol."""
    n, k = dist.n, dist.k
    assert (n, k) == (povm[0].shape[0], len(povm))
    weights = class_weights(dist)
    for ms in multiset_classes(k, n):
        expected = multiplicity(ms) * discriminant([povm[i] for i in ms])
        assert abs(weights.get(ms, 0.0) - expected) <= tol, ms



def subset_sum_lhs(lam: np.ndarray, r: int) -> float:
    """Direct combinatorial evaluation of the subset sum inequality's LHS."""
    n = len(lam)
    total = 0.0
    for mask in range(2**n):
        q = [m for m in range(n) if mask >> m & 1]
        weight = max(r - len(q), 0)
        if weight == 0:
            continue
        prod = 1.0
        for m in range(n):
            prod *= (1 - lam[m]) if m in q else lam[m]
        total += weight * prod
    return total


def test_defining_property_det(rng):
    for _ in range(20):
        e = random_hermitian(rng, 3)
        d = mixdisc.mixed_discriminant([e, e, e])
        assert abs(d - np.linalg.det(e).real) < 1e-9


def test_hand_expansion_two_by_two():
    e1 = np.diag([1.0, 0.0])
    e2 = np.diag([0.0, 1.0])
    assert mixdisc.mixed_discriminant([e1, e2]) == pytest.approx(0.5, abs=1e-12)


def test_psd_inputs_nonnegative(rng):
    for _ in range(50):
        mats = []
        for _ in range(3):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            mats.append(g @ g.conj().T / 3)
        assert mixdisc.mixed_discriminant(mats) >= -1e-10


def test_multilinearity(rng):
    for _ in range(20):
        a, b, c, d = (random_hermitian(rng, 3) for _ in range(4))
        alpha, beta = rng.normal(size=2)
        lhs = mixdisc.mixed_discriminant([alpha * a + beta * b, c, d])
        rhs = alpha * mixdisc.mixed_discriminant([a, c, d]) + beta * mixdisc.mixed_discriminant(
            [b, c, d]
        )
        assert abs(lhs - rhs) < 1e-8


def test_permutation_symmetry(rng):
    a, b, c = (random_hermitian(rng, 3) for _ in range(3))
    base = mixdisc.mixed_discriminant([a, b, c])
    assert abs(mixdisc.mixed_discriminant([c, a, b]) - base) < 1e-10
    assert abs(mixdisc.mixed_discriminant([b, c, a]) - base) < 1e-10


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mixdisc.mixed_discriminant([np.eye(3), np.eye(3)])


def test_outcome_distribution_projective():
    dist = mixdisc.outcome_distribution([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert class_weights(dist) == pytest.approx({(0, 1): 1.0})


def test_outcome_distribution_single_outcome():
    dist = mixdisc.outcome_distribution([np.eye(3)])
    assert class_weights(dist) == pytest.approx({(0, 0, 0): 1.0})


def test_outcome_distribution_mass_one(rng):
    for _ in range(10):
        povm = random_povm(rng, 3, 3)
        dist = mixdisc.outcome_distribution(povm)
        assert abs(dist.weights.sum() - 1.0) < 1e-9
        assert np.all(dist.weights > 0)


def test_outcome_distribution_cap():
    with pytest.raises(EnumerationCapExceeded):
        mixdisc.outcome_distribution([np.eye(4) / 4] * 4, cap=10)


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        mixdisc.distribution_from_class_values(
            2, 2, lambda classes: np.where((classes == [0, 1]).all(axis=1), -1.0, 1.0)
        )


def test_symmetric_mixed_identity_cases():
    assert mixdisc.symmetric_mixed(np.eye(3), 0, 3) == pytest.approx(1.0)
    assert mixdisc.symmetric_mixed(np.eye(3), 1, 3) == pytest.approx(0.0, abs=1e-12)
    assert mixdisc.symmetric_mixed(np.eye(3), 3, 3) == pytest.approx(0.0, abs=1e-12)


def test_symmetric_mixed_diagonal_matches_combinatorial_sum(rng):
    # On diagonal matrices the binomial-weighted symmetric values reproduce
    # the direct sum over subsets Q of prod lam * prod (1 - lam).
    for _ in range(10):
        n = 4
        lam = rng.uniform(0.0, 1.0, size=n)
        f = np.diag(lam)
        for r in range(1, n + 1):
            lhs = sum(
                (r - q) * math.comb(n, q) * mixdisc.symmetric_mixed(f, q, n)
                for q in range(0, r)
            )
            assert abs(lhs - subset_sum_lhs(lam, r)) < 1e-9


def test_subset_sum_inequality_scalars(rng):
    # weighted subset-product sums never exceed the smallest-r partial sum
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lam = rng.uniform(0.0, 1.0, size=n)
        lam_sorted = np.sort(lam)
        for r in range(1, n + 1):
            assert subset_sum_lhs(lam, r) <= lam_sorted[:r].sum() + 1e-8


def test_subset_sum_inequality_hermitian(rng):
    # Same inequality at matrix level, random Hermitian 0 <= E <= 1.
    for _ in range(50):
        n = int(rng.integers(2, 5))
        lam = rng.uniform(0.0, 1.0, size=n)
        u = random_unitary(rng, n)
        e = u @ np.diag(lam) @ u.conj().T
        spect = np.sort(lam)
        for r in range(1, n + 1):
            lhs = sum(
                (r - q) * math.comb(n, q) * mixdisc.symmetric_mixed(e, q, n)
                for q in range(0, r)
            )
            assert lhs <= spect[:r].sum() + 1e-8


def test_povm_combination_inequality(rng):
    # For a POVM and real weights u, the p_I-averaged smallest r-subset sums
    # of u are dominated by the ascending spectrum of sum u_i E_i.
    for _ in range(25):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        povm = random_povm(rng, n, k)
        u = rng.normal(size=k)
        dist = mixdisc.outcome_distribution(povm)
        spect = np.sort(np.linalg.eigvalsh(sum(ui * ei for ui, ei in zip(u, povm))))
        for r in range(1, n + 1):
            lhs = 0.0
            for key, p in zip(dist.classes, dist.weights):
                vals = sorted(u[i] for i in key)
                lhs += p * sum(vals[:r])
            assert lhs <= spect[:r].sum() + 1e-8


def test_class_weights_grouping(rng):
    # one entry per sorted multiset: the common tuple weight D(E_ms) times
    # the number of orderings of ms
    povm = random_povm(rng, 2, 3)
    dist = mixdisc.outcome_distribution(povm)
    for ms, total in class_weights(dist).items():
        assert ms == tuple(sorted(ms))
        value = mixdisc.mixed_discriminant([povm[i] for i in ms])
        assert total == pytest.approx(multiplicity(ms) * value)


def test_mixed_discriminant_matches_permutation_expansion(rng):
    for n in range(1, 6):
        mats = [random_hermitian(rng, n) for _ in range(n)]
        assert abs(mixdisc.mixed_discriminant(mats) - permutation_expansion(mats)) < 1e-12


def test_mixed_discriminant_of_copies_at_n_ten(rng):
    # 2^10 - 1 subset determinants, where an n!-term expansion takes 3.6e6
    e = random_unitary(rng, 10) @ np.diag(rng.uniform(0.5, 1.5, size=10))
    e = e @ e.conj().T
    det = np.linalg.det(e).real
    assert mixdisc.mixed_discriminant([e] * 10) == pytest.approx(det, rel=1e-9)


def test_grid_class_totals_match_permutation_expansion(rng):
    for n in range(1, 6):
        for k in range(1, 5):
            povm = random_povm(rng, n, k)
            dist = mixdisc.outcome_distribution(povm)
            assert abs(dist.weights.sum() - 1.0) < 1e-12
            assert_class_totals(povm, dist, permutation_expansion, 1e-12)


def test_per_class_route_for_large_k(rng, monkeypatch):
    # (n+1)^(k-1) grid points exceed C(n+k-1, n) 2^n determinants, so every
    # class is evaluated on its own; the grid must not be built
    def no_grid(stack):
        raise AssertionError("grid built for a large-k POVM")

    monkeypatch.setattr(mixdisc, "_grid_class_totals", no_grid)
    for n, k in [(3, 12), (2, 30)]:
        assert (n + 1) ** (k - 1) > math.comb(n + k - 1, n) * 2**n
        povm = random_povm(rng, n, k)
        dist = mixdisc.outcome_distribution(povm)
        assert abs(dist.weights.sum() - 1.0) < 1e-12
        assert_class_totals(povm, dist, permutation_expansion, 1e-12)


def test_grid_spanning_several_blocks(rng):
    n, k = 6, 6
    assert (n + 1) ** (k - 1) > 4 * mixdisc._BLOCK_POINTS
    povm = random_povm(rng, n, k)
    dist = mixdisc.outcome_distribution(povm)
    assert abs(dist.weights.sum() - 1.0) < 1e-12
    assert_class_totals(povm, dist, mixdisc.mixed_discriminant, 1e-12)


def test_single_outcome_is_exact():
    for n in range(1, 9):
        assert class_weights(mixdisc.outcome_distribution([np.eye(n)])) == {(0,) * n: 1.0}


def test_projective_povm_keeps_only_its_rank_class(rng):
    # a projective POVM puts all mass on the class with rank(P_i) copies
    # of outcome i; round-off of the other classes is floored to zero
    u = random_unitary(rng, 5)
    ranks = [2, 0, 1, 2]
    cuts = np.cumsum([0] + ranks)
    povm = [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(cuts[:-1], cuts[1:])]
    dist = mixdisc.outcome_distribution(povm)
    assert dist.classes.tolist() == [[0, 0, 2, 3, 3]]
    assert dist.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mixdisc.outcome_distribution([np.eye(2), np.eye(3)])


def assert_class_table(dist, value, tol=1e-12):
    """The class table's invariants: rows are sorted multisets in strictly
    increasing lex order, weights are positive and sum to 1, counts match
    the rows, and each weight (zero for an omitted class) is the number of
    orderings times ``value`` of the class, within tol."""
    rows = [tuple(row) for row in dist.classes.tolist()]
    assert dist.classes.shape == (len(dist.weights), dist.n)
    assert all(list(ms) == sorted(ms) for ms in rows)
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert np.all(dist.weights > 0) and abs(dist.weights.sum() - 1.0) < 1e-12
    assert dist.counts.tolist() == [[ms.count(i) for i in range(dist.k)] for ms in rows]
    weights = class_weights(dist)
    for ms in multiset_classes(dist.k, dist.n):
        assert abs(weights.get(ms, 0.0) - multiplicity(ms) * value(ms)) <= tol, ms


@pytest.mark.parametrize("n, k", [(1, 3), (3, 4), (4, 3), (2, 6), (3, 8)])
def test_class_table_matches_the_discriminant_oracle(rng, n, k):
    # (2, 6) and (3, 8) take the per-class route, the others the grid
    assert ((n + 1) ** (k - 1) > math.comb(n + k - 1, n) * 2**n) == (k >= 6)
    for _ in range(3):
        povm = random_povm(rng, n, k)
        dist = mixdisc.outcome_distribution(povm)
        assert_class_table(dist, lambda ms: mixdisc.mixed_discriminant([povm[i] for i in ms]))


@pytest.mark.parametrize("k, dim, norm_index", [(3, 2, 2), (4, 3, 4), (5, 2, 6)])
def test_class_table_matches_the_bracket_oracle(rng, monkeypatch, k, dim, norm_index):
    from chansim import simulate
    from chansim.channels import BallEffect, BallState, bracket
    from conftest import random_ball_effects, random_ball_states

    tables = []

    def keep(*args, **kwargs):
        tables.append(mixdisc.distribution_from_class_values(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(simulate, "distribution_from_class_values", keep)
    for _ in range(3):
        pairs = random_ball_effects(rng, k, dim, norm_index)
        effects = [BallEffect(c=c, v=v, norm_index=norm_index) for c, v in pairs]
        states = [
            BallState(x=x, norm_index=norm_index)
            for x in random_ball_states(rng, 2, dim, norm_index)
        ]
        simulate.simulate_ball(effects, states, delta=0.5)
        assert_class_table(tables[-1], lambda ms: bracket([effects[i] for i in ms]))
