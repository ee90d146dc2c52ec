import json
import math
from itertools import permutations

import numpy as np
import pytest

from chansim import mixdisc
from chansim.errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    NegativeWeight,
    NumericalBreakdown,
)
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


def test_outcome_distribution_cap(monkeypatch):
    def no_determinants(*args):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(mixdisc, "_determinants", no_determinants)
    # 12 outcomes of dimension 12: C(23, 12) = 1,352,078 classes
    with pytest.raises(EnumerationCapExceeded, match="1352078 multiset classes exceed cap 1000000"):
        mixdisc.outcome_distribution([np.eye(12) / 12] * 12)


@pytest.mark.parametrize("n, k", [(3, 6), (5, 5), (8, 8), (12, 6)])
def test_support_totals_sum_the_class_totals_by_support(rng, n, k):
    povm = random_povm(rng, n, k)
    totals = mixdisc.support_totals(povm)
    dist = mixdisc.outcome_distribution(povm)
    masks = (dist.counts > 0) @ (1 << np.arange(k))
    summed = np.bincount(masks, weights=dist.weights, minlength=2**k)
    assert np.max(np.abs(totals - summed)) <= 1e-12
    assert not totals[mixdisc.support_sizes(k) > n].any()


def test_support_beyond_the_dimension_must_come_out_zero(rng, monkeypatch):
    # 1e-6 added to every determinant gives every support +-1e-6, also
    # those of more outcomes than the dimension, which carry no class
    exact = mixdisc._determinants
    monkeypatch.setattr(mixdisc, "_determinants", lambda *args: exact(*args) + 1e-6)
    with pytest.raises(NumericalBreakdown, match=r"support \(0, 1, 2\) of more than 2 outcomes"):
        mixdisc.support_totals(random_povm(rng, 2, 4))


# 20 outcomes: 2^20 - 1 = 1,048,575 supports
SUPPORTS_PAST_THE_CAP = "1048575 output supports exceed cap 1000000"
CLI_CAP_ERROR = f"chansim: EnumerationCapExceeded: {SUPPORTS_PAST_THE_CAP}\n"


def test_support_cap_is_checked_before_any_determinant(rng, monkeypatch):
    # the noiseless quantum route no longer takes support totals: the
    # C(20, 2) = 190 output subsets of this instance certify
    def no_determinants(*args):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(mixdisc, "_determinants", no_determinants)
    povm = random_povm(rng, 2, 20)
    with pytest.raises(EnumerationCapExceeded, match=SUPPORTS_PAST_THE_CAP):
        mixdisc.support_totals(povm)


def test_delta_support_cap_is_checked_before_any_determinant(rng, monkeypatch, tmp_path, capsys):
    from chansim import jsonio
    from chansim.channels import Delta
    from chansim.cli import main
    from chansim.simulate import simulate_quantum_noisy

    def no_determinants(*args):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(mixdisc, "_determinants", no_determinants)
    povm, states = random_povm(rng, 2, 20), [np.eye(2) / 2]
    with pytest.raises(EnumerationCapExceeded, match=SUPPORTS_PAST_THE_CAP):
        simulate_quantum_noisy(povm, states, Delta(0.5))
    instance = jsonio.quantum_instance_to_json(povm, states)
    (tmp_path / "povm.json").write_text(json.dumps(instance))
    argv = ["simulate", "quantum", "--noise", "delta:1/2"]
    argv += ["--in", str(tmp_path / "povm.json"), "--out", str(tmp_path / "cert.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == CLI_CAP_ERROR
    assert not (tmp_path / "cert.json").exists()


def test_ball_support_cap_is_checked_before_any_bracket(rng, monkeypatch, tmp_path, capsys):
    from chansim.channels import BallEffect, BallState
    from chansim.cli import main
    from chansim.simulate import simulate_ball
    from conftest import random_ball_effects

    def no_brackets(*args):
        raise AssertionError("a bracket was taken")

    monkeypatch.setattr(mixdisc, "_subset_rows", no_brackets)
    pairs = random_ball_effects(rng, 20, 2, 2)
    effects = [BallEffect(c=c, v=v, norm_index=2) for c, v in pairs]
    states = [BallState(x=np.array([0.1, 0.2]), norm_index=2)]
    with pytest.raises(EnumerationCapExceeded, match=SUPPORTS_PAST_THE_CAP):
        simulate_ball(effects, states, 0.5)
    instance = {
        "norm_index": 2,
        "effects": [{"c": c, "v": v.tolist()} for c, v in pairs],
        "ball_states": [[0.1, 0.2]],
    }
    (tmp_path / "ball.json").write_text(json.dumps(instance))
    argv = ["simulate", "ball", "--delta", "1/2"]
    argv += ["--in", str(tmp_path / "ball.json"), "--out", str(tmp_path / "cert.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == CLI_CAP_ERROR
    assert not (tmp_path / "cert.json").exists()


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


def test_class_totals_for_large_k(rng):
    # many outcomes on few dimensions: 364 and 465 classes
    for n, k in [(3, 12), (2, 30)]:
        povm = random_povm(rng, n, k)
        dist = mixdisc.outcome_distribution(povm)
        assert abs(dist.weights.sum() - 1.0) < 1e-12
        assert_class_totals(povm, dist, permutation_expansion, 1e-12)


def test_grid_spanning_several_blocks(rng, monkeypatch):
    # each lattice of 127 points is evaluated in 16-point blocks
    monkeypatch.setattr(mixdisc, "_BLOCK_POINTS", 16)
    n, k = 5, 5
    assert math.comb(n + k - 1, n) > 4 * mixdisc._BLOCK_POINTS
    povm = random_povm(rng, n, k)
    dist = mixdisc.outcome_distribution(povm)
    assert abs(dist.weights.sum() - 1.0) < 1e-12
    assert_class_totals(povm, dist, mixdisc.mixed_discriminant, 1e-12)


def test_lattices_running_out_is_a_numerical_breakdown(rng, monkeypatch, tmp_path, capsys):
    # (3, 3) has 10 classes; the first lattice of 11 points resolves only
    # some of them, so one lattice is not enough
    from chansim import jsonio
    from chansim.cli import main

    monkeypatch.setattr(mixdisc, "_MAX_LATTICES", 1)
    povm = random_povm(rng, 3, 3)
    with pytest.raises(NumericalBreakdown, match="after 1 lattices"):
        mixdisc.outcome_distribution(povm)
    # the noiseless and delta-noisy simulations take support totals, not
    # lattices; a permutohedron spec still reads class totals
    instance = jsonio.quantum_instance_to_json(povm, [np.eye(3) / 3])
    (tmp_path / "povm.json").write_text(json.dumps(instance))
    noise = "permutohedron:[0.2, 0.3, 0.5]"
    argv = ["simulate", "quantum", "--noise", noise, "--in", str(tmp_path / "povm.json")]
    assert main(argv + ["--out", str(tmp_path / "cert.json")]) == 1
    assert "NumericalBreakdown" in capsys.readouterr().err
    assert not (tmp_path / "cert.json").exists()
    monkeypatch.setattr(mixdisc, "_MAX_LATTICES", 2)
    assert_class_totals(povm, mixdisc.outcome_distribution(povm), permutation_expansion, 1e-12)


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
    # one lattice resolves (1, 3), two (3, 4), (4, 3) and (3, 8), three (2, 6)
    for _ in range(3):
        povm = random_povm(rng, n, k)
        dist = mixdisc.outcome_distribution(povm)
        assert_class_table(dist, lambda ms: mixdisc.mixed_discriminant([povm[i] for i in ms]))


@pytest.mark.parametrize("n, k", [(2, 5), (4, 4), (6, 3), (6, 5)])
def test_ball_support_totals_sum_the_bracket_class_totals_by_support(rng, n, k):
    # the bracket is multilinear, as the mixed discriminant is: its class
    # table, summed by support, is the Moebius inversion of the brackets
    # of subset sums
    from chansim.channels import BallEffect, bracket
    from conftest import random_ball_effects

    for _ in range(3):
        effects = [
            BallEffect(c=c, v=v, norm_index=n) for c, v in random_ball_effects(rng, k, 3, n)
        ]

        def value(ms):
            return bracket([effects[i] for i in ms])

        dist = mixdisc.distribution_from_class_values(
            k, n, lambda classes: np.array([value(ms) for ms in classes])
        )
        assert_class_table(dist, value)
        masks = (dist.counts > 0) @ (1 << np.arange(k))
        summed = np.bincount(masks, weights=dist.weights, minlength=2**k)
        c, v = np.array([e.c for e in effects]), np.array([e.v for e in effects])
        totals = mixdisc.ball_support_totals(c, v, n)
        assert np.max(np.abs(totals - summed)) <= 1e-12
        assert not totals[mixdisc.support_sizes(k) > n].any()


@pytest.mark.parametrize("n, k", [(1, 1), (1, 4), (4, 1), (3, 4), (5, 3), (2, 7)])
def test_unbounded_class_table_is_every_multiset(n, k):
    classes, counts = mixdisc.class_table(n, k)
    rows = list(multiset_classes(k, n))
    assert classes.tolist() == [list(ms) for ms in rows]
    assert counts.tolist() == [[ms.count(i) for i in range(k)] for ms in rows]


def test_class_table_is_counted_against_the_cap():
    # C(35, 12) = 834,451,800 multisets of 12 of 24 outputs
    with pytest.raises(EnumerationCapExceeded, match="834451800 multiset classes exceed cap 1000000"):
        mixdisc.class_table(12, 24)


def test_class_totals_by_count_in_a_set_are_poisson_binomial(rng):
    # putting z_i = x on U and 1 elsewhere in det(sum_i z_i E_i) gives
    # det(I + (x - 1) E_U) = prod_alpha (1 - alpha + x alpha) over the
    # eigenvalues alpha of E_U: the chance that c(U) = r, summed over the
    # class totals, is its coefficient of x^r. These counts define the
    # greedy vertices of the permutohedron route, checked here against the
    # POVM alone, without the lattices
    checked = 0
    for _ in range(20):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        povm = random_povm(rng, n, k)
        dist = mixdisc.outcome_distribution(povm)
        for _ in range(5):
            inside = rng.random(k) < 0.5
            e_u = sum((e for e, u in zip(povm, inside) if u), np.zeros_like(povm[0]))
            alphas = np.linalg.eigvalsh(e_u)
            coefficients = np.ones(1)
            for alpha in alphas:
                coefficients = np.convolve(coefficients, [1.0 - alpha, alpha])
            by_count = np.bincount(dist.counts[:, inside].sum(axis=1), dist.weights, n + 1)
            assert np.max(np.abs(by_count - coefficients)) <= 1e-13
            checked += 1
    assert checked == 100
