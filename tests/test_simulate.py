import json
import math
from fractions import Fraction
from itertools import combinations as subsets
from itertools import combinations_with_replacement

import numpy as np
import pytest

from chansim import simulate
from chansim.channels import (
    BallEffect,
    BallState,
    ClassicalProtocol,
    Delta,
    Noiseless,
    PerColumn,
    Permutohedron,
    ball_born_matrix,
    mixture_matrix,
    protocol_matrices,
    satisfies_noise,
    validate_mixture,
)
from chansim.certify import BinomialWitness
from chansim.errors import (
    DimensionMismatch,
    NotFinite,
    NotMajorized,
    NotPsd,
    NumericalBreakdown,
    PreconditionViolated,
    TraceNotOne,
)
from chansim.linalg import born_matrix
from chansim.mixdisc import DEFAULT_CAP
from chansim.simulate import (
    SimulationResult,
    reduce_rows,
    simulate_ball,
    simulate_noisy_by_noiseless,
    simulate_quantum_noiseless,
    simulate_quantum_noisy,
)
from conftest import (
    random_ball_effects,
    random_ball_states,
    random_density,
    random_density_floor,
    random_density_in_permutohedron,
    random_povm,
    random_stochastic,
)

OCTAHEDRON = 0.5 * np.array(
    [
        [1, 0, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 1, 0],
    ],
    dtype=float,
)


def trine_povm():
    outcomes = []
    for t in range(3):
        angle = 2 * np.pi * t / 3
        vec = np.array([np.cos(angle / 2), np.sin(angle / 2)])
        outcomes.append((2.0 / 3.0) * np.outer(vec, vec).astype(complex))
    return outcomes


def check_simulation(result, noise=None, max_states=None):
    assert isinstance(result, SimulationResult)
    assert result.residual <= 1e-8
    recon = mixture_matrix(result.mixture).matrix
    assert np.max(np.abs(recon - result.target.matrix)) <= 1e-8
    weights = result.mixture.weights
    assert abs(weights.sum() - 1.0) < 1e-9
    assert np.all(weights >= 0)
    validate_mixture(result.mixture)
    if max_states is not None:
        for _, prot in result.mixture.terms:
            assert prot.num_states <= max_states


def test_one_protocol_per_multiset_class(rng, monkeypatch):
    # every ordering of a multiset gives the same protocol, so each
    # construction has at most C(n+k-1, n) candidates, one per sorted class;
    # the certificate keeps at most l(k-1) + 1 of them, each unchanged
    n, k, l = 3, 3, 2
    povm = random_povm(rng, n, k)
    effects = [
        BallEffect(c=c, v=v, norm_index=2) for c, v in random_ball_effects(rng, k, 2, 2)
    ]
    quantum_states = [random_density(rng, n) for _ in range(l)]
    noisy_states = [random_density_floor(rng, n, 0.5) for _ in range(l)]
    ball_states = [BallState(x=x, norm_index=2) for x in random_ball_states(rng, l, 2, 2)]

    def simulations():
        return [
            (simulate_quantum_noiseless(povm, quantum_states), n),
            (simulate_quantum_noisy(povm, noisy_states, Delta(0.5)), n),
            (simulate_ball(effects, ball_states, delta=0.5), 2),
        ]

    pruned = simulations()
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "caratheodory", lambda w, points: (np.arange(len(w)), w))
        unpruned = simulations()
    for (result, m), (full, _) in zip(pruned, unpruned):
        check_simulation(result)
        classes = [tuple(prot.decoder) for _, prot in full.mixture.terms]
        assert len(classes) <= math.comb(m + k - 1, m)
        assert all(list(dec) == sorted(dec) for dec in classes)
        assert classes == sorted(set(classes))
        survivors = [tuple(prot.decoder) for _, prot in result.mixture.terms]
        assert len(survivors) <= l * (k - 1) + 1 < len(classes)
        assert survivors == sorted(set(survivors))
        for _, prot in result.mixture.terms:
            twin = full.mixture.terms[classes.index(tuple(prot.decoder))][1]
            assert np.array_equal(prot.states, twin.states)


def test_noiseless_projective_commuting_exact():
    povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    result = simulate_quantum_noiseless(povm, states)
    assert result.residual <= 1e-12
    check_simulation(result)


def test_noiseless_trine(rng):
    states = [random_density(rng, 2) for _ in range(2)]
    result = simulate_quantum_noiseless(trine_povm(), states)
    check_simulation(result, max_states=2)
    for _, prot in result.mixture.terms:
        assert prot.num_states == 2


def test_noiseless_random_instances(rng):
    for _ in range(5):
        povm = random_povm(rng, 3, 4)
        states = [random_density(rng, 3) for _ in range(3)]
        result = simulate_quantum_noiseless(povm, states)
        check_simulation(result, max_states=3)


def test_noiseless_matches_diagonal_reading(rng):
    # commuting case: diagonal POVM + diagonal states read off classically
    probs = random_stochastic(rng, 3, 3)
    povm = [np.diag(row) for row in random_stochastic(rng, 3, 3)]
    states = [np.diag(col) for col in probs.T]
    result = simulate_quantum_noiseless(povm, states)
    direct = np.array([[float(np.diag(e) @ np.diag(s)) for s in states] for e in povm])
    recon = mixture_matrix(result.mixture).matrix
    assert np.max(np.abs(recon - direct)) <= 1e-10
    assert np.max(np.abs(born_matrix(povm, states) - direct)) <= 1e-12


def test_noisy_delta_qubit(rng):
    delta = 0.5
    povm = random_povm(rng, 2, 3)
    states = [random_density_floor(rng, 2, delta) for _ in range(2)]
    result = simulate_quantum_noisy(povm, states, Delta(delta))
    check_simulation(result)
    for _, prot in result.mixture.terms:
        assert np.min(prot.states) >= delta / 2 - 1e-9


def test_noisy_degenerate_spec_matches_noiseless(rng):
    povm = random_povm(rng, 2, 3)
    states = [random_density(rng, 2) for _ in range(2)]
    spec = Permutohedron(base=(0.0, 1.0))
    noisy = simulate_quantum_noisy(povm, states, spec)
    noiseless = simulate_quantum_noiseless(povm, states)
    assert np.max(np.abs(
        mixture_matrix(noisy.mixture).matrix - mixture_matrix(noiseless.mixture).matrix
    )) <= 1e-8
    check_simulation(noisy)


def test_noisy_maximally_mixed_states_give_uniform_columns(rng):
    n = 3
    povm = random_povm(rng, n, 3)
    states = [np.eye(n) / n, np.eye(n) / n]
    result = simulate_quantum_noisy(povm, states, Delta(1.0))
    check_simulation(result)
    for _, prot in result.mixture.terms:
        assert np.max(np.abs(prot.states - 1.0 / n)) <= 1e-8


def test_noisy_spectrum_precondition_enforced(rng):
    povm = random_povm(rng, 2, 2)
    states = [random_density(rng, 2)]
    while np.min(np.linalg.eigvalsh(states[0])) > 0.2:
        states = [random_density(rng, 2)]
    with pytest.raises(NotMajorized):
        simulate_quantum_noisy(povm, states, Delta(0.9))


def test_noisy_per_column_specs(rng):
    povm = random_povm(rng, 2, 3)
    states = [random_density_floor(rng, 2, 0.6), random_density_floor(rng, 2, 0.2)]
    spec = PerColumn(specs=(Delta(0.6), Delta(0.2)))
    result = simulate_quantum_noisy(povm, states, spec)
    check_simulation(result)


def test_noisy_true_permutohedron_spec(rng):
    # a noise set that is not of the uniform-leak form: columns must land
    # in the permutation hull of the declared base
    from chansim.majorize import majorized_by_permutohedron
    from conftest import random_density_in_permutohedron

    base = np.array([0.1, 0.2, 0.7])
    spec = Permutohedron(base=tuple(base))
    povm = random_povm(rng, 3, 3)
    states = [random_density_in_permutohedron(rng, base) for _ in range(2)]
    result = simulate_quantum_noisy(povm, states, spec)
    check_simulation(result)
    for j, rho in enumerate(states):
        spectrum = np.sort(np.linalg.eigvalsh(rho))
        for _, prot in result.mixture.terms:
            col = prot.states[:, j]
            assert majorized_by_permutohedron(col, spectrum, 1e-8)
            assert majorized_by_permutohedron(col, base, 1e-8)


def test_noisy_dimension_four(rng):
    delta = 0.5
    povm = random_povm(rng, 4, 3)
    states = [random_density_floor(rng, 4, delta) for _ in range(2)]
    result = simulate_quantum_noisy(povm, states, Delta(delta))
    check_simulation(result)
    for _, prot in result.mixture.terms:
        assert prot.num_states == 4
        assert np.min(prot.states) >= delta / 4 - 1e-9


def test_noisy_columns_satisfy_full_subset_system(rng):
    # the permutohedron route's columns satisfy every subset-sum constraint of
    # the original (unaggregated) feasibility system: they lie in the
    # permutation hull of the state's spectrum. A Delta spec takes the
    # support route instead, whose columns lie in the declared set, every
    # entry at least delta/n; the same set declared as a permutohedron
    # still takes the min-norm route. Cases: a random spectrum, n = 7
    # (beyond the old submultiset enumeration), and the degenerate spectrum
    # of (1 - delta)|psi><psi| + delta I/n
    from chansim.channels import noise_bases

    delta = 0.25

    def pure_plus_noise(n):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        return (1 - delta) * np.outer(psi, psi.conj()) + delta * np.eye(n) / n

    cases = [
        (3, 3, lambda n: random_density_floor(rng, n, delta)),
        (7, 3, lambda n: random_density_floor(rng, n, delta)),
        (5, 3, pure_plus_noise),
    ]
    for n, k, make_state in cases:
        povm = random_povm(rng, n, k)
        states = [make_state(n) for _ in range(2)]
        base = Permutohedron(base=tuple(noise_bases(Delta(delta), n)[0]))
        result = simulate_quantum_noisy(povm, states, base)
        check_simulation(result)
        for j, rho in enumerate(states):
            mu = np.sort(np.linalg.eigvalsh(rho))
            prefix = np.cumsum(mu)
            for _, prot in result.mixture.terms:
                col = prot.states[:, j]
                assert len(col) == n
                for h in range(1, n + 1):
                    for sub in subsets(range(n), h):
                        assert sum(col[list(sub)]) >= prefix[h - 1] - 1e-8
        result = simulate_quantum_noisy(povm, states, Delta(delta))
        check_simulation(result)
        assert result.mixture.states.shape[1] == n
        assert np.min(result.mixture.states) >= delta / n - 1e-9


def _decide(dist, a, mu):
    """Wolfe's min-norm point of the base polytope of
    g(U) = sum_M w_M Q(c_M(U)), Q(r) the sum of the r largest entries of
    mu, nearest to the column a: the decider that the permutohedron route
    runs per column."""
    from chansim.minnorm import min_norm_point

    top = np.concatenate(([0.0], np.cumsum(np.sort(mu)[::-1])))
    vertex = simulate._greedy_vertex(dist.weights, dist.counts.T, top)
    return min_norm_point(vertex, a, "column 0")


def _violated_set(corral, a):
    """U = {i : x_i < a_i} at the min-norm point x, as a bit mask."""
    return sum(1 << i for i in np.flatnonzero(corral.point < a - 1e-12))


def test_class_values_match_prefix_sum_inequalities(rng):
    # the min-norm point reaches the column exactly when
    # a(T) >= sum_M w_M P(c_M(T)) for every output set T, P the ascending
    # prefix sums of mu and c_M(T) the slots of class M carrying outputs in
    # T; otherwise U = {i : x_i < a_i} at the min-norm point x is the
    # complement of a most violated T, and the class values are refused
    from chansim.majorize import majorized_by_permutohedron
    from chansim.mixdisc import OutcomeDistribution

    verdicts = []
    for trial in range(300):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if trial % 2:
            mu = rng.dirichlet(np.ones(n))
        else:  # ties: a few distinct levels
            mu = rng.choice(rng.uniform(0.0, 1.0, size=2), size=n)
            mu = mu / mu.sum()
        mu = np.sort(mu)
        classes = list(combinations_with_replacement(range(k), n))
        kept = [ms for ms in classes if rng.random() < 0.7] or classes[:1]
        weights = dict(zip(kept, rng.dirichlet(np.ones(len(kept)))))
        table = np.array(kept, dtype=np.intp).reshape(len(kept), n)
        dist = OutcomeDistribution(n=n, k=k, classes=table, weights=np.array([*weights.values()]))
        # a reachable column (every class on a random permutation of mu)
        # pulled toward a random one
        feasible = np.zeros(k)
        for ms, w in weights.items():
            np.add.at(feasible, list(ms), w * rng.permutation(mu))
        s = rng.uniform(0.0, 0.6)
        a = (1 - s) * feasible + s * rng.dirichlet(np.ones(k))

        def slack(t):
            need = sum(w * mu[: sum(ms.count(i) for i in t)].sum() for ms, w in weights.items())
            return a[list(t)].sum() - need

        # the full set is tight by balance; check the proper nonempty ones
        proper = [t for h in range(1, k) for t in subsets(range(k), h)]
        worst = min((slack(t) for t in proper), default=1.0)
        if abs(worst) < 1e-7:
            continue
        corral = _decide(dist, a, mu)
        if corral.distance > 1e-12:
            assert worst < 0
            violated = _violated_set(corral, a)
            complement = tuple(i for i in range(k) if not violated >> i & 1)
            assert slack(complement) == pytest.approx(worst, abs=1e-12)
            with pytest.raises(NumericalBreakdown, match="^column 0: min-norm point at distance"):
                simulate._corral_values(dist, a[:, None], mu[None])
            verdicts.append(False)
            continue
        assert worst > 0
        (values,) = simulate._corral_values(dist, a[:, None], mu[None])
        recon = np.zeros(k)
        for c, (ms, w) in enumerate(sorted(weights.items())):
            slot_values = values[c, list(ms)]
            assert majorized_by_permutohedron(slot_values, mu, 1e-12)
            np.add.at(recon, list(ms), w * slot_values)
        assert np.max(np.abs(recon - a)) <= 1e-12
        verdicts.append(True)
    assert 50 <= sum(verdicts) <= len(verdicts) - 50


def _prefix_slack(dist, mu):
    """The 2^k inequalities a(T) >= sum_M w_M P(c_M(T)) as (member, need):
    row T of member marks the outputs in T (T read as a bit mask), and
    need[T] is the right-hand side."""
    counts = np.array([np.bincount(ms, minlength=dist.k) for ms in dist.classes])
    member = (np.arange(2**dist.k)[:, None] >> np.arange(dist.k)) & 1
    prefix = np.concatenate(([0.0], np.cumsum(mu)))
    return member, prefix[counts @ member.T].T @ dist.weights


@pytest.mark.parametrize("noise", ["noiseless", "delta"])
def test_min_norm_point_matches_the_prefix_sum_oracle(rng, noise):
    # every min-norm point on a random POVM with k <= 8 outcomes is checked
    # against all 2^k prefix-sum inequalities: the columns the POVM gives
    # reach distance 1e-12, and the same columns pulled toward an output
    # until one inequality fails stay away from it, their violated set
    # carrying the largest deficit
    from chansim.majorize import majorized_by_permutohedron
    from chansim.mixdisc import outcome_distribution

    solved = refused = 0
    for _ in range(12):
        n, k = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        povm = random_povm(rng, n, k)
        dist = outcome_distribution(povm)
        for _ in range(2):
            if noise == "noiseless":
                rho, mu = random_density(rng, n), np.eye(n)[-1]
            else:
                rho = random_density_floor(rng, n, 0.5)
                mu = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
            member, need = _prefix_slack(dist, mu)
            a = born_matrix(povm, [rho])[:, 0]
            out = np.eye(k)[rng.integers(k)]
            pulls = [(1 - s) * a + s * out for s in (0.2, 0.4, 0.6, 0.8, 1.0)]
            pulled = next((b for b in pulls if np.min(member @ b - need) < -1e-6), None)
            assert np.min(member @ a - need) > -1e-9
            assert _decide(dist, a, mu).distance <= 1e-12
            (values,) = simulate._corral_values(dist, a[:, None], mu[None])
            recon = np.zeros(k)
            for c, ms in enumerate(dist.classes):
                slot_values = values[c, ms]
                assert majorized_by_permutohedron(slot_values, mu, 1e-12)
                np.add.at(recon, ms, dist.weights[c] * slot_values)
            assert np.max(np.abs(recon - a)) <= 1e-12
            solved += 1
            if pulled is None:
                continue
            corral = _decide(dist, pulled, mu)
            assert corral.distance > 1e-6
            # the complement of U is the set T of a failing inequality
            complement = (2**k - 1) & ~_violated_set(corral, pulled)
            deficit = np.min(member @ pulled - need)
            assert member[complement] @ pulled - need[complement] == pytest.approx(deficit, abs=1e-12)
            refused += 1
    assert solved == 24 and refused >= 12


def test_ball_disk_antipodal_noiseless():
    v = np.array([0.6, 0.8])
    effects = [
        BallEffect(c=0.5, v=0.5 * v, norm_index=2),
        BallEffect(c=0.5, v=-0.5 * v, norm_index=2),
    ]
    states = [BallState(x=v, norm_index=2), BallState(x=-v, norm_index=2)]
    result = simulate_ball(effects, states, delta=0.0)
    assert result.residual <= 1e-10
    check_simulation(result, max_states=2)
    assert result.mixture.num_states == 2


def test_ball_delta_one_identical_columns(rng):
    effects = [
        BallEffect(c=c, v=v, norm_index=2) for c, v in random_ball_effects(rng, 3, 2, 2)
    ]
    states = [BallState(x=x, norm_index=2) for x in random_ball_states(rng, 3, 2, 2)]
    result = simulate_ball(effects, states, delta=1.0)
    check_simulation(result)
    mat = mixture_matrix(result.mixture).matrix
    for j in range(1, mat.shape[1]):
        assert np.allclose(mat[:, j], mat[:, 0], atol=1e-10)


def test_ball_ellipsoid_quarter_noise(rng):
    effects = [
        BallEffect(c=c, v=v, norm_index=2) for c, v in random_ball_effects(rng, 3, 3, 2)
    ]
    states = [BallState(x=x, norm_index=2) for x in random_ball_states(rng, 2, 3, 2)]
    result = simulate_ball(effects, states, delta=0.25)
    check_simulation(result, max_states=2)
    for _, prot in result.mixture.terms:
        assert np.min(prot.states) >= 0.25 / 2 - 1e-9


def test_ball_norm_four(rng):
    effects = [
        BallEffect(c=c, v=v, norm_index=4) for c, v in random_ball_effects(rng, 3, 2, 4)
    ]
    states = [BallState(x=x, norm_index=4) for x in random_ball_states(rng, 2, 2, 4)]
    result = simulate_ball(effects, states, delta=0.5)
    check_simulation(result, max_states=4)


_DISK_EFFECTS = [
    BallEffect(c=0.5, v=np.array([0.3, 0.4]), norm_index=2),
    BallEffect(c=0.5, v=np.array([-0.3, -0.4]), norm_index=2),
]
_DISK_STATES = [BallState(x=np.array([0.6, 0.8]), norm_index=2)]


@pytest.mark.parametrize("mismatch", ["effect_dimension", "state_dimension", "norm_index"])
def test_ball_inputs_that_do_not_fit_raise_dimension_mismatch(monkeypatch, mismatch):
    # the instance is checked once, before any support is evaluated
    from chansim.errors import DimensionMismatch

    effects, states = list(_DISK_EFFECTS), list(_DISK_STATES)
    if mismatch == "effect_dimension":
        effects.append(BallEffect(c=0.0, v=np.zeros(3), norm_index=2))
    elif mismatch == "state_dimension":
        states.append(BallState(x=np.array([0.1, 0.2, 0.3]), norm_index=2))
    else:
        effects.append(BallEffect(c=0.0, v=np.zeros(2), norm_index=4))

    def no_supports(*args, **kwargs):
        raise AssertionError("supports evaluated before the inputs were checked")

    monkeypatch.setattr(simulate, "ball_support_totals", no_supports)
    with pytest.raises(DimensionMismatch):
        simulate_ball(effects, states)


# a channel with no input: a POVM with no state, a ball with no state and
# 3 x 0 matrices
_NO_STATE_POVM = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
_NO_COLUMNS = np.zeros((3, 0))
_NO_INPUTS = {
    "noiseless": (
        lambda: simulate_quantum_noiseless(_NO_STATE_POVM, []),
        ["simulate", "quantum"],
    ),
    "delta": (
        lambda: simulate_quantum_noisy(_NO_STATE_POVM, [], Delta(0.5)),
        ["simulate", "quantum", "--noise", "delta:1/2"],
    ),
    "permutohedron": (
        lambda: simulate_quantum_noisy(_NO_STATE_POVM, [], Permutohedron((0.6, 0.4))),
        ["simulate", "quantum", "--noise", "permutohedron:[0.6,0.4]"],
    ),
    "ball": (lambda: simulate_ball(_DISK_EFFECTS, [], 0.5), ["simulate", "ball", "--delta", "1/2"]),
    "reduce": (lambda: reduce_rows(_NO_COLUMNS), ["simulate", "reduce"]),
    "noisy-to-noiseless": (
        lambda: simulate_noisy_by_noiseless(Delta(0.5), _NO_COLUMNS, 2),
        ["simulate", "noisy-to-noiseless", "--noise", "delta:1/2", "--d", "2"],
    ),
}


@pytest.mark.parametrize("route", sorted(_NO_INPUTS))
def test_a_channel_without_inputs_raises_dimension_mismatch(route, tmp_path, capsys):
    from chansim import jsonio
    from chansim.cli import main
    from chansim.errors import DimensionMismatch

    call, argv = _NO_INPUTS[route]
    with pytest.raises(DimensionMismatch):
        call()
    if argv[1] == "quantum":
        payload = jsonio.quantum_instance_to_json(_NO_STATE_POVM, [])
    elif argv[1] == "ball":
        effects = [{"c": e.c, "v": e.v.tolist()} for e in _DISK_EFFECTS]
        payload = {"norm_index": 2, "effects": effects, "ball_states": []}
    else:
        payload = {"matrix": _NO_COLUMNS.tolist()}
    (tmp_path / "in.json").write_text(json.dumps(payload))
    argv = argv + ["--in", str(tmp_path / "in.json"), "--out", str(tmp_path / "cert.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("chansim: DimensionMismatch: ")
    assert not (tmp_path / "cert.json").exists()


def test_a_zero_dimensional_ball_certifies_and_verifies(tmp_path):
    # dual_norm and state_norm accept empty vectors, and so does the target
    from chansim.cli import main

    effects = [BallEffect(c=c, v=np.zeros(0), norm_index=4) for c in (0.25, 0.75)]
    result = simulate_ball(effects, [BallState(x=np.zeros(0), norm_index=4)], 0.5)
    check_simulation(result, max_states=4)
    assert result.target.matrix.tolist() == [[0.25], [0.75]]
    payload = {
        "norm_index": 4,
        "effects": [{"c": 0.25, "v": []}, {"c": 0.75, "v": []}],
        "ball_states": [[]],
    }
    source, cert = tmp_path / "in.json", tmp_path / "cert.json"
    source.write_text(json.dumps(payload))
    argv = ["simulate", "ball", "--delta", "1/2", "--in", str(source), "--out", str(cert)]
    assert main(argv) == 0
    assert main(["verify", str(cert), "--in", str(source)]) == 0


def test_noisy_by_noiseless_delta_at_threshold():
    n, delta = 4, 0.5
    d = 3  # ceil((1 - 0.5) * 4 + 0.5)
    x = np.column_stack(
        [np.full(n, delta / n) + (1 - delta) * np.eye(n)[:, j] for j in range(n)]
    )
    result = simulate_noisy_by_noiseless(Delta(delta), x, d)
    check_simulation(result, max_states=d)
    for _, prot in result.mixture.terms:
        assert prot.num_states == d


def test_noisy_by_noiseless_below_threshold_witness():
    n, delta = 4, 0.5
    x = np.column_stack(
        [np.full(n, delta / n) + (1 - delta) * np.eye(n)[:, j] for j in range(n)]
    )
    result = simulate_noisy_by_noiseless(Delta(delta), x, 2)
    assert isinstance(result, BinomialWitness)
    assert result.r == n - 1


def test_noisy_by_noiseless_full_d_always_feasible(rng):
    n = 3
    x = random_stochastic(rng, n, 2)
    result = simulate_noisy_by_noiseless(Noiseless(), x, n)
    check_simulation(result, max_states=n)


def test_noisy_by_noiseless_protocol_target(rng):
    n, d, delta = 4, 3, 0.5
    cols = []
    for _ in range(3):
        w = rng.dirichlet(np.ones(4))
        base = np.sort(np.full(n, delta / n) + (1 - delta) * np.eye(n)[:, 0])
        cols.append(sum(wi * rng.permutation(base) for wi in w))
    states = np.column_stack(cols)
    protocol = ClassicalProtocol(
        decoder=rng.integers(0, 3, size=n), states=states, num_outputs=3
    )
    result = simulate_noisy_by_noiseless(Delta(delta), protocol, d)
    check_simulation(result, max_states=d)


def _n2n_case(rng, case):
    """(spec, n x l columns, d) of a noisy-to-noiseless instance."""
    from chansim.majorize import max_subset_distribution

    if case == "delta":
        return Delta(0.5), 0.5 / 6 + 0.5 * random_stochastic(rng, 6, 3), 4
    if case == "d_equals_n":
        return Noiseless(), random_stochastic(rng, 5, 3), 5
    if case == "d_1_uniform":
        return Delta(1), np.full((4, 3), 0.25), 1
    n, d = 5, 3
    nu = max_subset_distribution(n, d)
    if case == "vertex_columns":
        # permutations of nu: every Hall bound of the transport is tight
        return Permutohedron(tuple(nu)), np.column_stack([rng.permutation(nu) for _ in range(3)]), d
    base = np.sort(0.5 * nu + 0.5 / n)
    cols = [sum(w * rng.permutation(base) for w in rng.dirichlet(np.ones(4))) for _ in range(3)]
    return Permutohedron(tuple(base)), np.column_stack(cols), d


@pytest.mark.parametrize(
    "case", ["delta", "d_equals_n", "d_1_uniform", "vertex_columns", "permutohedron"]
)
def test_noisy_by_noiseless_is_one_candidate_per_class_of_decoded_outputs(
    rng, monkeypatch, case
):
    # before merging: one candidate per multiset of outputs that a d-subset
    # decodes to, in lexicographic order, weighted by its share of the
    # C(n, d) subsets, with stochastic state columns whose mixture is the
    # target; then one term per distinct protocol matrix, its first
    # candidate weighted by the total of the candidates that share it
    from collections import Counter
    from itertools import combinations

    spec, x, d = _n2n_case(rng, case)
    n, l = x.shape
    decoder = rng.permutation(np.arange(n) % 3)
    protocol = ClassicalProtocol(decoder=decoder, states=x, num_outputs=3)
    result = simulate_noisy_by_noiseless(spec, protocol, d)
    check_simulation(result, max_states=d)
    monkeypatch.setattr(simulate, "caratheodory", lambda w, points: (np.arange(len(w)), w))
    candidates = []
    class_terms = simulate._class_terms

    def spy(dist, values):
        candidates.append(class_terms(dist, values))
        return candidates[-1]

    monkeypatch.setattr(simulate, "_class_terms", spy)
    full = simulate_noisy_by_noiseless(spec, protocol, d).mixture
    weights, decoders, xs = candidates[0]
    # the oracle: every d-subset's decoded outputs, sorted and counted
    subsets = Counter(tuple(sorted(decoder[list(s)])) for s in combinations(range(n), d))
    assert [tuple(c) for c in decoders.tolist()] == sorted(subsets)
    sizes = np.bincount(decoder, minlength=3)
    for w, c in zip(weights, decoders.tolist()):
        ways = math.prod(math.comb(int(sizes[i]), c.count(i)) for i in range(3))
        assert ways == subsets[tuple(c)]
        assert w == ways / math.comb(n, d)
    assert abs(weights.sum() - 1.0) <= 1e-15
    assert np.all(xs >= 0.0)
    assert np.max(np.abs(xs.sum(axis=1) - 1.0)) <= 1e-12
    e = np.zeros((3, n))
    e[decoder, np.arange(n)] = 1.0
    per_class = protocol_matrices(decoders, xs, 3)
    assert np.max(np.abs(np.einsum("t,tkl->kl", weights, per_class) - e @ x)) <= 1e-12
    # the merged terms: distinct matrices, each its first candidate
    merged = protocol_matrices(full.decoders, full.states, 3)
    assert len(np.unique(merged.reshape(len(merged), -1), axis=0)) == len(merged)
    firsts = []
    for w, dec, states, m in zip(full.weights, full.decoders, full.states, merged):
        members = np.flatnonzero((per_class == m).all(axis=(1, 2)))
        firsts.append(members[0])
        assert np.array_equal(dec, decoders[members[0]])
        assert np.array_equal(states, xs[members[0]])
        assert abs(w - weights[members].sum()) <= 1e-15
    assert np.all(np.diff(firsts) > 0)
    assert np.max(np.abs(mixture_matrix(full).matrix - e @ x)) <= 1e-12
    # the pruned certificate keeps candidates unchanged
    candidates = list(zip(decoders, xs))
    for dec, states in zip(result.mixture.decoders, result.mixture.states):
        assert any(np.array_equal(f, dec) and np.array_equal(g, states) for f, g in candidates)


def _largest_noisy_to_noiseless(bench_workloads):
    """The first of the bench's two largest ``gpt_channels`` instances,
    (n, d, l, k) = (12, 6, 3, 8) at delta = 3/5, as built at seed 1."""
    rng = bench_workloads._rng(1, "gpt_channels", 5)
    return bench_workloads._noisy_to_noiseless_instance(rng, 12, 6, 3, 8, Fraction(3, 5))


def test_noisy_to_noiseless_merges_subsets_with_equal_protocols(
    bench_workloads, tmp_path, monkeypatch
):
    # a sorted decoder and mostly one-hot subset states give the 924 subsets
    # of the bench's largest shape far fewer distinct protocol matrices
    sizes = []
    finalize = simulate._finalize

    def spy(target, weights, decoders, states, noise):
        sizes.append(len(weights))
        return finalize(target, weights, decoders, states, noise)

    monkeypatch.setattr(simulate, "_finalize", spy)
    result = _certify_and_verify(tmp_path, _largest_noisy_to_noiseless(bench_workloads))
    assert len(sizes) == 1 and sizes[0] < 924
    assert result["residual"] <= 1e-8


def _certificates_under_two_hash_seeds(tmp_path, inst) -> list[bytes]:
    """The bytes that a bench instance's certify command writes in two
    processes, started with PYTHONHASHSEED 1 and 2."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    source = tmp_path / "in.json"
    source.write_text(json.dumps(inst.payload))
    package_root = str(Path(simulate.__file__).resolve().parent.parent)
    certificates = []
    for hash_seed in ("1", "2"):
        cert = tmp_path / f"cert_{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "chansim", *inst.certify_argv(str(source), str(cert))]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        certificates.append(cert.read_bytes())
    return certificates


def test_noisy_to_noiseless_certificates_do_not_depend_on_hash_order(bench_workloads, tmp_path):
    inst = _largest_noisy_to_noiseless(bench_workloads)
    first, second = _certificates_under_two_hash_seeds(tmp_path, inst)
    assert first == second


@pytest.mark.parametrize("noise", ["noiseless", "delta:1/2"])
def test_quantum_certificates_do_not_depend_on_hash_order(bench_workloads, tmp_path, noise):
    # 126 classes of (5, 5), resolved by three lattices drawn from one seed
    rng = np.random.default_rng([3, 5, 5])
    inst = bench_workloads._quantum_instance(rng, 5, 5, 3, noise)
    first, second = _certificates_under_two_hash_seeds(tmp_path, inst)
    assert first == second


def test_noisy_by_noiseless_column_violation_raises():
    n, delta = 3, 0.6
    bad = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(NotMajorized):
        simulate_noisy_by_noiseless(Delta(delta), bad, 3)


def test_reduce_rows_half_matrix():
    a = np.full((2, 2), 0.5)
    result = reduce_rows(a, np.array([0.5, 0.5]))
    assert result.residual <= 1e-10
    for (w, b), i in zip(result.terms, range(2)):
        assert np.allclose(b.matrix[i, :], 0.0)
        assert np.max(np.abs(b.matrix.sum(axis=0) - 1.0)) < 1e-9


def test_reduce_rows_octahedron_uniform():
    result = reduce_rows(OCTAHEDRON, np.full(4, 0.25))
    assert result.residual <= 1e-8
    recon = sum(w * b.matrix for w, b in result.terms)
    assert np.max(np.abs(recon - OCTAHEDRON)) <= 1e-8
    for (w, b), i in zip(result.terms, range(4)):
        assert np.allclose(b.matrix[i, :], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reduce_rows_rejects_non_finite_weights(bad):
    # NaN fails every comparison, so it passed the probability check
    with pytest.raises(NotFinite):
        reduce_rows(OCTAHEDRON, np.array([bad, 0.5, 0.5, 0.0]))


def test_reduce_rows_default_weights(rng):
    a = random_stochastic(rng, 4, 3) * 0.5 + 0.125
    result = reduce_rows(a)
    assert result.residual <= 1e-8


def test_reduce_rows_with_zero_weights(rng):
    # A = sum_v p_v B(v) with some p_v = 0: only the rows of positive weight
    # get a term, in row order, each zero on its row and column-stochastic
    for _ in range(40):
        k, l = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(k))
        p[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
        p /= p.sum()
        a = np.zeros((k, l))
        for v in range(k):
            b = random_stochastic(rng, k, l)
            b[v] = 0.0
            a += p[v] * b / b.sum(axis=0)
        result = reduce_rows(a, p)
        kept = np.flatnonzero(p > 1e-12)
        assert [w for w, _ in result.terms] == list(p[kept])
        assert result.zero_rows.tolist() == kept.tolist()
        for (_, b), v in zip(result.terms, kept):
            assert np.all(b.matrix[v] == 0.0)
            assert np.max(np.abs(b.matrix.sum(axis=0) - 1.0)) < 1e-9
        recon = sum(w * b.matrix for w, b in result.terms)
        assert np.max(np.abs(recon - a)) <= 1e-8


def test_reduce_rows_dust_weight_without_flow():
    # the weights exceed the column total by the dust weight itself, so the
    # max flow may leave that row empty; it still gets a valid term
    a = np.array([[0.4, 0.4], [0.3, 0.3], [0.3, 0.3]])
    result = reduce_rows(a, np.array([0.5, 0.5, 5e-10]))
    assert len(result.terms) == 3
    w, b = result.terms[2]
    assert w == 5e-10
    assert np.array_equal(b.matrix, np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]]))
    assert result.residual <= 1e-8


def test_reduce_rows_weights_and_column_each_within_tolerance():
    # the weights sum to 1 + 9e-10 and column 0 to 1 - 9e-10: each is within
    # its own tolerance, although their totals differ by more than 1e-9
    a = np.array([[0.3, 0.3], [0.3, 0.3], [0.4 - 9e-10, 0.4]])
    result = reduce_rows(a, np.array([0.4, 0.3, 0.3 + 9e-10]))
    assert result.residual <= 1e-8
    for (_, b), v in zip(result.terms, range(3)):
        assert np.all(b.matrix[v] == 0.0)
        assert np.max(np.abs(b.matrix.sum(axis=0) - 1.0)) < 1e-9


def test_reduce_rows_identity_rejected():
    with pytest.raises(PreconditionViolated):
        reduce_rows(np.eye(3))


def test_single_outcome_povm(rng):
    povm = [np.eye(2).astype(complex)]
    states = [random_density(rng, 2)]
    result = simulate_quantum_noiseless(povm, states)
    check_simulation(result)
    noisy = simulate_quantum_noisy(povm, states, Delta(0.0))
    check_simulation(noisy)


def test_one_dimensional_system():
    povm = [np.array([[0.3]]), np.array([[0.7]])]
    states = [np.array([[1.0]])]
    result = simulate_quantum_noiseless(povm, states)
    check_simulation(result)
    assert np.allclose(result.target.matrix, [[0.3], [0.7]])


@pytest.mark.parametrize("n, k, l", [(10, 2, 2), (9, 3, 2)])
@pytest.mark.parametrize("noise", ["noiseless", "delta:1/2"])
def test_quantum_sizes_past_the_factorial_discriminant(n, k, l, noise, tmp_path):
    # n = 9 and 10 took n! determinants per class, and n! n^2 complex
    # entries of memory per discriminant, before the DFT class totals
    import json

    from chansim import jsonio
    from chansim.cli import main, parse_noise

    rng = np.random.default_rng(n * 10 + k)
    spec = parse_noise(noise)
    if isinstance(spec, Noiseless):
        states = [random_density(rng, n) for _ in range(l)]
    else:
        states = [random_density_floor(rng, n, float(spec.delta)) for _ in range(l)]
    instance = tmp_path / "instance.json"
    cert = tmp_path / "cert.json"
    instance.write_text(json.dumps(jsonio.quantum_instance_to_json(random_povm(rng, n, k), states)))
    args = ["simulate", "quantum", "--in", str(instance), "--noise", noise, "--out", str(cert)]
    assert main(args) == 0
    result = json.loads(cert.read_text())["result"]
    assert result["residual"] <= 1e-8
    mixture = jsonio.mixture_from_json(result["mixture"])
    assert mixture.num_states == n
    for _, prot in mixture.terms:
        assert all(satisfies_noise(prot.states[:, j], spec) for j in range(l))
    assert main(["verify", str(cert), "--in", str(instance)]) == 0


def _certify_and_verify(tmp_path, inst) -> dict:
    """Run a bench instance's certify command and ``verify --in`` on its
    certificate; both must exit 0. Returns the certificate's result."""
    from chansim.cli import main

    source, cert = tmp_path / "in.json", tmp_path / "cert.json"
    source.write_text(json.dumps(inst.payload))
    assert main(inst.certify_argv(str(source), str(cert))) == 0
    assert main(["verify", str(cert), "--in", str(source)]) == 0
    return json.loads(cert.read_text())["result"]


def test_noiseless_quantum_at_twelve_states_and_six_outcomes(bench_workloads, tmp_path):
    # 6188 classes, resolved by three lattices of 6197 points
    rng = np.random.default_rng([1, 12, 6])
    inst = bench_workloads._quantum_instance(rng, 12, 6, 3, "noiseless")
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8


def test_noiseless_quantum_past_the_class_cap(bench_workloads, tmp_path):
    # C(31, 20) = 84,672,315 classes, far over the cap of 10^6, but only
    # 2^12 - 1 = 4,095 supports
    rng = np.random.default_rng([1, 20, 12])
    inst = bench_workloads._quantum_instance(rng, 20, 12, 3, "noiseless")
    assert math.comb(20 + 12 - 1, 20) > DEFAULT_CAP
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8
    assert len(result["mixture"]["terms"]) <= 3 * (12 - 1) + 1


def _one_column_instance(rng, route):
    """A simulation of one input column for each construction: its
    1 (k - 1) + 1 = k candidate bound sends every certificate of more
    than k distinct candidates through the reduction."""
    if route == "ball":
        pairs = random_ball_effects(rng, 5, 2, 4)
        effects = [BallEffect(c=c, v=v, norm_index=4) for c, v in pairs]
        states = [BallState(x=np.array([0.3, -0.4]), norm_index=4)]
        return lambda: simulate_ball(effects, states, 0.5)
    if route == "noisy-to-noiseless":
        x = 0.1 + 0.5 * random_stochastic(rng, 5, 1)
        return lambda: simulate_noisy_by_noiseless(Delta(0.5), x, 3)
    povm, sigma = random_povm(rng, 4, 5), random_density(rng, 4)
    if route == "noiseless":
        return lambda: simulate_quantum_noiseless(povm, [sigma])
    if route == "delta":
        return lambda: simulate_quantum_noisy(povm, [0.5 * sigma + np.eye(4) / 8], Delta(0.5))
    spectrum = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
    spec = Permutohedron(tuple(spectrum / spectrum.sum()))
    return lambda: simulate_quantum_noisy(povm, [sigma], spec)


@pytest.mark.parametrize(
    "route", ["noiseless", "delta", "permutohedron", "ball", "noisy-to-noiseless"]
)
def test_the_reduction_sees_distinct_protocol_matrices(rng, monkeypatch, route):
    # _finalize merges equal protocol matrices before caratheodory, for
    # every construction
    seen = []

    def spy(weights, points):
        seen.append(points)
        return reduce(weights, points)

    reduce = simulate.caratheodory
    monkeypatch.setattr(simulate, "caratheodory", spy)
    check_simulation(_one_column_instance(rng, route)())
    assert len(seen) == 1
    assert len(np.unique(seen[0], axis=0)) == len(seen[0]) > 5


def test_dust_supports_move_to_their_heaviest_superset(rng):
    from chansim.mixdisc import support_sizes

    k, n = 6, 4
    sizes = support_sizes(k)
    totals = rng.integers(0, 4, size=2**k) / 4.0  # many ties
    heir = simulate._heaviest_superset(totals, sizes, n)
    for s in np.flatnonzero(sizes < n):
        supersets = [t for t in range(2**k) if t & s == s and t != s and sizes[t] <= n]
        assert heir[s] == min(supersets, key=lambda t: (-totals[t], t))
    # dust on supports of every size: only supports of n outputs keep theirs
    totals = np.where(sizes <= n, rng.random(2**k) * (rng.random(2**k) < 0.5), 0.0)
    totals[1:] = np.where(rng.random(2**k - 1) < 0.3, simulate.WEIGHT_FLOOR / 2, totals[1:])
    totals[sizes > n] = 0.0
    dist = simulate._support_classes(totals / totals.sum(), n)
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-15)
    support_size = (dist.counts > 0).sum(axis=1)
    assert np.all((dist.weights > simulate.WEIGHT_FLOOR) | (support_size == n))


# noiseless simulations whose pruning, a Gauss-Jordan tableau that ignored
# small negative coefficients and clamped the weights they drove negative,
# left residuals of 1.95e-6, 2.86e-2, 2.64e-4 and 7.80e-2
@pytest.mark.parametrize("n, k, l, seed", [(10, 5, 3, 1), (10, 5, 3, 2), (12, 5, 3, 0), (6, 8, 3, 6)])
def test_pruning_keeps_the_target_at_formerly_failing_noiseless_instances(
    bench_workloads, tmp_path, n, k, l, seed
):
    rng = np.random.default_rng([seed, n, k])
    inst = bench_workloads._quantum_instance(rng, n, k, l, "noiseless")
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8
    assert len(result["mixture"]["terms"]) <= l * (k - 1) + 1


# with classes at or below WEIGHT_FLOOR dropped before pruning, the first
# three instances above still missed their targets by 4.4e-11, 6.7e-11 and
# 1.2e-10: the dropped mass
@pytest.mark.parametrize("n, k, seed", [(10, 5, 1), (10, 5, 2), (12, 5, 0)])
def test_dust_classes_reach_the_pruning(bench_workloads, n, k, seed):
    from chansim import jsonio

    rng = np.random.default_rng([seed, n, k])
    inst = bench_workloads._quantum_instance(rng, n, k, 3, "noiseless")
    povm, states = jsonio.quantum_instance_from_json(inst.payload)
    assert simulate_quantum_noiseless(povm, states).residual <= 1e-13


# layers lighter than the transport's DROP_TOL were dropped, and their
# mass with them: these instances missed their targets by 4.5e-11 and 3.5e-11
@pytest.mark.parametrize("n, k", [(12, 4), (16, 4)])
def test_dust_layers_are_taken_off_the_transport_demand(bench_workloads, n, k):
    from chansim import jsonio

    inst = bench_workloads._quantum_instance(np.random.default_rng(3), n, k, 3, "delta:1/2")
    povm, states = jsonio.quantum_instance_from_json(inst.payload)
    assert simulate_quantum_noisy(povm, states, Delta(Fraction(1, 2))).residual <= 1e-13


def test_a_class_below_the_transport_drop_keeps_a_valid_column():
    # a class lighter than the transport's DROP_TOL still gets the slot
    # values of every order in the corral, so it stays a candidate with a
    # column that sums to 1
    from chansim.mixdisc import OutcomeDistribution
    from chansim.transport import DROP_TOL

    dust = DROP_TOL / 4
    classes = np.array([[0, 0], [0, 1], [1, 1]])
    dist = OutcomeDistribution(n=2, k=2, classes=classes, weights=np.array([0.5, 0.5 - dust, dust]))
    a = np.array([[0.75 - dust], [0.25 + dust]])
    values = simulate._corral_values(dist, a, np.array([[0.0, 1.0]]))
    assert values[0, 2, 1] == pytest.approx(0.5)
    w, decoders, states = simulate._class_terms(dist, values)
    assert w[-1] == dust and decoders[-1].tolist() == [1, 1]
    assert np.allclose(states.sum(axis=1), 1.0)


# the same instances at delta = 1/2: each has supports at or below
# WEIGHT_FLOOR, and their copies must not be lost either
@pytest.mark.parametrize("n, k, seed", [(10, 5, 1), (10, 5, 2), (12, 5, 0)])
def test_delta_dust_supports_reach_the_pruning(bench_workloads, n, k, seed):
    from chansim import jsonio
    from chansim.mixdisc import support_totals

    rng = np.random.default_rng([seed, n, k])
    inst = bench_workloads._quantum_instance(rng, n, k, 3, "delta:1/2")
    povm, states = jsonio.quantum_instance_from_json(inst.payload)
    totals = support_totals(povm)
    assert np.any((totals > 0.0) & (totals <= simulate.WEIGHT_FLOOR))
    assert simulate_quantum_noisy(povm, states, Delta(Fraction(1, 2))).residual <= 1e-13


def test_delta_noisy_quantum_past_the_class_cap(bench_workloads, tmp_path):
    # C(31, 20) = 84,672,315 classes, which the layered transport would
    # need, but only 2^12 - 1 = 4,095 supports
    rng = np.random.default_rng([1, 20, 12])
    inst = bench_workloads._quantum_instance(rng, 20, 12, 3, "delta:1/2")
    assert math.comb(20 + 12 - 1, 20) > DEFAULT_CAP
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8
    assert len(result["mixture"]["terms"]) <= 3 * (12 - 1) + 1


def test_delta_noisy_ball_past_the_class_cap(bench_workloads, tmp_path):
    # C(41, 30) = 1,121,099,408 classes, but only 2^12 - 1 = 4,095 supports
    inst = bench_workloads._ball_instance(
        np.random.default_rng([1, 30, 12]), 30, 12, 3, 3, Fraction(1, 2)
    )
    assert math.comb(30 + 12 - 1, 30) > DEFAULT_CAP
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8
    assert len(result["mixture"]["terms"]) <= 3 * (12 - 1) + 1


@pytest.mark.parametrize("n, k", [(2, 3), (3, 3), (4, 6), (6, 3), (5, 8)])
def test_copy_placements_expect_tr_e_copies_of_each_output(rng, monkeypatch, n, k):
    # the candidates that the copy-count instance of the stacked transport
    # places, as they reach _finalize
    from chansim.mixdisc import support_totals

    povm = random_povm(rng, n, k)
    dist = simulate._support_classes(support_totals(povm), n)
    traces = np.array([np.trace(e).real for e in povm])
    seen = []
    finalize = simulate._finalize

    def spy(target, weights, decoders, states, noise):
        seen.append((weights, decoders))
        return finalize(target, weights, decoders, states, noise)

    monkeypatch.setattr(simulate, "_finalize", spy)
    states = [random_density_floor(rng, n, 0.5) for _ in range(2)]
    check_simulation(simulate_quantum_noisy(povm, states, Delta(Fraction(1, 2))))
    ((weights, decoders),) = seen
    counts = np.array([np.bincount(d, minlength=k) for d in decoders])
    assert np.max(np.abs(weights @ counts - traces)) <= 1e-12
    # each candidate carries exactly the outputs of one support, and each
    # support's candidates share out its total
    row = {tuple(m): r for r, m in enumerate((dist.counts > 0).tolist())}
    support = np.array([row[tuple(m)] for m in (counts > 0).tolist()])
    by_support = np.bincount(support, weights=weights, minlength=len(dist.weights))
    assert np.max(np.abs(by_support - dist.weights)) <= 1e-15
    assert [tuple(d) for d in decoders.tolist()] == sorted(map(tuple, decoders.tolist()))


def _one_candidate_per_support(povm, states):
    """The noiseless support construction as it stood before the delta-noisy
    route joined it: one candidate per support, extra copies on the
    smallest output, each output's share on its first slot."""
    from chansim.channels import TransitionMatrix
    from chansim.mixdisc import support_totals

    a = born_matrix(povm, states)
    n = len(povm[0])
    dist = simulate._support_classes(support_totals(povm), n)
    values, _ = simulate._one_layer(dist, a, 1.0)
    decoders = dist.classes
    first = np.diff(decoders, axis=1, prepend=-1) != 0
    shares = (values * dist.counts)[:, np.arange(len(decoders))[:, None], decoders]
    x = np.where(first, shares, 0.0)
    x /= x.sum(axis=2, keepdims=True)
    x = x.transpose(1, 2, 0)
    matrices = protocol_matrices(decoders, x, dist.k)
    weights, keep = simulate._distinct_protocols(dist.weights, matrices)
    target = TransitionMatrix(a)
    return simulate._finalize(target, weights, decoders[keep], x[keep], Noiseless()).mixture


def test_support_route_at_delta_zero_is_one_candidate_per_support(rng):
    # bit for bit, through the noiseless entry point and a Delta(0) spec
    for _ in range(12):
        n, k = int(rng.integers(2, 11)), int(rng.integers(2, 13))
        povm, states = random_povm(rng, n, k), [random_density(rng, n) for _ in range(3)]
        expected = _one_candidate_per_support(povm, states)
        for mixture in (
            simulate_quantum_noiseless(povm, states).mixture,
            simulate_quantum_noisy(povm, states, Delta(0)).mixture,
        ):
            assert np.array_equal(mixture.weights, expected.weights)
            assert np.array_equal(mixture.decoders, expected.decoders)
            assert np.array_equal(mixture.states, expected.states)


@pytest.mark.parametrize(
    "route, instances",
    [("noiseless", 3), ("delta_half", 4), ("delta_one", 1), ("ball_half", 4), ("noisy_to_noiseless", 3)],
)
def test_one_transport_per_one_layer_simulation(rng, monkeypatch, route, instances):
    # the column instances and the copy-count instance are one stacked solve
    n, k, l = 3, 4, 3
    povm = random_povm(rng, n, k)
    calls = []
    solve = simulate.feasible_transport

    def spy(inst):
        calls.append(len(inst.supply))
        return solve(inst)

    monkeypatch.setattr(simulate, "feasible_transport", spy)
    if route == "noiseless":
        result = simulate_quantum_noiseless(povm, [random_density(rng, n) for _ in range(l)])
    elif route == "delta_half":
        states = [random_density_floor(rng, n, 0.5) for _ in range(l)]
        result = simulate_quantum_noisy(povm, states, Delta(Fraction(1, 2)))
    elif route == "delta_one":
        result = simulate_quantum_noisy(povm, [np.eye(n) / n] * l, Delta(1))
    elif route == "ball_half":
        effects = [BallEffect(c=c, v=v, norm_index=2) for c, v in random_ball_effects(rng, k, 2, 2)]
        states = [BallState(x=x, norm_index=2) for x in random_ball_states(rng, l, 2, 2)]
        result = simulate_ball(effects, states, delta=0.5)
    else:
        result = simulate_noisy_by_noiseless(*_n2n_case(rng, "delta"))
    check_simulation(result)
    assert calls == [instances]


def test_delta_one_quantum_is_the_copy_count_instance_alone(rng):
    # no column instance: every state is uniform, and the candidates place
    # tr E_i copies of each output
    n, k = 4, 5
    povm = random_povm(rng, n, k)
    result = simulate_quantum_noisy(povm, [np.eye(n) / n] * 2, Delta(1))
    check_simulation(result)
    assert np.array_equal(result.mixture.states, np.full(result.mixture.states.shape, 1 / n))


def test_delta_near_one_does_not_divide_by_one_minus_delta():
    # {0, 1} has det(E_0 + E_1) = 0.3 = <1|E_0 + E_1|1>, so sigma = |1><1|
    # leaves its transport no slack; B = (A - delta tr(E_i)/n) / (1 - delta)
    # turned round-off of 1e-16 into a deficit of 2.8e-5 at delta = 1 - 1e-12
    povm = [np.diag([0.5, 0.15]), np.diag([0.5, 0.15]), np.diag([0.0, 0.7])]
    for delta in (1 - 1e-8, 1 - 1e-10, 1 - 1e-12):
        rho = (1 - delta) * np.diag([0.0, 1.0]) + delta * np.eye(2) / 2
        result = simulate_quantum_noisy(povm, [rho, np.eye(2) / 2], Delta(delta))
        check_simulation(result)
        assert np.min(result.mixture.states) >= delta / 2


def test_noisy_simulation_at_a_lifted_size(bench_workloads, tmp_path):
    # noisy (14,5,3) spent 2.4 s of 2.9 s in the per-edge transport
    inst = bench_workloads._quantum_instance(np.random.default_rng(3), 14, 5, 3, "delta:1/2")
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8
    assert len(result["mixture"]["terms"]) <= 3 * (5 - 1) + 1


def test_pruning_meets_its_bound_at_a_formerly_failing_noisy_to_noiseless_instance(
    bench_workloads, tmp_path
):
    # the tableau's relative pivot threshold missed a basis column here and
    # kept 23 protocols against the bound of 3 * (8 - 1) + 1 = 22
    rng = np.random.default_rng([3, 16])
    inst = bench_workloads._noisy_to_noiseless_instance(rng, 16, 8, 3, 8, Fraction(3, 5))
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8
    assert len(result["mixture"]["terms"]) <= 3 * (8 - 1) + 1


def test_noisy_to_noiseless_at_a_scale_past_the_subset_enumeration(bench_workloads, tmp_path):
    # (n, d, l, k) = (20, 10, 3, 8): 184,756 subsets, one transport per
    # column over all of them took 1.5 s and about 290 MiB; the subsets fall
    # into at most C(17, 10) = 19,448 classes of decoded outputs
    rng = np.random.default_rng([3, 20])
    inst = bench_workloads._noisy_to_noiseless_instance(rng, 20, 10, 3, 8, Fraction(3, 5))
    result = _certify_and_verify(tmp_path, inst)
    assert result["residual"] <= 1e-8
    assert len(result["mixture"]["terms"]) <= 3 * (8 - 1) + 1


def test_a_pruning_that_misses_the_target_is_never_written(rng, monkeypatch, tmp_path):
    from chansim import jsonio
    from chansim.cli import main

    # 13 distinct support candidates for at most 2 * (5 - 1) + 1 = 9 terms,
    # so the pruning runs
    povm, states = random_povm(rng, 4, 5), [random_density(rng, 4) for _ in range(2)]
    exact = simulate.caratheodory

    def off_by_a_micro(weights, points):
        # move 1e-6 of weight between two survivors: same total, other sum
        keep, w = exact(weights, points)
        return keep, w + 1e-6 * (np.arange(len(w)) == 0) - 1e-6 * (np.arange(len(w)) == 1)

    monkeypatch.setattr(simulate, "caratheodory", off_by_a_micro)
    with pytest.raises(NumericalBreakdown, match="simulation: recomposition residual"):
        simulate_quantum_noiseless(povm, states)
    source, cert = tmp_path / "in.json", tmp_path / "cert.json"
    source.write_text(json.dumps(jsonio.quantum_instance_to_json(povm, states)))
    args = ["simulate", "quantum", "--in", str(source), "--noise", "noiseless", "--out", str(cert)]
    assert main(args) == 1
    assert not cert.exists()


def test_a_row_reduction_that_misses_the_matrix_is_never_written(monkeypatch, tmp_path):
    from chansim.cli import main

    a = np.full((3, 2), 1.0 / 3.0)
    exact = simulate.conditional_columns

    def off_by_a_micro(result):
        # move 1e-6 within the first term's columns, off its zero row 0: the
        # term stays stochastic, and the recomposition misses by 1e-6 / 3;
        # the columns come as one (l, terms, k) stack
        columns = exact(result)
        columns[:, 0, 1:] += [1e-6, -1e-6]
        return columns

    monkeypatch.setattr(simulate, "conditional_columns", off_by_a_micro)
    with pytest.raises(NumericalBreakdown, match="row reduction: recomposition residual"):
        reduce_rows(a)
    source, cert = tmp_path / "in.json", tmp_path / "cert.json"
    source.write_text(json.dumps({"matrix": a.tolist()}))
    assert main(["simulate", "reduce", "--in", str(source), "--out", str(cert)]) == 1
    assert not cert.exists()


def test_delta_simulation_decomposes_the_povm_and_the_states_once(rng, monkeypatch):
    # one stacked eigvalsh validates the 4 outcomes, one the 3 states, and
    # the states' spectra from it feed the noise-set test (k + 2l = 10 calls
    # when each matrix was decomposed alone and each state twice)
    povm = random_povm(rng, 3, 4)
    states = [random_density_floor(rng, 3, 0.5) for _ in range(3)]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    check_simulation(simulate_quantum_noisy(povm, states, Delta(Fraction(1, 2))), Delta(0.5))
    assert calls == [(4, 3, 3), (3, 3, 3)]


def _boundary_case(name):
    """A quantum input that fails validation, and the error it raises:
    (outcomes, states, error class, error index or None)."""
    half = np.eye(2) / 2
    if name == "outcomes of different sizes":
        return [half, half, np.zeros((3, 3))], [half], DimensionMismatch, None
    if name == "a state of another dimension":
        return [half, half], [half, np.eye(3) / 3], DimensionMismatch, None
    if name == "outcome 0 not PSD, outcome 2 not Hermitian":
        skew = np.array([[0.5, 0.25], [0.0, 0.25]])
        return [np.diag([-0.5, 0.5]), np.diag([1.0, 0.25]), skew], [half], NotPsd, 0
    assert name == "a state of trace 1 + 1e-6"
    return [half, half], [half, np.diag([0.5, 0.5 + 1e-6])], TraceNotOne, None


@pytest.mark.parametrize(
    "case",
    [
        "outcomes of different sizes",
        "a state of another dimension",
        "outcome 0 not PSD, outcome 2 not Hermitian",
        "a state of trace 1 + 1e-6",
    ],
)
@pytest.mark.parametrize("noise", ["noiseless", "delta:1/2", "permutohedron:[0.25, 0.75]"])
def test_quantum_input_errors_at_the_boundary(case, noise, tmp_path, capsys):
    # the same typed error, with the same index, through the library (from
    # the matrices and from the parsed file) and through the command line
    from chansim import jsonio
    from chansim.cli import main, parse_noise

    povm, states, error, index = _boundary_case(case)
    payload = jsonio.quantum_instance_to_json(povm, states)
    spec = parse_noise(noise)

    def simulate_from(outcomes, rhos):
        if noise == "noiseless":
            return simulate_quantum_noiseless(outcomes, rhos)
        return simulate_quantum_noisy(outcomes, rhos, spec)

    with pytest.raises(error) as exc:
        simulate_from(povm, states)
    assert getattr(exc.value, "index", None) == index
    with pytest.raises(error) as exc:
        simulate_from(*jsonio.quantum_instance_from_json(payload))
    assert getattr(exc.value, "index", None) == index
    source = tmp_path / "in.json"
    source.write_text(json.dumps(payload))
    capsys.readouterr()
    argv = ["simulate", "quantum", "--in", str(source), "--noise", noise]
    assert main(argv + ["--out", str(tmp_path / "cert.json")]) == 1
    assert f"chansim: {error.__name__}: " in capsys.readouterr().err
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.parametrize("noise", ["noiseless", "delta"])
def test_class_values_of_many_columns_match_one_column_at_a_time(rng, noise):
    # each column runs its own min-norm point: every value is the one its
    # column gets alone, and the first column that the corral misses is
    # named, with the distance it has alone
    from chansim.mixdisc import outcome_distribution

    raised = 0
    for _ in range(15):
        n, k, l = int(rng.integers(2, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 6))
        povm = random_povm(rng, n, k)
        dist = outcome_distribution(povm)
        if noise == "noiseless":
            rhos, base = [random_density(rng, n) for _ in range(l)], np.eye(n)[-1]
        else:
            rhos, base = [random_density_floor(rng, n, 0.5) for _ in range(l)], np.full(n, 0.5 / n)
            base[-1] += 0.5
        a = born_matrix(povm, rhos)
        # pull some columns toward one output: some of them become infeasible
        for j in range(l):
            if rng.random() < 0.4:
                s = rng.uniform(0.0, 1.0)
                a[:, j] = (1 - s) * a[:, j] + s * np.eye(k)[rng.integers(k)]
        mus = np.tile(base, (l, 1))
        alone = []
        for j in range(l):
            try:
                alone.append(simulate._corral_values(dist, a[:, [j]], mus[[j]])[0])
            except NumericalBreakdown as exc:
                alone.append(exc)
        failed = {j: r for j, r in enumerate(alone) if isinstance(r, NumericalBreakdown)}
        if not failed:
            assert np.array_equal(simulate._corral_values(dist, a, mus), np.array(alone))
            continue
        with pytest.raises(NumericalBreakdown) as exc:
            simulate._corral_values(dist, a, mus)
        # alone, each column is column 0
        where, what = str(exc.value).split(": ", 1)
        assert where == f"column {min(failed)}"
        assert str(failed[min(failed)]) == f"column 0: {what}"
        raised += 1
    assert raised >= 3


@pytest.mark.parametrize("noise", ["permutohedron", "per_column"])
def test_permutohedron_and_per_column_simulations_solve_no_transport(
    rng, monkeypatch, min_norm_ends, noise
):
    # each column is one min-norm point over greedy vertices; no
    # feasible_transport call is made, and every point reaches its column
    # (the autouse min_norm_ends fixture checks the distance)
    n, k, l = 3, 4, 3
    base = np.array([0.1, 0.3, 0.6])
    povm = random_povm(rng, n, k)
    states = [random_density_in_permutohedron(rng, base) for _ in range(l)]
    if noise == "permutohedron":
        spec = Permutohedron(base=tuple(base))
    else:
        states[1] = random_density_floor(rng, n, 0.5)
        spec = PerColumn(specs=(Permutohedron(base=tuple(base)), Delta(0.5), Permutohedron(base=tuple(base))))

    def no_transport(inst):
        raise AssertionError("feasible_transport called")

    monkeypatch.setattr(simulate, "feasible_transport", no_transport)
    check_simulation(simulate_quantum_noisy(povm, states, spec))
    assert [where for where, _ in min_norm_ends] == ["column 0", "column 1", "column 2"]


def test_a_min_norm_point_past_its_cycle_cap_names_the_column(rng, monkeypatch):
    from chansim import minnorm

    monkeypatch.setattr(minnorm, "MAX_CYCLES", 1)
    base = np.array([0.1, 0.3, 0.6])
    povm = random_povm(rng, 3, 4)
    states = [random_density_in_permutohedron(rng, base) for _ in range(2)]
    with pytest.raises(NumericalBreakdown, match="^column 0: no min-norm point after 1 major cycles$"):
        simulate_quantum_noisy(povm, states, Permutohedron(base=tuple(base)))
