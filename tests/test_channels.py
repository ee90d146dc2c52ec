from fractions import Fraction

import numpy as np
import pytest

from chansim import channels
from chansim.channels import (
    BallEffect,
    BallState,
    ClassicalMixture,
    ClassicalProtocol,
    Delta,
    Noiseless,
    PerColumn,
    Permutohedron,
    TransitionMatrix,
    ball_born_matrix,
    bracket,
    mixture_matrix,
    noise_bases,
    noisy_classical_extremals,
    protocol_matrices,
    protocol_matrix,
    satisfies_noise,
    validate_mixture,
)
from chansim.errors import (
    BadDelta,
    DimensionMismatch,
    LengthMismatch,
    NotFinite,
    NotPartitionOfUnity,
    PerColumnNoise,
    WeightSumNotOne,
)
from chansim.majorize import majorized_by_permutohedron
from conftest import (
    oracle_satisfies_noise,
    random_ball_effects,
    random_ball_states,
    random_stochastic,
    spec_for_column,
)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transition_matrix_rejects_non_finite(bad):
    with pytest.raises(NotFinite):
        TransitionMatrix(np.array([[bad, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_permutohedron_base_rejects_non_finite(bad):
    with pytest.raises(NotFinite):
        Permutohedron(base=(bad, 0.5, 0.5))


def test_extremals_noiseless():
    ext = noisy_classical_extremals(2, 0.0)
    assert np.allclose(ext[0], [1.0, 0.0])
    assert np.allclose(ext[1], [0.0, 1.0])


def test_extremals_fully_depolarized():
    ext = noisy_classical_extremals(2, 1.0)
    assert np.allclose(ext[0], [0.5, 0.5])
    assert np.allclose(ext[1], [0.5, 0.5])


def test_extremals_partial():
    ext = noisy_classical_extremals(3, 0.5)
    assert np.allclose(ext[0], [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])


def test_extremals_bad_delta():
    with pytest.raises(BadDelta):
        noisy_classical_extremals(3, 1.5)


def test_satisfies_noise_uniform_always():
    u = np.ones(4) / 4
    assert satisfies_noise(u, Noiseless())
    assert satisfies_noise(u, Delta(0.7))
    assert satisfies_noise(u, Permutohedron(base=(0.1, 0.2, 0.3, 0.4)))


def test_satisfies_noise_pure_state_fails_delta():
    assert not satisfies_noise(np.array([1.0, 0.0]), Delta(0.5))


def test_satisfies_noise_extremal_boundary():
    ext = noisy_classical_extremals(4, 0.6)[2]
    assert satisfies_noise(ext, Delta(0.6))
    assert min(ext) == pytest.approx(0.6 / 4)


def test_delta_matches_permutohedron_membership(rng):
    # Delta(d) membership is exactly membership in the permutohedron of the
    # extremal noisy state, both ways.
    for _ in range(100):
        n = int(rng.integers(2, 6))
        d = float(rng.uniform(0.0, 1.0))
        ext = noisy_classical_extremals(n, d)[0]
        x = rng.dirichlet(np.ones(n))
        assert oracle_satisfies_noise(x, Delta(d)) == majorized_by_permutohedron(x, ext)


def test_noise_bases_one_ascending_row_per_column():
    for n in range(1, 8):
        for d in (0.0, 0.3, 1.0, 1, Fraction(1, 3), Fraction(2, 7)):
            rows = noise_bases(Delta(d), n, 3)
            extremal = np.sort(noisy_classical_extremals(n, d)[0])
            assert rows.shape == (3, n)
            assert all(row.tobytes() == extremal.tobytes() for row in rows)
    assert noise_bases(Noiseless(), 3, 2).tolist() == [[0.0, 0.0, 1.0]] * 2
    assert noise_bases(Permutohedron(base=(0.5, 0.2, 0.3)), 3).tolist() == [[0.2, 0.3, 0.5]]
    per_column = PerColumn(specs=(Noiseless(), Delta(0.75)))
    assert noise_bases(per_column, 3, 2).tolist() == [[0.0, 0.0, 1.0], [0.25, 0.25, 0.5]]


def test_noise_bases_rejects_mismatched_specs():
    per_column = PerColumn(specs=(Noiseless(), Delta(0.75)))
    for l in (1, 3):
        with pytest.raises(DimensionMismatch, match=f"2 column specs for {l} columns"):
            noise_bases(per_column, 3, l)
    with pytest.raises(PerColumnNoise):
        noise_bases(per_column, 3)
    with pytest.raises(TypeError):
        satisfies_noise(np.ones(3) / 3, per_column)
    with pytest.raises(LengthMismatch):
        noise_bases(Permutohedron(base=(0.5, 0.5)), 3, 1)


@pytest.mark.parametrize(
    "x, spec, by_entries, by_prefixes",
    [
        # two entries 0.6e-9 under the floor: each is within tol, their sum
        # (the second prefix) is not
        ((-0.6e-9, -0.6e-9, 1 + 1.2e-9), Noiseless(), True, False),
        ((1 / 6 - 0.6e-9, 1 / 6 - 0.6e-9, 2 / 3 + 1.2e-9), Delta(Fraction(1, 2)), True, False),
        # one entry under the floor: the first prefix has the same tol
        ((-0.9e-9, 0.5, 0.5 + 0.9e-9), Noiseless(), True, True),
        ((-1.1e-9, 0.5, 0.5 + 1.1e-9), Noiseless(), False, False),
        ((1 / 6 - 0.9e-9, 1 / 3, 1 / 2 + 0.9e-9), Delta(Fraction(1, 2)), True, True),
        ((1 / 6 - 1.1e-9, 1 / 3, 1 / 2 + 1.1e-9), Delta(Fraction(1, 2)), False, False),
    ],
)
def test_noise_membership_boundary_is_the_prefix_test(x, spec, by_entries, by_prefixes):
    # the prefix test is stricter than entrywise floors by up to (r-1) tol
    # at the r-th ascending prefix
    assert oracle_satisfies_noise(x, spec) is by_entries
    assert satisfies_noise(x, spec) is by_prefixes


def test_protocol_matrix_identity():
    p = ClassicalProtocol(decoder=np.arange(2), states=np.eye(2), num_outputs=2)
    assert np.allclose(protocol_matrix(p).matrix, np.eye(2))


def test_protocol_matrix_column_sums(rng):
    for _ in range(20):
        n, k, l = (int(x) for x in rng.integers(2, 5, size=3))
        p = ClassicalProtocol(
            decoder=rng.integers(0, k, size=n),
            states=random_stochastic(rng, n, l),
            num_outputs=k,
        )
        a = protocol_matrix(p)
        assert np.max(np.abs(a.matrix.sum(axis=0) - 1.0)) < 1e-10


def test_mixture_matrix_swapped_decoders():
    x = np.eye(2)
    mix = ClassicalMixture(
        weights=np.array([0.5, 0.5]),
        decoders=np.array([[0, 1], [1, 0]]),
        states=np.stack([x, x]),
        num_outputs=2,
        num_states=2,
        noise=Noiseless(),
    )
    assert np.allclose(mixture_matrix(mix).matrix, 0.5)


def test_mixture_weight_sum_checked():
    with pytest.raises(WeightSumNotOne):
        ClassicalMixture(
            weights=np.array([0.5]),
            decoders=np.array([[0]]),
            states=np.ones((1, 1, 1)),
            num_outputs=1,
            num_states=1,
            noise=Noiseless(),
        )


def test_validate_mixture_noise_and_percolumn():
    states = np.array([[[0.5, 0.1], [0.5, 0.9]]])
    ok = ClassicalMixture(
        weights=np.array([1.0]),
        decoders=np.array([[0, 1]]),
        states=states,
        num_outputs=2,
        num_states=2,
        noise=PerColumn(specs=(Delta(0.8), Delta(0.2))),
    )
    validate_mixture(ok)
    bad = ClassicalMixture(
        weights=np.array([1.0]),
        decoders=np.array([[0, 1]]),
        states=states,
        num_outputs=2,
        num_states=2,
        noise=Delta(0.5),
    )
    with pytest.raises(ValueError):
        validate_mixture(bad)


def _random_column(rng, n, spec):
    """A probability vector near the boundary of the noise set of spec:
    inside it, outside it, or off by round-off either way."""
    kind = int(rng.integers(5))
    if kind == 0:  # anywhere in the simplex
        return rng.dirichlet(np.ones(n) * 0.5)
    if kind == 1:  # a vertex with an entry at -5e-10, still summing to 1
        x = np.zeros(n)
        x[rng.integers(n)] = 1.0 + 5e-10
        x[rng.integers(n)] -= 5e-10
        return x
    if isinstance(spec, Delta):
        floor = float(spec.delta) / n
        inside = floor + (1.0 - n * floor) * rng.dirichlet(np.ones(n) * 0.5)
    elif isinstance(spec, Permutohedron):
        base = np.asarray(spec.base)
        perms = [base[rng.permutation(n)] for _ in range(int(rng.integers(1, 4)))]
        inside = rng.dirichlet(np.ones(len(perms))) @ np.array(perms)
    else:
        inside = rng.dirichlet(np.ones(n))
    # kind 2 sums to 1 + 5e-10; kind 4 sits 1e-12 below a delta floor
    return inside * (1.0 + 5e-10 * (kind == 2)) - 1e-12 * (kind == 4)


def _random_spec(rng, n):
    kind = int(rng.integers(3))
    if kind == 0:
        return Noiseless()
    if kind == 1:
        exact = rng.random() < 0.5
        return Delta(Fraction(int(rng.integers(0, 4)), 4) if exact else float(rng.random()))
    return Permutohedron(base=tuple(rng.dirichlet(np.ones(n))))


@pytest.mark.parametrize("kind", ["noiseless", "delta", "permutohedron", "per_column"])
def test_validate_mixture_matches_per_column_oracle(rng, monkeypatch, kind):
    # the array check against the per-kind oracle on every (term, column), in
    # term-major order; both verdicts must occur. The check runs at a
    # tolerance below the one the mixture was built with, so that the
    # round-off columns fall on both sides
    verdicts = set()
    for _ in range(150):
        num_terms, n, l = (int(x) for x in rng.integers(1, 5, size=3))
        n += 1
        if kind == "noiseless":
            noise = Noiseless()
        elif kind == "delta":
            noise = Delta(float(rng.random()))
        elif kind == "permutohedron":
            noise = Permutohedron(base=tuple(rng.dirichlet(np.ones(n) * 0.5)))
        else:
            noise = PerColumn(specs=tuple(_random_spec(rng, n) for _ in range(l)))
        states = np.array(
            [
                [_random_column(rng, n, spec_for_column(noise, j)) for j in range(l)]
                for _ in range(num_terms)
            ]
        ).transpose(0, 2, 1)
        mix = ClassicalMixture(
            weights=np.full(num_terms, 1.0 / num_terms),
            decoders=rng.integers(0, 3, size=(num_terms, n)),
            states=states,
            num_outputs=3,
            num_states=n,
            noise=noise,
        )
        tol = 1e-10
        failing = [
            j
            for t in range(num_terms)
            for j in range(l)
            if not oracle_satisfies_noise(states[t, :, j], spec_for_column(noise, j), tol)
        ]
        verdicts.add(not failing)
        with monkeypatch.context() as patch:
            patch.setattr(channels, "STOCHASTIC_TOL", tol)
            if failing:
                with pytest.raises(ValueError, match=f"state column {failing[0]} violates"):
                    validate_mixture(mix)
            else:
                validate_mixture(mix)
    assert verdicts == {True, False}


def test_mixture_rejects_mismatched_arrays_at_construction():
    good = dict(
        weights=np.array([0.25, 0.75]),
        decoders=np.array([[0, 1], [1, 1]]),
        states=np.stack([np.eye(2), np.full((2, 2), 0.5)]),
        num_outputs=2,
        num_states=2,
        noise=Noiseless(),
    )
    ClassicalMixture(**good)
    cases = [
        ({"decoders": np.array([[0, 1, 1], [1, 1, 0]])}, DimensionMismatch),
        ({"weights": np.array([1.0])}, DimensionMismatch),
        ({"decoders": np.array([[0, 2], [1, 1]])}, DimensionMismatch),
        ({"num_states": 1}, DimensionMismatch),
        ({"weights": np.array([np.nan, 1.0])}, NotFinite),
        ({"states": np.stack([np.eye(2), [[1.5, 0.5], [-0.5, 0.5]]])}, ValueError),
        ({"states": np.stack([np.eye(2), np.full((2, 2), 0.4)])}, ValueError),
        ({"weights": np.array([1.25, -0.25])}, WeightSumNotOne),
    ]
    for change, error in cases:
        with pytest.raises(error):
            ClassicalMixture(**{**good, **change})


def test_mixture_terms_view_and_read_only_arrays():
    mix = ClassicalMixture(
        weights=np.array([0.25, 0.75]),
        decoders=np.array([[0, 1], [1, 1]]),
        states=np.stack([np.eye(2), np.full((2, 2), 0.5)]),
        num_outputs=2,
        num_states=2,
        noise=Noiseless(),
    )
    (w0, p0), (w1, p1) = mix.terms
    assert (w0, w1) == (0.25, 0.75)
    assert np.array_equal(p1.decoder, [1, 1]) and np.array_equal(p0.states, np.eye(2))
    with pytest.raises(ValueError):
        mix.weights[0] = 1.0


def test_mixture_keeps_its_own_copies_of_the_arrays():
    weights, decoders = np.array([0.25, 0.75]), np.array([[0, 1], [1, 1]])
    states = np.stack([np.eye(2), np.full((2, 2), 0.5)])
    mix = ClassicalMixture(
        weights=weights, decoders=decoders, states=states,
        num_outputs=2, num_states=2, noise=Noiseless(),
    )
    weights[0], decoders[0, 0], states[0] = 5.0, 7, -1.0
    assert np.array_equal(mix.weights, [0.25, 0.75])
    assert np.array_equal(mix.decoders, [[0, 1], [1, 1]])
    assert np.array_equal(mix.states[0], np.eye(2))
    assert weights.flags.writeable and states.flags.writeable


def test_mixture_matrix_equals_the_per_term_products(rng):
    # one bincount and a sum in term order against the weighted sum of the
    # products E_t X_t taken term by term; BLAS may add the n states of an
    # entry in another order, so each entry may differ by n roundings
    for _ in range(200):
        num_terms, n, k, l = (int(x) for x in rng.integers(1, 7, size=4))
        mix = ClassicalMixture(
            weights=rng.dirichlet(np.ones(num_terms)),
            decoders=rng.integers(0, k, size=(num_terms, n)),
            states=np.stack([random_stochastic(rng, n, l) for _ in range(num_terms)]),
            num_outputs=k,
            num_states=n,
            noise=Noiseless(),
        )
        total = None
        for w, p in mix.terms:
            term = w * protocol_matrix(p).matrix
            total = term if total is None else total + term
        assert np.max(np.abs(mixture_matrix(mix).matrix - total)) <= n * np.finfo(float).eps


def test_protocol_matrices_match_an_add_at_reference(rng):
    # the weighted bincount over (term, output, column) bins adds each bin's
    # states in state order, as np.add.at does, so the stacks are equal bit
    # for bit; few outputs make decoders repeat outputs within a term
    for _ in range(200):
        num_terms, n, l = (int(x) for x in rng.integers(1, 9, size=3))
        k = int(rng.integers(1, 4))
        decoders = rng.integers(0, k, size=(num_terms, n))
        states = rng.random((num_terms, n, l))
        reference = np.zeros((num_terms, k, l))
        np.add.at(reference, (np.arange(num_terms)[:, None], decoders), states)
        assert np.array_equal(protocol_matrices(decoders, states, k), reference)


def test_bracket_unit_effects():
    unit = BallEffect(c=1.0, v=np.zeros(3), norm_index=2)
    half = BallEffect(c=0.5, v=np.zeros(3), norm_index=2)
    assert bracket([unit, unit]) == pytest.approx(1.0)
    assert bracket([half, half]) == pytest.approx(0.25)


def test_bracket_null_effect():
    e = BallEffect(c=0.5, v=np.array([0.5, 0.0]), norm_index=2)
    assert bracket([e, e]) == pytest.approx(0.0)


def test_bracket_nonnegative_on_effects(rng):
    for _ in range(100):
        n = 2 if rng.random() < 0.5 else 4
        effects = [
            BallEffect(c=c, v=v, norm_index=n)
            for c, v in random_ball_effects(rng, n, int(rng.integers(1, 4)), n)
        ]
        assert bracket(effects) >= -1e-10


def test_bracket_symmetric_multilinear(rng):
    effs = [
        BallEffect(c=c, v=v, norm_index=4)
        for c, v in random_ball_effects(rng, 4, 2, 4)
    ]
    base = bracket(effs)
    shuffled = [effs[2], effs[0], effs[3], effs[1]]
    assert bracket(shuffled) == pytest.approx(base, abs=1e-10)
    # multilinearity in the first slot
    a, b = effs[0], effs[1]
    lam = 0.3
    mixed = BallEffect(c=lam * a.c + (1 - lam) * b.c, v=lam * a.v + (1 - lam) * b.v, norm_index=4)
    lhs = bracket([mixed, effs[1], effs[2], effs[3]])
    rhs = lam * bracket([a, effs[1], effs[2], effs[3]]) + (1 - lam) * bracket(
        [b, effs[1], effs[2], effs[3]]
    )
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_odd_norm_index_rejected():
    with pytest.raises(Exception):
        BallEffect(c=1.0, v=np.zeros(2), norm_index=3)


def test_ball_born_matrix_delta_one_constant_columns(rng):
    effects = [
        BallEffect(c=c, v=v, norm_index=2)
        for c, v in random_ball_effects(rng, 3, 2, 2)
    ]
    states = [BallState(x=x, norm_index=2) for x in random_ball_states(rng, 3, 2, 2)]
    a = ball_born_matrix(effects, states, delta=1.0)
    for j in range(1, 3):
        assert np.allclose(a.matrix[:, j], a.matrix[:, 0])
    assert np.allclose(a.matrix[:, 0], [e.c for e in effects])


def test_ball_born_matrix_antipodal_identity():
    v = np.array([1.0, 0.0])
    effects = [
        BallEffect(c=0.5, v=0.5 * v, norm_index=2),
        BallEffect(c=0.5, v=-0.5 * v, norm_index=2),
    ]
    states = [BallState(x=v, norm_index=2), BallState(x=-v, norm_index=2)]
    a = ball_born_matrix(effects, states, delta=0.0)
    assert np.allclose(a.matrix, np.eye(2))


def test_ball_born_matrix_column_sums_and_decomposition(rng):
    for _ in range(20):
        n = 2 if rng.random() < 0.5 else 4
        k, l, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        effects = [
            BallEffect(c=c, v=v, norm_index=n) for c, v in random_ball_effects(rng, k, dim, n)
        ]
        states = [BallState(x=x, norm_index=n) for x in random_ball_states(rng, l, dim, n)]
        d = float(rng.uniform(0, 1))
        a = ball_born_matrix(effects, states, delta=d)
        assert np.max(np.abs(a.matrix.sum(axis=0) - 1.0)) < 1e-10
        # A = delta C + (1 - delta) A' with C the constant-column matrix
        aprime = ball_born_matrix(effects, states, delta=0.0)
        c = np.tile(np.array([e.c for e in effects])[:, None], (1, l))
        assert np.max(np.abs(a.matrix - (d * c + (1 - d) * aprime.matrix))) < 1e-12


def test_ball_born_matrix_partition_checked(rng):
    effects = [BallEffect(c=0.7, v=np.zeros(2), norm_index=2)] * 2
    states = [BallState(x=np.zeros(2), norm_index=2)]
    with pytest.raises(NotPartitionOfUnity):
        ball_born_matrix(effects, states)


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.5, 0.2], [0.2, 0.2]]))
    with pytest.raises(DimensionMismatch):
        TransitionMatrix(np.ones(3))
