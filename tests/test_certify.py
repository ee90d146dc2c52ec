import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from chansim.certify import (
    BinomialWitness,
    Polytope,
    holevo_chi,
    minkowski_asymmetry,
    mutual_information,
    noisy_signalling_dimension,
    pairwise_witness,
    permutohedron_simulable_by_d,
    replacer_bounds,
    storability,
    subset_witness,
    validate_polytope,
)
from chansim.channels import (
    ClassicalMixture,
    Noiseless,
    mixture_matrix,
    noisy_classical_extremals,
)
from chansim.errors import (
    BadRange,
    DimensionMismatch,
    EmptyInput,
    NotFinite,
    NotFullDimensional,
    NotStochastic,
    PolytopeMismatch,
    TraceNotOne,
    WeightSumNotOne,
)
from chansim.linalg import born_matrix
from conftest import random_density, random_povm, random_stochastic

OCTAHEDRON_MATRIX = 0.5 * np.array(
    [
        [1, 0, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 1, 0],
    ],
    dtype=float,
)


def octahedron_polytope():
    vertices = np.vstack([np.eye(3), -np.eye(3)])
    normals = np.array(list(product([-1.0, 1.0], repeat=3)))
    offsets = np.ones(len(normals))
    return Polytope(vertices=vertices, normals=normals, offsets=offsets)


def simplex_polytope(d):
    vertices = np.vstack([np.zeros(d), np.eye(d)])
    normals = np.vstack([-np.eye(d), np.ones((1, d))])
    offsets = np.concatenate([np.zeros(d), [1.0]])
    return Polytope(vertices=vertices, normals=normals, offsets=offsets)


def grid_asymmetry_oracle(poly, candidates):
    """Brute-force measure of asymmetry: minimize over candidate centers the
    worst chord ratio max (a.O - a.v) / (b - a.O)."""
    best = None
    for center in candidates:
        margins = poly.offsets - poly.normals @ center
        if np.any(margins <= 1e-9):
            continue
        ratios = (poly.normals @ center)[:, None] - poly.normals @ poly.vertices.T
        m = max(1.0, float(np.max(ratios / margins[:, None])))
        best = m if best is None else min(best, m)
    return best


def test_storability_basics():
    assert storability([np.eye(4)]) == pytest.approx(4.0)
    assert storability([np.full((3, 5), 1.0 / 3.0)]) == pytest.approx(1.0)
    assert storability([OCTAHEDRON_MATRIX]) == pytest.approx(2.0)
    with pytest.raises(EmptyInput):
        storability([])


def test_storability_of_d_state_mixtures(rng):
    # any mixture of d-state protocols has storability at most d
    for _ in range(20):
        k, d, l = 5, int(rng.integers(1, 4)), 3
        mix = ClassicalMixture(
            weights=rng.dirichlet(np.ones(4)),
            decoders=rng.integers(0, k, size=(4, d)),
            states=np.stack([random_stochastic(rng, d, l) for _ in range(4)]),
            num_outputs=k,
            num_states=d,
            noise=Noiseless(),
        )
        assert storability([mixture_matrix(mix)]) <= d + 1e-9


def test_pairwise_witness_octahedron():
    report = pairwise_witness(OCTAHEDRON_MATRIX, d=2)
    assert report.value == pytest.approx(6.0)
    assert report.bound == pytest.approx(5.0)
    assert report.violated


def test_pairwise_witness_identity_passes():
    report = pairwise_witness(np.eye(4), d=4)
    assert report.value == pytest.approx(6.0)
    assert report.bound == pytest.approx(6.0)
    assert report.passed


def test_pairwise_witness_flat_matrix():
    k, d = 5, 1
    report = pairwise_witness(np.full((k, 3), 1.0 / k), d=d)
    assert report.value == pytest.approx(math.comb(k, 2) * 2.0 / k)
    assert report.bound == pytest.approx(k - 1.0)
    assert report.passed


@pytest.mark.parametrize("d", [-3, 0, 5])
def test_pairwise_witness_requires_d_from_one_to_k(d):
    # d = -3 and d = 0 gave violated witnesses with bounds -15 and 0
    with pytest.raises(BadRange, match=f"got d={d}, k=4"):
        pairwise_witness(OCTAHEDRON_MATRIX, d=d)


def test_subset_witness_identity():
    report = subset_witness(np.eye(4), r=2, d=4)
    assert report.value == pytest.approx(0.0)
    assert report.bound == pytest.approx(0.0)
    assert report.passed


def test_subset_witness_permutation_columns(rng):
    # columns = all permutations of mu: the witness value equals
    # C(n,r) * (ascending prefix sum of mu)
    from itertools import permutations

    n = 4
    mu = np.sort(rng.dirichlet(np.ones(n)))
    cols = np.array(list(permutations(mu))).T
    for r in range(1, n + 1):
        report = subset_witness(cols, r=r, d=1)
        assert report.value == pytest.approx(math.comb(n, r) * mu[:r].sum(), abs=1e-9)


def test_subset_witness_octahedron_equivalent_to_pairwise():
    # r = k - 2 subset form of the pairwise inequality: same violation
    report = subset_witness(OCTAHEDRON_MATRIX, r=2, d=2)
    assert report.value == pytest.approx(0.0, abs=1e-12)
    assert report.bound == pytest.approx(1.0)
    assert report.violated


def test_witness_convexity_directions(rng):
    # subset (min-based) values are concave under mixing, pairwise
    # (max-based) values are convex: both preserve violations of mixtures
    for _ in range(20):
        a = random_stochastic(rng, 4, 3)
        b = random_stochastic(rng, 4, 3)
        lam = float(rng.uniform())
        mix = lam * a + (1 - lam) * b
        sub_mix = subset_witness(mix, r=3, d=2).value
        sub_parts = lam * subset_witness(a, r=3, d=2).value + (1 - lam) * subset_witness(
            b, r=3, d=2
        ).value
        assert sub_mix >= sub_parts - 1e-9
        pair_mix = pairwise_witness(mix, d=2).value
        pair_parts = lam * pairwise_witness(a, d=2).value + (1 - lam) * pairwise_witness(
            b, d=2
        ).value
        assert pair_mix <= pair_parts + 1e-9


def test_noisy_signalling_dimension_formula():
    assert noisy_signalling_dimension(5, 0) == 5
    assert noisy_signalling_dimension(5, 1) == 1
    assert noisy_signalling_dimension(4, Fraction(1, 3)) == 3
    # float delta at an exact integer boundary must not round up
    assert noisy_signalling_dimension(4, 1.0 / 3.0) == 3


def test_permutohedron_simulable_trivials(rng):
    for n in range(2, 9):
        for d in range(1, n + 1):
            assert permutohedron_simulable_by_d(np.ones(n) / n, d) is None
    witness = permutohedron_simulable_by_d(np.array([0.0, 0.0, 1.0]), 2)
    assert isinstance(witness, BinomialWitness)
    assert witness.r == 2


def test_permutohedron_simulable_arithmetic():
    assert permutohedron_simulable_by_d(np.array([1 / 6, 1 / 3, 1 / 2]), 2) is None


def test_signalling_dimension_cross_validation():
    # the closed-form dimension is the smallest d passing the prefix test
    for n in range(2, 9):
        for num in range(0, 11):
            delta = Fraction(num, 10)
            ext = np.sort(noisy_classical_extremals(n, delta)[0])
            smallest = next(
                d for d in range(1, n + 1) if permutohedron_simulable_by_d(ext, d) is None
            )
            assert smallest == noisy_signalling_dimension(n, delta)


def test_replacer_bounds():
    b = replacer_bounds(3, 0.5)
    assert (b.lower, b.upper) == (2, 3)
    b0 = replacer_bounds(4, 0.0)
    assert (b0.lower, b0.upper) == (4, 4)
    full = replacer_bounds(3, 0.5, spectrum=np.ones(3) / 3, n=3)
    assert full.exact == full.lower == noisy_signalling_dimension(3, 0.5)
    with pytest.raises(BadRange):
        replacer_bounds(5, 0.5, n=4)


@pytest.mark.parametrize(
    "spectrum, n, error",
    [
        ([1.0], 3, DimensionMismatch),
        ([0.5, 0.5], None, DimensionMismatch),
        (np.ones((3, 1)) / 3, 3, DimensionMismatch),
        ([np.nan] * 3, 3, NotFinite),
        ([0.5, np.inf, 0.5], None, NotFinite),
        ([0.5, 0.25, 0.5], 3, NotStochastic),
    ],
)
def test_replacer_bounds_requires_a_finite_spectrum_of_length_n(spectrum, n, error):
    # without n the input is not embedded, n = m, and the spectrum has length m
    with pytest.raises(error):
        replacer_bounds(3, Fraction(1, 2), spectrum=spectrum, n=n)
    assert replacer_bounds(3, Fraction(1, 2), spectrum=np.ones(3) / 3).exact == 2


def test_minkowski_asymmetry_octahedron():
    m = minkowski_asymmetry(octahedron_polytope())
    assert m == pytest.approx(1.0, abs=1e-6)


def test_minkowski_asymmetry_cube_symmetric():
    vertices = np.array(list(product([-1.0, 1.0], repeat=3)))
    normals = np.vstack([np.eye(3), -np.eye(3)])
    offsets = np.ones(6)
    m = minkowski_asymmetry(Polytope(vertices=vertices, normals=normals, offsets=offsets))
    assert m == pytest.approx(1.0, abs=1e-6)


def test_minkowski_asymmetry_simplex_matches_grid_oracle():
    for d in (2, 3):
        poly = simplex_polytope(d)
        m = minkowski_asymmetry(poly)
        assert m == pytest.approx(float(d), abs=1e-6)
        centroid = poly.vertices.mean(axis=0)
        grid = [centroid] + [
            centroid + 0.05 * step
            for step in np.random.default_rng(7).normal(size=(200, d))
        ]
        oracle = grid_asymmetry_oracle(poly, grid)
        assert oracle == pytest.approx(float(d), abs=1e-9)   # centroid is optimal
        assert m <= oracle + 1e-6


def test_minkowski_asymmetry_flat_body_rejected():
    flat = Polytope(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0]]),
        normals=np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]),
        offsets=np.array([0.0, 0.0, 1.0, 0.0]),
    )
    with pytest.raises(NotFullDimensional):
        minkowski_asymmetry(flat)


def test_validate_polytope_catches_mismatch():
    bad = Polytope(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        normals=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
        offsets=np.array([0.0, 0.0, 5.0]),
    )
    with pytest.raises(ValueError):
        validate_polytope(bad)


TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_validate_polytope_catches_a_mismatch_only_random_directions_see():
    # the unit square's facets: along each of their normals the triangle
    # reaches the same support, so only a sampled direction tells them apart
    square = Polytope(
        vertices=TRIANGLE,
        normals=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        offsets=np.array([1.0, 0.0, 1.0, 0.0]),
    )
    with pytest.raises(PolytopeMismatch, match=r"support 0\.6404\d* vs 0\.7453\d*"):
        validate_polytope(square)


def test_validate_polytope_accepts_a_redundant_facet():
    redundant = Polytope(
        vertices=TRIANGLE,
        normals=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, 1.0]]),
        offsets=np.array([0.0, 0.0, 1.0, 2.0]),
    )
    validate_polytope(redundant)
    assert minkowski_asymmetry(redundant) == pytest.approx(2.0, abs=1e-9)


def test_validate_polytope_rejects_an_unbounded_facet_description():
    wedge = Polytope(
        vertices=TRIANGLE, normals=np.array([[-1.0, 0.0], [0.0, -1.0]]), offsets=np.zeros(2)
    )
    with pytest.raises(PolytopeMismatch, match="unbounded"):
        validate_polytope(wedge)


def test_validate_polytope_skips_the_facet_normals_a_vertex_touches(monkeypatch):
    # every octahedron facet holds a vertex, so only the 8 random directions
    # need a solve
    from chansim import lp

    solved = []
    maximize_each = lp.maximize_each

    def spy(program, objectives):
        solved.append(len(objectives))
        return maximize_each(program, objectives)

    monkeypatch.setattr(lp, "maximize_each", spy)
    validate_polytope(octahedron_polytope())
    assert solved == [8]


@pytest.mark.parametrize("field", ["vertices", "normals", "offsets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polytope_rejects_non_finite_entries(field, bad):
    parts = {
        "vertices": TRIANGLE.copy(),
        "normals": np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
        "offsets": np.array([0.0, 0.0, 1.0]),
    }
    parts[field].flat[1] = bad
    with pytest.raises(NotFinite, match=field):
        Polytope(**parts)


def moved_polytope(p, seed):
    """p under a random invertible affine map, which keeps its asymmetry."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(p.dim, p.dim)))[0]
    lin = q @ np.diag(rng.uniform(0.5, 2.0, size=p.dim))
    shift = rng.normal(size=p.dim)
    normals = p.normals @ np.linalg.inv(lin)
    return Polytope(
        vertices=p.vertices @ lin.T + shift,
        normals=normals,
        offsets=p.offsets + normals @ shift,
    )


def prism_polytope(sides):
    """A regular polygon times [-1, 1]: sides + 2 facets, centrally symmetric."""
    angles = 2 * np.pi * np.arange(sides) / sides
    mids = angles + np.pi / sides
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    return Polytope(
        vertices=np.vstack([np.column_stack([ring, np.full(sides, z)]) for z in (-1.0, 1.0)]),
        normals=np.vstack([
            np.column_stack([np.cos(mids), np.sin(mids), np.zeros(sides)]),
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
        ]),
        offsets=np.concatenate([np.full(sides, np.cos(np.pi / sides)), [1.0, 1.0]]),
    )


def cross_polytope(d):
    return Polytope(
        vertices=np.vstack([np.eye(d), -np.eye(d)]),
        normals=np.array(list(product([-1.0, 1.0], repeat=d))),
        offsets=np.ones(2**d),
    )


@pytest.mark.parametrize(
    "make, m",
    [
        (lambda: moved_polytope(prism_polytope(60), 1), 1.0),
        (lambda: moved_polytope(cross_polytope(5), 2), 1.0),
        (lambda: simplex_polytope(6), 6.0),
    ],
    ids=["prism62", "cross5", "simplex6"],
)
def test_minkowski_asymmetry_of_larger_polytopes(make, m):
    poly = make()
    assert minkowski_asymmetry(poly) == pytest.approx(m, abs=1e-9)


def test_mutual_information_values():
    assert mutual_information(np.eye(2), np.array([0.5, 0.5])) == pytest.approx(1.0)
    assert mutual_information(
        np.array([[0.3, 0.3], [0.7, 0.7]]), np.array([0.5, 0.5])
    ) == pytest.approx(0.0, abs=1e-12)
    flip = 0.11
    bsc = np.array([[1 - flip, flip], [flip, 1 - flip]])
    h = -(flip * np.log2(flip) + (1 - flip) * np.log2(1 - flip))
    assert mutual_information(bsc, np.array([0.5, 0.5])) == pytest.approx(1 - h, abs=1e-3)


def test_holevo_chi_values(rng):
    pure = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert holevo_chi(pure, np.array([0.5, 0.5])) == pytest.approx(1.0)
    rho = random_density(rng, 2)
    assert holevo_chi([rho, rho], np.array([0.3, 0.7])) == pytest.approx(0.0, abs=1e-9)


def test_holevo_chi_requires_probability_weights_and_density_matrices(rng):
    # weights (0.7, 0.7) gave chi = -0.54, and a trace-2.5 state a chi at all
    rho = random_density(rng, 2)
    with pytest.raises(WeightSumNotOne):
        holevo_chi([rho, rho], np.array([0.7, 0.7]))
    with pytest.raises(TraceNotOne):
        holevo_chi([rho, 2.5 * rho], np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatch):
        holevo_chi([rho, rho], np.array([0.2, 0.3, 0.5]))


def test_holevo_bound_random_ensembles(rng):
    for _ in range(100):
        n, k, l = 2, 3, 3
        povm = random_povm(rng, n, k)
        states = [random_density(rng, n) for _ in range(l)]
        q = rng.dirichlet(np.ones(l))
        a = born_matrix(povm, states)
        assert mutual_information(a, q) <= holevo_chi(states, q) + 1e-9


def test_holevo_equality_commuting(rng):
    n = 3
    povm = [np.diag(row).astype(complex) for row in np.eye(n)]
    states = [np.diag(col).astype(complex) for col in random_stochastic(rng, n, 3).T]
    q = rng.dirichlet(np.ones(3))
    a = born_matrix(povm, states)
    assert mutual_information(a, q) == pytest.approx(holevo_chi(states, q), abs=1e-6)
