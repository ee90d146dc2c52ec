import numpy as np
import pytest

from chansim import minnorm
from chansim.errors import NumericalBreakdown
from chansim.minnorm import min_norm_point


def simplex_vertex(direction):
    """The vertex e_i of the probability simplex that minimizes <y, e_i>,
    labelled by i (the first on ties)."""
    i = int(np.argmin(direction))
    return i, np.eye(len(direction))[i]


def simplex_projection(a):
    """The Euclidean projection of a onto the probability simplex, by the
    sort-and-threshold rule."""
    u = np.sort(a)[::-1]
    cumulative = np.cumsum(u) - 1.0
    r = np.flatnonzero(u - cumulative / np.arange(1, len(a) + 1) > 0)[-1]
    return np.maximum(a - cumulative[r] / (r + 1), 0.0)


def test_a_point_inside_is_written_as_a_convex_mixture_of_vertices(rng):
    for _ in range(50):
        k = int(rng.integers(1, 9))
        a = rng.dirichlet(np.ones(k))
        corral = min_norm_point(simplex_vertex, a, "here")
        assert corral.distance <= 1e-14
        assert np.all(corral.weights > 0.0) and corral.weights.sum() == pytest.approx(1.0)
        vertices = np.eye(k)[list(corral.labels)]
        assert np.max(np.abs(corral.weights @ vertices - a)) <= 1e-14
        assert np.max(np.abs(corral.point - corral.weights @ vertices)) <= 1e-15


def test_a_point_outside_finds_its_projection(rng):
    for _ in range(50):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=k)
        corral = min_norm_point(simplex_vertex, a, "here")
        nearest = simplex_projection(a)
        assert np.max(np.abs(corral.point - nearest)) <= 1e-12
        assert corral.distance == pytest.approx(np.linalg.norm(a - nearest), abs=1e-12)
        # the corral is the support of the projection
        assert sorted(corral.labels) == np.flatnonzero(nearest > 1e-12).tolist()


def test_the_iteration_cap_raises_with_the_callers_label(monkeypatch):
    monkeypatch.setattr(minnorm, "MAX_CYCLES", 2)
    with pytest.raises(NumericalBreakdown, match=r"^column 3: no min-norm point after 2 major cycles$"):
        min_norm_point(simplex_vertex, np.full(5, 0.2), "column 3")
    # a point that needs fewer cycles is found
    assert min_norm_point(simplex_vertex, np.array([0.5, 0.5, 0.0]), "column 3").distance <= 1e-14
