"""Shared random-instance generators for the test suites.

All randomness flows through explicit numpy Generators seeded per test, so
every suite is reproducible.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import settings

from chansim import simulate
from chansim.channels import Delta, Noiseless, PerColumn, Permutohedron

# every property test draws the same examples on every run, writes no example
# database into the working directory and has no per-example deadline
settings.register_profile("chansim", derandomize=True, database=None, deadline=None)
settings.load_profile("chansim")


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_density_floor(rng: np.random.Generator, n: int, delta: float) -> np.ndarray:
    """Density matrix with every eigenvalue >= delta/n."""
    return (1 - delta) * random_density(rng, n) + (delta / n) * np.eye(n)


def random_density_in_permutohedron(
    rng: np.random.Generator, base: np.ndarray
) -> np.ndarray:
    """Random density matrix whose spectrum is a convex mix of permutations of base."""
    n = len(base)
    spec = random_point_in_permutohedron(rng, base)
    u = random_unitary(rng, n)
    return u @ np.diag(spec) @ u.conj().T


def random_point_in_permutohedron(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    base = np.asarray(base, dtype=float)
    terms = rng.integers(2, 6)
    w = rng.dirichlet(np.ones(terms))
    out = np.zeros_like(base)
    for t in range(terms):
        out += w[t] * rng.permutation(base)
    return out


def random_povm(rng: np.random.Generator, n: int, k: int) -> list[np.ndarray]:
    """Random POVM via symmetric normalization of random positive matrices."""
    raws = []
    for _ in range(k):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        raws.append(g @ g.conj().T)
    total = sum(raws)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    povm = [inv_sqrt @ a @ inv_sqrt for a in raws]
    return [(e + e.conj().T) / 2 for e in povm]


def random_stochastic(rng: np.random.Generator, k: int, l: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k), size=l).T


def random_ball_effects(
    rng: np.random.Generator, k: int, dim: int, norm_index: int
) -> list[tuple[float, np.ndarray]]:
    """Random partition of unity on the n/(n-1)-norm unit ball: (c_i, v_i) pairs."""
    vs = rng.normal(size=(k, dim))
    vs -= vs.mean(axis=0)
    norms = np.sum(np.abs(vs) ** norm_index, axis=1) ** (1.0 / norm_index)
    budget = rng.uniform(0.3, 0.9)
    total = norms.sum()
    if total > 0:
        vs *= budget / total
        norms *= budget / total
    cs = norms + (1.0 - norms.sum()) * rng.dirichlet(np.ones(k))
    return [(float(cs[i]), vs[i]) for i in range(k)]


def random_ball_states(
    rng: np.random.Generator, l: int, dim: int, norm_index: int
) -> list[np.ndarray]:
    dual = norm_index / (norm_index - 1)
    states = []
    for _ in range(l):
        x = rng.normal(size=dim)
        nrm = np.sum(np.abs(x) ** dual) ** (1.0 / dual)
        states.append(x * rng.uniform(0.0, 1.0) / max(nrm, 1e-12))
    return states


def multiset_classes(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All sorted index multisets of length n over alphabet range(k), lex order."""
    return combinations_with_replacement(range(k), n)


def multiplicity(ms: tuple[int, ...]) -> int:
    """Number of distinct orderings of the multiset ``ms``."""
    counts = Counter(ms)
    out = math.factorial(len(ms))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def char_poly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalue oracle: Faddeev-LeVerrier coefficients + companion roots."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)


def spec_for_column(spec, j: int):
    """Oracle: the noise spec of input column j."""
    return spec.specs[j] if isinstance(spec, PerColumn) else spec


def oracle_satisfies_noise(x, spec, tol: float = 1e-9) -> bool:
    """Oracle for noise membership, one rule per kind of spec: entrywise
    floors (0 or delta/n) and a total of 1 for ``Noiseless`` and ``Delta``;
    for ``Permutohedron``, totals within tol and the ascending prefix sums
    of x at least those of the base, less tol."""
    v = np.asarray(x, dtype=float)
    if isinstance(spec, Noiseless):
        return bool(np.all(v >= -tol) and abs(v.sum() - 1.0) <= tol)
    if isinstance(spec, Delta):
        floor = float(spec.delta) / len(v)
        return bool(np.all(v >= floor - tol) and abs(v.sum() - 1.0) <= tol)
    if isinstance(spec, Permutohedron):
        xs, ms = np.sort(v), np.sort(np.asarray(spec.base, dtype=float))
        if abs(xs.sum() - ms.sum()) > tol:
            return False
        return bool(np.all(np.cumsum(xs)[:-1] >= np.cumsum(ms)[:-1] - tol))
    raise TypeError(f"no oracle for {type(spec).__name__}")


# the end point every accepted min-norm point must reach; the simulation
# itself refuses only points farther than simulate.CORRAL_TOL
MIN_NORM_END = 1e-12


@pytest.fixture(autouse=True)
def min_norm_ends(monkeypatch):
    """Every min-norm point that a permutohedron or per-column simulation
    accepts, in any test, lies within MIN_NORM_END of its column. Yields
    the (where, distance) of each accepted point; a point that the
    simulation refuses (past CORRAL_TOL) is not recorded."""
    accepted = []
    solve = simulate.min_norm_point

    def recorded(oracle, target, where):
        corral = solve(oracle, target, where)
        if corral.distance <= simulate.CORRAL_TOL:
            accepted.append((where, corral.distance))
        return corral

    monkeypatch.setattr(simulate, "min_norm_point", recorded)
    yield accepted
    far = [(where, d) for where, d in accepted if d > MIN_NORM_END]
    assert not far, f"min-norm points end past {MIN_NORM_END:g}: {far}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's instance generators, ``bench/workloads.py``, loaded
    read-only by path, so tests can rebuild its instances at other sizes."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
