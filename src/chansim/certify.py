"""Witnesses, bounds, and diagnostics for classical simulability.

The subset/pairwise witnesses certify lower bounds on how many noiseless
classical states a channel matrix needs; the binomial prefix-sum test
decides d-state simulability of permutation-invariant noise sets; the
Minkowski asymmetry of a polytope gives its information storability via an
LP over candidate centers; mutual information and the Holevo quantity are
numeric diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from . import lp
from .channels import Rational, as_transition
from .errors import (
    BadDelta,
    BadRange,
    DimensionMismatch,
    EmptyInput,
    LpInfeasible,
    NotFullDimensional,
)
from .linalg import shannon_entropy, von_neumann_entropy

SLACK = 1e-9
BOUNDARY_GUARD = 1e-12


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a witness evaluation: the measured value, the bound it is
    compared against, the comparison verdict, and the parameters used."""

    kind: str
    value: float
    bound: float
    params: dict
    passed: bool

    @property
    def violated(self) -> bool:
        return not self.passed


@dataclass(frozen=True)
class BinomialWitness:
    """Index r at which the prefix-sum criterion fails, with both sides."""

    r: int
    prefix_sum: float
    bound: float


def storability(matrices: Sequence) -> float:
    """Maximum over the supplied matrices of the sum of row maxima."""
    if not matrices:
        raise EmptyInput("storability of an empty collection")
    best = None
    k = None
    for m in matrices:
        a = as_transition(m).matrix
        if k is None:
            k = a.shape[0]
        elif a.shape[0] != k:
            raise DimensionMismatch("matrices must share the output count")
        val = float(a.max(axis=1).sum())
        best = val if best is None else max(best, val)
    return best


def subset_witness(m, r: int, d: int) -> WitnessReport:
    """Sum over r-subsets of rows of the worst-column subset mass.

    Any matrix simulable with d noiseless states satisfies
    value >= C(k-d, k-r); a violation certifies non-simulability.
    """
    a = as_transition(m).matrix
    k = a.shape[0]
    if not (1 <= d <= k and 1 <= r <= k):
        raise BadRange(f"need 1 <= d <= k and 1 <= r <= k, got d={d}, r={r}, k={k}")
    value = 0.0
    for subset in combinations(range(k), r):
        value += float(a[list(subset), :].sum(axis=0).min())
    bound = float(math.comb(k - d, k - r))
    return WitnessReport(
        kind="subset",
        value=value,
        bound=bound,
        params={"r": r, "d": d, "k": k},
        passed=value >= bound - SLACK,
    )


def pairwise_witness(m, d: int) -> WitnessReport:
    """Sum over row pairs of the best-column pair mass.

    Simulable with d states implies value <= C(k,2) - C(k-d,2); a violation
    certifies signalling dimension > d.
    """
    a = as_transition(m).matrix
    k = a.shape[0]
    if k < 2:
        raise BadRange("need at least two output rows")
    value = 0.0
    for i, ip in combinations(range(k), 2):
        value += float((a[i, :] + a[ip, :]).max())
    bound = float(math.comb(k, 2) - math.comb(max(k - d, 0), 2))
    return WitnessReport(
        kind="pairwise",
        value=value,
        bound=bound,
        params={"d": d, "k": k},
        passed=value <= bound + SLACK,
    )


def _guarded_ceil(value: float, scale: float) -> int:
    snapped = round(value)
    if abs(value - snapped) <= BOUNDARY_GUARD * max(1.0, scale):
        return int(snapped)
    return int(math.ceil(value))


def noisy_signalling_dimension(n: int, delta: Rational) -> int:
    """Smallest noiseless state count simulating the delta-noisy n-state
    channel: the ceiling of (1-delta) n + delta, computed exactly for
    rational delta and with a boundary guard for floats."""
    if n < 1:
        raise BadRange(f"need n >= 1, got {n}")
    if not 0 <= float(delta) <= 1:
        raise BadDelta(f"delta={delta!r} outside [0, 1]")
    if isinstance(delta, (Fraction, int)):
        frac = Fraction(delta)
        return int(math.ceil((1 - frac) * n + frac))
    return _guarded_ceil((1.0 - delta) * n + delta, float(n))


def permutohedron_simulable_by_d(mu, d: int, tol: float = SLACK) -> BinomialWitness | None:
    """Prefix-sum criterion for simulating the permutohedron of mu with d
    noiseless states: ascending prefix sums must dominate C(r,d)/C(n,d).

    Returns None on pass, else the largest failing r (the binding index).
    """
    vec = np.sort(np.asarray(mu, dtype=float))
    n = len(vec)
    if not 1 <= d <= n:
        raise BadRange(f"need 1 <= d <= n, got d={d}, n={n}")
    prefix = np.cumsum(vec)
    total = math.comb(n, d)
    for r in range(n - 1, d - 1, -1):
        bound = math.comb(r, d) / total
        if prefix[r - 1] < bound - tol:
            return BinomialWitness(r=r, prefix_sum=float(prefix[r - 1]), bound=bound)
    return None


@dataclass(frozen=True)
class ReplacerBounds:
    lower: int
    upper: int
    exact: int | None


def replacer_bounds(
    m: int, delta: Rational, spectrum=None, n: int | None = None
) -> ReplacerBounds:
    """Signalling-dimension bounds for the partial replacer channel on an
    m-dimensional input embedded in dimension n.

    ``exact`` is the lower bound when m = n and the replacement state's
    ascending spectrum satisfies delta * prefix_r >= C(r, lower)/C(n, lower)
    for r = lower .. n-1 (in particular for the maximally mixed state).
    """
    if m < 1 or (n is not None and m > n):
        raise BadRange(f"need 1 <= m <= n, got m={m}, n={n}")
    if not 0 <= float(delta) <= 1:
        raise BadDelta(f"delta={delta!r} outside [0, 1]")
    lower = noisy_signalling_dimension(m, delta)
    if isinstance(delta, (Fraction, int)):
        frac = Fraction(delta)
        raw_upper = int(math.ceil((1 - frac) * m + 1))
    else:
        raw_upper = _guarded_ceil((1.0 - float(delta)) * m + 1.0, float(m))
    upper = min(m, raw_upper)

    exact = None
    if spectrum is not None and n is not None and m == n:
        vec = np.sort(np.asarray(spectrum, dtype=float))
        prefix = np.cumsum(vec)
        total = math.comb(n, lower)
        ok = all(
            float(delta) * prefix[r - 1] >= math.comb(r, lower) / total - SLACK
            for r in range(lower, n)
        )
        if ok:
            exact = lower
    return ReplacerBounds(lower=lower, upper=upper, exact=exact)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Vertex-and-facet description: points plus halfplanes a.x <= b."""

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.asarray(self.offsets, dtype=float).ravel()
        if a.shape[0] != b.shape[0] or a.shape[1] != v.shape[1]:
            raise DimensionMismatch("facet normals, offsets, and vertices disagree in shape")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


def validate_polytope(p: Polytope, tol: float = SLACK, directions: int = 8) -> None:
    """Vertices must satisfy every facet; spot-check that both descriptions
    bound the same body by comparing support values along sampled
    directions (facet normals plus a few seeded random ones)."""
    slack = p.normals @ p.vertices.T - p.offsets[:, None]
    if np.max(slack) > tol:
        raise ValueError(f"a vertex violates a facet by {float(np.max(slack)):.3e}")
    rng = np.random.default_rng(0)
    dirs = list(p.normals) + list(rng.normal(size=(directions, p.dim)))
    for direction in dirs:
        vertex_support = float(np.max(p.vertices @ direction))
        program = lp.LinearProgram(num_vars=p.dim, objective=direction, maximize=True)
        for a, b in zip(p.normals, p.offsets):
            program.add(a, lp.LE, b)
        result = lp.solve(program)
        if isinstance(result, lp.Unbounded):
            raise ValueError("facet description is unbounded; not the hull of the vertices")
        if not isinstance(result, lp.Optimal):
            raise ValueError("facet description is infeasible")
        if abs(result.value - vertex_support) > 1e-6:
            raise ValueError(
                "vertex and facet descriptions disagree "
                f"(support {vertex_support!r} vs {result.value!r})"
            )


def minkowski_asymmetry(p: Polytope) -> float:
    """Smallest m such that some interior point divides every chord in
    ratio at most 1 : m; information storability is m + 1.

    Solved as max t over (u, t) with a_j . u - t h_j <= b_j for every facet
    j, h_j = min_i a_j . v_i over the vertices, then m = 1/t*. Its optimum
    is that of the program with one row per facet and vertex,
    a_j . u - t (a_j . v_i) <= b_j: (centre, 0) is feasible, so t* >= 0,
    and for t >= 0 the binding vertex of facet j is the argmin.
    """
    validate_polytope(p)
    center = p.vertices.mean(axis=0)
    if np.linalg.matrix_rank(p.vertices - center, tol=1e-9) < p.dim:
        raise NotFullDimensional("polytope is not full-dimensional")
    d = p.dim
    program = lp.LinearProgram(num_vars=d + 1)
    obj = np.zeros(d + 1)
    obj[d] = 1.0
    program.objective = obj
    program.maximize = True
    h = (p.normals @ p.vertices.T).min(axis=1)
    for a, b, h_j in zip(p.normals, p.offsets, h):
        program.add(np.append(a, -h_j), lp.LE, b)
    result = lp.solve(program)
    if not isinstance(result, lp.Optimal):
        raise LpInfeasible("asymmetry program did not reach an optimum")
    t_star = result.value
    if t_star <= SLACK:
        raise LpInfeasible("degenerate body: optimal chord ratio is zero")
    return 1.0 / t_star


def mutual_information(m, q) -> float:
    """Info(A, q) in bits: H(inputs) + H(outputs) - H(joint)."""
    a = as_transition(m).matrix
    weights = np.asarray(q, dtype=float)
    if weights.shape != (a.shape[1],):
        raise DimensionMismatch(
            f"input distribution has length {weights.shape}, matrix has {a.shape[1]} columns"
        )
    joint = a * weights[None, :]
    return (
        shannon_entropy(weights)
        + shannon_entropy(joint.sum(axis=1))
        - shannon_entropy(joint.ravel())
    )


def holevo_chi(states: Sequence[np.ndarray], q) -> float:
    """Entropy of the average state minus the average state entropy, bits."""
    weights = np.asarray(q, dtype=float)
    if len(states) != len(weights):
        raise DimensionMismatch("need one weight per state")
    avg = sum(w * np.asarray(rho, dtype=complex) for w, rho in zip(weights, states))
    return von_neumann_entropy(avg) - float(
        sum(w * von_neumann_entropy(rho) for w, rho in zip(weights, states))
    )
