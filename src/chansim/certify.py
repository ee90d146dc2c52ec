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
from .channels import Rational, as_transition, convex_weights, require_column_stochastic
from .errors import (
    BadDelta,
    BadRange,
    DimensionMismatch,
    EmptyInput,
    LpInfeasible,
    NotFullDimensional,
    PolytopeMismatch,
)
from .linalg import require_finite, shannon_entropy, validate_density, von_neumann_entropy

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
    """Index r at which the prefix-sum criterion for d of n states fails,
    with both sides."""

    r: int
    prefix_sum: float
    bound: float
    d: int
    n: int


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
    if not 1 <= d <= k:
        raise BadRange(f"need 1 <= d <= k, got d={d}, k={k}")
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


def _ceil(delta: Rational, n: int, offset: Rational) -> int:
    """The ceiling of (1-delta) n + offset: exact for rational delta and
    offset, and for floats snapped to an integer within a boundary guard
    that scales with n."""
    if isinstance(delta, (Fraction, int)):
        return math.ceil((1 - Fraction(delta)) * n + offset)
    value = (1.0 - delta) * n + offset
    snapped = round(value)
    if abs(value - snapped) <= BOUNDARY_GUARD * max(1.0, float(n)):
        return int(snapped)
    return int(math.ceil(value))


def noisy_signalling_dimension(n: int, delta: Rational) -> int:
    """Smallest noiseless state count simulating the delta-noisy n-state
    channel: the ceiling of (1-delta) n + delta."""
    if n < 1:
        raise BadRange(f"need n >= 1, got {n}")
    if not 0 <= float(delta) <= 1:
        raise BadDelta(f"delta={delta!r} outside [0, 1]")
    return _ceil(delta, n, delta)


def permutohedron_simulable_by_d(mu, d: int) -> BinomialWitness | None:
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
        if prefix[r - 1] < bound - SLACK:
            return BinomialWitness(r=r, prefix_sum=float(prefix[r - 1]), bound=bound, d=d, n=n)
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
    m-dimensional input embedded in dimension n (n = m when not given).

    ``exact`` is the lower bound when m = n and the replacement state's
    spectrum, a probability vector of length n, scaled by delta passes the
    prefix-sum criterion of ``permutohedron_simulable_by_d`` with d = lower
    (in particular for the maximally mixed state).
    """
    dim = m if n is None else n
    if not 1 <= m <= dim:
        raise BadRange(f"need 1 <= m <= n, got m={m}, n={n}")
    lower = noisy_signalling_dimension(m, delta)  # checks delta
    upper = min(m, _ceil(delta, m, 1))

    exact = None
    if spectrum is not None:
        vec = np.sort(require_finite(np.asarray(spectrum, dtype=float), "spectrum"))
        if vec.shape != (dim,):
            raise DimensionMismatch(f"spectrum has shape {vec.shape}, expected ({dim},)")
        require_column_stochastic(vec[:, None], "spectrum")
        if m == dim and permutohedron_simulable_by_d(float(delta) * vec, lower) is None:
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
        require_finite(v, "polytope vertices")
        require_finite(a, "polytope facet normals")
        require_finite(b, "polytope facet offsets")
        if a.shape[0] != b.shape[0] or a.shape[1] != v.shape[1]:
            raise DimensionMismatch("facet normals, offsets, and vertices disagree in shape")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


def validate_polytope(p: Polytope) -> None:
    """Vertices must satisfy every facet; spot-check that both descriptions
    bound the same body by their support values along 8 seeded random
    directions and the facet normals no vertex touches (others agree to 1e-6).

    The facet program is written about the vertex centroid c, as max w.y
    over A y <= b - A c, whose right-hand sides are nonnegative up to
    SLACK, so y = 0 with every slack basic starts it without a phase 1.
    It is built once and re-optimised for each direction w from the
    previous optimum; the support along w is the optimum plus w.c.
    """
    slack = p.normals @ p.vertices.T - p.offsets[:, None]
    if np.max(slack) > SLACK:
        raise PolytopeMismatch(f"a vertex violates a facet by {float(np.max(slack)):.3e}")
    center = p.vertices.mean(axis=0)
    program = lp.LinearProgram(num_vars=p.dim)
    for a, b in zip(p.normals, p.offsets - p.normals @ center):
        program.add(a, lp.LE, b)
    untouched = p.normals[slack.max(axis=1) < -1e-6]
    directions = np.vstack([untouched, np.random.default_rng(0).normal(size=(8, p.dim))])
    vertex_supports = (directions @ p.vertices.T).max(axis=1).tolist()
    shifts = (directions @ center).tolist()
    results = lp.maximize_each(program, directions)
    for result, vertex_support, shift in zip(results, vertex_supports, shifts):
        if isinstance(result, lp.Unbounded):
            raise PolytopeMismatch("facet description is unbounded; not the hull of the vertices")
        facet_support = result.value + shift
        if abs(facet_support - vertex_support) > 1e-6:
            raise PolytopeMismatch(
                "vertex and facet descriptions disagree "
                f"(support {vertex_support!r} vs {facet_support!r})"
            )


def minkowski_asymmetry(p: Polytope) -> float:
    """Smallest m such that some interior point divides every chord in
    ratio at most 1 : m; information storability is m + 1.

    Solved as max t over (u, t) with a_j . u - t h_j <= b_j for every facet
    j, h_j = min_i a_j . v_i over the vertices, then m = 1/t*. Its optimum
    is that of the program with one row per facet and vertex,
    a_j . u - t (a_j . v_i) <= b_j: (centre, 0) is feasible, so t* >= 0,
    and for t >= 0 the binding vertex of facet j is the argmin.

    The program is written about the vertex centroid c, with
    u = (1 + t) c + u', as a_j . u' - t (h_j - a_j . c) <= b_j - a_j . c.
    Its right-hand sides are nonnegative up to SLACK, so (u', t) = 0 with
    every slack basic starts the simplex without a phase 1.
    """
    validate_polytope(p)
    center = p.vertices.mean(axis=0)
    if np.linalg.matrix_rank(p.vertices - center, tol=1e-9) < p.dim:
        raise NotFullDimensional("polytope is not full-dimensional")
    d = p.dim
    obj = np.zeros(d + 1)
    obj[d] = 1.0
    program = lp.LinearProgram(num_vars=d + 1, objective=obj)
    at_center = p.normals @ center
    h = (p.normals @ p.vertices.T).min(axis=1)
    for a, b, h_j in zip(p.normals, p.offsets - at_center, h - at_center):
        program.add(np.append(a, -h_j), lp.LE, b)
    result = lp.solve(program)
    if not isinstance(result, lp.Optimal):
        raise LpInfeasible("asymmetry program did not reach an optimum")
    t_star = result.value
    if t_star <= SLACK:
        raise LpInfeasible("degenerate body: optimal chord ratio is zero")
    return 1.0 / t_star


def mutual_information(m, q) -> float:
    """Info(A, q) in bits: H(inputs) + H(outputs) - H(joint), for an input
    distribution q."""
    a = as_transition(m).matrix
    weights = convex_weights(q, a.shape[1])
    joint = a * weights[None, :]
    return (
        shannon_entropy(weights)
        + shannon_entropy(joint.sum(axis=1))
        - shannon_entropy(joint.ravel())
    )


def holevo_chi(states: Sequence[np.ndarray], q) -> float:
    """Entropy of the average state minus the average state entropy, bits,
    for density matrices ``states`` and probability weights ``q``."""
    weights = convex_weights(q, len(states))
    for rho in states:
        validate_density(rho)
    avg = sum(w * np.asarray(rho, dtype=complex) for w, rho in zip(weights, states))
    return von_neumann_entropy(avg) - float(
        sum(w * von_neumann_entropy(rho) for w, rho in zip(weights, states))
    )
