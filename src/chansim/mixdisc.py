"""Mixed discriminants and the induced distribution on outcome multisets.

The mixed discriminant is the symmetric multilinear extension of the
determinant, so D(E, ..., E) = det E. For a POVM E_1..E_k the values
p_I = D(E_{i_1}, ..., E_{i_n}) over I in [k]^n form a probability
distribution. It is symmetric in the entries of I, so it is computed and
stored once per multiset class, as one table (``class_table``, which can
also bound the copies of each outcome): the sorted multisets as rows of an
integer array in lexicographic order, and their class totals, p_I times
the number of orderings of I.

The class totals are the coefficients of the degree-n polynomial
det(sum_i s_i E_i) (Bapat 1989): the total of the class with c_i copies
of outcome i is the coefficient of s^c. With s_1 = 1 they are read off
rank-1 lattices (Kaemmerer 2018): for a prime P above the number of classes
and a vector b, one DFT of the values at z_i = exp(2 pi i b_i j / P), j < P,
gives in bucket h the sum of the totals of the classes with c.b = h mod P.
A bucket with one class not yet known gives that total once the known ones
are subtracted; this peeling (the FFAST sparse DFT, Pawar and Ramchandran
2013) adds lattices from a fixed seed until every class is known, 1-3 in
practice. On the torus ||sum_i z_i E_i|| <= 1, so the totals carry error
near machine epsilon. ``distribution_from_class_values`` takes any other
symmetric weight; no construction calls it. Determinants are taken in
blocks of ``_BLOCK_POINTS`` matrices, so memory grows only by one value per
lattice point.

A consumer that needs only each class's support, the set of outcomes it
carries, takes its support totals instead; the noiseless and delta-noisy
quantum simulations and the ball simulations do. With E_T the sum of E_i
over i in T, det(E_T) = D(E_T, ..., E_T) is by multilinearity the total of
the classes whose support lies inside T (``support_totals``); the ball
pairing is multilinear too, and the bracket of n copies of e_T plays that
part (``ball_support_totals``). So 2^k - 1 such values, Moebius inverted
over subsets in one shared block, give every support's total, with no class
table and no lattice; supports of more than n outcomes must come out zero.
Class totals remain for the permutohedron- and per-column-noisy simulations.
One fixed cap, ``DEFAULT_CAP``, bounds every count of classes or supports,
checked before any row, determinant or bracket is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, count
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadRange,
    DimensionMismatch,
    EnumerationCapExceeded,
    MassDriftExceeded,
    NegativeWeight,
    NonRealResult,
    NumericalBreakdown,
)
from .linalg import as_complex_matrix, as_complex_stack

CLAMP_TOL = 1e-9
MASS_DRIFT_TOL = 1e-7
IMAG_TOL = 1e-8
# class totals below this are round-off of an exact zero (a projective POVM
# otherwise shows classes of +-1e-16)
ROUNDOFF_FLOOR = 1e-12
DEFAULT_CAP = 10**6
_BLOCK_POINTS = 4096
_MAX_LATTICES = 64


def _determinants(
    mats: np.ndarray, num_points: int, coefficients: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """det(sum_i a[p, i] mats[i]) for p in range(num_points), where
    ``coefficients(points)`` returns the rows a[points] of the coefficient
    matrix; evaluated ``_BLOCK_POINTS`` points at a time."""
    m, n = mats.shape[0], mats.shape[1]
    flat = mats.reshape(m, n * n)
    out = np.empty(num_points, dtype=complex)
    for start in range(0, num_points, _BLOCK_POINTS):
        stop = min(start + _BLOCK_POINTS, num_points)
        rows = coefficients(np.arange(start, stop))
        out[start:stop] = np.linalg.det((rows @ flat).reshape(-1, n, n))
    return out


def _subset_rows(m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Coefficients for ``_determinants`` over the nonempty subsets of m
    matrices: point p is the subset with bit mask p + 1."""
    bits = np.arange(m)
    return lambda points: ((points[:, None] + 1) >> bits & 1).astype(float)


def mixed_discriminant(matrices: Sequence[np.ndarray]) -> float:
    """D(E_1, ..., E_n) for exactly n matrices of dimension n.

    Evaluated by polarization, (1/n!) sum over nonempty S of [n] of
    (-1)^(n-|S|) det(sum_{i in S} E_i); the inputs are expected Hermitian
    so the result is real (NonRealResult if the imaginary part survives
    above 1e-8). No construction calls it: it is the reference that the
    class totals of ``outcome_distribution`` are tested against.
    """
    stack = as_complex_stack(matrices, "matrix")
    n = stack.shape[1]
    if len(stack) != n:
        raise DimensionMismatch(f"need exactly {n} matrices of dimension {n}, got {len(stack)}")
    dets = _determinants(stack, 2**n - 1, _subset_rows(n))
    signs = np.array([(-1) ** (n - mask.bit_count()) for mask in range(1, 2**n)])
    value = signs @ dets / math.factorial(n)
    if abs(value.imag) > IMAG_TOL:
        raise NonRealResult(f"imaginary part {value.imag:.3e} exceeds {IMAG_TOL:g}")
    return float(value.real)


def symmetric_mixed(f: np.ndarray, q: int, n: int) -> float:
    """D(F, ..., F, 1-F, ..., 1-F), n-q copies of F and q of 1-F; a test oracle."""
    a = as_complex_matrix(f)
    if a.shape[0] != n:
        raise DimensionMismatch(f"matrix is {a.shape[0]}-square, expected {n}")
    if not 0 <= q <= n:
        raise BadRange(f"q={q} outside 0..{n}")
    comp = np.eye(n) - a
    return mixed_discriminant([a] * (n - q) + [comp] * q)


def _lattice_class_totals(stack: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The coefficient of z^e in det(E_1 + sum_{i>=2} z_i E_i) for each row
    e of ``exponents``, every monomial being one row, peeled from the DFTs
    of rank-1 lattices of the smallest prime size P > len(exponents)."""
    k, size = stack.shape[0], len(exponents)
    p = next(q for q in count(size + 1) if all(q % d for d in range(2, math.isqrt(q) + 1)))
    rng = np.random.default_rng(0)  # a fixed seed keeps certificates byte-stable
    totals, unknown = np.zeros(size, dtype=complex), np.ones(size, dtype=bool)
    residuals = np.empty(0, dtype=complex)  # every lattice's buckets less the known totals
    cells = np.empty((0, size), dtype=np.intp)  # cells[l, c]: class c's bucket in residuals
    found = np.empty(0, dtype=np.intp)
    while unknown.any():
        if not len(found):  # peeling is stuck: add a lattice
            if len(cells) == _MAX_LATTICES:
                raise NumericalBreakdown(
                    f"{unknown.sum()} of {size} classes unknown after {_MAX_LATTICES} lattices"
                )
            b = np.append(0, rng.integers(1, p, size=k - 1))  # z_1 = 1

            def lattice(points: np.ndarray) -> np.ndarray:
                return np.exp(2j * np.pi * (np.outer(points, b) % p) / p)

            cells = np.vstack([cells, exponents @ b[1:] % p + len(residuals)])
            residuals = np.append(residuals, np.fft.fft(_determinants(stack, p, lattice)) / p)
            np.subtract.at(residuals, cells[-1, ~unknown], totals[~unknown])
        # a class alone among the unknown in a bucket has the bucket's residual as total
        load = np.bincount(cells[:, unknown].ravel(), minlength=len(residuals))
        alone = unknown & (load[cells] == 1)
        found = np.flatnonzero(alone.any(axis=0))
        totals[found] = residuals[cells[alone.argmax(axis=0)[found], found]]
        unknown[found] = False
        # values in full: numpy 2.4's ufunc.at misreads them broadcast to 2-d indices
        hit = cells[:, found]
        np.subtract.at(residuals, hit, np.broadcast_to(totals[found], hit.shape))
    worst = float(np.max(np.abs(totals.imag)))
    if worst > IMAG_TOL:
        raise NonRealResult(f"imaginary part {worst:.3e} exceeds {IMAG_TOL:g}")
    return totals.real


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probability weights over the multiset classes of [k]^n, as a table.

    Row c of ``classes`` (C, n) is a sorted index multiset, the rows in
    lexicographic order, and ``weights[c]`` its class weight: p_I times the
    number of orderings of I for a POVM, the share of the d-subsets that
    decode to the multiset for ``simulate_noisy_by_noiseless`` (n = d), the
    total of one output support for the support route of the noiseless and
    delta-noisy quantum and the ball simulations.
    Zero classes are omitted; stored weights are positive and sum to 1.
    ``counts`` (C, k) holds the copies of each outcome in each class.
    """

    n: int
    k: int
    classes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def counts(self) -> np.ndarray:
        bins = np.arange(len(self.classes))[:, None] * self.k + self.classes
        return np.bincount(bins.ravel(), minlength=len(bins) * self.k).reshape(-1, self.k)


def class_table(n: int, bounds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every sorted multiset of length n over range(k), k = len(bounds), with
    at most bounds[i] copies of i, in lexicographic order: the (C, n) table
    and its counts (C, k); bounds of n give all C(n+k-1, n) multisets. C is
    counted exactly and checked against ``DEFAULT_CAP`` before any row is made.
    Count vectors grow one output at a time, each count in descending order,
    which keeps the multisets ascending; a count that leaves the later
    outputs too few copies is never made, so no partial table outgrows the
    full one."""
    ways = [1] + [0] * n  # ways[s]: count vectors of the outputs so far summing to s
    for b in bounds:
        prefix = list(accumulate(ways, initial=0))
        ways = [prefix[s + 1] - prefix[max(s - b, 0)] for s in range(n + 1)]
    if ways[n] > DEFAULT_CAP:
        raise EnumerationCapExceeded(f"{ways[n]} multiset classes exceed cap {DEFAULT_CAP}")
    room = np.append(np.cumsum(np.minimum(bounds, n)[::-1])[::-1], 0)  # copies i.. can take
    counts, rest = np.zeros((1, 0), dtype=np.intp), np.array([n])
    for i, b in enumerate(bounds):
        c = np.arange(min(b, n), -1, -1)  # descending, so the rows stay in order
        parent, j = np.nonzero((c <= rest[:, None]) & (c >= rest[:, None] - room[i + 1]))
        counts, rest = np.column_stack([counts[parent], c[j]]), rest[parent] - c[j]
    outputs = np.tile(np.arange(len(bounds)), len(counts))
    return np.repeat(outputs, counts.ravel()).reshape(-1, n), counts


def _all_classes(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unbounded ``class_table`` over k outcomes and the number of
    orderings of each class, n! / prod_i c_i!, exact and then a float:
    in int64 up to n = 20 (20! < 2^63), as Python integers above."""
    classes, counts = class_table(n, [n] * k)
    exact = np.int64 if n <= 20 else object
    factorials = np.array([math.factorial(c) for c in range(n + 1)], dtype=exact)
    return classes, counts, (math.factorial(n) // factorials[counts].prod(axis=1)).astype(float)


def _distribution(
    k: int, n: int, classes: np.ndarray, orderings: np.ndarray, values: np.ndarray
) -> OutcomeDistribution:
    """The distribution from the common weight ``values[c]`` of every
    ordering of class c. Weights in [-1e-9, 0) are clamped to zero,
    anything more negative is an error, and the total mass, summed in class
    order, is renormalized when it drifts from 1 by at most 1e-7."""
    negative = np.flatnonzero(values < -CLAMP_TOL)
    if len(negative):
        c = negative[0]
        raise NegativeWeight(
            f"weight {values[c]:.3e} at class {tuple(classes[c].tolist())} below -1e-9"
        )
    keep = values > 0.0
    values, orderings = values[keep], orderings[keep]
    mass = float(np.cumsum(values * orderings)[-1]) if len(values) else 0.0
    drift = abs(mass - 1.0)
    if drift > MASS_DRIFT_TOL:
        raise MassDriftExceeded(f"total mass {mass!r} drifts from 1 by {drift:.3e}")
    return OutcomeDistribution(
        n=n, k=k, classes=classes[keep], weights=values / mass * orderings
    )


def distribution_from_class_values(
    k: int, n: int, class_values: Callable[[np.ndarray], np.ndarray]
) -> OutcomeDistribution:
    """Build an OutcomeDistribution from a symmetric evaluator:
    ``class_values(classes)`` is given the (C, n) table of all sorted
    multisets and returns, per row, the common weight of every ordering of
    that multiset, clamped and renormalized as in ``_distribution``.
    ``DEFAULT_CAP`` bounds the number of classes, C(n+k-1, n)."""
    classes, _, orderings = _all_classes(k, n)
    values = np.asarray(class_values(classes), dtype=float)
    return _distribution(k, n, classes, orderings, values)


def outcome_distribution(outcomes: Sequence[np.ndarray]) -> OutcomeDistribution:
    """Class totals of p_I = D(E_{i_1}, ..., E_{i_n}) over a POVM.

    Peeled from the DFTs of det(E_1 + sum_{i>=2} z_i E_i) on rank-1
    lattices of the smallest prime size P above C = C(n+k-1, n): P
    determinants per lattice, usually 1-3 lattices. ``DEFAULT_CAP`` bounds C;
    NumericalBreakdown if 64 lattices leave a class unknown.
    """
    stack = as_complex_stack(outcomes, "POVM outcome")
    k, n = stack.shape[0], stack.shape[1]
    classes, counts, orderings = _all_classes(k, n)
    totals = _lattice_class_totals(stack, counts[:, 1:])
    values = np.where(np.abs(totals) < ROUNDOFF_FLOOR, 0.0, totals / orderings)
    return _distribution(k, n, classes, orderings, values)


def support_sizes(k: int) -> np.ndarray:
    """The number of outcomes in each support S < 2^k, bit i for outcome i."""
    sizes = np.zeros(2**k, dtype=np.intp)
    for i in range(k):
        sizes.reshape(-1, 2, 2**i)[:, 1] += 1
    return sizes


def support_totals(outcomes: Sequence[np.ndarray]) -> np.ndarray:
    """A POVM's class totals summed by support (``_support_totals``): the
    classes whose support lies inside T total det(E_T), E_T = sum_{i in T} E_i."""
    stack = as_complex_stack(outcomes, "POVM outcome")
    k, n = stack.shape[0], stack.shape[1]
    return _support_totals(k, n, lambda: _determinants(stack, 2**k - 1, _subset_rows(k)))


def ball_support_totals(c: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The bracket's class totals summed by support (``_support_totals``)
    for ball effects e_i = (c[i], v[i]) of norm index n: the classes whose
    support lies inside T total the bracket of n copies of e_T = sum_{i in
    T} e_i, which is c_T^n minus the sum over coordinates of v_T^n."""

    def brackets() -> np.ndarray:
        sums = _subset_rows(len(c))(np.arange(2 ** len(c) - 1)) @ np.column_stack([c, v])
        return sums[:, 0] ** n - (sums[:, 1:] ** n).sum(axis=1)

    return _support_totals(len(c), n, brackets)


def _support_totals(k: int, n: int, inside: Callable[[], np.ndarray]) -> np.ndarray:
    """The class totals of a multilinear distribution on the multisets of n
    of k outcomes, summed by support S < 2^k (bit i for outcome i), Moebius
    inverted from ``inside()``: per nonempty T in mask order, the total of
    the classes whose support lies inside T. ``DEFAULT_CAP`` bounds 2^k - 1 before
    ``inside`` is called. NumericalBreakdown if a support of more than n
    outcomes is above 1e-9 in modulus; all such are then set to zero, and
    the rest floored, clamped and renormalized as class totals are."""
    if 2**k - 1 > DEFAULT_CAP:
        raise EnumerationCapExceeded(f"{2**k - 1} output supports exceed cap {DEFAULT_CAP}")
    totals = np.append(0.0, inside())
    for i in range(k):  # T with outcome i loses the total of T without it
        pairs = totals.reshape(-1, 2, 2**i)
        pairs[:, 1] -= pairs[:, 0]
    worst = float(np.max(np.abs(totals.imag)))
    if worst > IMAG_TOL:
        raise NonRealResult(f"imaginary part {worst:.3e} exceeds {IMAG_TOL:g}")
    totals, sizes = totals.real, support_sizes(k)

    def outcomes_of(s: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(s >> np.arange(k) & 1).tolist())

    excess = np.flatnonzero((sizes > n) & (np.abs(totals) > CLAMP_TOL))
    if len(excess):
        s = excess[0]
        raise NumericalBreakdown(
            f"support {outcomes_of(s)} of more than {n} outcomes has total {totals[s]:.3e}"
        )
    totals[(sizes > n) | (np.abs(totals) < ROUNDOFF_FLOOR)] = 0.0
    negative = np.flatnonzero(totals < -CLAMP_TOL)
    if len(negative):
        s = negative[0]
        raise NegativeWeight(f"total {totals[s]:.3e} at support {outcomes_of(s)} below -1e-9")
    totals = np.maximum(totals, 0.0)
    mass = float(totals.sum())
    drift = abs(mass - 1.0)
    if drift > MASS_DRIFT_TOL:
        raise MassDriftExceeded(f"total mass {mass!r} drifts from 1 by {drift:.3e}")
    return totals / mass
