"""Mixed discriminants and the induced distribution on outcome multisets.

The mixed discriminant is the symmetric multilinear extension of the
determinant, so D(E, ..., E) = det E. For a POVM E_1..E_k the values
p_I = D(E_{i_1}, ..., E_{i_n}) over I in [k]^n form a probability
distribution. It is symmetric in the entries of I, so it is computed and
stored once per multiset class: the class total p_I times the number of
orderings of I.

The class totals are the coefficients of the degree-n polynomial
det(sum_i s_i E_i) (Bapat 1989): the total of the class with c_i copies
of outcome i is the coefficient of s^c. With s_1 = 1 the polynomial is
evaluated on the torus grid of (n+1)-th roots of unity, (n+1)^(k-1)
points, and one inverse DFT returns every coefficient; no exponent
exceeds n, so none aliases. On that grid ||sum_i z_i E_i|| <= 1, so the
determinants and the coefficients carry absolute error near machine
epsilon. When the grid has more points than C(n+k-1, n) 2^n (large k,
small n), each class is evaluated on its own by polarization over the
2^n subsets. Determinants are taken in blocks of ``_BLOCK_POINTS``
matrices, so beyond one value per grid point memory does not grow with
the number of points.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._multiset import multiplicity, multiset_classes
from .errors import (
    BadRange,
    DimensionMismatch,
    EnumerationCapExceeded,
    MassDriftExceeded,
    NegativeWeight,
    NonRealResult,
)
from .linalg import as_complex_matrix

CLAMP_TOL = 1e-9
MASS_DRIFT_TOL = 1e-7
IMAG_TOL = 1e-8
# class totals below this are round-off of an exact zero (a projective POVM
# otherwise shows classes of +-1e-16)
ROUNDOFF_FLOOR = 1e-12
DEFAULT_CAP = 10**6
_BLOCK_POINTS = 4096


def _stack_square(matrices: Sequence[np.ndarray], what: str) -> np.ndarray:
    """Stack finite square matrices of one common dimension into (m, n, n)."""
    mats = [as_complex_matrix(m) for m in matrices]
    if not mats:
        raise DimensionMismatch(f"need at least one {what}")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise DimensionMismatch(f"every {what} must be {n}-square")
    return np.stack(mats)


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


def mixed_discriminant(matrices: Sequence[np.ndarray]) -> float:
    """D(E_1, ..., E_n) for exactly n matrices of dimension n.

    Evaluated by polarization, (1/n!) sum over nonempty S of [n] of
    (-1)^(n-|S|) det(sum_{i in S} E_i); the inputs are expected Hermitian
    so the result is real (NonRealResult if the imaginary part survives
    above 1e-8).
    """
    stack = _stack_square(matrices, "matrix")
    n = stack.shape[1]
    if len(stack) != n:
        raise DimensionMismatch(f"need exactly {n} matrices of dimension {n}, got {len(stack)}")
    bits = np.arange(n)

    def subsets(points: np.ndarray) -> np.ndarray:  # point p is the subset with mask p + 1
        return ((points[:, None] + 1) >> bits & 1).astype(float)

    dets = _determinants(stack, 2**n - 1, subsets)
    signs = np.array([(-1) ** (n - mask.bit_count()) for mask in range(1, 2**n)])
    value = signs @ dets / math.factorial(n)
    if abs(value.imag) > IMAG_TOL:
        raise NonRealResult(f"imaginary part {value.imag:.3e} exceeds {IMAG_TOL:g}")
    return float(value.real)


def symmetric_mixed(f: np.ndarray, q: int, n: int) -> float:
    """D(F, ..., F, 1-F, ..., 1-F) with n-q copies of F and q of 1-F."""
    a = as_complex_matrix(f)
    if a.shape[0] != n:
        raise DimensionMismatch(f"matrix is {a.shape[0]}-square, expected {n}")
    if not 0 <= q <= n:
        raise BadRange(f"q={q} outside 0..{n}")
    comp = np.eye(n) - a
    return mixed_discriminant([a] * (n - q) + [comp] * q)


def _grid_class_totals(stack: np.ndarray) -> np.ndarray:
    """Coefficients of det(E_1 + sum_{i>=2} z_i E_i), indexed by the
    exponents (c_2, ..., c_k), each in 0..n."""
    k, n = stack.shape[0], stack.shape[1]
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    place = (n + 1) ** np.arange(k - 2, -1, -1)

    def torus(points: np.ndarray) -> np.ndarray:
        z = roots[points[:, None] // place % (n + 1)]
        return np.hstack([np.ones((len(points), 1)), z])

    shape = (n + 1,) * (k - 1)
    values = _determinants(stack, (n + 1) ** (k - 1), torus).reshape(shape)
    coefficients = np.fft.fftn(values) / values.size
    worst = float(np.max(np.abs(coefficients.imag)))
    if worst > IMAG_TOL:
        raise NonRealResult(f"imaginary part {worst:.3e} exceeds {IMAG_TOL:g}")
    return coefficients.real


@dataclass(frozen=True)
class OutcomeDistribution:
    """Sparse probability weights over the multiset classes of [k]^n.

    ``weights`` maps a sorted index multiset to its class total, p_I times
    the number of orderings of I. Zero classes are omitted; stored weights
    are positive and sum to 1.
    """

    n: int
    k: int
    weights: dict[tuple[int, ...], float] = field(repr=False)

    def total(self) -> float:
        return float(sum(self.weights.values()))


def distribution_from_class_values(
    k: int, n: int, class_value, cap: int = DEFAULT_CAP
) -> OutcomeDistribution:
    """Build an OutcomeDistribution from a symmetric per-multiset evaluator.

    ``class_value(ms)`` must return the common weight of every ordering of
    the sorted multiset ``ms``. Weights in [-1e-9, 0) are clamped to zero,
    anything more negative is an error, and the total mass is renormalized
    when it drifts from 1 by at most 1e-7. ``cap`` bounds the number of
    classes, C(n+k-1, n).
    """
    return _distribution(k, n, lambda ms, orderings: class_value(ms), cap)


def _distribution(k: int, n: int, class_value, cap: int) -> OutcomeDistribution:
    """``distribution_from_class_values`` for an evaluator
    ``class_value(ms, orderings)`` that is also given the class's
    multiplicity, which is computed once per class."""
    _check_cap(k, n, cap)
    values: dict[tuple[int, ...], tuple[float, int]] = {}
    for ms in multiset_classes(k, n):
        orderings = multiplicity(ms)
        value = float(class_value(ms, orderings))
        if value < -CLAMP_TOL:
            raise NegativeWeight(f"weight {value:.3e} at class {ms} below -1e-9")
        if value > 0.0:
            values[ms] = value, orderings
    mass = sum(value * orderings for value, orderings in values.values())
    drift = abs(mass - 1.0)
    if drift > MASS_DRIFT_TOL:
        raise MassDriftExceeded(f"total mass {mass!r} drifts from 1 by {drift:.3e}")
    weights = {ms: value / mass * orderings for ms, (value, orderings) in values.items()}
    return OutcomeDistribution(n=n, k=k, weights=weights)


def _check_cap(k: int, n: int, cap: int) -> None:
    classes = math.comb(n + k - 1, n)
    if classes > cap:
        raise EnumerationCapExceeded(f"C(n+k-1, n) = {classes} multiset classes exceed cap {cap}")


def outcome_distribution(
    outcomes: Sequence[np.ndarray], cap: int = DEFAULT_CAP
) -> OutcomeDistribution:
    """Class totals of p_I = D(E_{i_1}, ..., E_{i_n}) over a POVM.

    Taken from one DFT of det(sum_i z_i E_i) on the torus grid, or class by
    class through ``mixed_discriminant`` when the grid is larger than
    C(n+k-1, n) 2^n points; either way at most that many determinants.
    """
    stack = _stack_square(outcomes, "POVM outcome")
    k, n = stack.shape[0], stack.shape[1]
    _check_cap(k, n, cap)
    if (n + 1) ** (k - 1) > math.comb(n + k - 1, n) * 2**n:
        def total(ms, orderings):
            return mixed_discriminant(stack[list(ms)]) * orderings
    else:
        grid = _grid_class_totals(stack)

        def total(ms, orderings):
            counts = Counter(ms)
            return grid[tuple(counts[i] for i in range(1, k))]

    def class_value(ms, orderings):
        value = total(ms, orderings)
        return 0.0 if abs(value) < ROUNDOFF_FLOOR else value / orderings

    return _distribution(k, n, class_value, cap)
