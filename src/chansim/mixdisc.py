"""Mixed discriminants and the induced distribution on outcome multisets.

The mixed discriminant is the symmetric multilinear extension of the
determinant: evaluated by the column-interleaving permutation expansion,
so D(E, ..., E) = det E. For a POVM E_1..E_k the values
p_I = D(E_{i_1}, ..., E_{i_n}) over I in [k]^n form a probability
distribution. It is symmetric in the entries of I, so it is computed and
stored once per multiset class: the class total p_I times the number of
orderings of I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Sequence

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
DEFAULT_CAP = 10**6


@lru_cache(maxsize=None)
def _permutation_array(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.intp)


def mixed_discriminant(matrices: Sequence[np.ndarray]) -> float:
    """D(E_1, ..., E_n) for exactly n matrices of dimension n.

    Averages det over all ways of taking column t from matrix pi(t); the
    inputs are expected Hermitian so the result is real (NonRealResult if
    the imaginary part survives above 1e-8).
    """
    mats = [as_complex_matrix(m) for m in matrices]
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].shape[0]
    if len(mats) != n:
        raise DimensionMismatch(f"need exactly {n} matrices of dimension {n}, got {len(mats)}")
    for m in mats:
        if m.shape[0] != n:
            raise DimensionMismatch("all matrices must share the same dimension")
    stack = np.stack(mats)  # (n, n, n): stack[i] = E_i
    perms = _permutation_array(n)  # (n!, n)
    # interleaved[q, t, :] = column t of E_{perms[q, t]}
    interleaved = stack[perms, :, np.arange(n)]
    dets = np.linalg.det(interleaved.transpose(0, 2, 1))
    value = dets.sum() / math.factorial(n)
    if abs(value.imag) > 1e-8:
        raise NonRealResult(f"imaginary part {value.imag:.3e} exceeds 1e-8")
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
    classes = math.comb(n + k - 1, n)
    if classes > cap:
        raise EnumerationCapExceeded(f"C(n+k-1, n) = {classes} multiset classes exceed cap {cap}")
    values: dict[tuple[int, ...], float] = {}
    for ms in multiset_classes(k, n):
        value = float(class_value(ms))
        if value < -CLAMP_TOL:
            raise NegativeWeight(f"weight {value:.3e} at class {ms} below -1e-9")
        if value > 0.0:
            values[ms] = value
    mass = sum(value * multiplicity(ms) for ms, value in values.items())
    drift = abs(mass - 1.0)
    if drift > MASS_DRIFT_TOL:
        raise MassDriftExceeded(f"total mass {mass!r} drifts from 1 by {drift:.3e}")
    weights = {ms: value / mass * multiplicity(ms) for ms, value in values.items()}
    return OutcomeDistribution(n=n, k=k, weights=weights)


def outcome_distribution(
    outcomes: Sequence[np.ndarray], cap: int = DEFAULT_CAP
) -> OutcomeDistribution:
    """Class totals of p_I = D(E_{i_1}, ..., E_{i_n}) over a POVM."""
    mats = [as_complex_matrix(e) for e in outcomes]
    if not mats:
        raise DimensionMismatch("need at least one POVM outcome")
    n = mats[0].shape[0]
    k = len(mats)
    return distribution_from_class_values(
        k, n, lambda ms: mixed_discriminant([mats[i] for i in ms]), cap=cap
    )
