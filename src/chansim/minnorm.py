"""Wolfe's minimum-norm-point algorithm over a linear-minimization oracle.

The polytope P is given only by an oracle: ``oracle(y)`` returns a label
and a vertex p of P that minimizes <y, p>. ``min_norm_point`` finds the
point of P nearest to a target a (Wolfe, Math. Programming 11, 1976; on
the base polytope of a submodular function, where the oracle is Edmonds'
greedy vertex, Fujishige and Isotani, Pacific J. Optim. 7, 2011). It
keeps a corral, a set of affinely independent vertices, and the convex
weights that make its current point x. Each major cycle asks the oracle for
the vertex q that minimizes <x - a, q>, stops if q does not get closer to a
than x's own face, and otherwise adds q; minor cycles then move x to the
nearest point of the corral's affine hull, dropping vertices while that
point leaves the hull's convex part. The returned corral writes its point
as an explicit convex mixture of labelled vertices, and its distance to a
is zero (up to round-off) exactly when a lies in P.

The module knows nothing of what the vertices stand for. Every stop is a
fixed rule: the point reaches a within ``ZERO_TOL``, the optimality gap
closes within ``GAP_TOL``, or a major cycle fails to bring x closer.
A stop still out of reach after ``MAX_CYCLES`` major cycles raises
NumericalBreakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import NumericalBreakdown

# a point this close to the target is the target, up to round-off (for
# points of norm about 1, such as probability vectors)
ZERO_TOL = 1e-14
# x - a is optimal once no vertex lies more than this below x's level along it
GAP_TOL = 1e-15
MAX_CYCLES = 1000


@dataclass(frozen=True, eq=False)
class Corral:
    """The nearest point found: ``point`` = weights @ (the labelled
    vertices) up to round-off, weights positive and summing to 1, and
    ``distance`` its Euclidean distance to the target."""

    labels: tuple[Any, ...]
    weights: np.ndarray
    point: np.ndarray
    distance: float


def min_norm_point(
    oracle: Callable[[np.ndarray], tuple[Any, np.ndarray]], target: np.ndarray, where: str
) -> Corral:
    """Wolfe's algorithm for the point of the oracle's polytope nearest to
    ``target``, started at the vertex that maximizes <target, p>. Raises
    NumericalBreakdown, prefixed by ``where``, when MAX_CYCLES major cycles
    reach no stop."""
    a = np.asarray(target, dtype=float)
    label, p = oracle(-a)
    labels, atoms, lam = [label], (p - a)[None], np.ones(1)
    y = atoms[0]
    cycles = 0
    while True:
        square = y @ y
        if square <= ZERO_TOL**2:
            break
        label, q = oracle(y)
        q = q - a
        if square - y @ q <= GAP_TOL * np.sqrt(square):
            break
        if cycles == MAX_CYCLES:
            raise NumericalBreakdown(f"{where}: no min-norm point after {MAX_CYCLES} major cycles")
        cycles += 1
        new_labels, new_atoms, new_lam = _minor_cycles(
            [*labels, label], np.concatenate((atoms, q[None])), np.append(lam, 0.0)
        )
        new_y = new_lam @ new_atoms
        if new_y @ new_y >= square:
            break  # no progress left within round-off: keep the last corral
        labels, atoms, lam, y = new_labels, new_atoms, new_lam, new_y
    return Corral(
        labels=tuple(labels),
        weights=lam,
        point=y + a,
        distance=float(np.sqrt(y @ y)),
    )


def _minor_cycles(
    labels: list, atoms: np.ndarray, lam: np.ndarray
) -> tuple[list, np.ndarray, np.ndarray]:
    """Move the convex weights ``lam`` of the rows of ``atoms`` toward the
    affine minimizer of the rows' norm, dropping the rows whose weight
    reaches zero on the way, until the minimizer has positive weights."""
    while True:
        alpha = _affine_minimizer(atoms)
        out = alpha <= 0.0
        if not out.any():
            return labels, atoms, alpha
        # a weight of zero stops the move at once; others need lam > 0 >= alpha
        gap = lam[out] - alpha[out]
        ratios = np.divide(lam[out], gap, out=np.zeros_like(gap), where=gap > 0.0)
        first = int(np.flatnonzero(out)[np.argmin(ratios)])
        lam = lam + ratios.min() * (alpha - lam)
        keep = lam > 0.0
        keep[first] = False
        labels = [x for x, kept in zip(labels, keep) if kept]
        atoms, lam = atoms[keep], lam[keep]
        lam /= lam.sum()


def _affine_minimizer(atoms: np.ndarray) -> np.ndarray:
    """The weights alpha, summing to 1, that minimize |alpha @ atoms|: the
    bordered system G alpha = mu 1, sum alpha = 1 with G = atoms atoms^T,
    solved by least squares if it is singular."""
    m = len(atoms)
    if m == 1:
        return np.ones(1)
    system = np.ones((m + 1, m + 1))
    system[:m, :m] = atoms @ atoms.T
    system[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        return np.linalg.solve(system, rhs)[:m]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(system, rhs, rcond=None)[0][:m]
