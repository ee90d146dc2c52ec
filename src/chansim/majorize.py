"""Majorization tests, constructive permutation-mixture decompositions and
Carathéodory reduction.

``hlp_decompose`` writes a probability vector inside the permutohedron of
another as an explicit convex combination of its coordinate permutations:
a chain of pairwise-averaging transfers produces a doubly stochastic matrix
connecting the two vectors, and a greedy Birkhoff extraction turns that
matrix into at most (n-1)^2 + 1 linearly independent permutation terms.

``caratheodory`` cuts any weighted set of points to at most (affine rank +
1) of them with the same weighted sum, by a fixed-order Gauss-Jordan
elimination behind the Fast-Carathéodory recursion of Maalouf, Jubran and
Feldman; ``simulate`` uses it to bound every certificate's term count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadRange, LengthMismatch, NotDoublyStochastic, NotMajorized

SUPPORT_TOL = 1e-10
RECON_TOL = 1e-8
WEIGHT_TOL = 1e-9
# smallest pivot of the Carathéodory elimination, relative to the largest
# entry: an absolute 1e-12 let a cancellation pivot of 2e-12 through, and
# round-off then grew to a 3e-5 residual in a random quantum simulation
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class PermutationMixture:
    """Terms (weight, perm) with perm applied as out[i] = vec[perm[i]]."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec, dtype=float)
        out = np.zeros_like(v)
        for w, perm in self.terms:
            out += w * v[np.array(perm)]
        return out

    def matrix(self, n: int) -> np.ndarray:
        out = np.zeros((n, n))
        for w, perm in self.terms:
            out[np.arange(n), np.array(perm)] += w
        return out

    def total_weight(self) -> float:
        return float(sum(w for w, _ in self.terms))


def majorized_by_permutohedron(x, mu, tol: float = WEIGHT_TOL) -> bool:
    """True iff x lies in the convex hull of the coordinate permutations of mu.

    Checked via ascending partial sums: for every r the r smallest entries
    of x must sum to at least the r smallest entries of mu, with totals
    agreeing.
    """
    xs = np.sort(np.asarray(x, dtype=float))
    ms = np.sort(np.asarray(mu, dtype=float))
    if xs.shape != ms.shape:
        raise LengthMismatch(f"lengths {xs.shape} vs {ms.shape}")
    if abs(xs.sum() - ms.sum()) > tol:
        return False
    return bool(np.all(np.cumsum(xs)[:-1] >= np.cumsum(ms)[:-1] - tol))


def _perfect_matching(support: np.ndarray) -> list[int] | None:
    """Augmenting-path matching on the row->column support graph.

    Returns match[row] = column, or None when no perfect matching exists.
    """
    n = support.shape[0]
    match_col = [-1] * n  # column -> row

    def try_row(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if support[r, c] and not seen[c]:
                seen[c] = True
                if match_col[c] == -1 or try_row(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not try_row(r, [False] * n):
            return None
    out = [-1] * n
    for c, r in enumerate(match_col):
        out[r] = c
    return out


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan step: scale ``row`` so its ``col`` entry is 1 and clear
    ``col`` from every other row."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _eliminate(weights: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carathéodory by elimination on the tableau [points.T; 1].

    A first pass in column order picks the basis: a column is a pivot when
    its largest entry in the rows not yet used exceeds PIVOT_TOL times the
    largest entry of the tableau, rows chosen by partial pivoting. Then each
    other column, in order, moves its weight onto the basis along its
    coordinates c (a_j = sum_i c_i a_basis[i]); the ratio test stops at the
    first basis weight to reach zero, and that column leaves while column j
    enters. Every step keeps sum_t w_t a_t, so the kept terms recompose the
    same point and total.
    """
    w = weights.copy()
    tableau = np.vstack([points.T, np.ones(len(w))])
    threshold = PIVOT_TOL * float(np.max(np.abs(tableau), initial=1.0))
    basis: list[int] = []
    for j in range(len(w)):
        if len(basis) == tableau.shape[0]:
            break
        r = len(basis)
        p = r + int(np.argmax(np.abs(tableau[r:, j])))
        if abs(tableau[p, j]) > threshold:
            tableau[[r, p]] = tableau[[p, r]]
            _pivot(tableau, r, j)
            basis.append(j)
    tableau = tableau[: len(basis)]
    rows = np.array(basis, dtype=np.intp)
    for j in range(len(w)):
        if w[j] <= 0.0 or j in rows:
            continue
        c = tableau[:, j]
        blocking = np.flatnonzero(c < -PIVOT_TOL)
        step, leave = w[j], None
        if len(blocking):
            ratios = w[rows[blocking]] / -c[blocking]
            first = int(np.argmin(ratios))
            if ratios[first] < step:
                step, leave = float(ratios[first]), int(blocking[first])
        w[rows] = np.maximum(w[rows] + step * c, 0.0)
        if leave is None:
            w[j] = 0.0
        else:
            w[j] -= step
            w[rows[leave]] = 0.0
            _pivot(tableau, leave, j)
            rows[leave] = j
    kept = np.flatnonzero(w > 0.0)
    return kept, w[kept]


def caratheodory(weights, points) -> tuple[np.ndarray, np.ndarray]:
    """Cut a weighted set of points to at most (affine rank + 1) of them.

    ``weights`` (T,) are nonnegative and ``points`` is (T, D). Returns the
    ascending indices of the kept points and their new weights, which are
    nonnegative, keep the total weight and recompose the same weighted sum
    of points. The result depends only on the inputs and their order.

    When T > 2(D+1), the Fast-Carathéodory recursion (Maalouf, Jubran and
    Feldman, NeurIPS 2019) runs first: the points are cut into 2(D+1)
    consecutive groups, the groups' weighted means are reduced by
    elimination, and only the chosen groups stay, each point's weight scaled
    by its group's new weight over its old one. Each round at least halves
    the points, so the elimination only ever sees O(D) of them.
    """
    w = np.asarray(weights, dtype=float)
    p = np.asarray(points, dtype=float)
    index = np.flatnonzero(w > 0.0)
    w = w[index]
    groups = 2 * (p.shape[1] + 1)
    while len(index) > groups:
        sizes = np.full(groups, len(index) // groups)
        sizes[: len(index) % groups] += 1
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        totals = np.add.reduceat(w, starts)
        means = np.add.reduceat(w[:, None] * p[index], starts, axis=0) / totals[:, None]
        chosen, new = _eliminate(totals, means)
        scale = np.zeros(groups)
        scale[chosen] = new / totals[chosen]
        scale = np.repeat(scale, sizes)
        live = scale > 0.0
        index, w = index[live], w[live] * scale[live]
    kept, w = _eliminate(w, p[index])
    return index[kept], w


def birkhoff(d: np.ndarray, tol: float = RECON_TOL) -> PermutationMixture:
    """Decompose a doubly stochastic matrix into permutation matrices.

    Greedy extraction along perfect matchings of the positive support
    (entries below 1e-10 count as zero). Each term zeroes an entry that no
    later term uses, so the terms are linearly independent and there are at
    most (n-1)^2 + 1 of them, the Carathéodory bound, without any pruning.
    """
    a = np.array(d, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotDoublyStochastic(f"expected square matrix, got {a.shape}")
    n = a.shape[0]
    if np.any(a < -SUPPORT_TOL):
        raise NotDoublyStochastic("negative entries")
    if np.max(np.abs(a.sum(axis=0) - 1.0)) > tol or np.max(np.abs(a.sum(axis=1) - 1.0)) > tol:
        raise NotDoublyStochastic("row/column sums deviate from 1")

    work = np.clip(a, 0.0, None)
    weights: list[float] = []
    perms: list[tuple[int, ...]] = []
    remaining = 1.0
    for _ in range(n * n + 1):
        if remaining <= tol:
            break
        match = _perfect_matching(work > SUPPORT_TOL)
        if match is None:
            raise NotDoublyStochastic(
                f"no perfect matching on residual support (mass {remaining:.3e} left)"
            )
        w = float(min(work[r, match[r]] for r in range(n)))
        weights.append(w)
        perms.append(tuple(match))
        for r in range(n):
            work[r, match[r]] -= w
        work = np.clip(work, 0.0, None)
        remaining -= w
    if remaining > tol:
        raise NotDoublyStochastic(f"extraction stalled with mass {remaining:.3e} left")
    total = sum(weights)
    terms = tuple((w / total, perm) for w, perm in zip(weights, perms))
    return PermutationMixture(terms=terms)


def _transfer_chain(target_desc: np.ndarray, source_desc: np.ndarray) -> np.ndarray:
    """Doubly stochastic D with target = D @ source, both sorted descending.

    Each step averages the pair of coordinates bracketing the remaining
    disagreement, matching at least one more coordinate; at most n-1 steps.
    """
    n = len(source_desc)
    d = np.eye(n)
    y = source_desc.astype(float).copy()
    x = target_desc
    for _ in range(n):
        diff = y - x
        if np.max(np.abs(diff)) <= 1e-13:
            break
        over = np.nonzero(diff > 1e-13)[0]
        j = int(over[-1])  # largest index still exceeding the target
        after = np.nonzero(diff[j + 1 :] < -1e-13)[0]
        if len(after) == 0:
            break
        k = j + 1 + int(after[0])
        delta = min(y[j] - x[j], x[k] - y[k])
        gap = y[j] - y[k]
        lam = 1.0 - delta / gap
        t = np.eye(n)
        t[j, j] = t[k, k] = lam
        t[j, k] = t[k, j] = 1.0 - lam
        y = t @ y
        d = t @ d
    return d


def hlp_decompose(mu, nu, tol: float = WEIGHT_TOL) -> PermutationMixture:
    """Write mu as a convex combination of coordinate permutations of nu.

    Requires mu inside the permutohedron of nu; the result recomposes to mu
    within 1e-8 and has at most (n-1)^2 + 1 terms.
    """
    m = np.asarray(mu, dtype=float)
    v = np.asarray(nu, dtype=float)
    if m.shape != v.shape:
        raise LengthMismatch(f"lengths {m.shape} vs {v.shape}")
    if not majorized_by_permutohedron(m, v, tol):
        raise NotMajorized("target vector lies outside the permutohedron")
    n = len(m)
    order_m = np.argsort(-m, kind="stable")
    order_v = np.argsort(-v, kind="stable")
    d_sorted = _transfer_chain(m[order_m], v[order_v])
    # unsort: with S selecting sorted coordinates, D = S_m^T D_sorted S_v
    s_m = np.zeros((n, n))
    s_m[np.arange(n), order_m] = 1.0
    s_v = np.zeros((n, n))
    s_v[np.arange(n), order_v] = 1.0
    d = s_m.T @ d_sorted @ s_v
    return birkhoff(d)


def max_subset_distribution(n: int, d: int) -> np.ndarray:
    """Distribution of the largest element of a uniform d-subset of [n].

    Prefix sums are exactly C(r,d)/C(n,d) (computed in integer arithmetic).
    """
    if not 1 <= d <= n:
        raise BadRange(f"need 1 <= d <= n, got d={d}, n={n}")
    total = math.comb(n, d)
    out = np.empty(n)
    for r in range(1, n + 1):
        out[r - 1] = float(Fraction(math.comb(r, d) - math.comb(r - 1, d), total))
    return out
