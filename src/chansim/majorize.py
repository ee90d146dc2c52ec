"""Majorization tests, constructive permutation-mixture decompositions and
Carathéodory reduction.

No construction calls the permutation-mixture decompositions
(``hlp_decompose``, ``birkhoff``, ``max_subset_distribution``); they are
kept for the tests and because the benchmark's trace hooks patch them by
name. ``hlp_decompose`` writes a probability vector inside the permutohedron of
another as an explicit convex combination of at most n of its coordinate
permutations: a chain of pairwise-averaging transfers produces a doubly
stochastic matrix connecting the two vectors, a greedy Birkhoff extraction
turns that matrix into linearly independent permutation terms (keeping its
matching from term to term and re-augmenting only the rows that lost their
edge), and ``caratheodory`` cuts those terms to at most n, since the
permuted vectors lie in an (n-1)-dimensional affine space.

``caratheodory`` cuts any weighted set of points to at most (affine rank +
1) of them with the same weighted sum. Behind the Fast-Carathéodory
recursion of Maalouf, Jubran and Feldman, each elimination takes one SVD
null basis of [points.T; 1] and walks it: every null vector moves the
weights until the first one is exactly zero, and that coordinate is
reflected out of the vectors left. Beyond the SVD's rank cut-off at
round-off level there is no threshold and no clamp, so no mass is gained
or lost beyond round-off. ``simulate`` uses it to bound every
certificate's term count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadRange, LengthMismatch, NotDoublyStochastic, NotMajorized

# entries down to -NEGATIVE_TOL are round-off zeros of a doubly stochastic matrix
NEGATIVE_TOL = 1e-10
RECON_TOL = 1e-8
WEIGHT_TOL = 1e-9


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


def majorized_by_permutohedron(x, mu, tol: float = WEIGHT_TOL) -> np.ndarray:
    """Whether x lies in the convex hull of the coordinate permutations of
    mu, for the vectors along the last axis of x and mu, whose leading axes
    broadcast; one verdict per vector pair (a numpy bool for two vectors).

    Checked via ascending partial sums: for every r the r smallest entries
    of x must sum to at least the r smallest entries of mu, with totals
    agreeing, each within the flat ``tol``.
    """
    xs = np.sort(np.asarray(x, dtype=float), axis=-1)
    ms = np.sort(np.asarray(mu, dtype=float), axis=-1)
    if xs.shape[-1] != ms.shape[-1]:
        raise LengthMismatch(f"lengths {xs.shape[-1]} vs {ms.shape[-1]}")
    gaps = xs.cumsum(axis=-1) - ms.cumsum(axis=-1)
    return (gaps >= -tol).all(axis=-1) & (gaps[..., -1] <= tol)


def _augment(adjacent: list[list[int]], col_of: list[int], row_of: list[int], r: int) -> bool:
    """Match the free row r along a shortest augmenting path of the row ->
    column support graph (``adjacent[row]``, ascending columns), keeping
    every other pair of the matching (col_of per row, row_of per column, -1
    when free). False when no path exists.
    """
    reached_from = {}  # column -> row it was reached from
    frontier = [r]
    while frontier:
        following = []
        for u in frontier:
            for c in adjacent[u]:
                if c in reached_from:
                    continue
                reached_from[c] = u
                if row_of[c] >= 0:
                    following.append(row_of[c])
                    continue
                # flip the path back to r: each row on it takes the column
                # it reached, and r, free until now, ends the walk
                while c >= 0:
                    u = reached_from[c]
                    previous = col_of[u]
                    col_of[u], row_of[c] = c, u
                    c = previous
                return True
        frontier = following
    return False


def _eliminate(weights: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carathéodory along one null basis of A = [points.T; 1].

    The right singular vectors of A past its numerical rank r span its null
    space; they are the orthonormal columns of Q. Each step (Maalouf, Jubran
    and Feldman, NeurIPS 2019, Alg. 1) moves the weights along the first
    column v of Q, whose entries sum to zero, until the first weight
    reaches zero: with step = min over v_t > 0 of w_t / v_t, a weight
    with v_t > 0 becomes v_t (w_t / v_t - step), which is exactly zero at the
    minimum and never negative, and one with v_t < 0 grows. Every coordinate
    that reached zero is then removed from the remaining vectors by a
    Householder reflection that zeroes its row of Q and drops one column,
    keeping the rest orthonormal. A w is unchanged up to round-off, so the
    kept points recompose the same sum and total; live points minus columns
    never exceeds r, so at most r points survive.
    """
    w = weights.copy()
    a = np.vstack([points.T, np.ones(len(w))])
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > s.max(initial=0.0) * max(a.shape) * np.finfo(float).eps))
    qt = np.ascontiguousarray(vt[rank:])  # the columns of Q, one per row
    while len(qt):
        v = qt[0]  # a unit null vector of the ones row has positive entries
        up = np.nonzero(v > 0.0)[0]
        ratio = w[up] / v[up]
        step = ratio.min()
        w -= step * v
        w[up] = v[up] * (ratio - step)
        for z in up[ratio == step]:
            u = qt[:, z].copy()
            norm = math.sqrt(u @ u)
            if norm == 0.0:  # a tie outside every vector left, or none left
                continue
            u[0] += math.copysign(norm, u[0])
            qt -= np.multiply.outer(u * (2.0 / (u @ u)), u @ qt)
            qt = qt[1:]
            qt[:, z] = 0.0
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
    ``_eliminate``, and only the chosen groups stay, each point's weight
    scaled by its group's new weight over its old one. Each round at least
    halves the points, so every null basis is of at most 2(D+1) points.
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

    Greedy extraction along perfect matchings of the positive support, until
    the support has none; the mass left must be at most ``tol``. Each term
    takes the smallest matched entry as its weight and subtracts it along
    the matching. The matching is kept between terms: only the rows whose
    matched entry fell to zero are matched again, by augmenting paths. Each
    term zeroes an entry that no later term uses, so the terms are linearly
    independent and there are at most (n-1)^2 + 1 of them.
    """
    a = np.array(d, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotDoublyStochastic(f"expected square matrix, got {a.shape}")
    n = a.shape[0]
    if np.any(a < -NEGATIVE_TOL):
        raise NotDoublyStochastic("negative entries")
    if np.max(np.abs(a.sum(axis=0) - 1.0)) > tol or np.max(np.abs(a.sum(axis=1) - 1.0)) > tol:
        raise NotDoublyStochastic("row/column sums deviate from 1")

    work = np.clip(a, 0.0, None)
    adjacent = [np.flatnonzero(row).tolist() for row in work > 0.0]
    rows = np.arange(n)
    col_of, row_of = [-1] * n, [-1] * n
    free = range(n)
    weights: list[float] = []
    perms: list[tuple[int, ...]] = []
    remaining = 1.0
    while all(_augment(adjacent, col_of, row_of, r) for r in free):
        cols = np.array(col_of)
        matched = work[rows, cols]
        w = float(matched.min())
        weights.append(w)
        perms.append(tuple(col_of))
        work[rows, cols] = matched - w
        free = np.flatnonzero(matched == w).tolist()  # entries now exactly zero
        for r in free:
            adjacent[r].remove(col_of[r])
            row_of[col_of[r]] = -1
            col_of[r] = -1
        remaining -= w
    if remaining > tol:
        raise NotDoublyStochastic(
            f"no perfect matching on residual support (mass {remaining:.3e} left)"
        )
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

    Requires mu inside the permutohedron of nu. The Birkhoff terms of the
    transfer matrix are cut by ``caratheodory`` on their points nu[perm],
    which lie in the hyperplane of total sum(nu), so at most n terms are
    kept, in Birkhoff order; they recompose mu up to round-off.
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
    terms = birkhoff(d).terms
    keep, weights = caratheodory([w for w, _ in terms], v[np.array([p for _, p in terms])])
    return PermutationMixture(terms=tuple((float(w), terms[t][1]) for t, w in zip(keep, weights)))


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
