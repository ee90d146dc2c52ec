"""Dense two-phase primal simplex for "max c.x subject to <= and = rows".

Bland's anti-cycling rule is used throughout and all comparisons run against
a single pivot tolerance. An optimum carries its point, re-checked against
every row; a program with no feasible point raises ``LpInfeasible``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LpInfeasible, NumericalBreakdown

PIVOT_TOL = 1e-9
RELAXED_PIVOT_TOL = 1e-11
FEAS_TOL = 1e-8
MAX_ITERS = 100_000

LE, EQ = "<=", "="


@dataclass
class LinearProgram:
    """max c.x subject to rows of (coeffs, relation, rhs).

    Variables are free, or all nonnegative with ``nonneg=True``;
    ``objective=None`` means c = 0, so any feasible point is optimal.
    """

    num_vars: int
    constraints: list[tuple[np.ndarray, str, float]] = field(default_factory=list)
    objective: np.ndarray | None = None
    nonneg: bool = False

    def add(self, coeffs, rel: str, rhs: float) -> None:
        row = np.asarray(coeffs, dtype=float)
        if row.shape != (self.num_vars,):
            raise ValueError(f"coefficient vector has shape {row.shape}, expected ({self.num_vars},)")
        if rel not in (LE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        if not np.all(np.isfinite(row)) or not np.isfinite(rhs):
            raise ValueError("constraint entries must be finite")
        self.constraints.append((row, rel, float(rhs)))


@dataclass(frozen=True)
class Optimal:
    x: np.ndarray
    value: float


@dataclass(frozen=True)
class Unbounded:
    """The objective grows without bound over the feasible points."""


def residuals(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint violation at x (0 means all satisfied)."""
    worst = 0.0
    for row, rel, rhs in lp.constraints:
        gap = float(row @ x) - rhs
        worst = max(worst, gap if rel == LE else abs(gap))
    if lp.nonneg:
        worst = max(worst, float(np.max(-x, initial=0.0)))
    return worst


class _Tableau:
    def __init__(self, lp: LinearProgram):
        m = len(lp.constraints)
        n = lp.num_vars

        # structural columns: one per variable if all are nonnegative, else a
        # (pos, neg) pair per free variable
        self.free = not lp.nonneg
        self.pos_col = np.arange(n) * (2 if self.free else 1)
        self.neg_col = self.pos_col + 1
        n_struct = 2 * n if self.free else n
        is_le = np.array([rel == LE for _, rel, _ in lp.constraints], dtype=bool)
        self.art_start = n_struct + int(is_le.sum())
        self.n_total = self.art_start + m  # artificials on every row

        a = np.zeros((m, self.n_total))
        coeffs = np.array([row for row, _, _ in lp.constraints]).reshape(m, n)
        a[:, self.pos_col] = coeffs
        if self.free:
            a[:, self.neg_col] = -coeffs
        a[is_le, np.arange(n_struct, self.art_start)] = 1.0
        b = np.array([rhs for _, _, rhs in lp.constraints], dtype=float)
        flip = b < 0
        a[flip] *= -1.0
        b[flip] *= -1.0
        a[:, self.art_start:] = np.eye(m)

        self.t = np.hstack([a, b[:, None]])
        self.basis = [self.art_start + i for i in range(m)]
        self.m = m

    def pivot(self, prow: int, pcol: int, obj_rows: list[np.ndarray]) -> None:
        t = self.t
        t[prow] = t[prow] / t[prow, pcol]
        col = t[:, pcol].copy()
        col[prow] = 0.0
        t -= np.outer(col, t[prow])
        for z in obj_rows:
            z -= z[pcol] * t[prow]
        self.basis[prow] = pcol

    def _ratio_row(self, pcol: int, tol: float) -> int | None:
        col = self.t[:self.m, pcol]
        rhs = self.t[:self.m, -1]
        best = None
        for i in range(self.m):
            if col[i] > tol:
                ratio = rhs[i] / col[i]
                if best is None or ratio < best[0] - 1e-12 or (
                    abs(ratio - best[0]) <= 1e-12 and self.basis[i] < self.basis[best[1]]
                ):
                    best = (ratio, i)
        return None if best is None else best[1]

    def run(self, z: np.ndarray, extra: list[np.ndarray], allowed: np.ndarray) -> str:
        """Bland iterations on objective row z; returns 'optimal' or 'unbounded'."""
        for _ in range(MAX_ITERS):
            candidates = np.nonzero((z[:-1] < -PIVOT_TOL) & allowed)[0]
            if len(candidates) == 0:
                return "optimal"
            pcol = int(candidates[0])
            prow = self._ratio_row(pcol, PIVOT_TOL)
            if prow is None:
                prow = self._ratio_row(pcol, RELAXED_PIVOT_TOL)
            if prow is None:
                return "unbounded"
            self.pivot(prow, pcol, [z] + extra)
        raise NumericalBreakdown("simplex iteration limit exceeded")

    def solution(self) -> np.ndarray:
        x_std = np.zeros(self.n_total)
        for i, col in enumerate(self.basis):
            x_std[col] = self.t[i, -1]
        x = x_std[self.pos_col]
        if self.free:
            x -= x_std[self.neg_col]
        return x


def solve(lp: LinearProgram) -> Optimal | Unbounded:
    """Two-phase simplex; returns Optimal or Unbounded, and raises
    LpInfeasible when no point satisfies the rows."""
    tab = _Tableau(lp)
    m, n_total = tab.m, tab.n_total

    # phase-1 objective (min sum of artificials), pre-reduced for the
    # artificial basis; the phase-2 row (-c, for max c.x) rides along
    z1 = np.zeros(n_total + 1)
    z1[:n_total] = -tab.t[:, :n_total].sum(axis=0)
    z1[tab.art_start:n_total] += 1.0
    z1[-1] = -tab.t[:, -1].sum()

    c = np.zeros(lp.num_vars) if lp.objective is None else np.asarray(lp.objective, dtype=float)
    z2 = np.zeros(n_total + 1)
    z2[tab.pos_col] = -c
    if tab.free:
        z2[tab.neg_col] = c

    status = tab.run(z1, [z2], np.ones(n_total, dtype=bool))
    if status == "unbounded":
        raise NumericalBreakdown("phase 1 reported unbounded; no usable pivot found")
    if -z1[-1] > FEAS_TOL:
        raise LpInfeasible("no point satisfies the constraints")

    # drive artificials out of the basis; redundant rows stay with a zeroed row
    for i in range(m):
        if tab.basis[i] >= tab.art_start:
            row = tab.t[i, : tab.art_start]
            pivots = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
            if len(pivots):
                tab.pivot(i, int(pivots[0]), [z1, z2])

    allowed = np.zeros(n_total, dtype=bool)
    allowed[: tab.art_start] = True
    if tab.run(z2, [z1], allowed) == "unbounded":
        return Unbounded()

    x = tab.solution()
    worst = residuals(lp, x)
    if worst > FEAS_TOL:
        raise NumericalBreakdown(f"solver point violates constraints by {worst:.3e}")
    return Optimal(x=x, value=float(c @ x))
