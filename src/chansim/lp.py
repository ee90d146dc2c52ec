"""Dense primal simplex for "max c.x subject to <= and = rows".

A ``<=`` row with a nonnegative right-hand side starts with its slack
basic; only ``=`` rows and ``<=`` rows with a negative right-hand side get
an artificial, so phase 1 runs only for them. ``maximize_each`` then
re-optimises several objectives over one tableau, each phase 2 starting at
the previous optimum. Bland's anti-cycling rule is used throughout and all
comparisons run against a single pivot tolerance. An optimum carries its
point, re-checked against every row; a program with no feasible point
raises ``LpInfeasible``.
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


def _rows(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows as arrays: coefficients (m, n), right-hand sides, and a
    mask of the ``<=`` rows."""
    m = len(lp.constraints)
    a = np.array([row for row, _, _ in lp.constraints]).reshape(m, lp.num_vars)
    b = np.array([rhs for _, _, rhs in lp.constraints], dtype=float)
    is_le = np.array([rel == LE for _, rel, _ in lp.constraints], dtype=bool)
    return a, b, is_le


def _violation(rows, nonneg: bool, x: np.ndarray) -> float:
    a, b, is_le = rows
    gap = a @ x - b
    worst = float(np.max(np.where(is_le, gap, np.abs(gap)), initial=0.0))
    if nonneg:
        worst = max(worst, float(np.max(-x, initial=0.0)))
    return worst


def residuals(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint violation at x (0 means all satisfied)."""
    return _violation(_rows(lp), lp.nonneg, x)


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
        self.rows = _rows(lp)
        coeffs, b, is_le = self.rows
        b = b.copy()
        flip = b < 0
        # a <= row with b >= 0 starts with its slack basic; an = row, or a
        # <= row negated to make b >= 0, starts with an artificial
        self.art_rows = np.nonzero(~is_le | flip)[0]
        self.art_start = n_struct + int(is_le.sum())
        self.n_total = self.art_start + len(self.art_rows)

        a = np.zeros((m, self.n_total))
        a[:, self.pos_col] = coeffs
        if self.free:
            a[:, self.neg_col] = -coeffs
        self.basis = np.zeros(m, dtype=int)
        self.basis[is_le] = np.arange(n_struct, self.art_start)
        a[is_le, self.basis[is_le]] = 1.0
        a[flip] *= -1.0
        b[flip] *= -1.0
        self.basis[self.art_rows] = np.arange(self.art_start, self.n_total)
        a[self.art_rows, self.basis[self.art_rows]] = 1.0

        self.t = np.hstack([a, b[:, None]])

    def pivot(self, prow: int, pcol: int, z: np.ndarray | None) -> None:
        t = self.t
        row = t[prow] / t[prow, pcol]
        t -= t[:, pcol, None] * row
        t[prow] = row
        if z is not None:
            z -= z[pcol] * row
        self.basis[prow] = pcol

    def _ratio_row(self, pcol: int, tol: float) -> int | None:
        """Bland's leaving row: least ratio, ties within 1e-12 broken by the
        smallest basic column."""
        col = self.t[:, pcol]
        rows = np.flatnonzero(col > tol)
        if not rows.size:
            return None
        ratios = self.t[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + 1e-12]
        return int(ties[self.basis[ties].argmin()])

    def run(self, z: np.ndarray, allowed: np.ndarray) -> str:
        """Bland iterations on objective row z; returns 'optimal' or 'unbounded'."""
        for _ in range(MAX_ITERS):
            entering = (z[:-1] < -PIVOT_TOL) & allowed
            pcol = int(entering.argmax())
            if not entering[pcol]:
                return "optimal"
            prow = self._ratio_row(pcol, PIVOT_TOL)
            if prow is None:
                prow = self._ratio_row(pcol, RELAXED_PIVOT_TOL)
            if prow is None:
                return "unbounded"
            self.pivot(prow, pcol, z)
        raise NumericalBreakdown("simplex iteration limit exceeded")

    def phase_one(self) -> None:
        """Minimise the sum of the artificials, raise LpInfeasible if it
        stays positive, then drive the artificials out of the basis;
        redundant rows keep theirs on a zeroed row."""
        z = -self.t[self.art_rows].sum(axis=0)
        z[self.art_start:-1] += 1.0
        if self.run(z, np.ones(self.n_total, dtype=bool)) == "unbounded":
            raise NumericalBreakdown("phase 1 reported unbounded; no usable pivot found")
        if -z[-1] > FEAS_TOL:
            raise LpInfeasible("no point satisfies the constraints")
        for i in np.nonzero(self.basis >= self.art_start)[0]:
            pivots = np.nonzero(np.abs(self.t[i, : self.art_start]) > PIVOT_TOL)[0]
            if len(pivots):
                self.pivot(int(i), int(pivots[0]), None)

    def priced(self, c: np.ndarray) -> np.ndarray:
        """The phase-2 row for max c.x (-c on the structural columns),
        reduced against the current basis."""
        z = np.zeros(self.n_total + 1)
        z[self.pos_col] = -c
        if self.free:
            z[self.neg_col] = c
        return z - z[self.basis] @ self.t

    def solution(self) -> np.ndarray:
        x_std = np.zeros(self.n_total)
        x_std[self.basis] = self.t[:, -1]
        x = x_std[self.pos_col]
        if self.free:
            x -= x_std[self.neg_col]
        return x


def maximize_each(lp: LinearProgram, objectives) -> list[Optimal | Unbounded]:
    """Maximise each objective in turn over the rows of ``lp``, which keep
    its ``nonneg`` but not its objective: an Optimal or Unbounded per
    objective, and LpInfeasible raised when no point satisfies the rows.

    Phase 1 runs once, and only if some row starts with an artificial.
    Each objective is then priced against the basis the previous one left,
    so its phase 2 starts at that vertex.
    """
    tab = _Tableau(lp)
    if len(tab.art_rows):
        tab.phase_one()
    allowed = np.arange(tab.n_total) < tab.art_start
    results: list[Optimal | Unbounded] = []
    for c in objectives:
        c = np.asarray(c, dtype=float)
        if tab.run(tab.priced(c), allowed) == "unbounded":
            results.append(Unbounded())
            continue
        x = tab.solution()
        worst = _violation(tab.rows, lp.nonneg, x)
        if worst > FEAS_TOL:
            raise NumericalBreakdown(f"solver point violates constraints by {worst:.3e}")
        results.append(Optimal(x=x, value=float(c @ x)))
    return results


def solve(lp: LinearProgram) -> Optimal | Unbounded:
    """``maximize_each`` with the program's own objective (c = 0 if none)."""
    c = np.zeros(lp.num_vars) if lp.objective is None else lp.objective
    return maximize_each(lp, [c])[0]
