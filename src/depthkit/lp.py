"""Dense two-phase simplex for linear programs with variable upper bounds.

Solves    maximize  c'x   subject to   A x = b,   0 <= x <= u
where entries of ``u`` may be infinite.  Bland's smallest-index rule is used
for both the entering and the leaving choice, so the method terminates even
on degenerate instances (the zonoid program has b = 0 and is maximally
degenerate at the start).  Problem sizes here are tiny, so each iteration
refactorizes the basis with dense solves instead of maintaining an inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationLimitError

_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None


class _Tableau:
    def __init__(self, a: np.ndarray, b: np.ndarray, upper: np.ndarray):
        self.a = a
        self.b = b
        self.upper = upper
        m, n = a.shape
        # basis holds column indices; nonbasic variables sit at a bound
        self.basis = list(range(n - m, n))
        self.at_upper = np.zeros(n, dtype=bool)

    def _nonbasic_rhs(self) -> np.ndarray:
        rhs = self.b.copy()
        for j in np.flatnonzero(self.at_upper):
            if j not in self.basis:
                rhs -= self.a[:, j] * self.upper[j]
        return rhs

    def basic_values(self) -> np.ndarray:
        bmat = self.a[:, self.basis]
        return np.linalg.solve(bmat, self._nonbasic_rhs())

    def solution(self) -> np.ndarray:
        n = self.a.shape[1]
        x = np.where(self.at_upper, np.where(np.isfinite(self.upper), self.upper, 0.0), 0.0)
        xb = self.basic_values()
        for value, j in zip(xb, self.basis):
            x[j] = value
        return np.clip(x, 0.0, None)

    def run(self, c: np.ndarray, max_iter: int) -> str:
        m, n = self.a.shape
        basic_mask = np.zeros(n, dtype=bool)
        basic_mask[self.basis] = True
        for _ in range(max_iter):
            bmat = self.a[:, self.basis]
            xb = np.linalg.solve(bmat, self._nonbasic_rhs())
            y = np.linalg.solve(bmat.T, c[self.basis])
            reduced = c - y @ self.a

            entering = -1
            sigma = 0.0
            for j in range(n):
                if basic_mask[j] or self.upper[j] == 0.0:
                    continue
                if not self.at_upper[j] and reduced[j] > _FEAS_TOL:
                    entering, sigma = j, 1.0
                    break
                if self.at_upper[j] and reduced[j] < -_FEAS_TOL:
                    entering, sigma = j, -1.0
                    break
            if entering < 0:
                return "optimal"

            d = np.linalg.solve(bmat, self.a[:, entering])
            # candidate steps: (step, variable index, kind)
            best_t = np.inf
            best_var = -1
            best_row = -1
            if np.isfinite(self.upper[entering]):
                best_t, best_var, best_row = self.upper[entering], entering, -1
            for i in range(m):
                delta = sigma * d[i]
                var = self.basis[i]
                if delta > _PIVOT_TOL:
                    t = max(xb[i], 0.0) / delta
                elif delta < -_PIVOT_TOL and np.isfinite(self.upper[var]):
                    t = (self.upper[var] - min(xb[i], self.upper[var])) / (-delta)
                else:
                    continue
                if t < best_t - _PIVOT_TOL or (t < best_t + _PIVOT_TOL and (best_var < 0 or var < best_var)):
                    best_t, best_var, best_row = t, var, i
            if not np.isfinite(best_t):
                return "unbounded"

            if best_var == entering:
                # bound flip, basis unchanged
                self.at_upper[entering] = not self.at_upper[entering]
                continue
            leaving = self.basis[best_row]
            delta = sigma * d[best_row]
            # leaving variable lands on the bound it ran into
            self.at_upper[leaving] = delta < 0
            basic_mask[leaving] = False
            basic_mask[entering] = True
            self.basis[best_row] = entering
            self.at_upper[entering] = False
        raise IterationLimitError(f"simplex iteration limit of {max_iter} exceeded")


def solve_lp(c, a, b, upper=None, max_iter: int = 20000) -> LPResult:
    """Maximize c'x subject to A x = b, 0 <= x <= upper (None means +inf)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = a.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError("inconsistent LP shapes")
    if upper is None:
        up = np.full(n, np.inf)
    else:
        up = np.asarray(upper, dtype=float).reshape(-1).copy()
        if up.shape[0] != n:
            raise ValueError("inconsistent bound shape")
    if np.any(up < 0):
        return LPResult("infeasible", None, None)

    # orient rows so artificial variables start feasible at |b|
    sign = np.where(b < 0, -1.0, 1.0)
    a2 = np.hstack([a * sign[:, None], np.eye(m)])
    b2 = b * sign
    up2 = np.concatenate([up, np.full(m, np.inf)])

    tab = _Tableau(a2, b2, up2)
    phase1 = np.concatenate([np.zeros(n), -np.ones(m)])
    tab.run(phase1, max_iter)
    if phase1 @ tab.solution() < -_FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
        return LPResult("infeasible", None, None)
    # pin artificials at zero for phase 2
    tab.upper[n:] = 0.0
    tab.at_upper[n:] &= False

    phase2 = np.concatenate([c, np.zeros(m)])
    status = tab.run(phase2, max_iter)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = tab.solution()[:n]
    return LPResult("optimal", x, float(c @ x))


def feasible(a, b, upper=None) -> bool:
    """Whether {x : A x = b, 0 <= x <= upper} is nonempty."""
    a = np.asarray(a, dtype=float)
    res = solve_lp(np.zeros(a.shape[1]), a, b, upper)
    return res.status == "optimal"
