"""Revised two-phase bounded simplex for linear programs with variable upper bounds.

Solves    maximize  c'x   subject to   A x = b,   0 <= x <= u
where entries of ``u`` may be infinite.  Bland's smallest-index rule is used
for both the entering and the leaving choice, so the method terminates even
on degenerate instances (the zonoid program has b = 0 and is maximally
degenerate at the start).

The tableau keeps the inverse of the m x m basis and the basic values from
step to step.  A pivot updates the inverse by one rank-one (product-form)
step; a bound flip leaves the basis, and so the inverse, as it is.  Either
step moves the basic values along the step direction.  The inverse and the
basic values are rebuilt from the basis at the start of each phase and
after every ``_REFACTOR_EVERY`` basis changes, which bounds the drift of the
updates, and the returned solution solves for the basic values from
scratch.  A step costs a few array operations over the n columns and a
Python loop over the m rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationLimitError

_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-11
# basis changes between two rebuilds of the basis inverse
_REFACTOR_EVERY = 32


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None
    pivots: int  # simplex steps over both phases: pivots and bound flips


class _Tableau:
    def __init__(self, a: np.ndarray, b: np.ndarray, upper: np.ndarray):
        self.a = a
        self.b = b
        self.upper = upper
        m, n = a.shape
        # basis holds column indices; nonbasic variables sit at a bound
        self.basis = np.arange(n - m, n)
        self.at_upper = np.zeros(n, dtype=bool)
        self.steps = 0

    def _nonbasic_rhs(self) -> np.ndarray:
        # only nonbasic variables sit at their upper bound, and it is finite
        return self.b - self.a[:, self.at_upper] @ self.upper[self.at_upper]

    def basic_values(self) -> np.ndarray:
        return np.linalg.solve(self.a[:, self.basis], self._nonbasic_rhs())

    def solution(self) -> np.ndarray:
        x = np.where(self.at_upper, np.where(np.isfinite(self.upper), self.upper, 0.0), 0.0)
        x[self.basis] = self.basic_values()
        return np.clip(x, 0.0, None)

    def _refactor(self) -> None:
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.xb = self.binv @ self._nonbasic_rhs()
        self.changes = 0

    def run(self, c: np.ndarray, max_iter: int) -> str:
        upper = self.upper.tolist()
        frozen = self.upper == 0.0
        # the way each variable may enter: up from its lower bound (+1), down
        # from its upper bound (-1), or not at all (0: basic or fixed at zero)
        way = np.where(self.at_upper, -1.0, 1.0)
        way[frozen] = 0.0
        way[self.basis] = 0.0
        self._refactor()
        for _ in range(max_iter):
            # Bland: the first column whose reduced cost improves its way
            eligible = (c - (c[self.basis] @ self.binv) @ self.a) * way > _FEAS_TOL
            entering = int(eligible.argmax())
            if not eligible[entering]:
                return "optimal"
            sigma = float(way[entering])

            d = self.binv @ self.a[:, entering]
            best_t = math.inf
            best_var = -1
            best_row = -1
            if math.isfinite(upper[entering]):
                best_t, best_var = upper[entering], entering
            for i, (var, x, di) in enumerate(zip(self.basis.tolist(), self.xb.tolist(),
                                                 d.tolist())):
                delta = sigma * di
                if delta > _PIVOT_TOL:
                    t = max(x, 0.0) / delta
                elif delta < -_PIVOT_TOL and math.isfinite(upper[var]):
                    t = (upper[var] - min(x, upper[var])) / (-delta)
                else:
                    continue
                if t < best_t - _PIVOT_TOL or (t < best_t + _PIVOT_TOL and (best_var < 0 or var < best_var)):
                    best_t, best_var, best_row = t, var, i
            if best_t == math.inf:
                return "unbounded"

            self.steps += 1
            self.xb -= (sigma * best_t) * d
            if best_var == entering:
                # bound flip, basis unchanged
                self.at_upper[entering] = sigma > 0
                way[entering] = -sigma
                continue
            leaving = best_var
            # leaving variable lands on the bound it ran into
            self.at_upper[leaving] = lands_upper = sigma * d[best_row] < 0
            way[leaving] = 0.0 if frozen[leaving] else (-1.0 if lands_upper else 1.0)
            way[entering] = 0.0
            self.basis[best_row] = entering
            self.xb[best_row] = upper[entering] - best_t if sigma < 0 else best_t
            self.at_upper[entering] = False
            self.changes += 1
            if self.changes == _REFACTOR_EVERY:
                self._refactor()
            else:
                pivot_row = self.binv[best_row] / d[best_row]
                self.binv -= d[:, None] * pivot_row
                self.binv[best_row] = pivot_row
        raise IterationLimitError(f"simplex iteration limit of {max_iter} exceeded")


def solve_lp(c, a, b, upper=None, max_iter: int = 20000) -> LPResult:
    """Maximize c'x subject to A x = b, 0 <= x <= upper (None means +inf).

    ``pivots`` counts the simplex steps of both phases, pivots and bound
    flips alike: a certificate of the work the answer took.
    """
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
        return LPResult("infeasible", None, None, 0)

    # orient rows so artificial variables start feasible at |b|
    sign = np.where(b < 0, -1.0, 1.0)
    a2 = np.hstack([a * sign[:, None], np.eye(m)])
    b2 = b * sign
    up2 = np.concatenate([up, np.full(m, np.inf)])

    tab = _Tableau(a2, b2, up2)
    phase1 = np.concatenate([np.zeros(n), -np.ones(m)])
    tab.run(phase1, max_iter)
    if phase1 @ tab.solution() < -_FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
        return LPResult("infeasible", None, None, tab.steps)
    # pin artificials at zero for phase 2
    tab.upper[n:] = 0.0
    tab.at_upper[n:] &= False

    phase2 = np.concatenate([c, np.zeros(m)])
    status = tab.run(phase2, max_iter)
    if status == "unbounded":
        return LPResult("unbounded", None, None, tab.steps)
    x = tab.solution()[:n]
    return LPResult("optimal", x, float(c @ x), tab.steps)


def feasible(a, b, upper=None) -> bool:
    """Whether {x : A x = b, 0 <= x <= upper} is nonempty."""
    a = np.asarray(a, dtype=float)
    res = solve_lp(np.zeros(a.shape[1]), a, b, upper)
    return res.status == "optimal"
