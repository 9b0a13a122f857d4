"""The revised simplex of ``depthkit.lp`` against the dense one it replaced.

``DenseTableau`` is the earlier iteration loop, kept unchanged but for a
step counter: every iteration solves for the basic values, the duals and
the step direction with dense solves, and rebuilds the nonbasic right-hand
side column by column.  The revised loop keeps the basis inverse and the
basic values from step to step, so its arithmetic differs by rounding; it
must take the same steps, so the status and the step count are equal and
the values agree to 1e-12 relative.
"""

import numpy as np

from conftest import make_cloud
from depthkit import DataCloud, lp, weighted
from depthkit.core import clamp_depth
from depthkit.errors import IterationLimitError
from depthkit.lp import _FEAS_TOL, _PIVOT_TOL, LPResult, solve_lp


class DenseTableau:
    def __init__(self, a: np.ndarray, b: np.ndarray, upper: np.ndarray):
        self.a = a
        self.b = b
        self.upper = upper
        m, n = a.shape
        # basis holds column indices; nonbasic variables sit at a bound
        self.basis = list(range(n - m, n))
        self.at_upper = np.zeros(n, dtype=bool)
        self.steps = 0

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

            self.steps += 1
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


def dense_solve_lp(c, a, b, upper=None, max_iter: int = 20000) -> LPResult:
    """The earlier ``solve_lp`` on :class:`DenseTableau`."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = a.shape
    up = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).reshape(-1).copy()
    if np.any(up < 0):
        return LPResult("infeasible", None, None, 0)
    sign = np.where(b < 0, -1.0, 1.0)
    a2 = np.hstack([a * sign[:, None], np.eye(m)])
    b2 = b * sign
    up2 = np.concatenate([up, np.full(m, np.inf)])

    tab = DenseTableau(a2, b2, up2)
    phase1 = np.concatenate([np.zeros(n), -np.ones(m)])
    tab.run(phase1, max_iter)
    if phase1 @ tab.solution() < -_FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
        return LPResult("infeasible", None, None, tab.steps)
    tab.upper[n:] = 0.0
    tab.at_upper[n:] &= False

    phase2 = np.concatenate([c, np.zeros(m)])
    status = tab.run(phase2, max_iter)
    if status == "unbounded":
        return LPResult("unbounded", None, None, tab.steps)
    x = tab.solution()[:n]
    return LPResult("optimal", x, float(c @ x), tab.steps)


def assert_same_answer(program):
    got, want = solve_lp(*program), dense_solve_lp(*program)
    assert got.status == want.status
    assert isinstance(got.pivots, int) and got.pivots == want.pivots
    if want.status == "optimal":
        scale = max(1.0, abs(want.value))
        assert abs(got.value - want.value) <= 1e-12 * scale
        assert np.allclose(got.x, want.x, rtol=1e-12, atol=1e-12 * np.abs(want.x).max(initial=1.0))
    else:
        assert got.x is None and got.value is None
    return got


def random_program(rng):
    m, n = int(rng.integers(1, 5)), int(rng.integers(2, 12))
    a = rng.standard_normal((m, n))
    if m > 1 and rng.random() < 0.2:
        a[-1] = a[0]  # a duplicated equality
    upper = rng.uniform(0.2, 2.0, n)
    upper[rng.random(n) < 0.3] = np.inf
    kind = rng.random()
    if kind < 0.6:
        # feasible through an interior point
        b = a @ (rng.uniform(0.05, 0.95, n) * np.where(np.isfinite(upper), upper, 1.0))
    else:
        # often out of reach of the box
        b = rng.standard_normal(m) * 10.0
        if m > 1 and np.array_equal(a[-1], a[0]) and rng.random() < 0.5:
            b[-1] = b[0]
    return rng.standard_normal(n), a, b, upper


def test_matches_the_dense_simplex_on_random_programs():
    rng = np.random.default_rng(11)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(450):
        statuses[assert_same_answer(random_program(rng)).status] += 1
    # each outcome occurs often enough to be compared
    assert min(statuses.values()) >= 20, statuses


def zonoid_programs(cloud, zs, monkeypatch):
    """The linear programs ``zonoid_depth`` solves at each row of ``zs``."""
    programs = []

    def spy(c, a, b, upper):
        programs.append((c, a, b, upper))
        return solve_lp(c, a, b, upper)

    with monkeypatch.context() as patch:
        patch.setattr(weighted, "solve_lp", spy)
        depths = [weighted.zonoid_depth(z, cloud) for z in zs]
    assert len(programs) == len(zs)
    return programs, depths


def clouds_with_queries():
    rng = np.random.default_rng(3)
    for seed, n, d in [(1, 27, 2), (2, 80, 2), (3, 40, 3), (4, 25, 3)]:
        cloud = make_cloud(seed, n, d)
        yield cloud, np.vstack([cloud.points[::2], rng.standard_normal((4, d)),
                                cloud.points.max(axis=0) + 0.5])
    pts = make_cloud(5, 12).points
    # duplicate points: every point three times
    cloud = DataCloud(np.vstack([pts, pts, pts]))
    yield cloud, np.vstack([pts[::2], pts.mean(axis=0)])
    # collinear clouds, in the plane and in space
    t = np.random.default_rng(6).standard_normal(20)
    for direction in ([1.0, 2.0], [1.0, -1.0, 0.5]):
        line = np.outer(t, direction) + 3.0
        cloud = DataCloud(line)
        yield cloud, np.vstack([line[::3], line.mean(axis=0), line.mean(axis=0) + 0.1])


def test_matches_the_dense_simplex_on_zonoid_programs(monkeypatch):
    compared = 0
    for cloud, zs in clouds_with_queries():
        programs, depths = zonoid_programs(cloud, zs, monkeypatch)
        for program, depth in zip(programs, depths):
            want = assert_same_answer(program)
            assert abs(depth - clamp_depth(want.value)) <= 1e-12
            compared += 1
    assert compared > 120


def test_the_step_limit_binds_at_the_same_count(monkeypatch):
    cloud = make_cloud(2, 80)
    programs, _ = zonoid_programs(cloud, cloud.points[:3], monkeypatch)
    limits = []
    for program in programs:

        def smallest_limit(solve):
            lo, hi = 1, 20000
            while lo < hi:
                mid = (lo + hi) // 2
                try:
                    solve(*program, max_iter=mid)
                    hi = mid
                except IterationLimitError:
                    lo = mid + 1
            return lo

        limits.append(smallest_limit(solve_lp))
        assert limits[-1] == smallest_limit(dense_solve_lp)
    assert max(limits) > 2 * lp._REFACTOR_EVERY


def test_the_basis_inverse_is_rebuilt_at_each_phase_and_every_few_changes(monkeypatch):
    cloud = make_cloud(2, 80)
    (program,), _ = zonoid_programs(cloud, cloud.points[:1], monkeypatch)
    rebuilds = []
    refactor = lp._Tableau._refactor

    def spy(tab):
        rebuilds.append((tab.steps, getattr(tab, "changes", 0)))
        refactor(tab)
        # a rebuilt inverse inverts the basis it was built from
        assert np.allclose(tab.binv @ tab.a[:, tab.basis], np.eye(tab.basis.size), atol=1e-12)

    monkeypatch.setattr(lp._Tableau, "_refactor", spy)
    res = solve_lp(*program)
    # one rebuild at each phase start, with fewer changes behind it than a
    # full interval, and the others exactly when the interval is full
    assert res.pivots > 2 * lp._REFACTOR_EVERY
    assert rebuilds[0] == (0, 0)
    changes = [count for _, count in rebuilds]
    assert changes.count(lp._REFACTOR_EVERY) >= 2
    assert len(changes) - changes.count(lp._REFACTOR_EVERY) == 2


def test_the_updated_inverse_and_values_match_a_fresh_solve():
    # fewer steps than a rebuild interval: the kept state comes from the
    # updates alone, and must equal what the basis gives from scratch
    rng = np.random.default_rng(8)
    updated = 0
    for _ in range(40):
        c, a, b, upper = random_program(rng)
        m, n = a.shape
        sign = np.where(b < 0, -1.0, 1.0)
        for limit in range(1, 12):
            tab = lp._Tableau(np.hstack([a * sign[:, None], np.eye(m)]), b * sign,
                              np.concatenate([upper, np.full(m, np.inf)]))
            try:
                tab.run(np.concatenate([np.zeros(n), -np.ones(m)]), limit)
            except IterationLimitError:
                pass
            assert np.allclose(tab.binv @ tab.a[:, tab.basis], np.eye(m), atol=1e-9)
            assert np.allclose(tab.xb, tab.basic_values(), atol=1e-9)
            updated += tab.changes > 0
    assert updated > 100
