import sys

import numpy as np
import pytest

from depthkit import DataCloud, eu27
from depthkit.geometry import ConvexRegion, convex_hull


def make_cloud(seed: int, n: int, d: int = 2) -> DataCloud:
    """General-position Gaussian cloud, the standard randomized fixture."""
    rng = np.random.default_rng(seed)
    return DataCloud(rng.standard_normal((n, d)))


def benchmark_gaussian(seed: int, n: int) -> np.ndarray:
    """A planar Gaussian sample with the shape and offset of the
    benchmark's g80 and g400 clouds."""
    rng = np.random.default_rng([seed, n])
    return rng.standard_normal((n, 2)) @ np.array([[2.0, 0.0], [0.7, 1.0]]).T + [10.0, 5.0]


def linprog_zonoid_depth(q, pts) -> float:
    """Zonoid depth by scipy's HiGHS: 1 / (n t) for the least t such that
    q = sum_i lambda_i x_i with convex weights lambda_i <= t, or 0 when q
    is no convex combination of the points.  Coordinates are centred and
    divided by the cloud's extent first; the depth is affine invariant."""
    from scipy.optimize import linprog

    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    center = pts.mean(axis=0)
    scale = float(np.max(np.ptp(pts, axis=0))) or 1.0
    x, z = (pts - center) / scale, (np.asarray(q, dtype=float) - center) / scale
    a_ub = np.hstack([np.eye(n), -np.ones((n, 1))])
    a_eq = np.vstack([np.hstack([x.T, np.zeros((d, 1))]), np.r_[np.ones(n), 0.0]])
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq,
                  b_eq=np.r_[z, 1.0], bounds=(0.0, None), method="highs")
    assert res.status in (0, 2), res.message
    return 1.0 / (n * res.fun) if res.status == 0 else 0.0


def assert_ring_polygon(got: np.ndarray, ring: np.ndarray, extent: float) -> None:
    """``got``, the polygon ``geometry.convex_ring_hull`` made of ``ring``,
    against ``convex_hull(ring)``.

    Every vertex is a point of the ring.  A polygon that is not the hull
    turns left by more than the hull's eps at every vertex, from its
    lexicographically smallest one.  Every ring point lies within the
    larger of the hull's own farthest distance and sqrt(eps) of the
    polygon, and the Hausdorff distance to the hull is at most 1e-6 of
    ``extent``.
    """
    hull = convex_hull(ring)
    points = {row.tobytes() for row in ring}
    assert all(v.tobytes() in points for v in got)
    if got.shape == hull.shape and got.tobytes() == hull.tobytes():
        return
    eps = 1e-12 * max(1.0, float(np.max(np.abs(ring)))) ** 2
    o, b = np.roll(got, 1, axis=0), np.roll(got, -1, axis=0)
    turn = (got[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (got[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])
    assert got.shape[0] >= 3 and np.all(turn > eps)
    assert tuple(got[0]) == min(map(tuple, got))
    polygon, traced = ConvexRegion(2, got), ConvexRegion(2, hull)
    farthest = polygon.distance_many(ring).max()
    assert farthest <= max(traced.distance_many(ring).max(), np.sqrt(eps))
    assert polygon.hausdorff(traced) <= 1e-6 * extent


def pytest_terminal_summary(terminalreporter):
    # Acceptance verdicts accumulate in the acceptance module while it runs;
    # fd-level capture would swallow direct prints, so they surface here.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", []) if mod is not None else []
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def eu_dataset():
    return eu27()


@pytest.fixture(scope="session")
def eu_cloud(eu_dataset):
    return eu_dataset.cloud
