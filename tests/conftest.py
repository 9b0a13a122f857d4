import sys

import numpy as np
import pytest

from depthkit import DataCloud, eu27


def make_cloud(seed: int, n: int, d: int = 2) -> DataCloud:
    """General-position Gaussian cloud, the standard randomized fixture."""
    rng = np.random.default_rng(seed)
    return DataCloud(rng.standard_normal((n, d)))


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
