"""Weighted-mean trimmed regions and their depths.

A weight scheme assigns, for each sample size n and level alpha in (0, 1],
a nonnegative weight vector w_1 <= ... <= w_n summing to one.  The region at
level alpha is the convex set whose support function in direction p is the
w-weighted mean of the projections sorted ascending; equivalently it is the
convex hull of the weighted means over all orderings of the sample.  Regions
shrink as alpha grows whenever the prefix sums of the weights grow with
alpha, which all three built-in schemes satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .cloud import DataCloud
from .core import check_level, clamp_depth
from .errors import DimensionMismatchError, InvalidAlphaError
from .geometry import ConvexRegion
from .lp import solve_lp

_FLOOR_GUARD = 1e-9
#: width of the final bracket of the bisection in ``wm_depth``
_ALPHA_TOL = 1e-6


def _zonoid_rule(n: int, alpha: float) -> np.ndarray:
    # weights are 0 below rank n - floor(n alpha), 1/(n alpha) above it, and
    # carry the fractional remainder exactly at that rank
    na = n * alpha
    m = int(math.floor(na + _FLOOR_GUARD))
    w = np.zeros(n)
    cut = n - m
    if 0 < cut <= n:
        w[cut - 1] = max(na - m, 0.0) / na
    w[cut:] = 1.0 / na
    return w


def _ech_star_rule(n: int, alpha: float) -> np.ndarray:
    # (j^(1/alpha) - (j-1)^(1/alpha)) / n^(1/alpha), computed in log space so
    # small alpha does not overflow
    inv = 1.0 / alpha
    j = np.arange(1, n + 1, dtype=float)
    log_hi = inv * (np.log(j) - math.log(n))
    with np.errstate(divide="ignore"):
        log_lo = inv * (np.log(j - 1.0) - math.log(n))
    return np.exp(log_hi) - np.exp(log_lo)


def _geometric_rule(n: int, alpha: float) -> np.ndarray:
    # alpha^(n-j) (1 - alpha) / (1 - alpha^n); the alpha -> 1 limit is uniform
    if alpha >= 1.0 - 1e-13:
        return np.full(n, 1.0 / n)
    j = np.arange(1, n + 1, dtype=float)
    return alpha ** (n - j) * (1.0 - alpha) / (1.0 - alpha**n)


@dataclass(frozen=True)
class WeightScheme:
    """Rule (n, alpha) -> weight vector of length n."""

    name: str
    rule: Callable[[int, float], np.ndarray]

    @staticmethod
    def custom(rule_or_table, name: str = "custom") -> "WeightScheme":
        """Wrap a callable (n, alpha) -> weights, or a fixed-n table alpha -> weights."""
        if callable(rule_or_table):
            return WeightScheme(name, rule_or_table)
        table: Mapping[float, Sequence[float]] = dict(rule_or_table)

        def lookup(n: int, alpha: float) -> np.ndarray:
            if alpha not in table:
                raise InvalidAlphaError(f"custom scheme has no weights for alpha={alpha}")
            w = np.asarray(table[alpha], dtype=float)
            if w.shape[0] != n:
                raise ValueError(f"custom weights have length {w.shape[0]}, cloud has n={n}")
            return w

        return WeightScheme(name, lookup)


ZONOID = WeightScheme("zonoid", _zonoid_rule)
ECH_STAR = WeightScheme("echstar", _ech_star_rule)
GEOMETRIC = WeightScheme("geometric", _geometric_rule)


def weights(scheme: WeightScheme, n: int, alpha: float) -> np.ndarray:
    """Weight vector of ``scheme`` for sample size n at level alpha."""
    if n < 1:
        raise ValueError("n must be at least 1")
    alpha = check_level(alpha)
    w = np.asarray(scheme.rule(n, alpha), dtype=float)
    if w.shape != (n,):
        raise ValueError(f"scheme {scheme.name!r} returned shape {w.shape} for n={n}")
    return w


@dataclass(frozen=True)
class WeightValidation:
    ok: bool
    restriction: str | None = None  # "i" | "ii" | "iii"
    alpha: float | None = None
    detail: str = ""


def validate_weight_scheme(scheme: WeightScheme, n: int, alpha_grid: Sequence[float],
                           tol: float = 1e-9) -> WeightValidation:
    """Check the three weight restrictions on a grid of levels.

    (i) weights are nonnegative and sum to one, (ii) weights do not decrease
    with the rank, (iii) prefix sums do not decrease with alpha.  The first
    violation found is reported.
    """
    alphas = sorted(float(a) for a in alpha_grid)
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    prev_prefix = None
    prev_alpha = None
    for alpha in alphas:
        w = weights(scheme, n, alpha)
        if np.any(w < -tol) or abs(float(w.sum()) - 1.0) > tol:
            return WeightValidation(False, "i", alpha,
                                    f"sum={w.sum():.12g}, min={w.min():.3g}")
        if np.any(np.diff(w) < -tol):
            j = int(np.argmin(np.diff(w))) + 1
            return WeightValidation(False, "ii", alpha,
                                    f"weight drops from rank {j} to {j + 1}")
        prefix = np.cumsum(w)
        if prev_prefix is not None and np.any(prefix < prev_prefix - tol):
            return WeightValidation(False, "iii", alpha,
                                    f"prefix sums shrink from alpha={prev_alpha}")
        prev_prefix, prev_alpha = prefix, alpha
    return WeightValidation(True)


def wm_support_function(cloud: DataCloud, scheme: WeightScheme, alpha: float, p) -> float:
    """Support value of the level-alpha region in direction p.

    Projections are sorted ascending with ties kept in input order; the value
    is the weighted sum of the sorted projections and is positively
    homogeneous in p.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape[0] != cloud.d:
        raise DimensionMismatchError(f"direction of dimension {p.shape[0]}, cloud has {cloud.d}")
    w = weights(scheme, cloud.n, alpha)
    proj = np.sort(cloud.points @ p, kind="stable")
    return float(w @ proj)


def wm_region_1d(cloud: DataCloud, scheme: WeightScheme, alpha: float) -> ConvexRegion:
    cloud.require_dim(1)
    hi = wm_support_function(cloud, scheme, alpha, [1.0])
    lo = -wm_support_function(cloud, scheme, alpha, [-1.0])
    return ConvexRegion.interval(lo, hi)


def _pair_differences(cloud: DataCloud) -> np.ndarray:
    """Differences of the pairs of points, keeping those longer than
    1e-12 times the larger of 1 and the cloud's extent."""
    pts = cloud.points
    iu, ju = np.triu_indices(cloud.n, k=1)
    diffs = pts[iu] - pts[ju]
    return diffs[np.linalg.norm(diffs, axis=1) > 1e-12 * max(1.0, cloud.extent)]


def wm_region_2d(cloud: DataCloud, scheme: WeightScheme, alpha: float) -> ConvexRegion:
    """Exact level-alpha region of a planar cloud.

    The ordering of the projections is constant between consecutive critical
    directions (the normals of pairwise difference vectors).  Evaluating the
    weighted mean of the correspondingly ordered sample at one direction per
    angular interval produces every extreme point; the convex hull of those
    weighted means is the region.
    """
    cloud.require_dim(2)
    w = weights(scheme, cloud.n, alpha)
    pts = cloud.points
    diffs = _pair_differences(cloud)
    if diffs.shape[0] == 0:
        return ConvexRegion.single(pts[0])
    base = np.arctan2(diffs[:, 1], diffs[:, 0])
    crit = np.concatenate([base + 0.5 * np.pi, base - 0.5 * np.pi]) % (2.0 * np.pi)
    crit = np.unique(crit)
    gaps = np.diff(np.concatenate([crit, [crit[0] + 2.0 * np.pi]]))
    mids = (crit + gaps / 2.0) % (2.0 * np.pi)
    dirs = np.column_stack([np.cos(mids), np.sin(mids)])
    verts = np.empty((dirs.shape[0], 2))
    chunk = 4096
    for start in range(0, dirs.shape[0], chunk):
        u = dirs[start:start + chunk]
        proj = u @ pts.T
        order = np.argsort(proj, axis=1, kind="stable")
        verts[start:start + chunk] = np.einsum("j,kjd->kd", w, pts[order])
    return ConvexRegion.from_points(verts)


def wm_region(cloud: DataCloud, scheme: WeightScheme, alpha: float) -> ConvexRegion:
    if cloud.d == 1:
        return wm_region_1d(cloud, scheme, alpha)
    if cloud.d == 2:
        return wm_region_2d(cloud, scheme, alpha)
    raise DimensionMismatchError("weighted-mean regions are available in d <= 2")


#: feasibility threshold for spread-normalized support margins
_WM_MARGIN_TOL = 1e-11


def _wm_support_frame(cloud: DataCloud):
    """Constraint system for membership tests in every level region.

    Returns (dirs, sorted_proj, denom), or None when all points coincide.
    A query q lies in the level-alpha region when sorted_proj @ w(alpha) >=
    dirs @ q along every constraint direction.  Margins are normalized by
    ``denom``, the per-direction projection spread, which transforms
    exactly like the margins under invertible linear maps, so the test is
    affine-consistent.  The frame depends on the cloud alone: ``wm_depth``
    builds it once per cloud, for every weight scheme, and computes only
    ``dirs @ q`` per query.
    """
    pts = cloud.points
    if cloud.d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        diffs = _pair_differences(cloud)
        if diffs.shape[0] == 0:
            return None
        diffs = diffs / np.linalg.norm(diffs, axis=1)[:, None]
        # perpendiculars support the full-dimensional part; the difference
        # directions themselves pin down regions that collapse to segments
        perp = np.column_stack([-diffs[:, 1], diffs[:, 0]])
        dirs = np.vstack([diffs, -diffs, perp, -perp])
    proj = np.sort(dirs @ pts.T, axis=1, kind="stable")
    spread = proj[:, -1] - proj[:, 0]
    denom = np.maximum(spread, 1e-300)
    return dirs, proj, denom


def wm_depth(z, cloud: DataCloud, scheme: WeightScheme) -> float:
    """sup{alpha : z in region(alpha)} by bisection on the nested family.

    Membership in the level-alpha region is decided through the region's
    support function on the critical directions (pairwise differences and
    their perpendiculars), so no polygons are built.  Exact 0 outside the
    convex hull of the data; exact 1 inside the level-1 region; otherwise
    bisected to ``_ALPHA_TOL``.
    """
    q = cloud.point_of(z)
    if cloud.d > 2:
        raise DimensionMismatchError(
            "weighted-mean depth is available in d <= 2 (zonoid_depth covers any d)"
        )
    n = cloud.n
    frame = cloud.derived(("wm-frame",), _wm_support_frame)
    if frame is None:
        # all data points coincide: the region is that single point
        ref = cloud.points[0]
        return 1.0 if np.linalg.norm(q - ref) <= cloud.coord_tol else 0.0
    dirs, proj, denom = frame
    s = dirs @ q

    def feasible(alpha: float) -> bool:
        w = weights(scheme, n, alpha)
        margins = (s - proj @ w) / denom
        return bool(np.max(margins) <= _WM_MARGIN_TOL)

    # the hull is the closure of the regions as alpha drops to 0
    hull_margin = np.max((s - proj[:, -1]) / denom)
    if hull_margin > _WM_MARGIN_TOL:
        return 0.0
    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > _ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return clamp_depth(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# zonoid depth by linear programming
# ---------------------------------------------------------------------------


def zonoid_depth(z, cloud: DataCloud) -> float:
    """Largest gamma representing gamma*z as a sub-uniform mixture of the data.

    Solves  max gamma  s.t.  sum_i mu_i x_i = gamma z,  sum_i mu_i = gamma,
    0 <= mu_i <= 1/n.  The optimum equals the zonoid depth; it is 0 exactly
    when z lies outside the convex hull and 1 exactly at the mean.  Works in
    any dimension.
    """
    q = cloud.point_of(z)
    pts = cloud.points
    n, d = pts.shape
    # normalize coordinates for conditioning; the depth is affine invariant
    center = pts.mean(axis=0)
    span = np.maximum(np.ptp(pts, axis=0), 1.0)
    xn = (pts - center) / span
    qn = (q - center) / span
    a = np.zeros((d + 1, n + 1))
    a[:d, :n] = xn.T
    a[:d, n] = -qn
    a[d, :n] = 1.0
    a[d, n] = -1.0
    c = np.zeros(n + 1)
    c[n] = 1.0
    upper = np.concatenate([np.full(n, 1.0 / n), [1.0]])
    res = solve_lp(c, a, np.zeros(d + 1), upper)
    if res.status != "optimal":  # pragma: no cover - the program is always feasible
        raise RuntimeError(f"zonoid LP ended with status {res.status}")
    return clamp_depth(res.value)
