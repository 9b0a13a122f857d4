"""Weighted-mean trimmed regions and their depths.

A weight scheme assigns, for each sample size n and level alpha in (0, 1],
a nonnegative weight vector w_1 <= ... <= w_n summing to one.  The region at
level alpha is the convex set whose support function in direction p is the
w-weighted mean of the projections sorted ascending; equivalently it is the
convex hull of the weighted means over all orderings of the sample.  Regions
shrink as alpha grows whenever the prefix sums of the weights grow with
alpha, which all three built-in schemes satisfy.

Depth is sup{alpha : z in region(alpha)}.  In d <= 2, :func:`wm_depth`
reads membership off the regions' support functions on a frame of critical
directions and bisects on alpha, for every scheme; :func:`wm_depth_many`
runs it for a batch that shares the frame and the supports.
:func:`zonoid_depth` solves zonoid depth as a linear program in any
dimension; the registry's zonoid depth is that program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import core
from .cloud import DataCloud
from .core import check_level, clamp_depth, rows_times
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


#: critical directions per product and sort of the ordered samples
_ORDER_CHUNK = 4096


def _ordered_chunks(cloud: DataCloud, keep: bool = False):
    """The sample ordered by its projections on one direction inside each
    angular interval between consecutive critical directions (the normals
    of pairwise differences), in (k, n, 2) chunks of at most
    ``_ORDER_CHUNK`` directions; none when all points coincide.

    With ``keep`` the chunks are views of one array filled in place: chunks
    kept in arrays of their own fragment the heap, which raised the peak RSS
    of the regions benchmark workload by 1.2 MB (glibc malloc, numpy 2.4).
    """
    pts = cloud.points
    diffs = _pair_differences(cloud)
    if diffs.shape[0] == 0:
        return
    base = np.arctan2(diffs[:, 1], diffs[:, 0])
    crit = np.concatenate([base + 0.5 * np.pi, base - 0.5 * np.pi]) % (2.0 * np.pi)
    crit = np.unique(crit)
    gaps = np.diff(np.concatenate([crit, [crit[0] + 2.0 * np.pi]]))
    mids = (crit + gaps / 2.0) % (2.0 * np.pi)
    dirs = np.column_stack([np.cos(mids), np.sin(mids)])
    whole = np.empty((dirs.shape[0], cloud.n, 2)) if keep else None
    for start in range(0, dirs.shape[0], _ORDER_CHUNK):
        stop = start + _ORDER_CHUNK
        order = np.argsort(dirs[start:stop] @ pts.T, axis=1, kind="stable")
        # the indices are in range; "clip" lets take write into out unbuffered
        yield np.take(pts, order, axis=0, mode="clip",
                      out=None if whole is None else whole[start:stop])


def _ordered_of(cloud: DataCloud):
    """The chunks of :func:`_ordered_chunks`.  They depend on the cloud
    alone, so every scheme and level shares them: the cloud keeps them when
    the whole (k, n, 2) array fits ``core.BATCH_BYTES`` for every
    k <= n(n - 1) (n <= 101 at the default budget; 8.1 MB at n = 80), and
    they are built afresh for each call otherwise.  There are none when all
    points coincide.
    """
    n = cloud.n
    if 16 * n * n * (n - 1) <= core.BATCH_BYTES:
        return cloud.derived(("wm-ordered",), lambda c: tuple(_ordered_chunks(c, keep=True)))
    return _ordered_chunks(cloud)


def wm_region_2d(cloud: DataCloud, scheme: WeightScheme, alpha: float) -> ConvexRegion:
    """Exact level-alpha region of a planar cloud.

    The ordering of the projections is constant between consecutive critical
    directions (the normals of pairwise difference vectors).  Evaluating the
    weighted mean of the correspondingly ordered sample at one direction per
    angular interval produces every extreme point; the convex hull of those
    weighted means is the region.  The ordered samples depend on the cloud
    alone (see :func:`_ordered_of`); a level only weighs them.
    """
    cloud.require_dim(2)
    w = weights(scheme, cloud.n, alpha)
    verts = [np.einsum("j,kjd->kd", w, ordered) for ordered in _ordered_of(cloud)]
    if not verts:
        return ConvexRegion.single(cloud.points[0])
    return ConvexRegion.from_points(np.concatenate(verts))


def wm_region(cloud: DataCloud, scheme: WeightScheme, alpha: float) -> ConvexRegion:
    if cloud.d == 1:
        return wm_region_1d(cloud, scheme, alpha)
    if cloud.d == 2:
        return wm_region_2d(cloud, scheme, alpha)
    raise DimensionMismatchError("weighted-mean regions are available in d <= 2")


#: feasibility threshold for spread-normalized support margins
_WM_MARGIN_TOL = 1e-11
#: bisection steps whose midpoints (2**k - 1 levels in all) the queries of
#: a batch share: their supports are formed once over a whole frame block
_SHARED_STEPS = 5


def _pair_blocks(n: int, size: int):
    """Index arrays (i, j), i < j, of the pairs of n points in the order of
    ``np.triu_indices``, in blocks of whole rows i of at most ``size`` pairs
    (or one row)."""
    through = np.cumsum(np.arange(n - 1, 0, -1))  # pairs in rows 0..i
    start = 0
    while start < n - 1:
        before = through[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(through, before + size, side="right")))
        i, j = np.nonzero(np.arange(n) > np.arange(start, stop)[:, None])
        yield start + i, j
        start = stop


def _frame_block(cloud: DataCloud, dirs: np.ndarray):
    # fixed-order products: a direction's projections, and a query's, do not
    # depend on the block they are formed in
    dirs = np.asfortranarray(dirs)
    proj = np.sort(rows_times(dirs, cloud.points), axis=1)
    top = proj[:, -1].copy()
    spread = top - proj[:, 0]
    # across a collinear cloud the spread is rounding noise, and margins
    # divided by it would be noise of order one: those directions measure
    # margins in the cloud's extent instead
    denom = np.where(spread > 1e-12 * cloud.extent, spread, cloud.extent)
    return dirs, proj, top, _WM_MARGIN_TOL * denom


def _frame_blocks(cloud: DataCloud):
    """The support frame in blocks of directions: (dirs, sorted_proj, top,
    margin).

    A query q lies in the level-alpha region when sorted_proj @ w(alpha) >=
    dirs @ q - margin along every constraint direction; ``top`` is the
    largest projection, the support of the hull.  The margin is
    ``_WM_MARGIN_TOL`` times the direction's projection spread, which
    transforms exactly like the supports under invertible linear maps, so
    the test is affine-consistent.  The directions are the unit pairwise
    differences, which pin down regions that collapse to segments, and
    their perpendiculars, which support the full-dimensional part, each
    with both signs.  A block holds the pairs of whole rows of the pair
    table and stays within ``core.BATCH_BYTES``, so its bounds depend on n
    alone.  Nothing is yielded when all points coincide.
    """
    if cloud.extent == 0.0:
        return
    if cloud.d == 1:
        yield _frame_block(cloud, np.array([[1.0], [-1.0]]))
        return
    pts, n = cloud.points, cloud.n
    # a pair gives four directions of n projections, formed and then sorted
    # into a copy: 64 n bytes
    size = max(1, core.BATCH_BYTES // (64 * n))
    shortest = 1e-12 * max(1.0, cloud.extent)
    for iu, ju in _pair_blocks(n, size):
        diffs = pts[iu] - pts[ju]
        norms = np.linalg.norm(diffs, axis=1)
        keep = norms > shortest
        if not keep.any():
            continue
        unit = diffs[keep] / norms[keep, None]
        perp = np.column_stack([-unit[:, 1], unit[:, 0]])
        yield _frame_block(cloud, np.vstack([unit, -unit, perp, -perp]))


def _wm_support_frame(cloud: DataCloud) -> tuple:
    """The whole support frame, a tuple of :func:`_frame_blocks`."""
    return tuple(_frame_blocks(cloud))


def _frame_of(cloud: DataCloud):
    """The frame's blocks: kept on the cloud when the whole frame fits
    ``core.BATCH_BYTES``, and built afresh for each call otherwise.

    The frame depends on the cloud alone, so every scheme shares it.  In
    the plane it holds 4 C(n, 2) directions of n projections and four more
    floats each: 8.5 MB at n = 80, kept up to n = 100 at the default
    budget; 66 MB at n = 160.
    """
    n = cloud.n
    dirs = 2 if cloud.d == 1 else 2 * n * (n - 1)
    if 8 * dirs * (n + 4) <= core.BATCH_BYTES:
        return cloud.derived(("wm-frame",), _wm_support_frame)
    return _frame_blocks(cloud)


class _Levels:
    """What the queries of one cloud and scheme share: per frame block, the
    supports at the levels met so far."""

    def __init__(self, scheme: WeightScheme, n: int):
        self.scheme, self.n = scheme, n
        self._supports: dict[tuple[int, float], np.ndarray] = {}

    def weights_at(self, alpha: float) -> np.ndarray:
        # not kept: a batch's small weight vectors, once freed, sit in
        # numpy's buffer cache and keep the heap from shrinking (4 MB more
        # peak RSS over the benchmark's depth --all runs)
        return weights(self.scheme, self.n, alpha)

    def support_at(self, block: int, proj: np.ndarray, alpha: float) -> np.ndarray:
        key = (block, alpha)
        if key not in self._supports:
            self._supports[key] = _supports(proj, self.weights_at(alpha))
        return self._supports[key]


def _supports(proj: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``proj @ w`` by numpy's own loop: each row is summed alike wherever it
    sits, and no BLAS threads are started for one product."""
    return np.einsum("kn,n->k", proj, w)


def _block_depth(slack: np.ndarray, block: int, proj: np.ndarray, top: np.ndarray,
                 levels: _Levels) -> float:
    """The bisected depth of one query in one block's directions.

    ``slack`` is u.q less the margin on each direction u.  Exact 0 outside
    the hull and exact 1 inside the level-1 region; otherwise bisection on
    alpha to ``_ALPHA_TOL``.  Regions shrink as alpha grows, so a direction
    that holds at some alpha holds at every smaller one: the bisection
    drops the directions that hold at alpha = 1 and at each failed
    midpoint.  The first ``_SHARED_STEPS`` midpoints take the supports over
    the whole block, which a batch shares; later ones sum only the
    directions still tested.
    """
    if np.any(slack > top):
        return 0.0
    live = slack > levels.support_at(block, proj, 1.0)
    if not live.any():
        return 1.0
    rows = None
    lo, hi, step = 0.0, 1.0, 0
    while hi - lo > _ALPHA_TOL:
        alpha = 0.5 * (lo + hi)
        step += 1
        if step <= _SHARED_STEPS:
            bad = live & (slack > levels.support_at(block, proj, alpha))
        else:
            if rows is None:
                rows, slack = proj[live], slack[live]
            bad = slack > _supports(rows, levels.weights_at(alpha))
        if bad.any():
            hi = alpha
            if rows is None:
                live = bad
            elif not bad.all():
                rows, slack = rows[bad], slack[bad]
        else:
            lo = alpha
    return 0.5 * (lo + hi)


def _require_planar(cloud: DataCloud) -> None:
    if cloud.d > 2:
        raise DimensionMismatchError(
            "weighted-mean depth is available in d <= 2 (zonoid_depth covers any d)"
        )


def wm_depth(z, cloud: DataCloud, scheme: WeightScheme, _shared=None) -> float:
    """sup{alpha : z in region(alpha)}, in d <= 2.

    Depth is the least over the support frame's directions u of
    alpha_u(z) = sup{alpha : h_u(alpha) >= u.z}, h_u the support function
    of the level-alpha region, which falls as alpha grows; it is bisected
    to ``_ALPHA_TOL``.  The value is exact 0 outside the convex hull of the
    data and exact 1 inside the level-1 region.  No polygon is built.  The
    frame is worked through in blocks (see :func:`_frame_of`), and a depth
    is the least of its blocks' depths: each direction holds on an initial
    run of levels, so the bisection over all directions ends in the lowest
    of the blocks' brackets.  ``_shared`` is the (frame blocks, levels)
    pair of a :func:`wm_depth_many` batch.
    """
    q = cloud.point_of(z)
    _require_planar(cloud)
    blocks, levels = _shared or (_frame_of(cloud), _Levels(scheme, cloud.n))
    depth, spanned = 1.0, False
    for b, (dirs, proj, top, margin) in enumerate(blocks):
        spanned = True
        depth = min(depth, _block_depth(rows_times(q, dirs) - margin, b, proj, top, levels))
        if depth == 0.0:
            break
    if not spanned:
        # all data points coincide: the region is that single point
        return 1.0 if np.linalg.norm(q - cloud.points[0]) <= cloud.coord_tol else 0.0
    return clamp_depth(depth)


def wm_depth_many(zs, cloud: DataCloud, scheme: WeightScheme) -> np.ndarray:
    """:func:`wm_depth` of each row of ``zs``, bitwise equal to point calls.

    The queries share one frame, built once for the batch and held for its
    span when the cloud does not keep it (the whole frame: 66 MB at
    n = 160), and the supports of the levels their bisections meet.
    """
    qs = cloud.points_of(zs)
    _require_planar(cloud)
    # a single query streams the frame rather than hold all of it
    shared = (tuple(_frame_of(cloud)), _Levels(scheme, cloud.n)) if qs.shape[0] > 1 else None
    return np.array([wm_depth(q, cloud, scheme, shared) for q in qs], dtype=float)


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
