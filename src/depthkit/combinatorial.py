"""Combinatorial depths: halfspace (Tukey), its regions, and simplicial depth.

Values are exact fractions of counts, so equal inputs give bitwise equal
outputs.  Planar halfspace and simplicial depth are two reductions of one
table: the data points' sides of the lines through the query and each data
point.  Tukey regions intersect the finitely many binding halfplanes;
simplicial depth in d >= 3 enumerates closed simplices.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from . import core
from .cloud import DataCloud
from .core import SIMPLEX_ENUMERATION_CAP  # noqa: F401  (re-exported)
from .core import check_level, clamp_depths, enumeration_size, in_chunks
from .errors import DimensionMismatchError
from .geometry import ConvexRegion, clip_polygon_halfplane, convex_hull
from .lp import feasible
from .rng import DEFAULT_OPTIONS, EvalOptions, unit_directions


#: a data point within this share of the cloud's extent of the query
#: coincides with it, and two whose directions from the query are this close
#: (as the sine of the angle between them) lie on one line through it; in
#: d >= 3, a simplex no larger in the extent's units is flat
_BOUNDARY_REL_TOL = 1e-12
#: working set per (query, anchor, data point) entry of :func:`_line_tables`
_LINE_ENTRY_BYTES = 40
#: the most entries it takes at once, whatever the budget: bigger blocks
#: run slower, as their temporaries leave the cache and are paged in afresh
_LINE_BLOCK_ENTRIES = 2**14


# ---------------------------------------------------------------------------
# planar halfspace and simplicial depth: lines through the query
# ---------------------------------------------------------------------------


def _count(mask: np.ndarray) -> np.ndarray:
    """Trues along the last axis (summing bytes beats ``np.count_nonzero``)."""
    return np.add.reduce(mask.view(np.uint8), axis=-1, dtype=np.int32)


def _cross(xa, ya, x, y) -> np.ndarray:
    """cross(a, b) of the anchors (xa, ya) with the points (x, y), batched
    over the leading axes.  Two rounded products and their difference make
    cross(a, b) = -cross(b, a) bitwise, and 0 for equal rows."""
    cross = np.einsum("...a,...b->...ab", xa, y)
    cross -= np.einsum("...a,...b->...ab", ya, x)
    return cross


def _line_tables(qs: np.ndarray, cloud: DataCloud):
    """Per chunk of the planar queries ``qs``: its rows and the (m, n) tables
    ``fewest`` and ``k`` over the data points a as anchors.

    A point a farther than the tolerance from q spans a line through q.
    Every point b lies left of it, right of it or on it, by the sign of the
    cross product of their unit directions from q beyond the tolerance (so
    b is left of a exactly when a is right of b), and a point on it lies
    ahead of q or behind.  ``fewest`` = min(left, right) + min(ahead,
    behind) + the points that coincide with q is the fewest points a closed
    halfplane beside the line holds (n if a coincides with q).  ``k`` counts
    the points left of a or ahead of it with a larger index: a closed
    triangle misses q exactly when its vertices fit in an open halfplane
    bounded by a line through q, and then it is a pair of the k points of
    its most clockwise vertex and of no other; points on opposite rays
    never fit.  Blocks stay within ``core.BATCH_BYTES``.
    """
    pts, n = cloud.points, cloud.n
    tol = _BOUNDARY_REL_TOL * cloud.extent
    rows = max(1, min(core.BATCH_BYTES // _LINE_ENTRY_BYTES, _LINE_BLOCK_ENTRIES) // n)
    width, step = min(n, rows), max(1, rows // n)  # anchors and queries per block
    for start in range(0, qs.shape[0], step):
        rel = pts - qs[start:start + step, None]
        dist = np.hypot(rel[:, :, 0], rel[:, :, 1])
        far = dist > tol
        # unit directions; a coincident point becomes the origin: on every
        # line, neither ahead nor behind
        scale = np.where(far, dist, np.inf)
        x, y = rel[:, :, 0] / scale, rel[:, :, 1] / scale
        left, right = np.empty((2,) + x.shape, dtype=np.int32)
        for a in range(0, n, width):
            block = slice(a, a + width)
            cross = _cross(x[:, block], y[:, block], x, y)
            left[:, block] = _count(cross > _BOUNDARY_REL_TOL)
            right[:, block] = _count(cross < -_BOUNDARY_REL_TOL)
        n_far = _count(far)[:, None]
        on = n_far - left - right
        fewest = np.where(far, np.minimum(left, right) + (n - n_far), n)
        # the points on an anchor's line, itself included, split by their ray
        qi, ai = np.nonzero(far & (on > 1))
        for i in range(0, qi.size, rows):
            q, p = qi[i:i + rows], ai[i:i + rows]
            xq, yq, xp, yp = x[q], y[q], x[q, p, None], y[q, p, None]
            line = np.abs(_cross(xp, yp, xq, yq)[:, 0]) <= _BOUNDARY_REL_TOL
            along = xq * xp
            along += yq * yp
            behind = _count(line & (along < 0.0))
            fewest[q, p] += np.minimum(on[q, p] - behind, behind)
            line &= far[q] & (along >= 0.0) & (np.arange(n) > p[:, None])
            left[q, p] += _count(line)
        yield slice(start, start + step), fewest, left


# ---------------------------------------------------------------------------
# halfspace depth
# ---------------------------------------------------------------------------


def halfspace_depth_1d(z: float, cloud: DataCloud) -> float:
    """min(#{x <= z}, #{x >= z}) / n."""
    cloud.require_dim(1)
    values = cloud.points[:, 0]
    zf = float(np.asarray(z).reshape(-1)[0])
    le = int(np.count_nonzero(values <= zf))
    ge = int(np.count_nonzero(values >= zf))
    return min(le, ge) / cloud.n


def halfspace_depth_2d(z, cloud: DataCloud) -> float:
    """Exact planar halfspace depth over the critical lines through z.

    The count of points in the closed halfplane {x : <u, x - z> >= 0} is
    piecewise constant in the angle of u and changes only where the boundary
    line passes through a data point, so the minimum is attained just beside
    such a line (:func:`_line_tables`).
    """
    cloud.require_dim(2)
    (_, fewest, _), = _line_tables(cloud.point_of(z)[None], cloud)
    return int(fewest.min()) / cloud.n


def halfspace_depth(z, cloud: DataCloud) -> float:
    """Exact halfspace depth, d <= 2."""
    if cloud.d == 1:
        return halfspace_depth_1d(z, cloud)
    if cloud.d == 2:
        return halfspace_depth_2d(z, cloud)
    raise DimensionMismatchError(
        "exact halfspace depth is available in d <= 2; use random_tukey_depth beyond"
    )


def random_tukey_depth(z, cloud: DataCloud, options: EvalOptions = DEFAULT_OPTIONS) -> float:
    """Minimum univariate halfspace depth over seeded random directions.

    Never below the exact halfspace depth: every direction is a witness, so
    the minimum over a finite set is an upper bound, weakly decreasing as the
    budget grows with the same seed.
    """
    q = cloud.point_of(z)
    dirs = unit_directions(cloud.d, options.budget, options.seed)
    # project the differences, not the raw coordinates: a query equal to a
    # data point keeps its exact zero row under translation and scaling
    proj = dirs @ (cloud.points - q).T
    le = np.count_nonzero(proj <= 0.0, axis=1)
    ge = np.count_nonzero(proj >= 0.0, axis=1)
    return int(np.minimum(le, ge).min()) / cloud.n


def _collinear_frame(pts: np.ndarray, tol: float):
    """If the cloud spans a line (or a point), return (origin, axis) else None."""
    center = pts.mean(axis=0)
    dev = pts - center
    _, s, vt = np.linalg.svd(dev, full_matrices=False)
    if s.shape[0] < 2 or s[1] <= tol * max(s[0], 1.0):
        return center, vt[0]
    return None


def _level_count(n: int, alpha: float) -> int:
    """k = ceil(n alpha), at least 1: the fewest points that any closed
    halfspace about a point of depth at least alpha holds."""
    return max(int(math.ceil(n * alpha - 1e-9)), 1)


def _trimmed_span(t: np.ndarray, k: int, tol: float):
    """(k-th smallest, k-th largest) of ``t``, or None when they cross by
    more than ``tol``."""
    t = np.sort(t)
    lo, hi = t[k - 1], t[t.shape[0] - k]
    return None if lo > hi + tol else (lo, hi)


#: a halfplane that every vertex of a polygon clears by more than this share
#: of (largest vertex coordinate + |bound|) cannot cut it: far above the
#: rounding of a two-term product
_CLEAR_REL = 1e-13


def _cutting(poly: np.ndarray, normals: np.ndarray, h: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the halfplanes {z : <u, z> <= h} that some vertex of ``poly``
    does not clear by more than rounding: the only ones that
    :func:`clip_polygon_halfplane` (which keeps a vertex within ``tol``
    outside) can change ``poly`` by."""
    reach = (poly @ normals.T).max(axis=0) - h
    return reach >= tol - _CLEAR_REL * (np.abs(poly).max() + np.abs(h))


def _keeps_outside(poly: np.ndarray, u: np.ndarray, h: float, tol: float) -> bool:
    """Whether :func:`clip_polygon_halfplane` keeps a vertex of ``poly``
    that lies outside the line (within ``tol``).  Only then can it put a
    crossing off its edge: next to a cut vertex, the crossing lands beyond
    the kept one, so the clipped polygon can reach past ``poly``."""
    vals = poly @ u - h
    return bool(np.any((vals > 0.0) & (vals <= tol)))


def _clip_by_cutting(poly: np.ndarray, normals: np.ndarray, h: np.ndarray,
                     tol: float) -> np.ndarray:
    """``poly`` clipped by each halfplane {z : <u, z> <= h} in turn, calling
    :func:`clip_polygon_halfplane` only for those that may cut it.

    A clip that keeps no vertex outside the line puts its crossings on the
    polygon's edges and only shrinks it, so a halfplane that the polygon
    clears stays cleared: after such a clip only the halfplanes still
    flagged are tested again, and after any other every later one is.  A
    skipped clip would have returned the polygon unchanged, so the result
    is bitwise that of every clip in turn.
    """
    live = np.flatnonzero(_cutting(poly, normals, h, tol))
    while live.size:
        i, live = live[0], live[1:]
        u, bound = normals[i], float(h[i])
        clipped = clip_polygon_halfplane(poly, u, bound, tol)
        if clipped is poly:
            continue
        if _keeps_outside(poly, u, bound, tol):
            live = np.arange(i + 1, h.shape[0])
        poly = clipped
        if poly.shape[0] == 0:
            break
        live = live[_cutting(poly, normals[live], h[live], tol)]
    return poly


def _halfplane_bounds(normals: np.ndarray, pts: np.ndarray, k: int):
    """(normals, k-th largest projection of ``pts`` on each) in blocks of
    halfplanes under ``core.BATCH_BYTES``; a halfplane's n projections and
    their partitioned copy take 16 n bytes.

    A block holds an even number of halfplanes, as ``normals`` does (each
    normal comes with its negative), so none is a single row: BLAS
    multiplies one row, and rounds it, differently from a block of rows.
    """
    n = pts.shape[0]
    size = 2 * max(1, core.BATCH_BYTES // (32 * n))
    for start in range(0, normals.shape[0], size):
        u = normals[start:start + size]
        yield u, np.partition(u @ pts.T, n - k, axis=1)[:, n - k].copy()


def tukey_region_2d(cloud: DataCloud, alpha: float) -> ConvexRegion:
    """Upper level set {z : halfspace depth >= alpha} of a planar cloud.

    With k = ceil(n alpha), the region is the intersection over the critical
    directions u (normals of pairwise differences) of the halfplanes
    {z : <u, z> <= k-th largest projection}; a padded bounding box is clipped
    by each halfplane in turn, skipping those that cannot cut it.  The
    projections are formed in blocks of halfplanes under
    ``core.BATCH_BYTES``.  May be empty, a point, or a segment.
    """
    cloud.require_dim(2)
    n = cloud.n
    k = _level_count(n, check_level(alpha))
    pts = cloud.points
    tol = cloud.coord_tol

    frame = _collinear_frame(pts, 1e-12)
    if frame is not None:
        center, axis = frame
        span = _trimmed_span((pts - center) @ axis, k, tol)
        if span is None:
            return ConvexRegion.empty(2)
        lo, hi = span
        return ConvexRegion.from_points(np.array([center + lo * axis, center + hi * axis]))

    iu, ju = np.triu_indices(n, k=1)
    diffs = pts[iu] - pts[ju]
    keep = np.linalg.norm(diffs, axis=1) > tol
    diffs = diffs[keep]
    normals = np.column_stack([-diffs[:, 1], diffs[:, 0]])
    normals = np.vstack([normals, -normals])
    normals /= np.linalg.norm(normals, axis=1)[:, None]

    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.5 * max(float(np.max(hi - lo)), 1.0)
    poly = np.array([
        [lo[0] - pad, lo[1] - pad],
        [hi[0] + pad, lo[1] - pad],
        [hi[0] + pad, hi[1] + pad],
        [lo[0] - pad, hi[1] + pad],
    ])
    for u, h in _halfplane_bounds(normals, pts, k):
        poly = _clip_by_cutting(poly, u, h, tol)
        if poly.shape[0] == 0:
            return ConvexRegion.empty(2)
    return ConvexRegion(2, convex_hull(poly))


def halfspace_region(cloud: DataCloud, alpha: float) -> ConvexRegion:
    """Halfspace-depth central region for d <= 2."""
    if cloud.d == 2:
        return tukey_region_2d(cloud, alpha)
    if cloud.d != 1:
        raise DimensionMismatchError("halfspace regions are available in d <= 2")
    k = _level_count(cloud.n, check_level(alpha))
    span = _trimmed_span(cloud.points[:, 0], k, 0.0)
    return ConvexRegion.empty(1) if span is None else ConvexRegion.interval(*span)


# ---------------------------------------------------------------------------
# simplicial depth
# ---------------------------------------------------------------------------


def _segments_containing(qs: np.ndarray, cloud: DataCloud, total: int) -> np.ndarray:
    values = cloud.points[:, 0]
    tol = cloud.coord_tol

    def block(q):
        less = np.count_nonzero(values < q - tol, axis=1)
        more = np.count_nonzero(values > q + tol, axis=1)
        # a segment misses z exactly when both endpoints fall on one strict side
        return total - less * (less - 1) // 2 - more * (more - 1) // 2

    return in_chunks(block, qs, 3 * values.size)


def _simplices_containing(q: np.ndarray, cloud: DataCloud) -> int:
    # barycentric coordinates of the query in coordinates centred at it and
    # divided by the cloud's extent, so that the slack and the feasibility
    # fallback do not depend on where the cloud sits or how large it is
    pts = (cloud.points - q) / (cloud.extent or 1.0)
    d = cloud.d
    rhs = np.zeros(d + 1)
    rhs[-1] = 1.0
    # simplices in blocks: per simplex the tuple and index row of its
    # vertices, their coordinates, its system, the solid copy and the solution
    size = max(1, core.BATCH_BYTES // (8 * (d + 1) * (5 * d + 4)))
    combos = combinations(range(cloud.n), d + 1)
    count = 0
    while (idx := np.array(list(islice(combos, size)))).size:
        mats = np.ones((idx.shape[0], d + 1, d + 1))
        mats[:, :d, :] = pts[idx].transpose(0, 2, 1)
        flat = np.abs(np.linalg.det(mats)) <= _BOUNDARY_REL_TOL
        solid = mats[~flat]
        lam = np.linalg.solve(solid, np.broadcast_to(rhs[:, None], (solid.shape[0], d + 1, 1)))
        count += int(np.count_nonzero(np.all(lam[:, :, 0] >= -1e-9, axis=1)))
        # a flat simplex: fall back to hull-membership feasibility
        count += sum(feasible(mat, rhs) for mat in mats[flat])
    return count


def simplicial_depth_many(zs, cloud: DataCloud) -> np.ndarray:
    """Fraction of closed data simplices (d+1 vertices) containing each row.

    Exact for d <= 4: in d <= 2 it counts the simplices that miss each
    query, vectorised over the queries; beyond, it enumerates them.  Raises
    when C(n, d+1) exceeds the enumeration cap.
    """
    qs = cloud.points_of(zs)
    n, d = cloud.n, cloud.d
    if d > 4:
        raise DimensionMismatchError("simplicial depth enumeration is limited to d <= 4")
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} points, got n={n}")
    total = enumeration_size(n, d + 1)
    if d == 1:
        counts = _segments_containing(qs, cloud, total)
    elif d == 2:
        counts = np.full(qs.shape[0], float(total))
        for rows, _, k in _line_tables(qs, cloud):
            # each triangle that misses a query, at its most clockwise vertex
            counts[rows] -= (k * (k - 1) // 2).sum(axis=1)
    else:
        counts = np.array([_simplices_containing(q, cloud) for q in qs], dtype=float)
    return clamp_depths(counts / total)


def simplicial_depth(z, cloud: DataCloud) -> float:
    """Simplicial depth of one point, as a batch of one."""
    return float(simplicial_depth_many(cloud.point_of(z)[None], cloud)[0])
