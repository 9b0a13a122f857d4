"""Combinatorial depths: halfspace (Tukey), its regions, and simplicial depth.

Values are exact fractions of counts, so equal inputs give bitwise equal
outputs.  The planar halfspace depth minimises over the critical lines
through the query; Tukey regions intersect the finitely many binding
halfplanes; simplicial depth enumerates closed simplices, for a whole batch
of queries at once.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .cloud import DataCloud
from .core import SIMPLEX_ENUMERATION_CAP  # noqa: F401  (re-exported)
from .core import BATCH_BYTES, clamp_depths, enumeration_size, in_chunks
from .errors import DimensionMismatchError, InvalidAlphaError
from .geometry import ConvexRegion, clip_polygon_halfplane, convex_hull
from .lp import feasible
from .rng import DEFAULT_OPTIONS, EvalOptions, unit_directions


#: a query within this share of the cloud's extent of a data point coincides
#: with it, and of a triangle's boundary lies on it; a triangle no higher
#: than that is a segment
_BOUNDARY_REL_TOL = 1e-12


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
    such a line.  Beside the line through z and a data point p, the points
    off the line count by their side of it and the points on it by their ray
    from z, so the fewest points a halfplane there can hold is
    min(left, right) + min(ahead, behind).  A point within
    ``_BOUNDARY_REL_TOL`` times the cloud's extent of z coincides with it and
    lies in every halfplane; a point that close to a line lies on it.
    """
    cloud.require_dim(2)
    q = cloud.point_of(z)
    rel = cloud.points - q
    dist = np.linalg.norm(rel, axis=1)
    tol = _BOUNDARY_REL_TOL * cloud.extent
    far = dist > tol
    coincident = cloud.n - int(np.count_nonzero(far))
    rel, dist = rel[far], dist[far]
    if rel.shape[0] == 0:
        return 1.0
    normals = np.array([rel[:, 1], -rel[:, 0]])

    def block(lines):
        # cross(p, r) / |p| is the signed distance of r from the line along p
        side = lines[:, :2] @ normals
        slack = tol * lines[:, 2:3]
        left, right = side > slack, side < -slack
        n_left, n_right = left.sum(axis=1), right.sum(axis=1)
        fewest = np.minimum(n_left, n_right)
        on = rel.shape[0] - n_left - n_right
        # p itself is ahead on its line; behind it only if a point is too
        multi = np.flatnonzero(on > 1)
        if multi.size:
            along = lines[multi, :2] @ rel.T
            behind = np.count_nonzero(~left[multi] & ~right[multi] & (along < 0.0), axis=1)
            fewest[multi] += np.minimum(on[multi] - behind, behind)
        return fewest

    counts = in_chunks(block, np.column_stack([rel, dist]), 24 * rel.shape[0])
    return (int(counts.min()) + coincident) / cloud.n


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


def tukey_region_2d(cloud: DataCloud, alpha: float) -> ConvexRegion:
    """Upper level set {z : halfspace depth >= alpha} of a planar cloud.

    With k = ceil(n alpha), the region is the intersection over the critical
    directions u (normals of pairwise differences) of the halfplanes
    {z : <u, z> <= k-th largest projection}; a padded bounding box is clipped
    by each halfplane in turn.  May be empty, a point, or a segment.
    """
    cloud.require_dim(2)
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlphaError(f"alpha must be in (0, 1], got {alpha}")
    n = cloud.n
    k = int(math.ceil(n * alpha - 1e-9))
    k = max(k, 1)
    pts = cloud.points
    tol = cloud.coord_tol

    frame = _collinear_frame(pts, 1e-12)
    if frame is not None:
        center, axis = frame
        t = (pts - center) @ axis
        t_sorted = np.sort(t)
        lo, hi = t_sorted[k - 1], t_sorted[n - k]
        if lo > hi + tol:
            return ConvexRegion.empty(2)
        return ConvexRegion.from_points(
            np.array([center + lo * axis, center + hi * axis])
        )

    iu, ju = np.triu_indices(n, k=1)
    diffs = pts[iu] - pts[ju]
    keep = np.linalg.norm(diffs, axis=1) > tol
    diffs = diffs[keep]
    normals = np.column_stack([-diffs[:, 1], diffs[:, 0]])
    normals = np.vstack([normals, -normals])
    normals /= np.linalg.norm(normals, axis=1)[:, None]

    proj = normals @ pts.T
    # k-th largest projection per direction
    h = np.partition(proj, n - k, axis=1)[:, n - k]

    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.5 * max(float(np.max(hi - lo)), 1.0)
    box = np.array([
        [lo[0] - pad, lo[1] - pad],
        [hi[0] + pad, lo[1] - pad],
        [hi[0] + pad, hi[1] + pad],
        [lo[0] - pad, hi[1] + pad],
    ])
    poly = box
    for u, bound in zip(normals, h):
        poly = clip_polygon_halfplane(poly, u, float(bound), tol)
        if poly.shape[0] == 0:
            return ConvexRegion.empty(2)
    return ConvexRegion(2, convex_hull(poly))


def halfspace_region(cloud: DataCloud, alpha: float) -> ConvexRegion:
    """Halfspace-depth central region for d <= 2."""
    if cloud.d == 2:
        return tukey_region_2d(cloud, alpha)
    if cloud.d != 1:
        raise DimensionMismatchError("halfspace regions are available in d <= 2")
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlphaError(f"alpha must be in (0, 1], got {alpha}")
    n = cloud.n
    k = max(int(math.ceil(n * alpha - 1e-9)), 1)
    values = np.sort(cloud.points[:, 0])
    if values[k - 1] > values[n - k]:
        return ConvexRegion.empty(1)
    return ConvexRegion.interval(values[k - 1], values[n - k])


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


def _triangles_containing(qs: np.ndarray, cloud: DataCloud) -> np.ndarray:
    """Closed data triangles containing each query, counted over all triangles.

    Orientation is tested in difference form, cross(b - a, q - a), with each
    triangle's orientation sign folded into its edge vectors.  A query within
    the boundary tolerance of an edge counts as on it.  A triangle no higher
    than that tolerance over its longest edge is that edge, a segment (or a
    point), and contains the queries within the tolerance of it.
    """
    pts = cloud.points
    tri = np.array(list(combinations(range(cloud.n), 3)))
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    area = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    anchors = np.stack([a, b, c])
    edges = np.stack([b - a, c - b, a - c])
    lengths = np.linalg.norm(edges, axis=2)
    tol = _BOUNDARY_REL_TOL * cloud.extent
    flat = np.abs(area) <= tol * lengths.max(axis=0)

    solid = ~flat
    sign = np.where(area[solid] > 0.0, 1.0, -1.0)
    s_anchor = anchors[:, solid]
    s_edge = edges[:, solid] * sign[None, :, None]
    s_floor = -tol * lengths[:, solid]
    # the longest edge of a flat triangle spans its hull
    flat_idx = np.flatnonzero(flat)
    longest = np.argmax(lengths[:, flat_idx], axis=0)
    f_start = anchors[longest, flat_idx]
    f_edge = edges[longest, flat_idx]
    f_len2 = np.sum(f_edge * f_edge, axis=1)
    f_len2 = np.where(f_len2 > 0.0, f_len2, 1.0)

    def block(q):
        inside = np.ones((q.shape[0], s_edge.shape[1]), dtype=bool)
        u = np.empty(inside.shape)
        v = np.empty(inside.shape)
        for p, e, floor in zip(s_anchor, s_edge, s_floor):
            np.subtract(q[:, 1:2], p[:, 1], out=u)
            u *= e[:, 0]
            np.subtract(q[:, 0:1], p[:, 0], out=v)
            v *= e[:, 1]
            u -= v
            inside &= u >= floor
        count = inside.sum(axis=1)
        if f_edge.shape[0]:
            w = q[:, None, :] - f_start[None]
            t = np.clip(np.sum(w * f_edge, axis=2) / f_len2, 0.0, 1.0)
            off = w - t[:, :, None] * f_edge
            count += np.count_nonzero(np.sum(off * off, axis=2) <= tol * tol, axis=1)
        return count

    return in_chunks(block, qs, 20 * s_edge.shape[1] + 64 * f_edge.shape[0])


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
    size = max(1, BATCH_BYTES // (8 * (d + 1) * (5 * d + 4)))
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

    Exact enumeration; raises when the number of simplices exceeds the
    enumeration cap.  Supported for d <= 4; d <= 2 is vectorised over the
    queries.
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
        counts = _triangles_containing(qs, cloud)
    else:
        counts = np.array([_simplices_containing(q, cloud) for q in qs], dtype=float)
    return clamp_depths(counts / total)


def simplicial_depth(z, cloud: DataCloud) -> float:
    """Simplicial depth of one point, as a batch of one."""
    return float(simplicial_depth_many(cloud.point_of(z)[None], cloud)[0])
