"""Combinatorial depths: halfspace (Tukey), its regions, random Tukey depth,
and simplicial depth.

Values are exact fractions of counts, so equal inputs give bitwise equal
outputs.  Each depth takes one point (a float) or (m, d) query rows alike.
Halfspace and simplicial depth are two reductions of one side count per
dimension.
In the plane it is the data points' sides of the lines through the query
and each data point, read from one angular order of the data points about
each query, in O(n log n) per query: halfspace depth takes each query's
fewest points in a closed halfplane through it, simplicial depth the
triangles that miss it.  A query where two directions from it come within
rounding of one line is resolved by the full n x n table of those sides,
for both.  In d = 1 both reduce the data points strictly below and above
the query, compared exactly.  Tukey regions intersect the finitely many
binding halfplanes: in general position those on the lines through two data
points with k - 1 or k - 2 points beyond, read from one table of pair
counts per cloud (the same angular orders, about each data point); with
duplicates or three points on a line, every critical halfplane.  Random
Tukey depth counts the data's sides on seeded directions, for a batch from
the data's projections sorted once; simplicial depth in d >= 3 enumerates
closed simplices.
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
from .geometry import ConvexRegion, clip_polygon_halfplane, convex_hull, half_turn_order
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
#: two directions from a query, or a direction and an antipode, closer
#: than this in radians are a near-tie: farther apart, the sine between two
#: directions and its rounding cannot meet the 1e-12 on-a-line rule
_ANGLE_GAP = 1e-9
#: the near-tie rows of a query without one, and of one with one
_NO_TIES, _ONE_TIE = np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp)
#: bytes per (query, data point) entry of :func:`_angular_tables`: the
#: temporaries take about 70, and chunks of this size ran fastest
_ANGLE_ENTRY_BYTES = 320


# ---------------------------------------------------------------------------
# halfspace and simplicial depth: the data's sides of the query
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


def _angular_order(rel: np.ndarray, tol: float):
    """``left`` (m, n), ``fewest`` (m,) and ``ties`` for the offsets
    ``rel`` (m, n, 2) of the data points from m planar queries.

    A point is far when it lies beyond ``tol``.  ``left[a]`` counts the far
    points strictly counter-clockwise of a within a half-turn (0 when a is
    not far).  Each far direction is folded onto the upper half-turn, so
    that one sort of n angles orders the directions and their antipodes at
    once (AS 307): the points left of a are those after it on its own
    half-turn and those before it on the other.  ``ties`` lists the queries
    two of whose directions or antipodes lie within ``_ANGLE_GAP`` of each
    other.  On the others no two far points are within rounding of one line
    through the query, so ``left`` is the ``k`` of :func:`_line_tables`, and
    ``fewest`` = min(left, right) over the far points, plus the points not
    far, is the least of its ``fewest``.
    """
    m, n = rel.shape[:2]
    far = np.hypot(rel[..., 0], rel[..., 1]) > tol
    if m == 1:
        # one row takes half the time in 1-D: each antipode finds the points
        # within a half-turn of its own in the far angles, sorted and doubled
        # by a turn; the doubled angles' gaps and the antipodes' neighbours
        # there are the cyclic gaps of the directions and their antipodes
        angle = np.arctan2(rel[..., 1][far], rel[..., 0][far])
        order = angle.argsort()
        angle = angle[order]
        f = angle.size
        doubled = np.concatenate([angle, angle + 2.0 * np.pi])
        antipode = angle + np.pi
        pos = doubled.searchsorted(antipode)
        left = np.zeros((1, n), dtype=np.int32)
        gaps = np.concatenate([doubled[1:f + 1] - angle, doubled[pos] - antipode,
                               antipode - doubled[pos - 1]])
        if np.minimum.reduce(gaps, initial=np.inf) < _ANGLE_GAP:
            return left, np.zeros(1, dtype=np.int64), _ONE_TIE
        row = np.empty(f, dtype=np.int32)
        row[order] = pos - np.arange(1, f + 1)
        left[far] = row
        fewest = np.minimum.reduce(np.minimum(row, f - 1 - row), initial=f, keepdims=True)
        fewest += n - f
        return left, fewest, _NO_TIES
    # points that are not far sort last, out of the way of the folded angles
    order, angle, lower = half_turn_order(rel[..., 0], rel[..., 1], last=~far)
    n_far = _count(far)[:, None]
    beyond = np.arange(n) >= n_far
    lower &= ~beyond
    n_lower = _count(lower)[:, None]
    last = angle[np.arange(m), np.maximum(n_far[:, 0] - 1, 0)]
    tie = _count(np.diff(angle, axis=1) < _ANGLE_GAP) > 0
    tie |= angle[:, 0] + np.pi - last < _ANGLE_GAP
    # c = 2 (lower points before a) - (points before a)
    c = np.cumsum(lower, axis=1, dtype=np.int32)
    c -= lower
    c *= 2
    c -= np.arange(n, dtype=np.int32)
    ranked = np.where(lower, n_lower - 1 - c, (n_far - n_lower) - 1 + c)
    # min(left, right) in c's buffer, n where not far: fewest is n if no
    # point is far, and below n_far otherwise
    np.subtract(n_far - 1, ranked, out=c)
    np.minimum(c, ranked, out=c)
    c[beyond] = n
    fewest = np.minimum(c.min(axis=1), n_far[:, 0]) + (n - n_far[:, 0])
    ranked[beyond] = 0
    left = np.empty_like(ranked)
    left.put(order, ranked)
    return left, fewest, np.flatnonzero(tie)


def _angular_tables(qs: np.ndarray, cloud: DataCloud):
    """Per chunk of the planar queries ``qs``: its rows, each query's least
    ``fewest`` and the table ``k`` of :func:`_line_tables`, bitwise, from
    one angular order per query (:func:`_angular_order`).  The rows with a
    near-tie are taken from :func:`_line_tables`.  Queries go in chunks
    under ``core.BATCH_BYTES``.
    """
    pts, n = cloud.points, cloud.n
    tol = _BOUNDARY_REL_TOL * cloud.extent
    step = max(1, core.BATCH_BYTES // (_ANGLE_ENTRY_BYTES * n))
    for start in range(0, qs.shape[0], step):
        chunk = qs[start:start + step]
        left, fewest, ties = _angular_order(pts - chunk[:, None], tol)
        if ties.size:
            for rows, few, k in _line_tables(chunk[ties], cloud):
                left[ties[rows]] = k
                fewest[ties[rows]] = few.min(axis=1)
        yield slice(start, start + step), fewest, left


def _sides_1d(qs: np.ndarray, cloud: DataCloud):
    """The data points strictly below and strictly above each of the
    queries ``qs`` (m, 1).  A 1-D side test compares two numbers, with no
    rounding and no tolerance."""
    values = np.sort(cloud.points[:, 0])
    q = qs[:, 0]
    return values.searchsorted(q, "left"), cloud.n - values.searchsorted(q, "right")


# ---------------------------------------------------------------------------
# halfspace depth
# ---------------------------------------------------------------------------


def halfspace_depth_1d(z, cloud: DataCloud):
    """min(#{x <= z}, #{x >= z}) / n = (n - max(below, above)) / n: of one
    point (a float), or of each row of an (m, 1) array (m depths)."""
    cloud.require_dim(1)
    qs, batch = cloud.queries(z)
    fewest = cloud.n - np.maximum(*_sides_1d(qs, cloud))
    return fewest / cloud.n if batch else int(fewest[0]) / cloud.n


def halfspace_depth_2d(z, cloud: DataCloud):
    """Exact planar halfspace depth of one point (a float), or of each row
    of an (m, 2) array (m depths).

    The count of points in the closed halfplane {x : <u, x - z> >= 0} is
    piecewise constant in the angle of u and changes only where the boundary
    line passes through a data point, so the minimum is attained just beside
    such a line: the least ``fewest`` of :func:`_angular_tables`.
    """
    cloud.require_dim(2)
    qs, batch = cloud.queries(z)
    fewest = np.empty(qs.shape[0], dtype=np.int64)
    for rows, few, _ in _angular_tables(qs, cloud):
        fewest[rows] = few
    return fewest / cloud.n if batch else int(fewest[0]) / cloud.n


def halfspace_depth(z, cloud: DataCloud):
    """Exact halfspace depth, d <= 2, of one point (a float) or of each row
    of an (m, d) array (m depths)."""
    if cloud.d == 1:
        return halfspace_depth_1d(z, cloud)
    if cloud.d == 2:
        return halfspace_depth_2d(z, cloud)
    raise DimensionMismatchError(
        "exact halfspace depth is available in d <= 2; use random_tukey_depth beyond"
    )


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


def _clip_by_cutting(poly: np.ndarray, normals: np.ndarray, h: np.ndarray,
                     tol: float) -> np.ndarray:
    """``poly`` clipped by each halfplane {z : <u, z> <= h} in turn, calling
    :func:`clip_polygon_halfplane` only for those that may cut it.

    A clip puts its crossings on the polygon's edges and only shrinks it,
    so a halfplane that the polygon clears stays cleared: after each clip
    only the halfplanes still flagged are tested again.  A skipped clip
    would have returned the polygon unchanged, so the result is bitwise
    that of every clip in turn.
    """
    live = np.flatnonzero(_cutting(poly, normals, h, tol))
    while live.size:
        i, live = live[0], live[1:]
        clipped = clip_polygon_halfplane(poly, normals[i], float(h[i]), tol)
        if clipped is poly:
            continue
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


#: the table's halfplanes keep a vertex that lies outside by at most this
#: share of the box's largest coordinate, 16 unit roundoffs: above the
#: rounding of a crossing, so that a level that is a point or a segment
#: does not come out empty
_PAIR_CLIP_REL = 2.0**-49


def _pair_counts(cloud: DataCloud):
    """The (n, n) int32 table r[i, j] of the data points strictly right of
    the directed line x_i -> x_j (n on the diagonal), or None when some
    data point sees a near-tie (:func:`_angular_order`): duplicates, or
    three points within rounding of one line.

    Right of x_i -> x_j is left of x_j -> x_i, which is ``left[j, i]`` of
    the angular order about x_j: O(n^2 log n) for the table, under the
    near-tie rule of the depth.  Queries go in chunks under
    ``core.BATCH_BYTES``.
    """
    pts, n = cloud.points, cloud.n
    tol = _BOUNDARY_REL_TOL * cloud.extent
    step = max(1, core.BATCH_BYTES // (_ANGLE_ENTRY_BYTES * n))
    counts = np.empty((n, n), dtype=np.int32)
    for start in range(0, n, step):
        left, _, ties = _angular_order(pts - pts[start:start + step, None], tol)
        if ties.size:
            return None
        counts[:, start:start + step] = left.T
    np.fill_diagonal(counts, n)
    counts.setflags(write=False)
    return counts


def _pair_counts_of(cloud: DataCloud):
    """:func:`_pair_counts`, kept on the cloud when the n x n table fits
    ``core.BATCH_BYTES`` (n <= 2048 at the default budget; 25 KB at
    n = 80), so that every level of a ladder reads it."""
    if 4 * cloud.n * cloud.n <= core.BATCH_BYTES:
        return cloud.derived(("tukey-pairs",), _pair_counts)
    return _pair_counts(cloud)


def _pair_halfplanes(pts: np.ndarray, i: np.ndarray, j: np.ndarray):
    """(normals, bounds) of the closed halfplanes left of the directed
    lines x_i -> x_j.  The bound is the larger of the two points'
    projections, which is the k-th largest projection on the normal when
    k - 1 points lie strictly beyond; each is formed coordinate by
    coordinate, with no BLAS product whose rounding follows the number of
    lines."""
    d = pts[j] - pts[i]
    normals = np.column_stack([d[:, 1], -d[:, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    u0, u1 = normals[:, 0], normals[:, 1]
    bounds = np.maximum(u0 * pts[i, 0] + u1 * pts[i, 1], u0 * pts[j, 0] + u1 * pts[j, 1])
    return normals, bounds


def _padded_box(pts: np.ndarray, pad: float) -> np.ndarray:
    """The bounding box of ``pts`` widened by ``pad`` on each side,
    counter-clockwise."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return np.array([
        [lo[0] - pad, lo[1] - pad],
        [hi[0] + pad, lo[1] - pad],
        [hi[0] + pad, hi[1] + pad],
        [lo[0] - pad, hi[1] + pad],
    ])


def tukey_region_2d(cloud: DataCloud, alpha: float) -> ConvexRegion:
    """Upper level set {z : halfspace depth >= alpha} of a planar cloud.

    With k = ceil(n alpha), a padded bounding box is clipped by halfplanes
    that hold the region, skipping those that cannot cut it.  May be
    empty, a point, or a segment.

    A cloud without a near-tie (no duplicates, no three points within
    rounding of one line; :func:`_pair_counts`) reads its halfplanes from
    one table of pair counts, built once per cloud.  As the normal turns,
    the point whose projection is k-th largest changes where it meets the
    next one, on a line through two data points with k - 1 points strictly
    beyond (the region's edges lie there; Ruts & Rousseeuw 1996) or k - 2
    (the region lies strictly inside those).  Between two such normals the
    halfplanes turn about one point, so these lines' closed halfplanes
    bound the region exactly: the box is clipped by those with k - 1
    beyond, then by those with k - 2, which cut only a level that is
    empty.  The box's padding and the clip's tolerance follow the cloud's
    scale, so a vertex lies outside no such halfplane by more than rounding.

    Any other cloud clips by every critical halfplane {z : <u, z> <= k-th
    largest projection}, u a normal of a pairwise difference, with the
    projections formed in blocks of halfplanes under ``core.BATCH_BYTES``;
    a cloud on one line gives the trimmed segment.
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

    counts = _pair_counts_of(cloud)
    if counts is not None:
        poly = _padded_box(pts, 0.5 * cloud.extent)
        tol = _PAIR_CLIP_REL * float(np.abs(poly).max())
        blocks = (_pair_halfplanes(pts, *np.nonzero(counts == beyond))
                  for beyond in (k - 1, k - 2))
    else:
        poly = _padded_box(pts, 0.5 * max(cloud.extent, 1.0))
        iu, ju = np.triu_indices(n, k=1)
        diffs = pts[iu] - pts[ju]
        keep = np.linalg.norm(diffs, axis=1) > tol
        diffs = diffs[keep]
        normals = np.column_stack([-diffs[:, 1], diffs[:, 0]])
        normals = np.vstack([normals, -normals])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        blocks = _halfplane_bounds(normals, pts, k)
    for u, h in blocks:
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
# random Tukey depth
# ---------------------------------------------------------------------------


#: working set per (direction, data point) entry of :func:`_signs_count`:
#: the projection and one sign mask
_SIGN_ENTRY_BYTES = 10
#: working set per (direction, query) entry of :func:`_table_sides`: the
#: projections, their order, the search keys and the positions found
_TABLE_ENTRY_BYTES = 40
#: queries per block of :func:`_table_counts`, and the most (direction,
#: query) entries a block takes whatever the budget: bigger blocks run
#: slower, as their temporaries leave the cache
_TABLE_QUERY_ROWS = 512
_TABLE_BLOCK_ENTRIES = 2**15
#: a batch reads the sorted table when queries x data points reaches this;
#: below, the per-direction sort and searches cost more than the products
#: they save (measured by tools/scaling.py tukey_oja)
_TABLE_MIN_ENTRIES = 2000
#: unit roundoff of a float64
_EPS = 2.0**-53


def _direction_blocks(count: int, size: int):
    """Slices of ``count`` directions in the fewest blocks of at most
    ``size`` (even, at least 2) rows, all of about one size, as a small
    last block leaves the allocator with odd-sized holes.  Each holds an
    even number of rows but the last, and none is a single row unless
    ``count`` is 1: the last one takes the row that would be left over,
    since BLAS multiplies one row, and rounds it, differently from a block
    of rows."""
    blocks = -(-count // size)
    size = 2 * -(-count // (2 * blocks))
    start = 0
    while start < count:
        stop = min(start + size, count)
        if count - stop == 1:
            stop = count
        yield slice(start, stop)
        start = stop


def _signs_count(q: np.ndarray, pts: np.ndarray, dirs: np.ndarray) -> int:
    """min over the directions u of min(#{u.(p - q) <= 0}, #{u.(p - q) >= 0}),
    from the products ``dirs @ (pts - q).T`` in blocks of directions under
    ``core.BATCH_BYTES``."""
    # project the differences, not the raw coordinates: a query equal to a
    # data point keeps its exact zero row under translation and scaling
    rel = (pts - q).T
    size = 2 * max(1, core.BATCH_BYTES // (2 * _SIGN_ENTRY_BYTES * pts.shape[0]))
    fewest = pts.shape[0]
    for block in _direction_blocks(dirs.shape[0], size):
        proj = dirs[block] @ rel
        le = _count(proj <= 0.0)
        ge = _count(proj >= 0.0)
        del proj  # before the next block's
        fewest = min(fewest, int(np.minimum(le, ge).min()))
    return fewest


def _equal_rows(qs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The number of data points equal to each query, coordinate by
    coordinate."""
    def block(q):
        same = q[:, 0, None] == pts[:, 0]
        for j in range(1, pts.shape[1]):
            same &= q[:, j, None] == pts[:, j]
        return _count(same)

    # the mask, one coordinate's comparison and the count's buffers
    return in_chunks(block, qs, 4 * pts.shape[0], dtype=np.int64)


def _table_sides(table: np.ndarray, proj: np.ndarray, band: np.ndarray,
                 equal: np.ndarray):
    """For a block of k directions: the fewest data points on either side
    of each of r queries, and whether a band of the query holds a point
    not equal to it.

    ``table`` (k, n) holds the data's sorted projections, ``proj`` (k, r)
    the queries', ``band`` (r,) their rounding bands and ``equal`` (r,) the
    data points equal to each.  Below the band lie ``below`` points; the
    band holds only the ``equal`` ones exactly when the next point up lies
    above it.  Then ``below + equal`` points have a product <= 0 and
    ``n - below`` one >= 0.
    """
    k, n = table.shape
    # the keys search fastest in ascending order
    order = np.argsort(proj, axis=1)
    keys = band[order]
    order += np.arange(0, proj.size, proj.shape[1])[:, None]
    np.subtract(proj.take(order), keys, out=keys)
    found = np.empty_like(order)
    for row in range(k):
        found[row] = table[row].searchsorted(keys[row])
    below = np.empty_like(found)
    below.put(order, found)
    del order, keys, found
    nxt = below + equal
    clear = nxt == n
    np.minimum(nxt, n - 1, out=nxt)
    nxt += np.arange(0, k * n, n)[:, None]
    proj += band
    clear |= table.take(nxt) > proj
    del nxt
    np.minimum(below + equal, n - below, out=below)
    return below.min(axis=0), ~clear.all(axis=0)


def _table_counts(qs: np.ndarray, pts: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The counts of :func:`_signs_count` for each row of ``qs``, bitwise,
    from the data's projections sorted once per block of directions.

    Projections are taken from the centre c of the data's bounding box, so
    their rounding follows the cloud's spread, not its position.  With
    r = max |p - c| and s = |q - c|, fl(u.(p - c)) - fl(u.(q - c)) and
    fl(u.(p - q)) each lie within (d + 1) eps (r + s) (1 + O(eps)) of
    u.(p - q), so outside the band of 4 (d + 2) eps (r + s) around
    fl(u.(q - c)) the side a data point falls on in the table is the sign
    of the product of :func:`_signs_count` (:func:`_table_sides`).  A data
    point equal to the query has the product 0, and so counts on both
    sides.  A query whose band holds any other point on some direction
    goes to :func:`_signs_count`.  Directions and queries go in blocks
    under ``core.BATCH_BYTES``.
    """
    n, d = pts.shape
    m = qs.shape[0]
    centre = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    rel = pts - centre
    qrel = qs - centre
    band = np.sqrt(np.einsum("ij,ij->i", qrel, qrel))
    band += float(np.sqrt(np.einsum("ij,ij->i", rel, rel)).max())
    band *= 4 * (d + 2) * _EPS
    # below the normal range, rounding is absolute
    band += np.finfo(float).tiny
    equal = _equal_rows(qs, pts)
    fewest = np.full(m, n, dtype=np.int64)
    tie = np.zeros(m, dtype=bool)
    # queries per block: a block of two directions takes at most half the budget
    rows = max(1, min(m, _TABLE_QUERY_ROWS, core.BATCH_BYTES // (4 * _TABLE_ENTRY_BYTES)))
    size = min(core.BATCH_BYTES // (8 * n + _TABLE_ENTRY_BYTES * rows),
               _TABLE_BLOCK_ENTRIES // rows)
    size = 2 * max(1, size // 2)
    for block in _direction_blocks(dirs.shape[0], size):
        table = dirs[block] @ rel.T
        table.sort(axis=1)
        for start in range(0, m, rows):
            part = slice(start, start + rows)
            least, near = _table_sides(table, dirs[block] @ qrel[part].T,
                                       band[part], equal[part])
            np.minimum(fewest[part], least, out=fewest[part])
            tie[part] |= near
        del table  # before the next block's
    for i in np.flatnonzero(tie):
        fewest[i] = _signs_count(qs[i], pts, dirs)
    return fewest


def random_tukey_depth(z, cloud: DataCloud, options: EvalOptions = DEFAULT_OPTIONS):
    """Minimum univariate halfspace depth over seeded random directions.

    Never below the exact halfspace depth: every direction is a witness, so
    the minimum over a finite set is an upper bound, weakly decreasing as the
    budget grows with the same seed.

    ``z`` is one point, and the depth a float; or an (m, d) array of query
    rows, and the depths an (m,) array, each bitwise the depth of its row
    alone.  A point counts the sides of the data on every direction
    (:func:`_signs_count`); a batch large enough reads them from the sorted
    projections (:func:`_table_counts`).
    """
    qs, batch = cloud.queries(z)
    dirs = unit_directions(cloud.d, options.budget, options.seed)
    if qs.shape[0] > 1 and qs.shape[0] * cloud.n >= _TABLE_MIN_ENTRIES:
        counts = _table_counts(qs, cloud.points, dirs)
    else:
        counts = np.array([_signs_count(q, cloud.points, dirs) for q in qs], dtype=np.int64)
    return counts / cloud.n if batch else int(counts[0]) / cloud.n


# ---------------------------------------------------------------------------
# simplicial depth
# ---------------------------------------------------------------------------


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


def simplicial_depth(z, cloud: DataCloud):
    """Fraction of closed data simplices (d+1 vertices) containing one point
    (a float), or each row of an (m, d) array.

    Exact for d <= 4: in d <= 2 it counts the simplices that miss each
    query, vectorised over the queries, in the plane from one angular order
    per query with near-ties resolved by the line table
    (:func:`_angular_tables`); beyond, it enumerates them, and raises when
    C(n, d+1) exceeds the enumeration cap.
    """
    qs, batch = cloud.queries(z)
    n, d = cloud.n, cloud.d
    if d > 4:
        raise DimensionMismatchError("simplicial depth enumeration is limited to d <= 4")
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} points, got n={n}")
    # only the enumeration in d >= 3 grows with the number of simplices
    total = math.comb(n, d + 1) if d <= 2 else enumeration_size(n, d + 1)
    if d == 1:
        # a segment misses z exactly when both ends lie on one strict side
        below, above = _sides_1d(qs, cloud)
        counts = total - below * (below - 1) // 2 - above * (above - 1) // 2
    elif d == 2:
        counts = np.full(qs.shape[0], float(total))
        for rows, _, k in _angular_tables(qs, cloud):
            # each triangle that misses a query, at its most clockwise vertex
            counts[rows] -= (k * (k - 1) // 2).sum(axis=1)
    else:
        counts = np.array([_simplices_containing(q, cloud) for q in qs], dtype=float)
    depths = clamp_depths(counts / total)
    return depths if batch else float(depths[0])


def simplicial_depth_many(zs, cloud: DataCloud) -> np.ndarray:
    """:func:`simplicial_depth` of each row of ``zs``."""
    return simplicial_depth(cloud.rows(zs), cloud)
