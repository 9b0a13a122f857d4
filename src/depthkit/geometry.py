"""Convex regions in dimension one and two, and the exact geometry on them.

A ``ConvexRegion`` is stored canonically: in d=1 as a sorted pair of interval
endpoints (possibly equal), in d=2 as the counterclockwise vertex list of the
convex hull starting at the lexicographically smallest vertex, with collinear
vertices dropped.  Degenerate polygons (a point, a segment) are valid regions.
An empty region carries zero vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import in_chunks
from .errors import EmptyRegionError


def _coord_scale(pts: np.ndarray) -> float:
    if pts.size == 0:
        return 1.0
    return max(1.0, float(np.max(np.abs(pts))))


def convex_hull(points: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Monotone-chain convex hull, CCW, collinear points dropped.

    Returns an (m, 2) array; m is 1 for coincident input, 2 for collinear
    input.  ``eps`` is the cross-product threshold below which three points
    count as collinear; by default it scales with the square of the
    coordinate magnitude.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("convex_hull expects an (n, 2) array")
    if eps is None:
        eps = 1e-12 * _coord_scale(pts) ** 2
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 0, axis=1)
    pts = pts[keep]
    if len(pts) <= 1:
        return pts.copy()

    def build(seq):
        out = []
        pop, push = out.pop, out.append
        for p in seq:
            px, py = p
            while len(out) > 1:
                ox, oy = out[-2]
                ax, ay = out[-1]
                # cross(o, a, p), inline: a call per triple costs more
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > eps:
                    break
                pop()
            push(p)
        return out

    # rows of Python floats: the same IEEE arithmetic as numpy scalars, at a
    # fraction of the cost per operation
    rows = pts.tolist()
    lower = build(rows)
    upper = build(rows[::-1])
    return np.array(lower[:-1] + upper[:-1])


#: :func:`convex_ring_hull` traces a ring, rather than reduce it, where
#: sqrt(eps), the farthest the reduction may move the boundary, exceeds
#: this share of the ring's extent
_RING_RESOLUTION = 1e-3


def convex_ring_hull(ring: np.ndarray) -> np.ndarray:
    """The convex polygon of a counter-clockwise ring of support points of
    a convex set, such as a polygonized ellipse or the weighted means of a
    sample in the angular order of their directions, from its
    lexicographically smallest vertex.

    A ring that turns left by more than the hull's ``eps`` at every vertex
    and winds round once is its own hull: a triangle of two consecutive
    vertices and any third has at least the area of the turn at one of the
    two, so the monotone chain pops no vertex, and the result is bitwise
    ``convex_hull(ring)``.

    Any other ring loses its exact repeats and, by :func:`_reduced_ring`,
    the points where it turns by at most ``eps``.  Every vertex is then a
    point of the ring, every turn exceeds ``eps``, and every ring point
    lies within sqrt(eps) of the polygon, as far as the hull's own test
    may move the boundary where it drops a point.  ``convex_hull`` traces
    the ring instead when fewer than three points remain, when no turn
    clears ``eps`` (coincident or collinear points), when sqrt(eps)
    exceeds ``_RING_RESOLUTION`` of the ring's extent (coordinates far from
    the origin for the ring's size), when the reduction would move the
    boundary further, or when the reduced ring does not wind round once.
    """
    eps = 1e-12 * _coord_scale(ring) ** 2
    x, y = ring[:, 0], ring[:, 1]
    at = np.arange(ring.shape[0])
    # exact consecutive duplicates, cyclically
    at = _reduced_ring(x, y, at[(x != x[at - 1]) | (y != y[at - 1])], eps)
    if at is None:
        return convex_hull(ring, eps)
    # the lexicographically smallest vertex: the first of least y among
    # those of least x
    xs = x[at]
    least = np.flatnonzero(xs == xs.min())
    return ring[np.roll(at, -int(least[np.argmin(y[at[least]])]))]


def _ring_turns(x: np.ndarray, y: np.ndarray, at: np.ndarray, idx: np.ndarray):
    """At each vertex a = ``at[i]`` of a ring, i in ``idx``, with its
    neighbours o = ``at[i - 1]`` and b = ``at[i + 1]`` (cyclically): the
    hull's cross(o, a, b), and the distance from a to the segment o b."""
    o, b = at.take(idx - 1, mode="wrap"), at.take(idx + 1, mode="wrap")
    xo, yo = x[o], y[o]
    ax, ay, bx, by = x[at[idx]] - xo, y[at[idx]] - yo, x[b] - xo, y[b] - yo
    turn = ax * by - ay * bx
    chord = bx * bx + by * by
    t = (ax * bx + ay * by) / np.where(chord > 0.0, chord, 1.0)
    np.clip(t, 0.0, 1.0, out=t)
    return turn, np.hypot(ax - t * bx, ay - t * by)


def _reduced_ring(x: np.ndarray, y: np.ndarray, at: np.ndarray, eps: float):
    """The positions ``at`` of a ring less the points where it turns by at
    most ``eps``, or None where the ring is to be traced by the hull.

    Dropping a point a between o and b moves the boundary by its distance
    to the segment o b, and the points dropped before next to it by as
    much at most.  Each round drops every other point of each run of such
    points whose distance fits in what is left of sqrt(eps) after the
    largest distance of each earlier round, so that a dropped point keeps
    both its neighbours, whose turns the next round measures again.  A
    point that does not fit, such as the tip of a sliver, stays until its
    neighbours are far enough for it to turn by more than ``eps``.
    """
    room = math.sqrt(eps)
    coarse = room > _RING_RESOLUTION * max(float(np.ptp(x)), float(np.ptp(y)))
    pos = np.arange(at.shape[0])
    turn, off = _ring_turns(x, y, at, pos)
    while at.shape[0] >= 3:
        flat = turn <= eps
        if not flat.any():
            return at if _turns_once(x[at], y[at]) else None
        if coarse or flat.all():
            return None
        flat &= off <= room
        if not flat.any():
            return None
        # the offset of each point in its run, cyclically: a run through
        # the end of the ring counts from its last start
        begins = flat & ~flat[pos - 1]
        first = np.maximum.accumulate(
            np.where(begins, pos, pos[begins][-1] - pos.shape[0]))
        drop = flat & ((pos - first) % 2 == 0)
        room -= float(off[drop].max())
        # only the neighbours of a dropped point turn anew
        near = drop[pos - 1] | drop.take(pos + 1, mode="wrap")
        keep = ~drop
        at, turn, off, near = at[keep], turn[keep], off[keep], near[keep]
        pos = pos[:at.shape[0]]
        idx = np.flatnonzero(near)
        turn[idx], off[idx] = _ring_turns(x, y, at, idx)
    return None


def _turns_once(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether a ring that turns left at every vertex winds round once:
    its exterior angles sum to 2 pi, not to a multiple of it."""
    ex, ey = np.diff(x, append=x[0]), np.diff(y, append=y[0])
    before = np.arange(-1, x.shape[0] - 1)
    px, py = ex[before], ey[before]
    return abs(np.arctan2(px * ey - py * ex, px * ex + py * ey).sum() - 2.0 * np.pi) < np.pi


def half_turn_order(x: np.ndarray, y: np.ndarray, last: np.ndarray | None = None):
    """The planar directions (x, y), (m, n), sorted row by row on one
    half-turn.

    A direction below the x-axis (angle < 0) is turned by pi onto its
    antipode, so that one sort of the folded angles in [0, pi] orders the
    directions and their antipodes at once (Rousseeuw & Ruts 1996, AS 307).
    Entries where ``last`` is True sort after all others, in index order.
    Returns the flat positions of each row's entries in that order, and the
    folded angles and the mask of the turned entries in the same order.
    """
    m, n = x.shape
    angle = np.arctan2(y, x)
    lower = angle < 0.0
    np.add(angle, np.pi, out=angle, where=lower)
    if last is not None:
        np.copyto(angle, np.arange(4.0, 4.0 + n), where=last)
    order = np.argsort(angle, axis=1)
    order += np.arange(0, m * n, n)[:, None]
    return order, angle.take(order), lower.take(order)


#: working set per (query, edge) pair of the edge test: two offsets, two
#: products and the cross product, then the verdict
_CROSS_BYTES = 5 * 8 + 1
#: working set per (query, segment) pair of the segment distance: the
#: projection parameter, the squared distance and four temporaries
_SEGMENT_BYTES = 6 * 8


def _left_of_edges(q: np.ndarray, v: np.ndarray, edges: np.ndarray, floor) -> np.ndarray:
    """Rows of ``q`` whose cross product with every edge ``v -> v + edges``
    is at least ``floor``."""
    cross = edges[:, 0] * (q[:, 1, None] - v[:, 1]) - edges[:, 1] * (q[:, 0, None] - v[:, 0])
    return np.all(cross >= floor, axis=1)


def _segment_distances(q: np.ndarray, a: np.ndarray, ab: np.ndarray,
                       denom: np.ndarray) -> np.ndarray:
    """(k, m) distances from the rows of ``q`` to the closed segments
    ``a + [0, 1] ab``; ``denom`` is |ab|^2, or 1 where ``ab`` is zero."""
    t = np.zeros((q.shape[0], a.shape[0]))
    for c in range(q.shape[1]):
        t += (q[:, c, None] - a[:, c]) * ab[:, c]
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)
    sq = np.zeros_like(t)
    for c in range(q.shape[1]):
        off = q[:, c, None] - (a[:, c] + t * ab[:, c])
        sq += off * off
    return np.sqrt(sq, out=sq)


@dataclass(frozen=True)
class ConvexRegion:
    """Closed convex set given by its extreme points (canonical form)."""

    dim: int
    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float).reshape(-1, self.dim)
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "ConvexRegion":
        return ConvexRegion(dim, np.zeros((0, dim)))

    @staticmethod
    def interval(lo: float, hi: float) -> "ConvexRegion":
        if hi < lo:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        if hi == lo:
            return ConvexRegion(1, np.array([[float(lo)]]))
        return ConvexRegion(1, np.array([[float(lo)], [float(hi)]]))

    @staticmethod
    def single(point) -> "ConvexRegion":
        p = np.asarray(point, dtype=float).reshape(1, -1)
        return ConvexRegion(p.shape[1], p)

    @staticmethod
    def from_points(points, eps: float | None = None) -> "ConvexRegion":
        """Convex hull of a point set (d=1 interval, d=2 polygon)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape[0] == 0:
            return ConvexRegion.empty(pts.shape[1] if pts.ndim == 2 else 1)
        if pts.shape[1] == 1:
            return ConvexRegion.interval(float(pts.min()), float(pts.max()))
        if pts.shape[1] == 2:
            return ConvexRegion(2, convex_hull(pts, eps))
        raise ValueError(f"regions support d in {{1, 2}}, got d={pts.shape[1]}")

    # -- basic queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def lo(self) -> float:
        if self.dim != 1 or self.is_empty:
            raise ValueError("lo is defined for nonempty 1-D regions")
        return float(self.vertices[0, 0])

    @property
    def hi(self) -> float:
        if self.dim != 1 or self.is_empty:
            raise ValueError("hi is defined for nonempty 1-D regions")
        return float(self.vertices[-1, 0])

    def support(self, p) -> float:
        """Support function max_{v in region} <p, v>."""
        if self.is_empty:
            raise EmptyRegionError("support function of an empty region")
        p = np.asarray(p, dtype=float).reshape(-1)
        return float(np.max(self.vertices @ p))

    def _rows(self, zs) -> np.ndarray:
        qs = np.asarray(zs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim:
            raise ValueError(f"points of shape {qs.shape} vs region dimension {self.dim}")
        if not np.isfinite(qs).all():
            raise ValueError("query points must be finite")
        return qs

    def contains(self, z, tol: float = 0.0) -> bool:
        """Whether ``z`` lies in the region, within ``tol``: a batch of one."""
        if self.is_empty:
            return False
        return bool(self.contains_many(np.reshape(z, (1, -1)), tol)[0])

    def contains_many(self, zs, tol: float = 0.0) -> np.ndarray:
        """Whether each row of a (k, dim) array lies in the region, within ``tol``.

        A polygon holds the points that every edge has on its left, up to
        ``tol`` times the edge's length; a point or segment region holds the
        points within ``tol`` of it.  Rows are evaluated in chunks under
        ``core.CHUNK_BYTES``.
        """
        qs = self._rows(zs)
        if self.is_empty:
            return np.zeros(qs.shape[0], dtype=bool)
        if self.dim == 1:
            x = qs[:, 0]
            return (self.lo - tol <= x) & (x <= self.hi + tol)
        v = self.vertices
        if v.shape[0] <= 2:
            return self.distance_many(qs) <= tol
        edges = np.roll(v, -1, axis=0) - v
        floor = -tol * np.maximum(np.linalg.norm(edges, axis=1), 1e-300)
        return in_chunks(lambda q: _left_of_edges(q, v, edges, floor), qs,
                         _CROSS_BYTES * v.shape[0], dtype=bool)

    def contains_region(self, other: "ConvexRegion", tol: float = 0.0) -> bool:
        """True if ``other`` is a subset (convexity: vertex test suffices)."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return bool(np.all(self.contains_many(other.vertices, tol)))

    def distance(self, z) -> float:
        """Euclidean distance from a point to the region (0 inside): a batch of one."""
        return float(self.distance_many(np.reshape(z, (1, -1)))[0])

    def distance_many(self, zs) -> np.ndarray:
        """Euclidean distance of each row of a (k, dim) array to the region.

        It is 0 inside a polygon and the least distance to an edge outside;
        a point or a segment is a polygon with degenerate edges.  Rows are
        evaluated in chunks under ``core.CHUNK_BYTES``.
        """
        if self.is_empty:
            raise EmptyRegionError("distance to an empty region")
        qs = self._rows(zs)
        if self.dim == 1:
            x = qs[:, 0]
            return np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        v = self.vertices
        # the edges v_i -> v_i+1, cyclically: a point region is one edge of
        # length zero, and a segment is walked both ways, so that each
        # endpoint starts an edge and is at distance exactly 0
        edges = np.roll(v, -1, axis=0) - v
        denom = np.sum(edges * edges, axis=1)
        denom[denom == 0.0] = 1.0

        def block(q):
            dist = _segment_distances(q, v, edges, denom).min(axis=1)
            if v.shape[0] > 2:
                dist[_left_of_edges(q, v, edges, 0.0)] = 0.0
            return dist

        # the edge test runs after the distances are reduced, not beside them
        return in_chunks(block, qs, max(_SEGMENT_BYTES, _CROSS_BYTES) * v.shape[0])

    def hausdorff(self, other: "ConvexRegion") -> float:
        """Exact Hausdorff distance between convex regions.

        The supremum of distance-to-a-convex-set over a polytope is attained
        at a vertex, so vertex sweeps in both directions are exact.
        """
        if self.is_empty or other.is_empty:
            raise EmptyRegionError("Hausdorff distance needs two nonempty regions")
        if self.dim != other.dim:
            raise ValueError("regions of different dimension")
        d_ab = other.distance_many(self.vertices).max()
        d_ba = self.distance_many(other.vertices).max()
        return float(max(d_ab, d_ba))

    def minkowski_sum(self, other: "ConvexRegion") -> "ConvexRegion":
        """Minkowski sum; the hull of pairwise vertex sums is exact here."""
        if self.dim != other.dim:
            raise ValueError("regions of different dimension")
        if self.is_empty or other.is_empty:
            return ConvexRegion.empty(self.dim)
        sums = (self.vertices[:, None, :] + other.vertices[None, :, :]).reshape(-1, self.dim)
        return ConvexRegion.from_points(sums)

    def scaled(self, factor: float) -> "ConvexRegion":
        if self.is_empty:
            return self
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ConvexRegion(self.dim, self.vertices * float(factor))

    def translated(self, b) -> "ConvexRegion":
        if self.is_empty:
            return self
        b = np.asarray(b, dtype=float).reshape(-1)
        return ConvexRegion(self.dim, self.vertices + b)

    def convexity_defect(self) -> float:
        """Max violation of strict convexity over consecutive vertex triples.

        0.0 means every turn is strictly counterclockwise (after canonical
        construction this holds up to float noise); positive values measure
        the worst clockwise cross product.
        """
        v = self.vertices
        if self.dim != 2 or v.shape[0] <= 2:
            return 0.0
        e_in = v - np.roll(v, 1, axis=0)
        e_out = np.roll(v, -1, axis=0) - v
        cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
        return float(max(0.0, -np.min(cross)))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.is_empty:
            raise EmptyRegionError("bounding box of an empty region")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def clip_polygon_halfplane(verts: np.ndarray, u: np.ndarray, h: float, tol: float = 0.0) -> np.ndarray:
    """Clip a convex polygon (vertex list) by the halfplane {z : <u, z> <= h}.

    Standard single-plane Sutherland-Hodgman step.  A vertex within ``tol``
    outside the line is kept, and a crossing next to it is taken at its end
    of the edge (the parameter is clamped to [0, 1]), so every crossing lies
    on its edge and the clipped polygon never reaches past ``verts``.
    Returns the possibly empty clipped vertex array; the caller
    re-canonicalizes.
    """
    m = verts.shape[0]
    if m == 0:
        return verts
    vals = verts @ u - h
    inside = vals <= tol
    if np.all(inside):
        return verts
    if not np.any(inside):
        return verts[:0]
    # rows of Python floats: the same IEEE arithmetic as numpy scalars, at a
    # fraction of the cost per operation
    rows, vals, inside = verts.tolist(), vals.tolist(), inside.tolist()
    out = []
    for i in range(m):
        j = (i + 1) % m
        if inside[i]:
            out.append(rows[i])
        if inside[i] != inside[j]:
            denom = vals[i] - vals[j]
            t = min(max(vals[i] / denom, 0.0), 1.0) if denom != 0.0 else 0.5
            out.append([a + t * (b - a) for a, b in zip(rows[i], rows[j])])
    return np.array(out)
