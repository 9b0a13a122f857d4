"""Central-region contours, depth lifts, the induced preorder and semimetric.

Exact region algorithms are dispatched through the registry where they
exist (weighted-mean families, halfspace, scatter ellipses); every other
depth falls back to evaluating the depth field on a padded grid and tracing
the marching-squares contour of the upper level set, returned as a ``Ring``
(a closed, not necessarily convex polyline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cloud import DataCloud
from .core import check_level
from .errors import (
    EmptyRegionError,
    EnumerationTooLargeError,
    GridMismatchError,
    NestingViolationError,
    UnsupportedLiftError,
)
from .geometry import ConvexRegion
from .registry import DEFAULT_OPTIONS, DepthSpec, EvalOptions, get_depth

DEFAULT_GRID_RESOLUTION = 256
#: largest grid side drawn, so a traced field holds at most 2048**2 depths
_MAX_GRID_RESOLUTION = 2048
#: share of the data's span added on every side of the grid window
_GRID_PADDING = 0.10
#: levels 0.01, 0.02, ..., 1.00
DEFAULT_ALPHA_GRID = tuple(np.round(np.arange(1, 101) / 100.0, 2))
#: relative slack for containment checks between exactly-touching regions
_CONTAINMENT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# grid contours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """Closed polyline (last vertex connects back to the first)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0

    @property
    def area(self) -> float:
        v = self.vertices
        if v.shape[0] < 3:
            return 0.0
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def contains_point(self, p) -> bool:
        """Even-odd ray crossing test."""
        p = np.asarray(p, dtype=float).reshape(-1)
        a = self.vertices
        if a.shape[0] < 3:
            return False
        b = np.roll(a, -1, axis=0)
        cut = (a[:, 1] > p[1]) != (b[:, 1] > p[1])
        a, b = a[cut], b[cut]
        x_cross = a[:, 0] + (p[1] - a[:, 1]) / (b[:, 1] - a[:, 1]) * (b[:, 0] - a[:, 0])
        return bool(np.count_nonzero(p[0] < x_cross) % 2)


# The edges of a cell: bottom, right, top and left, each as the (row, column)
# offset of its first corner and 1 where it runs along y.
_B, _R, _T, _L = range(4)
_EDGES = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 0], [0, 0, 1]])
# (case, from edge, to edge) of the segments of a cell, in drawing order and
# with the inside (>= level) on the left, so outer rings run counterclockwise.
# A saddle (5, 10) whose corners average at least the level joins its two
# inside corners through the cell; one whose corners do not takes case + 16
# and keeps them apart.
_SEGMENTS = np.array([
    (1, _B, _L), (2, _R, _B), (3, _R, _L), (4, _T, _R), (5, _T, _L),
    (5, _B, _R), (6, _T, _B), (7, _T, _L), (8, _L, _T), (9, _B, _T),
    (10, _L, _B), (10, _R, _T), (11, _R, _T), (12, _L, _R), (13, _B, _R),
    (14, _L, _B), (21, _B, _L), (21, _T, _R), (26, _R, _B), (26, _L, _T),
])


def marching_squares(xs: np.ndarray, ys: np.ndarray, field: np.ndarray,
                     level: float) -> list[Ring]:
    """Contours of {field >= level} on the rectilinear grid (xs, ys).

    ``field`` is indexed [iy, ix].  The field is framed with a below-level
    border first, so every contour closes inside the (slightly enlarged)
    window.  Returns one Ring per closed contour.  Segments are linked by
    the grid edge their crossing lies on; a crossing on a grid vertex, which
    two edges reach, is kept once.
    """
    nx, ny = len(xs), len(ys)
    if field.shape != (ny, nx):
        raise ValueError("field shape does not match the grid")
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    xs2 = np.concatenate([[xs[0] - dx], xs, [xs[-1] + dx]])
    ys2 = np.concatenate([[ys[0] - dy], ys, [ys[-1] + dy]])
    g = np.full((ny + 2, nx + 2), level - 1.0)
    g[1:-1, 1:-1] = field
    g -= level

    inside = g >= 0
    case = inside[:-1, :-1] + 2 * inside[:-1, 1:] + 4 * inside[1:, 1:] + 8 * inside[1:, :-1]
    iy, ix = np.nonzero((case != 0) & (case != 15))
    case = case[iy, ix]
    center = (g[iy, ix] + g[iy, ix + 1] + g[iy + 1, ix + 1] + g[iy + 1, ix]) / 4.0
    case += 16 * (((case == 5) | (case == 10)) & ~(center >= 0))
    cell, row = np.nonzero(case[:, None] == _SEGMENTS[:, 0])
    corner = np.stack([iy[cell], ix[cell], np.zeros_like(cell)])
    first = _EDGES[_SEGMENTS[row, 1]].T + corner
    last = _EDGES[_SEGMENTS[row, 2]].T + corner

    # each segment starts at the crossing on its first edge; the corners
    # of a crossed edge lie on either side of the level, so fa != fb
    ay, ax, up = first
    fa, fb = g[ay, ax], g[ay + up, ax + 1 - up]
    t = np.clip(fa / (fa - fb), 0.0, 1.0)
    start = np.column_stack([xs2[ax] + t * (xs2[ax + 1 - up] - xs2[ax]),
                             ys2[ay] + t * (ys2[ay + up] - ys2[ay])])

    # every crossed edge is the first edge of one segment and the last of
    # one other, so following last edges walks the rings
    after = np.empty((ny + 2, nx + 2, 2), dtype=np.intp)
    after[tuple(first)] = np.arange(len(t))
    nxt = after[tuple(last)].tolist()
    rings = []
    for s in range(len(nxt)):
        if nxt[s] < 0:
            continue
        cycle = []
        while nxt[s] >= 0:
            cycle.append(s)
            nxt[s], s = -1, nxt[s]
        v = start[cycle]
        # a vertex equal to the one before it goes; the first one stays
        v = v[(v != np.roll(v, 1, axis=0)).any(axis=1) | (np.arange(len(v)) == 0)]
        if v.shape[0] > 2:
            rings.append(Ring(v))
    return rings


# ---------------------------------------------------------------------------
# central regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionContour:
    """One depth level set: exact polygon when available, traced rings else."""

    depth_name: str
    alpha: float
    exact: bool
    region: ConvexRegion | None
    rings: tuple[Ring, ...]

    @property
    def is_empty(self) -> bool:
        if self.exact:
            return self.region is None or self.region.is_empty
        return all(r.is_empty for r in self.rings) or not self.rings

    def contains_point(self, z) -> bool:
        if self.exact:
            return self.region is not None and self.region.contains(z)
        return any(r.contains_point(z) for r in self.rings)


def _grid_field(cloud: DataCloud, batch_fn, resolution: int):
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9 * np.maximum(np.abs(hi), 1.0))
    lo = lo - _GRID_PADDING * span
    hi = hi + _GRID_PADDING * span
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    field = batch_fn(queries).reshape(resolution, resolution)
    return xs, ys, field


def region_contour(cloud: DataCloud, depth_name: str, alpha: float,
                   options: EvalOptions = DEFAULT_OPTIONS,
                   resolution: int = DEFAULT_GRID_RESOLUTION) -> RegionContour:
    """Upper level set {z : D(z) >= alpha} for one depth at one level."""
    return region_contours(cloud, depth_name, [alpha], options, resolution)[0]


def region_contours(cloud: DataCloud, depth_name: str,
                    alphas: Sequence[float],
                    options: EvalOptions = DEFAULT_OPTIONS,
                    resolution: int = DEFAULT_GRID_RESOLUTION,
                    ) -> list[RegionContour]:
    """Upper level sets {z : D(z) >= alpha} for one depth at several levels.

    Uses the exact region constructor when the depth registers one;
    otherwise evaluates the depth once on a padded grid and traces the
    contours of every level on it.
    """
    levels = [check_level(a) for a in alphas]
    if resolution < 2:
        raise ValueError(f"grid resolution must be at least 2, got {resolution}")
    if resolution > _MAX_GRID_RESOLUTION:
        raise EnumerationTooLargeError(
            f"grid resolution {resolution} exceeds {_MAX_GRID_RESOLUTION}")
    spec = get_depth(depth_name)
    if spec.region_fn is not None:
        return [RegionContour(spec.name, a, True, spec.region_fn(cloud, a), ())
                for a in levels]
    cloud.require_dim(2)
    batch = lambda qs: spec.evaluate_many(qs, cloud, options)
    xs, ys, field = _grid_field(cloud, batch, resolution)
    return [RegionContour(spec.name, a, False, None,
                          tuple(marching_squares(xs, ys, field, a)))
            for a in levels]


def _exact_spec(depth_name: str) -> DepthSpec:
    """The registry entry of a depth that has an exact region constructor."""
    spec = get_depth(depth_name)
    if spec.region_fn is None:
        raise UnsupportedLiftError(
            f"depth '{spec.name}' has no exact region constructor")
    return spec


def central_region(cloud: DataCloud, depth_name: str, alpha: float) -> ConvexRegion:
    """Exact alpha-central region; raises for depths without a constructor."""
    alpha = check_level(alpha)
    return _exact_spec(depth_name).region_fn(cloud, alpha)


def hausdorff_distance(a: ConvexRegion, b: ConvexRegion) -> float:
    """Hausdorff distance between two convex regions of equal dimension."""
    return a.hausdorff(b)


# ---------------------------------------------------------------------------
# depth lift, ordering, semimetric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepthLift:
    """Scaled stack {(alpha, alpha * x) : x in D_alpha} over an alpha grid."""

    depth_name: str
    alphas: tuple[float, ...]
    slices: tuple[ConvexRegion, ...]
    cloud_hash: str

    def __post_init__(self):
        if len(self.alphas) != len(self.slices):
            raise ValueError("alphas and slices must have equal length")

    def slice_at(self, alpha: float) -> ConvexRegion:
        for a, s in zip(self.alphas, self.slices):
            if abs(a - alpha) <= 1e-12:
                return s
        raise GridMismatchError(f"alpha {alpha} is not on the lift grid")


def depth_lift(cloud: DataCloud, depth_name: str,
               alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
               assume_renormalized: bool = False) -> DepthLift:
    """Build the lift: slice at alpha is the alpha-central region scaled by alpha.

    Only depths whose sample regions are nonempty at every requested level
    are eligible; pass ``assume_renormalized=True`` to override the guard
    for a depth with an exact region constructor whose maximum falls short
    of 1 (empty top slices are then dropped).
    """
    spec = _exact_spec(depth_name)
    if not spec.lift_ready and not assume_renormalized:
        raise UnsupportedLiftError(
            f"depth '{spec.name}' does not reach level 1 on samples; "
            "pass assume_renormalized=True to lift the nonempty slices")
    levels = [check_level(a) for a in sorted(map(float, alphas))]
    kept_alphas: list[float] = []
    raw: list[ConvexRegion] = []
    for a in levels:
        region = spec.region_fn(cloud, a)
        if region.is_empty:
            if not assume_renormalized:
                raise UnsupportedLiftError(
                    f"depth '{spec.name}' has empty region at alpha={a:g}")
            continue
        kept_alphas.append(a)
        raw.append(region)
    # slack absorbs float noise on shared boundaries (regions often touch)
    slack = _CONTAINMENT_RTOL * max(cloud.extent, 1.0)
    for i in range(1, len(raw)):
        if not raw[i - 1].contains_region(raw[i], tol=slack):
            raise NestingViolationError(
                f"region at alpha={kept_alphas[i]:g} escapes the region "
                f"at alpha={kept_alphas[i - 1]:g}")
    slices = tuple(r.scaled(a) for r, a in zip(raw, kept_alphas))
    return DepthLift(spec.name, tuple(kept_alphas), slices,
                     cloud.content_hash())


def _check_comparable(a: DepthLift, b: DepthLift):
    if a.depth_name != b.depth_name:
        raise GridMismatchError(
            f"lifts use different depths: '{a.depth_name}' vs '{b.depth_name}'")
    if len(a.alphas) != len(b.alphas) or any(
            abs(x - y) > 1e-12 for x, y in zip(a.alphas, b.alphas)):
        raise GridMismatchError("lifts were built on different alpha grids")


def _region_scale(region: ConvexRegion) -> float:
    lo, hi = region.bounding_box()
    return float(np.max(np.abs(np.concatenate([lo, hi]))))


def depth_order_leq(a: DepthLift, b: DepthLift) -> bool:
    """Set ordering: every slice of ``a`` is contained in the slice of ``b``."""
    _check_comparable(a, b)
    for sa, sb in zip(a.slices, b.slices):
        if sa.is_empty:
            continue
        if sb.is_empty:
            return False
        slack = _CONTAINMENT_RTOL * max(_region_scale(sa), _region_scale(sb), 1.0)
        if not sb.contains_region(sa, tol=slack):
            return False
    return True


def depth_semimetric(a: DepthLift, b: DepthLift) -> float:
    """Largest slice-wise Hausdorff distance between two lifts."""
    _check_comparable(a, b)
    worst = 0.0
    for sa, sb in zip(a.slices, b.slices):
        if sa.is_empty and sb.is_empty:
            continue
        if sa.is_empty or sb.is_empty:
            raise EmptyRegionError(
                "cannot compare an empty slice with a nonempty one")
        worst = max(worst, sa.hausdorff(sb))
    return worst
