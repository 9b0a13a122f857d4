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
    GridMismatchError,
    NestingViolationError,
    UnsupportedLiftError,
)
from .geometry import ConvexRegion
from .registry import DEFAULT_OPTIONS, DepthSpec, EvalOptions, get_depth

DEFAULT_GRID_RESOLUTION = 256
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
        v = self.vertices
        m = v.shape[0]
        if m < 3:
            return False
        inside = False
        for i in range(m):
            a, b = v[i], v[(i + 1) % m]
            if (a[1] > p[1]) != (b[1] > p[1]):
                x_cross = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
                if p[0] < x_cross:
                    inside = not inside
        return inside


def _interp(pa, pb, fa, fb):
    denom = fa - fb
    t = 0.5 if denom == 0.0 else fa / denom
    t = min(max(t, 0.0), 1.0)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def marching_squares(xs: np.ndarray, ys: np.ndarray, field: np.ndarray,
                     level: float) -> list[Ring]:
    """Contours of {field >= level} on the rectilinear grid (xs, ys).

    ``field`` is indexed [iy, ix].  The field is framed with a below-level
    border first, so every contour closes inside the (slightly enlarged)
    window.  Returns one Ring per closed contour.
    """
    nx, ny = len(xs), len(ys)
    if field.shape != (ny, nx):
        raise ValueError("field shape does not match the grid")
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    xs2 = np.concatenate([[xs[0] - dx], xs, [xs[-1] + dx]])
    ys2 = np.concatenate([[ys[0] - dy], ys, [ys[-1] + dy]])
    f2 = np.full((ny + 2, nx + 2), level - 1.0)
    f2[1:-1, 1:-1] = field
    g = f2 - level

    inside = g >= 0
    cases = (
        inside[:-1, :-1].astype(np.int8)
        + 2 * inside[:-1, 1:]
        + 4 * inside[1:, 1:]
        + 8 * inside[1:, :-1]
    )
    active = np.argwhere((cases != 0) & (cases != 15))

    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for iy, ix in active:
        case = int(cases[iy, ix])
        f00 = g[iy, ix]
        f10 = g[iy, ix + 1]
        f11 = g[iy + 1, ix + 1]
        f01 = g[iy + 1, ix]
        p00 = (xs2[ix], ys2[iy])
        p10 = (xs2[ix + 1], ys2[iy])
        p11 = (xs2[ix + 1], ys2[iy + 1])
        p01 = (xs2[ix], ys2[iy + 1])
        bottom = _interp(p00, p10, f00, f10)
        right = _interp(p10, p11, f10, f11)
        top = _interp(p01, p11, f01, f11)
        left = _interp(p00, p01, f00, f01)
        # edges oriented so the inside (>= level) stays on the left;
        # outer rings then run counterclockwise (positive shoelace area)
        if case == 5:
            center = (f00 + f10 + f11 + f01) / 4.0
            segs = [(top, left), (bottom, right)] if center >= 0 else [
                (bottom, left), (top, right)]
        elif case == 10:
            center = (f00 + f10 + f11 + f01) / 4.0
            segs = [(right, bottom), (left, top)] if center >= 0 else [
                (left, bottom), (right, top)]
        else:
            segs = _SEGMENT_TABLE[case](bottom, right, top, left)
        segments.extend(segs)

    # link segments into rings by matching endpoints
    scale = max(abs(dx), abs(dy), 1e-12)

    def key(p):
        return (round(p[0] / (1e-9 * scale)), round(p[1] / (1e-9 * scale)))

    by_start: dict = {}
    for idx, seg in enumerate(segments):
        by_start.setdefault(key(seg[0]), []).append(idx)
    rings = []
    used = [False] * len(segments)
    for idx, seg in enumerate(segments):
        if used[idx]:
            continue
        chain = [seg[0], seg[1]]
        used[idx] = True
        guard = 0
        while key(chain[-1]) != key(chain[0]) and guard <= len(segments):
            guard += 1
            nxt = None
            for cid in by_start.get(key(chain[-1]), []):
                if not used[cid]:
                    nxt = cid
                    used[cid] = True
                    break
            if nxt is None:
                break
            chain.append(segments[nxt][1])
        if key(chain[-1]) == key(chain[0]) and len(chain) > 3:
            rings.append(Ring(np.array(chain[:-1])))
    return rings


_SEGMENT_TABLE = {
    1: lambda b, r, t, l: [(b, l)],
    2: lambda b, r, t, l: [(r, b)],
    3: lambda b, r, t, l: [(r, l)],
    4: lambda b, r, t, l: [(t, r)],
    6: lambda b, r, t, l: [(t, b)],
    7: lambda b, r, t, l: [(t, l)],
    8: lambda b, r, t, l: [(l, t)],
    9: lambda b, r, t, l: [(b, t)],
    11: lambda b, r, t, l: [(r, t)],
    12: lambda b, r, t, l: [(l, r)],
    13: lambda b, r, t, l: [(b, r)],
    14: lambda b, r, t, l: [(l, b)],
}


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
    pts = cloud.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9 * np.maximum(np.abs(hi), 1.0))
    span = np.maximum(span, 1e-9)
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
