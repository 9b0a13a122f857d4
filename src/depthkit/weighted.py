"""Weighted-mean trimmed regions and their depths.

A weight scheme assigns, for each sample size n and level alpha in (0, 1],
a nonnegative weight vector w_1 <= ... <= w_n summing to one.  The region at
level alpha is the convex set whose support function in direction p is the
w-weighted mean of the projections sorted ascending; equivalently it is the
convex hull of the weighted means over all orderings of the sample.  Regions
shrink as alpha grows whenever the prefix sums of the weights grow with
alpha, which all three built-in schemes satisfy.  In the plane only the
orderings along the n(n - 1) angular intervals between critical directions
count, and in the angular order their means are a counter-clockwise ring of
support points, off which :func:`wm_region_2d` reads the polygon.

Depth is sup{alpha : z in region(alpha)}, of one point (a float) or of
each row of an (m, d) array.  In d <= 2, :func:`wm_depth` reads membership
off the regions' support functions on a frame of critical directions and
bisects on alpha, for every scheme; the rows of a batch share the frame and
the supports, and so do point calls where the cloud keeps them.
:func:`zonoid_depth` solves zonoid depth as one linear program per row in
any dimension; the registry's zonoid depth is that program.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import core
from .cloud import DataCloud
from .core import check_level, clamp_depth, rows_times
from .errors import DimensionMismatchError, EnumerationTooLargeError, InvalidAlphaError
from .geometry import ConvexRegion, convex_ring_hull
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


#: sample sizes whose rank terms the weight rules keep; a bisection asks
#: for one n some 20 times over, and the benchmark's ops for a handful
_RANK_TERMS_KEPT = 8


@functools.lru_cache(maxsize=_RANK_TERMS_KEPT)
def _ech_star_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """log j - log n and log(j - 1) - log n for the ranks j = 1..n, read-only;
    the first of the second is -inf."""
    j = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        terms = np.log(j) - math.log(n), np.log(j - 1.0) - math.log(n)
    for t in terms:
        t.setflags(write=False)
    return terms


@functools.lru_cache(maxsize=_RANK_TERMS_KEPT)
def _geometric_terms(n: int) -> np.ndarray:
    """n - j for the ranks j = 1..n, read-only."""
    terms = n - np.arange(1, n + 1, dtype=float)
    terms.setflags(write=False)
    return terms


def _ech_star_rule(n: int, alpha: float) -> np.ndarray:
    # (j^(1/alpha) - (j-1)^(1/alpha)) / n^(1/alpha), computed in log space so
    # small alpha does not overflow; exp(-inf) gives the 0 of rank 1
    inv = 1.0 / alpha
    log_hi, log_lo = _ech_star_terms(n)
    return np.exp(inv * log_hi) - np.exp(inv * log_lo)


def _geometric_rule(n: int, alpha: float) -> np.ndarray:
    # alpha^(n-j) (1 - alpha) / (1 - alpha^n); the alpha -> 1 limit is uniform
    if alpha >= 1.0 - 1e-13:
        return np.full(n, 1.0 / n)
    return alpha ** _geometric_terms(n) * (1.0 - alpha) / (1.0 - alpha**n)


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


#: the widest planar cloud whose pair differences have a finite squared norm
_WIDEST = math.sqrt(float(np.finfo(float).max) / 2)


def _shortest_pair(cloud: DataCloud) -> float:
    """Pairs of points no farther apart than this, 1e-12 times the larger
    of 1 and the cloud's extent, give no direction.

    The pairs' norms square their differences, so a planar cloud wider
    than ``_WIDEST`` (about 9.5e153) is refused before they overflow.
    """
    if cloud.extent > _WIDEST:
        raise EnumerationTooLargeError(
            f"coordinates too large: the squared pair differences of the support "
            f"frame overflow at extent {cloud.extent:.3g}"
        )
    return 1e-12 * max(1.0, cloud.extent)


def _pair_differences(cloud: DataCloud) -> np.ndarray:
    """Differences of the pairs of points longer than :func:`_shortest_pair`."""
    shortest = _shortest_pair(cloud)
    pts = cloud.points
    iu, ju = np.triu_indices(cloud.n, k=1)
    diffs = pts[iu] - pts[ju]
    return diffs[np.linalg.norm(diffs, axis=1) > shortest]


#: critical directions per product and sort of the ordered samples
_ORDER_CHUNK = 4096


def _ordered_chunks(cloud: DataCloud, keep: bool = False):
    """The sample ordered by its projections on one direction inside each
    angular interval between consecutive critical directions (the normals
    of pairwise differences), in (k, n, 2) chunks of at most
    ``_ORDER_CHUNK`` directions; none when all points coincide.

    Each chunk is stored rank-major, as an (n, k, 2) array whose rank j is
    one contiguous (k, 2) run, and handed out as its (k, n, 2) transpose:
    a level weighs the sample rank by rank (:func:`wm_region_2d`).  With
    ``keep`` the chunks are consecutive segments of one buffer filled in
    place: chunks kept in arrays of their own fragment the heap, which
    raised the peak RSS of the regions benchmark workload by 1.2 MB (glibc
    malloc, numpy 2.4).
    """
    pts, n = cloud.points, cloud.n
    diffs = _pair_differences(cloud)
    if diffs.shape[0] == 0:
        return
    base = np.arctan2(diffs[:, 1], diffs[:, 0])
    crit = np.concatenate([base + 0.5 * np.pi, base - 0.5 * np.pi]) % (2.0 * np.pi)
    crit = np.unique(crit)
    gaps = np.diff(np.concatenate([crit, [crit[0] + 2.0 * np.pi]]))
    mids = (crit + gaps / 2.0) % (2.0 * np.pi)
    dirs = np.column_stack([np.cos(mids), np.sin(mids)])
    whole = np.empty(dirs.shape[0] * n * 2) if keep else None
    for start in range(0, dirs.shape[0], _ORDER_CHUNK):
        k = min(_ORDER_CHUNK, dirs.shape[0] - start)
        order = np.argsort(dirs[start:start + k] @ pts.T, axis=1, kind="stable")
        segment = (np.empty((n, k, 2)) if whole is None
                   else whole[start * n * 2:(start + k) * n * 2].reshape(n, k, 2))
        # the indices are in range; "clip" lets take write into the segment
        # unbuffered, with no chunk-sized copy of the gathered points
        np.take(pts, order.T, axis=0, mode="clip", out=segment)
        yield segment.transpose(1, 0, 2)


def _ordered_of(cloud: DataCloud):
    """The chunks of :func:`_ordered_chunks`, each a (k, n, 2) view of a
    rank-major segment.  They depend on the cloud alone, so every scheme
    and level shares them: the cloud keeps them, as consecutive segments
    of one buffer, when all 16 n k bytes fit ``core.BATCH_BYTES`` for every
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
    angular interval produces every extreme point.  In the angular order of
    the intervals the means support the region in turn, counter-clockwise,
    so :func:`geometry.convex_ring_hull` reads the polygon off that ring
    instead of tracing the hull of all of them.  The ordered samples depend
    on the cloud alone (see :func:`_ordered_of`); a level only weighs them,
    rank by rank over the contiguous run of each rank.
    """
    cloud.require_dim(2)
    w = weights(scheme, cloud.n, alpha)
    # the leading zero weights add nothing (the zonoid's, below rank
    # n - n alpha): each mean is summed over the ranks from the first
    # nonzero weight on, bitwise the sum over all ranks
    j0 = int(np.argmax(w != 0.0))
    means = []
    for ordered in _ordered_of(cloud):
        # rank by rank from zero, as np.einsum("j,kjd->kd", w, ordered)
        # accumulates, over each rank's contiguous run
        mean = np.zeros((ordered.shape[0], 2))
        term = np.empty_like(mean)
        for wj, run in zip(w[j0:].tolist(), ordered.transpose(1, 0, 2)[j0:]):
            np.multiply(run, wj, out=term)
            mean += term
        means.append(mean)
    if not means:
        return ConvexRegion.single(cloud.points[0])
    return ConvexRegion(2, convex_ring_hull(np.concatenate(means)))


def wm_region(cloud: DataCloud, scheme: WeightScheme, alpha: float) -> ConvexRegion:
    if cloud.d == 1:
        return wm_region_1d(cloud, scheme, alpha)
    if cloud.d == 2:
        return wm_region_2d(cloud, scheme, alpha)
    raise DimensionMismatchError("weighted-mean regions are available in d <= 2")


#: feasibility threshold for spread-normalized support margins
_WM_MARGIN_TOL = 1e-11
#: directions of a frame block whose projections are formed and sorted at once
_SORT_ROWS = 512
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
    # depend on the block they are formed in.  They are formed and sorted in
    # place _SORT_ROWS directions at a time, so that building the block
    # holds one (directions, n) array, not the products and a sorted copy
    dirs = np.asfortranarray(dirs)
    proj = np.empty((dirs.shape[0], cloud.n))
    for start in range(0, dirs.shape[0], _SORT_ROWS):
        part = proj[start:start + _SORT_ROWS]
        part[...] = rows_times(dirs[start:start + _SORT_ROWS], cloud.points)
        part.sort(axis=1)
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
    # a pair gives four directions of n sorted projections, 32 n bytes, and
    # a block keeps to half the budget
    size = max(1, core.BATCH_BYTES // (64 * n))
    shortest = _shortest_pair(cloud)
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
    if _frame_kept(cloud):
        return cloud.derived(("wm-frame",), _wm_support_frame)
    return _frame_blocks(cloud)


def _frame_kept(cloud: DataCloud, extra: int = 0) -> bool:
    """Whether the frame, with ``extra`` floats more per direction, fits
    ``core.BATCH_BYTES``."""
    n = cloud.n
    dirs = 2 if cloud.d == 1 else 2 * n * (n - 1)
    return 8 * dirs * (n + 4 + extra) <= core.BATCH_BYTES


def _levels_of(cloud: DataCloud, scheme: WeightScheme) -> "_Levels":
    """The supports that the queries of one scheme share.

    Where the frame and one scheme's levels fit ``core.BATCH_BYTES``
    together (up to n = 91 at the default), the cloud keeps the levels of
    the scheme it served last, so that point calls share them as a batch
    does; elsewhere each call makes its own.
    """
    if not _frame_kept(cloud, 2**_SHARED_STEPS):
        return _Levels(scheme, cloud.n)
    kept = cloud.derived(("wm-levels",), lambda c: {})
    if scheme not in kept:
        kept.clear()
        kept[scheme] = _Levels(scheme, cloud.n)
    return kept[scheme]


class _Levels:
    """What the queries of one cloud and scheme share: per frame block, the
    supports at the levels met so far.  Only level 1 and the midpoints of
    the first ``_SHARED_STEPS`` bisection steps are kept: at most
    2**_SHARED_STEPS floats per frame direction."""

    def __init__(self, scheme: WeightScheme, n: int):
        self.scheme, self.n = scheme, n
        self._supports: dict[tuple[int, float], np.ndarray] = {}

    def weights_at(self, alpha: float) -> np.ndarray:
        """The scheme's weights at ``alpha``, formed afresh on each call.

        Not kept: a batch's small weight vectors, once freed, sit in
        numpy's buffer cache and keep the heap from shrinking (4 MB more
        peak RSS over the benchmark's depth --all runs).  What does not
        depend on alpha is kept by the rule instead: the ECH* and
        geometric rules read their rank terms from a per-n cache
        (:func:`_ech_star_terms`, :func:`_geometric_terms`), so a step
        costs two exps or one power.
        """
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


def _query_depth(q: np.ndarray, cloud: DataCloud, blocks, levels: _Levels) -> float:
    """The least of one query's depths in the frame's blocks: each direction
    holds on an initial run of levels, so the bisection over all directions
    ends in the lowest of the blocks' brackets."""
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


def wm_depth(z, cloud: DataCloud, scheme: WeightScheme):
    """sup{alpha : z in region(alpha)}, in d <= 2, of one point (a float) or
    of each row of an (m, d) array, bitwise the depth of the row alone.

    Depth is the least over the support frame's directions u of
    alpha_u(z) = sup{alpha : h_u(alpha) >= u.z}, h_u the support function
    of the level-alpha region, which falls as alpha grows; it is bisected
    to ``_ALPHA_TOL``.  The value is exact 0 outside the convex hull of the
    data and exact 1 inside the level-1 region.  No polygon is built.  The
    rows share one frame, built once for the batch and held for its span
    when the cloud does not keep it (the whole frame: 66 MB at n = 160),
    and the supports of the levels their bisections meet.
    """
    qs, batch = cloud.queries(z)
    _require_planar(cloud)
    # a single query streams the frame rather than hold all of it
    blocks = tuple(_frame_of(cloud)) if qs.shape[0] > 1 else _frame_of(cloud)
    levels = _levels_of(cloud, scheme)
    depths = [_query_depth(q, cloud, blocks, levels) for q in qs]
    return np.array(depths, dtype=float) if batch else depths[0]


def wm_depth_many(zs, cloud: DataCloud, scheme: WeightScheme) -> np.ndarray:
    """:func:`wm_depth` of each row of ``zs``."""
    return wm_depth(cloud.rows(zs), cloud, scheme)


# ---------------------------------------------------------------------------
# zonoid depth by linear programming
# ---------------------------------------------------------------------------


def _zonoid_program(cloud: DataCloud):
    """(center, span, c, A, upper) of the zonoid program, kept on the cloud:
    the data centred and divided by their spans for conditioning (the depth
    is affine invariant), with the query's column of A left at 0."""
    pts = cloud.points
    n, d = pts.shape
    center = pts.mean(axis=0)
    span = np.maximum(np.ptp(pts, axis=0), 1.0)
    a = np.zeros((d + 1, n + 1))
    a[:d, :n] = ((pts - center) / span).T
    a[d, :n] = 1.0
    a[d, n] = -1.0
    a.setflags(write=False)
    return center, span, np.r_[np.zeros(n), 1.0], a, np.r_[np.full(n, 1.0 / n), 1.0]


def zonoid_depth(z, cloud: DataCloud):
    """Largest gamma representing gamma*z as a sub-uniform mixture of the
    data, of one point (a float) or of each row of an (m, d) array.

    Solves, one program per row,  max gamma  s.t.  sum_i mu_i x_i = gamma z,
    sum_i mu_i = gamma,  0 <= mu_i <= 1/n.  The optimum equals the zonoid
    depth; it is 0 exactly when z lies outside the convex hull and 1
    exactly at the mean.  Works in any dimension.
    """
    qs, batch = cloud.queries(z)
    center, span, c, program, upper = cloud.derived(("zonoid-program",), _zonoid_program)
    a, depths = program.copy(), []
    for qn in (qs - center) / span:
        a[:-1, -1] = -qn
        res = solve_lp(c, a, np.zeros(a.shape[0]), upper)
        if res.status != "optimal":  # pragma: no cover - the program is always feasible
            raise RuntimeError(f"zonoid LP ended with status {res.status}")
        depths.append(clamp_depth(res.value))
    return np.array(depths, dtype=float) if batch else depths[0]
