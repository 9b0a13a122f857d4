"""Depths built from distances: L2, Mahalanobis, projection, and simplex volume.

All of them arise as (1 + Out(z))^-1 for an outlyingness Out measured with a
plain or scatter-adjusted metric.  The scatter seam is
:class:`ScatterEstimator`; the moment estimator (mean and covariance with
divisor n) is the default and any affine-equivariant replacement plugs in.

Each depth is one function of one point (a float) or of (m, d) query rows
(m depths).  It checks the query once, by ``DataCloud.queries``.  L2 and
Oja depth evaluate the rows in cache-sized chunks (``core.in_chunks``);
the projection index is built in blocks under ``core.BATCH_BYTES``.  Oja
depth keeps a batch form, ``oja_depth_many``, which takes rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable

import numpy as np

from . import core
from .cloud import DataCloud
from .core import check_level, clamp_depths, enumeration_size, in_chunks, rows_times
from .errors import EnumerationTooLargeError, SingularScatterError, ZeroMadError
from .geometry import ConvexRegion, convex_ring_hull, half_turn_order
from .rng import check_budget


@dataclass(frozen=True)
class ScatterEstimator:
    """Named rule mapping a cloud to a center and an SPD scatter matrix."""

    name: str
    rule: Callable[[DataCloud], tuple[np.ndarray, np.ndarray]]

    def estimate(self, cloud: DataCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (center, scatter, cholesky factor); reject non-SPD scatter.

        The estimate depends on the cloud and the estimator alone, so the
        cloud keeps it, per estimator, as read-only arrays (see
        :meth:`DataCloud.derived`): every later query and region level of
        the cloud reads the same factor.  A refused scatter keeps nothing.
        """
        return cloud.derived(("scatter", self), self._factor)

    def _factor(self, cloud: DataCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        center, scatter = self.rule(cloud)
        center = np.asarray(center, dtype=float).reshape(-1)
        scatter = np.asarray(scatter, dtype=float)
        if center.shape[0] != cloud.d or scatter.shape != (cloud.d, cloud.d):
            raise ValueError(f"estimator {self.name!r} returned malformed output")
        try:
            chol = np.linalg.cholesky(scatter)
        except np.linalg.LinAlgError:
            raise SingularScatterError(
                f"scatter of estimator {self.name!r} is not positive definite"
            ) from None
        # an exactly singular matrix often factors with a residual pivot near
        # sqrt(eps) * scale, so the threshold must sit well above that noise
        if np.min(np.diag(chol)) <= 1e-7 * float(np.max(np.diag(chol))):
            raise SingularScatterError(
                f"scatter of estimator {self.name!r} is numerically singular"
            )
        # copies, so the kept arrays share no memory with what the rule holds
        kept = tuple(np.array(a) for a in (center, scatter, chol))
        for arr in kept:
            arr.setflags(write=False)
        return kept


def _moment_rule(cloud: DataCloud) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance with divisor n; a scatter that overflows is
    refused with ``TOO_LARGE``."""
    with np.errstate(over="ignore", invalid="ignore"):
        center = cloud.points.mean(axis=0)
        dev = cloud.points - center
        scatter = dev.T @ dev / cloud.n
    if not np.isfinite(scatter).all():
        raise EnumerationTooLargeError("coordinates too large: the moment scatter overflows")
    return center, scatter


#: Mean and covariance with divisor n.
MOMENT = ScatterEstimator("moment", _moment_rule)


# ---------------------------------------------------------------------------
# L2 depths
# ---------------------------------------------------------------------------


#: from this many coordinates numpy sums a row of squares pairwise, not in
#: coordinate order, so the distances keep its reduce there
_PAIRWISE_COORDS = 8


def _distances(q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(k, n) Euclidean distances from the rows of ``q`` to the points,
    bitwise ``np.linalg.norm(q[:, None] - pts, axis=2)``.

    Below ``_PAIRWISE_COORDS`` coordinates the reduce sums the squares in
    coordinate order, so one (k, n) array accumulates them coordinate by
    coordinate; from there on the (k, n, d) differences are formed and
    reduced as the norm does.
    """
    if pts.shape[1] >= _PAIRWISE_COORDS:
        return np.linalg.norm(q[:, None, :] - pts[None, :, :], axis=2)
    sq = np.zeros((q.shape[0], pts.shape[0]))
    for c in range(pts.shape[1]):
        off = q[:, c, None] - pts[:, c]
        off *= off
        sq += off
    return np.sqrt(sq, out=sq)


def _mean_distance_depths(qs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    def block(q):
        # the distances square the differences; where that overflows, they
        # are refused rather than read as infinite
        with np.errstate(over="ignore"):
            dist = _distances(q, pts).mean(axis=1)
        if not np.isfinite(dist).all():
            raise EnumerationTooLargeError(
                "coordinates too large: the squared differences of the L2 "
                "distances overflow"
            )
        return 1.0 / (1.0 + dist)

    # per (query, point): the squares, one coordinate's differences and the
    # distance; from _PAIRWISE_COORDS coordinates on, the d differences
    d = pts.shape[1]
    row_bytes = 24 * pts.shape[0] * (d if d >= _PAIRWISE_COORDS else 1)
    return clamp_depths(in_chunks(block, qs, row_bytes))


def l2_depth(z, cloud: DataCloud):
    """(1 + mean Euclidean distance to the sample)^-1 of one point (a
    float), or of each row of an (m, d) array.

    Invariant under rigid motions but deliberately not under general affine
    maps; see ``affine_invariant_l2_depth`` for the scatter-whitened form.
    """
    qs, batch = cloud.queries(z)
    depths = _mean_distance_depths(qs, cloud.points)
    return depths if batch else float(depths[0])


def affine_invariant_l2_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT):
    """L2 depth in the metric of the estimated scatter, of one point (a
    float), or of each row of an (m, d) array."""
    qs, batch = cloud.queries(z)
    _, _, chol = estimator.estimate(cloud)
    white = np.linalg.inv(chol)
    depths = _mean_distance_depths(rows_times(qs, white), rows_times(cloud.points, white))
    return depths if batch else float(depths[0])


# ---------------------------------------------------------------------------
# Mahalanobis depth
# ---------------------------------------------------------------------------


def mahalanobis_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT):
    """(1 + squared scatter distance to the center)^-1 of one point (a
    float), or of each row of an (m, d) array."""
    qs, batch = cloud.queries(z)
    center, _, chol = estimator.estimate(cloud)
    w = rows_times(qs - center, np.linalg.inv(chol))
    depths = clamp_depths(1.0 / (1.0 + np.sum(w * w, axis=1)))
    return depths if batch else float(depths[0])


#: vertices of the polygon that stands for a planar Mahalanobis ellipse
ELLIPSE_VERTICES = 128


def mahalanobis_region(cloud: DataCloud, alpha: float,
                       estimator: ScatterEstimator = MOMENT) -> ConvexRegion:
    """Level set {z : depth >= alpha}: an ellipse polygonized at ``ELLIPSE_VERTICES``.

    The boundary is ||z - c||^2 = 1/alpha - 1 in the scatter metric, so the
    polygon is the cholesky image of a regular circle scaled by the radius.
    The factor has a positive diagonal, so the image turns counter-clockwise
    as the circle does, and its hull is read off it unless a turn is within
    the hull's tolerance (:func:`geometry.convex_ring_hull`).  In d=1 the
    region is the exact interval.
    """
    alpha = check_level(alpha)
    center, _, chol = estimator.estimate(cloud)
    radius = math.sqrt(max(1.0 / alpha - 1.0, 0.0))
    if cloud.d == 1:
        half = radius * float(chol[0, 0])
        return ConvexRegion.interval(float(center[0]) - half, float(center[0]) + half)
    if cloud.d != 2:
        raise ValueError("regions are available in d <= 2")
    if radius == 0.0:
        return ConvexRegion.single(center)
    theta = np.linspace(0.0, 2.0 * np.pi, ELLIPSE_VERTICES, endpoint=False)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    return ConvexRegion(2, convex_ring_hull(center + radius * (circle @ chol.T)))


# ---------------------------------------------------------------------------
# projection depth
# ---------------------------------------------------------------------------


#: most entries of the (queries, directions) buffer that outlyingness takes at
#: once, whatever the budget: bigger chunks run slower, as the buffer leaves
#: the cache and is paged in afresh
_OUT_BLOCK_ENTRIES = 2**15
#: entries a full scan reads (about 2 ns each) in the time the block filter
#: spends on one block visit (mostly numpy call overhead), as outlyingness
#: counts the visits; measured against full scans on planar Gaussian clouds
#: of 10 to 250 points and batches of 2 to 256 queries or the data points
_VISIT_ENTRIES = 3500
#: relative slack of the block bounds, far above the rounding of the kernel
#: and of the bound itself (a few units of 2**-53)
_BOUND_SLACK = 1e-9


def _sorted_middle(s: np.ndarray) -> np.ndarray:
    """The median of each row of the row-sorted ``s``, as ``np.median`` takes
    it after its partition: the middle entry, or the mean of the two middle
    ones, summed and halved as ``np.mean`` does."""
    k = s.shape[1] // 2
    return s[:, k] if s.shape[1] % 2 else (s[:, k - 1] + s[:, k]) / 2


def _sorted_mad(s: np.ndarray, med: np.ndarray) -> np.ndarray:
    """``_sorted_middle`` of the sorted |s - med| of each row of the
    row-sorted ``s``, bitwise, found by bisection without forming them.

    Along a sorted row the deviations fall and then rise, so the j smallest
    fill a window of j entries, and the window's largest is at one of its
    ends: the larger of med - s[lo] and s[lo + j - 1] - med, each rounded
    as |s - med| is.  With w = n - n // 2, the first lo whose (w + 1)-window
    has its right end at least its left end starts the w smallest, so the
    w-th smallest (the median of an odd row, the lower middle of an even
    one) is the larger end of the w-window there, and the next is the least
    of the (w + 1)-windows from lo - 1 and lo.  Each row takes about
    log2(n) + 1 steps of two gathers.
    """
    r, n = s.shape
    k = n // 2
    w = n - k
    flat = s.ravel()
    row = np.arange(0, r * n, n)
    at = row.copy()  # the flat index of each row's lo, found among 0..k
    if k:
        # the first step settles lo >= k + 1 - p or lo < p, and steps of
        # p / 2, ..., 1 then fix it: floor(log2 k) + 1 steps, all in bounds;
        # each tests the (w + 1)-window from lo + step - 1
        p = 1 << (k.bit_length() - 1)
        step, shift = p, k + 1 - p
        while step:
            left = flat[step - 1:]
            np.add(at, shift, out=at, where=left[w:][at] - med < med - left[at])
            step //= 2
            shift = step
    # abs makes a zero +0.0, as |s - med| is
    low = np.abs(np.maximum(med - flat[at], flat[w - 1:][at] - med))
    if n % 2:
        return low
    # the (w + 1)-windows from lo - 1 and lo, held inside the row
    ends = flat[w:]
    before = np.maximum(at - 1, row)
    after = np.minimum(at, row + (k - 1))
    high = np.abs(np.minimum(np.maximum(med - flat[before], ends[before] - med),
                             np.maximum(med - flat[after], ends[after] - med)))
    return (low + high) / 2


def _whitened_directions(cloud: DataCloud, scatter: np.ndarray, budget: int,
                         seed: int) -> np.ndarray:
    """The index's unit directions in build order: the scatter-whitened pair
    differences longer than 1e-12 times the extent, then ``budget`` whitened
    zero-sum combinations, each kept when longer than 1e-12 times the
    longest.  The pair tables end with this call, before the projections
    are formed."""
    pts = cloud.points
    n, d = pts.shape
    if d == 1:
        return np.ones((1, 1))
    iu, ju = np.triu_indices(n, k=1)
    diffs = pts[iu] - pts[ju]
    keep = np.linalg.norm(diffs, axis=1) > 1e-12 * cloud.extent
    # the coefficients come from one stream, row after row, in blocks
    # under core.BATCH_BYTES; each row's product is the one-row g @ pts
    rng = np.random.default_rng(seed)
    combos = np.empty((budget, d))
    rows = max(1, core.BATCH_BYTES // (8 * n))
    for start in range(0, budget, rows):
        g = rng.standard_normal((min(rows, budget - start), n))
        g -= g.mean(axis=1, keepdims=True)
        combos[start:start + g.shape[0]] = np.matmul(g[:, None, :], pts)[:, 0, :]
    raw = np.vstack([diffs[keep], combos])
    white = np.linalg.solve(scatter, raw.T).T
    norms = np.linalg.norm(white, axis=1)
    good = norms > 1e-12 * norms.max()
    return white[good] / norms[good, None]


class ProjectionIndex:
    """Precomputed direction set plus per-direction location and spread.

    Directions are the scatter-whitened pairwise differences of the cloud
    augmented with ``budget`` seeded whitened random combinations with
    zero-sum coefficients.  Both families transform consistently under
    invertible linear maps and translations, making the approximate depth
    exactly affine invariant (up to float noise) for a fixed seed.  In d=1
    the single direction +1 makes the depth exact.  An index depends only on
    the cloud, the budget and the seed, so each cloud builds it once (see
    :meth:`DataCloud.derived`).

    The index keeps m <= C(n, 2) + budget directions with a median and a MAD
    each, 8 m (d + 2) bytes (2.6 MB at n = 400 with the default budget), as
    read-only arrays, since the cloud shares them with every later query.
    The build sorts the (m, n) projections once, in row chunks under
    ``core.BATCH_BYTES``, O(m n log n), and reads each median from the
    middle of its sorted row and each MAD by bisecting it (``_sorted_mad``,
    O(log n) per row), bitwise the middle of the sorted |deviations|.

    In the plane the directions are then ordered by angle, folded to a
    half-turn (u and -u give the same outlyingness), and cut into blocks of
    ceil(sqrt(m)) directions, each with a bound on the outlyingness of any
    query in any of its directions (:meth:`outlyingness`).  A query reads
    only the blocks that can hold its maximum, and its value is bitwise the
    scan of all m directions.  On a 256 x 256 grid over the eu27 data's
    padded box that is 17 % of the (query, direction) entries, for the
    points of a 400-point Gaussian cloud 1.8 %, and on a 64 x 64 grid
    over such clouds 11.8 % at n = 27 and 0.67 % at n = 1600 (recorded in
    ``BENCH_18.json``).  In d = 1 and d >= 3 the index is one block.
    """

    def __init__(self, cloud: DataCloud, budget: int, seed: int):
        check_budget(budget)
        pts = cloud.points
        n, d = pts.shape
        _, scatter = _moment_rule(cloud)
        try:
            np.linalg.cholesky(scatter)
        except np.linalg.LinAlgError:
            raise ZeroMadError(
                "cloud spans a lower-dimensional flat: projections on its normal "
                "have zero median absolute deviation"
            ) from None
        dirs = _whitened_directions(cloud, scatter, budget, seed)
        if not dirs.shape[0]:
            raise ZeroMadError("no projection direction of the sample survives whitening")
        # the (directions, n) projections grow as n^3, so they are formed in
        # row chunks under core.BATCH_BYTES and sorted in place: the median
        # is the middle of a sorted row, the MAD found by bisecting it
        # (_sorted_mad), and the largest |projection| one of the row's ends
        med = np.empty(dirs.shape[0])
        mad = np.empty(dirs.shape[0])
        top = 0.0  # largest |projection|, the scale of the zero-MAD guard
        rows = max(1, core.BATCH_BYTES // (32 * n))
        for start in range(0, dirs.shape[0], rows):
            s = dirs[start:start + rows] @ pts.T
            s.sort(axis=1)
            top = max(top, float(np.max(np.abs(s[:, [0, -1]]))))
            med[start:start + rows] = _sorted_middle(s)
            mad[start:start + rows] = _sorted_mad(s, med[start:start + rows])
        if np.any(mad <= 1e-12 * top):
            raise ZeroMadError(
                "a projection of the sample has zero median absolute deviation"
            )
        m = dirs.shape[0]
        self.size = m if d != 2 else math.isqrt(m - 1) + 1
        if self.size < m:
            # reordered only now, so every median and MAD comes from the
            # same BLAS row blocks as in build order; -v_x runs from -1 to 1
            # as v = +-u turns from angle 0 to pi
            order = np.argsort(np.where(dirs[:, 1] < 0.0, dirs[:, 0], -dirs[:, 0]))
            dirs = dirs[order]
            med = med[order]
            mad = mad[order]
            self._blocks(pts, dirs, med, mad)
        for arr in (dirs, med, mad):
            arr.setflags(write=False)
        self.dirs = dirs
        self.med = med
        self.mad = mad

    def _blocks(self, pts, dirs, med, mad):
        """What the bounds of :meth:`_bounds` read, per block of ``size``
        directions: with v = sign * u folded to the upper half-turn, the
        mean v_B, the radius rho_B = max ||v - v_B||_1, the range [low,
        high] of sign * (med - <u, c>) and the least MAD.  c is the centre
        of the data's bounding box, x_max its largest |coordinate|."""
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        self.centre = (lo + hi) / 2
        self.x_max = float(max(np.abs(lo).max(), np.abs(hi).max()))
        starts = np.arange(0, dirs.shape[0], self.size)
        counts = np.diff(np.r_[starts, dirs.shape[0]])
        sign = np.where(dirs[:, 1] < 0.0, -1.0, 1.0)
        folded = dirs * sign[:, None]
        shifted = sign * (med - rows_times(self.centre[None], dirs)[0])
        self.mean = np.add.reduceat(folded, starts, axis=0) / counts[:, None]
        folded -= np.repeat(self.mean, counts, axis=0)
        np.abs(folded, out=folded)
        self.radius = np.maximum.reduceat(folded.sum(axis=1), starts)
        self.low = np.minimum.reduceat(shifted, starts)
        self.high = np.maximum.reduceat(shifted, starts)
        self.scale = (1.0 + _BOUND_SLACK) / np.minimum.reduceat(mad, starts)
        for arr in (self.centre, self.mean, self.radius, self.low, self.high, self.scale):
            arr.setflags(write=False)

    def _bounds(self, zs: np.ndarray) -> np.ndarray:
        """(blocks, queries): an upper bound on the outlyingness of each
        query in every direction of each block, or NaN or inf.

        For u in block B, |<u, z> - med| = |<v_B, z - c> - s + <v - v_B, z -
        c>| with s = sign * (med - <u, c>), at most max(a - low, high - a)
        + rho_B ||z - c||_inf, a = <v_B, z - c>.  The kernel's rounding, and
        the bound's, is a few units of 2**-53 of ||u||_1 (||z||_inf +
        x_max), where ||u||_1 <= sqrt(2), and of the bound: an absolute
        slack of 2 (||z||_inf + x_max) and a relative one, both
        ``_BOUND_SLACK``, cover them.  No square is taken, so the bound
        stays finite wherever the kernel does.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            off = zs - self.centre
            a = rows_times(self.mean, off)
            bound = a - self.low[:, None]
            np.subtract(self.high[:, None], a, out=a)
            np.maximum(bound, a, out=bound)
            np.multiply(self.radius[:, None], np.abs(off).max(axis=1), out=a)
            bound += a
            bound += (2.0 * _BOUND_SLACK) * (np.abs(zs).max(axis=1) + self.x_max)
            bound *= self.scale[:, None]
        return bound

    def _scan(self, zs: np.ndarray, block: int, count: int) -> np.ndarray:
        """max of |<u, z> - med| / mad over ``count`` blocks from ``block``,
        for each row of zs: each entry summed in a fixed order
        (``core.rows_times``), so it is the same in any slice."""
        cols = slice(block * self.size, (block + count) * self.size)
        buf = rows_times(zs, self.dirs[cols])
        buf -= self.med[cols]
        np.abs(buf, out=buf)
        buf /= self.mad[cols]
        return buf.max(axis=1)

    def outlyingness(self, zs: np.ndarray) -> np.ndarray:
        """max over directions of |<p, z> - med| / mad, for each row of zs.

        Queries go in chunks of ``_OUT_BLOCK_ENTRIES`` // size rows (at
        least one).  A chunk whose queries take at most that many entries
        with all m directions, or any chunk of a one-block index, scans
        every direction.  Otherwise each query first scans the block of its
        largest bound, and then, block by block, only the blocks whose bound
        is not below its running maximum.  A block left out holds no entry
        as large as that maximum, and every entry is summed alike in any
        slice (:meth:`_scan`), so the value is bitwise the scan of all m
        directions.

        Where the m directions fit one buffer, a chunk also scans every
        direction, a buffer at a time, when its entries cost no more than
        the block visits the filter may make (``_VISIT_ENTRIES`` each).  A
        query's outlyingness in the middle direction of its first block is
        at most its running maximum, so the blocks first scanned and the
        blocks whose bound reaches that value hold every visit.
        """
        entries = min(core.BATCH_BYTES // 8, _OUT_BLOCK_ENTRIES)
        m = self.dirs.shape[0]
        blocks = -(-m // self.size)
        rows = max(1, entries // self.size)
        out = np.empty(zs.shape[0])
        for start in range(0, zs.shape[0], rows):
            z = zs[start:start + rows]
            part = out[start:start + rows]
            if blocks == 1 or z.shape[0] * m <= entries:
                part[:] = self._scan(z, 0, blocks)
                continue
            bound = self._bounds(z)
            best = bound.argmax(axis=0)
            firsts = np.flatnonzero(np.bincount(best, minlength=blocks))
            # each query's first block is scanned first; a NaN or inf bound
            # is kept, and the blocks no query keeps are not visited
            bound[best, np.arange(z.shape[0])] = -np.inf
            # the count below is at most the first blocks plus every block,
            # so a chunk past that many visits' entries keeps the filter
            if m <= entries and z.shape[0] * m <= _VISIT_ENTRIES * (firsts.size + blocks):
                col = np.minimum(best * self.size + self.size // 2, m - 1)
                low = np.abs((z * self.dirs[col]).sum(axis=1) - self.med[col]) / self.mad[col]
                visits = firsts.size + np.count_nonzero((~(bound < low)).any(axis=1))
                if z.shape[0] * m <= _VISIT_ENTRIES * visits:
                    step = entries // m
                    for sub in range(0, z.shape[0], step):
                        part[sub:sub + step] = self._scan(z[sub:sub + step], 0, blocks)
                    continue
            for block in firsts:
                sel = np.flatnonzero(best == block)
                part[sel] = self._scan(z[sel], block, 1)
            for block in np.flatnonzero((~(bound < part)).any(axis=1)):
                sel = np.flatnonzero(~(bound[block] < part))
                if sel.size:
                    part[sel] = np.maximum(part[sel], self._scan(z[sel], block, 1))
        return out


def projection_depth(z, cloud: DataCloud, direction_budget: int = 1000, seed: int = 0):
    """(1 + sup over directions of |<p,z> - med| / medMAD)^-1 of one point
    (a float), or of each row of an (m, d) array.

    d=1 is exact.  For d >= 2 the supremum is approximated from above by a
    finite direction set, so the returned value is an upper bound on the true
    depth and weakly decreases as ``direction_budget`` grows with the same
    seed.
    """
    qs, batch = cloud.queries(z)
    index = cloud.derived(("projection", direction_budget, seed),
                          lambda c: ProjectionIndex(c, direction_budget, seed))
    depths = clamp_depths(1.0 / (1.0 + index.outlyingness(qs)))
    return depths if batch else float(depths[0])


# ---------------------------------------------------------------------------
# simplex-volume (Oja) depth
# ---------------------------------------------------------------------------


#: clouds of at least this many points sum the planar Oja volumes from one
#: angular order per query; smaller ones sum the C(n, 2) pair determinants,
#: which cost less there (measured by tools/scaling.py tukey_oja)
_OJA_ANGULAR_MIN_N = 24
#: working set per (query, data point) entry of :func:`_oja_angular_sums`
_OJA_ENTRY_BYTES = 160


def _oja_pair_sums(qs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum over i < j of |det(x_i - z, x_j - z)| for each planar query z,
    pair by pair."""
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    xi, xj = pts[iu], pts[ju]

    def block(q):
        # det(x_i - z, x_j - z), in the difference form
        dets = ((xi[:, 0] - q[:, 0:1]) * (xj[:, 1] - q[:, 1:2])
                - (xi[:, 1] - q[:, 1:2]) * (xj[:, 0] - q[:, 0:1]))
        return np.abs(dets).sum(axis=1)

    return in_chunks(block, qs, 48 * iu.size)


def _oja_angular_sums(qs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The sums of :func:`_oja_pair_sums` from one angular order per query.

    With a_i = x_i - z, sum_{i<j} |det(a_i, a_j)| = sum_i det(a_i, S_i),
    where S_i sums the a_j strictly counter-clockwise of a_i within a
    half-turn: each pair counts once, at the clockwise one of the two.
    After the folded sort (:func:`half_turn_order`), S_i is what follows
    a_i on its own half-turn plus what precedes it on the other, so one
    cumulative sum of the offsets, negated on the lower half-turn, gives
    every S_i.  |det| is continuous, so a pair whose order rounding may
    swap changes the sum only at rounding level; an a_i of 0 adds 0.
    Queries go in chunks under ``core.CHUNK_BYTES``.
    """

    def block(q):
        x = pts[:, 0] - q[:, 0:1]
        y = pts[:, 1] - q[:, 1:2]
        order, _, lower = half_turn_order(x, y)
        a = [x.take(order), y.take(order)]
        s = []
        for c in a:
            up = np.where(lower, 0.0, c)
            down = c - up
            # run_i: the upper offsets minus the lower ones, up to and
            # including a_i; S_i is the upper total minus run_i for an
            # upper a_i, the lower total plus run_i for a lower one
            run = np.cumsum(up - down, axis=1)
            s.append(np.where(lower, down.sum(axis=1)[:, None] + run,
                              up.sum(axis=1)[:, None] - run))
        return (a[0] * s[1] - a[1] * s[0]).sum(axis=1)

    return in_chunks(block, qs, _OJA_ENTRY_BYTES * pts.shape[0])


def _oja_expected_volumes(qs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Mean volume of the simplex spanned by each query and d points drawn i.i.d.

    Tuples with a repeated index span a degenerate simplex of volume zero, so
    the expectation over the n^d ordered tuples reduces to a sum over the
    d-element subsets: each contributes |det(x_i - z)| / n^d.  In the plane
    the sum over pairs is read from one angular order per query once n
    reaches ``_OJA_ANGULAR_MIN_N`` (O(n log n) per query instead of O(n^2)),
    and agrees with the pair sum to rounding; beyond the plane the subsets
    are enumerated.
    """
    n, d = pts.shape
    if d == 1:
        return in_chunks(lambda q: np.mean(np.abs(pts[:, 0] - q), axis=1), qs, 24 * n)
    if d == 2:
        sums = _oja_angular_sums if n >= _OJA_ANGULAR_MIN_N else _oja_pair_sums
        return sums(qs, pts) / n**2
    # subsets in blocks of a fixed size, so each row sums them the same way
    # whatever the batch
    size = max(1, core.BATCH_BYTES // (16 * d * d))
    subsets = combinations(range(n), d)
    total = np.zeros(qs.shape[0])
    while (idx := np.array(list(islice(subsets, size)))).size:
        simplices = pts[idx]
        total += in_chunks(
            lambda q: np.abs(np.linalg.det(simplices - q[:, None, None, :])).sum(axis=1),
            qs, 16 * simplices.size)
    return total / n**d


def oja_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT):
    """(1 + E[simplex volume] / sqrt(det scatter))^-1 of one point (a
    float), or of each row of an (m, d) array.

    The expected volume is a sum over the d-point subsets of the data
    (:func:`_oja_expected_volumes`): exact in d = 1, in the plane summed by
    pairs or, from n = ``_OJA_ANGULAR_MIN_N``, from one angular order per
    query, which agrees with the pair sum to rounding, and for d >= 3
    enumerated under the simplex enumeration cap.
    """
    qs, batch = cloud.queries(z)
    if cloud.n < cloud.d:
        raise ValueError(f"need at least d={cloud.d} points, got n={cloud.n}")
    _, _, chol = estimator.estimate(cloud)
    if cloud.d >= 3:
        enumeration_size(cloud.n, cloud.d)
    root_det = float(np.prod(np.diag(chol)))
    depths = clamp_depths(1.0 / (1.0 + _oja_expected_volumes(qs, cloud.points) / root_det))
    return depths if batch else float(depths[0])


def oja_depth_many(zs, cloud: DataCloud, estimator: ScatterEstimator = MOMENT) -> np.ndarray:
    """:func:`oja_depth` of each row of ``zs``."""
    return oja_depth(cloud.rows(zs), cloud, estimator)
