"""Depths built from distances: L2, Mahalanobis, projection, and simplex volume.

All of them arise as (1 + Out(z))^-1 for an outlyingness Out measured with a
plain or scatter-adjusted metric.  The scatter seam is
:class:`ScatterEstimator`; the moment estimator (mean and covariance with
divisor n) is the default and any affine-equivariant replacement plugs in.

Each depth has one kernel, ``<depth>_many``, which validates a batch of
query rows and evaluates it in chunks under ``core.BATCH_BYTES``; the
depth's function runs it on one point (a float) or on (m, d) rows alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable

import numpy as np

from . import core
from .cloud import DataCloud
from .core import check_level, clamp_depths, enumeration_size, in_chunks, point_or_rows, rows_times
from .errors import SingularScatterError, ZeroMadError
from .geometry import ConvexRegion, half_turn_order
from .rng import check_budget


@dataclass(frozen=True)
class ScatterEstimator:
    """Named rule mapping a cloud to a center and an SPD scatter matrix."""

    name: str
    rule: Callable[[DataCloud], tuple[np.ndarray, np.ndarray]]

    def estimate(self, cloud: DataCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (center, scatter, cholesky factor); reject non-SPD scatter."""
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
        return center, scatter, chol


def _moment_rule(cloud: DataCloud) -> tuple[np.ndarray, np.ndarray]:
    center = cloud.points.mean(axis=0)
    dev = cloud.points - center
    return center, dev.T @ dev / cloud.n


#: Mean and covariance with divisor n.
MOMENT = ScatterEstimator("moment", _moment_rule)


# ---------------------------------------------------------------------------
# L2 depths
# ---------------------------------------------------------------------------


def _mean_distance_depths(qs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    def block(q):
        dist = np.linalg.norm(q[:, None, :] - pts[None, :, :], axis=2)
        return 1.0 / (1.0 + dist.mean(axis=1))

    return clamp_depths(in_chunks(block, qs, 24 * pts.size))


def l2_depth_many(zs, cloud: DataCloud) -> np.ndarray:
    """(1 + mean Euclidean distance to the sample)^-1 for each row of ``zs``.

    Invariant under rigid motions but deliberately not under general affine
    maps; see ``affine_invariant_l2_depth`` for the scatter-whitened form.
    """
    return _mean_distance_depths(cloud.points_of(zs), cloud.points)


def l2_depth(z, cloud: DataCloud):
    """L2 depth of one point (a float), or of each row of an (m, d) array."""
    return point_or_rows(l2_depth_many, z, cloud)


def affine_invariant_l2_depth_many(zs, cloud: DataCloud,
                                   estimator: ScatterEstimator = MOMENT) -> np.ndarray:
    """L2 depth in the metric of the estimated scatter, for each row of ``zs``."""
    qs = cloud.points_of(zs)
    _, _, chol = estimator.estimate(cloud)
    white = np.linalg.inv(chol)
    return _mean_distance_depths(rows_times(qs, white), rows_times(cloud.points, white))


def affine_invariant_l2_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT):
    """Affine-invariant L2 depth of one point (a float), or of each row."""
    return point_or_rows(affine_invariant_l2_depth_many, z, cloud, estimator)


# ---------------------------------------------------------------------------
# Mahalanobis depth
# ---------------------------------------------------------------------------


def mahalanobis_depth_many(zs, cloud: DataCloud,
                           estimator: ScatterEstimator = MOMENT) -> np.ndarray:
    """(1 + squared scatter distance to the center)^-1 for each row of ``zs``."""
    qs = cloud.points_of(zs)
    center, _, chol = estimator.estimate(cloud)
    w = rows_times(qs - center, np.linalg.inv(chol))
    return clamp_depths(1.0 / (1.0 + np.sum(w * w, axis=1)))


def mahalanobis_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT):
    """Mahalanobis depth of one point (a float), or of each row of an array."""
    return point_or_rows(mahalanobis_depth_many, z, cloud, estimator)


#: vertices of the polygon that stands for a planar Mahalanobis ellipse
ELLIPSE_VERTICES = 128


def mahalanobis_region(cloud: DataCloud, alpha: float,
                       estimator: ScatterEstimator = MOMENT) -> ConvexRegion:
    """Level set {z : depth >= alpha}: an ellipse polygonized at ``ELLIPSE_VERTICES``.

    The boundary is ||z - c||^2 = 1/alpha - 1 in the scatter metric, so the
    polygon is the cholesky image of a regular circle scaled by the radius.
    In d=1 the region is the exact interval.
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
    return ConvexRegion.from_points(center + radius * (circle @ chol.T))


# ---------------------------------------------------------------------------
# projection depth
# ---------------------------------------------------------------------------


#: most entries of the (queries, directions) buffer that outlyingness takes at
#: once, whatever the budget: bigger chunks run slower, as the buffer leaves
#: the cache and is paged in afresh
_OUT_BLOCK_ENTRIES = 2**15


def _sorted_middle(s: np.ndarray) -> np.ndarray:
    """The median of each row of the row-sorted ``s``, as ``np.median`` takes
    it after its partition: the middle entry, or the mean of the two middle
    ones."""
    k = s.shape[1] // 2
    return s[:, k] if s.shape[1] % 2 else np.mean(s[:, k - 1:k + 1], axis=1)


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
    The build sorts the (m, n) projections in row chunks under
    ``core.BATCH_BYTES``, O(m n log n); a query costs O(m).
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
        if d == 1:
            dirs = np.ones((1, 1))
        else:
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
            dirs = white[good] / norms[good, None]
        if not dirs.shape[0]:
            raise ZeroMadError("no projection direction of the sample survives whitening")
        # the (directions, n) projections grow as n^3, so they are formed in
        # row chunks under core.BATCH_BYTES and sorted in place: the median
        # is the middle of a sorted row, the MAD the middle of its absolute
        # deviations sorted in turn, and the largest |projection| one of the
        # row's ends
        med = np.empty(dirs.shape[0])
        mad = np.empty(dirs.shape[0])
        top = 0.0  # largest |projection|, the scale of the zero-MAD guard
        rows = max(1, core.BATCH_BYTES // (32 * n))
        for start in range(0, dirs.shape[0], rows):
            s = dirs[start:start + rows] @ pts.T
            s.sort(axis=1)
            top = max(top, float(np.max(np.abs(s[:, [0, -1]]))))
            med[start:start + rows] = _sorted_middle(s)
            s -= med[start:start + rows, None]
            np.abs(s, out=s)
            s.sort(axis=1)
            mad[start:start + rows] = _sorted_middle(s)
        if np.any(mad <= 1e-12 * top):
            raise ZeroMadError(
                "a projection of the sample has zero median absolute deviation"
            )
        for arr in (dirs, med, mad):
            arr.setflags(write=False)
        self.dirs = dirs
        self.med = med
        self.mad = mad

    def outlyingness(self, zs: np.ndarray) -> np.ndarray:
        """max over directions of |<p, z> - med| / mad, for each row of zs.

        Queries and directions go in blocks, one (rows, directions) buffer
        of at most ``_OUT_BLOCK_ENTRIES`` entries at a time (and at least
        one query), with a running maximum over the direction blocks: each
        entry is summed in a fixed order (``core.rows_times``) and the
        maximum is exact, so the blocks do not change the result.
        """
        entries = min(core.BATCH_BYTES // 8, _OUT_BLOCK_ENTRIES)
        # the fewest direction blocks that fit, all of about one size: a
        # small last block leaves the allocator with odd-sized holes
        count = self.dirs.shape[0]
        blocks = -(-count // entries)
        cols = -(-count // blocks)
        rows = max(1, entries // cols)
        out = np.empty(zs.shape[0])
        for start in range(0, zs.shape[0], rows):
            part = out[start:start + rows]
            part.fill(-np.inf)
            for first in range(0, self.dirs.shape[0], cols):
                block = slice(first, first + cols)
                buf = rows_times(zs[start:start + rows], self.dirs[block])
                buf -= self.med[block]
                np.abs(buf, out=buf)
                buf /= self.mad[block]
                np.maximum(part, buf.max(axis=1), out=part)
        return out


def projection_depth_many(zs, cloud: DataCloud,
                          direction_budget: int = 1000, seed: int = 0) -> np.ndarray:
    """(1 + sup over directions of |<p,z> - med| / medMAD)^-1 for each row.

    d=1 is exact.  For d >= 2 the supremum is approximated from above by a
    finite direction set, so the returned value is an upper bound on the true
    depth and weakly decreases as ``direction_budget`` grows with the same
    seed.
    """
    qs = cloud.points_of(zs)
    index = cloud.derived(("projection", direction_budget, seed),
                          lambda c: ProjectionIndex(c, direction_budget, seed))
    return clamp_depths(1.0 / (1.0 + index.outlyingness(qs)))


def projection_depth(z, cloud: DataCloud, direction_budget: int = 1000, seed: int = 0):
    """Projection depth of one point (a float), or of each row of an array."""
    return point_or_rows(projection_depth_many, z, cloud, direction_budget, seed)


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
    Queries go in chunks under ``core.BATCH_BYTES``.
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


def oja_depth_many(zs, cloud: DataCloud, estimator: ScatterEstimator = MOMENT) -> np.ndarray:
    """(1 + E[simplex volume] / sqrt(det scatter))^-1 for each row.

    The expected volume is a sum over the d-point subsets of the data
    (:func:`_oja_expected_volumes`): exact in d = 1, in the plane summed by
    pairs or, from n = ``_OJA_ANGULAR_MIN_N``, from one angular order per
    query, which agrees with the pair sum to rounding, and for d >= 3
    enumerated under the simplex enumeration cap.
    """
    qs = cloud.points_of(zs)
    if cloud.n < cloud.d:
        raise ValueError(f"need at least d={cloud.d} points, got n={cloud.n}")
    _, _, chol = estimator.estimate(cloud)
    if cloud.d >= 3:
        enumeration_size(cloud.n, cloud.d)
    root_det = float(np.prod(np.diag(chol)))
    return clamp_depths(1.0 / (1.0 + _oja_expected_volumes(qs, cloud.points) / root_det))


def oja_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT):
    """Oja depth of one point (a float), or of each row of an (m, d) array."""
    return point_or_rows(oja_depth_many, z, cloud, estimator)
