"""Depths built from distances: L2, Mahalanobis, projection, and simplex volume.

All of them arise as (1 + Out(z))^-1 for an outlyingness Out measured with a
plain or scatter-adjusted metric.  The scatter seam is
:class:`ScatterEstimator`; the moment estimator (mean and covariance with
divisor n) is the default and any affine-equivariant replacement plugs in.

Each depth has one kernel, ``<depth>_many``, which validates a batch of
queries and evaluates it in chunks under ``core.BATCH_BYTES``; the scalar
form runs that kernel on a batch of one.
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
from .errors import SingularScatterError, ZeroMadError
from .geometry import ConvexRegion


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


def l2_depth(z, cloud: DataCloud) -> float:
    """L2 depth of one point: :func:`l2_depth_many` on a batch of one."""
    return float(l2_depth_many(cloud.point_of(z)[None], cloud)[0])


def affine_invariant_l2_depth_many(zs, cloud: DataCloud,
                                   estimator: ScatterEstimator = MOMENT) -> np.ndarray:
    """L2 depth in the metric of the estimated scatter, for each row of ``zs``."""
    qs = cloud.points_of(zs)
    _, _, chol = estimator.estimate(cloud)
    white = np.linalg.inv(chol)
    return _mean_distance_depths(rows_times(qs, white), rows_times(cloud.points, white))


def affine_invariant_l2_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT) -> float:
    """Affine-invariant L2 depth of one point, as a batch of one."""
    return float(affine_invariant_l2_depth_many(cloud.point_of(z)[None], cloud, estimator)[0])


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


def mahalanobis_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT) -> float:
    """Mahalanobis depth of one point, as a batch of one."""
    return float(mahalanobis_depth_many(cloud.point_of(z)[None], cloud, estimator)[0])


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
    """

    def __init__(self, cloud: DataCloud, budget: int, seed: int):
        if budget < 1:
            raise ValueError("direction budget must be at least 1")
        pts = cloud.points
        n, d = pts.shape
        dev = pts - pts.mean(axis=0)
        scatter = dev.T @ dev / n
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
            keep = np.linalg.norm(diffs, axis=1) > 1e-12
            rng = np.random.default_rng(seed)
            combos = np.empty((budget, d))
            for k in range(budget):
                g = rng.standard_normal(n)
                g -= g.mean()
                combos[k] = g @ pts
            raw = np.vstack([diffs[keep], combos])
            white = np.linalg.solve(scatter, raw.T).T
            norms = np.linalg.norm(white, axis=1)
            good = norms > 1e-12
            dirs = white[good] / norms[good, None]
        # the (directions, n) projections grow as n^3, so they are formed in
        # row chunks under core.BATCH_BYTES; each row's median and MAD see the
        # same values as in one product
        med = np.empty(dirs.shape[0])
        mad = np.empty(dirs.shape[0])
        top = 0.0  # largest |projection|, the scale of the zero-MAD guard
        rows = max(1, core.BATCH_BYTES // (32 * n))
        for start in range(0, dirs.shape[0], rows):
            proj = dirs[start:start + rows] @ pts.T
            m = np.median(proj, axis=1)
            med[start:start + rows] = m
            mad[start:start + rows] = np.median(np.abs(proj - m[:, None]), axis=1)
            top = max(top, float(np.max(np.abs(proj))))
        if np.any(mad <= 1e-12 * max(1.0, top)):
            raise ZeroMadError(
                "a projection of the sample has zero median absolute deviation"
            )
        self.dirs = dirs
        self.med = med
        self.mad = mad

    def outlyingness(self, zs: np.ndarray) -> np.ndarray:
        """max over directions of |<p, z> - med| / mad, for each row of zs."""

        def block(q):
            return np.max(np.abs(rows_times(q, self.dirs) - self.med) / self.mad, axis=1)

        return in_chunks(block, zs, 24 * self.dirs.shape[0])


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


def projection_depth(z, cloud: DataCloud, direction_budget: int = 1000, seed: int = 0) -> float:
    """Projection depth of one point, as a batch of one."""
    return float(projection_depth_many(cloud.point_of(z)[None], cloud,
                                       direction_budget, seed)[0])


# ---------------------------------------------------------------------------
# simplex-volume (Oja) depth
# ---------------------------------------------------------------------------


def _oja_expected_volumes(qs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Mean volume of the simplex spanned by each query and d points drawn i.i.d.

    Tuples with a repeated index span a degenerate simplex of volume zero, so
    the expectation over the n^d ordered tuples reduces to a sum over the
    d-element subsets: each contributes |det(x_i - z)| / n^d.
    """
    n, d = pts.shape
    if d == 1:
        return in_chunks(lambda q: np.mean(np.abs(pts[:, 0] - q), axis=1), qs, 24 * n)
    if d == 2:
        iu, ju = np.triu_indices(n, k=1)
        xi, xj = pts[iu], pts[ju]

        def block(q):
            # det(x_i - z, x_j - z), in the difference form
            dets = ((xi[:, 0] - q[:, 0:1]) * (xj[:, 1] - q[:, 1:2])
                    - (xi[:, 1] - q[:, 1:2]) * (xj[:, 0] - q[:, 0:1]))
            return np.abs(dets).sum(axis=1)

        return in_chunks(block, qs, 48 * iu.size) / n**2
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
    """(1 + E[simplex volume] / sqrt(det scatter))^-1 for each row, by exact
    enumeration of the d-point subsets (capped for d >= 3)."""
    qs = cloud.points_of(zs)
    if cloud.n < cloud.d:
        raise ValueError(f"need at least d={cloud.d} points, got n={cloud.n}")
    _, _, chol = estimator.estimate(cloud)
    if cloud.d >= 3:
        enumeration_size(cloud.n, cloud.d)
    root_det = float(np.prod(np.diag(chol)))
    return clamp_depths(1.0 / (1.0 + _oja_expected_volumes(qs, cloud.points) / root_det))


def oja_depth(z, cloud: DataCloud, estimator: ScatterEstimator = MOMENT) -> float:
    """Oja depth of one point, as a batch of one."""
    return float(oja_depth_many(cloud.point_of(z)[None], cloud, estimator)[0])
