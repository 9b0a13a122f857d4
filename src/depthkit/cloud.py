"""Finite point clouds, the empirical carrier of every depth function here.

A :class:`DataCloud` owns a read-only copy of its points, so whatever a depth
derives from the points alone (a projection index, a support frame) stays
valid for the life of the cloud.  :meth:`DataCloud.derived` builds each such
value once per cloud and hands it to every later query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

import numpy as np

from .errors import DimensionMismatchError

# Geometric predicates use this absolute tolerance after scaling coordinates
# to the cloud's bounding box.
COORD_REL_TOL = 1e-9

T = TypeVar("T")


def _as_points(values) -> np.ndarray:
    # a copy, so a write to the caller's array cannot move the cloud and the
    # cloud's read-only flag cannot reach the caller's array
    pts = np.array(values, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError(f"points must be a (n, d) array, got shape {pts.shape}")
    if pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError(f"need at least one point and one coordinate, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _extent(cloud: "DataCloud") -> float:
    return float(np.max(np.ptp(cloud.points, axis=0))) if cloud.n > 1 else 0.0


@dataclass(frozen=True)
class DataCloud:
    """Immutable empirical sample of n points in R^d.

    ``points`` is an (n, d) float array, copied from the input and read-only;
    a 1-D input is treated as n scalars.  Optional ``labels`` name the points
    (one label per row).
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = _as_points(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != pts.shape[0]:
                raise ValueError(f"{len(labels)} labels for {pts.shape[0]} points")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def extent(self) -> float:
        """Largest bounding-box edge length (0.0 for one point), built once."""
        return self.derived(("extent",), _extent)

    @property
    def coord_tol(self) -> float:
        """Absolute coordinate tolerance scaled to the bounding box."""
        return COORD_REL_TOL * max(1.0, self.extent)

    @property
    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def derived(self, key: Hashable, build: Callable[["DataCloud"], T]) -> T:
        """Return ``build(self)``, built on the first call with ``key`` and
        kept for every later call.

        For state that depends only on the points and the parameters named
        in ``key``: the points never change, so neither does the value.  A
        build that raises keeps nothing.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    def require_dim(self, d: int) -> None:
        if self.d != d:
            raise DimensionMismatchError(f"cloud has dimension {self.d}, expected {d}")

    def rows(self, zs) -> np.ndarray:
        """A batch of query points as an (m, d) float array, not checked
        (:meth:`queries` checks it); in d=1 a flat array of m scalars
        becomes a column."""
        qs = np.asarray(zs, dtype=float)
        if self.d == 1 and qs.ndim <= 1:
            qs = qs.reshape(-1, 1)
        if qs.ndim != 2:
            raise DimensionMismatchError(
                f"query batch has shape {qs.shape}, expected (m, {self.d})"
            )
        return qs

    def queries(self, z) -> tuple[np.ndarray, bool]:
        """(rows, batch), the one check of a query against this cloud: an
        (m, d) array is a batch of m rows, anything else one point."""
        if isinstance(z, np.ndarray) and z.ndim == 2:
            qs = np.asarray(z, dtype=float)
            if qs.shape[1] != self.d:
                raise DimensionMismatchError(
                    f"query batch has shape {qs.shape}, expected (m, {self.d})"
                )
            if not np.isfinite(qs).all():
                raise ValueError("query points must be finite")
            return qs, True
        q = np.asarray(z, dtype=float).ravel()
        if q.shape[0] != self.d:
            raise DimensionMismatchError(
                f"query point has dimension {q.shape[0]}, cloud has {self.d}"
            )
        # one point's few coordinates test faster one by one than by numpy
        if not all(map(math.isfinite, q.tolist())):
            raise ValueError("query point must be finite")
        return q[None], False

    def translated(self, b) -> "DataCloud":
        b = np.asarray(b, dtype=float).reshape(-1)
        return DataCloud(self.points + b, self.labels)

    def linear_mapped(self, a) -> "DataCloud":
        a = np.asarray(a, dtype=float)
        return DataCloud(self.points @ a.T, self.labels)
