"""Depths for grid-sampled curves built from multivariate base depths.

A curve is represented by its values on a shared argument grid in [0, 1].
Every depth here is a Phi-depth (Mosler and Polyakova): the infimum of a
multivariate base depth D over a family Phi of linear maps of the curves,
inf_phi D(phi(z) | phi(X)).  One loop, ``_least_depth``, takes that
infimum for all three families, which only yield the maps:

* ``graph_depth``   uses the evaluation functionals x -> x(t),
* ``grid_depth``    uses weighted time combinations x -> x(t_) @ r over
  seeded unit directions r plus the coordinate axes,
* ``phi_depth``     accepts an arbitrary finite family of linear maps.

Each takes one query curve (a float) or an (m, k, d) batch (m depths).  A
call builds each map's image cloud once for its batch and holds one at a
time, so separate calls per curve build every cloud again.

The infimum preserves translation invariance, scale invariance,
monotonicity and upper semicontinuity of the base depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cloud import DataCloud
from .errors import (
    EmptyTimeSetError,
    InvalidTimeSetError,
    NonlinearFunctionalError,
    UnknownDepthError,
)
from .registry import DEFAULT_OPTIONS, EvalOptions, get_depth
from .rng import unit_directions

CurveFunctional = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FunctionalSample:
    """n curves sampled on a common grid: values array of shape (n, k, d).

    ``grid`` and ``curves`` are read-only copies of the inputs, and the
    sample holds nothing else: a depth call builds the clouds it needs.
    """

    grid: np.ndarray
    curves: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float).reshape(-1)
        curves = np.array(self.curves, dtype=float)
        if curves.ndim == 2:
            curves = curves[:, :, np.newaxis]
        if curves.ndim != 3:
            raise ValueError("curves must have shape (n, k) or (n, k, d)")
        k = grid.shape[0]
        if k < 1:
            raise ValueError("argument grid must contain at least one point")
        if curves.shape[1] != k:
            raise ValueError(
                f"curves have {curves.shape[1]} grid values, grid has {k}")
        if curves.shape[0] < 1:
            raise ValueError("sample must contain at least one curve")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(curves)):
            raise ValueError("grid and curve values must be finite")
        if grid.min() < 0.0 or grid.max() > 1.0:
            raise ValueError("argument grid must lie in [0, 1]")
        if k > 1 and np.any(np.diff(grid) <= 0.0):
            raise ValueError("argument grid must be strictly increasing")
        grid.setflags(write=False)
        curves.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "curves", curves)

    @property
    def n(self) -> int:
        return self.curves.shape[0]

    @property
    def k(self) -> int:
        return self.curves.shape[1]

    @property
    def d(self) -> int:
        return self.curves.shape[2]

    def point_cloud(self, t_index: int) -> DataCloud:
        """A new cloud of all curve values at one grid position."""
        return DataCloud(self.curves[:, t_index, :])

    def coerce_curve(self, z) -> np.ndarray:
        """Validate a query curve, or an (m, k, d) batch of curves, against
        this sample's grid shape."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[:, np.newaxis]
        if z.ndim > 3 or z.shape[-2:] != (self.k, self.d):
            raise ValueError(
                f"query curve must have shape ({self.k}, {self.d}), "
                f"got {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("query curve values must be finite")
        return z

    def sup_norm(self, z) -> float:
        """Sampled supremum norm max_t |z(t)| (the largest of a batch)."""
        z = self.coerce_curve(z)
        return float(np.max(np.linalg.norm(z, axis=-1)))


def _base_spec(base_depth: str):
    spec = get_depth(base_depth)
    if not spec.functional_base:
        raise UnknownDepthError(
            f"depth '{spec.name}' is not admissible as a functional base")
    return spec


def _time_indices(sample: FunctionalSample, t_indices) -> np.ndarray:
    if t_indices is None:
        idx = np.arange(sample.k)
    else:
        given = list(t_indices)
        idx = np.asarray(given).reshape(-1)
        # a position is an integer: a cast would read 0.9 as 0 and True as 1
        if (any(isinstance(j, (bool, np.bool_)) for j in given) or idx.dtype.kind not in "iuf"
                or not np.all(np.isfinite(idx) & (idx == np.round(idx)))):
            raise InvalidTimeSetError(f"grid positions must be integers, got {given!r}")
        idx = idx.astype(int)
    if idx.size == 0:
        raise EmptyTimeSetError("the set of grid positions is empty")
    if idx.min() < 0 or idx.max() >= sample.k:
        raise ValueError(
            f"grid positions must lie in [0, {sample.k - 1}]")
    return idx


def _least_depth(spec, zs: np.ndarray, maps, image,
                 options: EvalOptions) -> float | np.ndarray:
    """inf of ``spec`` over the ``maps``, in order, for a checked curve or
    batch.  ``image(phi, curves)`` gives the images of the curves still
    above 0 and the sample's image cloud; a curve leaves once its value is
    0, and no map is built once none is left."""
    batch = zs.ndim == 3
    zs = zs if batch else zs[np.newaxis]
    values, live = np.ones(zs.shape[0]), np.arange(zs.shape[0])
    for phi in maps:
        if live.size == 0:
            break
        qs, cloud = image(phi, zs[live])
        values[live] = np.minimum(values[live], spec.evaluate_many(qs, cloud, options))
        live = live[values[live] > 0.0]
    return values if batch else float(values[0])


def graph_depth(z, sample: FunctionalSample, base_depth: str = "halfspace",
                t_indices: Sequence[int] | None = None,
                options: EvalOptions = DEFAULT_OPTIONS) -> float | np.ndarray:
    """Minimum over grid positions of the pointwise base depth, for one
    curve or an (m, k, d) batch.

    With univariate data and the halfspace base this is the halfgraph
    depth of the query curve in the sample.
    """
    spec, zs = _base_spec(base_depth), sample.coerce_curve(z)
    return _least_depth(spec, zs, _time_indices(sample, t_indices),
                        lambda j, curves: (curves[:, j], sample.point_cloud(j)), options)


def grid_depth(z, sample: FunctionalSample,
               t_indices: Sequence[int] | None = None,
               base_depth: str = "halfspace",
               options: EvalOptions = DEFAULT_OPTIONS) -> float | np.ndarray:
    """Minimum base depth over weighted time combinations of the curves,
    for one curve or an (m, k, d) batch.

    Each unit direction r over the chosen grid positions induces the map
    x -> sum_m r_m x(t_m), a d-vector per curve; the reported value is the
    minimum over ``options.budget`` directions drawn with ``options.seed``
    plus the coordinate axes, an upper bound on the infimum that decreases
    with the budget.  The base depth is evaluated with the same options.
    """
    spec, zs = _base_spec(base_depth), sample.coerce_curve(z)
    idx = _time_indices(sample, t_indices)
    directions = np.vstack([np.eye(idx.size),
                            unit_directions(idx.size, options.budget, options.seed)])
    values = sample.curves[:, idx, :]

    def image(r, curves):
        # the queries ride through the same contraction as the sample so a
        # curve that coincides with a sample curve projects bitwise identically
        stacked = np.concatenate([values, curves[:, idx, :]], axis=0)
        proj = np.einsum("m,nmd->nd", r, stacked)
        return proj[sample.n:], DataCloud(proj[:sample.n])

    return _least_depth(spec, zs, directions, image, options)


_LINEARITY_TRIALS = 3
_LINEARITY_TOL = 1e-8


def _check_additive(sample: FunctionalSample,
                    functionals: Sequence[CurveFunctional]) -> None:
    """Additivity of every map on random curve pairs u, v, within a
    tolerance relative to the largest entry of phi(u) and phi(v)."""
    if len(functionals) == 0:
        raise ValueError("the family of functionals must be nonempty")
    rng = np.random.default_rng(20240917)
    shape = (sample.k, sample.d)
    for i, phi in enumerate(functionals):
        for _ in range(_LINEARITY_TRIALS):
            u = rng.standard_normal(shape)
            v = rng.standard_normal(shape)
            pu, pv, lhs = (np.asarray(phi(x), dtype=float) for x in (u, v, u + v))
            rhs, scale = pu + pv, max(np.max(np.abs(pu)), np.max(np.abs(pv)))
            if lhs.shape != rhs.shape or np.max(
                    np.abs(lhs - rhs)) > _LINEARITY_TOL * scale:
                raise NonlinearFunctionalError(
                    f"functional #{i} is not additive on random inputs")


def phi_depth(z, sample: FunctionalSample,
              functionals: Sequence[CurveFunctional],
              base_depth: str = "halfspace",
              options: EvalOptions = DEFAULT_OPTIONS) -> float | np.ndarray:
    """Minimum base depth over a finite family of linear curve functionals,
    for one curve or an (m, k, d) batch.

    Each functional maps a (k, d) curve-value array to a vector.  Each map
    gets its own image cloud, so the maps need not share a dimension.
    Additivity is verified on random curve pairs before evaluation.
    """
    spec, zs = _base_spec(base_depth), sample.coerce_curve(z)
    _check_additive(sample, functionals)

    def image(phi, curves):
        values = [np.asarray(phi(curve), dtype=float).reshape(-1)
                  for curve in (*curves, *sample.curves)]
        return np.array(values[:len(curves)]), DataCloud(values[len(curves):])

    return _least_depth(spec, zs, functionals, image, options)


def phi_maximality(z, sample: FunctionalSample,
                   functionals: Sequence[CurveFunctional],
                   base_depth: str = "halfspace",
                   options: EvalOptions = DEFAULT_OPTIONS,
                   tol: float = 1e-9) -> bool | np.ndarray:
    """True iff every functional sends the query into the base depth's
    deepest (level 1) region, i.e. the minimum structure attains its bound;
    for an (m, k, d) batch, m such answers."""
    return phi_depth(z, sample, functionals, base_depth, options) >= 1.0 - tol


def evaluation_functionals(sample: FunctionalSample,
                           t_indices: Sequence[int] | None = None,
                           ) -> list[CurveFunctional]:
    """The point-evaluation maps x -> x(t) for the chosen grid positions;
    feeding them to ``phi_depth`` reproduces ``graph_depth``."""
    idx = _time_indices(sample, t_indices)

    def make(j: int) -> CurveFunctional:
        return lambda curve: np.asarray(curve, dtype=float)[j, :]

    return [make(int(j)) for j in idx]
