"""Named registry of depth functions and their capabilities.

Each entry holds one depth function, whether an exact central-region
algorithm exists, which invariance class the depth satisfies, whether its
maximum reaches 1 on samples (a prerequisite for depth lifts), and whether
it is admissible as the building block of the functional depths.

A depth is one map D(z | X): the registered function returns a float for
one point and m depths for (m, d) query rows, in one call either way.

* ``evaluate(z)`` hands it ``z`` flattened to one point, and equals
  ``evaluate_many([z])[0]`` bitwise;
* ``evaluate_many`` hands it the rows in (m, d) form (``DataCloud.rows``);
  beyond arrays of m rows its working set is bounded however large m is
  (see ``core.CHUNK_BYTES`` and ``core.BATCH_BYTES``);
* the registry checks nothing itself: the depth function checks each
  query once, by ``DataCloud.queries``;
* :class:`EvalOptions` (seed and direction budget) is the only evaluation
  options object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import combinatorial, metric, weighted
from .cloud import DataCloud
from .errors import UnknownDepthError
from .geometry import ConvexRegion
from .rng import DEFAULT_OPTIONS, EvalOptions  # re-exported: the options of every depth

DepthFn = Callable[[np.ndarray, DataCloud, EvalOptions], "float | np.ndarray"]
RegionFn = Callable[[DataCloud, float], ConvexRegion]


@dataclass(frozen=True)
class DepthSpec:
    name: str
    variant: str  # declared invariance class: "affine" | "isometric" | "scale"
    depth: DepthFn  # a point gives a float, an (m, d) array m depths
    region_fn: RegionFn | None = None
    lift_ready: bool = False
    functional_base: bool = False

    def evaluate(self, z, cloud: DataCloud, options: EvalOptions = DEFAULT_OPTIONS) -> float:
        return self.depth(np.ravel(z), cloud, options)

    def evaluate_many(self, zs, cloud: DataCloud,
                      options: EvalOptions = DEFAULT_OPTIONS) -> np.ndarray:
        return self.depth(cloud.rows(zs), cloud, options)

    # the name batch evaluation had before it shared one kernel with points
    evaluate_batch = evaluate_many

    def evaluator(self, options: EvalOptions = DEFAULT_OPTIONS):
        """:meth:`evaluate` as a (point, cloud) callable with ``options``
        bound, e.g. for the postulate harness."""

        def call(z, cloud: DataCloud) -> float:
            return self.depth(np.ravel(z), cloud, options)

        return call


_REGISTRY: dict[str, DepthSpec] = {}

_ALIASES = {
    "tukey": "halfspace",
    "location": "halfspace",
    "ech*": "echstar",
    "l2affine": "l2-affine",
    "affine-l2": "l2-affine",
}


def register(spec: DepthSpec) -> DepthSpec:
    _REGISTRY[spec.name] = spec
    return spec


def available_depths() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_depth(name: str) -> DepthSpec:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise UnknownDepthError(
            f"unknown depth {name!r}; available: {', '.join(available_depths())}"
        )
    return _REGISTRY[key]


# Evaluation entries look their functions up on the module at call time, so a
# function replaced on its module (for tracing, say) is the one that runs.

register(DepthSpec(
    name="l2",
    variant="isometric",
    depth=lambda z, cloud, opts: metric.l2_depth(z, cloud),
    functional_base=True,
))

register(DepthSpec(
    name="l2-affine",
    variant="affine",
    depth=lambda z, cloud, opts: metric.affine_invariant_l2_depth(z, cloud),
    functional_base=True,
))

register(DepthSpec(
    name="mahalanobis",
    variant="affine",
    depth=lambda z, cloud, opts: metric.mahalanobis_depth(z, cloud),
    region_fn=metric.mahalanobis_region,
    lift_ready=True,
    functional_base=True,
))

register(DepthSpec(
    name="projection",
    variant="affine",
    depth=lambda z, cloud, opts: metric.projection_depth(z, cloud, opts.budget, opts.seed),
    functional_base=True,
))

register(DepthSpec(
    name="oja",
    variant="affine",
    depth=lambda z, cloud, opts: metric.oja_depth(z, cloud),
    functional_base=True,
))

register(DepthSpec(
    name="zonoid",
    variant="affine",
    depth=lambda z, cloud, opts: weighted.zonoid_depth(z, cloud),
    region_fn=lambda cloud, alpha: weighted.wm_region(cloud, weighted.ZONOID, alpha),
    lift_ready=True,
    functional_base=True,
))

register(DepthSpec(
    name="echstar",
    variant="affine",
    depth=lambda z, cloud, opts: weighted.wm_depth(z, cloud, weighted.ECH_STAR),
    region_fn=lambda cloud, alpha: weighted.wm_region(cloud, weighted.ECH_STAR, alpha),
    lift_ready=True,
    functional_base=True,
))

register(DepthSpec(
    name="geometric",
    variant="affine",
    depth=lambda z, cloud, opts: weighted.wm_depth(z, cloud, weighted.GEOMETRIC),
    region_fn=lambda cloud, alpha: weighted.wm_region(cloud, weighted.GEOMETRIC, alpha),
    lift_ready=True,
    functional_base=True,
))

register(DepthSpec(
    name="halfspace",
    variant="affine",
    depth=lambda z, cloud, opts: combinatorial.halfspace_depth(z, cloud),
    region_fn=combinatorial.halfspace_region,
    functional_base=True,
))

register(DepthSpec(
    name="simplicial",
    variant="affine",
    depth=lambda z, cloud, opts: combinatorial.simplicial_depth(z, cloud),
    functional_base=True,
))

register(DepthSpec(
    name="random-tukey",
    variant="scale",
    depth=lambda z, cloud, opts: combinatorial.random_tukey_depth(z, cloud, opts),
))
