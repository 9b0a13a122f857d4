"""Depth fundamentals: outlyingness, region-to-depth, and the postulate harness.

A depth function maps a point and a cloud to a value in [0, 1].  The harness
in :func:`check_postulates` probes an evaluator empirically for the standard
postulates: translation invariance, invariance under a declared class of
linear maps (full affine, orthogonal, or positive scaling), vanishing at
infinity, weak decrease along rays from the deepest point, and quasiconcavity
via a midpoint test.  Closedness of upper level sets is a structural property
of the region algorithms and is reported as such rather than sampled.

Two memory budgets bound the kernels.  ``CHUNK_BYTES`` (1 MiB) caps one
chunk of query rows in :func:`in_chunks`, whose callers treat each row on
its own with no BLAS product (L2, Oja, the equal-row count, region
containment and distance), so a chunk's temporaries stay near the size of
a core's L2 cache and the chunk size cannot move a value.
``BATCH_BYTES`` (16 MiB) bounds the state kept on a cloud and the
direction blocks that one BLAS product forms (the sign counts, the
projection index build); it also caps ``CHUNK_BYTES`` when set lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .cloud import DataCloud
from .errors import EnumerationTooLargeError, InvalidAlphaError, NestingViolationError

if TYPE_CHECKING:
    from .geometry import ConvexRegion

DepthEvaluator = Callable[[np.ndarray, DataCloud], float]

_VARIANTS = {"affine": "D2", "isometric": "D2iso", "scale": "D2sca"}

#: memory bound of the state kept on a cloud and of the direction blocks
#: that a BLAS product forms at once
BATCH_BYTES = 16 * 2**20
#: working set of one chunk of query rows in :func:`in_chunks`: about the
#: per-core L2 cache, so a chunk's temporaries stay in cache and are reused
#: by the allocator rather than handed back to the OS and faulted in again
CHUNK_BYTES = 2**20
#: most simplices (or point subsets) a depth may enumerate per query
SIMPLEX_ENUMERATION_CAP = 2_000_000


def check_level(alpha) -> float:
    """``alpha`` as a float, refused unless in (0, 1] (so NaN and +-inf too)."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def clamp_depth(value: float) -> float:
    """Snap float noise at the ends of [0, 1]; reject genuine violations."""
    if not math.isfinite(value) or value < -1e-9 or value > 1.0 + 1e-9:
        raise ValueError(f"depth value out of range: {value}")
    return min(max(float(value), 0.0), 1.0)


def clamp_depths(values: np.ndarray) -> np.ndarray:
    """:func:`clamp_depth` of every entry of an array."""
    if values.size:
        lo, hi = values.min(), values.max()
        # a NaN fails both comparisons
        if not (lo >= -1e-9 and hi <= 1.0 + 1e-9):
            raise ValueError(f"depth values out of range: min {lo}, max {hi}")
    return np.minimum(np.maximum(values, 0.0), 1.0)


def rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat.T``, summed term by term in a fixed order.

    A BLAS product may round one row differently depending on how many rows
    share the call; this sum does not, so a batch of one equals any batch.
    """
    out = rows[..., 0:1] * mat[:, 0]
    for j in range(1, mat.shape[1]):
        out += rows[..., j:j + 1] * mat[:, j]
    return out


def in_chunks(block: Callable[[np.ndarray], np.ndarray], qs: np.ndarray,
              row_bytes: int, dtype=float) -> np.ndarray:
    """``block`` applied to consecutive row chunks of ``qs``, concatenated
    into an array of ``dtype``.

    A chunk holds as many rows as fit ``CHUNK_BYTES`` (or ``BATCH_BYTES``,
    if that is smaller) at ``row_bytes`` of working set per row, and at
    least one.  ``block`` must treat each row on its own, with no BLAS
    product, so that the chunk size cannot move a value.
    """
    rows = max(1, min(CHUNK_BYTES, BATCH_BYTES) // max(1, row_bytes))
    out = np.empty(qs.shape[0], dtype=dtype)
    for start in range(0, qs.shape[0], rows):
        out[start:start + rows] = block(qs[start:start + rows])
    return out


def enumeration_size(n: int, k: int) -> int:
    """C(n, k), refused above ``SIMPLEX_ENUMERATION_CAP``."""
    total = math.comb(n, k)
    if total > SIMPLEX_ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"C({n}, {k}) = {total} simplices exceeds the cap {SIMPLEX_ENUMERATION_CAP}"
        )
    return total


def outlyingness(depth: float) -> float:
    """Out = 1/depth - 1, with Out(0) = inf."""
    depth = clamp_depth(depth)
    if depth == 0.0:
        return float("inf")
    return 1.0 / depth - 1.0


def depth_from_outlyingness(out: float) -> float:
    """Inverse map (1 + Out)^-1, with depth(inf) = 0."""
    if np.isnan(out) or out < 0:
        raise ValueError(f"outlyingness must be in [0, inf], got {out}")
    if np.isinf(out):
        return 0.0
    return clamp_depth(1.0 / (1.0 + out))


def depth_from_regions(z, regions: Mapping[float, ConvexRegion], tol: float | None = None) -> float:
    """Largest grid level whose region contains ``z`` (0.0 if none does).

    ``regions`` maps levels in (0, 1] to convex regions that must be nested
    downward: the region of a larger level lies inside the region of a
    smaller one.  Consecutive-pair containment is checked and a violation
    raises ``NestingViolationError``.
    """
    if not regions:
        raise ValueError("need at least one region")
    alphas = sorted(regions)
    if alphas[0] <= 0.0 or alphas[-1] > 1.0:
        raise ValueError("region levels must lie in (0, 1]")
    if tol is None:
        scale = 1.0
        for region in regions.values():
            if not region.is_empty:
                scale = max(scale, float(np.max(np.abs(region.vertices))))
        tol = 1e-9 * scale
    for small, big in zip(alphas, alphas[1:]):
        if not regions[small].contains_region(regions[big], tol):
            raise NestingViolationError(
                f"region at level {big} is not inside region at level {small}"
            )
    z = np.asarray(z, dtype=float).reshape(-1)
    for alpha in reversed(alphas):
        region = regions[alpha]
        if not region.is_empty and region.contains(z, tol):
            return float(alpha)
    return 0.0


# ---------------------------------------------------------------------------
# postulate harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    note: str = ""


@dataclass(frozen=True)
class PostulateReport:
    variant: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def table(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            note = f"  {c.note}" if c.note else ""
            lines.append(f"{c.name:<6} {status}  worst={c.worst_violation:.3e}{note}")
        lines.append(f"overall {'pass' if self.ok else 'FAIL'} (variant={self.variant})")
        return "\n".join(lines)


def _random_linear(rng: np.random.Generator, d: int, variant: str) -> np.ndarray:
    if variant == "scale":
        return float(rng.uniform(0.5, 2.0)) * np.eye(d)
    q1, r = np.linalg.qr(rng.standard_normal((d, d)))
    q1 = q1 * np.sign(np.diag(r))
    if variant == "isometric":
        return q1
    q2, r2 = np.linalg.qr(rng.standard_normal((d, d)))
    q2 = q2 * np.sign(np.diag(r2))
    # well-conditioned by construction so invariance is testable at 1e-9
    s = rng.uniform(0.5, 2.0, d)
    return q1 @ np.diag(s) @ q2


def _query_points(cloud: DataCloud, rng: np.random.Generator) -> np.ndarray:
    pts = [cloud.mean]
    take = min(cloud.n, 3)
    for i in np.linspace(0, cloud.n - 1, take).astype(int):
        pts.append(cloud.points[i])
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    for _ in range(2):
        pts.append(rng.uniform(lo - 0.1 * span, hi + 0.1 * span))
    return np.array(pts)


def _candidate_maximizer(depth_fn: DepthEvaluator, cloud: DataCloud,
                         rng: np.random.Generator) -> np.ndarray:
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    if cloud.d == 1:
        grid = np.linspace(lo[0] - 0.05 * span[0], hi[0] + 0.05 * span[0], 101).reshape(-1, 1)
    elif cloud.d == 2:
        side = np.linspace(0.0, 1.0, 23)
        gx, gy = np.meshgrid(lo[0] + side * span[0], lo[1] + side * span[1])
        grid = np.column_stack([gx.ravel(), gy.ravel()])
    else:
        grid = rng.uniform(lo, hi, size=(200, cloud.d))
    cand = np.vstack([cloud.points, cloud.mean.reshape(1, -1), grid])
    values = np.array([depth_fn(q, cloud) for q in cand])
    return cand[int(np.argmax(values))]


def check_postulates(depth_fn: DepthEvaluator, cloud: DataCloud, variant: str = "affine",
                     trials: int = 100, seed: int = 0, tol: float = 1e-9) -> PostulateReport:
    """Empirical audit of the depth postulates for one evaluator on one cloud.

    ``depth_fn`` is called as ``depth_fn(point, cloud)`` so the harness can
    re-evaluate on translated and linearly mapped copies of the cloud.
    ``variant`` declares the invariance class under test for the linear part:
    ``"affine"``, ``"isometric"`` or ``"scale"``.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown invariance variant: {variant!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    rng = np.random.default_rng(seed)
    d = cloud.d
    scale = max(cloud.extent, 1.0)
    qs = _query_points(cloud, rng)
    base = np.array([depth_fn(q, cloud) for q in qs])
    checks: list[CheckResult] = []

    # D1, translation invariance
    worst = 0.0
    for _ in range(trials):
        b = rng.uniform(-1.0, 1.0, d) * scale
        shifted = cloud.translated(b)
        for q, v in zip(qs, base):
            worst = max(worst, abs(depth_fn(q + b, shifted) - v))
    checks.append(CheckResult("D1", worst <= tol, worst))

    # D2 in the declared variant; queries are mapped through the same
    # matrix product as the cloud so shared rows stay bitwise identical
    worst = 0.0
    for _ in range(trials):
        a = _random_linear(rng, d, variant)
        mapped = cloud.linear_mapped(a)
        mqs = qs @ a.T
        for q, v in zip(mqs, base):
            worst = max(worst, abs(depth_fn(q, mapped) - v))
    checks.append(CheckResult(_VARIANTS[variant], worst <= tol, worst))

    # D3, decay to zero along rays
    center = cloud.mean
    worst = 0.0
    tail = 0.0
    for _ in range(6):
        g = rng.standard_normal(d)
        ray = g / np.linalg.norm(g)
        values = [depth_fn(center + scale * (2.0 ** k) * ray, cloud) for k in range(10)]
        for prev, nxt in zip(values, values[1:]):
            worst = max(worst, nxt - prev)
        tail = max(tail, values[-1])
    ok = worst <= tol and tail <= 0.05
    checks.append(CheckResult("D3", ok, max(worst, tail if tail > 0.05 else 0.0),
                              note=f"tail depth {tail:.2e} at {2 ** 9} bounding boxes"))

    # D4, weak decrease along rays from the empirical maximizer
    zstar = _candidate_maximizer(depth_fn, cloud, rng)
    worst = 0.0
    steps = scale * np.array([0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2])
    for _ in range(6):
        g = rng.standard_normal(d)
        ray = g / np.linalg.norm(g)
        values = [depth_fn(zstar, cloud)]
        values += [depth_fn(zstar + s * ray, cloud) for s in steps]
        for prev, nxt in zip(values, values[1:]):
            worst = max(worst, nxt - prev)
    checks.append(CheckResult("D4", worst <= tol, worst))

    # D4con proxy, midpoint quasiconcavity
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    worst = 0.0
    for k in range(40):
        if k % 2 == 0:
            w = rng.dirichlet(np.ones(cloud.n), size=2)
            u, v = w @ cloud.points
        else:
            u = rng.uniform(lo - 0.2 * span, hi + 0.2 * span)
            v = rng.uniform(lo - 0.2 * span, hi + 0.2 * span)
        mid = depth_fn((u + v) / 2.0, cloud)
        floor_value = min(depth_fn(u, cloud), depth_fn(v, cloud))
        worst = max(worst, floor_value - mid)
    checks.append(CheckResult("D4con", worst <= tol, worst))

    # D5 holds by construction: regions are closed polygons and intervals,
    # and level sets of the continuous evaluators are closed preimages.
    checks.append(CheckResult("D5", True, 0.0, note="structural, not sampled"))

    return PostulateReport(variant, tuple(checks))
