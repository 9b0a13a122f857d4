"""Time one layer of depthkit at growing n and fit its scaling exponents.

Run from the repository root:

    python3 tools/scaling.py LAYER [--src SRC] [--sizes 27,80] [--limit S]

For each size n a fresh interpreter imports ``depthkit`` from SRC (default
``src``), draws seeded data of n points and times the layer.  Each time is
the best of at least three runs that took at least 0.2 s together, so
that a layer of a few milliseconds is the best of dozens; no further run
starts once the runs so far took 5 s together.  A size whose child takes
longer than ``--limit`` seconds is reported as skipped.  Each size prints one row; the
last line is JSON: the layer's numbers per n, the sizes skipped, and the
exponent of every time series (``<name>_s...`` gives ``<name>_exp``),
fitted by least squares on log-log axes.  Run a layer with ``--src`` set
to each of two trees to compare them.

The layers, with their default sizes and limit:

``index`` (10,27,100,400,1600; 60 s)
    the build of one ``metric.ProjectionIndex`` (budget 1000, seed 0) on a
    planar Gaussian cloud, and ``outlyingness`` per query: over 256 seeded
    queries, over a 64 x 64 grid on the data box padded by 10 % on each
    side, and in one call per query for the 256.  The child asserts that
    every median and MAD is bitwise a build that sorts each row's absolute
    deviations again, and that each outlyingness is bitwise the scan of
    every direction (on every 8th grid cell); it reports ``grid_read``,
    the share of the grid's (query, direction) entries that the block
    filter read (null for an index without block scans).  10 and 27 are
    the sizes of the benchmark's post10 and eu27 clouds.
``lp`` (10,27,80,160,320; 60 s)
    ``weighted.zonoid_depth`` per linear program at 16 queries (8 data
    points, 8 Gaussian draws) on Gaussian clouds in d = 2 and d = 3, and
    the mean of ``LPResult.pivots``, the simplex steps (pivots and bound
    flips of both phases), also fitted; null for a ``depthkit`` whose
    ``LPResult`` has no ``pivots``.
``region`` (27,80,160,400; 300 s)
    per level, ``tukey_region_2d`` at alpha 0.1, 0.2 and 0.3, on the cloud
    and on the cloud with its last point replaced by a copy of its first
    (a tie), and ``wm_region_2d`` with the ECH* scheme at 0.1, 0.5 and 0.9
    (on a fresh cloud for each run of a ladder, so what the cloud keeps,
    such as the Tukey pair counts, is built and timed once per ladder); per
    layer, ``export_region_json`` of a document of those regions; the
    ``tracemalloc`` peak of one ``tukey_region_2d`` at 0.2 on a fresh cloud;
    and per level, of the n(n - 1) ECH* weighted means at those three
    levels, ``geometry.convex_hull`` (hull tracing) and
    ``geometry.convex_ring_hull`` (the polygon read off the ring of means).
``sweep`` (27,80,400,1600; 120 s)
    planar halfspace depth per point call at 64 seeded queries and
    ``simplicial_depth_many`` per query over a 32 x 32 grid on the data box,
    from the angular order and from ``combinatorial._line_tables``, the
    n x n table per query that it falls back to on near-ties; and
    ``halfspace_depth_2d`` per query as one batch over the grid, null for
    a ``depthkit`` whose ``halfspace_depth_2d`` takes only points.
``tukey_oja`` (100,200,400,800,1600; 300 s)
    per query, at 256 of the data points (all of them below n = 256):
    random Tukey depth with 1000 directions from one sign table per query
    (``combinatorial._signs_count``) and from projections sorted once per
    block of directions (``_table_counts``); planar Oja depth from the
    C(n, 2) pairs (``metric._oja_pair_sums``) and from one angular order
    per query (``_oja_angular_sums``).
``wm`` (27,80,100,101,160; 300 s)
    ECH* weighted-mean depth per query at 32 queries (16 data points, 16
    Gaussian draws), by ``weighted.wm_depth`` point calls and by one
    ``wm_depth_many`` batch, each run on a fresh cloud.  ``frame_kept``
    says whether the cloud kept its support frame (up to n = 100 at the
    default ``core.BATCH_BYTES``); where it does not, every point call
    builds the whole frame again.
``dispatch`` (10,27,80; 300 s)
    every registered depth per query at 32 queries (16 data points, 16
    Gaussian draws), by ``DepthSpec.evaluate`` point calls, by one-row
    ``evaluate_many(z[None])`` calls and by one ``evaluate_many`` batch,
    each run on a fresh cloud with the default ``EvalOptions``; 10, 27 and
    80 are the sizes of the benchmark's post10, eu27 and g80 clouds.
``fdepth`` (10,30,80,160; 300 s)
    ``graph_depth`` and ``grid_depth`` per query curve, with the halfspace
    and the projection base (``EvalOptions`` budget 100, seed 0), on a
    sample of n planar random walks at k = 10 grid positions, for the
    sample's first 8 curves: by one call per curve and by one batch, each
    run on a fresh sample.  The child asserts that the batch is bitwise
    the per-curve calls; the batch is null for a ``depthkit`` whose depths
    take one curve only.  30 is the size of the benchmark's walk2d sample.
``grid`` (27,80,160,400; 300 s)
    ``regions._grid_field`` per node of the 256 x 256 grid of a traced
    region ladder, for l2, l2-affine, oja, simplicial and projection, each
    on a fresh cloud whose kept state (the projection index) is built
    before the timing; ``regions.marching_squares`` per level, at 0.2,
    0.4, 0.6 and 0.8 of each field's maximum; and ``svg.render_svg`` per
    layer, of one document per depth with those levels' rings.  The child
    asserts that every 8th node of each field is bitwise the same when
    evaluated again in one-row chunks (``core.CHUNK_BYTES`` = 1).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass, field

#: run before each layer's child; the child leaves its numbers in ``row``
PRELUDE = """
import json, sys, time
import numpy as np
n = int(sys.argv[1])
sys.path.insert(0, sys.argv[2])
rng = np.random.default_rng(n)

def planar():
    return rng.standard_normal((n, 2)) @ np.array([[2.0, 0.3], [0.0, 0.7]])

def best(run):
    times = []
    while (len(times) < 3 or sum(times) < 0.2) and sum(times) < 5.0:
        start = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - start)
    return min(times), out
"""


@dataclass(frozen=True)
class Layer:
    """What one layer's measurement does not share with the others.

    ``child`` runs after ``PRELUDE`` with ``n`` and ``rng`` (seeded with n)
    and sets ``row``, one value for each of ``keys``.  ``fits`` names the
    series other than times whose exponent is fitted too, and ``fields``
    describe the measurement in the record.
    """

    child: str
    keys: tuple[str, ...]
    sizes: str
    limit: float
    fits: tuple[str, ...] = ()
    fields: dict = field(default_factory=dict)


INDEX = """
from depthkit import DataCloud, core, metric
cloud = DataCloud(planar())
build_s, index = best(lambda: metric.ProjectionIndex(cloud, 1000, 0))
# every median and MAD is bitwise np.median of each row of projections and
# of its |deviations|, in the same row chunks (so in the same BLAS row
# blocks); the planar index keeps its rows in angular order, so rows are
# compared as sorted sets
dirs = metric._whitened_directions(cloud, metric._moment_rule(cloud)[1], 1000, 0)
step = max(1, core.BATCH_BYTES // (32 * n))
med, mad = np.empty(len(dirs)), np.empty(len(dirs))
for i in range(0, len(dirs), step):
    s = dirs[i:i + step] @ cloud.points.T
    med[i:i + step] = np.median(s, axis=1)
    mad[i:i + step] = np.median(np.abs(s - med[i:i + step, None]), axis=1)

def row_set(*cols):
    whole = np.ascontiguousarray(np.column_stack(cols))
    return np.sort(whole.view(np.dtype((np.void, whole.shape[1] * 8))).ravel())

assert np.array_equal(row_set(index.dirs, index.med, index.mad), row_set(dirs, med, mad))
del dirs, med, mad
zs = rng.standard_normal((256, 2))
lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
grid = np.stack(np.meshgrid(*(np.linspace(a - 0.1 * (b - a), b + 0.1 * (b - a), 64)
                              for a, b in zip(lo, hi))), -1).reshape(-1, 2)
query_s, out = best(lambda: index.outlyingness(zs))
grid_s, field = best(lambda: index.outlyingness(grid))
point_s, points = best(lambda: [index.outlyingness(z[None]) for z in zs])

def full_scan(qs):
    whole = core.rows_times(qs, index.dirs)
    whole -= index.med
    np.abs(whole, out=whole)
    whole /= index.mad
    return whole.max(axis=1)

# bitwise the scan of every direction: the queries, every 8th grid cell,
# and each point call
step = max(1, core.BATCH_BYTES // (16 * index.dirs.shape[0]))
for got, qs in ((out, zs), (field[::8], grid[::8])):
    want = np.concatenate([full_scan(qs[i:i + step]) for i in range(0, len(qs), step)])
    assert got.tobytes() == want.tobytes()
assert np.concatenate(points).tobytes() == out.tobytes()
# the share of the grid's (query, direction) entries read, null for an
# index without block scans
read = None
if hasattr(metric.ProjectionIndex, "_scan"):
    entries, scan = [], metric.ProjectionIndex._scan

    def counted(self, qs, block, count):
        entries.append(qs.shape[0] * min(count * self.size, self.dirs.shape[0]))
        return scan(self, qs, block, count)

    metric.ProjectionIndex._scan = counted
    index.outlyingness(grid)
    read = sum(entries) / (len(grid) * index.dirs.shape[0])
row = (index.dirs.shape[0], build_s, query_s / len(zs), grid_s / len(grid),
       point_s / len(zs), read)
"""

LP = """
from depthkit import DataCloud, lp, weighted
pivots = []

def counting(*args, **kwargs):
    res = lp.solve_lp(*args, **kwargs)
    pivots.append(getattr(res, "pivots", None))
    return res

weighted.solve_lp = counting
row = ()
for d in (2, 3):
    rng = np.random.default_rng(n * 10 + d)
    cloud = DataCloud(rng.standard_normal((n, d)))
    zs = np.vstack([cloud.points[:8], rng.standard_normal((8, d))])
    pivots.clear()
    lp_s, _ = best(lambda: [weighted.zonoid_depth(z, cloud) for z in zs])
    steps = pivots[:len(zs)]
    row += (lp_s / len(zs), None if None in steps else sum(steps) / len(steps))
"""

REGION = """
import os, tempfile, tracemalloc
from depthkit import DataCloud, geometry
from depthkit.combinatorial import tukey_region_2d
from depthkit.svg import ContourDocument, ContourLayer, export_region_json
from depthkit.weighted import ECH_STAR, _ordered_of, weights, wm_region_2d
pts = planar()
cloud = DataCloud(pts)
TUKEY, ECH = (0.1, 0.2, 0.3), (0.1, 0.5, 0.9)

# the same cloud with a tie: its last point a copy of its first
tie = pts.copy()
tie[-1] = tie[0]

def tukey_ladder(points=pts):
    fresh = DataCloud(points)
    return [tukey_region_2d(fresh, a) for a in TUKEY]

def ech_ladder():
    fresh = DataCloud(pts)
    return [wm_region_2d(fresh, ECH_STAR, a) for a in ECH]

tukey_s, tukey = best(tukey_ladder)
tie_s, _ = best(lambda: tukey_ladder(tie))
ech_s, ech = best(ech_ladder)
layers = tuple(ContourLayer(a, (r.vertices,)) for a, r in zip(TUKEY + ECH, tukey + ech)
               if r.vertices.shape[0] > 2)
doc = ContourDocument("scaling", layers, cloud.points)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "doc.json")
    json_s, _ = best(lambda: export_region_json(doc, path))
    json_bytes = os.path.getsize(path)
tracemalloc.start()
tukey_region_2d(DataCloud(pts), 0.2)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
vertices = sum(layer.rings[0].shape[0] for layer in layers)
ordered = list(_ordered_of(DataCloud(pts)))
rings = [np.concatenate([np.einsum("j,kjd->kd", weights(ECH_STAR, n, a), o) for o in ordered])
         for a in ECH]
del ordered
hull_s, _ = best(lambda: [geometry.convex_hull(r) for r in rings])
ring_s, _ = best(lambda: [geometry.convex_ring_hull(r) for r in rings])
row = (tukey_s / len(TUKEY), tie_s / len(TUKEY), ech_s / len(ECH), json_s / len(layers),
       peak / 2**20, vertices, json_bytes, hull_s / len(ECH), ring_s / len(ECH))
"""

SWEEP = """
from depthkit import DataCloud, combinatorial
from depthkit.errors import DimensionMismatchError
cloud = DataCloud(planar())
zs = rng.standard_normal((64, 2))
lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
grid = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 32),
                            np.linspace(lo[1], hi[1], 32)), -1).reshape(-1, 2)

def line_halfspace():
    for z in zs:
        (_, fewest, _), = combinatorial._line_tables(z[None], cloud)
        int(fewest.min()) / cloud.n

def angular_halfspace():
    for z in zs:
        combinatorial.halfspace_depth_2d(z, cloud)

def line_simplicial():
    for _, _, k in combinatorial._line_tables(grid, cloud):
        (k * (k - 1) // 2).sum(axis=1)

def angular_simplicial():
    combinatorial.simplicial_depth_many(grid, cloud)

row = tuple(best(run)[0] / len(qs) for run, qs in (
    (line_halfspace, zs), (angular_halfspace, zs),
    (line_simplicial, grid), (angular_simplicial, grid)))
try:
    row += (best(lambda: combinatorial.halfspace_depth_2d(grid, cloud))[0] / len(grid),)
except DimensionMismatchError:
    row += (None,)
"""

TUKEY_OJA = """
from depthkit import combinatorial, metric
from depthkit.rng import unit_directions
pts = planar() + [10.0, 5.0]
qs = pts[rng.permutation(n)[:256]]
dirs = unit_directions(2, 1000, 0)
row = tuple(best(run)[0] / len(qs) for run in (
    lambda: [combinatorial._signs_count(q, pts, dirs) for q in qs],
    lambda: combinatorial._table_counts(qs, pts, dirs),
    lambda: metric._oja_pair_sums(qs, pts),
    lambda: metric._oja_angular_sums(qs, pts)))
"""

WM = """
from depthkit import DataCloud
from depthkit.weighted import ECH_STAR, wm_depth, wm_depth_many
pts = planar()
zs = np.vstack([pts[:16], rng.standard_normal((16, 2))])

def point_calls():
    fresh = DataCloud(pts)
    for z in zs:
        wm_depth(z, fresh, ECH_STAR)
    return fresh

point_s, fresh = best(point_calls)
batch_s, _ = best(lambda: wm_depth_many(zs, DataCloud(pts), ECH_STAR))
row = (point_s / len(zs), batch_s / len(zs), ("wm-frame",) in fresh._derived)
"""

#: the registered depths, in ``registry.available_depths()`` order
DEPTHS = ("echstar", "geometric", "halfspace", "l2", "l2-affine", "mahalanobis",
          "oja", "projection", "random-tukey", "simplicial", "zonoid")

DISPATCH = f"DEPTHS = {DEPTHS!r}\n" + """
from depthkit import DataCloud
from depthkit.registry import get_depth
pts = planar()
zs = np.vstack([pts[:16], rng.standard_normal((16, 2))])
row = ()
for spec in map(get_depth, DEPTHS):
    def point_calls():
        fresh = DataCloud(pts)
        for z in zs:
            spec.evaluate(z, fresh)

    def row_calls():
        fresh = DataCloud(pts)
        for z in zs:
            spec.evaluate_many(z[None], fresh)

    row += tuple(best(run)[0] / len(zs) for run in (
        point_calls, row_calls, lambda: spec.evaluate_many(zs, DataCloud(pts))))
"""

FDEPTH_CALLS = tuple(f"{kind}_{base}" for kind in ("graph", "grid")
                     for base in ("halfspace", "projection"))

FDEPTH = f"CALLS = {FDEPTH_CALLS!r}\n" + """
from depthkit.functional import FunctionalSample, graph_depth, grid_depth
from depthkit.registry import EvalOptions
grid = np.linspace(0.0, 1.0, 10)
curves = np.cumsum(rng.standard_normal((n, 10, 2)), axis=1)
zs = curves[:8]
options = EvalOptions(seed=0, budget=100)
row = ()
for call in CALLS:
    kind, base = call.split("_")
    depth = graph_depth if kind == "graph" else grid_depth

    def per_curve():
        sample = FunctionalSample(grid, curves)
        return [depth(z, sample, base_depth=base, options=options) for z in zs]

    loop_s, want = best(per_curve)
    try:
        batch_s, got = best(lambda: depth(zs, FunctionalSample(grid, curves),
                                          base_depth=base, options=options))
    except ValueError:
        row += (loop_s / len(zs), None)
        continue
    assert got.tobytes() == np.array(want).tobytes()
    row += (loop_s / len(zs), batch_s / len(zs))
"""


#: the depths without an exact region, whose ladders trace a grid field
GRID_DEPTHS = ("l2", "l2-affine", "oja", "simplicial", "projection")

GRID = f"DEPTHS = {GRID_DEPTHS!r}\n" + """
from depthkit import DataCloud, core, regions
from depthkit.registry import get_depth
from depthkit.svg import ContourDocument, ContourLayer, render_svg
pts = planar()
side = regions.DEFAULT_GRID_RESOLUTION
SHARES = (0.2, 0.4, 0.6, 0.8)
row, traced = (), []
for spec in map(get_depth, DEPTHS):
    cloud = DataCloud(pts)
    spec.evaluate_many(cloud.points, cloud)
    batch = lambda qs: spec.evaluate_many(qs, cloud)
    field_s, (xs, ys, field) = best(lambda: regions._grid_field(cloud, batch, side))
    # every 8th node again, in one-row chunks
    gx, gy = np.meshgrid(xs, ys)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])[::8]
    chunk = getattr(core, "CHUNK_BYTES", None)
    core.CHUNK_BYTES = 1
    again = batch(nodes)
    core.CHUNK_BYTES = chunk
    assert again.tobytes() == field.ravel()[::8].tobytes()
    levels = [share * float(field.max()) for share in SHARES]
    traced.append((xs, ys, field, levels))
    row += (field_s / field.size,)
march_s, ladders = best(lambda: [[regions.marching_squares(xs, ys, field, a) for a in levels]
                                  for xs, ys, field, levels in traced])
docs = [ContourDocument("scaling", tuple(ContourLayer(a, tuple(r.vertices for r in rings))
                                         for a, rings in zip(levels, ladder) if rings), pts)
        for (_, _, _, levels), ladder in zip(traced, ladders)]
svg_s, _ = best(lambda: [render_svg(doc) for doc in docs])
layers = sum(len(doc.layers) for doc in docs)
vertices = sum(r.shape[0] for doc in docs for layer in doc.layers for r in layer.rings)
row += (march_s / (len(DEPTHS) * len(SHARES)), svg_s / layers, layers, vertices)
"""


def _per_query(*paths: str) -> tuple[str, ...]:
    return tuple(f"{path}_s_per_query" for path in paths)


LAYERS = {
    "index": Layer(INDEX, ("directions", "build_s", "outlyingness_s_per_query",
                           "grid_s_per_query", "point_s_per_query", "grid_read"),
                   "10,27,100,400,1600", 60.0),
    "lp": Layer(LP, ("d2_lp_s", "d2_pivots", "d3_lp_s", "d3_pivots"),
                "10,27,80,160,320", 60.0, fits=("d2_pivots", "d3_pivots"),
                fields={"queries": 16}),
    "region": Layer(REGION, ("tukey_region_s_per_level", "tukey_tie_region_s_per_level",
                             "echstar_region_s_per_level",
                             "json_s_per_layer", "tukey_peak_mb", "vertices", "json_bytes",
                             "hull_s_per_level", "ring_s_per_level"),
                    "27,80,160,400", 300.0),
    "sweep": Layer(SWEEP, _per_query("line_halfspace", "angular_halfspace",
                                     "line_simplicial", "angular_simplicial",
                                     "batch_halfspace"),
                   "27,80,400,1600", 120.0),
    "tukey_oja": Layer(TUKEY_OJA, _per_query("dense_tukey", "sorted_tukey",
                                             "pair_oja", "angular_oja"),
                       "100,200,400,800,1600", 300.0,
                       fields={"queries": "256 data points per cloud (all of them below n = 256)",
                               "directions": 1000}),
    "wm": Layer(WM, ("point_s_per_query", "batch_s_per_query", "frame_kept"),
                "27,80,100,101,160", 300.0,
                fields={"queries": "16 data points and 16 Gaussian draws per cloud",
                        "scheme": "echstar"}),
    "dispatch": Layer(DISPATCH, _per_query(*(f"{name.replace('-', '_')}_{call}"
                                             for name in DEPTHS
                                             for call in ("point", "row", "batch"))),
                      "10,27,80", 300.0,
                      fields={"queries": "16 data points and 16 Gaussian draws per cloud"}),
    "fdepth": Layer(FDEPTH, tuple(f"{call}_{way}_s_per_curve" for call in FDEPTH_CALLS
                                  for way in ("loop", "batch")),
                    "10,30,80,160", 300.0,
                    fields={"queries": "the first 8 sample curves",
                            "grid_positions": 10, "d": 2, "budget": 100}),
    "grid": Layer(GRID, tuple(f"{name.replace('-', '_')}_s_per_node" for name in GRID_DEPTHS)
                  + ("marching_squares_s_per_level", "svg_s_per_layer", "layers", "vertices"),
                  "27,80,160,400", 300.0,
                  fields={"grid": "256 x 256 nodes over the data box padded by 10 %",
                          "levels": "0.2, 0.4, 0.6 and 0.8 of each field's maximum"}),
}

#: a time series: ``<name>_s`` or ``<name>_s_per_<unit>``
_TIME = re.compile(r"(.*)_s(_per_\w+)?$")


def exponent(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(value) against log(n)."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _shown(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", help=f"one of: {', '.join(LAYERS)}")
    parser.add_argument("--src", default="src")
    parser.add_argument("--sizes", help="comma-separated n (default: the layer's)")
    parser.add_argument("--limit", type=float, help="seconds per size (default: the layer's)")
    args = parser.parse_args()
    if args.layer not in LAYERS:
        sys.exit(f"unknown layer {args.layer!r}: choose one of {', '.join(LAYERS)}")
    layer = LAYERS[args.layer]
    limit = layer.limit if args.limit is None else args.limit
    code = PRELUDE + layer.child + "print(json.dumps(row))\n"
    rows, skipped = {}, []
    for n in map(int, (args.sizes or layer.sizes).split(",")):
        try:
            proc = subprocess.run([sys.executable, "-c", code, str(n), args.src],
                                  capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            skipped.append(n)
            print(f"n={n}: skipped, over {limit:g} s")
            continue
        if proc.returncode:
            sys.exit(f"n={n}: the {args.layer} child failed\n{proc.stderr}")
        rows[n] = dict(zip(layer.keys, json.loads(proc.stdout.splitlines()[-1]),
                           strict=True))
        print(f"n={n}: " + ", ".join(f"{k} {_shown(v)}" for k, v in rows[n].items()))
    record = {"layer": args.layer, **layer.fields, "sizes": rows,
              "skipped_over_limit": skipped, "limit_s": limit}
    for key in layer.keys:
        timed = _TIME.match(key)
        if timed or key in layer.fits:
            record[f"{timed[1] if timed else key}_exp"] = exponent(
                [(n, r[key]) for n, r in rows.items() if r[key] is not None])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
