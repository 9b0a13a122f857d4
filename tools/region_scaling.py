"""Per-level time of the exact planar regions and their JSON at growing n.

Run from the repository root:

    python3 tools/region_scaling.py [--src SRC] [--sizes 27,80,160,400]

For each n a fresh interpreter imports ``depthkit`` from SRC (default
``src``) and builds a seeded Gaussian cloud in the plane.  It times
``tukey_region_2d`` at alpha 0.1, 0.2 and 0.3, ``wm_region_2d`` with the
ECH* scheme at alpha 0.1, 0.5 and 0.9 (on a fresh cloud for each run, so
what the cloud keeps is built once per run), and ``export_region_json`` of a
document holding those six regions, each as the best of up to three runs
(a second and third only while the first took under 5 s), divided by the
number of levels.  It then records the peak of ``tracemalloc`` over one
``tukey_region_2d`` call at alpha 0.2.  A size whose child takes longer
than ``--limit`` seconds is reported as skipped.  The last line is JSON:
the numbers per n and the exponents fitted to the times by least squares
on log-log axes.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

CHILD = """
import os, sys, tempfile, time, tracemalloc
import numpy as np
sys.path.insert(0, {src!r})
from depthkit import DataCloud
from depthkit.combinatorial import tukey_region_2d
from depthkit.svg import ContourDocument, ContourLayer, export_region_json
from depthkit.weighted import ECH_STAR, wm_region_2d
rng = np.random.default_rng({n})
pts = rng.standard_normal(({n}, 2)) @ np.array([[2.0, 0.3], [0.0, 0.7]])
cloud = DataCloud(pts)
TUKEY, ECH = (0.1, 0.2, 0.3), (0.1, 0.5, 0.9)

def best(run):
    times = []
    while len(times) < 3 and sum(times) < 5.0:
        start = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - start)
    return min(times), out

def ech_ladder():
    # a fresh cloud: what a cloud keeps is built once per ladder
    fresh = DataCloud(pts)
    return [wm_region_2d(fresh, ECH_STAR, a) for a in ECH]

tukey_s, tukey = best(lambda: [tukey_region_2d(cloud, a) for a in TUKEY])
ech_s, ech = best(ech_ladder)
layers = tuple(ContourLayer(a, (r.vertices,)) for a, r in zip(TUKEY + ECH, tukey + ech)
               if r.vertices.shape[0] > 2)
doc = ContourDocument("scaling", layers, cloud.points)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "doc.json")
    json_s, _ = best(lambda: export_region_json(doc, path))
    json_bytes = os.path.getsize(path)
tracemalloc.start()
tukey_region_2d(cloud, 0.2)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
vertices = sum(layer.rings[0].shape[0] for layer in layers)
print(tukey_s / len(TUKEY), ech_s / len(ECH), json_s / len(layers), peak, vertices, json_bytes)
"""


def exponent(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(time) against log(n)."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--sizes", default="27,80,160,400")
    parser.add_argument("--limit", type=float, default=300.0)
    args = parser.parse_args()
    rows, skipped = {}, []
    for n in map(int, args.sizes.split(",")):
        try:
            proc = subprocess.run([sys.executable, "-c", CHILD.format(src=args.src, n=n)],
                                  capture_output=True, text=True, timeout=args.limit,
                                  check=True)
        except subprocess.TimeoutExpired:
            skipped.append(n)
            print(f"n={n}: skipped, over {args.limit:g} s")
            continue
        tukey, ech, doc, peak, vertices, size = proc.stdout.split()
        rows[n] = {"tukey_region_s_per_level": float(tukey),
                   "echstar_region_s_per_level": float(ech),
                   "json_s_per_layer": float(doc),
                   "tukey_peak_mb": int(peak) / 2**20,
                   "vertices": int(vertices), "json_bytes": int(size)}
        print(f"n={n}: tukey {1e3 * float(tukey):.4g} ms, echstar {1e3 * float(ech):.4g} ms "
              f"per level; json {1e3 * float(doc):.4g} ms per layer; "
              f"tukey peak {int(peak) / 2**20:.4g} MB")
    print(json.dumps({
        "sizes": rows, "skipped_over_limit": skipped, "limit_s": args.limit,
        "tukey_region_exp": exponent([(n, r["tukey_region_s_per_level"])
                                      for n, r in rows.items()]),
        "echstar_region_exp": exponent([(n, r["echstar_region_s_per_level"])
                                        for n, r in rows.items()]),
        "json_exp": exponent([(n, r["json_s_per_layer"]) for n, r in rows.items()]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
