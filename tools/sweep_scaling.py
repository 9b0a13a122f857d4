"""Planar halfspace and simplicial depth per query at growing n, from the
line table and from the angular order.

Run from the repository root:

    python3 tools/sweep_scaling.py [--src SRC] [--sizes 27,80,400,1600]

For each n a fresh interpreter imports ``depthkit`` from SRC (default
``src``) and builds a seeded Gaussian cloud in the plane.  It times
``halfspace_depth_2d`` point calls at 64 seeded queries and one
``simplicial_depth_many`` batch over a 32 x 32 grid on the data box, and
the same counts read from ``combinatorial._line_tables``, the n x n table
per query that the angular order falls back to on near-ties.  Each time
is the best of three passes while the passes take under 5 s together.  A
size whose child takes longer than ``--limit`` seconds is reported as
skipped.  The last line is JSON: the time per query of each path and n,
and the exponents fitted to them by least squares on log-log axes.
"""

from __future__ import annotations

import json
import sys

from scaling import exponent, measure, parse_args

CHILD = """
import sys, time
import numpy as np
sys.path.insert(0, {src!r})
from depthkit import DataCloud, combinatorial
rng = np.random.default_rng({n})
cloud = DataCloud(rng.standard_normal(({n}, 2)) @ np.array([[2.0, 0.3], [0.0, 0.7]]))
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

def best(run, queries):
    times = []
    while len(times) < 3 and sum(times) < 5.0:
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times) / queries

print(best(line_halfspace, len(zs)), best(angular_halfspace, len(zs)),
      best(line_simplicial, len(grid)), best(angular_simplicial, len(grid)))
"""

PATHS = ("line_halfspace", "angular_halfspace", "line_simplicial", "angular_simplicial")


def main() -> int:
    args = parse_args(__doc__, "27,80,400,1600", 120.0)

    def row(n: int, words: list[str]) -> dict:
        times = dict(zip(PATHS, map(float, words)))
        print(f"n={n}: " + ", ".join(f"{path} {1e6 * t:.4g} us" for path, t in times.items())
              + " per query")
        return {f"{path}_s_per_query": t for path, t in times.items()}

    rows, skipped = measure(args, CHILD, row)
    record = {"sizes": rows, "skipped_over_limit": skipped, "limit_s": args.limit}
    for path in PATHS:
        record[f"{path}_exp"] = exponent([(n, r[f"{path}_s_per_query"])
                                          for n, r in rows.items()])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
