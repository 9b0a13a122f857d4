"""Build and query time of one projection index at growing n.

Run from the repository root:

    python3 tools/index_scaling.py [--src SRC] [--sizes 27,100,400,1600]

For each n a fresh interpreter imports ``depthkit`` from SRC (default
``src``), builds ``metric.ProjectionIndex`` on a seeded Gaussian cloud in
the plane (budget 1000, seed 0), best of three while the builds take
under 5 s together, and evaluates ``outlyingness`` on 256 seeded queries,
best of three.  A size whose child takes longer than
``--limit`` seconds is reported as skipped.  The last line is JSON: the
times per n and the exponents fitted to them by least squares on log-log
axes.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

CHILD = """
import sys, time
import numpy as np
sys.path.insert(0, {src!r})
from depthkit import DataCloud, metric
rng = np.random.default_rng({n})
cloud = DataCloud(rng.standard_normal(({n}, 2)) @ np.array([[2.0, 0.3], [0.0, 0.7]]))
builds = []
while len(builds) < 3 and sum(builds) < 5.0:
    start = time.perf_counter()
    index = metric.ProjectionIndex(cloud, 1000, 0)
    builds.append(time.perf_counter() - start)
zs = rng.standard_normal((256, 2))
times = []
for _ in range(3):
    start = time.perf_counter()
    index.outlyingness(zs)
    times.append(time.perf_counter() - start)
print(min(builds), min(times), index.dirs.shape[0])
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
    parser.add_argument("--sizes", default="27,100,400,1600")
    parser.add_argument("--limit", type=float, default=60.0)
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
        build, query, m = proc.stdout.split()
        rows[n] = {"directions": int(m), "build_s": float(build),
                   "outlyingness_s_per_query": float(query) / 256}
        print(f"n={n}: {m} directions, build {float(build):.4g} s, "
              f"{1e3 * float(query) / 256:.4g} ms per query")
    print(json.dumps({
        "sizes": rows, "skipped_over_limit": skipped, "limit_s": args.limit,
        "build_exp": exponent([(n, r["build_s"]) for n, r in rows.items()]),
        "outlyingness_exp": exponent([(n, r["outlyingness_s_per_query"])
                                      for n, r in rows.items()]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
