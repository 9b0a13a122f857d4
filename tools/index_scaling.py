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

import json
import sys

from scaling import exponent, measure, parse_args

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


def main() -> int:
    args = parse_args(__doc__, "27,100,400,1600", 60.0)

    def row(n: int, words: list[str]) -> dict:
        build, query, m = words
        print(f"n={n}: {m} directions, build {float(build):.4g} s, "
              f"{1e3 * float(query) / 256:.4g} ms per query")
        return {"directions": int(m), "build_s": float(build),
                "outlyingness_s_per_query": float(query) / 256}

    rows, skipped = measure(args, CHILD, row)
    print(json.dumps({
        "sizes": rows, "skipped_over_limit": skipped, "limit_s": args.limit,
        "build_exp": exponent([(n, r["build_s"]) for n, r in rows.items()]),
        "outlyingness_exp": exponent([(n, r["outlyingness_s_per_query"])
                                      for n, r in rows.items()]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
