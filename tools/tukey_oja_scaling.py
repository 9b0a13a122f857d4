"""Random Tukey and planar Oja depth per query at growing n, from the dense
kernels and from the sorted ones.

Run from the repository root:

    python3 tools/tukey_oja_scaling.py [--src SRC] [--sizes 100,200,400,800,1600]

For each n a fresh interpreter imports ``depthkit`` from SRC (default
``src``) and builds a seeded Gaussian cloud in the plane, queried at 256 of
its points (all of them when n is smaller), as ``depth --all`` queries its
data.  It times four batches over those queries:

- ``dense_tukey``: random Tukey depth with the default 1000 directions, one
  sign table of all directions per query (``combinatorial._signs_count``);
- ``sorted_tukey``: the same counts from the data's projections sorted once
  per block of directions (``combinatorial._table_counts``);
- ``pair_oja``: the planar Oja volume sum over the C(n, 2) pairs
  (``metric._oja_pair_sums``);
- ``angular_oja``: the same sum from one angular order per query
  (``metric._oja_angular_sums``).

Each time is the best of three passes while the passes take under 5 s
together.  A size whose child takes longer than ``--limit`` seconds is
reported as skipped.  The last line is JSON: the time per query of each
path and n, and the exponents fitted to them by least squares on log-log
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
from depthkit import combinatorial, metric
from depthkit.rng import unit_directions
rng = np.random.default_rng({n})
pts = rng.standard_normal(({n}, 2)) @ np.array([[2.0, 0.3], [0.0, 0.7]]) + [10.0, 5.0]
qs = pts[rng.permutation({n})[:256]]
dirs = unit_directions(2, 1000, 0)

def dense_tukey():
    for q in qs:
        combinatorial._signs_count(q, pts, dirs)

def sorted_tukey():
    combinatorial._table_counts(qs, pts, dirs)

def pair_oja():
    metric._oja_pair_sums(qs, pts)

def angular_oja():
    metric._oja_angular_sums(qs, pts)

def best(run):
    times = []
    while len(times) < 3 and sum(times) < 5.0:
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times) / len(qs)

print(best(dense_tukey), best(sorted_tukey), best(pair_oja), best(angular_oja))
"""

PATHS = ("dense_tukey", "sorted_tukey", "pair_oja", "angular_oja")


def main() -> int:
    args = parse_args(__doc__, "100,200,400,800,1600", 300.0)

    def row(n: int, words: list[str]) -> dict:
        times = dict(zip(PATHS, map(float, words)))
        print(f"n={n}: " + ", ".join(f"{path} {1e6 * t:.4g} us" for path, t in times.items())
              + " per query")
        return {f"{path}_s_per_query": t for path, t in times.items()}

    rows, skipped = measure(args, CHILD, row)
    record = {"sizes": rows, "skipped_over_limit": skipped, "limit_s": args.limit,
              "queries": "256 data points per cloud (all of them below n = 256)",
              "directions": 1000}
    for path in PATHS:
        record[f"{path}_exp"] = exponent([(n, r[f"{path}_s_per_query"])
                                          for n, r in rows.items()])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
