"""Time and simplex steps of one zonoid linear program at growing n.

Run from the repository root:

    python3 tools/lp_scaling.py [--src SRC] [--sizes 10,27,80,160,320]

For each n and for d = 2 and 3, a fresh interpreter imports ``depthkit``
from SRC (default ``src``), builds a seeded Gaussian cloud and evaluates
``weighted.zonoid_depth`` at 16 seeded queries (8 data points, 8 Gaussian
draws), best of three passes while the passes take under 5 s together.
It reports the time per linear program and the mean of ``LPResult.pivots``
(the simplex steps, pivots and bound flips, of both phases) over the
queries; a ``depthkit`` whose ``LPResult`` has no ``pivots`` reports
null.  A size whose child takes longer than ``--limit`` seconds is reported
as skipped.  The last line is JSON: the numbers per d and n and the
exponents fitted to them by least squares on log-log axes.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

QUERIES = 16

CHILD = """
import sys, time
import numpy as np
sys.path.insert(0, {src!r})
from depthkit import DataCloud, lp, weighted
rng = np.random.default_rng({n} * 10 + {d})
cloud = DataCloud(rng.standard_normal(({n}, {d})))
zs = np.vstack([cloud.points[:{half}], rng.standard_normal(({half}, {d}))])
pivots = []

def counting(*args, **kwargs):
    res = lp.solve_lp(*args, **kwargs)
    pivots.append(getattr(res, "pivots", None))
    return res

weighted.solve_lp = counting
times = []
while len(times) < 3 and sum(times) < 5.0:
    start = time.perf_counter()
    for z in zs:
        weighted.zonoid_depth(z, cloud)
    times.append(time.perf_counter() - start)
steps = pivots[:len(zs)]
print(min(times) / len(zs), None if None in steps else sum(steps) / len(steps))
"""


def exponent(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(value) against log(n)."""
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
    parser.add_argument("--sizes", default="10,27,80,160,320")
    parser.add_argument("--limit", type=float, default=60.0)
    args = parser.parse_args()
    record = {"queries": QUERIES, "limit_s": args.limit}
    for d in (2, 3):
        rows, skipped = {}, []
        for n in map(int, args.sizes.split(",")):
            code = CHILD.format(src=args.src, n=n, d=d, half=QUERIES // 2)
            try:
                proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, timeout=args.limit, check=True)
            except subprocess.TimeoutExpired:
                skipped.append(n)
                print(f"d={d} n={n}: skipped, over {args.limit:g} s")
                continue
            per_lp, pivots = proc.stdout.split()
            rows[n] = {"lp_s": float(per_lp),
                       "pivots": None if pivots == "None" else float(pivots)}
            print(f"d={d} n={n}: {1e3 * float(per_lp):.4g} ms per LP, {pivots} pivots")
        record[f"d{d}"] = {
            "sizes": rows, "skipped_over_limit": skipped,
            "lp_exp": exponent([(n, r["lp_s"]) for n, r in rows.items()]),
            "pivots_exp": exponent([(n, r["pivots"]) for n, r in rows.items()
                                    if r["pivots"] is not None]),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
