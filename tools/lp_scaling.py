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

import json
import sys

from scaling import exponent, measure, parse_args

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


def main() -> int:
    args = parse_args(__doc__, "10,27,80,160,320", 60.0)
    record = {"queries": QUERIES, "limit_s": args.limit}
    for d in (2, 3):
        def row(n: int, words: list[str]) -> dict:
            per_lp, pivots = words
            print(f"d={d} n={n}: {1e3 * float(per_lp):.4g} ms per LP, {pivots} pivots")
            return {"lp_s": float(per_lp),
                    "pivots": None if pivots == "None" else float(pivots)}

        rows, skipped = measure(args, CHILD, row, f"d={d} ", d=d, half=QUERIES // 2)
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
