"""Run every workload over several seeds and print the full report.

Run from the repository root:

    python3 bench/report.py --seeds 1-10 --out report.json

For each workload this runs ``BENCHMARK.json``'s command once per seed
with tracing off, then once traced on the first seed, one run at a time.
It prints each end-to-end metric, and the unbounded median op latency
op_p50_ms, with its unit as the median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (interquartile distance
over the median), the fail ratio, and the per-layer metrics of the traced
run.  ``--out`` writes the same numbers as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    last["run_s"] = time.monotonic() - start
    for key in ("provenance", "info"):
        last[key] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                         if line.startswith(key + " "))
    return last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = seed_list(args.seeds)
    seconds = bench["run_seconds"]
    report = {}
    for workload in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(bench, workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['run_s']:.1f} s, "
                  f"correct={runs[-1]['correct']}", file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "provenance": runs[0]["provenance"],
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "run_s": summarise([r["run_s"] for r in runs]),
            "end_to_end": {
                m["name"]: dict(summarise([r["metrics"][m["name"]]["value"]
                                           for r in runs]), unit=m["unit"])
                for m in bench["end_to_end"]},
            # reported, not bounded (see run.py)
            "op_p50_ms": dict(summarise([r["info"]["op_p50_ms"] for r in runs]),
                              unit="ms", ops=runs[0]["info"]["op_count"]),
        }
        print(f"{workload}: fail_ratio {entry['fail_ratio']:.6g} "
              f"({failed} of {attempted} ops over {len(seeds)} runs)")
        rows = dict(entry["end_to_end"], op_p50_ms=entry["op_p50_ms"])
        for name, s in rows.items():
            print(f"  {name:12s} {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        if not args.no_trace:
            traced = run_once(bench, workload, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, v in traced["metrics"].items():
                if v["value"]:
                    print(f"  {name} {v['value']:.6g} {v['unit']}")
        report[workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
