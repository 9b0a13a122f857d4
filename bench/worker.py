"""Runs one workload's command list in this fresh process.

Usage: worker.py PLAN RESULT

PLAN is the JSON written by run.py (ops, mode, seconds, source root);
RESULT receives timings, captured outputs and, in traced mode, per-layer
metrics.  Ops run in-process through ``depthkit.cli.main`` with stdout and
stderr captured in memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_cli(src: str):
    sys.path.insert(0, src)
    import depthkit.cli as cli

    expected = os.path.realpath(os.path.join(src, "depthkit"))
    found = os.path.realpath(os.path.dirname(cli.__file__))
    if found != expected:
        raise SystemExit(f"depthkit imported from {found}, expected {expected}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """(seconds, exit status or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crash
            status = None
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    return elapsed, status, out.getvalue(), err.getvalue()


def run_pass(cli, ops: list[dict], tracer=None) -> dict:
    """Run every op once; return wall time, per-op times and outputs."""
    op_s, results = [], []
    for op in ops:
        if tracer is not None:
            tracer.current_n = op["n"]
            tracer.current_op = op["name"]
        elapsed, *result = run_op(cli, op["argv"])
        op_s.append(elapsed)
        results.append(result)
    return {"wall_s": sum(op_s), "op_s": op_s,
            "status": [r[0] for r in results],
            "stdout": [r[1] for r in results],
            "stderr": [r[2] for r in results]}


def _untraced(cli, ops, seconds: float) -> dict:
    """One whole pass, then single ops again until ``seconds`` is used.

    The repeats go in rounds over the ops, costliest first by their time in
    the pass, and skip an op that is not expected to end in time, so the
    ops that carry most of the wall time are the ones timed again.
    """
    start = time.perf_counter()
    first = run_pass(cli, ops)
    order = sorted(range(len(ops)), key=lambda i: -first["op_s"][i])
    repeats = []
    ran = True
    while ran:
        ran = False
        for i in order:
            if time.perf_counter() - start + first["op_s"][i] <= seconds:
                elapsed, status, out, err = run_op(cli, ops[i]["argv"])
                repeats.append({"op": i, "s": elapsed, "status": status,
                                "stdout": out, "stderr": err})
                ran = True
    return {"passes": [first], "repeats": repeats}


def _traced(cli, ops, workload: str, spans_path: str) -> dict:
    import tracer as tracing

    tr = tracing.Tracer()
    originals = tracing.snapshot()
    runs = []
    plain = None
    for attempt in range(2):
        tr.install()
        try:
            runs.append((run_pass(cli, ops, tr), tr.metrics(), list(tr.spans)))
        finally:
            tr.restore()
        left = tracing.changed(originals)
        if left:
            raise SystemExit(f"wrappers left installed: {left}")
        if attempt == 0:
            plain = run_pass(cli, ops)
    (first, m1, _), (second, m2, spans) = runs
    counts = [k for k in m1 if k.endswith((".calls", ".reuse"))
              or k in tracing.COUNTERS]
    mismatched = [k for k in counts if m1[k] != m2[k]]
    if mismatched:
        raise SystemExit(f"traced counts differ between two runs: {mismatched}")
    silent = [b.name for b in tracing.BOUNDARIES
              if workload in b.exercised_by and m2[f"{b.name}.calls"] == 0]
    if silent:
        raise SystemExit(f"boundaries with zero calls on {workload}: {silent}")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")
    m2["trace.overhead_ratio"] = second["wall_s"] / plain["wall_s"]
    m2["trace.wall_s"] = second["wall_s"]
    return {"passes": [plain], "traced": [first, second], "per_layer": m2}


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = _import_cli(plan["src"])
    ops = plan["ops"]
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        result = _traced(cli, ops, plan["workload"], plan["spans"])
    else:
        result = _untraced(cli, ops, plan["seconds"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
