"""Benchmark of the depthkit command line on three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload depth-all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``depth-all``, ``regions`` and ``audit``.
The load is a closed loop with one client:
the workload's commands run one after another through
``depthkit.cli.main`` in one fresh Python process: one whole pass over
the list, then single ops again, costliest first, while the next one is
expected to end within ``--seconds``.  ``wall_s`` is the sum over the ops
of each op's fastest time in the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, wall_s, peak_rss_mb); with ``--trace 1`` it carries
the per-layer metrics of a traced pass, timed from this directory's
wrappers around each module's public functions.  Every op's output is
checked after the timed window.  Earlier lines print provenance, one line
per op, and an ``info`` line with the fail ratio and the median op latency
(op_p50_ms), which is reported but not bounded: on short, heterogeneous
command lists it jumps between neighbouring ops whose cost depends on the
seeded data.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11
# the worker's allowance: the first pass may overrun --seconds, the traced passes
# are three
TIMEOUT_BASE_S, TIMEOUT_PER_SECOND = 60, 3
WORK_DIR = ".bench_work"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("DEPTHKIT_SEED", None)  # ops pass --seed explicitly
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from interpreter start until ``import depthkit.cli`` returns."""
    code = "import time, depthkit.cli; print(repr(time.monotonic()))"
    out = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import depthkit.cli failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip()) - start)
    return out


# -- provenance ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "depthkit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".csv")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(root: str, src: str, args, ops: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(src),
        "op_count": len(ops),
    }


# -- one run ---------------------------------------------------------------


def run_worker(plan: dict, workdir: str, env: dict[str, str]) -> dict:
    timeout = TIMEOUT_BASE_S + TIMEOUT_PER_SECOND * plan["seconds"]
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             plan_path, result_path], env=env,
                            cwd=workdir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload did not finish in {timeout:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {(out + err).strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_passes(ops: list[dict], result: dict, clouds: dict,
                 workdir: str, seed: int) -> tuple[list[list[str]], dict]:
    """Problems per op (output checks on the first pass, equality in every
    other pass and repeat), and op name -> postulate rows that report FAIL
    correctly."""
    reference = checks.load_reference(seed)
    outputs: dict = {"notes": {}}
    first = result["passes"][0]
    again = [(i, p["stdout"][i], p["status"][i])
             for p in result["passes"][1:] + result.get("traced", [])
             for i in range(len(ops))]
    again += [(r["op"], r["stdout"], r["status"]) for r in result.get("repeats", [])]
    problems = []
    for i, op in enumerate(ops):
        found = checks.check_op(op, first["status"][i], first["stdout"][i],
                                first["stderr"][i], clouds, outputs, reference,
                                workdir)
        if any(k == i and (out, status) != (first["stdout"][i], first["status"][i])
               for k, out, status in again):
            found.append("output differs between runs of the op")
        problems.append(found)
    return problems, {k: v for k, v in outputs["notes"].items() if v}


def op_samples(result: dict, i: int) -> list[float]:
    """Every untraced timing of op ``i``."""
    return ([p["op_s"][i] for p in result["passes"]]
            + [r["s"] for r in result.get("repeats", []) if r["op"] == i])


def end_to_end(setup: list[float], result: dict) -> dict:
    # the command list's wall time: each op at its fastest in the run, as
    # the host can stall one run of an op for several times its cost
    ops = range(len(result["passes"][0]["op_s"]))
    wall = sum(min(op_samples(result, i)) for i in ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def run(args) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "depthkit", "cli.py")):
        raise BenchError(f"no depthkit sources under {src}")
    env = child_env(src)
    # the postulate checks replay the program's harness in this process
    sys.path.insert(0, src)
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "out"))
    try:
        paths = workloads.write_inputs(args.seed, workdir)
        ops = [{"name": op.name, "argv": list(op.argv), "command": op.command,
                "depth": op.depth, "dataset": op.dataset,
                "n": workloads.SIZES[op.dataset]}
               for op in workloads.ops_for(args.workload, paths)]
        prov = provenance(root, src, args, ops)
        setup = [] if args.trace else measure_setup(env)
        spans = os.path.join(root, WORK_DIR, f"spans-{args.workload}.jsonl")
        plan = {"src": src, "ops": ops, "seconds": args.seconds,
                "trace": bool(args.trace), "workload": args.workload,
                "spans": spans}
        result = run_worker(plan, workdir, env)
        clouds = {name: checks.read_cloud(os.path.join(workdir, path))
                  for name, path in paths.items()
                  if path.endswith(".csv") and not name.startswith("walk")}
        clouds["eu27"] = checks.read_cloud(
            os.path.join(src, "depthkit", "data", "eu27.csv"))
        problems, notes = check_passes(ops, result, clouds, workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    traced = len(result.get("traced", []))
    runs = [len(op_samples(result, i)) + traced for i in range(len(ops))]
    attempted = sum(runs)
    failed = sum(k for k, p in zip(runs, problems) if p)
    if args.trace:
        metrics = {k: (v, _unit(k)) for k, v in result["per_layer"].items()}
    else:
        metrics = end_to_end(setup, result)
    info = {"fail_ratio": failed / attempted, "op_count": len(ops),
            "postulate_fail_rows": sum(len(v) for v in notes.values()),
            "op_p50_ms": 1e3 * statistics.median(
                t for i in range(len(ops)) for t in op_samples(result, i))}
    return {"provenance": prov, "info": info, "ops": ops, "problems": problems,
            "notes": notes,
            "op_s": [op_samples(result, i) for i in range(len(ops))],
            "setup_s": setup, "peak_rss_mb": result["peak_rss_mb"],
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".exp"):
        return "slope"
    if name.endswith((".reuse", "_ratio")):
        return "ratio"
    return "count"


def report(res: dict) -> None:
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    for i, op in enumerate(res["ops"]):
        ms = 1e3 * statistics.median(res["op_s"][i])
        verdict = "ok" if not res["problems"][i] else "FAIL " + "; ".join(res["problems"][i])
        if op["name"] in res["notes"]:
            verdict += " (" + "; ".join(res["notes"][op["name"]]) + ")"
        print(f"op {op['name']} {ms:.3f} ms {verdict} argv={json.dumps(op['argv'])}")
    failed, attempted = res["failed"], res["attempted"]
    print("info " + json.dumps(res["info"], sort_keys=True))
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(f"op_p50_ms {res['info']['op_p50_ms']:.6g} ms ({len(res['ops'])} ops)")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        res = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(os.getcwd(), WORK_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    report(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
