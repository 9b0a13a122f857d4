"""Self-tests of the benchmark harness (not of depthkit itself)."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
if os.path.isdir(os.path.join(ROOT, "src")):
    sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.restore()


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    tr = tracing.Tracer()
    tr.reset()
    produced = set(tr.metrics()) | {"trace.overhead_ratio", "trace.wall_s"}
    declared = [m["name"] for m in bench["per_layer"]]
    assert set(declared) == produced
    names = declared + [m["name"] for m in bench["end_to_end"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_self_time_sums_within_traced_wall(tmp_path, tracer):
    import depthkit.cli as cli

    paths = workloads.write_inputs(3, str(tmp_path))
    os.makedirs(tmp_path / "out")
    ops = [{"name": f"op{i}", "n": 27, "argv": argv} for i, argv in enumerate([
        ["depth", "zonoid", "--data", "eu27", "--all"],
        ["depth", "random-tukey", "--data", "eu27", "--all", "--directions", "50"],
        ["region", "halfspace", "--data", "eu27", "--alpha-list", "0.1,0.2",
         "--svg", str(tmp_path / "out" / "h.svg")],
        ["order", "zonoid", "--data1", os.path.join(tmp_path, paths["pair12a"]),
         "--data2", os.path.join(tmp_path, paths["pair12b"]),
         "--alpha-list", "0.5,1.0"],
    ])]
    result = worker.run_pass(cli, ops, tracer)
    assert result["status"] == [0, 0, 0, 0]
    metrics = tracer.metrics()
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= result["wall_s"]
    assert metrics["cli.main.calls"] == 4
    assert metrics["lp.solve.calls"] == 27


def test_wrappers_cover_every_alias(tracer):
    from depthkit import combinatorial, functional, lp, rng, weighted
    from depthkit.cloud import DataCloud
    from depthkit.registry import get_depth

    assert combinatorial.unit_directions is functional.unit_directions
    assert combinatorial.unit_directions is rng.unit_directions
    assert weighted.solve_lp is lp.solve_lp
    assert combinatorial.feasible is lp.feasible
    cloud = DataCloud(np.random.default_rng(0).standard_normal((8, 2)))
    call = get_depth("random-tukey").evaluator()
    call(np.zeros(2), cloud)
    call(np.ones(2), cloud)
    metrics = tracer.metrics()
    assert metrics["registry.dispatch.calls"] == 2
    assert metrics["rng.unit_directions.calls"] == 2
    assert metrics["rng.unit_directions.reuse"] == 0.5


def test_restore_leaves_modules_identical():
    before = tracing.snapshot()
    tr = tracing.Tracer()
    tr.install()
    try:
        changed = tracing.changed(before)
        assert ("rng", "unit_directions") in changed
        assert ("functional", "unit_directions") in changed
        assert ("registry", "DepthSpec.evaluator") in changed
    finally:
        tr.restore()
    assert tracing.changed(before) == []


def _digest(seed: int) -> str:
    h = hashlib.sha256()
    for name, text in sorted(workloads.input_texts(seed).items()):
        h.update(name.encode() + b"\0" + text.encode())
    return h.hexdigest()


def test_inputs_are_a_function_of_the_seed(tmp_path):
    first = workloads.write_inputs(5, str(tmp_path / "a"))
    second = workloads.write_inputs(5, str(tmp_path / "b"))
    assert first == second
    for rel in first.values():
        if rel.endswith(".csv"):
            a = (tmp_path / "a" / rel).read_bytes()
            assert a == (tmp_path / "b" / rel).read_bytes()
    # a fresh interpreter recomputes the same digest
    script = ("import hashlib, sys\n"
              f"sys.path.insert(0, {BENCH!r})\n"
              "import workloads\n"
              "h = hashlib.sha256()\n"
              "for name, text in sorted(workloads.input_texts(5).items()):\n"
              "    h.update(name.encode() + b'\\0' + text.encode())\n"
              "print(h.hexdigest())\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == _digest(5)
    assert _digest(5) != _digest(6)


def _run_check(argv: list[str], tmp_path, seed: int) -> tuple[list[str], list[str]]:
    import contextlib
    import io

    import depthkit.cli as cli

    paths = workloads.write_inputs(seed, str(tmp_path))
    argv = [os.path.join(tmp_path, a) if a == paths["post10"] else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    op = {"name": "op", "command": "check-postulates", "depth": argv[1],
          "dataset": "post10", "argv": argv}
    clouds = {"post10": checks.read_cloud(os.path.join(tmp_path, paths["post10"]))}
    outputs = {"notes": {}}
    found = checks.check_op(op, status, out.getvalue(), err.getvalue(), clouds,
                            outputs, {}, str(tmp_path))
    return found, outputs["notes"].get("op", [])


POSTULATES = ["check-postulates", "simplicial", "--data", "in/post10.csv",
              "--trials", "10", "--seed", "0"]


def test_simplicial_table_must_match_the_exact_oracle(tmp_path, monkeypatch):
    # seed 1: sample simplicial depth really violates D4con on this cloud
    found, notes = _run_check(POSTULATES, tmp_path, 1)
    assert found == []
    assert notes == ["D4con FAIL reproduced by the exact oracle"]
    # a simplicial depth that is off by one triangle no longer matches
    from depthkit import combinatorial

    real = combinatorial.simplicial_depth
    monkeypatch.setattr(combinatorial, "simplicial_depth",
                        lambda z, cloud: min(1.0, real(z, cloud) + 1 / 120))
    found, _ = _run_check(POSTULATES, tmp_path, 1)
    assert found == ["table differs from the exact-oracle replay"]


def test_violated_postulate_fails_the_op(tmp_path, monkeypatch):
    argv = ["check-postulates", "mahalanobis"] + POSTULATES[2:]
    assert _run_check(argv, tmp_path, 1) == ([], [])
    # a depth that is not translation invariant fails D1 and the op
    from depthkit import metric

    real = metric.mahalanobis_depth
    monkeypatch.setattr(metric, "mahalanobis_depth", lambda z, cloud, *a, **k:
                        real(z, cloud) * (1.0 - 1e-6 * abs(cloud.mean[0])))
    found, notes = _run_check(argv, tmp_path, 1)
    assert found and found[-1].startswith("overall FAIL: D1")
    assert notes == []


def test_d4_rays_are_split_at_their_start():
    start = np.array([1.0, 1.0])
    calls = [(start, 0.5), (start + [0.1, 0], 0.4), (start + [0.2, 0], 0.45),
             (start, 0.5), (start + [0, 0.1], 0.3), (np.array([5.0, 7.0]), 0.1),
             (start + [0, 0.2], 0.2)]
    assert checks.ray_blocks(start, calls) == [[0.5, 0.4, 0.45], [0.5, 0.3]]
