"""Output checks of every op, run after the timed window.

Each check returns a list of problems; an op with any problem counts as
failed.  Oracles are independent numpy recomputations (closed forms for
Mahalanobis, L2 and affine L2 depth, Oja volumes, barycentric simplex
containment).  Depths are also compared with the values in
``reference.json``, recorded by ``record_reference.py`` at the commit that
added this benchmark: every depth on the bundled table, and on the seeded
clouds of the recorded seeds the depths that have no oracle here.
Postulate tables are checked row by row; a row that reports FAIL counts
as correct only when a replay of the program's harness shows it is (see
``check_postulates``).
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from workloads import BISECTED, SIZES

HERE = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-9


def load_reference(seed: int) -> dict:
    """Dataset -> depth -> recorded values for the inputs of ``seed``."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    return {"eu27": reference["eu27"], **reference["seeded"].get(str(seed), {})}


def read_cloud(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    labels = [r[0] for r in rows[1:]]
    return labels, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def _labelled_values(stdout: str, labels: list[str]) -> tuple[np.ndarray, list[str]]:
    lines = stdout.splitlines()
    problems = []
    if len(lines) != len(labels):
        return np.array([]), [f"{len(lines)} lines for {len(labels)} rows"]
    values = []
    for line, label in zip(lines, labels):
        name, _, text = line.rpartition(",")
        if name != label:
            problems.append(f"line label {name!r}, expected {label!r}")
        try:
            values.append(float(text))
        except ValueError:
            problems.append(f"not a number: {text!r}")
            values.append(math.nan)
    v = np.array(values)
    if not np.all((v >= 0.0) & (v <= 1.0)):
        problems.append("depth outside [0, 1]")
    return v, problems


# -- depth oracles ---------------------------------------------------------


def _scatter(pts: np.ndarray):
    center = pts.mean(axis=0)
    dev = pts - center
    return center, dev.T @ dev / pts.shape[0]


def oracle_mahalanobis(pts: np.ndarray) -> np.ndarray:
    center, s = _scatter(pts)
    w = pts - center
    return 1.0 / (1.0 + np.einsum("ij,jk,ik->i", w, np.linalg.inv(s), w))


def oracle_l2(pts: np.ndarray, metric: np.ndarray | None = None) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    if metric is None:
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    else:
        dist = np.sqrt(np.maximum(np.einsum("ijk,kl,ijl->ij", diff, metric, diff), 0.0))
    return 1.0 / (1.0 + dist.mean(axis=1))


def oracle_l2_affine(pts: np.ndarray) -> np.ndarray:
    return oracle_l2(pts, np.linalg.inv(_scatter(pts)[1]))


def oracle_oja(pts: np.ndarray) -> np.ndarray:
    n = pts.shape[0]
    root_det = math.sqrt(np.linalg.det(_scatter(pts)[1]))
    i, j = np.triu_indices(n, k=1)
    out = np.empty(n)
    for q in range(n):
        rel = pts - pts[q]
        area = np.abs(rel[i, 0] * rel[j, 1] - rel[i, 1] * rel[j, 0]).sum()
        out[q] = 1.0 / (1.0 + area / n**2 / root_det)
    return out


def _triangles(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tri = np.array(list(itertools.combinations(range(pts.shape[0]), 3)))
    return pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]


def _simplicial_share(a: np.ndarray, b: np.ndarray, c: np.ndarray, z) -> float:
    """Share of the closed triangles (a, b, c) that contain ``z``: the three
    orientation signs agree, a zero (``z`` on an edge or vertex) included."""
    def orient(p, q):
        return ((q[:, 0] - p[:, 0]) * (z[1] - p[:, 1])
                - (q[:, 1] - p[:, 1]) * (z[0] - p[:, 0]))

    s1, s2, s3 = orient(a, b), orient(b, c), orient(c, a)
    inside = (((s1 >= 0) & (s2 >= 0) & (s3 >= 0))
              | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0)))
    return float(inside.sum()) / a.shape[0]


def oracle_simplicial(pts: np.ndarray) -> np.ndarray:
    """Share of closed data triangles containing each data point.

    Valid for points in general position, which the seeded Gaussian clouds
    are: a data point then lies on no triangle edge but its own.
    """
    a, b, c = _triangles(pts)
    return np.array([_simplicial_share(a, b, c, z) for z in pts])


def oracle_simplicial_at(z, cloud) -> float:
    """Share of closed data triangles containing the point ``z``."""
    return _simplicial_share(*_triangles(cloud.points), np.asarray(z, dtype=float))


ORACLES = {"mahalanobis": oracle_mahalanobis, "l2": oracle_l2,
           "l2-affine": oracle_l2_affine}
SEEDED_ORACLES = {"oja": oracle_oja, "simplicial": oracle_simplicial}


def _compare(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    err = np.abs(np.asarray(got) - np.asarray(want))
    if err.shape != np.shape(want) or not np.all(err <= tol):
        worst = float(np.nanmax(err)) if err.size else math.inf
        return [f"{name} differs by {worst:.3g} (tolerance {tol:g})"]
    return []


def _lattice(values: np.ndarray, n: int) -> list[str]:
    if not np.all(np.abs(values - np.round(values * n) / n) <= TOL):
        return [f"value not a multiple of 1/{n}"]
    return []


def check_depth(op: dict, stdout: str, clouds: dict, outputs: dict,
                reference: dict) -> list[str]:
    labels, pts = clouds[op["dataset"]]
    values, problems = _labelled_values(stdout, labels)
    if problems:
        return problems
    depth, dataset = op["depth"], op["dataset"]
    n = pts.shape[0]
    if depth in ORACLES:
        problems += _compare("closed form", values, ORACLES[depth](pts), TOL)
    recorded = reference.get(dataset, {}).get(depth)
    if recorded is not None:
        tol = 1e-6 if depth in BISECTED else TOL
        problems += _compare("recorded value", values, recorded, tol)
    if dataset != "eu27" and depth in SEEDED_ORACLES:
        problems += _compare("oracle", values, SEEDED_ORACLES[depth](pts), TOL)
    if depth in ("halfspace", "random-tukey"):
        problems += _lattice(values, n)
    if depth == "random-tukey":
        # every direction is a witness, so it never undercuts the exact depth
        exact = outputs.get(f"depth:halfspace@{dataset}")
        if exact is not None and np.any(values < exact - TOL):
            problems.append("random Tukey depth below the exact halfspace depth")
    if depth == "halfspace":
        outputs[f"depth:halfspace@{dataset}"] = values
    if depth == "zonoid" and np.any(values < 1.0 / n - TOL):
        problems.append("zonoid depth of a data point below 1/n")
    return problems


# -- region documents ------------------------------------------------------


def _contains(ring: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Even-odd ray crossing test of points ``q`` (k, 2) in one ring."""
    a, b = ring, np.roll(ring, -1, axis=0)
    inside = np.zeros(q.shape[0], dtype=bool)
    if ring.shape[0] < 3:
        return inside
    for (ax, ay), (bx, by) in zip(a, b):
        crosses = (ay > q[:, 1]) != (by > q[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            x = ax + (q[:, 1] - ay) / (by - ay) * (bx - ax)
        inside ^= crosses & (q[:, 0] < x)
    return inside


def nested_problems(doc: dict) -> list[str]:
    """Rings of each level lie inside the rings of the level below it."""
    layers = sorted(doc["layers"], key=lambda lay: lay["alpha"])
    problems = []
    for lo, hi in zip(layers, layers[1:]):
        lo_rings = [np.asarray(p, dtype=float) for p in lo["polygons"]]
        for poly in hi["polygons"]:
            ring = np.asarray(poly, dtype=float)
            q = ring + 1e-6 * (ring.mean(axis=0) - ring)
            covered = np.zeros(q.shape[0], dtype=bool)
            for lr in lo_rings:
                covered |= _contains(lr, q)
            if not np.all(covered):
                problems.append(f"level {hi['alpha']:g} escapes level {lo['alpha']:g}")
                break
    return problems


def check_region(op: dict, stdout: str, clouds: dict, workdir: str) -> list[str]:
    argv = op["argv"]
    svg = argv[argv.index("--svg") + 1]
    js = argv[argv.index("--json") + 1]
    if stdout != f"svg: {svg}\njson: {js}\n":
        return [f"unexpected stdout {stdout[:80]!r}"]
    problems = []
    with open(os.path.join(workdir, svg), encoding="utf-8") as fh:
        text = fh.read()
    if not (text.startswith("<svg") and text.endswith("</svg>\n")):
        problems.append("SVG document is truncated")
    with open(os.path.join(workdir, js), encoding="utf-8") as fh:
        doc = json.load(fh)
    levels = [float(a) for a in argv[argv.index("--alpha-list") + 1].split(",")]
    if [lay["alpha"] for lay in doc["layers"]] != levels:
        problems.append("region levels differ from the requested levels")
    if not all(lay["polygons"] for lay in doc["layers"]):
        problems.append("empty region level")
    if len(doc["points"]) != clouds[op["dataset"]][1].shape[0]:
        problems.append("point count differs from the data")
    return problems + nested_problems(doc)


# -- lifts, postulates, curves ---------------------------------------------


def check_lift(op: dict, stdout: str) -> list[str]:
    text = stdout.strip()
    if op["command"] == "order":
        # the second cloud of each pair is the first scaled by 1.5 about the
        # origin, which its central regions contain (see workloads.py)
        return [] if text == "leq" else [f"order {text!r}, expected 'leq'"]
    try:
        value = float(text)
    except ValueError:
        return [f"not a number: {text!r}"]
    return [] if math.isfinite(value) and value >= 0.0 else [f"bad distance {value}"]


def _option(argv: list[str], flag: str, default, cast):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


def replay_postulates(op: dict, pts: np.ndarray, evaluate):
    """Re-run the program's postulate harness on the op's cloud with
    ``evaluate`` in place of the depth.

    Returns the table, the start point of the D4 rays, and every
    ``(point, value)`` evaluated on the original cloud after that point was
    chosen, in call order.
    """
    from depthkit import core
    from depthkit.cloud import DataCloud
    from depthkit.registry import get_depth

    argv = op["argv"]
    cloud = DataCloud(pts)
    chosen, after = [], []

    def recorded(z, c):
        value = evaluate(z, c)
        if chosen and c is cloud:
            after.append((np.array(z, dtype=float), value))
        return value

    original = core._candidate_maximizer

    def candidate(*args, **kwargs):
        chosen.append(original(*args, **kwargs))
        return chosen[-1]

    core._candidate_maximizer = candidate
    try:
        report = core.check_postulates(
            recorded, cloud,
            variant=_option(argv, "--variant", get_depth(op["depth"]).variant, str),
            trials=_option(argv, "--trials", 100, int),
            seed=_option(argv, "--seed", 0, int),
            tol=_option(argv, "--tol", 1e-9, float))
    finally:
        core._candidate_maximizer = original
    return report.table(), chosen[0], after


def ray_blocks(start: np.ndarray, calls: list) -> list[list[float]]:
    """Values along each D4 ray: a call at ``start`` opens a ray, and the
    calls after it that move outward along one direction extend it."""
    rays, direction, reach, open_ = [], None, 0.0, False
    for z, value in calls:
        off = z - start
        dist = float(np.linalg.norm(off))
        if dist == 0.0:
            rays.append([value])
            direction, reach, open_ = None, 0.0, True
            continue
        unit = off / dist
        if open_ and dist > reach and (direction is None
                                       or np.linalg.norm(unit - direction) <= 1e-9):
            rays[-1].append(value)
            direction, reach = unit, dist
        else:
            open_ = False
    return rays


def _evaluator(op: dict):
    from depthkit.registry import EvalOptions, get_depth

    argv = op["argv"]
    return get_depth(op["depth"]).evaluator(EvalOptions(
        seed=_option(argv, "--seed", 0, int),
        budget=_option(argv, "--directions", 1000, int)))


def check_postulates(op: dict, stdout: str, stderr: str, status,
                     clouds: dict, notes: list[str]) -> list[str]:
    """The table is complete and agrees with the exit status, and every row
    it reports is the correct answer.

    Sample simplicial depth is not quasiconcave, so its table must equal
    the table the harness gives with an exact oracle in place of the
    program's depth.  The other depths satisfy every postulate, so their
    rows must pass, with one exception: D4 probes rays from a grid
    candidate for the deepest point, and on a quasiconcave depth it can
    fail only when a ray holds a point deeper than that candidate.  A D4
    FAIL is replayed and counts as correct only when every failing ray
    holds such a point.  Each FAIL row that counts as correct is added to
    ``notes``.
    """
    lines = stdout.splitlines()
    if len(lines) != 7 or not lines[-1].startswith("overall "):
        return ["postulate table is incomplete"]
    names, failing = [], []
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) < 3 or parts[1] not in ("pass", "FAIL"):
            return [f"malformed table row {line!r}"]
        names.append(parts[0])
        if parts[1] == "FAIL":
            failing.append(parts[0])
    if [n[:2] for n in names] != ["D1", "D2", "D3", "D4", "D4", "D5"]:
        return [f"unexpected checks {names}"]
    verdict = lines[-1].split()[1]
    problems = []
    if (verdict == "pass") != (not failing) or (status == 0) != (not failing):
        problems.append("verdict, rows and exit status disagree")
    if failing and f"POSTULATE_VIOLATION: {', '.join(failing)}" not in stderr:
        problems.append("violation message does not name the failing checks")
    pts = clouds[op["dataset"]][1]
    if op["depth"] == "simplicial":
        table, _, _ = replay_postulates(op, pts, oracle_simplicial_at)
        if table != stdout.rstrip("\n"):
            return problems + ["table differs from the exact-oracle replay"]
        notes += [f"{name} FAIL reproduced by the exact oracle" for name in failing]
        return problems
    unexplained = [name for name in failing if name != "D4"]
    if unexplained:
        problems.append(f"overall FAIL: {', '.join(unexplained)}")
    if "D4" in failing:
        tol = _option(op["argv"], "--tol", 1e-9, float)
        table, start, after = replay_postulates(op, pts, _evaluator(op))
        rising = [r for r in ray_blocks(start, after)
                  if max((b - a for a, b in zip(r, r[1:])), default=0.0) > tol]
        if table != stdout.rstrip("\n"):
            problems.append("D4 replay gives another table")
        elif not rising:
            problems.append("D4 replay found no rising ray")
        elif any(max(r) <= r[0] + tol for r in rising):
            problems.append("overall FAIL: D4 rises on a ray with no point "
                            "deeper than its start")
        else:
            notes.append("D4 FAIL from a start point that is not the deepest")
    return problems


def check_fdepth(op: dict, stdout: str) -> list[str]:
    """One value (``--index``) or one ``i,value`` line per curve."""
    n = SIZES[op["dataset"]]
    lines = stdout.splitlines()
    if "--index" in op["argv"]:
        if len(lines) != 1:
            return [f"{len(lines)} lines for one curve"]
        texts = lines
    else:
        if [line.partition(",")[0] for line in lines] != [str(i) for i in range(n)]:
            return [f"{len(lines)} curve lines for {n} curves"]
        texts = [line.partition(",")[2] for line in lines]
    try:
        values = np.array([float(t) for t in texts])
    except ValueError:
        return ["not a number"]
    if not np.all((values >= 0.0) & (values <= 1.0)):
        return ["depth outside [0, 1]"]
    if "projection" not in op["depth"]:
        return _lattice(values, n)
    return []


def check_op(op: dict, status, stdout: str, stderr: str, clouds: dict,
             outputs: dict, reference: dict, workdir: str) -> list[str]:
    """Problems with one op's result; empty when it is correct."""
    command = op["command"]
    if command == "check-postulates":
        if status not in (0, 3):
            return [f"exit status {status}: {stderr.strip()[-200:]}"]
        return check_postulates(op, stdout, stderr, status, clouds,
                                outputs.setdefault("notes", {}).setdefault(op["name"], []))
    if status != 0:
        return [f"exit status {status}: {stderr.strip()[-200:]}"]
    if command == "depth":
        return check_depth(op, stdout, clouds, outputs, reference)
    if command == "region":
        return check_region(op, stdout, clouds, workdir)
    if command in ("order", "metric"):
        return check_lift(op, stdout)
    if command == "fdepth":
        return check_fdepth(op, stdout)
    return [f"no check for {command}"]
