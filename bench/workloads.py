"""Seeded inputs and the fixed command lists of the three workloads.

Every workload is a list of ``Op``: a stable name of the form
``<workload>/<command>:<depth>@<dataset>`` and the argv handed to
``depthkit.cli.main``.  The program sees only the CSV files written by
``write_inputs`` and the bundled ``eu27`` table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

ALL_DEPTHS = ("echstar", "geometric", "halfspace", "l2", "l2-affine",
              "mahalanobis", "oja", "projection", "random-tukey",
              "simplicial", "zonoid")
# the depths whose cost stays within seconds for every row of n=400
SCALABLE_DEPTHS = ("halfspace", "projection", "random-tukey", "oja", "l2",
                   "l2-affine", "mahalanobis")
LIFT_DEPTHS = ("mahalanobis", "zonoid", "echstar", "geometric")
# weighted-mean depths evaluated by bisection on the depth level
BISECTED = ("echstar", "geometric")
EXACT_REGION_DEPTHS = ("mahalanobis", "zonoid", "echstar", "geometric")

TENTHS = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
LIFT_LEVELS = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
# Traced ladders on eu27: levels sit below the largest depth of each field
# (simplicial tops out near 0.27 on the 256-cell grid, L2 near 0.034).
TRACED_LADDERS = {
    "projection": "0.1,0.2,0.3,0.4",
    "simplicial": "0.05,0.1,0.15,0.2,0.25",
    "oja": "0.2,0.3,0.4,0.5,0.6",
    "l2": "0.01,0.015,0.02,0.025,0.03",
    "l2-affine": "0.1,0.2,0.3,0.4",
}

WORKLOADS = ("depth-all", "regions", "audit")

# points (or curves) per dataset named in op names; eu27 has n=27
SIZES = {"eu27": 27, "g80": 80, "g400": 400, "pair12": 12, "pair40": 40,
         "post10": 10, "walk2d": 30, "walk1d": 40}


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    command: str
    depth: str
    dataset: str


def _rng(seed: int, tag: str) -> np.random.Generator:
    # one independent stream per input file, so inputs do not shift when
    # another file changes size
    return np.random.default_rng([seed, sum(ord(c) << (8 * i)
                                            for i, c in enumerate(tag))])


def _cloud_csv(points: np.ndarray, prefix: str) -> str:
    lines = ["label,x,y"]
    for i, (x, y) in enumerate(points):
        lines.append(f"{prefix}{i:03d},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def _curves_csv(t: np.ndarray, curves: np.ndarray) -> str:
    n, k, d = curves.shape
    header = ["t"] + [f"c{i}_{j}" for i in range(n) for j in range(d)]
    lines = [",".join(header)]
    for row in range(k):
        cells = [repr(float(t[row]))]
        cells += [repr(float(curves[i, row, j]))
                  for i in range(n) for j in range(d)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _gaussian(seed: int, tag: str, n: int) -> np.ndarray:
    g = _rng(seed, tag)
    mix = np.array([[2.0, 0.0], [0.7, 1.0]])
    return g.standard_normal((n, 2)) @ mix.T + [10.0, 5.0]


def _scaled_pair(seed: int, tag: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    # the second cloud is the first, centred, scaled by 1.5 about the origin:
    # its central regions are the first's scaled by 1.5, so every lift slice
    # nests and ``order`` must answer "leq"; the comparison's cost then does
    # not swing with how two unrelated random clouds happen to overlap
    a = _gaussian(seed, tag, n)
    a = a - a.mean(axis=0)
    return a, 1.5 * a


def _walks(seed: int, tag: str, n: int, k: int, d: int) -> np.ndarray:
    steps = _rng(seed, tag).standard_normal((n, k, d))
    return np.cumsum(steps, axis=1)


def input_texts(seed: int) -> dict[str, str]:
    """File name -> CSV text of every seeded input, a pure function of seed."""
    texts = {
        "g80.csv": _cloud_csv(_gaussian(seed, "g80", 80), "g"),
        "g400.csv": _cloud_csv(_gaussian(seed, "g400", 400), "g"),
        "post10.csv": _cloud_csv(_gaussian(seed, "post10", 10), "p"),
    }
    for n in (12, 40):
        a, b = _scaled_pair(seed, f"pair{n}", n)
        texts[f"pair{n}a.csv"] = _cloud_csv(a, "a")
        texts[f"pair{n}b.csv"] = _cloud_csv(b, "b")
    t2, t1 = np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 20)
    texts["walk2d.csv"] = _curves_csv(t2, _walks(seed, "walk2d", 30, 10, 2))
    texts["walk1d.csv"] = _curves_csv(t1, _walks(seed, "walk1d", 40, 20, 1))
    return texts


def write_inputs(seed: int, workdir: str) -> dict[str, str]:
    """Write the seeded inputs under ``workdir/in``; return dataset name ->
    path relative to ``workdir`` (or ``eu27``)."""
    os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
    paths = {"eu27": "eu27"}
    for fname, text in input_texts(seed).items():
        path = os.path.join("in", fname)
        with open(os.path.join(workdir, path), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        paths[fname[:-4]] = path
    return paths


def _halfspace_levels(n: int) -> str:
    # k/n up to just below the centerpoint level ceil(n/3)/n, which every
    # cloud reaches, so each requested level is a region with area
    top = -(-n // 3) - 1
    ks = np.unique(np.linspace(2, top, 9).round().astype(int))
    return ",".join(repr(int(k) / n) for k in ks)


def ops_for(workload: str, paths: dict[str, str]) -> list[Op]:
    """The workload's command list, in execution order.

    Paths are relative to the working directory the ops run in; region
    documents go to its ``out`` directory.
    """
    ops: list[Op] = []

    def add(command: str, depth: str, dataset: str, argv: list[str]):
        name = f"{workload}/{command}:{depth}@{dataset}"
        ops.append(Op(name, tuple(argv), command, depth, dataset))

    if workload == "depth-all":
        for dataset, depths in (("eu27", ALL_DEPTHS), ("g80", ALL_DEPTHS),
                                ("g400", SCALABLE_DEPTHS)):
            for depth in depths:
                add("depth", depth, dataset,
                    ["depth", depth, "--data", paths[dataset], "--all",
                     "--seed", "0"])
    elif workload == "regions":
        # region ladders drawn, then exact regions lifted and compared
        def region(depth: str, dataset: str, levels: str):
            stem = os.path.join("out", f"{depth}-{dataset}")
            add("region", depth, dataset,
                ["region", depth, "--data", paths[dataset],
                 "--alpha-list", levels, "--svg", stem + ".svg",
                 "--json", stem + ".json", "--seed", "0"])

        for depth, levels in TRACED_LADDERS.items():
            region(depth, "eu27", levels)
        for dataset in ("eu27", "g80"):
            for depth in EXACT_REGION_DEPTHS:
                region(depth, dataset, TENTHS)
            region("halfspace", dataset, _halfspace_levels(SIZES[dataset]))
        for depth in LIFT_DEPTHS:
            for command in ("metric", "order"):
                add(command, depth, "pair12",
                    [command, depth, "--data1", paths["pair12a"],
                     "--data2", paths["pair12b"], "--alpha-list", LIFT_LEVELS])
        for depth in ("zonoid", "mahalanobis"):
            add("order", depth, "pair40",
                ["order", depth, "--data1", paths["pair40a"],
                 "--data2", paths["pair40b"]])
    elif workload == "audit":
        for depth in ALL_DEPTHS:
            # the harness tolerance of the bisected depths is the 1e-6 to
            # which their values are checked everywhere else: their bracket
            # moves by one bisection step, 2**-20, under a translation
            tol = ["--tol", "1e-6"] if depth in BISECTED else []
            add("check-postulates", depth, "post10",
                ["check-postulates", depth, "--data", paths["post10"],
                 "--trials", "10", "--seed", "0"] + tol)
        add("fdepth", "graph.projection", "walk2d",
            ["fdepth", "graph", "--curves", paths["walk2d"], "--dim", "2",
             "--base", "projection", "--seed", "0"])
        add("fdepth", "grid.halfspace", "walk2d",
            ["fdepth", "grid", "--curves", paths["walk2d"], "--dim", "2",
             "--index", "0", "--seed", "0"])
        add("fdepth", "graph.halfspace", "walk1d",
            ["fdepth", "graph", "--curves", paths["walk1d"], "--seed", "0"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
