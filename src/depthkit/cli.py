"""Command-line front end.

Commands:
  depth <name> --data F [--point "x,y" | --all]   point depths
  region <name> --alpha-list L --data F --svg OUT [--json OUT]
  order <name> --data1 F1 --data2 F2              lift set-ordering
  metric <name> --data1 F1 --data2 F2             lift semi-metric
  fdepth <graph|grid> --curves F --base <name>    curve depths
  check-postulates <name> --data F                invariance harness

``--seed`` and ``--directions`` are taken by all but ``order`` and
``metric``, whose exact regions use neither; ``--label-column`` and
``--skip-bad`` by all that read a point cloud, so not by ``fdepth``.

Every command exits 0 on success and nonzero with a single line
``error: CODE: message`` on stderr otherwise.  ``--data eu27`` loads the
bundled debt/unemployment table.  The environment variable DEPTHKIT_SEED
provides the default seed; ``--seed`` overrides it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import datasets
from .core import check_postulates
from .dataio import Dataset, load_dataset, load_curves
from .errors import DepthKitError, InvalidAlphaError
from .functional import graph_depth, grid_depth
from .registry import EvalOptions, available_depths, get_depth
from .regions import (
    DEFAULT_ALPHA_GRID,
    depth_lift,
    depth_order_leq,
    depth_semimetric,
    region_contours,
)
from .svg import document_from_contours, export_region_json, export_region_svg

_ENV_SEED = "DEPTHKIT_SEED"


def _default_seed() -> int:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_SEED} must be an integer, got {raw!r}") from None


def _add_format_flags(p: argparse.ArgumentParser):
    p.add_argument("--delimiter", default=",", help="field separator")
    p.add_argument("--no-header", action="store_true",
                   help="treat the first row as data")


def _add_io_flags(p: argparse.ArgumentParser):
    _add_format_flags(p)
    p.add_argument("--label-column", type=int, default=None,
                   help="0-based label column; -1 forces all-numeric")
    p.add_argument("--skip-bad", action="store_true",
                   help="skip malformed rows instead of failing")


def _load(path: str, args) -> Dataset:
    if path in datasets.BUNDLED and not os.path.exists(path):
        path = datasets.bundled_path(path)
    dataset = load_dataset(
        path,
        delimiter=args.delimiter,
        header=False if args.no_header else None,
        label_column=args.label_column,
        skip_bad=args.skip_bad,
    )
    for issue in dataset.skipped:
        print(f"warning: skipped {issue}", file=sys.stderr)
    return dataset


def _parse_point(text: str, d: int) -> np.ndarray:
    try:
        values = [float(c) for c in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}") from None
    if len(values) != d:
        raise ValueError(
            f"point has {len(values)} coordinates, data has dimension {d}")
    return np.array(values)


def _alpha_list(text: str) -> list[float]:
    try:
        alphas = [float(c) for c in text.split(",") if c.strip()]
    except ValueError:
        raise InvalidAlphaError(f"cannot parse alpha list {text!r}") from None
    if not alphas:
        raise InvalidAlphaError("alpha list is empty")
    return alphas


def _options(args) -> EvalOptions:
    return EvalOptions(seed=args.seed, budget=args.directions)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_depth(args) -> int:
    spec = get_depth(args.name)
    dataset = _load(args.data, args)
    cloud = dataset.cloud
    opts = _options(args)
    if args.point is not None:
        z = _parse_point(args.point, cloud.d)
        print(f"{spec.evaluate(z, cloud, opts):.9g}")
        return 0
    values = spec.evaluate_many(cloud.points, cloud, opts)
    labels = cloud.labels
    for i, v in enumerate(values):
        name = labels[i] if labels is not None else str(i)
        print(f"{name},{v:.9g}")
    return 0


def _cmd_region(args) -> int:
    spec = get_depth(args.name)
    dataset = _load(args.data, args)
    cloud = dataset.cloud
    cloud.require_dim(2)
    alphas = _alpha_list(args.alpha_list)
    contours = region_contours(cloud, spec.name, alphas,
                               options=_options(args),
                               resolution=args.resolution)
    title = args.title or f"{spec.name} regions"
    doc = document_from_contours(cloud, contours, title,
                                 show_labels=args.labels)
    export_region_svg(doc, args.svg)
    print(f"svg: {args.svg}")
    if args.json is not None:
        export_region_json(doc, args.json)
        print(f"json: {args.json}")
    return 0


def _lifts(args):
    """The lifts of both clouds; both load before either lift is built."""
    spec = get_depth(args.name)
    cloud1 = _load(args.data1, args).cloud
    cloud2 = _load(args.data2, args).cloud
    alphas = (_alpha_list(args.alpha_list) if args.alpha_list
              else DEFAULT_ALPHA_GRID)
    return (depth_lift(cloud1, spec.name, alphas),
            depth_lift(cloud2, spec.name, alphas))


def _cmd_order(args) -> int:
    lift1, lift2 = _lifts(args)
    forward = depth_order_leq(lift1, lift2)
    backward = depth_order_leq(lift2, lift1)
    if forward and backward:
        print("equal")
    elif forward:
        print("leq")
    elif backward:
        print("geq")
    else:
        print("incomparable")
    return 0


def _cmd_metric(args) -> int:
    lift1, lift2 = _lifts(args)
    print(f"{depth_semimetric(lift1, lift2):.9g}")
    return 0


def _cmd_fdepth(args) -> int:
    sample = load_curves(args.curves, dim=args.dim,
                         delimiter=args.delimiter,
                         header=False if args.no_header else None)
    opts = _options(args)
    t_indices = None
    if args.t_indices:
        t_indices = [int(c) for c in args.t_indices.split(",") if c.strip()]

    def one(curve) -> float:
        if args.kind == "graph":
            return graph_depth(curve, sample, base_depth=args.base,
                               t_indices=t_indices, options=opts)
        return grid_depth(curve, sample, t_indices=t_indices,
                          base_depth=args.base, options=opts)

    if args.index is not None:
        if not 0 <= args.index < sample.n:
            raise ValueError(
                f"curve index {args.index} out of range for n={sample.n}")
        print(f"{one(sample.curves[args.index]):.9g}")
        return 0
    for i in range(sample.n):
        print(f"{i},{one(sample.curves[i]):.9g}")
    return 0


def _cmd_check(args) -> int:
    spec = get_depth(args.name)
    dataset = _load(args.data, args)
    cloud = dataset.cloud
    variant = args.variant or spec.variant
    report = check_postulates(spec.evaluator(_options(args)), cloud,
                              variant=variant, trials=args.trials,
                              seed=args.seed, tol=args.tol)
    print(report.table())
    if not report.ok:
        failing = [c.name for c in report.checks if not c.passed]
        print(f"error: POSTULATE_VIOLATION: {', '.join(failing)}",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthkit",
        description="data depth computation: point depths, central regions, "
                    "orderings and curve depths",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    def add_eval_flags(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=seed,
                       help="seed for direction sampling")
        p.add_argument("--directions", type=int, default=1000,
                       help="direction budget for approximate depths")

    p_depth = sub.add_parser("depth", help="evaluate a depth on points")
    p_depth.add_argument("name", help=f"one of: {', '.join(available_depths())}")
    p_depth.add_argument("--data", required=True,
                         help="CSV path or bundled name (eu27)")
    group = p_depth.add_mutually_exclusive_group()
    group.add_argument("--point", help='query point "x,y"')
    group.add_argument("--all", action="store_true",
                       help="evaluate at every data point (default)")
    add_eval_flags(p_depth)
    _add_io_flags(p_depth)
    p_depth.set_defaults(func=_cmd_depth)

    p_region = sub.add_parser("region", help="compute and render level sets")
    p_region.add_argument("name")
    p_region.add_argument("--alpha-list", required=True,
                          help='comma-separated levels, e.g. "0.1,0.2"')
    p_region.add_argument("--data", required=True)
    p_region.add_argument("--svg", required=True, help="output SVG path")
    p_region.add_argument("--json", help="optional JSON output path")
    p_region.add_argument("--title", help="plot title")
    p_region.add_argument("--labels", action="store_true",
                          help="draw point labels")
    p_region.add_argument("--resolution", type=int, default=256,
                          help="grid resolution for non-exact contours")
    add_eval_flags(p_region)
    _add_io_flags(p_region)
    p_region.set_defaults(func=_cmd_region)

    p_order = sub.add_parser("order", help="compare dispersion of two clouds")
    p_order.add_argument("name")
    p_order.add_argument("--data1", required=True)
    p_order.add_argument("--data2", required=True)
    p_order.add_argument("--alpha-list", help="override the level grid")
    _add_io_flags(p_order)
    p_order.set_defaults(func=_cmd_order)

    p_metric = sub.add_parser("metric", help="lift distance of two clouds")
    p_metric.add_argument("name")
    p_metric.add_argument("--data1", required=True)
    p_metric.add_argument("--data2", required=True)
    p_metric.add_argument("--alpha-list", help="override the level grid")
    _add_io_flags(p_metric)
    p_metric.set_defaults(func=_cmd_metric)

    p_fd = sub.add_parser("fdepth", help="depths for grid-sampled curves")
    p_fd.add_argument("kind", choices=("graph", "grid"))
    p_fd.add_argument("--curves", required=True,
                      help="wide CSV: t column plus curve columns")
    p_fd.add_argument("--base", default="halfspace",
                      help="multivariate base depth")
    p_fd.add_argument("--dim", type=int, default=1,
                      help="coordinates per curve block")
    p_fd.add_argument("--index", type=int,
                      help="evaluate only this sample curve")
    p_fd.add_argument("--t-indices",
                      help="comma-separated grid positions to use")
    add_eval_flags(p_fd)
    _add_format_flags(p_fd)
    p_fd.set_defaults(func=_cmd_fdepth)

    p_check = sub.add_parser("check-postulates",
                             help="run the invariance harness on data")
    p_check.add_argument("name")
    p_check.add_argument("--data", required=True)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.add_argument("--variant",
                         choices=("affine", "isometric", "scale"),
                         help="override the registered invariance class")
    add_eval_flags(p_check)
    _add_io_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except DepthKitError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: INVALID_ARGUMENT: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
