"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each boundary function or method of
``depthkit`` with a wrapper that records a span (name, start, end, parent)
and restores every original on ``restore``.  A function imported by name
into other modules is replaced under every alias, because the wrapper is
put wherever the original object is found.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

MODULES = ("cli", "dataio", "registry", "metric", "combinatorial", "rng",
           "weighted", "lp", "regions", "geometry", "core", "cloud",
           "functional", "svg", "datasets", "errors")


def _cloud_key(cloud) -> bytes:
    return hashlib.blake2b(cloud.points.tobytes(), digest_size=16).digest()


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: the public callables that enter it.

    ``targets`` are ``module:attr`` or ``module:Class.method``.  ``key``
    maps the call's arguments to a hashable input identity, which gives the
    boundary a ``reuse`` ratio.  ``span`` False records a call count only.
    """

    name: str
    targets: tuple[str, ...]
    exercised_by: tuple[str, ...]
    key: Callable | None = None
    span: bool = True


BOUNDARIES = (
    Boundary("cli.main", ("cli:main",), ("depth-all",)),
    Boundary("dataio.load", ("dataio:load_dataset", "dataio:load_curves"),
             ("depth-all", "audit")),
    Boundary("dataio.write", ("dataio:atomic_write_text",), ("regions",)),
    Boundary("registry.dispatch",
             ("registry:DepthSpec.evaluate", "registry:DepthSpec.evaluate_many",
              "registry:DepthSpec.evaluator"),
             ("depth-all", "audit")),
    Boundary("metric.projection_index", ("metric:ProjectionIndex.__init__",),
             ("depth-all", "audit"),
             key=lambda self, cloud, budget, seed: (_cloud_key(cloud), budget, seed)),
    Boundary("metric.outlyingness", ("metric:ProjectionIndex.outlyingness",),
             ("depth-all", "regions")),
    Boundary("metric.oja", ("metric:oja_depth", "metric:oja_depth_many"),
             ("depth-all", "regions")),
    Boundary("metric.scatter", ("metric:ScatterEstimator.estimate",),
             ("depth-all", "audit"),
             key=lambda self, cloud: (self.name, _cloud_key(cloud))),
    Boundary("combinatorial.sweep", ("combinatorial:halfspace_depth_2d",),
             ("depth-all",)),
    Boundary("combinatorial.simplicial",
             ("combinatorial:simplicial_depth", "combinatorial:simplicial_depth_many"),
             ("depth-all", "regions")),
    Boundary("combinatorial.random_tukey", ("combinatorial:random_tukey_depth",),
             ("depth-all", "audit")),
    Boundary("combinatorial.tukey_region", ("combinatorial:tukey_region_2d",),
             ("regions",)),
    Boundary("rng.unit_directions", ("rng:unit_directions",),
             ("depth-all", "audit"),
             key=lambda dim, count, seed: (dim, count, seed)),
    Boundary("weighted.wm_depth", ("weighted:wm_depth",), ("depth-all",)),
    Boundary("weighted.wm_region", ("weighted:wm_region_2d",),
             ("regions",)),
    Boundary("weighted.zonoid", ("weighted:zonoid_depth",), ("depth-all", "audit")),
    Boundary("lp.solve", ("lp:solve_lp",), ("depth-all", "audit")),
    Boundary("regions.contours", ("regions:region_contours",), ("regions",)),
    Boundary("regions.marching_squares", ("regions:marching_squares",),
             ("regions",)),
    Boundary("regions.lift", ("regions:depth_lift",), ("regions",)),
    Boundary("regions.compare",
             ("regions:depth_order_leq", "regions:depth_semimetric"),
             ("regions",)),
    Boundary("geometry.convex_hull", ("geometry:convex_hull",),
             ("regions",)),
    Boundary("geometry.contains_region", ("geometry:ConvexRegion.contains_region",),
             ("regions",)),
    Boundary("geometry.hausdorff", ("geometry:ConvexRegion.hausdorff",),
             ("regions",)),
    Boundary("geometry.clip", ("geometry:clip_polygon_halfplane",),
             ("regions",)),
    Boundary("core.postulates", ("core:check_postulates",), ("audit",)),
    Boundary("cloud.construct", ("cloud:DataCloud.__init__",),
             ("depth-all", "audit"), span=False),
    Boundary("functional.graph", ("functional:graph_depth",), ("audit",)),
    Boundary("functional.grid", ("functional:grid_depth",), ("audit",)),
    Boundary("svg.render", ("svg:render_svg",), ("regions",)),
    Boundary("svg.json", ("svg:document_payload",), ("regions",)),
)

# boundaries whose per-call time is fitted against the cloud size n
SCALING = ("weighted.wm_depth", "lp.solve", "combinatorial.sweep",
           "combinatorial.simplicial", "metric.projection_index")
# counters filled by hooks, named like per-layer metrics
COUNTERS = ("regions.grid.cells", "dataio.write.bytes",
            "core.postulates.violations")


def _modules() -> dict[str, object]:
    """The package and every submodule, which may hold aliases."""
    mods = {m: importlib.import_module(f"depthkit.{m}") for m in MODULES}
    mods["__init__"] = importlib.import_module("depthkit")
    return mods


def _resolve(target: str):
    """(owner, attribute, original) for ``module:attr`` or ``module:Cls.meth``."""
    mod_name, path = target.split(":")
    owner = importlib.import_module(f"depthkit.{mod_name}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    keys: set = field(default_factory=set)
    # cloud size n -> [calls, inclusive seconds]
    by_n: dict = field(default_factory=dict)


class Tracer:
    """Records spans at every boundary while installed."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, Stats] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.current_n = 0
        self.current_op = ""

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def reset(self):
        self.stats = {b.name: Stats() for b in BOUNDARIES}
        self.counters = {c: 0 for c in COUNTERS}
        self.spans = []
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str):
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)  # reserved; filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, idx = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans[idx] = (name, start, end,
                           parent[3] if parent is not None else -1,
                           self.current_op)
        st = self.stats[name]
        st.calls += 1
        st.self_s += dur - child_s
        rec = st.by_n.setdefault(self.current_n, [0, 0.0])
        rec[0] += 1
        rec[1] += dur

    def _in_span(self, name: str) -> bool:
        return any(f[0] == name for f in self._stack)

    def _wrap(self, boundary: Boundary, fn):
        name = boundary.name
        key = boundary.key
        tracer = self

        if not boundary.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.stats[name].calls += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                tracer.stats[name].keys.add(key(*args, **kwargs))
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
        return traced

    def _hooked(self, target: str, fn):
        """Extra counters that need a boundary's arguments or result."""
        tracer = self
        if target == "registry:DepthSpec.evaluate_many":
            @functools.wraps(fn)
            def many(spec, zs, *args, **kwargs):
                if tracer._in_span("regions.contours"):
                    tracer.counters["regions.grid.cells"] += len(zs)
                return fn(spec, zs, *args, **kwargs)
            return many
        if target == "dataio:atomic_write_text":
            @functools.wraps(fn)
            def write(path, text):
                tracer.counters["dataio.write.bytes"] += len(text.encode("utf-8"))
                return fn(path, text)
            return write
        if target == "core:check_postulates":
            @functools.wraps(fn)
            def check(*args, **kwargs):
                report = fn(*args, **kwargs)
                tracer.counters["core.postulates.violations"] += sum(
                    not c.passed for c in report.checks)
                return report
            return check
        if target == "registry:DepthSpec.evaluator":
            # the returned closure skips DepthSpec.evaluate, so the dispatch
            # span goes around the closure, not around evaluator() itself
            boundary = next(b for b in BOUNDARIES if b.name == "registry.dispatch")

            @functools.wraps(fn)
            def evaluator(*args, **kwargs):
                return tracer._wrap(boundary, fn(*args, **kwargs))
            return evaluator
        return fn

    # -- install / restore -------------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = _modules()
        for boundary in BOUNDARIES:
            for target in boundary.targets:
                owner, attr, original = _resolve(target)
                wrapped = self._hooked(target, original)
                if target != "registry:DepthSpec.evaluator":
                    wrapped = self._wrap(boundary, wrapped)
                if isinstance(owner, type):
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                # a module-level function: replace it under every alias
                for mod in modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, name, original))
                            setattr(mod, name, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``reset``."""
        out: dict[str, float] = {}
        for b in BOUNDARIES:
            st = self.stats[b.name]
            out[f"{b.name}.calls"] = st.calls
            if b.span:
                out[f"{b.name}.self_s"] = st.self_s
            if b.key is not None:
                out[f"{b.name}.reuse"] = len(st.keys) / st.calls if st.calls else 1.0
        for name in SCALING:
            out[f"{name}.exp"] = scaling_exponent(self.stats[name].by_n)
        out.update(self.counters)
        return out


def scaling_exponent(by_n: dict) -> float:
    """Least-squares slope of log(ms per call) against log(n); 0 if < 2 sizes."""
    pts = [(math.log(n), math.log(1e3 * s / c))
           for n, (c, s) in by_n.items() if n > 0 and c > 0 and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of every depthkit module and of its classes."""
    snap = {}
    for mod_name, mod in _modules().items():
        for name, value in vars(mod).items():
            snap[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod_name, f"{name}.{attr}")] = member
    return snap


def changed(before: dict) -> list:
    """Snapshot keys whose value is no longer the identical object.

    Attributes added since (a submodule imported on first use, such as
    ``depthkit.data``) are not changes: wrappers only replace.
    """
    after, missing = snapshot(), object()
    return sorted(k for k in before if after.get(k, missing) is not before[k])
