"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and records a single
``[acceptance] ...`` verdict line; conftest prints the collected lines in
the terminal summary, so a full run doubles as a checklist.  Tolerances are
pinned in the assertions.  Frozen numbers come from the independent oracles
in the unit test files or from hand calculations on the bundled data; none
were read back from the code under test.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_cloud
from test_combinatorial import halfspace_oracle, simplicial_oracle

from depthkit import DataCloud
from depthkit.cli import main as cli_main
from depthkit.combinatorial import (
    halfspace_depth,
    halfspace_depth_2d,
    random_tukey_depth,
    simplicial_depth,
)
from depthkit.core import check_postulates
from depthkit.functional import (
    FunctionalSample,
    evaluation_functionals,
    graph_depth,
    grid_depth,
    phi_depth,
)
from depthkit.geometry import ConvexRegion
from depthkit.metric import mahalanobis_depth, oja_depth_many, projection_depth
from depthkit.regions import Ring, region_contours
from depthkit.registry import EvalOptions, available_depths, get_depth
from depthkit.weighted import ECH_STAR, GEOMETRIC, ZONOID, wm_depth, wm_region, zonoid_depth


VERDICTS: list[str] = []


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        VERDICTS.append(f"[acceptance] {tag}: FAIL")
        raise
    VERDICTS.append(f"[acceptance] {tag}: PASS")


# ---------------------------------------------------------------------------
# 1. central point of the bundled data
# ---------------------------------------------------------------------------


def test_c01_bundled_central_point(eu_cloud):
    with criterion("C01 bundled-data central point"):
        labels = list(eu_cloud.labels)
        hungary = eu_cloud.points[labels.index("Hungary")]
        assert np.allclose(hungary, (80.6, 10.9))
        t0 = time.perf_counter()
        value = mahalanobis_depth(hungary, eu_cloud)
        elapsed = time.perf_counter() - t0
        assert value > 0.8
        assert value == pytest.approx(0.820536759094, abs=1e-9)
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. outlier ranking of the bundled data
# ---------------------------------------------------------------------------


def test_c02_bundled_outlier_ranking(eu_cloud):
    with criterion("C02 bundled-data outlier ranking"):
        labels = list(eu_cloud.labels)
        t0 = time.perf_counter()
        proj = projection_depth(eu_cloud.points, eu_cloud,
                                direction_budget=10000, seed=0)
        oja = oja_depth_many(eu_cloud.points, eu_cloud)
        elapsed = time.perf_counter() - t0
        for vals in (proj, oja):
            lowest_two = {labels[i] for i in np.argsort(vals)[:2]}
            assert lowest_two == {"Spain", "Greece"}
        assert proj[labels.index("Spain")] == pytest.approx(0.131660905972, abs=1e-9)
        assert proj[labels.index("Greece")] == pytest.approx(0.138576942170, abs=1e-9)
        assert oja[labels.index("Greece")] == pytest.approx(0.363592495342, abs=1e-9)
        assert oja[labels.index("Spain")] == pytest.approx(0.380015556542, abs=1e-9)
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. halfspace depth equals an independent oracle, exactly
# ---------------------------------------------------------------------------


def test_c03_halfspace_oracle_equivalence():
    with criterion("C03 halfspace oracle equivalence (50 clouds)"):
        for s in range(50):
            g = np.random.default_rng(1000 + s)
            n = 4 + (7 * s) % 17  # 4 .. 20
            cloud = DataCloud(g.standard_normal((n, 2)))
            queries = [cloud.points[0], cloud.points[n // 2], cloud.points[-1],
                       cloud.points.mean(axis=0),
                       g.standard_normal(2), 0.5 * g.standard_normal(2),
                       np.array([50.0, -40.0])]
            for q in queries:
                assert halfspace_depth_2d(q, cloud) == halfspace_oracle(q, cloud)


# ---------------------------------------------------------------------------
# 4. simplicial depth equals an independent oracle, exactly
# ---------------------------------------------------------------------------


def test_c04_simplicial_oracle_equivalence():
    with criterion("C04 simplicial oracle equivalence (50 clouds)"):
        for s in range(50):
            g = np.random.default_rng(2000 + s)
            n = 4 + (5 * s) % 9  # 4 .. 12
            cloud = DataCloud(g.standard_normal((n, 2)))
            queries = [cloud.points[0], cloud.points[-1],
                       cloud.points.mean(axis=0),
                       g.standard_normal(2), 0.3 * g.standard_normal(2),
                       np.array([30.0, 25.0])]
            for q in queries:
                assert simplicial_depth(q, cloud) == simplicial_oracle(q, cloud)


# ---------------------------------------------------------------------------
# 5. zonoid depth: linear program vs region bisection; boundary regions
# ---------------------------------------------------------------------------


def test_c05_zonoid_consistency():
    with criterion("C05 zonoid LP vs bisection, boundary regions (50 clouds)"):
        for s in range(50):
            g = np.random.default_rng(3000 + s)
            n = 3 + (11 * s) % 13  # 3 .. 15
            pts = g.standard_normal((n, 2))
            cloud = DataCloud(pts)
            mean = pts.mean(axis=0)
            w = g.dirichlet(np.ones(n))
            queries = [pts[0], mean, w @ pts, np.array([25.0, -30.0])]
            for q in queries:
                assert abs(zonoid_depth(q, cloud)
                           - wm_depth(q, cloud, ZONOID)) <= 1e-5
            full = wm_region(cloud, ZONOID, 1.0)
            assert full.hausdorff(ConvexRegion.single(mean)) < 1e-9
            hull = ConvexRegion.from_points(pts)
            assert wm_region(cloud, ZONOID, 1.0 / n).hausdorff(hull) < 1e-9


# ---------------------------------------------------------------------------
# 6. postulate harness: every registered depth passes its declared variant
# ---------------------------------------------------------------------------


def test_c06_postulate_suite():
    with criterion("C06 postulate suite, all registered depths"):
        fixture = DataCloud(np.random.default_rng(8).standard_normal((10, 2)))
        for name in available_depths():
            spec = get_depth(name)
            report = check_postulates(spec.evaluator(EvalOptions()), fixture,
                                      variant=spec.variant,
                                      trials=100, seed=0, tol=1e-9)
            failing = [c.name for c in report.checks if not c.passed]
            assert report.ok, f"{name} failed {failing}"
        # The documented witness: plain L2 depth is isometric-invariant only,
        # so the full-affine harness must flag D2 on anisotropic data.
        aniso = DataCloud(
            np.random.default_rng(2).standard_normal((12, 2)) * [3.0, 0.5])
        evaluator = get_depth("l2").evaluator(EvalOptions())
        report = check_postulates(evaluator, aniso, variant="affine",
                                  trials=50, seed=5, tol=1e-9)
        assert not report.ok
        assert {c.name for c in report.checks if not c.passed} == {"D2"}


# ---------------------------------------------------------------------------
# 7. nested region ladders on the bundled data; convex or starshaped
# ---------------------------------------------------------------------------

LADDER = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _main_ring(contour) -> Ring:
    rings = [r for r in contour.rings if r.area > 1e-6]
    assert rings, f"no usable ring at level {contour.alpha}"
    return max(rings, key=lambda r: r.area)


def _cell_diagonal(points: np.ndarray, resolution: int) -> float:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    cell = 1.2 * (hi - lo) / (resolution - 1)
    return float(np.hypot(cell[0], cell[1]))


def _ring_distance(ring: Ring, p: np.ndarray) -> float:
    v = ring.vertices
    nxt = np.roll(v, -1, axis=0)
    edge = nxt - v
    rel = p[None, :] - v
    denom = np.einsum("ij,ij->i", edge, edge)
    t = np.clip(np.einsum("ij,ij->i", rel, edge) / np.maximum(denom, 1e-300),
                0.0, 1.0)
    foot = v + t[:, None] * edge
    return float(np.min(np.linalg.norm(p[None, :] - foot, axis=1)))


def _star_shaped(ring: Ring, center: np.ndarray, cushion: float) -> bool:
    """Sampled starshapedness about ``center``, one-cell slack at the rim."""
    v = ring.vertices
    for i in range(0, v.shape[0], 2):
        for frac in (0.25, 0.5, 0.75, 0.85):
            p = center + frac * (v[i] - center)
            if not ring.contains_point(p) and _ring_distance(ring, p) > cushion:
                return False
    return True


def test_c07_nestedness_and_convexity(eu_cloud):
    with criterion("C07 region ladders: nested, convex or starshaped"):
        extent = float(max(np.ptp(eu_cloud.points[:, 0]),
                           np.ptp(eu_cloud.points[:, 1])))
        tol = 1e-9 * extent
        expected_nonempty = {"mahalanobis": 9, "zonoid": 9, "echstar": 9,
                             "geometric": 9, "halfspace": 4}
        exact_names = [n for n in available_depths()
                       if get_depth(n).region_fn is not None]
        assert sorted(expected_nonempty) == sorted(exact_names)
        for name in exact_names:
            region_fn = get_depth(name).region_fn
            regions = [region_fn(eu_cloud, a) for a in LADDER]
            nonempty = [r for r in regions if not r.is_empty]
            assert len(nonempty) == expected_nonempty[name], name
            for r in nonempty:
                assert r.convexity_defect() == 0.0, name
            for i in range(len(regions)):
                for j in range(i + 1, len(regions)):
                    assert regions[i].contains_region(regions[j], tol=tol), (
                        name, LADDER[i], LADDER[j])

        # Simplicial level sets are traced, not exact; the sample version is
        # not convex, so the claim is nestedness plus starshapedness about
        # the deepest grid node.
        resolution = 128
        contours = region_contours(eu_cloud, "simplicial",
                                   list(LADDER) + [0.27],
                                   resolution=resolution)
        traced = {c.alpha: c for c in contours}
        nonempty_levels = [a for a in LADDER if not traced[a].is_empty]
        assert nonempty_levels == [0.1, 0.2]
        assert not traced[0.27].is_empty
        center = _main_ring(traced[0.27]).vertices.mean(axis=0)
        cushion = _cell_diagonal(eu_cloud.points, resolution)
        rings = [_main_ring(traced[a]) for a in nonempty_levels]
        for ring in rings:
            assert ring.contains_point(center)
            assert _star_shaped(ring, center, cushion)
        outer, inner = rings
        hub = inner.vertices.mean(axis=0)
        for v in inner.vertices:
            assert outer.contains_point(v + 1e-6 * (hub - v))


# ---------------------------------------------------------------------------
# 8. random direction bound vs the exact halfspace depth
# ---------------------------------------------------------------------------


def test_c08_random_tukey_bound(eu_cloud):
    with criterion("C08 random Tukey upper bound, gap at 10000"):
        g = np.random.default_rng(77)
        spread = eu_cloud.points.std(axis=0)
        queries = np.vstack([eu_cloud.points,
                             g.normal(eu_cloud.points.mean(axis=0), spread, (4, 2)),
                             eu_cloud.points.mean(axis=0, keepdims=True)])
        worst_gap = 0.0
        for q in queries:
            exact = halfspace_depth_2d(q, eu_cloud)
            for budget in (10, 100, 1000, 10000):
                approx = random_tukey_depth(
                    q, eu_cloud, EvalOptions(budget=budget, seed=0))
                assert approx >= exact
                if budget == 10000:
                    worst_gap = max(worst_gap, approx - exact)
        assert eu_cloud.n == 27
        assert worst_gap <= 1.0 / 27.0

        other = make_cloud(42, 16)
        for q in [other.points[0], other.points.mean(axis=0),
                  np.array([3.0, -2.0])]:
            exact = halfspace_depth_2d(q, other)
            for budget in (10, 1000):
                approx = random_tukey_depth(
                    q, other, EvalOptions(budget=budget, seed=3))
                assert approx >= exact


# ---------------------------------------------------------------------------
# 9. weighted-mean region properties on paired clouds
# ---------------------------------------------------------------------------


def test_c09_wm_region_properties():
    with criterion("C09 WM subadditivity and monotonicity (20 pairs)"):
        schemes = (ZONOID, ECH_STAR, GEOMETRIC)
        alphas = (0.35, 0.5, 0.65, 0.8)
        down = [np.array([np.cos(t), np.sin(t)])
                for t in np.linspace(np.pi, 1.5 * np.pi, 60)]
        for s in range(20):
            g = np.random.default_rng(300 + s)
            n = 3 + s % 8  # 3 .. 10
            x = g.standard_normal((n, 2))
            y = g.standard_normal((n, 2))
            scheme = schemes[s % 3]
            alpha = alphas[s % 4]
            rx = wm_region(DataCloud(x), scheme, alpha)
            ry = wm_region(DataCloud(y), scheme, alpha)
            rsum = wm_region(DataCloud(x + y), scheme, alpha)
            assert rx.minkowski_sum(ry).contains_region(rsum, tol=1e-9)
            # componentwise dominance: y2 >= x pointwise, so the y2 region
            # must sit inside the x region fattened by the positive quadrant;
            # equivalently its support in every downward direction is no
            # larger.
            y2 = x + g.uniform(0.0, 2.0, (n, 2))
            ry2 = wm_region(DataCloud(y2), scheme, alpha)
            for u in down:
                assert ry2.support(u) <= rx.support(u) + 1e-9


# ---------------------------------------------------------------------------
# 10. functional depths collapse on constant curves; anti-monotone families
# ---------------------------------------------------------------------------


def _constant_sample(values: np.ndarray, k: int) -> FunctionalSample:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    curves = np.repeat(values[:, None, :], k, axis=1)
    return FunctionalSample(np.linspace(0.0, 1.0, k), curves)


def test_c10_functional_collapse():
    with criterion("C10 functional collapse, anti-monotone families"):
        budget = EvalOptions(budget=300, seed=0)

        vals = np.random.default_rng(10).standard_normal(8)
        sample1 = _constant_sample(vals, k=5)
        line = DataCloud(vals[:, None])
        for q in (vals[0], vals.mean(), 0.25, 40.0):
            expected = halfspace_depth(np.array([q]), line)
            const = np.full((5, 1), q)
            assert abs(graph_depth(const, sample1) - expected) <= 1e-12
            assert abs(grid_depth(const, sample1, options=budget)
                       - expected) <= 1e-12

        plane = make_cloud(11, 7)
        sample2 = _constant_sample(plane.points, k=4)
        for q in (plane.points[0], plane.points.mean(axis=0),
                  np.array([0.2, -0.4])):
            const = np.repeat(q[None, :], 4, axis=0)
            expected = halfspace_depth_2d(q, plane)
            assert abs(graph_depth(const, sample2) - expected) <= 1e-12
            assert abs(grid_depth(const, sample2, options=budget)
                       - expected) <= 1e-12
            assert abs(graph_depth(const, sample2, base_depth="zonoid")
                       - zonoid_depth(q, plane)) <= 1e-12

        g = np.random.default_rng(12)
        curves = g.standard_normal((6, 5, 1))
        wavy = FunctionalSample(np.linspace(0.0, 1.0, 5), curves)
        small = evaluation_functionals(wavy, [0, 2])
        mean_map = lambda c: np.asarray(c, dtype=float).mean(axis=0)
        large = small + evaluation_functionals(wavy, [1, 3]) + [mean_map]
        for q in (curves[0], np.zeros((5, 1)), 0.3 * curves[1] + 0.1):
            assert phi_depth(q, wavy, large) <= phi_depth(q, wavy, small) + 1e-15


# ---------------------------------------------------------------------------
# 11. figure documents from the region command
# ---------------------------------------------------------------------------

TENTHS = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"


def _region_doc(tmp_path, tag: str, depth: str, alpha_list: str,
                resolution: int = 256) -> dict:
    svg = tmp_path / f"{tag}.svg"
    js = tmp_path / f"{tag}.json"
    rc = cli_main(["region", depth, "--data", "eu27",
                   "--alpha-list", alpha_list,
                   "--svg", str(svg), "--json", str(js),
                   "--resolution", str(resolution),
                   "--title", f"{depth} regions, EU-27"])
    assert rc == 0
    text = svg.read_text()
    assert text.startswith(("<?xml", "<svg"))
    assert "</svg>" in text
    doc = json.loads(js.read_text())
    assert set(doc) == {"labels", "layers", "points", "title"}
    assert len(doc["points"]) == 27
    return doc


def _layer_rings(layer: dict) -> list[Ring]:
    return [Ring(np.asarray(poly, dtype=float)) for poly in layer["polygons"]]


def _doc_contains(layer: dict, p: np.ndarray) -> bool:
    inside = False
    for ring in _layer_rings(layer):
        if ring.contains_point(p):
            inside = not inside
    return inside


def _check_nested_doc(doc: dict) -> None:
    layers = sorted(doc["layers"], key=lambda lay: lay["alpha"])
    for lo, hi in zip(layers, layers[1:]):
        lo_rings = _layer_rings(lo)
        for ring in _layer_rings(hi):
            hub = ring.vertices.mean(axis=0)
            for v in ring.vertices:
                q = v + 1e-6 * (hub - v)
                assert any(r.contains_point(q) for r in lo_rings), (
                    doc["title"], lo["alpha"], hi["alpha"])


def _check_deepest_label(doc: dict, depth_name: str, cloud) -> None:
    """The deepest data point sits in exactly the layers at or below its
    depth; layers above it (these regions are convex) exclude it."""
    spec = get_depth(depth_name)
    values = spec.evaluate_batch(cloud.points, cloud, EvalOptions())
    top = int(np.argmax(values))
    p = cloud.points[top]
    dmax = float(values[top])
    for layer in doc["layers"]:
        rings = _layer_rings(layer)
        centroid = rings[0].vertices.mean(axis=0)
        nudged = p + 1e-6 * (centroid - p)
        if layer["alpha"] <= dmax + 1e-9:
            assert _doc_contains(layer, nudged), (doc["title"], layer["alpha"])
        else:
            assert not _doc_contains(layer, p), (doc["title"], layer["alpha"])


def test_c11_figure_documents(tmp_path, eu_cloud):
    with criterion("C11 figure documents: ladders, nesting, deepest label"):
        for tag, depth in (("fig-mahalanobis", "mahalanobis"),
                           ("fig-zonoid", "zonoid"),
                           ("fig-echstar", "echstar")):
            doc = _region_doc(tmp_path, tag, depth, TENTHS)
            assert [lay["alpha"] for lay in doc["layers"]] == list(LADDER)
            assert all(lay["polygons"] for lay in doc["layers"])
            _check_nested_doc(doc)
            _check_deepest_label(doc, depth, eu_cloud)

        tukey_alphas = [k / 27 for k in range(2, 12)]
        doc = _region_doc(tmp_path, "fig-tukey", "halfspace",
                          ",".join(repr(a) for a in tukey_alphas))
        assert [lay["alpha"] for lay in doc["layers"]] == tukey_alphas
        assert all(lay["polygons"] for lay in doc["layers"])
        _check_nested_doc(doc)
        _check_deepest_label(doc, "halfspace", eu_cloud)

        # Simplicial: the exact maximum over the plane rides on isolated
        # spikes at the data points, so the plotted field tops out lower.
        # The stated ladder keeps only its first level; a ladder rescaled by
        # the traced field maximum shows the full ring sequence.
        ladder = (0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        doc = _region_doc(tmp_path, "fig-simplicial", "simplicial",
                          ",".join(repr(a) for a in ladder))
        assert [lay["alpha"] for lay in doc["layers"]] == [0.25]

        probe_levels = [round(0.25 + 0.002 * i, 3) for i in range(41)]
        probe = _region_doc(tmp_path, "probe-simplicial", "simplicial",
                            ",".join(repr(a) for a in probe_levels))
        field_max = max(lay["alpha"] for lay in probe["layers"])
        assert 0.25 < field_max < 0.3
        inner_probe = max(probe["layers"], key=lambda lay: lay["alpha"])
        probe_rings = _layer_rings(inner_probe)
        center = max(probe_rings, key=lambda r: r.area).vertices.mean(axis=0)

        rescaled = [round(c * field_max, 9) for c in ladder]
        doc = _region_doc(tmp_path, "fig-simplicial-rescaled", "simplicial",
                          ",".join(repr(a) for a in rescaled))
        assert [lay["alpha"] for lay in doc["layers"]] == rescaled
        assert all(lay["polygons"] for lay in doc["layers"])
        _check_nested_doc(doc)
        cushion = _cell_diagonal(np.asarray(doc["points"], dtype=float), 256)
        for layer in doc["layers"]:
            ring = max(_layer_rings(layer), key=lambda r: r.area)
            assert ring.contains_point(center), layer["alpha"]
            assert _star_shaped(ring, center, cushion), layer["alpha"]
