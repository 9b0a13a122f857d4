import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthkit.errors import EmptyRegionError
from depthkit.geometry import ConvexRegion, clip_polygon_halfplane, convex_hull

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_hull_drops_interior_points():
    pts = np.vstack([UNIT_SQUARE, [[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]])
    hull = convex_hull(pts)
    assert hull.shape == (4, 2)
    assert set(map(tuple, hull)) == set(map(tuple, UNIT_SQUARE))


def test_hull_is_counterclockwise():
    rng = np.random.default_rng(1)
    hull = convex_hull(rng.standard_normal((40, 2)))
    x, y = hull[:, 0], hull[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area2 > 0


def test_hull_collinear_collapses_to_segment():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    hull = convex_hull(pts)
    assert hull.shape[0] == 2
    assert {(0.0, 0.0), (2.0, 2.0)} == set(map(tuple, hull))


def test_interval_region_basics():
    r = ConvexRegion.interval(-1.0, 3.0)
    assert r.lo == -1.0 and r.hi == 3.0
    assert r.contains([0.0]) and r.contains([3.0])
    assert not r.contains([3.0001])
    assert r.distance([5.0]) == pytest.approx(2.0)
    assert r.distance([0.0]) == 0.0


def test_contains_with_tolerance():
    r = ConvexRegion.from_points(UNIT_SQUARE)
    assert r.contains([0.5, 0.5])
    assert r.contains([1.0, 0.5])
    assert not r.contains([1.0 + 1e-6, 0.5])
    assert r.contains([1.0 + 1e-6, 0.5], tol=1e-5)


@pytest.mark.parametrize("point", [[np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan]])
@pytest.mark.parametrize("query", ["contains", "distance", "contains_many", "distance_many"])
def test_region_queries_refuse_non_finite_points(query, point):
    # unchecked, a NaN fails every edge test and reads as outside, at distance NaN
    r = ConvexRegion.from_points(UNIT_SQUARE)
    z = np.array([point]) if query.endswith("_many") else point
    with pytest.raises(ValueError, match="finite"):
        getattr(r, query)(z)


def test_hausdorff_intervals():
    a = ConvexRegion.interval(0.0, 1.0)
    b = ConvexRegion.interval(0.0, 2.0)
    assert a.hausdorff(b) == pytest.approx(1.0)


def test_hausdorff_translated_squares():
    a = ConvexRegion.from_points(UNIT_SQUARE)
    b = a.translated([3.0, 4.0])
    assert a.hausdorff(b) == pytest.approx(5.0)


def test_hausdorff_nested_squares():
    outer = ConvexRegion.from_points(UNIT_SQUARE * 2.0 - 0.5)
    inner = ConvexRegion.from_points(UNIT_SQUARE)
    # farthest point of the outer square from the inner one is a corner
    assert outer.hausdorff(inner) == pytest.approx(np.sqrt(0.5))


def test_hausdorff_matches_dense_sampling_oracle():
    rng = np.random.default_rng(7)
    a = ConvexRegion.from_points(rng.standard_normal((12, 2)))
    b = ConvexRegion.from_points(rng.standard_normal((12, 2)) + 0.7)

    def boundary_samples(region, k=4000):
        v = region.vertices
        m = v.shape[0]
        out = []
        for i in range(m):
            seg = np.linspace(v[i], v[(i + 1) % m], k // m, endpoint=False)
            out.append(seg)
        return np.vstack(out)

    from scipy.spatial.distance import cdist

    sa, sb = boundary_samples(a), boundary_samples(b)
    d = cdist(sa, sb)
    approx = max(d.min(axis=1).max(), d.min(axis=0).max())
    # the sampled estimate uses boundary points only; for convex polygons the
    # Hausdorff distance is attained at a vertex, so they agree closely
    assert a.hausdorff(b) == pytest.approx(approx, abs=5e-3)


def test_minkowski_sum_squares():
    a = ConvexRegion.from_points(UNIT_SQUARE)
    s = a.minkowski_sum(a)
    lo, hi = s.bounding_box()
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [2, 2])
    assert s.n_vertices == 4


def test_minkowski_sum_intervals():
    a = ConvexRegion.interval(0.0, 1.0)
    b = ConvexRegion.interval(2.0, 5.0)
    s = a.minkowski_sum(b)
    assert (s.lo, s.hi) == (2.0, 6.0)


def test_minkowski_with_empty_is_empty():
    a = ConvexRegion.from_points(UNIT_SQUARE)
    assert a.minkowski_sum(ConvexRegion.empty(2)).is_empty


def test_scaled_and_translated():
    a = ConvexRegion.from_points(UNIT_SQUARE)
    assert a.scaled(2.0).support([1.0, 0.0]) == pytest.approx(2.0)
    assert a.translated([5.0, 0.0]).support([1.0, 0.0]) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        a.scaled(0.0)


def test_support_function_square():
    a = ConvexRegion.from_points(UNIT_SQUARE)
    assert a.support([1.0, 0.0]) == pytest.approx(1.0)
    assert a.support([-1.0, 0.0]) == pytest.approx(0.0)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert a.support(u) == pytest.approx(np.sqrt(2))


def test_convexity_defect_zero_for_canonical_hull():
    rng = np.random.default_rng(3)
    r = ConvexRegion.from_points(rng.standard_normal((30, 2)))
    assert r.convexity_defect() == 0.0


def test_empty_region_guards():
    e = ConvexRegion.empty(2)
    assert e.is_empty
    with pytest.raises(EmptyRegionError):
        e.bounding_box()
    with pytest.raises(EmptyRegionError):
        e.distance([0.0, 0.0])


def test_contains_region_on_nested_hulls():
    outer = ConvexRegion.from_points(UNIT_SQUARE * 3.0)
    inner = ConvexRegion.from_points(UNIT_SQUARE + 0.5)
    assert outer.contains_region(inner)
    assert not inner.contains_region(outer)
    assert outer.contains_region(ConvexRegion.empty(2))


def test_clip_halfplane_square():
    out = clip_polygon_halfplane(UNIT_SQUARE, np.array([1.0, 0.0]), 0.5)
    r = ConvexRegion.from_points(out)
    lo, hi = r.bounding_box()
    assert hi[0] == pytest.approx(0.5) and lo[0] == pytest.approx(0.0)


def test_clip_halfplane_removes_all():
    out = clip_polygon_halfplane(UNIT_SQUARE, np.array([1.0, 0.0]), -1.0)
    assert out.shape[0] == 0


def test_clip_halfplane_keeps_all():
    out = clip_polygon_halfplane(UNIT_SQUARE, np.array([1.0, 0.0]), 2.0)
    assert out.shape[0] == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hull_contains_every_input_point(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((15, 2))
    region = ConvexRegion.from_points(pts)
    slack = 1e-9 * max(1.0, float(np.abs(pts).max()))
    assert all(region.contains(p, tol=slack) for p in pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hausdorff_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = ConvexRegion.from_points(rng.standard_normal((8, 2)))
    b = ConvexRegion.from_points(rng.standard_normal((8, 2)))
    c = ConvexRegion.from_points(rng.standard_normal((8, 2)))
    assert a.hausdorff(c) <= a.hausdorff(b) + b.hausdorff(c) + 1e-9
