"""Contour tracing, depth lifts, the set ordering, and the lift semimetric."""

import numpy as np
import pytest
from conftest import make_cloud

from depthkit.combinatorial import halfspace_region, tukey_region_2d
from depthkit.core import DataCloud
from depthkit.metric import mahalanobis_region
from depthkit.registry import EvalOptions
from depthkit.errors import (
    EmptyRegionError,
    GridMismatchError,
    InvalidAlphaError,
    UnsupportedLiftError,
)
from depthkit.geometry import ConvexRegion
from depthkit.regions import (
    DEFAULT_ALPHA_GRID,
    DepthLift,
    Ring,
    central_region,
    depth_lift,
    depth_order_leq,
    depth_semimetric,
    hausdorff_distance,
    marching_squares,
    region_contour,
    region_contours,
)
from depthkit.weighted import ZONOID, weights, wm_region

OPTS = EvalOptions()


def radial_field(xs, ys, radius):
    gx, gy = np.meshgrid(xs, ys)
    return 1.0 - np.hypot(gx, gy) / radius


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------


def test_ring_square_area_and_membership():
    ring = Ring(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert ring.area == pytest.approx(1.0)
    assert ring.contains_point([0.5, 0.5])
    assert not ring.contains_point([1.5, 0.5])
    assert not ring.is_empty


def test_ring_clockwise_square_has_negative_area():
    ring = Ring(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))
    assert ring.area == pytest.approx(-1.0)


def test_ring_degenerate():
    assert Ring(np.empty((0, 2))).is_empty
    assert Ring(np.array([[1.0, 2.0]])).area == 0.0
    assert not Ring(np.array([[1.0, 2.0], [3.0, 4.0]])).contains_point([2.0, 3.0])


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------


def test_marching_squares_circle_level_set():
    xs = np.linspace(-2.0, 2.0, 201)
    ys = np.linspace(-2.0, 2.0, 201)
    field = radial_field(xs, ys, radius=1.0)
    # {1 - r >= 0.25} is the disc of radius 0.75
    rings = marching_squares(xs, ys, field, 0.25)
    assert len(rings) == 1
    ring = rings[0]
    assert ring.area == pytest.approx(np.pi * 0.75**2, rel=5e-3)
    assert ring.area > 0.0
    assert ring.contains_point([0.0, 0.0])
    assert ring.contains_point([0.7, 0.0])
    assert not ring.contains_point([0.8, 0.0])


def test_marching_squares_constant_field_traces_the_window():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, 1.0, 2.0])
    field = np.full((3, 4), 0.5)
    rings = marching_squares(xs, ys, field, 0.5)
    assert len(rings) == 1
    assert rings[0].area == pytest.approx(6.0, abs=1e-12)
    assert rings[0].contains_point([1.5, 1.0])


def test_marching_squares_two_blobs():
    xs = np.linspace(-3.0, 3.0, 121)
    ys = np.linspace(-1.5, 1.5, 61)
    gx, gy = np.meshgrid(xs, ys)
    field = np.maximum(
        np.exp(-((gx + 1.5) ** 2 + gy**2) / 0.1),
        np.exp(-((gx - 1.5) ** 2 + gy**2) / 0.1),
    )
    rings = marching_squares(xs, ys, field, 0.5)
    assert len(rings) == 2
    assert all(r.area > 0.0 for r in rings)
    assert rings[0].area == pytest.approx(rings[1].area, rel=1e-6)
    hits = [r.contains_point([-1.5, 0.0]) for r in rings]
    assert sorted(hits) == [False, True]


def test_marching_squares_saddle_splits_into_two_rings():
    xs = np.linspace(-1.0, 1.0, 81)
    ys = np.linspace(-1.0, 1.0, 81)
    gx, gy = np.meshgrid(xs, ys)
    rings = marching_squares(xs, ys, gx * gy, 0.01)
    assert len(rings) == 2
    assert all(r.area > 0.0 for r in rings)


def test_marching_squares_level_above_field_is_empty():
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.linspace(0.0, 1.0, 11)
    field = np.zeros((11, 11))
    assert marching_squares(xs, ys, field, 0.5) == []


def test_marching_squares_rejects_bad_shape():
    with pytest.raises(ValueError):
        marching_squares(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)), 0.0)


# ---------------------------------------------------------------------------
# region contours
# ---------------------------------------------------------------------------


def test_region_contour_exact_path():
    cloud = make_cloud(1, 10)
    rc = region_contour(cloud, "mahalanobis", 0.4)
    assert rc.exact
    assert rc.region is not None and not rc.is_empty
    assert rc.contains_point(cloud.points.mean(axis=0))
    assert rc.rings == ()


def test_region_contour_traced_path():
    cloud = make_cloud(3, 12)
    rc = region_contour(cloud, "simplicial", 0.1, OPTS, resolution=64)
    assert not rc.exact
    assert rc.region is None
    assert not rc.is_empty
    assert rc.contains_point(cloud.points.mean(axis=0))
    hi = region_contour(cloud, "simplicial", 0.9, OPTS, resolution=64)
    assert hi.is_empty
    assert not hi.contains_point(cloud.points.mean(axis=0))


def test_region_contours_share_one_field():
    cloud = make_cloud(4, 10)
    both = region_contours(cloud, "simplicial", [0.05, 0.15], OPTS, resolution=64)
    solo0 = region_contour(cloud, "simplicial", 0.05, OPTS, resolution=64)
    solo1 = region_contour(cloud, "simplicial", 0.15, OPTS, resolution=64)
    assert len(both) == 2
    for joint, solo in zip(both, (solo0, solo1)):
        assert len(joint.rings) == len(solo.rings)
        for ra, rb in zip(joint.rings, solo.rings):
            assert np.array_equal(ra.vertices, rb.vertices)


def test_region_contours_nested_on_shared_grid():
    cloud = make_cloud(9, 14)
    low, high = region_contours(cloud, "simplicial", [0.05, 0.2], OPTS, resolution=96)
    # every vertex of the tighter contour lies inside some loose ring
    for ring in high.rings:
        for v in ring.vertices[::5]:
            assert any(r.contains_point(v + 1e-9) or r.contains_point(v)
                       for r in low.rings)


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.0001, float("nan"), float("inf")])
def test_region_contour_rejects_bad_alpha(alpha):
    cloud = make_cloud(0, 8)
    line = DataCloud(cloud.points[:, 0])
    with pytest.raises(InvalidAlphaError):
        region_contour(cloud, "mahalanobis", alpha)
    with pytest.raises(InvalidAlphaError):
        region_contours(cloud, "mahalanobis", [0.5, alpha])
    with pytest.raises(InvalidAlphaError):
        central_region(cloud, "mahalanobis", alpha)
    with pytest.raises(InvalidAlphaError):
        depth_lift(cloud, "zonoid", (0.5, alpha))
    with pytest.raises(InvalidAlphaError):
        tukey_region_2d(cloud, alpha)
    for c in (line, cloud):
        with pytest.raises(InvalidAlphaError):
            halfspace_region(c, alpha)
    with pytest.raises(InvalidAlphaError):
        mahalanobis_region(cloud, alpha)
    with pytest.raises(InvalidAlphaError):
        wm_region(cloud, ZONOID, alpha)
    with pytest.raises(InvalidAlphaError):
        weights(ZONOID, cloud.n, alpha)


def test_central_region_requires_exact_constructor():
    cloud = make_cloud(0, 8)
    region = central_region(cloud, "halfspace", 1.0 / 8.0)
    assert not region.is_empty
    with pytest.raises(UnsupportedLiftError):
        central_region(cloud, "simplicial", 0.2)
    with pytest.raises(UnsupportedLiftError):
        central_region(cloud, "l2", 0.5)


def test_hausdorff_distance_wrapper():
    a = ConvexRegion.from_points(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    b = a.translated(np.array([3.0, 0.0]))
    assert hausdorff_distance(a, b) == a.hausdorff(b)


# ---------------------------------------------------------------------------
# depth lift
# ---------------------------------------------------------------------------


def test_zonoid_lift_slices():
    cloud = make_cloud(0, 8)
    alphas = (0.25, 0.5, 1.0)
    lift = depth_lift(cloud, "zonoid", alphas)
    assert lift.alphas == alphas
    mean = cloud.points.mean(axis=0)
    top = lift.slice_at(1.0)
    assert top.hausdorff(ConvexRegion.single(mean)) <= 1e-9
    mid = lift.slice_at(0.5)
    ref = central_region(cloud, "zonoid", 0.5).scaled(0.5)
    assert mid.hausdorff(ref) <= 1e-12
    with pytest.raises(GridMismatchError):
        lift.slice_at(0.123)


def test_lift_default_grid_full_for_ready_depths():
    cloud = make_cloud(6, 9)
    lift = depth_lift(cloud, "mahalanobis")
    assert lift.alphas == DEFAULT_ALPHA_GRID
    assert all(not s.is_empty for s in lift.slices)


def test_lift_single_point_cloud():
    cloud = DataCloud(np.array([[2.0, 3.0]]))
    lift = depth_lift(cloud, "zonoid", (0.37, 1.0))
    s = lift.slice_at(0.37)
    assert s.hausdorff(ConvexRegion.single(np.array([0.74, 1.11]))) <= 1e-12


def test_lift_1d_zonoid_bit_cloud():
    cloud = DataCloud(np.array([[0.0], [1.0]]))
    lift = depth_lift(cloud, "zonoid", (0.5, 1.0))
    half = lift.slice_at(0.5)
    lo, hi = half.bounding_box()
    assert lo[0] == pytest.approx(0.0, abs=1e-12)
    assert hi[0] == pytest.approx(0.5, abs=1e-12)
    assert lift.slice_at(1.0).hausdorff(ConvexRegion.single([0.5])) <= 1e-12


def test_lift_refuses_depths_short_of_level_one():
    cloud = make_cloud(2, 9)
    with pytest.raises(UnsupportedLiftError):
        depth_lift(cloud, "halfspace")
    with pytest.raises(UnsupportedLiftError):
        depth_lift(cloud, "l2")


def test_lift_renormalized_halfspace_keeps_nonempty_prefix():
    cloud = make_cloud(2, 9)
    lift = depth_lift(cloud, "halfspace", assume_renormalized=True)
    assert 0 < len(lift.alphas) < len(DEFAULT_ALPHA_GRID)
    assert all(not s.is_empty for s in lift.slices)
    assert lift.alphas == tuple(sorted(lift.alphas))


def test_lift_rejects_bad_alpha():
    cloud = make_cloud(0, 8)
    with pytest.raises(InvalidAlphaError):
        depth_lift(cloud, "zonoid", (0.5, 1.5))


# ---------------------------------------------------------------------------
# ordering and semimetric
# ---------------------------------------------------------------------------


def centered_points(seed, n):
    pts = np.random.default_rng(seed).standard_normal((n, 2))
    return pts - pts.mean(axis=0)


GRID = tuple(np.round(np.arange(1, 11) / 10.0, 1))


def test_order_centered_dilation():
    pts = centered_points(12, 10)
    small = depth_lift(DataCloud(pts), "zonoid", GRID)
    big = depth_lift(DataCloud(2.0 * pts), "zonoid", GRID)
    assert depth_order_leq(small, big)
    assert not depth_order_leq(big, small)
    assert depth_order_leq(small, small)


def test_order_translated_clouds_incomparable():
    pts = centered_points(13, 9)
    a = depth_lift(DataCloud(pts), "zonoid", GRID)
    b = depth_lift(DataCloud(pts + np.array([5.0, 0.0])), "zonoid", GRID)
    assert not depth_order_leq(a, b)
    assert not depth_order_leq(b, a)


def test_order_requires_matching_lifts():
    pts = centered_points(14, 8)
    a = depth_lift(DataCloud(pts), "zonoid", GRID)
    b = depth_lift(DataCloud(pts), "zonoid", (0.5, 1.0))
    c = depth_lift(DataCloud(pts), "mahalanobis", GRID)
    with pytest.raises(GridMismatchError):
        depth_order_leq(a, b)
    with pytest.raises(GridMismatchError):
        depth_order_leq(a, c)
    with pytest.raises(GridMismatchError):
        depth_semimetric(a, c)


def test_order_empty_slice_rules():
    empty = ConvexRegion.empty(2)
    square = ConvexRegion.from_points(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    a = DepthLift("x", (0.5,), (empty,), "h")
    b = DepthLift("x", (0.5,), (square,), "h")
    assert depth_order_leq(a, b)
    assert not depth_order_leq(b, a)


def test_semimetric_translation_and_self():
    pts = centered_points(15, 11)
    a = depth_lift(DataCloud(pts), "zonoid", GRID)
    b = depth_lift(DataCloud(pts + np.array([5.0, 0.0])), "zonoid", GRID)
    assert depth_semimetric(a, a) == 0.0
    d = depth_semimetric(a, b)
    # slices differ by the translation scaled by alpha; the top slice pays 5
    assert d == pytest.approx(5.0, abs=1e-9)
    assert depth_semimetric(b, a) == pytest.approx(d, abs=0.0)


def test_semimetric_triangle_inequality():
    lifts = [
        depth_lift(DataCloud(centered_points(s, 9)), "zonoid", GRID)
        for s in (20, 21, 22)
    ]
    dab = depth_semimetric(lifts[0], lifts[1])
    dbc = depth_semimetric(lifts[1], lifts[2])
    dac = depth_semimetric(lifts[0], lifts[2])
    assert dac <= dab + dbc + 1e-12


def test_semimetric_empty_slice_mismatch_raises():
    empty = ConvexRegion.empty(2)
    square = ConvexRegion.from_points(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    a = DepthLift("x", (0.5,), (empty,), "h")
    b = DepthLift("x", (0.5,), (square,), "h")
    with pytest.raises(EmptyRegionError):
        depth_semimetric(a, b)
    assert depth_semimetric(a, a) == 0.0
