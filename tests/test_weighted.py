import itertools

import numpy as np
import pytest

from conftest import make_cloud
from depthkit import DataCloud
from depthkit.errors import InvalidAlphaError
from depthkit.geometry import ConvexRegion
from depthkit.weighted import (
    ECH_STAR,
    GEOMETRIC,
    ZONOID,
    WeightScheme,
    validate_weight_scheme,
    weights,
    wm_depth,
    wm_region,
    wm_region_1d,
    wm_region_2d,
    wm_support_function,
    zonoid_depth,
)

BIT_1D = DataCloud(np.array([0.0, 1.0]))


def test_zonoid_weights_uniform_at_one():
    assert np.allclose(weights(ZONOID, 5, 1.0), 0.2)


def test_zonoid_weights_concentrate_below_one_over_n():
    w = weights(ZONOID, 27, 0.03)  # alpha < 1/27
    assert w[-1] == pytest.approx(1.0)
    assert np.allclose(w[:-1], 0.0)


def test_zonoid_weights_fractional_carry():
    # n alpha = 1.6: top rank gets 1/1.6, the next carries the remaining 0.6/1.6
    w = weights(ZONOID, 4, 0.4)
    assert w[3] == pytest.approx(1.0 / 1.6)
    assert w[2] == pytest.approx(0.6 / 1.6)
    assert np.allclose(w[:2], 0.0)
    assert w.sum() == pytest.approx(1.0)


def test_echstar_weights_closed_form():
    # 1/alpha = 2: w_j = (j^2 - (j-1)^2) / n^2 = (2j - 1) / 16 for n = 4
    w = weights(ECH_STAR, 4, 0.5)
    assert np.allclose(w, np.array([1.0, 3.0, 5.0, 7.0]) / 16.0)


def test_geometric_weights_closed_form():
    # alpha = 1/2, n = 3: tail weights 1/7, 2/7, 4/7
    w = weights(GEOMETRIC, 3, 0.5)
    assert np.allclose(w, np.array([1.0, 2.0, 4.0]) / 7.0)


def test_geometric_weights_limit_at_one():
    assert np.allclose(weights(GEOMETRIC, 5, 1.0), 0.2)


def test_weights_reject_bad_alpha():
    for bad in (0.0, -0.2, 1.5, float("nan")):
        with pytest.raises(InvalidAlphaError):
            weights(ZONOID, 4, bad)


def test_builtin_schemes_satisfy_restrictions():
    grid = np.round(np.arange(1, 21) / 20.0, 3)
    for scheme in (ZONOID, ECH_STAR, GEOMETRIC):
        result = validate_weight_scheme(scheme, 9, grid)
        assert result.ok, (scheme.name, result)


def test_restriction_i_flagged():
    bad = WeightScheme.custom({0.5: [0.7, 0.7]}, name="oversum")
    result = validate_weight_scheme(bad, 2, [0.5])
    assert not result.ok and result.restriction == "i"


def test_restriction_ii_flagged():
    bad = WeightScheme.custom({0.5: [0.8, 0.2]}, name="decreasing")
    result = validate_weight_scheme(bad, 2, [0.5])
    assert not result.ok and result.restriction == "ii"


def test_restriction_iii_flagged():
    # each level is fine alone, but prefix mass shrinks as alpha grows
    bad = WeightScheme.custom({0.3: [0.5, 0.5], 0.6: [0.2, 0.8]}, name="shrink")
    result = validate_weight_scheme(bad, 2, [0.3, 0.6])
    assert not result.ok and result.restriction == "iii"


def test_support_function_zonoid_extremes():
    cloud = make_cloud(0, 10)
    u = np.array([1.0, 0.0])
    assert wm_support_function(cloud, ZONOID, 1.0, u) == pytest.approx(
        float(cloud.mean[0]))
    assert wm_support_function(cloud, ZONOID, 1.0 / cloud.n, u) == pytest.approx(
        float(cloud.points[:, 0].max()))


def test_wm_region_1d_zonoid_bit():
    assert wm_region_1d(BIT_1D, ZONOID, 1.0).hi == pytest.approx(0.5)
    r = wm_region_1d(BIT_1D, ZONOID, 0.75)
    assert r.lo == pytest.approx(1.0 / 3.0)
    assert r.hi == pytest.approx(2.0 / 3.0)
    r = wm_region_1d(BIT_1D, ZONOID, 0.5)
    assert (r.lo, r.hi) == (pytest.approx(0.0), pytest.approx(1.0))


def test_wm_region_2d_matches_permutation_oracle():
    # with nondecreasing weights the region is the hull of all permuted
    # weighted means; n = 5 keeps the 120 permutations enumerable
    for seed in range(6):
        cloud = make_cloud(seed, 5)
        for scheme in (ZONOID, ECH_STAR, GEOMETRIC):
            for alpha in (0.3, 0.62, 0.9):
                w = weights(scheme, 5, alpha)
                sums = [w @ cloud.points[list(perm)]
                        for perm in itertools.permutations(range(5))]
                oracle = ConvexRegion.from_points(np.array(sums))
                region = wm_region_2d(cloud, scheme, alpha)
                assert region.hausdorff(oracle) < 1e-9


def test_wm_region_single_point_cloud():
    single = DataCloud(np.array([[2.0, 3.0]]))
    region = wm_region(single, ECH_STAR, 0.5)
    assert region.n_vertices == 1
    assert np.allclose(region.vertices[0], [2.0, 3.0])


def test_zonoid_region_alpha_one_is_mean():
    cloud = make_cloud(1, 12)
    region = wm_region_2d(cloud, ZONOID, 1.0)
    assert region.hausdorff(ConvexRegion.single(cloud.mean)) < 1e-9


def test_zonoid_region_alpha_one_over_n_is_hull():
    cloud = make_cloud(2, 12)
    region = wm_region_2d(cloud, ZONOID, 1.0 / cloud.n)
    hull = ConvexRegion.from_points(cloud.points)
    assert region.hausdorff(hull) < 1e-9


def test_wm_depth_on_region_boundary_recovers_alpha():
    cloud = make_cloud(3, 9)
    for scheme in (ZONOID, ECH_STAR, GEOMETRIC):
        for alpha in (0.25, 0.5, 0.75):
            region = wm_region_2d(cloud, scheme, alpha)
            boundary = region.vertices[0]
            assert wm_depth(boundary, cloud, scheme) == pytest.approx(
                alpha, abs=2e-5)


def test_wm_depth_bit_cloud():
    # {0, 1}: the level set containing 0.75 shrinks to it at alpha = 2/3
    assert wm_depth([0.75], BIT_1D, ZONOID) == pytest.approx(2.0 / 3.0, abs=2e-5)
    assert wm_depth([0.5], BIT_1D, ZONOID) == pytest.approx(1.0, abs=2e-5)
    assert wm_depth([2.0], BIT_1D, ZONOID) == 0.0


def test_wm_depth_outside_hull_is_zero_exactly():
    cloud = make_cloud(4, 8)
    assert wm_depth(cloud.points.max(axis=0) + 1.0, cloud, ZONOID) == 0.0
    assert wm_depth(cloud.points.max(axis=0) + 1.0, cloud, GEOMETRIC) == 0.0


def test_wm_depth_coincident_cloud():
    flat = DataCloud(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
    assert wm_depth([1.0, 2.0], flat, ZONOID) == 1.0
    assert wm_depth([1.1, 2.0], flat, ZONOID) == 0.0


def test_zonoid_lp_matches_bisection():
    for seed in range(8):
        cloud = make_cloud(seed + 20, 11)
        rng = np.random.default_rng(seed)
        zs = cloud.mean + rng.standard_normal((4, 2)) * 0.8
        for z in zs:
            lp = zonoid_depth(z, cloud)
            bis = wm_depth(z, cloud, ZONOID)
            assert lp == pytest.approx(bis, abs=1e-5)


def test_zonoid_hull_vertex_is_one_over_n():
    cloud = make_cloud(5, 10)
    hull = ConvexRegion.from_points(cloud.points)
    for v in hull.vertices:
        assert zonoid_depth(v, cloud) == pytest.approx(1.0 / cloud.n, abs=1e-9)


def test_zonoid_depth_zero_outside_hull():
    cloud = make_cloud(6, 10)
    assert zonoid_depth(cloud.points.max(axis=0) + 0.5, cloud) == 0.0


def test_wm_depth_max_at_mean():
    cloud = make_cloud(8, 10)
    for scheme in (ZONOID, ECH_STAR, GEOMETRIC):
        assert wm_depth(cloud.mean, cloud, scheme) == pytest.approx(1.0, abs=2e-5)
