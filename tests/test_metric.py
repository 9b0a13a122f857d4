import itertools
import math

import numpy as np
import pytest

from conftest import make_cloud
from depthkit import DataCloud
from depthkit.combinatorial import SIMPLEX_ENUMERATION_CAP
from depthkit.errors import EnumerationTooLargeError, SingularScatterError, ZeroMadError
from depthkit.metric import (
    MOMENT,
    affine_invariant_l2_depth,
    l2_depth,
    l2_depth_many,
    mahalanobis_depth,
    mahalanobis_depth_many,
    mahalanobis_region,
    oja_depth,
    oja_depth_many,
    projection_depth,
    projection_depth_many,
)

PAIR_1D = DataCloud(np.array([0.0, 2.0]))


def test_mahalanobis_peaks_at_mean():
    cloud = make_cloud(0, 20)
    assert mahalanobis_depth(cloud.mean, cloud) == pytest.approx(1.0)


def test_mahalanobis_known_1d_value():
    # moment variance of {0, 2} is 1, so depth(0) = 1/(1 + 1) = 0.5
    assert mahalanobis_depth([0.0], PAIR_1D) == pytest.approx(0.5)
    assert mahalanobis_depth([3.0], PAIR_1D) == pytest.approx(0.2)


def test_mahalanobis_batch_matches_loop():
    cloud = make_cloud(1, 15)
    zs = make_cloud(2, 8).points
    batch = mahalanobis_depth_many(zs, cloud)
    loop = [mahalanobis_depth(z, cloud) for z in zs]
    assert np.allclose(batch, loop, rtol=1e-12)


def test_mahalanobis_singular_scatter_raises():
    line = DataCloud(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(SingularScatterError):
        mahalanobis_depth([0.0, 0.0], line)


def test_mahalanobis_region_boundary_sits_at_level():
    cloud = make_cloud(3, 25)
    region = mahalanobis_region(cloud, 0.4)
    values = mahalanobis_depth_many(region.vertices, cloud)
    assert np.allclose(values, 0.4, atol=1e-9)
    assert region.contains(cloud.mean)


def test_mahalanobis_region_nesting():
    cloud = make_cloud(4, 25)
    outer = mahalanobis_region(cloud, 0.2)
    inner = mahalanobis_region(cloud, 0.6)
    assert outer.contains_region(inner, tol=1e-9)


def test_l2_known_values():
    # mean absolute distance from 4 to {0, 2} is 3, so depth = 1/(1 + 3)
    assert l2_depth([4.0], PAIR_1D) == pytest.approx(0.25)
    assert l2_depth([1.0], PAIR_1D) == pytest.approx(0.5)


def test_l2_batch_matches_loop():
    cloud = make_cloud(5, 12)
    zs = make_cloud(6, 9).points
    assert np.allclose(l2_depth_many(zs, cloud),
                       [l2_depth(z, cloud) for z in zs], atol=0, rtol=0)


def test_affine_l2_whitens():
    # stretching one axis must not change the whitened depth value
    cloud = make_cloud(7, 14)
    stretched = DataCloud(cloud.points * np.array([5.0, 1.0]))
    z = cloud.points[0] * 0.3
    zs = z * np.array([5.0, 1.0])
    assert affine_invariant_l2_depth(zs, stretched) == pytest.approx(
        affine_invariant_l2_depth(z, cloud), abs=1e-12)


def test_projection_1d_closed_form():
    # median 2.5, MAD 1.5; outlyingness of 10 is 7.5/1.5 = 5, depth 1/6
    cloud = DataCloud(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]))
    assert projection_depth([10.0], cloud) == pytest.approx(1.0 / 6.0)
    assert projection_depth([2.5], cloud) == pytest.approx(1.0)


def test_projection_zero_mad_raises():
    flat = DataCloud(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ZeroMadError):
        projection_depth([2.0], flat)


def test_projection_seed_reproducible():
    # same seed is bitwise reproducible; the deterministic pair-difference
    # directions often dominate, so different seeds may legitimately agree
    cloud = make_cloud(8, 30)
    z = [0.2, -0.1]
    a = projection_depth(z, cloud, direction_budget=500, seed=3)
    b = projection_depth(z, cloud, direction_budget=500, seed=3)
    assert a == b


def test_projection_budget_monotone():
    # more directions can only lower the estimated depth
    cloud = make_cloud(9, 30)
    z = cloud.points[4]
    budgets = [50, 200, 1000]
    vals = [projection_depth(z, cloud, direction_budget=m, seed=0) for m in budgets]
    assert vals[0] >= vals[1] >= vals[2]


def test_oja_constant_inside_a_triangle():
    # for n = 3 the simplices z-x_i-x_j tile the triangle, so the expected
    # volume (hence the depth) is the same at every interior point
    tri = DataCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    centroid = tri.points.mean(axis=0)
    dc = oja_depth(centroid, tri)
    dv = oja_depth([0.0, 0.0], tri)
    df = oja_depth([5.0, 5.0], tri)
    assert dc == pytest.approx(dv)
    assert 0.0 < df < dv <= 1.0


def test_oja_known_triangle_value():
    # E vol at a vertex = (1/2) / C(3,2)... summed dets = 1 over 9 ordered
    # pairs; scatter det = 1/27, so depth = 1/(1 + (1/9)/(1/sqrt(27)))
    tri = DataCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    expected = 1.0 / (1.0 + (1.0 / 9.0) * np.sqrt(27.0))
    assert oja_depth([0.0, 0.0], tri) == pytest.approx(expected, abs=1e-12)


def test_oja_decreases_away_from_center():
    cloud = make_cloud(11, 12)
    near = oja_depth(cloud.mean, cloud)
    far = oja_depth(cloud.mean + np.array([6.0, 0.0]), cloud)
    farther = oja_depth(cloud.mean + np.array([60.0, 0.0]), cloud)
    assert near > far > farther > 0.0


def test_oja_3d_matches_subset_enumeration():
    cloud = make_cloud(12, 7, d=3)
    zs = np.array([[0.1, -0.2, 0.3], [2.0, 1.0, -1.0]])
    _, scatter, _ = MOMENT.estimate(cloud)
    for z, got in zip(zs, oja_depth_many(zs, cloud)):
        vol = sum(abs(np.linalg.det(cloud.points[list(c)] - z))
                  for c in itertools.combinations(range(7), 3)) / 7**3
        assert got == pytest.approx(1.0 / (1.0 + vol / np.sqrt(np.linalg.det(scatter))),
                                    rel=1e-12)


def test_oja_enumeration_cap():
    n = 300
    assert math.comb(n, 3) > SIMPLEX_ENUMERATION_CAP
    cloud = DataCloud(np.random.default_rng(1).standard_normal((n, 3)))
    with pytest.raises(EnumerationTooLargeError):
        oja_depth(np.zeros(3), cloud)
    with pytest.raises(EnumerationTooLargeError):
        oja_depth_many(np.zeros((2, 3)), cloud)


def test_moment_estimator_fields():
    cloud = make_cloud(10, 9)
    center, scatter = MOMENT.rule(cloud)
    assert np.allclose(center, cloud.mean)
    dev = cloud.points - center
    assert np.allclose(scatter, dev.T @ dev / cloud.n)


def test_eu27_frozen_values(eu_cloud):
    labels = list(eu_cloud.labels)
    hungary = eu_cloud.points[labels.index("Hungary")]
    spain = eu_cloud.points[labels.index("Spain")]
    greece = eu_cloud.points[labels.index("Greece")]
    assert mahalanobis_depth(hungary, eu_cloud) == pytest.approx(
        0.820536759094, abs=1e-9)
    assert oja_depth(spain, eu_cloud) == pytest.approx(0.380015556542, abs=1e-9)
    assert oja_depth(greece, eu_cloud) == pytest.approx(0.363592495342, abs=1e-9)


def test_eu27_projection_frozen_values(eu_cloud):
    labels = list(eu_cloud.labels)
    vals = projection_depth_many(eu_cloud.points, eu_cloud,
                                 direction_budget=10000, seed=0)
    assert vals[labels.index("Spain")] == pytest.approx(0.131660905972, abs=1e-9)
    assert vals[labels.index("Greece")] == pytest.approx(0.138576942170, abs=1e-9)
