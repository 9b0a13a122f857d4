"""Halfspace and simplicial depths against independent enumeration oracles."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from conftest import make_cloud

from depthkit import core
from depthkit.combinatorial import (
    SIMPLEX_ENUMERATION_CAP,
    halfspace_depth,
    halfspace_depth_1d,
    halfspace_depth_2d,
    halfspace_region,
    random_tukey_depth,
    simplicial_depth,
    simplicial_depth_many,
    tukey_region_2d,
)
from depthkit.core import DataCloud
from depthkit.errors import DimensionMismatchError, EnumerationTooLargeError
from depthkit.metric import ProjectionIndex
from depthkit.registry import EvalOptions, get_depth
from depthkit.rng import MAX_DIRECTION_BUDGET, direction_stream, unit_directions


def halfspace_oracle(q, cloud):
    """Minimum closed-halfplane fraction by bisector enumeration.

    The count of points in a closed halfplane through q is constant on each
    open arc of boundary normals between the critical normals (perpendiculars
    of the point directions), so the minimum is attained at some arc and can
    be read off at the arc's angular bisector.  Every bisector is, up to
    sign, a normalized sum or difference of two unit point directions or a
    quarter turn of one; candidates that graze a point are discarded because
    they are critical normals rather than arc interiors.
    """
    q = np.asarray(q, dtype=float)
    rel = cloud.points - q
    norms = np.linalg.norm(rel, axis=1)
    scale = max(float(norms.max()), 1.0)
    live = rel[norms > 1e-12 * scale]
    coincident = cloud.n - live.shape[0]
    if live.shape[0] == 0:
        return 1.0
    hats = live / np.linalg.norm(live, axis=1, keepdims=True)
    cands = []
    for i in range(hats.shape[0]):
        for j in range(i, hats.shape[0]):
            for v in (hats[i] + hats[j], hats[i] - hats[j]):
                nv = np.linalg.norm(v)
                if nv <= 1e-12:
                    continue
                u = v / nv
                cands.extend([u, -u, np.array([-u[1], u[0]]), np.array([u[1], -u[0]])])
    best = live.shape[0]
    for u in cands:
        dots = live @ u
        if np.min(np.abs(dots)) <= 1e-9 * scale:
            continue
        best = min(best, int(np.count_nonzero(dots > 0.0)))
    return (best + coincident) / cloud.n


def simplicial_oracle(q, cloud):
    """Fraction of closed triangles containing q, via barycentric solves."""
    q = np.asarray(q, dtype=float)
    pts = cloud.points
    count = 0
    total = 0
    for i, j, k in combinations(range(cloud.n), 3):
        total += 1
        a, b, c = pts[i], pts[j], pts[k]
        mat = np.column_stack([b - a, c - a])
        try:
            lam = np.linalg.solve(mat, q - a)
        except np.linalg.LinAlgError:
            continue
        if lam[0] >= -1e-12 and lam[1] >= -1e-12 and lam[0] + lam[1] <= 1.0 + 1e-12:
            count += 1
    return count / total


# ---------------------------------------------------------------------------
# halfspace depth, d = 1
# ---------------------------------------------------------------------------


def test_halfspace_1d_closed_forms():
    cloud = DataCloud(np.array([[1.0], [2.0], [3.0]]))
    assert halfspace_depth_1d(2.0, cloud) == pytest.approx(2.0 / 3.0)
    assert halfspace_depth_1d(1.0, cloud) == pytest.approx(1.0 / 3.0)
    assert halfspace_depth_1d(1.5, cloud) == pytest.approx(1.0 / 3.0)
    assert halfspace_depth_1d(0.0, cloud) == 0.0
    assert halfspace_depth_1d(3.5, cloud) == 0.0


def test_halfspace_dispatch_matches_1d():
    cloud = DataCloud(np.array([[0.0], [1.0], [5.0], [9.0]]))
    for z in (-1.0, 0.0, 0.5, 1.0, 5.0, 9.0, 10.0):
        assert halfspace_depth(z, cloud) == halfspace_depth_1d(z, cloud)


def test_halfspace_rejects_high_dim():
    cloud = DataCloud(np.random.default_rng(0).standard_normal((8, 3)))
    with pytest.raises(DimensionMismatchError):
        halfspace_depth(np.zeros(3), cloud)


# ---------------------------------------------------------------------------
# halfspace depth, d = 2, vs the bisector oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_halfspace_2d_matches_oracle_on_random_clouds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    cloud = DataCloud(rng.standard_normal((n, 2)))
    queries = [cloud.points[i] for i in range(min(n, 5))]
    queries += [rng.standard_normal(2) for _ in range(5)]
    queries.append(cloud.points.mean(axis=0))
    queries.append(np.array([50.0, -40.0]))
    for q in queries:
        assert halfspace_depth_2d(q, cloud) == halfspace_oracle(q, cloud)


def test_halfspace_2d_square_center_and_corner():
    cloud = DataCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert halfspace_depth_2d([0.5, 0.5], cloud) == pytest.approx(0.5)
    # a corner is cut off by a line just inside the two incident edges
    assert halfspace_depth_2d([0.0, 0.0], cloud) == pytest.approx(0.25)
    assert halfspace_depth_2d([2.0, 0.5], cloud) == 0.0


def test_halfspace_2d_collinear_cloud():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    cloud = DataCloud(np.column_stack([t, 2.0 * t]))
    line1d = DataCloud(t.reshape(-1, 1))
    for s in (0.0, 1.0, 1.7, 2.0, 4.0):
        assert halfspace_depth_2d([s, 2.0 * s], cloud) == halfspace_depth_1d(s, line1d)
    assert halfspace_depth_2d([1.0, 0.0], cloud) == 0.0


def test_halfspace_2d_coincident_points_count_everywhere():
    # a halfplane pointing away from both unit points still holds the two
    # copies at the query itself
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cloud = DataCloud(pts)
    assert halfspace_depth_2d([0.0, 0.0], cloud) == pytest.approx(0.5)
    assert halfspace_depth_2d([0.0, 0.0], cloud) == halfspace_oracle([0.0, 0.0], cloud)


# ---------------------------------------------------------------------------
# simplicial depth vs the barycentric oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_simplicial_matches_oracle_on_random_clouds(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 13))
    cloud = DataCloud(rng.standard_normal((n, 2)))
    queries = [cloud.points[i] for i in range(min(n, 4))]
    queries += [rng.standard_normal(2) for _ in range(4)]
    queries.append(np.array([30.0, 30.0]))
    for q in queries:
        assert simplicial_depth(q, cloud) == simplicial_oracle(q, cloud)


def test_simplicial_1d_segment_count():
    cloud = DataCloud(np.array([[0.0], [1.0], [2.0], [3.0]]))
    assert simplicial_depth(1.5, cloud) == pytest.approx(4.0 / 6.0)
    assert simplicial_depth(0.0, cloud) == pytest.approx(3.0 / 6.0)
    assert simplicial_depth(1.0, cloud) == pytest.approx(5.0 / 6.0)
    assert simplicial_depth(-0.5, cloud) == 0.0


def test_simplicial_3d_single_tetrahedron():
    corners = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    cloud = DataCloud(corners)
    assert simplicial_depth(corners.mean(axis=0), cloud) == 1.0
    assert simplicial_depth(corners[0], cloud) == 1.0
    assert simplicial_depth(np.array([1.0, 1.0, 1.0]), cloud) == 0.0


def test_simplicial_3d_degenerate_simplex_fallback():
    # four coplanar corners plus an apex: the coplanar 4-subset is singular
    # and must fall back to hull-membership feasibility
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.5, 0.5, 1.0],
        ]
    )
    cloud = DataCloud(pts)
    assert simplicial_depth(np.array([0.5, 0.5, 0.0]), cloud) == 1.0
    assert simplicial_depth(np.array([5.0, 5.0, 5.0]), cloud) == 0.0


def test_simplicial_rejects_high_dim():
    cloud = DataCloud(np.random.default_rng(0).standard_normal((9, 5)))
    with pytest.raises(DimensionMismatchError):
        simplicial_depth(np.zeros(5), cloud)


def test_simplicial_enumeration_cap():
    # only d >= 3 enumerates simplices, so only there the cap applies
    n = 90
    assert math.comb(n, 4) > SIMPLEX_ENUMERATION_CAP
    cloud = DataCloud(np.random.default_rng(1).standard_normal((n, 3)))
    with pytest.raises(EnumerationTooLargeError):
        simplicial_depth(np.zeros(3), cloud)


def barycentric_counts(q, pts):
    """Closed triangles containing q, by barycentric coordinates in blocks:
    for each first vertex i, every pair j < k of later vertices at once."""
    n = pts.shape[0]
    count = 0
    for i in range(n - 2):
        j, k = np.triu_indices(n - i - 1, 1)
        b, c = pts[i + 1 + j] - pts[i], pts[i + 1 + k] - pts[i]
        r = q - pts[i]
        det = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
        lam0 = (r[0] * c[:, 1] - r[1] * c[:, 0]) / det
        lam1 = (b[:, 0] * r[1] - b[:, 1] * r[0]) / det
        count += int(np.count_nonzero((lam0 >= -1e-12) & (lam1 >= -1e-12)
                                      & (lam0 + lam1 <= 1.0 + 1e-12)))
    return count


def test_planar_simplicial_past_the_enumeration_cap():
    n = 240
    total = math.comb(n, 3)
    assert total > SIMPLEX_ENUMERATION_CAP
    cloud = make_cloud(17, n)
    zs = np.vstack([[[0.1, -0.2], [1.3, 0.4]], cloud.points[:1] + 1e-3])
    got = simplicial_depth_many(zs, cloud)
    assert np.array_equal(got, [barycentric_counts(z, cloud.points) / total for z in zs])
    assert simplicial_depth(zs[0], cloud) == got[0]


def test_univariate_simplicial_past_the_enumeration_cap():
    n = 2001
    assert math.comb(n, 2) > SIMPLEX_ENUMERATION_CAP
    values = np.random.default_rng(18).standard_normal(n)
    cloud = DataCloud(values[:, None])
    zs = np.array([[0.0], [0.7], [-2.5]])
    i, j = np.triu_indices(n, 1)
    lo, hi = np.minimum(values[i], values[j]), np.maximum(values[i], values[j])
    want = [np.count_nonzero((lo <= z) & (z <= hi)) / math.comb(n, 2) for z in zs[:, 0]]
    assert np.allclose(simplicial_depth_many(zs, cloud), want, rtol=1e-15, atol=0.0)


def test_simplicial_many_matches_scalar():
    cloud = make_cloud(7, 9)
    zs = np.vstack([cloud.points[:3], [[0.0, 0.0]], [[9.0, 9.0]]])
    many = simplicial_depth_many(zs, cloud)
    singles = [simplicial_depth(z, cloud) for z in zs]
    assert np.array_equal(many, np.array(singles))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_line_table_cross_products_are_antisymmetric(scale):
    # the once-per-triangle count needs cross(a, b) = -cross(b, a) bitwise;
    # a BLAS product of the stacked coordinates does not give that
    from depthkit.combinatorial import _cross

    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((2, 3, 50)) * scale
    cross = _cross(x, y, x, y)
    assert np.array_equal(cross, -cross.transpose(0, 2, 1))
    assert not np.diagonal(cross, axis1=1, axis2=2).any()


def test_points_on_one_ray_count_each_triangle_once():
    # the third point is a rounding-sized step off the ray through the first
    # two.  Judged by distances from the lines it would be on the line seen
    # from one point and off it seen from another; the rule must be
    # symmetric, or a triangle counts as missing the query at two vertices
    cloud = DataCloud(np.array([[1.0, 2.0], [2.0, 4.0], [0.5 + 2e-12, 1.0 - 1e-12]]))
    assert simplicial_depth_many(np.zeros((1, 2)), cloud)[0] == 0.0
    assert halfspace_depth_2d(np.zeros(2), cloud) == 0.0


@pytest.mark.parametrize("collinear", [False, True])
@pytest.mark.parametrize("depth", ["halfspace", "simplicial"])
def test_planar_working_set_stays_within_the_batch_budget(monkeypatch, depth, collinear):
    budget = 2**20
    monkeypatch.setattr(core, "BATCH_BYTES", budget)
    rng = np.random.default_rng(5)
    n, m = (1000, 1) if depth == "halfspace" else (60, 4000)
    # on a line, every anchor's line holds all the points
    t = rng.standard_normal(n)
    pts = np.outer(t, [1.0, 2.0]) if collinear else rng.standard_normal((n, 2))
    cloud = DataCloud(pts)
    zs = pts[rng.integers(0, n, m)] if collinear else rng.uniform(-1.5, 1.5, (m, 2))
    if depth == "halfspace":
        run = lambda: halfspace_depth_2d(zs[0], cloud)  # noqa: E731
    else:
        run = lambda: simplicial_depth_many(zs, cloud)  # noqa: E731
    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's working set plus the (m,) result and small constants
    assert peak <= budget + 8 * m + 2**14


# ---------------------------------------------------------------------------
# Tukey regions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_tukey_region_classifies_data_points(seed):
    cloud = make_cloud(seed, 11)
    slack = 1e-9 * cloud.extent
    depths = get_depth("halfspace").evaluate_many(cloud.points, cloud)
    for k in range(1, 6):
        alpha = k / cloud.n
        region = tukey_region_2d(cloud, alpha)
        for p, dp in zip(cloud.points, depths):
            if dp >= alpha:
                assert region.contains(p, tol=slack)
            else:
                assert not region.contains(p, tol=slack)


def test_tukey_region_nests_and_empties():
    cloud = make_cloud(5, 13)
    depths = get_depth("halfspace").evaluate_many(cloud.points, cloud)
    dmax = float(depths.max())
    slack = 1e-9 * cloud.extent
    prev = None
    for k in range(1, cloud.n + 1):
        region = tukey_region_2d(cloud, k / cloud.n)
        if k / cloud.n > dmax + 1e-12:
            assert region.is_empty
        else:
            assert not region.is_empty
            if prev is not None and not prev.is_empty:
                assert prev.contains_region(region, tol=slack)
        prev = region


def test_halfspace_region_wraps_tukey_region():
    cloud = make_cloud(2, 9)
    a = halfspace_region(cloud, 2.0 / 9.0)
    b = tukey_region_2d(cloud, 2.0 / 9.0)
    assert a.hausdorff(b) <= 1e-12


def test_tukey_region_low_alpha_is_hull():
    cloud = make_cloud(8, 10)
    from depthkit.geometry import ConvexRegion

    hull = ConvexRegion.from_points(cloud.points)
    region = tukey_region_2d(cloud, 1.0 / cloud.n)
    assert region.hausdorff(hull) <= 1e-9 * cloud.extent


# ---------------------------------------------------------------------------
# random directional approximation
# ---------------------------------------------------------------------------


def test_random_tukey_upper_bounds_exact():
    cloud = make_cloud(11, 15)
    budget = EvalOptions(budget=2000, seed=3)
    for q in list(cloud.points[:6]) + [np.zeros(2), np.array([0.3, -0.2])]:
        exact = halfspace_depth(q, cloud)
        approx = random_tukey_depth(q, cloud, budget)
        assert approx >= exact
        assert approx <= exact + 2.0 / cloud.n


def test_random_tukey_weakly_decreasing_in_budget():
    cloud = make_cloud(4, 12)
    q = np.array([0.1, 0.1])
    vals = [
        random_tukey_depth(q, cloud, EvalOptions(budget=c, seed=0))
        for c in (50, 500, 4000)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_random_tukey_is_seed_reproducible():
    cloud = make_cloud(6, 10)
    q = np.array([0.05, -0.3])
    b = EvalOptions(budget=777, seed=42)
    assert random_tukey_depth(q, cloud, b) == random_tukey_depth(q, cloud, b)


def test_random_tukey_exact_at_coincident_query():
    pts = np.array([[1.0, 1.0]] * 4)
    cloud = DataCloud(pts)
    assert random_tukey_depth([1.0, 1.0], cloud, EvalOptions(budget=10, seed=0)) == 1.0


def test_direction_budget_validation(monkeypatch):
    import depthkit.rng as rng

    cloud = make_cloud(0, 12)

    def no_draw(*args):
        raise AssertionError("directions were drawn")

    # refused before anything is drawn
    monkeypatch.setattr(rng, "direction_stream", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for budget, error in ((0, ValueError), (MAX_DIRECTION_BUDGET + 1, EnumerationTooLargeError)):
        for refused in (lambda: EvalOptions(budget=budget),
                        lambda: unit_directions(2, budget, 0),
                        lambda: ProjectionIndex(cloud, budget, 0)):
            with pytest.raises(error):
                refused()


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_direction_set_is_the_stream_row_by_row(dim):
    stream = direction_stream(dim, 7)
    expected = np.array([next(stream) for _ in range(300)])
    got = unit_directions(dim, 300, 7)
    assert got.dtype == np.float64 and not got.flags.writeable
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_one_dimensional_depths_count_the_sides_exactly(scale, shift):
    # in d = 1 both depths reduce the points strictly below and above the
    # query, and a side test there compares two numbers: no tolerance, so
    # the two agree on zero versus positive on, next to and outside the
    # data, at any scale (a simplicial depth with a coordinate tolerance
    # once counted queries 25 to 125 widths outside a tiny cloud as inside)
    values = np.arange(5.0) * scale + shift
    lo, hi = values.min(), values.max()
    width = hi - lo
    qs = np.concatenate([values, (values[1:] + values[:-1]) / 2.0, [
        np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
        np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
        lo - 1e-10 * width, hi + 1e-10 * width, lo - 25.0 * width, hi + 125.0 * width]])
    cloud = DataCloud(values)
    below = np.count_nonzero(values < qs[:, None], axis=1)
    above = np.count_nonzero(values > qs[:, None], axis=1)
    halfspace = np.array([halfspace_depth(q, cloud) for q in qs])
    simplicial = np.array([simplicial_depth(q, cloud) for q in qs])
    np.testing.assert_array_equal(halfspace > 0.0, (qs >= lo) & (qs <= hi))
    np.testing.assert_array_equal(simplicial > 0.0, halfspace > 0.0)
    np.testing.assert_array_equal(halfspace, (5 - np.maximum(below, above)) / 5)
    np.testing.assert_array_equal(
        simplicial, (10 - below * (below - 1) // 2 - above * (above - 1) // 2) / 10)
    # the batches' rows are the point calls, bitwise
    assert halfspace_depth_1d(qs[:, None], cloud).tolist() == halfspace.tolist()
    assert simplicial_depth_many(qs, cloud).tolist() == simplicial.tolist()


def test_halfspace_depth_takes_a_point_or_a_batch():
    cloud = make_cloud(7, 30)
    qs = np.vstack([cloud.points[:5], np.random.default_rng(7).standard_normal((5, 2))])
    batch = halfspace_depth(qs, cloud)
    assert isinstance(batch, np.ndarray) and batch.shape == (10,)
    points = [halfspace_depth(q, cloud) for q in qs]
    assert all(type(value) is float for value in points)
    assert batch.tolist() == points
    assert halfspace_depth(qs[:0], cloud).shape == (0,)
    with pytest.raises(DimensionMismatchError):
        halfspace_depth(np.zeros((2, 3)), cloud)
