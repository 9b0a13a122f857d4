import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_ring_polygon, make_cloud
from depthkit import DataCloud, core, geometry, metric
from depthkit.combinatorial import SIMPLEX_ENUMERATION_CAP
from depthkit.errors import EnumerationTooLargeError, SingularScatterError, ZeroMadError
from depthkit.geometry import convex_hull
from depthkit.core import in_chunks, rows_times
from depthkit.metric import (
    MOMENT,
    ProjectionIndex,
    affine_invariant_l2_depth,
    l2_depth,
    mahalanobis_depth,
    mahalanobis_region,
    oja_depth,
    oja_depth_many,
    projection_depth,
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
    batch = mahalanobis_depth(zs, cloud)
    loop = [mahalanobis_depth(z, cloud) for z in zs]
    assert np.allclose(batch, loop, rtol=1e-12)


def test_mahalanobis_singular_scatter_raises():
    line = DataCloud(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(SingularScatterError):
        mahalanobis_depth([0.0, 0.0], line)


def test_mahalanobis_region_boundary_sits_at_level():
    cloud = make_cloud(3, 25)
    region = mahalanobis_region(cloud, 0.4)
    values = mahalanobis_depth(region.vertices, cloud)
    assert np.allclose(values, 0.4, atol=1e-9)
    assert region.contains(cloud.mean)


def _moment_ellipses():
    """Clouds of 30 points with eccentricity up to 1e8, scale 1e-6 to 1e6,
    any orientation, centred at the origin or far from it."""
    rng = np.random.default_rng(11)
    for _ in range(120):
        stretch = [1.0, 10.0 ** -rng.uniform(0.0, 8.0)]
        turn = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        shift = rng.uniform(-1e3, 1e3, 2) * rng.integers(0, 2)
        yield DataCloud((rng.standard_normal((30, 2)) * stretch @ rot.T + shift) * scale)


def test_mahalanobis_region_is_bitwise_the_hull_of_its_ellipse(monkeypatch):
    # the polygon is read off the ellipse where every turn clears the
    # hull's tolerance, bitwise the hull of the ellipse's points; elsewhere
    # it is held to that hull as every ring of support points is
    theta = np.linspace(0.0, 2.0 * np.pi, metric.ELLIPSE_VERTICES, endpoint=False)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    traced = []
    monkeypatch.setattr(geometry, "convex_hull",
                        lambda pts, eps=None: traced.append(1) or convex_hull(pts, eps))
    read_off = 0
    for cloud in _moment_ellipses():
        try:
            center, _, chol = MOMENT.estimate(cloud)
        except SingularScatterError:
            continue
        for alpha in (0.05, 0.4, 0.95):
            radius = math.sqrt(1.0 / alpha - 1.0)
            ring = center + radius * (circle @ chol.T)
            calls = len(traced)
            got = mahalanobis_region(cloud, alpha).vertices
            eps = 1e-12 * max(1.0, float(np.abs(ring).max())) ** 2
            o, b = np.roll(ring, 1, axis=0), np.roll(ring, -1, axis=0)
            turn = ((ring[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1])
                    - (ring[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0]))
            if np.all(turn > eps):
                want = convex_hull(ring)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert len(traced) == calls
                read_off += 1
            else:
                assert_ring_polygon(got, ring, float(np.ptp(ring, axis=0).max()))
    # both ways are taken, each many times: 158 rings are read off, and the
    # other 187, too thin or too far from the origin for the hull's eps,
    # are traced
    assert (read_off, len(traced)) == (158, 187)


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
    assert np.allclose(l2_depth(zs, cloud),
                       [l2_depth(z, cloud) for z in zs], atol=0, rtol=0)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_l2_distances_are_bitwise_the_norm_of_the_differences(d, scale):
    # the mean of the (m, n) norms of the (m, n, d) differences, as the
    # kernel once formed them; below 8 coordinates the kernel sums the
    # squares coordinate by coordinate, from 8 on numpy sums them pairwise
    rng = np.random.default_rng(d)
    pts = (rng.standard_normal((23, d)) + rng.uniform(-4.0, 4.0, d)) * scale
    zs = rng.standard_normal((150, d)) * (3.0 * scale)
    want = np.linalg.norm(zs[:, None, :] - pts[None, :, :], axis=2).mean(axis=1)
    assert metric._distances(zs, pts).mean(axis=1).tobytes() == want.tobytes()
    want = np.minimum(np.maximum(1.0 / (1.0 + want), 0.0), 1.0)
    assert l2_depth(zs, DataCloud(pts)).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 8])
def test_l2_distances_that_overflow_are_refused_without_a_warning(d):
    pts = np.random.default_rng(d).standard_normal((12, d)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnumerationTooLargeError, match="overflow"):
            l2_depth(pts, DataCloud(pts))


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


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-12])
def test_projection_depth_is_free_of_the_scale(scale):
    # the index's length and zero-MAD thresholds are relative to the cloud:
    # scaled by 1e150, every direction once fell below an absolute 1e-12,
    # and at 1e-12 the MAD guard's floor of 1 raised ZERO_MAD
    pts = np.random.default_rng(3).standard_normal((12, 2))
    base, scaled = DataCloud(pts), DataCloud(pts * scale)
    expected = metric.projection_depth(pts, base)
    got = metric.projection_depth(pts * scale, scaled)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)
    assert (metric.ProjectionIndex(scaled, 1000, 0).dirs.shape
            == metric.ProjectionIndex(base, 1000, 0).dirs.shape)


def test_projection_index_without_directions_is_a_coded_error(monkeypatch):
    # an index left with no direction is a coded error, where an empty index
    # once divided by zero.  Scaled by 1e200 the moment scatter overflows,
    # and that is refused first, as too large
    pts = np.random.default_rng(3).standard_normal((12, 2))
    with pytest.raises(EnumerationTooLargeError, match="scatter overflows"):
        metric.projection_depth(pts * 1e200, DataCloud(pts * 1e200))
    monkeypatch.setattr(metric, "_whitened_directions", lambda cloud, *_: np.empty((0, cloud.d)))
    with pytest.raises(ZeroMadError, match="survives whitening"):
        metric.projection_depth(pts, DataCloud(pts))


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


def _median_loop_index(cloud, budget, seed):
    """(dirs, med, mad) as the index was built before it sorted rows: one
    ``standard_normal(n)`` draw and one ``g @ pts`` per combination, then
    ``np.median`` of each chunk of projections and of their absolute
    deviations, in the same row chunks under ``core.BATCH_BYTES``."""
    pts = cloud.points
    n, d = pts.shape
    dev = pts - pts.mean(axis=0)
    scatter = dev.T @ dev / n
    if d == 1:
        dirs = np.ones((1, 1))
    else:
        iu, ju = np.triu_indices(n, k=1)
        diffs = pts[iu] - pts[ju]
        keep = np.linalg.norm(diffs, axis=1) > 1e-12
        rng = np.random.default_rng(seed)
        combos = np.empty((budget, d))
        for k in range(budget):
            g = rng.standard_normal(n)
            g -= g.mean()
            combos[k] = g @ pts
        white = np.linalg.solve(scatter, np.vstack([diffs[keep], combos]).T).T
        norms = np.linalg.norm(white, axis=1)
        dirs = white[norms > 1e-12] / norms[norms > 1e-12, None]
    med = np.empty(dirs.shape[0])
    mad = np.empty(dirs.shape[0])
    rows = max(1, core.BATCH_BYTES // (32 * n))
    for start in range(0, dirs.shape[0], rows):
        proj = dirs[start:start + rows] @ pts.T
        med[start:start + rows] = np.median(proj, axis=1)
        mad[start:start + rows] = np.median(
            np.abs(proj - med[start:start + rows, None]), axis=1)
    return dirs, med, mad


def _projection_cloud(n, d, repeated):
    rng = np.random.default_rng(100 * n + d)
    pts = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + 5.0
    if repeated:
        # every point twice or more, so projections tie in every direction
        pts = pts[np.arange(n) % (n // 2)]
    return DataCloud(pts)


def _index_rows(dirs, med, mad):
    """Each (direction, median, MAD) row of an index as bytes, in order."""
    return [row.tobytes() for row in np.column_stack([dirs, med, mad])]


def _in_folded_angular_order(dirs):
    """Whether the planar directions, each turned to the upper half-plane,
    run from angle 0 to pi."""
    folded = np.where(dirs[:, 1:] < 0.0, -dirs, dirs)
    return bool(np.all(np.diff(-folded[:, 0]) >= 0.0))


def _bitwise(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("chunked", [False, True], ids=["default", "chunked"])
@pytest.mark.parametrize("repeated", [False, True], ids=["general", "repeated"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [10, 27, 80])
def test_projection_index_is_bitwise_the_median_loop(monkeypatch, n, d, repeated, chunked):
    cloud = _projection_cloud(n, d, repeated)
    if chunked:
        # builds of 7 directions, and combinations drawn 28 at a time
        monkeypatch.setattr(core, "BATCH_BYTES", 7 * 32 * n)
    index = ProjectionIndex(cloud, 1000, 4)
    got = _index_rows(index.dirs, index.med, index.mad)
    want = _index_rows(*_median_loop_index(cloud, 1000, 4))
    if d == 2:
        # the plane's index holds the same rows in folded angular order
        assert sorted(got) == sorted(want)
        assert _in_folded_angular_order(index.dirs)
    else:
        assert got == want


@pytest.mark.parametrize("batch_bytes", [None, 3 * 8 * 30], ids=["default", "chunked"])
def test_projection_combinations_are_one_stream(monkeypatch, batch_bytes):
    # the combinations of budget 7 are the first 7 of budget 50, also when
    # the draws are split into blocks of 3 rows
    cloud = make_cloud(13, 30)
    if batch_bytes is not None:
        monkeypatch.setattr(core, "BATCH_BYTES", batch_bytes)
    small = ProjectionIndex(cloud, 7, 2)
    large = ProjectionIndex(cloud, 50, 2)
    pairs = small.dirs.shape[0] - 7
    assert pairs == large.dirs.shape[0] - 50 == 30 * 29 // 2
    # the plane's index orders its rows by angle: every row of budget 7 is
    # a row of budget 50, bitwise, and 43 rows are new
    few = Counter(_index_rows(small.dirs, small.med, small.mad))
    more = Counter(_index_rows(large.dirs, large.med, large.mad))
    assert not few - more
    assert sum((more - few).values()) == 43


#: magnitudes from 1e-300 to 1e300, either sign
_WIDE = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
                  st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-300, 299))


@st.composite
def _mad_row(draw, n):
    """n floats of one kind: small integers (long tie runs), a few units in
    the last place about a value far from 0 (where s[lo] + s[hi] rounds more
    coarsely than either deviation), one value repeated, a tie run across
    the middle, wide magnitudes, wide values in +- pairs about a small
    offset, or signed zeros and subnormals."""
    kind = draw(st.sampled_from(["ties", "ulps", "equal", "middle run", "wide", "mirrored",
                                 "zeros"]))
    if kind in ("ties", "ulps"):
        steps = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        base = 0.0 if kind == "ties" else draw(st.sampled_from([1.0, 3.0, 2.0**53, 1e17]))
        return [base + k * (1.0 if kind == "ties" else float(np.spacing(base))) for k in steps]
    if kind == "equal":
        return [draw(st.one_of(st.floats(-1e3, 1e3), _WIDE))] * n
    if kind == "middle run":
        row = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
        start = draw(st.integers(0, n // 2))
        stop = draw(st.integers(n // 2 + 1, n))
        row[start:stop] = [row[n // 2]] * (stop - start)
        return row
    if kind == "wide":
        return draw(st.lists(_WIDE, min_size=n, max_size=n))
    if kind == "mirrored":
        half = draw(st.lists(_WIDE, min_size=n // 2, max_size=n // 2))
        offset = draw(st.sampled_from([0.0, 1.0, -1.0, 1e-300, 3.0]))
        return [offset + v for v in half] + [offset - v for v in half] + [offset] * (n % 2)
    return draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
                         min_size=n, max_size=n))


@st.composite
def _sorted_rows(draw):
    n = draw(st.integers(1, 61))
    rows = draw(st.lists(_mad_row(n), min_size=1, max_size=4))
    return np.sort(np.array(rows, dtype=float), axis=1)


@settings(max_examples=400, deadline=None)
@given(_sorted_rows())
def test_sorted_mad_is_the_middle_of_the_sorted_deviations(s):
    # the bisection reads the sorted row alone, yet must give the very float
    # that sorting the |deviations| again and taking their middle gives
    med = metric._sorted_middle(s)
    want = metric._sorted_middle(np.sort(np.abs(s - med[:, None]), axis=1))
    assert metric._sorted_mad(s, med).tobytes() == want.tobytes()


def test_projection_index_is_read_only_and_outlyingness_chunk_free(monkeypatch):
    cloud = make_cloud(14, 40)
    index = ProjectionIndex(cloud, 200, 5)
    kept = [arr.copy() for arr in (index.dirs, index.med, index.mad)]
    for arr in (index.dirs, index.med, index.mad):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    zs = np.vstack([cloud.points, np.random.default_rng(15).standard_normal((70, 2)) * 3.0])
    # the expression the kernel evaluates in place, in chunks under the budget
    expected = in_chunks(
        lambda q: np.max(np.abs(rows_times(q, index.dirs) - index.med) / index.mad, axis=1),
        zs, 24 * index.dirs.shape[0])
    default = index.outlyingness(zs)
    monkeypatch.setattr(metric, "_OUT_BLOCK_ENTRIES", 1)
    one_row = index.outlyingness(zs)
    monkeypatch.setattr(metric, "_OUT_BLOCK_ENTRIES", 2**40)
    monkeypatch.setattr(core, "BATCH_BYTES", 2**40)
    whole = index.outlyingness(zs)
    for got in (default, one_row, whole):
        assert _bitwise(got, expected)
    for arr, before in zip((index.dirs, index.med, index.mad), kept):
        assert _bitwise(arr, before)


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
    vals = projection_depth(eu_cloud.points, eu_cloud,
                            direction_budget=10000, seed=0)
    assert vals[labels.index("Spain")] == pytest.approx(0.131660905972, abs=1e-9)
    assert vals[labels.index("Greece")] == pytest.approx(0.138576942170, abs=1e-9)
