"""Exact planar regions against the loops they replaced.

``oracle_tukey_region`` clips the padded box by every critical halfplane in
turn, as ``tukey_region_2d`` did before it skipped the halfplanes that
cannot cut, with all projections formed in one product.  A cloud with a
near-tie or on one line still takes that path, and must give bitwise the
same vertices.  A cloud in general position reads its halfplanes from the
table of pair counts: its region must lie within 1e-9 of the extent of the
loop's, or of the exact region (``exact_tukey_regions``, in rational
arithmetic) for the small named clouds, and inside every closed halfplane
that a line through two data points bounds with at most k - 1 points
strictly beyond (``pair_halfplane_oracle``, which counts the sides by cross
products).
``oracle_wm_region`` orders the sample afresh for every level, and the
array code must give bitwise the same vertices.  Both oracles and the code
under test form projections as BLAS products of blocks of at least two
directions; on the clouds here such products round alike whatever the
block size.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import benchmark_gaussian, make_cloud

from depthkit import combinatorial, core
from depthkit.cloud import DataCloud
from depthkit.combinatorial import (
    _collinear_frame,
    _level_count,
    _pair_counts,
    _trimmed_span,
    _clip_by_cutting,
    _halfplane_bounds,
    tukey_region_2d,
)
from depthkit.geometry import ConvexRegion, clip_polygon_halfplane, convex_hull
from depthkit.weighted import ECH_STAR, GEOMETRIC, ZONOID, _pair_differences, weights, wm_region_2d


def oracle_tukey_region(cloud, alpha):
    n = cloud.n
    k = _level_count(n, alpha)
    pts = cloud.points
    tol = cloud.coord_tol
    frame = _collinear_frame(pts, 1e-12)
    if frame is not None:
        center, axis = frame
        span = _trimmed_span((pts - center) @ axis, k, tol)
        if span is None:
            return ConvexRegion.empty(2)
        lo, hi = span
        return ConvexRegion.from_points(np.array([center + lo * axis, center + hi * axis]))
    iu, ju = np.triu_indices(n, k=1)
    diffs = pts[iu] - pts[ju]
    diffs = diffs[np.linalg.norm(diffs, axis=1) > tol]
    normals = np.column_stack([-diffs[:, 1], diffs[:, 0]])
    normals = np.vstack([normals, -normals])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    h = np.partition(normals @ pts.T, n - k, axis=1)[:, n - k]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.5 * max(float(np.max(hi - lo)), 1.0)
    poly = np.array([
        [lo[0] - pad, lo[1] - pad],
        [hi[0] + pad, lo[1] - pad],
        [hi[0] + pad, hi[1] + pad],
        [lo[0] - pad, hi[1] + pad],
    ])
    for u, bound in zip(normals, h):
        poly = clip_polygon_halfplane(poly, u, float(bound), tol)
        if poly.shape[0] == 0:
            return ConvexRegion.empty(2)
    return ConvexRegion(2, convex_hull(poly))


def oracle_wm_region(cloud, scheme, alpha):
    w = weights(scheme, cloud.n, alpha)
    pts = cloud.points
    diffs = _pair_differences(cloud)
    if diffs.shape[0] == 0:
        return ConvexRegion.single(pts[0])
    base = np.arctan2(diffs[:, 1], diffs[:, 0])
    crit = np.concatenate([base + 0.5 * np.pi, base - 0.5 * np.pi]) % (2.0 * np.pi)
    crit = np.unique(crit)
    gaps = np.diff(np.concatenate([crit, [crit[0] + 2.0 * np.pi]]))
    mids = (crit + gaps / 2.0) % (2.0 * np.pi)
    dirs = np.column_stack([np.cos(mids), np.sin(mids)])
    verts = np.empty((dirs.shape[0], 2))
    for start in range(0, dirs.shape[0], 4096):
        u = dirs[start:start + 4096]
        order = np.argsort(u @ pts.T, axis=1, kind="stable")
        verts[start:start + 4096] = np.einsum("j,kjd->kd", w, pts[order])
    return ConvexRegion.from_points(verts)


def assert_bitwise(got, want):
    assert got.dim == want.dim
    assert got.vertices.shape == want.vertices.shape
    # int64 views compare the sign bits of zeros as well
    assert np.array_equal(got.vertices.view(np.int64), want.vertices.view(np.int64))


def takes_pair_table(cloud):
    """Whether ``tukey_region_2d`` reads the cloud's halfplanes from the
    table of pair counts: off one line, and without a near-tie."""
    return _collinear_frame(cloud.points, 1e-12) is None and _pair_counts(cloud) is not None


def pair_halfplane_oracle(pts):
    """Each directed line x_i -> x_j through two data points (i != j): x_i,
    its unit direction and the data points strictly right of it, from one
    cross product per (line, point), O(n^3)."""
    n = pts.shape[0]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    d = pts[j] - pts[i]
    rel = pts[None] - pts[i][:, None]
    cross = d[:, None, 0] * rel[..., 1] - d[:, None, 1] * rel[..., 0]
    return pts[i], d / np.hypot(d[:, 0], d[:, 1])[:, None], (cross < 0.0).sum(axis=1)


def sound_slack(cloud):
    """1e-13 of the extent, plus the rounding of the coordinates, which is
    far below that for a cloud near the origin."""
    return 1e-13 * cloud.extent + 4 * np.spacing(np.abs(cloud.points).max())


def assert_sound(region, k, halfplanes, slack):
    """Every vertex of the level-k region lies within ``slack`` of each
    closed halfplane left of a line with at most k - 1 points beyond: no
    such halfplane holds fewer than n - k + 1 points."""
    if region.is_empty:
        return
    base, unit, beyond = halfplanes
    held = beyond <= k - 1
    rel = region.vertices[None] - base[held][:, None]
    left = unit[held, None, 0] * rel[..., 1] - unit[held, None, 1] * rel[..., 0]
    assert left.min() >= -slack, (k, -left.min() / slack)


def assert_close_and_sound(cloud, k, got, halfplanes, want=None):
    """``got`` lies within 1e-9 of the extent of ``want`` (the clip loop's
    region by default) and is sound."""
    if want is None:
        want = oracle_tukey_region(cloud, k / cloud.n)
    assert got.is_empty == want.is_empty, k
    if not want.is_empty:
        assert got.hausdorff(want) <= 1e-9 * cloud.extent, k
    assert_sound(got, k, halfplanes, sound_slack(cloud))


def exact_tukey_regions(pts):
    """Every level k = 1..n of the cloud, in rational arithmetic: a box
    about the points clipped by each closed halfplane left of a line
    x_i -> x_j with at most k - 1 points strictly right of it, with the
    vertices rounded at the end."""
    pts = [tuple(map(Fraction, p)) for p in pts.tolist()]
    n = len(pts)

    def left_of(a, b):
        return lambda z: (b[0] - a[0]) * (z[1] - a[1]) - (b[1] - a[1]) * (z[0] - a[0])

    lines = [left_of(pts[i], pts[j]) for i in range(n) for j in range(n) if i != j]
    beyond = [sum(side(z) < 0 for z in pts) for side in lines]
    xs, ys = zip(*pts)
    pad = max(max(xs) - min(xs), max(ys) - min(ys))
    box = [(min(xs) - pad, min(ys) - pad), (max(xs) + pad, min(ys) - pad),
           (max(xs) + pad, max(ys) + pad), (min(xs) - pad, max(ys) + pad)]
    regions = []
    for k in range(1, n + 1):
        poly = box
        for side, count in zip(lines, beyond):
            if count > k - 1 or not poly:
                continue
            vals = [side(z) for z in poly]
            out = []
            for s in range(len(poly)):
                t = (s + 1) % len(poly)
                if vals[s] >= 0:
                    out.append(poly[s])
                if (vals[s] >= 0) != (vals[t] >= 0):
                    w = vals[s] / (vals[s] - vals[t])
                    out.append(tuple(p + w * (q - p) for p, q in zip(poly[s], poly[t])))
            poly = out
        regions.append(ConvexRegion.from_points(np.array(poly, dtype=float)) if poly
                       else ConvexRegion.empty(2))
    return regions


def _clouds():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((16, 2))
    t = rng.uniform(-1.0, 1.0, 14)
    lattice = np.array([(x, y) for x in range(5) for y in range(4)], dtype=float)
    return {
        "gaussian": base,
        "duplicates": np.vstack([base[:9], base[:5], base[2:4]]),
        "near-collinear": np.column_stack([t, 0.5 * t + 1e-7 * rng.standard_normal(14)]),
        "collinear": np.column_stack([t, 2.0 * t - 1.0]),
        "lattice": lattice,
        "lattice-duplicates": np.vstack([lattice, lattice[::3]]),
        "translated": base + 1e6,
        "scaled": base * 1e-6,
        "lattice-translated": lattice * 1e-6 + np.array([1e6, -1e6]),
    }


CLOUDS = _clouds()


# ---------------------------------------------------------------------------
# Tukey regions
# ---------------------------------------------------------------------------


#: the named clouds in general position, which are held to the exact
#: region: the clip loop's tolerance and padding do not scale with the
#: cloud, and its regions lie up to 3.6e-9 (translated) and 2.5e-4 (scaled)
#: of the extent from the exact ones.  (On those two clouds the hull's
#: collinearity threshold, which does not scale either, drops vertices of
#: every region alike.)  The others have a near-tie (duplicates, or three
#: points within rounding of one line) or lie on one line.
TABLE_CLOUDS = {"gaussian", "translated", "scaled"}


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_tukey_region_matches_the_clip_loop_at_every_level(name):
    cloud = DataCloud(CLOUDS[name])
    assert takes_pair_table(cloud) == (name in TABLE_CLOUDS)
    if name in TABLE_CLOUDS:
        halfplanes = pair_halfplane_oracle(cloud.points)
        exact = exact_tukey_regions(cloud.points)
    for k in range(1, cloud.n + 1):
        got = tukey_region_2d(cloud, k / cloud.n)
        if name in TABLE_CLOUDS:
            assert_close_and_sound(cloud, k, got, halfplanes, exact[k - 1])
        else:
            assert_bitwise(got, oracle_tukey_region(cloud, k / cloud.n))


@pytest.mark.parametrize("seed, n", [(0, 27), (1, 40), (2, 80)])
def test_tukey_region_matches_the_clip_loop_on_random_clouds(seed, n):
    cloud = make_cloud(seed, n)
    assert takes_pair_table(cloud)
    halfplanes = pair_halfplane_oracle(cloud.points)
    for k in range(1, n // 2 + 2, 3):
        assert_close_and_sound(cloud, k, tukey_region_2d(cloud, k / n), halfplanes)


def _sound_clouds():
    clouds = {f"make_cloud({s}, {n})": make_cloud(s, n).points
              for s in range(6) for n in (27, 40, 80)}
    clouds.update({f"benchmark_gaussian({s}, 80)": benchmark_gaussian(s, 80)
                   for s in (1, 2, 3)})
    return clouds


SOUND_CLOUDS = _sound_clouds()


@pytest.mark.parametrize("name", sorted(SOUND_CLOUDS))
def test_tukey_region_lies_in_every_halfplane_of_its_level(name):
    # a vertex outside such a halfplane has depth below the level; the
    # clip loop over every critical halfplane leaves some outside by up to
    # 1.8e-12 of the extent (make_cloud(3, 80) at k = 2), as a clip that
    # keeps a vertex within its tolerance outside lets later crossings
    # drift along its edge
    cloud = DataCloud(SOUND_CLOUDS[name])
    halfplanes = pair_halfplane_oracle(cloud.points)
    for k in range(1, cloud.n // 3 + 1):
        region = tukey_region_2d(cloud, k / cloud.n)
        assert not region.is_empty
        assert_sound(region, k, halfplanes, 1e-13 * cloud.extent)


@pytest.mark.parametrize("seed, n", [(0, 27), (3, 80), (5, 13)])
def test_pair_counts_are_the_points_right_of_each_line(monkeypatch, seed, n):
    cloud = make_cloud(seed, n)
    _, _, beyond = pair_halfplane_oracle(cloud.points)
    want = np.full((n, n), n, dtype=np.int32)
    want[~np.eye(n, dtype=bool)] = beyond
    tukey_region_2d(cloud, 0.2)
    kept = cloud._derived[("tukey-pairs",)]
    assert np.array_equal(kept, want) and not kept.flags.writeable
    # one query row per chunk, and a table too large to keep
    monkeypatch.setattr(core, "BATCH_BYTES", 4 * n * n - 1)
    fresh = DataCloud(cloud.points)
    assert np.array_equal(_pair_counts(fresh), want)
    assert_bitwise(tukey_region_2d(fresh, 0.2), tukey_region_2d(cloud, 0.2))
    assert ("tukey-pairs",) not in fresh._derived


@pytest.mark.parametrize("name", ["gaussian", "duplicates", "lattice", "translated"])
@pytest.mark.parametrize("planes", [2, 7, 64])
def test_tukey_region_does_not_depend_on_the_block_size(monkeypatch, name, planes):
    cloud = DataCloud(CLOUDS[name])
    want = [tukey_region_2d(cloud, k / cloud.n) for k in range(1, cloud.n // 2 + 2)]
    # room for this many halfplanes per block
    monkeypatch.setattr(core, "BATCH_BYTES", 16 * cloud.n * planes)
    for k, region in enumerate(want, start=1):
        assert_bitwise(tukey_region_2d(cloud, k / cloud.n), region)


def test_tukey_region_clips_by_few_of_its_halfplanes(monkeypatch):
    # 6320 critical halfplanes, nearly all of which cut the padded box; the
    # sequential loop called the clip once for each, and the pair table
    # offers only the lines with k - 1 or k - 2 points beyond
    cloud = make_cloud(2, 80)
    want = oracle_tukey_region(cloud, 0.2)
    calls = []

    def counting_clip(*args):
        calls.append(args)
        return clip_polygon_halfplane(*args)

    monkeypatch.setattr(combinatorial, "clip_polygon_halfplane", counting_clip)
    assert tukey_region_2d(cloud, 0.2).hausdorff(want) <= 1e-9 * cloud.extent
    assert 0 < len(calls) < 0.05 * 6320


def test_halfplane_bounds_are_those_of_one_product(monkeypatch):
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((30, 2))
    angles = rng.uniform(0.0, 2 * np.pi, 25)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    # each normal with its negative, as the region pairs them: 50 in all
    normals = np.vstack([normals, -normals])
    want = np.partition(normals @ pts.T, 30 - 7, axis=1)[:, 30 - 7]
    for planes in (1, 2, 3, 7, 64):
        # room for 7 halfplanes per block would leave the 50th alone, and
        # BLAS rounds a one-row product differently from a block of rows
        monkeypatch.setattr(core, "BATCH_BYTES", 16 * 30 * planes)
        blocks = list(_halfplane_bounds(normals, pts, 7))
        assert all(u.shape[0] >= 2 for u, _ in blocks)
        assert np.array_equal(np.concatenate([u for u, _ in blocks]), normals)
        got = np.concatenate([h for _, h in blocks])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_tukey_region_working_set_stays_within_the_batch_budget(monkeypatch):
    cloud = make_cloud(3, 300)
    tracemalloc.start()
    try:
        want = tukey_region_2d(cloud, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 89,700 halfplanes' projections would take 215 MB, twice over
    assert peak <= 2 * core.BATCH_BYTES
    monkeypatch.setattr(core, "BATCH_BYTES", 2**16)
    assert_bitwise(tukey_region_2d(cloud, 0.2), want)


def _box():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_a_halfplane_that_cuts_by_less_than_the_rounding_bound_is_clipped():
    # the vertices on x = 1 stick out by tol plus a quarter of the rounding
    # bound 1e-13 (1 + |h|): inside for no tolerance the clip allows
    tol = 1e-9
    h = 1.0 - tol - 0.5e-13
    normals, bounds = np.array([[1.0, 0.0]]), np.array([h])
    got = _clip_by_cutting(_box(), normals, bounds, tol)
    want = clip_polygon_halfplane(_box(), normals[0], h, tol)
    assert want.shape == (4, 2) and not np.array_equal(want, _box())
    assert np.array_equal(got, want)


def test_a_clip_stays_within_the_polygon_it_was_cut_from():
    # (1.05, 0) is kept within tol of x <= 1 next to the cut (1.2, 1): the
    # crossing is taken at the kept end of that edge, not at (1, -1/3) past
    # the polygon's bottom edge, so y >= -0.1 clears the clipped polygon too
    tol = 0.1
    poly = np.array([[0.0, 0.0], [1.05, 0.0], [1.2, 1.0], [0.0, 1.0]])
    normals, bounds = np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.1])
    want = clip_polygon_halfplane(poly, normals[0], float(bounds[0]), tol)
    assert want[:, 1].min() == 0.0
    assert ConvexRegion(2, poly).contains_many(want, tol=1e-15).all()
    assert clip_polygon_halfplane(want, normals[1], float(bounds[1]), tol) is want
    assert np.array_equal(_clip_by_cutting(poly, normals, bounds, tol), want)


def test_clipped_polygons_never_reach_past_the_polygon():
    rng = np.random.default_rng(7)
    for _ in range(200):
        poly = convex_hull(rng.standard_normal((8, 2)))
        angle = rng.uniform(0.0, 2 * np.pi)
        u = np.array([np.cos(angle), np.sin(angle)])
        # bounds that leave vertices just outside, within the tolerance
        tol = 0.05
        h = float(rng.choice(poly @ u)) - rng.uniform(0.0, tol)
        clipped = clip_polygon_halfplane(poly, u, h, tol)
        if clipped.shape[0]:
            assert ConvexRegion(2, poly).contains_many(clipped, tol=1e-12).all()
            assert (clipped @ u).max() <= h + tol


def test_clipping_skips_only_halfplanes_that_cannot_cut():
    rng = np.random.default_rng(4)
    angles = rng.uniform(0.0, 2 * np.pi, 400)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    # bounds around the box's support: many miss it, many cut, some graze
    support = np.maximum(normals, 0.0).sum(axis=1)
    bounds = support - rng.choice([0.3, 0.0, -0.2, 1e-10, -1e-10], 400)
    want = _box()
    for u, h in zip(normals, bounds):
        want = clip_polygon_halfplane(want, u, float(h), 1e-9)
    assert np.array_equal(_clip_by_cutting(_box(), normals, bounds, 1e-9), want)


# ---------------------------------------------------------------------------
# weighted-mean regions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_wm_region_matches_the_per_level_ordering(name):
    cloud = DataCloud(CLOUDS[name])
    for scheme in (ZONOID, ECH_STAR, GEOMETRIC):
        for alpha in (0.05, 0.3, 0.5, 0.9, 1.0):
            assert_bitwise(wm_region_2d(cloud, scheme, alpha), oracle_wm_region(cloud, scheme, alpha))


@pytest.mark.parametrize("scheme", [ZONOID, ECH_STAR, GEOMETRIC], ids=lambda s: s.name)
def test_wm_region_kept_and_streamed_orderings_agree(monkeypatch, scheme):
    # n = 70: 4830 critical intervals, more than one chunk of 4096
    pts = make_cloud(6, 70).points
    kept = DataCloud(pts)
    alphas = (0.02, 0.1, 0.45, 0.8, 1.0)
    want = [wm_region_2d(kept, scheme, a) for a in alphas]
    assert ("wm-ordered",) in kept._derived
    monkeypatch.setattr(core, "BATCH_BYTES", 2**20)
    streamed = DataCloud(pts)
    for alpha, region in zip(alphas, want):
        got = wm_region_2d(streamed, scheme, alpha)
        assert_bitwise(got, region)
        assert_bitwise(got, oracle_wm_region(streamed, scheme, alpha))
    assert ("wm-ordered",) not in streamed._derived


def test_wm_region_of_coincident_points_is_that_point():
    cloud = DataCloud(np.tile([[2.0, -1.0]], (4, 1)))
    for scheme in (ZONOID, ECH_STAR, GEOMETRIC):
        assert_bitwise(wm_region_2d(cloud, scheme, 0.5), oracle_wm_region(cloud, scheme, 0.5))
