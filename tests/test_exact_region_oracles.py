"""Exact planar regions against the loops they replaced.

``oracle_tukey_region`` clips the padded box by every critical halfplane in
turn, with all projections formed in one product.  A cloud on one line
must give bitwise its trimmed segment.  Every other cloud, with
duplicates, collinear triples or near-ties included, reads its halfplanes
from the table of pair counts: its region must lie within 1e-9 of the
extent of the exact region (``exact_tukey_regions``, in rational
arithmetic) for the small named and seeded clouds, or of the loop's on
larger ones, and inside every closed halfplane that a line through two
distinct data points bounds with at most k - 1 points strictly beyond
(``pair_halfplane_oracle``, which counts the sides by cross products).
``oracle_wm_means`` orders the sample afresh for every level and weighs
every rank: the weighted means the array code reads its polygon off must
be bitwise the same, and the polygon bitwise ``convex_ring_hull`` of them.
That polygon is held to the hull of the means by ``assert_ring_polygon``.
Both oracles and the code under test form projections as BLAS products of
blocks of at least two directions; on the clouds here such products round
alike whatever the block size.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import assert_ring_polygon, benchmark_gaussian, make_cloud

from depthkit import combinatorial, core, geometry, weighted
from depthkit.cloud import DataCloud
from depthkit.combinatorial import (
    _collinear_frame,
    _level_count,
    _pair_counts,
    _trimmed_span,
    _clip_by_cutting,
    tukey_region_2d,
)
from depthkit.geometry import ConvexRegion, clip_polygon_halfplane, convex_hull, convex_ring_hull
from depthkit.weighted import (
    ECH_STAR,
    GEOMETRIC,
    ZONOID,
    _ordered_of,
    _pair_differences,
    weights,
    wm_region_2d,
)


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


def oracle_wm_means(cloud, scheme, alpha):
    """The weighted means of the sample ordered along one direction inside
    each angular interval, in the angular order; None when all points
    coincide."""
    w = weights(scheme, cloud.n, alpha)
    pts = cloud.points
    diffs = _pair_differences(cloud)
    if diffs.shape[0] == 0:
        return None
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
    return verts


def oracle_wm_region(cloud, scheme, alpha):
    means = oracle_wm_means(cloud, scheme, alpha)
    if means is None:
        return ConvexRegion.single(cloud.points[0])
    return ConvexRegion(2, convex_ring_hull(means))


def wm_region_and_means(monkeypatch, cloud, scheme, alpha):
    """``wm_region_2d`` and the means it hands to ``convex_ring_hull``
    (None when it hands none)."""
    seen = []
    monkeypatch.setattr(weighted, "convex_ring_hull",
                        lambda ring: seen.append(ring) or convex_ring_hull(ring))
    region = wm_region_2d(cloud, scheme, alpha)
    assert len(seen) <= 1
    return region, (seen[0] if seen else None)


def assert_bitwise(got, want):
    assert got.dim == want.dim
    assert got.vertices.shape == want.vertices.shape
    # int64 views compare the sign bits of zeros as well
    assert np.array_equal(got.vertices.view(np.int64), want.vertices.view(np.int64))


def pair_halfplane_oracle(pts):
    """Each directed line x_i -> x_j through two distinct data points: x_i,
    its unit direction and the data points strictly right of it, from one
    cross product per (line, point), O(n^3).  The pairs come in row-major
    order of (i, j)."""
    i, j = np.nonzero((pts[:, None] != pts[None]).any(axis=2))
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


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_tukey_region_matches_the_exact_region_at_every_level(name):
    # held to the exact region, not to the clip loop: the loop's tolerance
    # and padding do not scale with the cloud, and its regions lie up to
    # 9.4e-4 (near-collinear) of the extent from the exact ones
    cloud = DataCloud(CLOUDS[name])
    if name == "collinear":
        assert _collinear_frame(cloud.points, 1e-12) is not None
        for k in range(1, cloud.n + 1):
            assert_bitwise(tukey_region_2d(cloud, k / cloud.n),
                           oracle_tukey_region(cloud, k / cloud.n))
        return
    halfplanes = pair_halfplane_oracle(cloud.points)
    exact = exact_tukey_regions(cloud.points)
    for k in range(1, cloud.n + 1):
        assert_close_and_sound(cloud, k, tukey_region_2d(cloud, k / cloud.n), halfplanes,
                               exact[k - 1])


def tie_cloud(seed):
    """A small seeded cloud with ties, off one line: an integer grid with
    repeats (even seeds), or Gaussian points on a grid of 2^-20 with two
    duplicates and two midpoints, which are exact (odd seeds)."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        grid = rng.integers(0, 4, (int(rng.integers(6, 11)), 2)).astype(float)
        return np.vstack([[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], grid])
    base = np.round(rng.standard_normal((int(rng.integers(6, 10)), 2)) * 2.0**20) * 2.0**-20
    a, b = rng.integers(0, base.shape[0], (2, 2))
    return np.vstack([base, base[rng.integers(0, base.shape[0], 2)], 0.5 * (base[a] + base[b])])


@pytest.mark.parametrize("move", ["1", "+1e6", "x1e6"])
def test_tukey_region_of_clouds_with_ties_is_the_exact_region(move):
    # translation by 1e6 and scaling by 1e6 are exact on these clouds
    for seed in range(32):
        pts = tie_cloud(seed)
        pts = {"1": pts, "+1e6": pts + 1e6, "x1e6": pts * 1e6}[move]
        cloud = DataCloud(pts)
        halfplanes = pair_halfplane_oracle(cloud.points)
        for k, exact in enumerate(exact_tukey_regions(cloud.points), start=1):
            assert_close_and_sound(cloud, k, tukey_region_2d(cloud, k / cloud.n), halfplanes,
                                   exact)


def test_a_vertex_of_exact_depth_on_a_line_of_repeats_is_kept():
    # (0, 2) lies on x = 0 with six other points, four of them at (0, 3),
    # and has depth exactly 3/12: a vertex of the level-3 region
    pts = np.array([[2, 0], [3, 2], [1, 3], [0, 3], [2, 2], [0, 3], [0, 1], [0, 3],
                    [0, 2], [0, 3], [2, 2], [0, 0]], dtype=float)
    cloud = DataCloud(pts)
    region = tukey_region_2d(cloud, 3 / 12)
    assert np.abs(region.vertices - [0.0, 2.0]).max(axis=1).min() <= 1e-15
    assert_close_and_sound(cloud, 3, region, pair_halfplane_oracle(pts),
                           exact_tukey_regions(pts)[2])


@pytest.mark.parametrize("scale", [1e-13, 1e-15])
def test_a_tiny_cloud_off_a_line_keeps_its_level(scale):
    # the collinearity test is relative to the cloud's spread: scaled this
    # small, the cloud is still off one line, and each vertex of its region
    # is as deep as the level
    cloud = DataCloud(np.random.default_rng(3).standard_normal((12, 2)) * scale)
    assert _collinear_frame(cloud.points, 1e-12) is None
    region = tukey_region_2d(cloud, 0.25)
    assert not region.is_empty
    assert (combinatorial.halfspace_depth_2d(region.vertices, cloud) >= 0.25).all()


@pytest.mark.parametrize("seed, n", [(0, 27), (1, 40), (2, 80)])
def test_tukey_region_matches_the_clip_loop_on_random_clouds(seed, n):
    cloud = make_cloud(seed, n)
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


def _pair_clouds():
    clouds = {f"make_cloud({s}, {n})": make_cloud(s, n).points
              for s, n in ((0, 27), (3, 80), (5, 13))}
    # near-ties: repeats, and integer lattices whose sides the oracle's
    # cross products get exactly
    clouds.update({name: CLOUDS[name] for name in ("duplicates", "lattice",
                                                   "lattice-duplicates")})
    return clouds


PAIR_CLOUDS = _pair_clouds()


@pytest.mark.parametrize("name", sorted(PAIR_CLOUDS))
def test_pair_counts_are_the_points_right_of_each_line(monkeypatch, name):
    cloud = DataCloud(PAIR_CLOUDS[name])
    n = cloud.n
    _, _, beyond = pair_halfplane_oracle(cloud.points)
    # n for a pair of coincident points, the diagonal among them
    want = np.full((n, n), n, dtype=np.int32)
    want[(cloud.points[:, None] != cloud.points[None]).any(axis=2)] = beyond
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
    # budgets under which the pair table's angular orders and side tables
    # take one to three query rows per chunk, and the table is not always kept
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


def test_tukey_region_working_set_stays_within_the_batch_budget(monkeypatch):
    cloud = make_cloud(3, 300)
    tracemalloc.start()
    try:
        want = tukey_region_2d(cloud, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the angular orders go in query chunks under the budget, and the kept
    # pair table and each level's masks take 4 n^2 and n^2 bytes (360 KB
    # and 90 KB at n = 300)
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


SCHEMES = (ZONOID, ECH_STAR, GEOMETRIC)


def assert_means_and_polygon(got, means, want_means):
    """The means are bitwise the oracle's, and the region is bitwise
    ``convex_ring_hull`` of them."""
    assert means.shape == want_means.shape
    assert np.array_equal(means.view(np.int64), want_means.view(np.int64))
    assert_bitwise(got, ConvexRegion(2, convex_ring_hull(want_means)))


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_wm_region_matches_the_per_level_ordering(monkeypatch, name):
    cloud = DataCloud(CLOUDS[name])
    for scheme in SCHEMES:
        for alpha in (0.05, 0.3, 0.5, 0.9, 1.0):
            got, means = wm_region_and_means(monkeypatch, cloud, scheme, alpha)
            assert_means_and_polygon(got, means, oracle_wm_means(cloud, scheme, alpha))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
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
        got, means = wm_region_and_means(monkeypatch, streamed, scheme, alpha)
        assert_bitwise(got, region)
        assert_means_and_polygon(got, means, oracle_wm_means(streamed, scheme, alpha))
    assert ("wm-ordered",) not in streamed._derived


def _far_and_small():
    """The 12-point cloud on which the hull's absolute eps shows, moved by
    1e6 and scaled by 1e-6."""
    pts = np.random.default_rng(3).standard_normal((12, 2))
    return {"moved-1e6": pts + 1e6, "scaled-1e-6": pts * 1e-6}


RING_CLOUDS = {**CLOUDS, **_far_and_small()}
RING_LEVELS = (0.02, 0.05, 0.1, 0.3, 0.5, 0.8, 0.9, 1.0)


def _ring_cases(monkeypatch, cloud):
    """For every scheme and ``RING_LEVELS``, the region's polygon against the
    hull of its means; the number of rings traced by the hull."""
    traced = []
    monkeypatch.setattr(geometry, "convex_hull",
                        lambda pts, eps=None: traced.append(1) or convex_hull(pts, eps))
    for scheme in SCHEMES:
        for alpha in RING_LEVELS:
            got, means = wm_region_and_means(monkeypatch, cloud, scheme, alpha)
            assert means is not None
            assert_ring_polygon(got.vertices, means, cloud.extent)
    return len(traced)


@pytest.mark.parametrize("name", sorted(RING_CLOUDS))
def test_wm_region_is_a_polygon_of_its_means_no_weaker_than_their_hull(monkeypatch, name):
    cloud = DataCloud(RING_CLOUDS[name])
    traced = _ring_cases(monkeypatch, cloud)
    cases = len(SCHEMES) * len(RING_LEVELS)
    if name in ("gaussian", "lattice", "duplicates", "lattice-duplicates"):
        # the level-1 means all round to the cloud's mean, and are traced;
        # most rings are reduced
        assert traced < cases // 2
    elif name in ("collinear", "translated", "lattice-translated", "moved-1e6", "scaled-1e-6"):
        # on one line, or with coordinates too far from the origin for the
        # hull's eps, every ring is traced
        assert traced == cases


def test_wm_region_of_a_streamed_ring_is_no_weaker_than_its_hull(monkeypatch):
    # n = 70 in chunks of 4096 critical intervals
    monkeypatch.setattr(core, "BATCH_BYTES", 2**20)
    cloud = DataCloud(make_cloud(6, 70).points)
    assert _ring_cases(monkeypatch, cloud) < len(SCHEMES) * len(RING_LEVELS) // 2
    assert ("wm-ordered",) not in cloud._derived


def test_leading_zero_weights_are_skipped_bitwise():
    # the zonoid's weights below rank n - n alpha are zero, and at alpha =
    # 0.004 the ECH* weights of the lowest ranks underflow to zero (one
    # rank at n = 27, four at n = 80)
    skipped = set()
    for pts in (benchmark_gaussian(1, 80), make_cloud(2, 27).points):
        cloud = DataCloud(pts)
        for scheme in SCHEMES:
            for alpha in (0.004, 0.01, 0.05, 0.1, 0.37, 0.5, 0.9, 1.0):
                w = weights(scheme, cloud.n, alpha)
                j0 = int(np.argmax(w != 0.0))
                if j0:
                    skipped.add(scheme.name)
                for ordered in _ordered_of(cloud):
                    full = np.einsum("j,kjd->kd", w, ordered)
                    part = np.einsum("j,kjd->kd", w[j0:], ordered[:, j0:])
                    assert np.array_equal(full.view(np.int64), part.view(np.int64))
    assert skipped == {"zonoid", "echstar"}


def test_benchmark_ladders_are_read_off_the_ring(monkeypatch):
    # the weighted-mean ladders of the benchmark's g80 shape pass no level
    # to the hull
    traced = []
    monkeypatch.setattr(geometry, "convex_hull",
                        lambda pts, eps=None: traced.append(1) or convex_hull(pts, eps))
    cloud = DataCloud(benchmark_gaussian(1, 80))
    for scheme in SCHEMES:
        for alpha in np.arange(1, 10) / 10:
            wm_region_2d(cloud, scheme, alpha)
    assert traced == []


def test_wm_region_of_coincident_points_is_that_point():
    cloud = DataCloud(np.tile([[2.0, -1.0]], (4, 1)))
    for scheme in (ZONOID, ECH_STAR, GEOMETRIC):
        assert_bitwise(wm_region_2d(cloud, scheme, 0.5), oracle_wm_region(cloud, scheme, 0.5))
