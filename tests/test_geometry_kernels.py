"""The region kernels against the per-vertex loops they replaced.

``contains_many``, ``distance_many``, ``hausdorff`` and ``convex_hull`` are
checked against the loops below, which evaluate one vertex or one edge at a
time on numpy scalars.  Containment on polygons of three or more vertices
and the hull use the same arithmetic as the loops and must agree bitwise.
Distances may differ in the last place: the loops round through BLAS ``dot``
and ``norm``, the kernels through elementwise products.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import benchmark_gaussian

from depthkit import DataCloud, core
from depthkit.errors import EmptyRegionError
from depthkit.geometry import ConvexRegion, convex_hull
from depthkit.weighted import ECH_STAR, _ordered_chunks, weights

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: relative agreement of a distance with the loop, about four units in the
#: last place
REL = 1e-15


# ---------------------------------------------------------------------------
# the per-vertex loops (reference implementations)
# ---------------------------------------------------------------------------


def oracle_hull(points, eps=None):
    pts = np.asarray(points, dtype=float)
    if eps is None:
        eps = 1e-12 * (max(1.0, float(np.max(np.abs(pts)))) if pts.size else 1.0) ** 2
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 0, axis=1)
    pts = pts[keep]
    if len(pts) == 1:
        return pts.copy()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= eps:
                out.pop()
            out.append(p)
        return out

    hull = np.array(build(pts)[:-1] + build(pts[::-1])[:-1])
    if len(hull) == 0:
        hull = pts[:1].copy()
    return hull


def oracle_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def oracle_contains(region, z, tol=0.0):
    if region.is_empty:
        return False
    z = np.asarray(z, dtype=float).reshape(-1)
    v = region.vertices
    if region.dim == 1:
        return (region.lo - tol) <= z[0] <= (region.hi + tol)
    if v.shape[0] == 1:
        return float(np.linalg.norm(z - v[0])) <= tol
    if v.shape[0] == 2:
        return oracle_segment_distance(z, v[0], v[1]) <= tol
    edges = np.roll(v, -1, axis=0) - v
    rel = z - v
    cross = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
    lengths = np.linalg.norm(edges, axis=1)
    return bool(np.all(cross >= -tol * np.maximum(lengths, 1e-300)))


def oracle_distance(region, z):
    z = np.asarray(z, dtype=float).reshape(-1)
    if region.dim == 1:
        return max(region.lo - z[0], z[0] - region.hi, 0.0)
    v = region.vertices
    if v.shape[0] == 1:
        return float(np.linalg.norm(z - v[0]))
    if oracle_contains(region, z, 0.0):
        return 0.0
    m = v.shape[0]
    return min(oracle_segment_distance(z, v[i], v[(i + 1) % m]) for i in range(m))


def oracle_hausdorff(a, b):
    d_ab = max(oracle_distance(b, v) for v in a.vertices)
    d_ba = max(oracle_distance(a, v) for v in b.vertices)
    return max(d_ab, d_ba)


# ---------------------------------------------------------------------------
# strategies: scaled lattice point sets and related region pairs
# ---------------------------------------------------------------------------


def _lattice(draw, n, lo=-4, hi=4):
    values = draw(st.lists(st.integers(lo, hi), min_size=2 * n, max_size=2 * n))
    return np.array(values, dtype=float).reshape(n, 2)


@st.composite
def point_sets(draw, min_size=0, max_size=9):
    """Lattice, collinear or repeated points scaled by 1e-6 to 1e6."""
    n = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(["lattice", "collinear", "repeated"]))
    if kind == "collinear" and n:
        steps = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
                         dtype=float)[:, None]
        ints = _lattice(draw, 1) + steps * _lattice(draw, 1, 1, 3)
    elif kind == "repeated" and n:
        distinct = _lattice(draw, draw(st.integers(1, 3)))
        ints = distinct[draw(st.lists(st.integers(0, distinct.shape[0] - 1),
                                      min_size=n, max_size=n))]
    else:
        ints = _lattice(draw, n)
    scale = draw(st.sampled_from(SCALES))
    return ints * scale, scale


def _region(pts):
    return ConvexRegion.from_points(pts) if pts.shape[0] else ConvexRegion.empty(2)


@st.composite
def region_pairs(draw):
    """Two planar regions at one scale: identical, nested, sharing edges or
    vertices, touching, disjoint or independent."""
    pts, scale = draw(point_sets(min_size=1))
    a = _region(pts)
    v = a.vertices
    relation = draw(st.sampled_from(
        ["identical", "shrunk-to-vertex", "sub-hull", "super-hull", "touching",
         "disjoint", "independent"]))
    if relation == "identical":
        b = ConvexRegion(2, v.copy())
    elif relation == "shrunk-to-vertex":
        b = _region(v[0] + (v - v[0]) * draw(st.sampled_from([0.5, 0.25, 0.75])))
    elif relation == "sub-hull":
        keep = draw(st.lists(st.integers(0, len(v) - 1), min_size=1, max_size=len(v)))
        b = _region(v[keep])
    elif relation == "super-hull":
        b = _region(np.vstack([v, _lattice(draw, draw(st.integers(1, 2))) * scale]))
    elif relation == "touching":
        b = a.translated(v[-1] - v[0])
    elif relation == "disjoint":
        b = a.translated([(np.ptp(v[:, 0]) + 1.0) * scale * 3.0, 0.0])
    else:
        b = _region(_lattice(draw, draw(st.integers(1, 6))) * scale)
    if draw(st.booleans()):
        a, b = b, a
    return a, b, scale


def _queries(a, b, scale):
    """Vertices and edge midpoints of both regions, and lattice points."""
    verts = np.vstack([a.vertices, b.vertices])
    mids = [(p + q) / 2.0 for p, q in itertools.combinations(verts, 2)]
    grid = np.array([[x, y] for x in range(-5, 6, 2) for y in range(-5, 6, 2)]) * scale
    return np.vstack([verts, np.array(mids).reshape(-1, 2), grid])


# ---------------------------------------------------------------------------
# kernels against the loops
# ---------------------------------------------------------------------------


@SETTINGS
@given(case=point_sets())
def test_hull_is_bitwise_the_loop(case):
    pts, scale = case
    got, want = convex_hull(pts), oracle_hull(pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    eps = 1e-6 * scale * scale
    got, want = convex_hull(pts, eps), oracle_hull(pts, eps)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _large_sets():
    """Sets of 500 to 6320 points: Gaussian, with repeats, on one line, on
    a lattice, and the ECH* means of a g80-shaped cloud at alpha 0.5, whose
    hull pops thousands of nearly collinear points."""
    rng = np.random.default_rng(24)
    gauss = rng.standard_normal((2000, 2)) * [3.0, 0.5] + [10.0, -4.0]
    t = rng.uniform(-1.0, 1.0, 500)
    lattice = np.array([(x, y) for x in range(40) for y in range(25)], dtype=float)
    w = weights(ECH_STAR, 80, 0.5)
    means = np.concatenate([np.einsum("j,kjd->kd", w, o)
                            for o in _ordered_chunks(DataCloud(benchmark_gaussian(1, 80)))])
    return {"gaussian": gauss, "repeats": gauss[rng.integers(0, 300, 2000)],
            "collinear": np.column_stack([t, 0.5 * t - 2.0]), "lattice": lattice,
            "lattice-scaled": lattice * 1e-6 + 1e3, "means": means}


LARGE_SETS = _large_sets()


@pytest.mark.parametrize("name", sorted(LARGE_SETS))
def test_hull_of_large_sets_is_bitwise_the_loop(name):
    # the loop above is the hull's own loop with a call per triple, on
    # numpy scalars: the same IEEE arithmetic as the inlined cross product
    pts = LARGE_SETS[name]
    scale = float(np.abs(pts).max())
    for eps in (None, 1e-9 * scale * scale):
        got, want = convex_hull(pts, eps), oracle_hull(pts, eps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_containment_matches(region, zs, tol, scale):
    got = region.contains_many(zs, tol)
    want = np.array([oracle_contains(region, z, tol) for z in zs], dtype=bool)
    assert got.dtype == bool and got.shape == want.shape
    if region.n_vertices >= 3 or region.n_vertices == 0:
        assert np.array_equal(got, want)
    else:
        # a point or segment compares a distance, which may differ from the
        # loop's in the last place, against ``tol``
        for z in zs[got != want]:
            assert abs(oracle_distance(region, z) - tol) <= REL * 4 * scale


@SETTINGS
@given(case=region_pairs())
def test_containment_matches_the_loop(case):
    a, b, scale = case
    zs = _queries(a, b, scale)
    for region, other in ((a, b), (b, a)):
        for tol in (0.0, 1e-9 * scale):
            _assert_containment_matches(region, zs, tol, scale)
            want = all(oracle_contains(region, v, tol) for v in other.vertices)
            if region.n_vertices >= 3:
                assert region.contains_region(other, tol) == want


@SETTINGS
@given(case=region_pairs())
def test_distance_and_hausdorff_match_the_loop(case):
    a, b, scale = case
    zs = _queries(a, b, scale)
    for region in (a, b):
        got = region.distance_many(zs)
        want = np.array([oracle_distance(region, z) for z in zs])
        # the loop's last-place error is relative to the coordinates, not to
        # the distance, when a query lies on or next to an edge
        assert np.all(np.abs(got - want) <= REL * np.maximum(want, 4 * scale))
    got, want = a.hausdorff(b), oracle_hausdorff(a, b)
    assert abs(got - want) <= REL * want
    assert b.hausdorff(a) == got


@pytest.mark.parametrize("points", [
    [[0.5, -1.0]],
    [[0.0, 0.0], [2.0, 1.0]],
    [[0.0, 0.0], [2.0, 1.0], [4.0, 2.0]],
    [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [0.0, 2.0], [1.0, 1.0]],
])
@pytest.mark.parametrize("scale", SCALES)
def test_each_vertex_count_matches_the_loop(points, scale):
    region = ConvexRegion.from_points(np.array(points) * scale)
    other = ConvexRegion.from_points(np.array([[1.0, 0.5], [5.0, -3.0], [-2.0, 4.0]]) * scale)
    zs = _queries(region, other, scale)
    for tol in (0.0, 1e-9 * scale):
        _assert_containment_matches(region, zs, tol, scale)
    want = np.array([oracle_distance(region, z) for z in zs])
    assert np.all(np.abs(region.distance_many(zs) - want) <= REL * np.maximum(want, 4 * scale))
    assert abs(region.hausdorff(other) - oracle_hausdorff(region, other)) \
        <= REL * oracle_hausdorff(region, other)


def test_intervals_match_the_loop():
    a, b = ConvexRegion.interval(-1.0, 3.0), ConvexRegion.interval(2.0, 2.0)
    zs = np.array([[-2.0], [-1.0], [0.0], [3.0], [3.5]])
    for region in (a, b):
        for tol in (0.0, 0.5):
            assert region.contains_many(zs, tol).tolist() == \
                [oracle_contains(region, z, tol) for z in zs]
        assert region.distance_many(zs).tolist() == [oracle_distance(region, z) for z in zs]
    assert a.hausdorff(b) == oracle_hausdorff(a, b) == 3.0


def test_empty_regions():
    empty = ConvexRegion.empty(2)
    square = ConvexRegion.from_points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert empty.contains_many(np.zeros((3, 2))).tolist() == [False] * 3
    assert not empty.contains([0.0, 0.0])
    assert square.contains_region(empty) and not empty.contains_region(square)
    assert convex_hull(np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(EmptyRegionError):
        empty.distance_many(np.zeros((1, 2)))
    with pytest.raises(EmptyRegionError):
        empty.hausdorff(square)


def test_rows_must_match_the_region_dimension():
    square = ConvexRegion.from_points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    for zs in (np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError):
            square.contains_many(zs)
        with pytest.raises(ValueError):
            square.distance_many(zs)
    with pytest.raises(ValueError):
        square.contains([0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# a point is a batch of one; chunks are invisible and bounded
# ---------------------------------------------------------------------------


@SETTINGS
@given(case=region_pairs())
def test_point_query_is_a_batch_of_one(case):
    a, b, scale = case
    for z in _queries(a, b, scale)[:12]:
        for tol in (0.0, 1e-9 * scale):
            assert a.contains(z, tol) == a.contains_many([z], tol)[0]
        assert a.distance(z) == a.distance_many([z])[0]


def _polygon(m, seed=0):
    theta = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, m))
    return ConvexRegion.from_points(np.column_stack([np.cos(theta), np.sin(theta)]))


def test_chunks_do_not_change_answers(monkeypatch):
    # a 64 x 64 grid at the default chunks, under a lower BATCH_BYTES (which
    # caps the chunks too), in one-row chunks, and with every budget at
    # 2**40 (the grid one chunk)
    axes = np.linspace(-1.5, 1.5, 64), np.linspace(-0.75, 0.75, 64)
    zs = np.stack(np.meshgrid(*axes), -1).reshape(-1, 2)
    budgets = ({"BATCH_BYTES": 64}, {"CHUNK_BYTES": 1},
               {"CHUNK_BYTES": 2**40, "BATCH_BYTES": 2**40})
    for region in (_polygon(40), ConvexRegion.from_points([[0.0, 0.0], [1.0, 0.5]]),
                   ConvexRegion.single([0.25, 0.0])):
        whole = (region.contains_many(zs, 1e-3), region.distance_many(zs))
        for budget in budgets:
            with monkeypatch.context() as patch:
                for name, value in budget.items():
                    patch.setattr(core, name, value)
                chunked = (region.contains_many(zs, 1e-3), region.distance_many(zs))
            assert np.array_equal(whole[0], chunked[0])
            assert whole[1].tobytes() == chunked[1].tobytes()


@pytest.mark.parametrize("kernel", ["contains_many", "distance_many"])
def test_working_set_stays_within_the_batch_budget(monkeypatch, kernel):
    budget = 2**20
    monkeypatch.setattr(core, "BATCH_BYTES", budget)
    region = _polygon(500)
    zs = np.random.default_rng(2).uniform(-1.5, 1.5, (4000, 2))
    getattr(region, kernel)(zs[:10])
    tracemalloc.start()
    try:
        getattr(region, kernel)(zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk's working set plus the (k,) result and small constants;
    # unchunked, the (k, m) arrays alone would take 16 MB each
    assert peak <= budget + zs.shape[0] * 8 + 2**14
