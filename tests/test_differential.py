"""Batch evaluation against point evaluation, for every registered depth.

``evaluate_many(zs)`` must equal ``[evaluate(z) for z in zs]`` bitwise, or
both must raise the same coded error.  The inputs are adversarial: repeated
points, collinear sets, lattice points, queries on vertices and on edge
midpoints, and coordinates scaled from 1e-6 to 1e6.  Simplicial depth is
also checked against an exact rational enumeration on integer lattices.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import linprog_zonoid_depth, make_cloud
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from depthkit import DataCloud
from depthkit.errors import DepthKitError, DimensionMismatchError
from depthkit.registry import EvalOptions, available_depths, get_depth
from depthkit.weighted import ECH_STAR, GEOMETRIC, ZONOID, wm_depth, wm_depth_many

# a small direction budget keeps the randomized depths fast; the contract
# holds for every budget
OPTIONS = EvalOptions(seed=3, budget=40)
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _lattice(draw, n, d, lo=-3, hi=3):
    values = draw(st.lists(st.integers(lo, hi), min_size=n * d, max_size=n * d))
    return np.array(values, dtype=float).reshape(n, d)


@st.composite
def cases(draw):
    """(cloud, queries): a scaled lattice, collinear or repeated-point cloud,
    queried at its vertices, its edge midpoints, lattice points, its mean
    and far outside."""
    d = draw(st.sampled_from([1, 2, 2, 2, 3]))
    n = draw(st.integers(d + 2, 8 if d < 3 else 6))
    kind = draw(st.sampled_from(["lattice", "collinear", "repeated", "gaussian"]))
    if kind == "collinear":
        steps = _lattice(draw, n, 1, -4, 4)
        ints = _lattice(draw, 1, d) + steps * _lattice(draw, 1, d, 1, 3)
    elif kind == "repeated":
        distinct = _lattice(draw, draw(st.integers(1, 3)), d)
        picks = draw(st.lists(st.integers(0, distinct.shape[0] - 1),
                              min_size=n, max_size=n))
        ints = distinct[picks]
    elif kind == "lattice":
        ints = _lattice(draw, n, d)
    else:
        ints = make_cloud(draw(st.integers(0, 10**6)), n, d).points
    scale = draw(st.sampled_from(SCALES))
    pts = ints * scale
    pairs = list(itertools.combinations(range(n), 2))
    mids = [(pts[i] + pts[j]) / 2.0
            for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))]
    verts = [pts[i] for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))]
    grid = list(_lattice(draw, 2, d) * scale)
    queries = np.array(verts + mids + grid + [pts.mean(axis=0), np.full(d, 40.0 * scale)])
    return DataCloud(pts), queries


def _outcome(call):
    try:
        return call()
    except DepthKitError as exc:
        return exc.code


def assert_batch_is_loop(name, cloud, zs):
    spec = get_depth(name)
    many = _outcome(lambda: spec.evaluate_many(zs, cloud, OPTIONS))
    loop = _outcome(lambda: np.array([spec.evaluate(z, cloud, OPTIONS) for z in zs]))
    if isinstance(many, str) or isinstance(loop, str):
        assert many == loop
    else:
        assert many.dtype == loop.dtype and many.tobytes() == loop.tobytes()


@pytest.mark.parametrize("name", available_depths())
@SETTINGS
@given(case=cases())
def test_batch_equals_point_loop(name, case):
    assert_batch_is_loop(name, *case)


def _fixed_queries(name):
    if name == "halfspace":
        cloud = make_cloud(3, 11)
        return cloud, np.vstack([cloud.points[:4], np.zeros((1, 2))])
    cloud = make_cloud(7, 9)
    return cloud, np.vstack([cloud.mean, cloud.points[0], cloud.points.max(axis=0) + 2.0])


@pytest.mark.parametrize("name", ["halfspace", "zonoid"])
def test_batch_equals_point_loop_on_fixed_clouds(name):
    assert_batch_is_loop(name, *_fixed_queries(name))


def test_collinear_triangle_holds_only_its_segment():
    # (0,0), (1,1), (2,2) span a segment, not the whole diagonal line
    cloud = DataCloud(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 2.0], [2.0, 0.0]]))
    spec = get_depth("simplicial")
    assert spec.evaluate([3.0, 3.0], cloud) == 0.0
    assert spec.evaluate_many([[3.0, 3.0]], cloud)[0] == 0.0
    assert spec.evaluate_many([[1.0, 1.0]], cloud)[0] == 1.0


# ---------------------------------------------------------------------------
# planar zonoid depth against linear programs
# ---------------------------------------------------------------------------


@SETTINGS
@given(case=cases().filter(lambda case: case[0].d <= 2))
def test_zonoid_matches_the_linear_programs(case):
    # the registry's linear program and the bisection on the support frame
    # against scipy's HiGHS
    cloud, zs = case
    scipy = np.array([linprog_zonoid_depth(z, cloud.points) for z in zs])
    own = get_depth("zonoid").evaluate_many(zs, cloud)
    bisected = wm_depth_many(zs, cloud, ZONOID)
    assert np.max(np.abs(own - scipy)) <= 1e-9
    # the bisection ends in a bracket of width 1e-6
    assert np.max(np.abs(bisected - scipy)) <= 1e-6


@pytest.mark.parametrize("scheme", [ZONOID, ECH_STAR, GEOMETRIC], ids=lambda s: s.name)
@SETTINGS
@given(case=cases().filter(lambda case: case[0].d <= 2))
def test_weighted_mean_batch_equals_point_loop(scheme, case):
    cloud, zs = case
    many = wm_depth_many(zs, cloud, scheme)
    loop = np.array([wm_depth(z, cloud, scheme) for z in zs])
    assert many.tobytes() == loop.tobytes()


# ---------------------------------------------------------------------------
# batch queries are validated like point queries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", available_depths())
def test_batch_rejects_wrong_shapes(name):
    spec = get_depth(name)
    cloud = make_cloud(1, 6)
    for zs in (np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 1))):
        with pytest.raises(DimensionMismatchError):
            spec.evaluate_many(zs, cloud, OPTIONS)
    with pytest.raises(DimensionMismatchError):
        spec.evaluate(np.zeros(3), cloud, OPTIONS)
    line = DataCloud(np.array([0.0, 1.0, 3.0, 4.0, 7.0]))
    with pytest.raises(DimensionMismatchError):
        spec.evaluate_many(np.zeros((1, 2)), line, OPTIONS)
    with pytest.raises(DimensionMismatchError):
        spec.evaluate(np.zeros(2), line, OPTIONS)


@pytest.mark.parametrize("name", available_depths())
def test_batch_rejects_non_finite_rows(name):
    spec = get_depth(name)
    cloud = make_cloud(2, 6)
    line = DataCloud(np.array([0.0, 1.0, 3.0, 4.0, 7.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            spec.evaluate_many([[0.0, 0.0], [bad, 0.0]], cloud, OPTIONS)
        with pytest.raises(ValueError):
            spec.evaluate([bad, 0.0], cloud, OPTIONS)
        with pytest.raises(ValueError):
            spec.evaluate_many([[0.0], [bad]], line, OPTIONS)
        with pytest.raises(ValueError):
            spec.evaluate([bad], line, OPTIONS)


@pytest.mark.parametrize("name", available_depths())
def test_flat_batch_is_a_list_of_scalars_in_one_dimension(name):
    spec = get_depth(name)
    cloud = DataCloud(np.array([0.0, 1.0, 3.0, 4.0, 7.0]))
    zs = np.array([0.5, 3.0, 9.0])
    assert np.array_equal(spec.evaluate_many(zs, cloud, OPTIONS),
                          spec.evaluate_many(zs[:, None], cloud, OPTIONS))
    assert spec.evaluate_many(np.empty((0, 1)), cloud, OPTIONS).shape == (0,)


# ---------------------------------------------------------------------------
# simplicial depth against exact rational enumeration
# ---------------------------------------------------------------------------


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def exact_simplicial(q, pts):
    """Share of closed triangles of ``pts`` containing ``q``, in rationals."""
    count = total = 0
    for a, b, c in itertools.combinations(pts, 3):
        total += 1
        signs = (_cross(a, b, q), _cross(b, c, q), _cross(c, a, q))
        if _cross(a, b, c) != 0:
            count += all(s >= 0 for s in signs) or all(s <= 0 for s in signs)
        else:
            # collinear: the hull is the segment spanned by the three points
            count += (all(s == 0 for s in signs)
                      and all(min(v[k] for v in (a, b, c)) <= q[k] <= max(v[k] for v in (a, b, c))
                              for k in range(2)))
    return Fraction(count, total)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(ints=st.lists(st.tuples(st.integers(-3, 5), st.integers(-3, 5)), min_size=7, max_size=7))
@example(ints=[(2, -1)] * 7)
def test_simplicial_matches_exact_enumeration_on_lattices(ints):
    pts = [(Fraction(x), Fraction(y)) for x, y in ints]
    queries = [(Fraction(x), Fraction(y)) for x in range(-3, 6, 2) for y in range(-3, 6, 2)]
    queries += list(pts)
    queries += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in itertools.combinations(pts, 2)]
    want = np.array([float(exact_simplicial(q, pts)) for q in queries])
    spec = get_depth("simplicial")
    for scale in SCALES:
        cloud = DataCloud(np.array(ints, dtype=float) * scale)
        zs = np.array([[float(x) * scale, float(y) * scale] for x, y in queries])
        assert np.array_equal(spec.evaluate_many(zs, cloud), want), scale
        assert all(spec.evaluate(z, cloud) == w for z, w in zip(zs, want)), scale


# ---------------------------------------------------------------------------
# planar halfspace depth against exact rational enumeration
# ---------------------------------------------------------------------------


def exact_halfspace(q, pts):
    """Halfspace depth of ``q`` in rationals: the fewest points in a closed
    halfplane whose boundary passes through ``q``.

    The count only changes where the boundary meets a data point, so each
    line through ``q`` and a data point is turned a little either way: the
    points on it then fall on the side of their ray from ``q``.
    """
    rels = [(x - q[0], y - q[1]) for x, y in pts if (x, y) != q]
    if not rels:
        return Fraction(1)
    best = len(pts)
    for r in rels:
        for u in ((-r[1], r[0]), (r[1], -r[0])):
            dots = [u[0] * s[0] + u[1] * s[1] for s in rels]
            above = sum(dot > 0 for dot in dots)
            on = [s for s, dot in zip(rels, dots) if dot == 0]
            ahead = sum(r[0] * s[0] + r[1] * s[1] > 0 for s in on)
            best = min(best, above + ahead, above + len(on) - ahead)
    return Fraction(best + len(pts) - len(rels), len(pts))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(ints=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=7, max_size=7))
@example(ints=[(2, -1)] * 7)
def test_halfspace_matches_exact_enumeration_on_lattices(ints):
    pts = [(Fraction(x), Fraction(y)) for x, y in ints]
    queries = [(Fraction(x), Fraction(y)) for x in range(-3, 4) for y in range(-3, 4)]
    queries += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in itertools.combinations(pts, 2)]
    want = np.array([float(exact_halfspace(q, pts)) for q in queries])
    spec = get_depth("halfspace")
    for scale in (1e-6, 1.0, 1e6):
        cloud = DataCloud(np.array(ints, dtype=float) * scale)
        zs = np.array([[float(x) * scale, float(y) * scale] for x, y in queries])
        assert np.array_equal(spec.evaluate_many(zs, cloud), want), scale


@st.composite
def planar_clouds(draw):
    """(points, queries): a lattice, collinear or all-coincident planar cloud
    at scale 1e-6, 1 or 1e6, queried at its points, its edge midpoints,
    lattice points and far outside."""
    n = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["lattice", "collinear", "coincident"]))
    if kind == "lattice":
        ints = _lattice(draw, n, 2)
    elif kind == "collinear":
        ints = _lattice(draw, 1, 2) + _lattice(draw, n, 1, -4, 4) * _lattice(draw, 1, 2, 1, 3)
    else:
        ints = np.repeat(_lattice(draw, 1, 2), n, axis=0)
    mids = [(ints[i] + ints[j]) / 2.0 for i, j in itertools.combinations(range(n), 2)]
    queries = np.vstack([ints, mids, _lattice(draw, 4, 2, -5, 5), [[40.0, -40.0]]])
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return ints * scale, queries * scale


@SETTINGS
@given(case=planar_clouds())
@example(case=(np.array([[1.0, -2.0]] * 3) * 1e-6, np.array([[3.0, -4.0]]) * 1e-6))
def test_simplicial_is_positive_exactly_where_halfspace_is(case):
    # Caratheodory: a point lies in the hull of the cloud, so in a data
    # triangle, exactly when every closed halfplane through it holds a point
    pts, zs = case
    cloud = DataCloud(pts)
    simplicial = get_depth("simplicial").evaluate_many(zs, cloud)
    halfspace = get_depth("halfspace").evaluate_many(zs, cloud)
    assert np.array_equal(simplicial > 0.0, halfspace > 0.0)


# ---------------------------------------------------------------------------
# simplicial depth in three dimensions against exact rational containment
# ---------------------------------------------------------------------------


def _unique_solution(rows, rhs):
    """The solution of a consistent linear system with independent columns,
    in rationals, or None."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    k = len(rows[0])
    for col in range(k):
        pivot = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for i in range(len(m)):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    if any(row[-1] != 0 for row in m[k:]):
        return None
    return [m[i][-1] / m[i][i] for i in range(k)]


def exact_in_hull(q, simplex):
    """Whether ``q`` lies in the closed hull of the points of ``simplex``:
    by Caratheodory, in the hull of some affinely independent subset."""
    for size in range(1, len(simplex) + 1):
        for sub in itertools.combinations(simplex, size):
            rows = [[p[c] for p in sub] for c in range(len(q))] + [[1] * size]
            lam = _unique_solution(rows, list(q) + [1])
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


# seeds 8 and 9 hold flat simplices that a rounded solve at scale 1e-6 does
# not see as singular
@pytest.mark.parametrize("seed", range(10))
def test_simplicial_3d_matches_exact_containment_on_lattices(seed):
    ints = np.random.default_rng(seed).integers(-2, 3, (6, 3))
    pts = [tuple(Fraction(int(v)) for v in p) for p in ints]
    queries = pts + [tuple((a + b) / 2 for a, b in zip(p, r))
                     for p, r in itertools.combinations(pts, 2)]
    simplices = list(itertools.combinations(pts, 4))
    want = np.array([float(Fraction(sum(exact_in_hull(q, s) for s in simplices),
                                    len(simplices))) for q in queries])
    spec = get_depth("simplicial")
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        cloud = DataCloud(ints * scale)
        zs = np.array([[float(c) * scale for c in q] for q in queries])
        assert np.array_equal(spec.evaluate_many(zs, cloud), want), scale


@pytest.mark.parametrize("batch_bytes", [1, 3000])
def test_simplicial_blocks_do_not_change_counts(monkeypatch, batch_bytes):
    from depthkit import core

    rng = np.random.default_rng(4)
    # lattice clouds with collinear triples and flat simplices, and a cloud
    # in four dimensions
    clouds = [DataCloud(np.random.default_rng(8).integers(-2, 3, (9, 2)).astype(float)),
              DataCloud(np.random.default_rng(8).integers(-2, 3, (6, 3)).astype(float)),
              DataCloud(rng.standard_normal((7, 4)))]
    queries = [np.vstack([c.points, (c.points[:-1] + c.points[1:]) / 2.0,
                          rng.standard_normal((4, c.d))]) for c in clouds]
    depths = [("simplicial", c, zs) for c, zs in zip(clouds, queries)]
    depths.append(("halfspace", clouds[0], queries[0]))
    want = [get_depth(name).evaluate_many(zs, c) for name, c, zs in depths]
    monkeypatch.setattr(core, "BATCH_BYTES", batch_bytes)
    for (name, c, zs), w in zip(depths, want):
        assert np.array_equal(get_depth(name).evaluate_many(zs, c), w), name


# ---------------------------------------------------------------------------
# weighted-mean depths: frame blocks and query chunks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", [ZONOID, ECH_STAR, GEOMETRIC], ids=lambda s: s.name)
def test_weighted_mean_blocks_do_not_change_depths(monkeypatch, scheme):
    from depthkit import core, weighted

    rng = np.random.default_rng(6)
    clouds = [make_cloud(6, 40).points * 1e3,
              np.random.default_rng(7).integers(-3, 4, (30, 2)).astype(float),
              np.array([1.0, -2.0]) + np.arange(-12, 13)[:, None] * np.array([3.0, 4.0])]
    for pts in clouds:
        zs = np.vstack([pts, (pts[:-1] + pts[1:]) / 2.0, pts.mean(axis=0),
                        rng.uniform(pts.min(axis=0), pts.max(axis=0), (10, 2))])
        want = wm_depth_many(zs, DataCloud(pts), scheme)
        with monkeypatch.context() as patch:
            # blocks of at most 20 pairs of points
            patch.setattr(core, "BATCH_BYTES", 64 * 20 * pts.shape[0])
            cloud = DataCloud(pts)
            assert len(list(weighted._frame_blocks(cloud))) > 1
            got = wm_depth_many(zs, cloud, scheme)
            loop = np.array([wm_depth(z, cloud, scheme) for z in zs])
            assert ("wm-frame",) not in cloud._derived
        assert got.tobytes() == want.tobytes()
        assert loop.tobytes() == want.tobytes()
