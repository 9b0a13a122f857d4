"""The angular order of planar halfspace and simplicial depth against the
line table.

``combinatorial._angular_tables``, which both depths read, takes one
angular order per query and the rows with a near-tie from
``combinatorial._line_tables``.  Its table ``k`` and its least ``fewest``,
and both depths, as batches and as point calls, must equal the line
table's bitwise: on Gaussian clouds shaped like the benchmark's, on eu27
and its region grid, on lattices with collinear triples and repeated points
queried at vertices, edge midpoints and lattice points, and on clouds moved
far from the origin or scaled down.
"""

import math

import numpy as np
import pytest

from conftest import benchmark_gaussian
from depthkit import DataCloud, combinatorial, regions
from depthkit.combinatorial import halfspace_depth_2d, simplicial_depth_many

LINE_TABLES = combinatorial._line_tables


def assert_matches_line_tables(cloud, qs):
    chunks = list(LINE_TABLES(qs, cloud))
    fewest = np.concatenate([f for _, f, _ in chunks]).min(axis=1)
    k = np.concatenate([k for _, _, k in chunks])
    got = list(combinatorial._angular_tables(qs, cloud))
    np.testing.assert_array_equal(np.concatenate([left for _, _, left in got]), k)
    np.testing.assert_array_equal(np.concatenate([least for _, least, _ in got]), fewest)
    # one query at a time takes the 1-D form of the angular order
    for q, row, least in zip(qs, k, fewest):
        (_, one_least, one), = combinatorial._angular_tables(q[None], cloud)
        np.testing.assert_array_equal(one[0], row)
        assert one_least.tolist() == [least]
    halfspace = [int(least) / cloud.n for least in fewest]
    assert [halfspace_depth_2d(q, cloud) for q in qs] == halfspace
    assert halfspace_depth_2d(qs, cloud).tolist() == halfspace
    total = math.comb(cloud.n, 3)
    simplicial = np.full(qs.shape[0], float(total))
    simplicial -= (k * (k - 1) // 2).sum(axis=1)
    np.testing.assert_array_equal(simplicial_depth_many(qs, cloud), simplicial / total)


@pytest.fixture
def fallback_rows(monkeypatch):
    """The query rows that reach the line table, in order; the oracle's
    own calls read the saved function and are not recorded."""
    rows = []

    def recording(qs, cloud):
        rows.extend(map(tuple, qs))
        return LINE_TABLES(qs, cloud)

    monkeypatch.setattr(combinatorial, "_line_tables", recording)
    return rows


@pytest.mark.parametrize("n", [80, 400])
@pytest.mark.parametrize("seed", range(1, 11))
def test_benchmark_gaussians_match_without_fallback(seed, n, fallback_rows):
    pts = benchmark_gaussian(seed, n)
    cloud = DataCloud(pts)
    rng = np.random.default_rng(seed)
    qs = np.vstack([pts, pts.mean(axis=0) + 3.0 * rng.standard_normal((40, 2))])
    assert_matches_line_tables(cloud, qs)
    assert fallback_rows == []


def test_eu27_and_its_region_grid(eu_cloud, fallback_rows):
    grid = []
    regions._grid_field(eu_cloud, lambda qs: grid.append(qs) or np.zeros(qs.shape[0]),
                        regions.DEFAULT_GRID_RESOLUTION)
    qs = np.vstack([eu_cloud.points, grid[0]])
    assert qs.shape[0] == eu_cloud.n + regions.DEFAULT_GRID_RESOLUTION ** 2
    assert_matches_line_tables(eu_cloud, qs)
    # a grid is not generic, and a row may meet a near-tie: one row of this
    # grid does, read five times: by the tables as a batch and as a single
    # row, by the halfspace batch and point call and by the simplicial batch
    assert len(set(fallback_rows)) <= 1 and len(fallback_rows) <= 5


def lattice_case(seed):
    """(integer points, doubled integer queries): a lattice cloud with
    collinear triples, and a repeated point for odd seeds, queried at its
    vertices, its edge midpoints and lattice points."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    ints = rng.integers(-3, 4, (n, 2))
    if seed % 2:
        ints[-1] = ints[0]  # a repeated point is a near-tie wherever it is far
    i, j = rng.integers(0, n, (2, 6))
    doubled = np.vstack([2 * ints, ints[i] + ints[j], 2 * rng.integers(-3, 4, (6, 2))])
    return ints, doubled


def exactly_collinear(ints, doubled):
    """Rows whose query lies on a line with two data points that do not
    coincide with it, in exact integer arithmetic."""
    rel = 2 * ints[None] - doubled[:, None]
    cross = rel[:, :, None, 0] * rel[:, None, :, 1] - rel[:, :, None, 1] * rel[:, None, :, 0]
    far = np.any(rel != 0, axis=2)
    pair = far[:, :, None] & far[:, None, :] & ~np.eye(ints.shape[0], dtype=bool)
    return np.any(pair & (cross == 0), axis=(1, 2))


@pytest.mark.parametrize("transform", ["none", "moved", "scaled"])
@pytest.mark.parametrize("seed", range(12))
def test_lattices_fall_back_exactly_on_collinear_rows(seed, transform, fallback_rows):
    ints, doubled = lattice_case(seed)
    pts, qs = ints.astype(float), doubled / 2.0
    if transform == "moved":
        pts, qs = pts + 1e6, qs + 1e6
    elif transform == "scaled":
        pts, qs = pts * 1e-6, qs * 1e-6
    cloud = DataCloud(pts)
    assert_matches_line_tables(cloud, qs)
    fallback_rows.clear()
    list(combinatorial._angular_tables(qs, cloud))
    collinear = exactly_collinear(ints, doubled)
    assert fallback_rows == [tuple(q) for q in qs[collinear]]


def test_opposite_rays_along_the_axis_fall_back():
    # folded onto the upper half-turn, the directions 0 and pi lie at the
    # two ends of [0, pi]: only the cyclic gap sees that they share a line
    cloud = DataCloud(np.array([[1.0, 0.0], [-2.0, 0.0], [0.5, 1.0], [-0.3, -2.0]]))
    qs = np.array([[0.0, 0.0], [0.25, 0.0], [0.1, 0.3]])
    assert_matches_line_tables(cloud, qs)
    assert simplicial_depth_many(qs[:1], cloud)[0] == 3 / 4


def test_all_coincident_and_single_far_point():
    cloud = DataCloud(np.array([[1.0, -2.0]] * 3 + [[4.0, 0.0]]))
    qs = np.array([[1.0, -2.0], [4.0, 0.0], [0.0, 0.0]])
    assert_matches_line_tables(cloud, qs)
    assert_matches_line_tables(DataCloud(np.array([[2.0, 2.0]] * 3)), np.array([[2.0, 2.0]]))


def near_collinear_clouds(count, seed):
    """Clouds of 3 to 6 points on a line through the origin, each moved off
    it by 1e-14 to 1e-10."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        u = np.array([math.cos(a := rng.uniform(0.0, 2.0 * math.pi)), math.sin(a)])
        off = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-14.0, -10.0, n)
        yield DataCloud(np.outer(rng.uniform(-4.0, 4.0, n), u) + np.outer(off, [-u[1], u[0]]))


def test_near_collinear_clouds_keep_their_sign_disagreements():
    # lying on a line through the query up to the sine tolerance is not
    # transitive, so on such clouds halfspace depth can be 0 where
    # simplicial depth is not, or the reverse; the angular order must
    # neither add nor remove a case
    origin = np.zeros((1, 2))
    disagree = expected = 0
    for cloud in near_collinear_clouds(3000, 0):
        (_, fewest, k), = LINE_TABLES(origin, cloud)
        total = math.comb(cloud.n, 3)
        halfspace = halfspace_depth_2d(origin[0], cloud)
        simplicial = simplicial_depth_many(origin, cloud)[0]
        assert halfspace == int(fewest.min()) / cloud.n
        assert simplicial == (total - float((k * (k - 1) // 2).sum())) / total
        disagree += (halfspace > 0.0) != (simplicial > 0.0)
        expected += (fewest.min() > 0) != ((k * (k - 1) // 2).sum() < total)
    assert disagree == expected > 0
