"""Random Tukey depth from sorted projections, and planar Oja depth from one
angular order per query, against the dense kernels they replace.

``combinatorial.random_tukey_depth`` counts a large batch from the data's
projections sorted once per block of directions and hands a query to the
per-query sign count when a data point other than the query itself falls
within rounding of it; every depth must be bitwise the dense kernel's
(``dense_random_tukey``, one ``dirs @ (pts - q).T`` product per query).
``metric._oja_angular_sums`` must agree with the C(n, 2) pair sum
(``metric._oja_pair_sums``) to rounding, and every batch must equal its
point loop bitwise.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import benchmark_gaussian, make_cloud
from depthkit import DataCloud, combinatorial, core, metric
from depthkit.combinatorial import random_tukey_depth
from depthkit.registry import EvalOptions, get_depth
from depthkit.rng import unit_directions

PAIR_SUMS = metric._oja_pair_sums


def dense_random_tukey(q, cloud, options):
    """The random Tukey depth of one point from one sign table of all
    directions at once."""
    dirs = unit_directions(cloud.d, options.budget, options.seed)
    proj = dirs @ (cloud.points - q).T
    le = np.count_nonzero(proj <= 0.0, axis=1)
    ge = np.count_nonzero(proj >= 0.0, axis=1)
    return int(np.minimum(le, ge).min()) / cloud.n


def hostile_cloud(seed):
    """Half-integer lattices, clouds moved by 1e6 or scaled down to 1e-8,
    collinear clouds and half-duplicated clouds, with queries at data points
    and 1e-12 (of the coordinates' size) off them."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    n = int(rng.integers(30, 90))
    d = int(rng.choice([1, 2, 2, 3]))
    if kind == 0:
        pts = rng.integers(-4, 5, (n, d)) / 2.0
    elif kind == 1:
        pts = rng.standard_normal((n, d)) + 1e6
    elif kind == 2:
        pts = rng.standard_normal((n, d)) * 1e-8
    elif kind == 3:
        pts = np.outer(rng.standard_normal(n), rng.standard_normal(d)) + rng.standard_normal(d)
    else:
        half = rng.standard_normal((n // 2, d))
        pts = np.vstack([half, half[rng.integers(0, n // 2, n - n // 2)]])
    qs = pts[rng.integers(0, n, 40)]
    qs[::2] += rng.standard_normal(qs[::2].shape) * 1e-12 * np.abs(pts).max()
    return DataCloud(pts), np.vstack([qs, pts])


@pytest.fixture
def fallbacks(monkeypatch):
    """The queries that a table batch hands to the per-query sign count."""
    rows, inside = [], []
    signs, table = combinatorial._signs_count, combinatorial._table_counts

    def recording(q, pts, dirs):
        if inside:
            rows.append(q)
        return signs(q, pts, dirs)

    def table_counts(qs, pts, dirs):
        inside.append(True)
        try:
            return table(qs, pts, dirs)
        finally:
            inside.pop()

    monkeypatch.setattr(combinatorial, "_signs_count", recording)
    monkeypatch.setattr(combinatorial, "_table_counts", table_counts)
    return rows


def assert_random_tukey_is_dense(cloud, qs, options):
    batch = random_tukey_depth(qs, cloud, options)
    dense = np.array([dense_random_tukey(q, cloud, options) for q in qs])
    points = np.array([random_tukey_depth(q, cloud, options) for q in qs])
    assert batch.tobytes() == dense.tobytes()
    assert points.tobytes() == dense.tobytes()


# ---------------------------------------------------------------------------
# random Tukey depth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [80, 400])
def test_random_tukey_table_is_the_dense_kernel_on_benchmark_clouds(seed, n, fallbacks):
    cloud = DataCloud(benchmark_gaussian(seed, n))
    assert cloud.n * cloud.n >= combinatorial._TABLE_MIN_ENTRIES
    assert_random_tukey_is_dense(cloud, cloud.points, EvalOptions())
    assert fallbacks == []


def test_random_tukey_on_eu27_is_the_dense_kernel(eu_cloud):
    # too small for the table: every row takes the dense kernel
    assert eu_cloud.n * eu_cloud.n < combinatorial._TABLE_MIN_ENTRIES
    assert_random_tukey_is_dense(eu_cloud, eu_cloud.points, EvalOptions())


def test_random_tukey_table_is_the_dense_kernel_on_hostile_clouds(fallbacks):
    queries = 0
    for seed in range(40):
        cloud, qs = hostile_cloud(seed)
        options = EvalOptions(seed=seed, budget=200)
        assert qs.shape[0] * cloud.n >= combinatorial._TABLE_MIN_ENTRIES
        assert_random_tukey_is_dense(cloud, qs, options)
        queries += qs.shape[0]
    # the queries just off data points and the repeated ones reach the
    # fallback; the count is reported with -s
    print(f"random Tukey fallbacks: {len(fallbacks)} of {queries} queries")
    assert 0 < len(fallbacks) < queries


def test_forced_fallback_keeps_every_value(monkeypatch, fallbacks):
    # a band as wide as the cloud holds every point on every direction
    cloud = make_cloud(6, 60)
    qs = np.vstack([cloud.points, np.random.default_rng(6).standard_normal((20, 2))])
    options = EvalOptions(seed=6, budget=300)
    want = random_tukey_depth(qs, cloud, options)
    fallbacks.clear()
    monkeypatch.setattr(combinatorial, "_EPS", 1.0)
    got = random_tukey_depth(qs, cloud, options)
    assert len(fallbacks) == qs.shape[0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["random-tukey", "oja"])
def test_point_is_the_batch_row_bitwise(name):
    cloud = DataCloud(benchmark_gaussian(4, 120))
    qs = np.vstack([cloud.points[:30], np.random.default_rng(4).normal(10.0, 3.0, (30, 2))])
    spec = get_depth(name)
    batch = spec.evaluate_many(qs, cloud)
    for z, value in zip(qs, batch):
        assert spec.evaluate(z, cloud) == value
        assert spec.evaluate_many([z], cloud)[0] == value


def test_random_tukey_point_and_batch_types():
    cloud = make_cloud(2, 50)
    point = random_tukey_depth(cloud.points[0], cloud)
    batch = random_tukey_depth(cloud.points, cloud)
    assert type(point) is float
    assert batch.shape == (50,) and batch.dtype == float
    assert batch[0] == point


def test_direction_blocks_have_no_single_row():
    for count in range(1, 40):
        for size in (2, 4, 6, 10):
            blocks = list(combinatorial._direction_blocks(count, size))
            assert blocks[0].start == 0 and blocks[-1].stop == count
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            lengths = [b.stop - b.start for b in blocks]
            assert count == 1 or min(lengths) >= 2
            assert max(lengths) <= size + 1


@pytest.mark.parametrize("batch_bytes", [2**12, 2**16])
def test_direction_blocks_keep_the_dense_values(monkeypatch, batch_bytes):
    # the default budget multiplies all directions at once, as the dense
    # oracle does; a shrunk one walks them in blocks of rows
    options = EvalOptions(seed=3, budget=1001)
    cases = [hostile_cloud(seed) for seed in range(10)]
    monkeypatch.setattr(core, "BATCH_BYTES", batch_bytes)
    for cloud, qs in cases:
        for q in qs[::4]:
            assert random_tukey_depth(q, cloud, options) == dense_random_tukey(q, cloud, options)


@pytest.mark.parametrize("batch", [False, True])
def test_random_tukey_working_set_stays_within_the_budget(monkeypatch, batch):
    # 20,000 directions on 400 points: the dense sign table of one query
    # alone is 80 MB, 80 times this budget
    budget = 2**20
    monkeypatch.setattr(core, "BATCH_BYTES", budget)
    cloud = DataCloud(benchmark_gaussian(5, 400))
    options = EvalOptions(seed=5, budget=20_000)
    unit_directions(2, options.budget, options.seed)
    qs = cloud.points[:200] if batch else cloud.points[0]
    tracemalloc.start()
    try:
        value = random_tukey_depth(qs, cloud, options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all((0.0 < np.asarray(value)) & (np.asarray(value) <= 0.5))
    # one block's working set plus arrays of the m queries and constants
    assert peak <= budget + 64 * 200 + 2**16


# ---------------------------------------------------------------------------
# planar Oja depth
# ---------------------------------------------------------------------------


def oja_cases():
    """(name, points, queries) with data points, random and far queries."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (24, 50, 200):
        pts = benchmark_gaussian(n, n)
        qs = np.vstack([pts, rng.normal(10.0, 4.0, (40, 2)), [[1e3, -2e3]]])
        cases.append((f"gaussian{n}", pts, qs))
    pts = benchmark_gaussian(7, 60)
    dup = np.vstack([pts, pts[:30]])
    cases.append(("duplicated", dup, np.vstack([dup, rng.normal(10.0, 2.0, (20, 2))])))
    lattice = rng.integers(-4, 5, (60, 2)) / 2.0
    cases.append(("lattice", lattice, np.vstack([lattice, rng.integers(-8, 9, (30, 2)) / 4.0])))
    cases.append(("moved-1e6", pts + 1e6, np.vstack([pts, rng.normal(10.0, 2.0, (20, 2))]) + 1e6))
    cases.append(("scaled-1e-6", pts * 1e-6, np.vstack([pts, rng.normal(10.0, 2.0, (20, 2))]) * 1e-6))
    # a collinear cloud queried off its line
    t = rng.standard_normal(50)
    line = np.outer(t, [1.0, 0.5]) + [3.0, -1.0]
    cases.append(("collinear", line, line[:20] + [0.0, 0.25]))
    return cases


@pytest.mark.parametrize("pts, qs", [pytest.param(p, q, id=name) for name, p, q in oja_cases()])
def test_oja_angular_sum_is_the_pair_sum(pts, qs):
    want = PAIR_SUMS(qs, pts)
    got = metric._oja_angular_sums(qs, pts)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_oja_angular_sum_on_a_line_through_the_query():
    # every determinant is 0 in exact arithmetic: both sums are rounding
    # noise of the size of the products they cancel
    t = np.random.default_rng(12).standard_normal(40)
    pts = np.outer(t, [1.0, 0.5]) + [3.0, -1.0]
    qs = pts[:10]
    scale = np.array([np.abs(pts - q).sum() ** 2 for q in qs])
    for sums in (PAIR_SUMS(qs, pts), metric._oja_angular_sums(qs, pts)):
        assert np.all(np.abs(sums) <= 1e-13 * scale)


def test_small_clouds_keep_the_pair_sum():
    cloud = make_cloud(8, metric._OJA_ANGULAR_MIN_N - 1)
    qs = np.random.default_rng(8).standard_normal((30, 2))
    n = cloud.n
    want = PAIR_SUMS(qs, cloud.points) / n**2
    assert metric._oja_expected_volumes(qs, cloud.points).tobytes() == want.tobytes()


def test_oja_working_set_stays_within_the_budget(monkeypatch):
    budget = 2**20
    monkeypatch.setattr(core, "BATCH_BYTES", budget)
    cloud = DataCloud(benchmark_gaussian(9, 400))
    m = 500
    qs = np.random.default_rng(9).normal(10.0, 3.0, (m, 2))
    metric.oja_depth_many(qs[:1], cloud)
    tracemalloc.start()
    try:
        metric.oja_depth_many(qs, cloud)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget + 8 * m + 2**14


# ---------------------------------------------------------------------------
# projection outlyingness in blocks of directions
# ---------------------------------------------------------------------------


def full_scan(index, qs):
    """The outlyingness of each query from all m directions at once."""
    whole = core.rows_times(qs, index.dirs)
    whole -= index.med
    np.abs(whole, out=whole)
    whole /= index.mad
    return whole.max(axis=1)


@pytest.mark.parametrize("entries", [7, 64, 2**15])
def test_outlyingness_blocks_do_not_change_it(monkeypatch, entries):
    cloud = make_cloud(10, 40)
    index = metric.ProjectionIndex(cloud, 200, 1)
    qs = np.vstack([cloud.points, np.random.default_rng(10).standard_normal((25, 2))])
    whole = full_scan(index, qs)
    monkeypatch.setattr(metric, "_OUT_BLOCK_ENTRIES", entries)
    assert index.outlyingness(qs).tobytes() == whole.tobytes()


def scanned_entries(monkeypatch):
    """A list that collects the (queries x directions) entries of every
    scan that ``ProjectionIndex.outlyingness`` makes."""
    entries = []
    scan = metric.ProjectionIndex._scan

    def counted(self, zs, block, count):
        entries.append(zs.shape[0] * min(count * self.size, self.dirs.shape[0]))
        return scan(self, zs, block, count)

    monkeypatch.setattr(metric.ProjectionIndex, "_scan", counted)
    return entries


def far_queries(cloud, rng):
    """Data points, a grid over the data box padded by half its width, and
    queries 10**k extents from the box's centre for k = 0..11, in 12
    directions each."""
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    pad = (hi - lo) / 2
    axes = [np.linspace(a - p, b + p, 12) for a, b, p in zip(lo, hi, pad)]
    grid = np.stack(np.meshgrid(*axes), -1).reshape(-1, 2)
    turn = rng.uniform(0.0, 2.0 * np.pi, 12)
    ring = np.column_stack([np.cos(turn), np.sin(turn)])
    far = [(lo + hi) / 2 + 10.0**k * cloud.extent * ring for k in range(12)]
    return np.vstack([cloud.points, grid, *far])


@pytest.mark.parametrize("shift", [0.0, 1e6], ids=["centred", "shifted"])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6, 1e150, 1e153])
def test_pruned_outlyingness_is_the_full_scan_at_any_scale(monkeypatch, scale, shift):
    # the block bounds take no square and scale their slack with the
    # coordinates, so they hold, and stay finite, at every scale; 30 points
    # keep the moment scatter finite at 1e153.  The shift is 1e6 extents.
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((30, 2)) @ np.array([[2.0, 0.3], [0.0, 0.7]])
    cloud = DataCloud((pts + shift) * scale)
    index = metric.ProjectionIndex(cloud, 1000, 0)
    qs = far_queries(cloud, rng)
    entries = scanned_entries(monkeypatch)
    got = index.outlyingness(qs)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == full_scan(index, qs).tobytes()
    # the filter left blocks out
    assert sum(entries) < qs.shape[0] * index.dirs.shape[0]


@pytest.mark.parametrize("entries", [1, 64, 2**12, 2**15, 2**22])
def test_pruned_outlyingness_on_a_lattice_of_tied_directions(monkeypatch, entries):
    # a symmetric 7 x 7 lattice: many pairs share one difference, so whole
    # runs of directions tie, and so do medians and MADs
    axis = np.arange(-3.0, 4.0)
    pts = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    cloud = DataCloud(pts)
    index = metric.ProjectionIndex(cloud, 200, 2)
    assert np.unique(index.dirs, axis=0).shape[0] < index.dirs.shape[0] // 2
    qs = np.vstack([pts, pts + 0.5, far_queries(cloud, np.random.default_rng(32))])
    monkeypatch.setattr(metric, "_OUT_BLOCK_ENTRIES", entries)
    assert index.outlyingness(qs).tobytes() == full_scan(index, qs).tobytes()


def test_batches_take_the_cheaper_of_the_scan_and_the_filter(monkeypatch, eu_cloud):
    # depth --all on eu27 (27 x 1351 entries) costs less as a full scan than
    # as the filter's loop over its 37 blocks; 32 and 64 grid queries on
    # clouds of 200 and 120 points visit few of their 145 and 90 blocks, so
    # they take the filter, as do a point call on a 400-point cloud (80,800
    # directions in 284 blocks) and the eu27 grid
    rng = np.random.default_rng(35)
    entries = scanned_entries(monkeypatch)

    def read(index, qs):
        entries.clear()
        assert index.outlyingness(qs).tobytes() == full_scan(index, qs).tobytes()
        return sum(entries) / (qs.shape[0] * index.dirs.shape[0])

    assert read(metric.ProjectionIndex(eu_cloud, 1000, 0), eu_cloud.points) == 1.0
    for n, q in ((200, 32), (120, 64)):
        pts = benchmark_gaussian(1, n)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = 0.1 * (hi - lo)
        assert read(metric.ProjectionIndex(DataCloud(pts), 1000, 0),
                    rng.uniform(lo - pad, hi + pad, (q, 2))) < 0.5
    big = DataCloud(benchmark_gaussian(1, 400))
    assert read(metric.ProjectionIndex(big, 1000, 0), big.points[:1]) < 0.1
    lo, hi = eu_cloud.points.min(axis=0), eu_cloud.points.max(axis=0)
    grid = np.stack(np.meshgrid(*(np.linspace(a, b, 64) for a, b in zip(lo, hi))), -1)
    assert read(metric.ProjectionIndex(eu_cloud, 1000, 0), grid.reshape(-1, 2)) < 0.5


def test_planar_index_blocks_bound_their_directions():
    cloud = DataCloud(benchmark_gaussian(33, 80))
    index = metric.ProjectionIndex(cloud, 1000, 0)
    m = index.dirs.shape[0]
    assert index.size == math.isqrt(m - 1) + 1
    assert index.mean.shape == (-(-m // index.size), 2)
    for arr in (index.mean, index.radius, index.low, index.high, index.scale):
        assert not arr.flags.writeable
    # each block's radius holds its folded directions, and its least MAD
    # scales its bound
    for b in range(index.mean.shape[0]):
        cols = slice(b * index.size, (b + 1) * index.size)
        u = index.dirs[cols]
        v = np.where(u[:, 1:] < 0.0, -u, u)
        assert np.abs(v - index.mean[b]).sum(axis=1).max() <= index.radius[b]
        assert index.scale[b] * index.mad[cols].min() >= 1.0


@pytest.mark.parametrize("d", [1, 3])
def test_index_off_the_plane_is_one_block(d):
    cloud = make_cloud(34, 20, d)
    index = metric.ProjectionIndex(cloud, 100, 0)
    assert index.size == index.dirs.shape[0]
    qs = np.random.default_rng(34).standard_normal((300, d)) * 3.0
    assert index.outlyingness(qs).tobytes() == full_scan(index, qs).tobytes()


def test_eu27_grid_outlyingness_stays_within_a_few_buffers(monkeypatch, eu_cloud):
    # the regions benchmark's projection ladder: 65,536 cells of the padded
    # box, 1351 directions in 37 blocks
    index = metric.ProjectionIndex(eu_cloud, 1000, 0)
    lo, hi = eu_cloud.points.min(axis=0), eu_cloud.points.max(axis=0)
    pad = 0.1 * (hi - lo)
    axes = [np.linspace(a - p, b + p, 256) for a, b, p in zip(lo, hi, pad)]
    qs = np.stack(np.meshgrid(*axes), -1).reshape(-1, 2)
    index.outlyingness(qs[:2000])
    tracemalloc.start()
    try:
        got = index.outlyingness(qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffer = 8 * metric._OUT_BLOCK_ENTRIES
    assert peak <= got.nbytes + 5 * buffer
    entries = scanned_entries(monkeypatch)
    assert got.tobytes() == index.outlyingness(qs).tobytes()
    assert got.tobytes() == np.concatenate(
        [full_scan(index, qs[i:i + 4096]) for i in range(0, qs.shape[0], 4096)]).tobytes()
    # under a fifth of the (query, direction) entries are read
    assert sum(entries) < 0.2 * qs.shape[0] * index.dirs.shape[0]
