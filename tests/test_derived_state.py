"""State derived from a cloud alone is built once per cloud and reused.

A cloud owns a read-only copy of its points, so its memo (the projection
index, the weighted-mean support frame) can never go stale; the direction
set of the randomized depths is shared per (dim, count, seed).  Every
answer must equal, bitwise, the answer on a fresh cloud.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import make_cloud

from depthkit import DataCloud, core, metric, weighted
from depthkit.core import check_postulates
from depthkit.errors import DepthKitError
from depthkit.functional import FunctionalSample, graph_depth, grid_depth
from depthkit.registry import EvalOptions, available_depths, get_depth
from depthkit.rng import direction_stream, unit_directions

OPTIONS = EvalOptions(seed=3, budget=40)


def _outcome(call):
    try:
        return call()
    except DepthKitError as exc:
        return exc.code


def _clouds():
    rng = np.random.default_rng(11)
    gauss = rng.standard_normal((9, 2)) @ np.array([[2.0, 0.4], [0.0, 0.5]]) + 3.0
    repeated = np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    return {
        "gauss-2d": gauss,
        "scaled-2d": gauss * 1e-6,
        "repeated-2d": repeated,
        "line-1d": rng.standard_normal((7, 1)),
        "gauss-3d": rng.standard_normal((6, 3)),
    }


def _queries(pts):
    return np.vstack([pts[:3], (pts[0] + pts[1]) / 2.0, pts.mean(axis=0)[None],
                      np.full((1, pts.shape[1]), 5.0 * np.abs(pts).max())])


@pytest.mark.parametrize("kind", sorted(_clouds()))
def test_warm_memo_equals_fresh_cloud(kind):
    pts = _clouds()[kind]
    zs = _queries(pts)
    warm = DataCloud(pts)
    # every depth runs on the warm cloud first, so depths that share state
    # (echstar and geometric share the support frame) meet a filled memo
    for name in available_depths():
        _outcome(lambda: get_depth(name).evaluate_many(zs, warm, OPTIONS))
    for name in available_depths():
        spec = get_depth(name)
        fresh = [_outcome(lambda: spec.evaluate(z, DataCloud(pts), OPTIONS)) for z in zs]
        again = [_outcome(lambda: spec.evaluate(z, warm, OPTIONS)) for z in zs]
        many = _outcome(lambda: spec.evaluate_many(zs, warm, OPTIONS))
        if any(isinstance(v, str) for v in fresh):
            assert again == fresh and many == fresh[0], name
        else:
            assert np.array_equal(np.array(again), np.array(fresh)), name
            assert np.array_equal(many, np.array(fresh)), name


@pytest.mark.parametrize("name, n", [("projection", 8), ("random-tukey", 15)])
def test_options_do_not_share_state(name, n):
    pts = make_cloud(4, n).points
    zs = _queries(pts)
    spec = get_depth(name)
    shared = DataCloud(pts)
    variants = [EvalOptions(seed=3, budget=3), EvalOptions(seed=3, budget=200),
                EvalOptions(seed=4, budget=3)]
    answers = [spec.evaluate_many(zs, shared, opts) for opts in variants * 2]
    for opts, got in zip(variants * 2, answers):
        assert np.array_equal(got, spec.evaluate_many(zs, DataCloud(pts), opts))
    # the answers really depend on the options, so a leaked key would show
    assert not np.array_equal(answers[0], answers[1])
    assert not np.array_equal(answers[0], answers[2])


def _count_calls(monkeypatch, module, attr):
    calls = []
    original = getattr(module, attr)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name, module, attr", [
    ("projection", metric, "ProjectionIndex"),
    ("echstar", weighted, "_wm_support_frame"),
])
@pytest.mark.parametrize("trials", [1, 3])
def test_postulate_harness_builds_once_per_cloud(monkeypatch, name, module, attr, trials):
    builds = _count_calls(monkeypatch, module, attr)
    spec = get_depth(name)
    check_postulates(spec.evaluator(OPTIONS), make_cloud(5, 10), spec.variant,
                     trials=trials, seed=1)
    # the cloud itself, then one translated and one mapped copy per trial
    assert len(builds) == 1 + 2 * trials


def test_echstar_and_geometric_share_one_frame(monkeypatch):
    builds = _count_calls(monkeypatch, weighted, "_wm_support_frame")
    cloud = make_cloud(6, 10)
    for name in ("echstar", "geometric"):
        get_depth(name).evaluate_many(cloud.points[:3], cloud)
    assert len(builds) == 1


def test_graph_depth_builds_one_index_per_grid_position(monkeypatch):
    builds = _count_calls(monkeypatch, metric, "ProjectionIndex")
    rng = np.random.default_rng(2)
    sample = FunctionalSample(np.linspace(0.0, 1.0, 5), rng.standard_normal((12, 5, 2)))
    for curve in sample.curves[:4]:
        graph_depth(curve, sample, "projection", options=OPTIONS)
    assert len(builds) == sample.k
    assert sample.point_cloud(2) is sample.point_cloud(2)


def test_grid_depth_frees_each_direction_state(monkeypatch):
    # the echstar frame of a 30-point planar cloud is 4·C(30, 2) × 30 floats
    # (0.4 MB); the 105 directions of this query would hold 44 MB of frames
    # if each direction's cloud outlived its evaluation
    builds = []
    frame = weighted._wm_support_frame

    def counted(cloud):
        # count without keeping the cloud alive
        builds.append(None)
        return frame(cloud)

    monkeypatch.setattr(weighted, "_wm_support_frame", counted)
    curves = np.cumsum(np.random.default_rng(3).standard_normal((30, 5, 2)), axis=1)
    sample = FunctionalSample(np.linspace(0.0, 1.0, 5), curves)
    options = EvalOptions(seed=3, budget=100)
    z = np.median(curves, axis=0)
    frame_bytes = 4 * (30 * 29 // 2) * 30 * 8
    tracemalloc.start()
    try:
        value = grid_depth(z, sample, None, "echstar", options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert len(builds) == sample.k + options.budget
    assert peak < 8 * frame_bytes


def test_cloud_is_not_moved_by_writes_to_its_source():
    base = np.random.default_rng(7).standard_normal((20, 2))
    cloud = DataCloud(base[:10])
    before = cloud.points.copy()
    z = np.array([0.2, -0.1])
    depth = metric.projection_depth(z, cloud, 40, 3)
    base[0] += 50.0
    assert np.array_equal(cloud.points, before)
    assert metric.projection_depth(z, cloud, 40, 3) == depth
    assert metric.projection_depth(z, DataCloud(before), 40, 3) == depth


def test_extent_is_built_once_per_cloud(monkeypatch):
    pts = np.random.default_rng(10).standard_normal((9, 2)) * [3.0, 0.5]
    expected = float(np.max(np.ptp(pts, axis=0)))
    cloud = DataCloud(pts)
    assert cloud.extent == expected
    assert DataCloud(pts[:1]).extent == 0.0
    calls = []
    ptp = np.ptp
    monkeypatch.setattr(np, "ptp", lambda *a, **k: calls.append(1) or ptp(*a, **k))
    for _ in range(3):
        assert cloud.extent == expected
        assert cloud.coord_tol == 1e-9 * max(1.0, expected)
    assert calls == []
    # a new cloud builds its own
    assert DataCloud(pts).extent == expected and calls == [1]


def test_caller_arrays_stay_writable():
    pts = np.random.default_rng(8).standard_normal((6, 2))
    cloud = DataCloud(pts)
    assert pts.flags.writeable and not cloud.points.flags.writeable
    pts[0, 0] = 99.0
    assert cloud.points[0, 0] != 99.0
    curves = np.random.default_rng(9).standard_normal((4, 3))
    sample = FunctionalSample(np.linspace(0.0, 1.0, 3), curves)
    assert curves.flags.writeable and not sample.curves.flags.writeable


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("count", [1, 7, 1000])
def test_unit_directions_are_the_stream(dim, count):
    for seed in range(30):
        stream = direction_stream(dim, seed)
        expected = np.array([next(stream) for _ in range(count)])
        got = unit_directions(dim, count, seed)
        assert got.shape == (count, dim)
        assert np.array_equal(got, expected)


def test_unit_directions_are_read_only():
    dirs = unit_directions(2, 10, 0)
    with pytest.raises(ValueError):
        dirs[0, 0] = 1.0
    assert unit_directions(2, 10, 0) is dirs


@pytest.mark.parametrize("n", [27, 80, 400])
def test_chunked_projection_index_is_bitwise_the_unchunked_one(monkeypatch, n):
    cloud = DataCloud(make_cloud(n, n).points @ np.array([[2.0, 0.3], [0.0, 0.7]]) + 5.0)
    default = metric.ProjectionIndex(cloud, 1000, 3)
    monkeypatch.setattr(core, "BATCH_BYTES", 97 * 32 * n)  # chunks of 97 directions
    chunked = metric.ProjectionIndex(cloud, 1000, 3)
    assert np.array_equal(chunked.dirs, default.dirs)
    assert np.array_equal(chunked.med, default.med)
    assert np.array_equal(chunked.mad, default.mad)
    if n <= 80:
        # the default budget takes every direction in one product here, as the
        # build did before chunking; at n = 400 that product alone is 260 MB
        proj = default.dirs @ cloud.points.T
        assert np.array_equal(default.med, np.median(proj, axis=1))
        assert np.array_equal(default.mad,
                              np.median(np.abs(proj - default.med[:, None]), axis=1))


@pytest.mark.parametrize("scheme", [weighted.ECH_STAR, weighted.ZONOID], ids=lambda s: s.name)
def test_weighted_mean_frame_stays_within_the_budget(monkeypatch, scheme):
    # the whole frame of 80 points, 4 C(80, 2) directions of 80 sorted
    # projections and four more floats each, is 8.5 MB: eight times this
    # budget, so it is neither kept nor built at once
    budget = 2**20
    monkeypatch.setattr(core, "BATCH_BYTES", budget)
    cloud = make_cloud(4, 80)
    assert 16 * 80 * 79 * 84 >= 8 * budget
    tracemalloc.start()
    try:
        value = weighted.wm_depth(cloud.points[0] / 2.0, cloud, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 1.0
    assert peak < 4 * budget
    assert ("wm-frame",) not in cloud._derived


@pytest.mark.parametrize("n, kept", [(100, True), (101, False)])
def test_weighted_mean_state_kept_on_the_cloud_fits_the_budget(n, kept):
    # the frame of 100 points, 16.5 MB, is the largest that is kept; the
    # supports a batch shares go with the batch
    cloud = make_cloud(5, n)
    tracemalloc.start()
    try:
        for scheme in (weighted.ECH_STAR, weighted.GEOMETRIC, weighted.ZONOID):
            weighted.wm_depth_many(cloud.points[:2] / 2.0, cloud, scheme)
            weighted.wm_depth(cloud.points[2] / 2.0, cloud, scheme)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (("wm-frame",) in cloud._derived) == kept
    assert retained <= (core.BATCH_BYTES if kept else 2**20)


def test_weighted_mean_frame_is_built_once_per_batch(monkeypatch):
    builds = _count_calls(monkeypatch, weighted, "_frame_blocks")
    cloud = make_cloud(5, 80)
    for scheme in (weighted.ECH_STAR, weighted.GEOMETRIC, weighted.ZONOID):
        weighted.wm_depth_many(cloud.points[:3], cloud, scheme)
        weighted.wm_depth(cloud.points[3], cloud, scheme)
    assert len(builds) == 1
    # a frame the cloud does not keep is built once per batch, and once
    # per point call
    monkeypatch.setattr(core, "BATCH_BYTES", 2**20)
    cloud = make_cloud(5, 80)
    weighted.wm_depth_many(cloud.points[:3], cloud, weighted.ECH_STAR)
    weighted.wm_depth(cloud.points[3], cloud, weighted.ECH_STAR)
    assert len(builds) == 3
