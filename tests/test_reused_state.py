"""What a cloud or a weight rule fixes is built once and read many times.

The moment scatter and its Cholesky factor are kept on the cloud, per
estimator; the weight rules keep their level-free rank terms per sample
size; the weighted-mean ordered samples are kept rank-major in one buffer.
Every value read from the kept state must be bitwise the value built
afresh.
"""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import benchmark_gaussian, make_cloud

from depthkit import DataCloud
from depthkit.errors import SingularScatterError
from depthkit.metric import (
    MOMENT,
    ScatterEstimator,
    _moment_rule,
    affine_invariant_l2_depth,
    mahalanobis_depth,
    mahalanobis_region,
    oja_depth,
)
from depthkit.weighted import (
    _RANK_TERMS_KEPT,
    _ORDER_CHUNK,
    _ech_star_rule,
    _ech_star_terms,
    _geometric_rule,
    _geometric_terms,
    _ordered_chunks,
)


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# the kept scatter estimate
# ---------------------------------------------------------------------------


def test_kept_scatter_is_the_fresh_factor_and_read_only():
    cloud = make_cloud(4, 12)
    first = MOMENT.estimate(cloud)
    second = MOMENT.estimate(cloud)
    assert all(a is b for a, b in zip(first, second))
    center, scatter = _moment_rule(DataCloud(cloud.points))
    for got, want in zip(first, (center, scatter, np.linalg.cholesky(scatter))):
        assert_bitwise(got, want)
        with pytest.raises(ValueError):
            got[0] = 1.0


def test_each_estimator_keeps_its_own_entry():
    def doubled(cloud):
        center, scatter = _moment_rule(cloud)
        return np.median(cloud.points, axis=0), 2.0 * scatter

    other = ScatterEstimator("doubled", doubled)
    cloud = make_cloud(5, 15)
    moment, twice = MOMENT.estimate(cloud), other.estimate(cloud)
    assert ("scatter", MOMENT) in cloud._derived
    assert ("scatter", other) in cloud._derived
    assert_bitwise(twice[1], 2.0 * moment[1])
    assert_bitwise(twice[0], np.median(cloud.points, axis=0))
    assert all(a is b for a, b in zip(MOMENT.estimate(cloud), moment))


def test_a_refused_scatter_is_refused_on_every_call_and_kept_nowhere():
    calls = []

    def counted(cloud):
        calls.append(1)
        return _moment_rule(cloud)

    counting = ScatterEstimator("counted", counted)
    t = np.linspace(0.0, 1.0, 9)
    cloud = DataCloud(np.column_stack([t, 2.0 * t + 1.0]))
    for estimator in (MOMENT, counting):
        for _ in range(3):
            with pytest.raises(SingularScatterError):
                estimator.estimate(cloud)
        assert ("scatter", estimator) not in cloud._derived
    assert len(calls) == 3


def test_depths_and_regions_on_a_warm_cloud_equal_a_fresh_cloud():
    pts = benchmark_gaussian(3, 40)
    zs = np.vstack([pts[:6], pts.mean(axis=0), 1.7 * pts[7:10] - 4.0])
    warm = DataCloud(pts)
    for depth in (mahalanobis_depth, affine_invariant_l2_depth, oja_depth):
        for _ in range(2):
            batch = depth(zs, warm)
            points = [depth(z, warm) for z in zs]
            assert_bitwise(batch, depth(zs, DataCloud(pts)))
            assert_bitwise(points, [depth(z, DataCloud(pts)) for z in zs])
    for alpha in (0.1, 0.5, 0.9):
        assert_bitwise(mahalanobis_region(warm, alpha).vertices,
                       mahalanobis_region(DataCloud(pts), alpha).vertices)


# ---------------------------------------------------------------------------
# the weight rules' rank terms
# ---------------------------------------------------------------------------


SIZES = (1, 2, 10, 27, 80, 400)
LEVELS = tuple(np.r_[2.0**-20, 1e-3, 0.5, 1.0 - 1e-13, 1.0,
                     np.random.default_rng(27).uniform(0.0, 1.0, 40)].tolist())


def ech_star_closed_form(n, alpha):
    inv = 1.0 / alpha
    j = np.arange(1, n + 1, dtype=float)
    log_hi = inv * (np.log(j) - math.log(n))
    with np.errstate(divide="ignore"):
        log_lo = inv * (np.log(j - 1.0) - math.log(n))
    return np.exp(log_hi) - np.exp(log_lo)


def geometric_closed_form(n, alpha):
    if alpha >= 1.0 - 1e-13:
        return np.full(n, 1.0 / n)
    j = np.arange(1, n + 1, dtype=float)
    return alpha ** (n - j) * (1.0 - alpha) / (1.0 - alpha**n)


@pytest.mark.parametrize("n", SIZES)
def test_weight_rules_are_bitwise_their_closed_forms(n):
    for alpha in LEVELS:
        assert_bitwise(_ech_star_rule(n, alpha), ech_star_closed_form(n, alpha))
        assert_bitwise(_geometric_rule(n, alpha), geometric_closed_form(n, alpha))


def test_rank_terms_are_read_only_and_the_weights_are_not():
    for terms in (*_ech_star_terms(10), _geometric_terms(10)):
        assert not terms.flags.writeable
        with pytest.raises(ValueError):
            terms[0] = 0.0
    for rule, closed_form in ((_ech_star_rule, ech_star_closed_form),
                              (_geometric_rule, geometric_closed_form)):
        w = rule(10, 0.3)
        w[:] = 0.0
        assert_bitwise(rule(10, 0.3), closed_form(10, 0.3))


def test_rank_term_caches_are_bounded():
    for terms in (_ech_star_terms, _geometric_terms):
        assert terms.cache_info().maxsize == _RANK_TERMS_KEPT
        for n in range(1, 3 * _RANK_TERMS_KEPT):
            terms(n)
        assert terms.cache_info().currsize == _RANK_TERMS_KEPT


# ---------------------------------------------------------------------------
# the rank-major ordered samples
# ---------------------------------------------------------------------------


def test_kept_ordered_samples_are_rank_major_runs_of_one_buffer():
    # the benchmark's g80 shape: 6320 critical intervals, two chunks
    cloud = DataCloud(benchmark_gaussian(1, 80))
    chunks = tuple(_ordered_chunks(cloud, keep=True))
    assert [c.shape for c in chunks] == [(_ORDER_CHUNK, 80, 2), (6320 - _ORDER_CHUNK, 80, 2)]
    buffer = chunks[0].base
    while buffer.base is not None:
        buffer = buffer.base
    assert buffer.nbytes == 16 * 80 * 6320
    for chunk in chunks:
        assert np.shares_memory(chunk, buffer)
        for j in (0, 1, 40, 79):
            assert chunk[:, j].flags.c_contiguous
    # consecutive segments: the first chunk starts the buffer, the second
    # starts where the first ends
    starts = [c.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
              for c in chunks]
    assert starts == [0, chunks[0].nbytes]


def test_building_the_kept_ordered_samples_copies_no_chunk():
    # warm up, so that lazy imports and numpy's caches are not counted
    tuple(_ordered_chunks(DataCloud(benchmark_gaussian(2, 80)), keep=True))
    cloud = DataCloud(benchmark_gaussian(1, 80))
    cloud.extent
    tracemalloc.start()
    try:
        chunks = tuple(_ordered_chunks(cloud, keep=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = cloud.n
    intervals = sum(c.shape[0] for c in chunks)
    kept = 16 * n * intervals
    # one chunk's sort: its (k, n) projections and argsort indices, 8 bytes
    # an entry each
    sort = 16 * n * max(c.shape[0] for c in chunks)
    # the critical directions' own arrays (angles, gaps, midpoints, unit
    # vectors, the pair differences): under 128 bytes per interval
    frame = 128 * intervals
    # a chunk-sized copy of the gathered points (16 n k bytes) on top of the
    # argsort indices would pass this bound by 8 n k - frame bytes
    assert peak < kept + sort + frame
