"""The one Phi-infimum against the four loops it replaced.

``graph_depth``, ``grid_depth``, ``phi_depth`` and ``phi_maximality`` each
once carried their own minimum loop.  Those loops are kept below as the
oracle: on seeded univariate and planar samples, every admissible base
depth must give bitwise the same value, on grid-position subsets and on
curves outside the envelope (where the minimum stops at 0) as well.  Each
depth also takes a batch of curves in one call; the batch must be bitwise
the oracle curve by curve, and one curve bitwise a batch of one.
"""

import numpy as np
import pytest

from depthkit.cloud import DataCloud
from depthkit.functional import (
    FunctionalSample,
    evaluation_functionals,
    graph_depth,
    grid_depth,
    phi_depth,
    phi_maximality,
)
from depthkit.registry import DepthSpec, EvalOptions, available_depths, get_depth
from depthkit.rng import unit_directions

OPTIONS = EvalOptions(seed=5, budget=12)
BASES = [name for name in available_depths() if get_depth(name).functional_base]
SUBSETS = (None, [0], [1, 3], [3, 0, 2])


def _time_indices(sample, t_indices):
    return np.arange(sample.k) if t_indices is None else np.asarray(t_indices)


def oracle_graph(z, sample, base, t_indices, options):
    spec = get_depth(base)
    zc = sample.coerce_curve(z)
    value = 1.0
    for j in _time_indices(sample, t_indices):
        value = min(value, spec.evaluate(zc[j], sample.point_cloud(int(j)), options))
        if value == 0.0:
            break
    return value


def oracle_grid(z, sample, base, t_indices, options):
    spec = get_depth(base)
    zc = sample.coerce_curve(z)
    idx = _time_indices(sample, t_indices)
    kp = idx.size
    directions = np.vstack([np.eye(kp), unit_directions(kp, options.budget, options.seed)])
    stacked = np.concatenate([sample.curves[:, idx, :], zc[idx, :][np.newaxis]], axis=0)
    value = 1.0
    for r in directions:
        proj = np.einsum("m,nmd->nd", r, stacked)
        value = min(value, spec.evaluate(proj[-1], DataCloud(proj[:-1]), options))
        if value == 0.0:
            break
    return value


def _phi_clouds(z, sample, functionals):
    zc = sample.coerce_curve(z)
    for phi in functionals:
        q = np.asarray(phi(zc), dtype=float).reshape(-1)
        pts = np.array([np.asarray(phi(sample.curves[i]), dtype=float).reshape(-1)
                        for i in range(sample.n)])
        yield q, DataCloud(pts)


def oracle_phi(z, sample, functionals, base, options):
    spec = get_depth(base)
    value = 1.0
    for q, cloud in _phi_clouds(z, sample, functionals):
        value = min(value, spec.evaluate(q, cloud, options))
        if value == 0.0:
            break
    return value


def oracle_maximality(z, sample, functionals, base, options, tol=1e-9):
    spec = get_depth(base)
    for q, cloud in _phi_clouds(z, sample, functionals):
        if spec.evaluate(q, cloud, options) < 1.0 - tol:
            return False
    return True


def _sample(d):
    rng = np.random.default_rng(40 + d)
    curves = np.cumsum(rng.standard_normal((8, 4, d)), axis=1)
    return FunctionalSample(np.linspace(0.0, 1.0, 4), curves)


def _queries(sample):
    """A sample curve, the pointwise median, a blend and a far curve."""
    curves = sample.curves
    return (curves[2], np.median(curves, axis=0),
            0.3 * curves[0] + 0.7 * curves[5], curves[1] + 50.0)


def _family(sample, t_indices=(2, 0)):
    mean = lambda curve: np.mean(np.asarray(curve, dtype=float), axis=0)  # noqa: E731
    ends = lambda curve: np.asarray(curve, dtype=float)[-1] - np.asarray(curve)[0]  # noqa: E731
    return evaluation_functionals(sample, t_indices) + [mean, ends]


def _bitwise(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def _check(depth, oracle, queries):
    """``depth(zs)`` on the stacked queries and on each one, as a curve and
    as a batch of one, is bitwise ``oracle(z)`` curve by curve."""
    want = [oracle(z) for z in queries]
    singles = [depth(z) for z in queries]
    assert all(type(v) is float for v in singles)
    assert _bitwise(singles, want)
    assert _bitwise([depth(z[np.newaxis])[0] for z in queries], want)
    batch = depth(np.stack(queries))
    assert batch.shape == (len(queries),) and _bitwise(batch, want)


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("base", BASES)
def test_graph_depth_equals_the_pointwise_loop(base, d):
    sample = _sample(d)
    for sub in SUBSETS:
        _check(lambda z: graph_depth(z, sample, base, sub, OPTIONS),
               lambda z: oracle_graph(z, sample, base, sub, OPTIONS), _queries(sample))


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("base", BASES)
def test_grid_depth_equals_the_direction_loop(base, d):
    sample = _sample(d)
    for sub in SUBSETS:
        _check(lambda z: grid_depth(z, sample, sub, base, OPTIONS),
               lambda z: oracle_grid(z, sample, base, sub, OPTIONS), _queries(sample))


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("base", BASES)
def test_phi_depth_and_maximality_equal_the_family_loops(base, d):
    sample = _sample(d)
    queries = _queries(sample)
    for sub in SUBSETS:
        family = _family(sample, sub)
        _check(lambda z: phi_depth(z, sample, family, base, OPTIONS),
               lambda z: oracle_phi(z, sample, family, base, OPTIONS), queries)
        want = [oracle_maximality(z, sample, family, base, OPTIONS) for z in queries]
        assert [phi_maximality(z, sample, family, base, OPTIONS) for z in queries] == want
        batch = phi_maximality(np.stack(queries), sample, family, base, OPTIONS)
        assert batch.tolist() == want


def test_far_curves_stop_at_zero(monkeypatch):
    rows = []
    evaluate_many = DepthSpec.evaluate_many

    def counted(self, zs, cloud, options=OPTIONS):
        rows.append((self.name, len(zs)))
        return evaluate_many(self, zs, cloud, options)

    monkeypatch.setattr(DepthSpec, "evaluate_many", counted)
    sample = _sample(2)
    far = sample.curves[1] + 50.0
    family = _family(sample)
    assert graph_depth(far, sample) == 0.0
    assert grid_depth(far, sample, options=OPTIONS) == 0.0
    assert phi_depth(far, sample, family) == 0.0
    # the first map already gives 0, so no later one is evaluated
    assert rows == [("halfspace", 1)] * 3
    # in a batch the far curve leaves after the first map, while a sample
    # curve, a point of every image cloud, stays above 0 to the last map
    pair = np.stack([far, sample.curves[3]])
    for depth, maps in ((lambda zs: graph_depth(zs, sample), sample.k),
                        (lambda zs: grid_depth(zs, sample, options=OPTIONS),
                         sample.k + OPTIONS.budget),
                        (lambda zs: phi_depth(zs, sample, family), len(family))):
        rows.clear()
        values = depth(pair)
        assert values[0] == 0.0 and values[1] > 0.0
        assert rows == [("halfspace", 2)] + [("halfspace", 1)] * (maps - 1)


def test_phi_maximality_true_and_false():
    # symmetric constant curves: the centre is the deepest point of every
    # evaluation and of the mean, a shifted curve of none
    values = np.array([-2.0, -1.0, 1.0, 2.0])
    sample = FunctionalSample(np.linspace(0.0, 1.0, 4), np.tile(values[:, None], (1, 4)))
    family = _family(sample)[:3]
    centre, shifted = np.zeros(4), np.full(4, 0.25)
    for base in ("mahalanobis", "zonoid", "projection"):
        assert phi_maximality(centre, sample, family, base, OPTIONS)
        assert oracle_maximality(centre, sample, family, base, OPTIONS)
        assert not phi_maximality(shifted, sample, family, base, OPTIONS)
        assert not oracle_maximality(shifted, sample, family, base, OPTIONS)
