"""The registry's point/batch contract: one depth function per entry.

Every registered depth answers a point with a Python float, whatever form
the point comes in, and a batch with one call of its function, and every
call checks its query once.
"""

import dataclasses

import numpy as np
import pytest
from conftest import make_cloud

from depthkit import DataCloud, combinatorial, metric, weighted
from depthkit.registry import EvalOptions, available_depths, get_depth

OPTIONS = EvalOptions(seed=5, budget=60)

#: every method by which a cloud may check a query; a second gate beside
#: ``queries`` would check a query a second time
GATES = ("queries", "point_of", "points_of")

#: the batch forms kept beside the depth functions, which take rows only
BATCH_FORMS = {
    "oja": lambda zs, cloud: metric.oja_depth_many(zs, cloud),
    "simplicial": lambda zs, cloud: combinatorial.simplicial_depth_many(zs, cloud),
    "echstar": lambda zs, cloud: weighted.wm_depth_many(zs, cloud, weighted.ECH_STAR),
    "geometric": lambda zs, cloud: weighted.wm_depth_many(zs, cloud, weighted.GEOMETRIC),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", available_depths())
def test_a_point_in_any_form_gives_one_float(name, d):
    spec = get_depth(name)
    cloud = make_cloud(4, 12, d)
    for z in (cloud.points[3], cloud.mean + 0.25, cloud.points.max(axis=0) + 1.0):
        values = [spec.evaluate(form, cloud, OPTIONS) for form in (z, list(z), z[None])]
        assert all(type(v) is float for v in values), values
        assert len({np.float64(v).tobytes() for v in values}) == 1
        assert values[0] == spec.evaluate_many(z[None], cloud, OPTIONS)[0]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", available_depths())
def test_a_batch_is_one_call_of_the_depth_function(name, d):
    spec = get_depth(name)
    calls = []

    def counted(zs, cloud, options):
        calls.append(np.shape(zs))
        return spec.depth(zs, cloud, options)

    counting = dataclasses.replace(spec, depth=counted)
    cloud = make_cloud(6, 12, d)
    zs = np.vstack([cloud.points[:5], cloud.mean[None]])
    values = counting.evaluate_many(zs, cloud, OPTIONS)
    assert calls == [(6, d)]
    assert values.shape == (6,)
    assert values.tobytes() == spec.evaluate_many(zs, cloud, OPTIONS).tobytes()


def test_a_zonoid_batch_reaches_its_module_function_once(monkeypatch):
    calls = []
    real = weighted.zonoid_depth

    def counted(z, cloud):
        calls.append(np.shape(z))
        return real(z, cloud)

    # the entry looks the function up on its module when it runs
    monkeypatch.setattr(weighted, "zonoid_depth", counted)
    cloud = make_cloud(2, 9)
    values = get_depth("zonoid").evaluate_many(cloud.points, cloud)
    assert calls == [(9, 2)]
    assert values.tolist() == [real(z, cloud) for z in cloud.points]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", available_depths())
def test_every_call_checks_its_query_once(name, d, monkeypatch):
    checks = []
    for gate in GATES:
        real = getattr(DataCloud, gate, None)
        if real is not None:
            def counted(cloud, z, _gate=gate, _real=real):
                checks.append(_gate)
                return _real(cloud, z)
            monkeypatch.setattr(DataCloud, gate, counted)
    spec = get_depth(name)
    cloud = make_cloud(7, 12, d)
    zs = np.vstack([cloud.points[:3], cloud.mean[None] + 0.25])
    z = zs[3]
    calls = {
        "evaluate": lambda: spec.evaluate(z, cloud, OPTIONS),
        "evaluate_many": lambda: spec.evaluate_many(zs, cloud, OPTIONS),
        "one-row evaluate_many": lambda: spec.evaluate_many(z[None], cloud, OPTIONS),
        "evaluator": lambda: spec.evaluator(OPTIONS)(z, cloud),
        # the entry's function is the public depth function, options bound
        "point": lambda: spec.depth(z, cloud, OPTIONS),
        "rows": lambda: spec.depth(zs, cloud, OPTIONS),
    }
    if name in BATCH_FORMS:
        calls["batch form"] = lambda: BATCH_FORMS[name](zs, cloud)
    for label, call in calls.items():
        checks.clear()
        call()
        assert checks == ["queries"], label
