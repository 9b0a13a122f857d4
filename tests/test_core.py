import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cloud
from depthkit import (
    DataCloud,
    check_postulates,
    clamp_depth,
    depth_from_outlyingness,
    depth_from_regions,
    get_depth,
    outlyingness,
)
from depthkit.errors import NestingViolationError
from depthkit.geometry import ConvexRegion


def test_clamp_snaps_float_noise():
    assert clamp_depth(-1e-12) == 0.0
    assert clamp_depth(1.0 + 1e-12) == 1.0
    assert clamp_depth(0.5) == 0.5


def test_clamp_rejects_real_violations():
    with pytest.raises(ValueError):
        clamp_depth(-0.01)
    with pytest.raises(ValueError):
        clamp_depth(1.01)
    with pytest.raises(ValueError):
        clamp_depth(float("nan"))


def test_outlyingness_endpoints():
    assert outlyingness(1.0) == 0.0
    assert outlyingness(0.5) == pytest.approx(1.0)
    assert outlyingness(0.0) == math.inf
    assert depth_from_outlyingness(math.inf) == 0.0
    assert depth_from_outlyingness(0.0) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0))
def test_outlyingness_round_trip(depth):
    assert depth_from_outlyingness(outlyingness(depth)) == pytest.approx(depth)


def test_outlyingness_rejects_negative():
    with pytest.raises(ValueError):
        depth_from_outlyingness(-0.5)


def test_depth_from_regions_picks_deepest_level():
    square = ConvexRegion.from_points(
        np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    regions = {0.25: square, 0.5: square.scaled(0.5)}
    assert depth_from_regions([0.0, 0.0], regions) == 0.5
    assert depth_from_regions([0.75, 0.0], regions) == 0.25
    assert depth_from_regions([2.0, 0.0], regions) == 0.0


def test_depth_from_regions_refuses_a_non_finite_point():
    square = ConvexRegion.from_points(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        depth_from_regions([np.nan, 0.5], {0.5: square})


def test_depth_from_regions_rejects_inverted_nesting():
    square = ConvexRegion.from_points(
        np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    regions = {0.25: square.scaled(0.5), 0.5: square}
    with pytest.raises(NestingViolationError):
        depth_from_regions([0.0, 0.0], regions)


def test_depth_from_regions_rejects_bad_levels():
    square = ConvexRegion.from_points(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        depth_from_regions([0.0, 0.0], {})
    with pytest.raises(ValueError):
        depth_from_regions([0.0, 0.0], {1.5: square})


def test_harness_passes_mahalanobis_affine():
    spec = get_depth("mahalanobis")
    report = check_postulates(spec.evaluator(), make_cloud(0, 10), variant="affine",
                              trials=20, seed=1)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names == ["D1", "D2", "D3", "D4", "D4con", "D5"]


def test_harness_variant_labels():
    spec = get_depth("l2")
    report = check_postulates(spec.evaluator(), make_cloud(0, 10), variant="isometric",
                              trials=10, seed=1)
    assert report.ok
    assert any(c.name == "D2iso" for c in report.checks)


def test_harness_flags_non_invariant_evaluator():
    # L2 depth is not affine invariant; the harness must say so
    spec = get_depth("l2")
    aniso = DataCloud(make_cloud(2, 12).points * np.array([3.0, 0.5]))
    report = check_postulates(spec.evaluator(), aniso, variant="affine",
                              trials=50, seed=5)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"D2"}


def test_harness_flags_non_monotone_function():
    # distance from the mean increases outward: D4 and D3 must fail
    def rising(z, cloud):
        return min(1.0, float(np.linalg.norm(np.asarray(z) - cloud.mean)) / 100.0)

    report = check_postulates(rising, make_cloud(3, 12), variant="affine",
                              trials=5, seed=0)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "D4" in failed or "D3" in failed


def test_harness_rejects_unknown_variant():
    spec = get_depth("mahalanobis")
    with pytest.raises(ValueError):
        check_postulates(spec.evaluator(), make_cloud(0, 8), variant="projective")


def test_report_table_shape():
    spec = get_depth("zonoid")
    report = check_postulates(spec.evaluator(), make_cloud(0, 8), trials=5, seed=2)
    table = report.table()
    lines = table.strip().splitlines()
    assert len(lines) == 7  # six checks plus the overall line
    assert lines[-1].startswith("overall")
