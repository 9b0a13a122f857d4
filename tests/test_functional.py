"""Functional depths: pointwise minima, weighted-time minima, functional families."""

import numpy as np
import pytest
from conftest import make_cloud

from depthkit.combinatorial import halfspace_depth
from depthkit.core import DataCloud
from depthkit.errors import (
    EmptyTimeSetError,
    InvalidTimeSetError,
    NonlinearFunctionalError,
    UnknownDepthError,
)
from depthkit.functional import (
    FunctionalSample,
    evaluation_functionals,
    graph_depth,
    grid_depth,
    phi_depth,
    phi_maximality,
)
from depthkit.registry import EvalOptions

GRID4 = np.linspace(0.0, 1.0, 4)


def constant_sample(values, k=4):
    grid = np.linspace(0.0, 1.0, k)
    curves = np.tile(np.asarray(values, dtype=float)[:, None], (1, k))
    return FunctionalSample(grid, curves)


def random_sample(seed, n, k, d=1):
    rng = np.random.default_rng(seed)
    curves = rng.standard_normal((n, k, d))
    if d == 1:
        curves = curves[:, :, 0]
    return FunctionalSample(np.linspace(0.0, 1.0, k), curves)


# ---------------------------------------------------------------------------
# sample container
# ---------------------------------------------------------------------------


def test_sample_coerces_univariate_curves():
    s = FunctionalSample(GRID4, np.zeros((3, 4)))
    assert (s.n, s.k, s.d) == (3, 4, 1)
    assert s.curves.shape == (3, 4, 1)
    cloud = s.point_cloud(2)
    assert isinstance(cloud, DataCloud)
    assert cloud.n == 3 and cloud.d == 1


def test_sample_validation_errors():
    with pytest.raises(ValueError):
        FunctionalSample(np.array([0.0, 1.5]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        FunctionalSample(np.array([-0.1, 1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        FunctionalSample(np.array([0.0, 0.5, 0.5]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FunctionalSample(np.array([0.0, 0.6, 0.3]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FunctionalSample(GRID4, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FunctionalSample(GRID4, np.full((2, 4), np.nan))
    with pytest.raises(ValueError):
        FunctionalSample(GRID4, np.zeros((0, 4)))


def test_coerce_curve_and_sup_norm():
    s = constant_sample([0.0, 1.0])
    z = s.coerce_curve(np.array([1.0, -3.0, 2.0, 0.5]))
    assert z.shape == (4, 1)
    assert s.sup_norm(np.array([1.0, -3.0, 2.0, 0.5])) == 3.0
    with pytest.raises(ValueError):
        s.coerce_curve(np.zeros(3))
    with pytest.raises(ValueError):
        s.coerce_curve(np.full(4, np.inf))


# ---------------------------------------------------------------------------
# collapse to the multivariate case on constant curves
# ---------------------------------------------------------------------------


def test_graph_depth_collapses_on_constant_curves():
    s = constant_sample([0.0, 1.0, 2.0])
    cloud = DataCloud(np.array([[0.0], [1.0], [2.0]]))
    for v in (0.0, 0.5, 1.0, 2.0, 5.0):
        z = np.full(4, v)
        assert abs(graph_depth(z, s) - halfspace_depth(v, cloud)) <= 1e-12


def test_grid_depth_collapses_on_constant_curves():
    s = constant_sample([0.0, 1.0, 2.0])
    cloud = DataCloud(np.array([[0.0], [1.0], [2.0]]))
    for v in (0.0, 1.0, 1.5):
        z = np.full(4, v)
        got = grid_depth(z, s, options=EvalOptions(budget=200, seed=1))
        assert abs(got - halfspace_depth(v, cloud)) <= 1e-12


def test_graph_depth_collapses_on_constant_planar_curves():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    curves = np.tile(square[:, None, :], (1, 3, 1))
    s = FunctionalSample(np.linspace(0.0, 1.0, 3), curves)
    center = np.tile([[0.5, 0.5]], (3, 1))
    assert graph_depth(center, s) == pytest.approx(0.5, abs=1e-12)
    far = np.tile([[9.0, 9.0]], (3, 1))
    assert graph_depth(far, s) == 0.0


# ---------------------------------------------------------------------------
# graph depth structure
# ---------------------------------------------------------------------------


def test_graph_depth_zero_outside_envelope():
    s = random_sample(0, 6, 5)
    z = np.full(5, 50.0)
    assert graph_depth(z, s) == 0.0


def test_graph_depth_antitone_in_time_set():
    s = random_sample(1, 7, 6)
    z = 0.25 * s.curves[0, :, 0] + 0.75 * s.curves[1, :, 0]
    full = graph_depth(z, s)
    for sub in ([0], [1, 3], [0, 2, 4], [5]):
        assert graph_depth(z, s, t_indices=sub) >= full


def test_graph_depth_matches_evaluation_functionals():
    s = random_sample(2, 6, 5)
    fam = evaluation_functionals(s)
    for z in (s.curves[0, :, 0], np.zeros(5), 0.1 * np.ones(5)):
        assert phi_depth(z, s, fam) == graph_depth(z, s)


def test_graph_depth_shift_invariance():
    s = random_sample(3, 6, 5)
    z = 0.5 * (s.curves[0, :, 0] + s.curves[1, :, 0])
    base = graph_depth(z, s)
    shifted = FunctionalSample(s.grid, s.curves[:, :, 0] + 1024.0)
    assert graph_depth(z + 1024.0, shifted) == base


def test_graph_depth_respects_time_subset_errors():
    s = random_sample(4, 5, 4)
    z = np.zeros(4)
    with pytest.raises(EmptyTimeSetError):
        graph_depth(z, s, t_indices=[])
    with pytest.raises(ValueError):
        graph_depth(z, s, t_indices=[4])
    with pytest.raises(ValueError):
        graph_depth(z, s, t_indices=[-1])


@pytest.mark.parametrize("t_indices", [[0.9], [True], [1, False], [1.5, 2], [float("nan")],
                                       np.array([True, False]), ["1"]])
def test_time_positions_must_be_integers(t_indices):
    s = random_sample(4, 5, 4)
    z = np.zeros(4)
    with pytest.raises(InvalidTimeSetError) as err:
        graph_depth(z, s, t_indices=t_indices)
    assert err.value.code == "INVALID_T"
    with pytest.raises(InvalidTimeSetError):
        grid_depth(z, s, t_indices=t_indices, options=EvalOptions(budget=10, seed=0))


def test_integral_float_time_positions_read_as_positions():
    s = random_sample(4, 5, 4)
    z = np.zeros(4)
    assert graph_depth(z, s, t_indices=[0.0, 2.0]) == graph_depth(z, s, t_indices=[0, 2])
    assert graph_depth(z, s, t_indices=np.array([1, 3])) == graph_depth(z, s, t_indices=[1, 3])


# ---------------------------------------------------------------------------
# grid depth structure
# ---------------------------------------------------------------------------


def test_grid_depth_sample_curves_hit_the_floor():
    s = random_sample(5, 5, 4)
    for i in range(s.n):
        z = s.curves[i, :, 0]
        got = grid_depth(z, s, options=EvalOptions(budget=500, seed=0))
        assert got >= 1.0 / s.n
        assert got <= graph_depth(z, s)


def test_grid_depth_far_curve_is_zero():
    s = random_sample(6, 6, 5)
    assert grid_depth(np.full(5, 40.0), s) == 0.0


def test_grid_depth_time_subset_and_errors():
    s = random_sample(7, 5, 6)
    z = s.curves[2, :, 0]
    full = grid_depth(z, s, options=EvalOptions(budget=100, seed=0))
    sub = grid_depth(z, s, t_indices=[0, 2], options=EvalOptions(budget=100, seed=0))
    assert sub >= full
    with pytest.raises(EmptyTimeSetError):
        grid_depth(z, s, t_indices=[])


# ---------------------------------------------------------------------------
# functional families
# ---------------------------------------------------------------------------


def test_phi_depth_rejects_nonlinear_functionals():
    s = random_sample(8, 5, 4)
    bad = [lambda curve: np.asarray(curve)[0, :] ** 2]
    with pytest.raises(NonlinearFunctionalError):
        phi_depth(np.zeros(4), s, bad)


def test_phi_additivity_check_is_scale_free():
    # the tolerance is relative to phi(u) and phi(v), with no floor at 1, so
    # a small square is refused and a linear map is accepted at any scale
    s = random_sample(3, 12, 4)
    z = s.curves[5]
    for c in (1.0, 1e-9, 1e-12, 1e-300):
        square = lambda curve, c=c: c * np.asarray(curve)[0] ** 2  # noqa: E731
        with pytest.raises(NonlinearFunctionalError):
            phi_depth(z, s, [square])
    unscaled = phi_depth(z, s, [lambda curve: np.asarray(curve)[0] - np.asarray(curve)[3]])
    for c in (1e-300, 1e-12, 1e12, 1e200):
        ends = lambda curve, c=c: c * (np.asarray(curve)[0] - np.asarray(curve)[3])  # noqa: E731
        assert phi_depth(z, s, [ends]) == unscaled
    assert phi_depth(z, s, [lambda curve: np.zeros(1)]) == 1.0


def test_phi_depth_requires_nonempty_family():
    s = random_sample(8, 5, 4)
    with pytest.raises(ValueError):
        phi_depth(np.zeros(4), s, [])


def test_phi_depth_mean_functional():
    s = constant_sample([0.0, 1.0, 2.0])
    mean_phi = [lambda curve: np.mean(np.asarray(curve), axis=0)]
    cloud = DataCloud(np.array([[0.0], [1.0], [2.0]]))
    for v in (0.5, 1.0, 3.0):
        assert phi_depth(np.full(4, v), s, mean_phi) == halfspace_depth(v, cloud)


def test_phi_maximality_at_the_pointwise_mean():
    s = constant_sample([0.0, 2.0])
    fam = evaluation_functionals(s)
    assert phi_maximality(np.full(4, 1.0), s, fam, base_depth="mahalanobis")
    assert not phi_maximality(np.full(4, 0.9), s, fam, base_depth="mahalanobis")


def test_functional_base_admissibility():
    s = random_sample(9, 5, 4)
    z = np.zeros(4)
    with pytest.raises(UnknownDepthError):
        graph_depth(z, s, base_depth="random-tukey")
    with pytest.raises(UnknownDepthError):
        grid_depth(z, s, base_depth="no-such-depth")
