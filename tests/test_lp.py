import functools

import numpy as np
import pytest
from scipy.optimize import linprog

from depthkit.errors import DepthKitError, IterationLimitError
from depthkit.lp import LPResult, feasible, solve_lp


def scipy_solve(c, a, b, upper):
    # solve_lp maximizes; scipy minimizes, so negate the objective
    bounds = [(0.0, u) for u in upper] if upper is not None else [(0.0, None)] * len(c)
    return linprog(-np.asarray(c, dtype=float), A_eq=a, b_eq=b, bounds=bounds,
                   method="highs")


def test_tiny_known_lp():
    # max x + y  s.t.  x + y = 1, 0 <= x, y <= 1
    res = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], upper=[1.0, 1.0])
    assert isinstance(res, LPResult)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)
    assert res.x.sum() == pytest.approx(1.0)


def test_upper_bounds_bind():
    # max x1  s.t.  x1 + x2 = 1, x1 <= 0.3
    res = solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0], upper=[0.3, 1.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.3)


def test_infeasible_detected():
    # x1 + x2 = 3 with both bounded by 1 cannot hold
    res = solve_lp([1.0, 1.0], [[1.0, 1.0]], [3.0], upper=[1.0, 1.0])
    assert res.status == "infeasible"
    assert not feasible([[1.0, 1.0]], [3.0], upper=[1.0, 1.0])
    assert feasible([[1.0, 1.0]], [1.5], upper=[1.0, 1.0])


def test_matches_scipy_on_random_bounded_problems():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m, n = rng.integers(1, 4), rng.integers(2, 7)
        a = rng.standard_normal((m, n))
        # build a guaranteed-feasible rhs from an interior point
        x0 = rng.uniform(0.05, 0.95, n)
        upper = np.ones(n)
        b = a @ x0
        c = rng.standard_normal(n)
        ours = solve_lp(c, a, b, upper=upper)
        ref = scipy_solve(c, a, b, upper)
        assert ours.status == "optimal"
        assert ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-8)


def test_matches_scipy_on_infeasible_problems():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(40):
        n = 4
        a = rng.standard_normal((2, n))
        b = rng.standard_normal(2) * 10.0  # usually unreachable with x in [0,1]^4
        c = rng.standard_normal(n)
        ours = solve_lp(c, a, b, upper=np.ones(n))
        ref = scipy_solve(c, a, b, np.ones(n))
        assert (ours.status == "optimal") == (ref.status == 0)
        if ours.status == "optimal":
            assert ours.value == pytest.approx(-ref.fun, abs=1e-8)
        else:
            hits += 1
    assert hits > 0


def test_degenerate_equalities():
    # duplicated constraint rows must not break the solver
    a = [[1.0, 1.0], [1.0, 1.0]]
    res = solve_lp([2.0, 1.0], a, [1.0, 1.0], upper=[1.0, 1.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)


def test_iteration_limit_is_a_coded_error():
    # the optimum x = (0.3, 0.7) needs more than one pivot
    with pytest.raises(IterationLimitError) as info:
        solve_lp([1.0, 2.0], [[1.0, 1.0]], [1.0], upper=[0.3, 0.7], max_iter=1)
    assert isinstance(info.value, DepthKitError)
    assert info.value.code == "ITERATION_LIMIT"


def test_cli_reports_the_iteration_limit(capsys, monkeypatch):
    from depthkit import weighted
    from depthkit.cli import main

    monkeypatch.setattr(weighted, "solve_lp", functools.partial(solve_lp, max_iter=1))
    assert main(["depth", "zonoid", "--data", "eu27", "--point", "80.6,10.9"]) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ITERATION_LIMIT:")
    assert "Traceback" not in err
