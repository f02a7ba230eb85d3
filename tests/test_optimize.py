"""Multi-start simplex wrapper, monotone pre-scan, and bisection."""

import io
import math

import pytest

from sfgswap import optimize
from sfgswap.optimize import bisect_threshold, multistart_maximize, prescan_monotone


def test_multistart_finds_quadratic_maximum():
    res = multistart_maximize(lambda x: -(x[0] - 0.3) ** 2 - (x[1] + 0.1) ** 2,
                              [(-1.0, 1.0), (-1.0, 1.0)], n_starts=4, seed=0)
    assert res.x[0] == pytest.approx(0.3, abs=1e-4)
    assert res.x[1] == pytest.approx(-0.1, abs=1e-4)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert res.converged


def test_multistart_reports_best_start_convergence(monkeypatch):
    # Start 0 sits on the maximum and stays best; only start 1 converges.
    real_minimize = optimize.minimize
    starts = []

    def minimize(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        res.success = len(starts) == 1
        starts.append(res)
        return res

    monkeypatch.setattr(optimize, "minimize", minimize)
    res = multistart_maximize(lambda x: -(x[0] - 0.3) ** 2, [(-1.0, 1.0)],
                              n_starts=2, seed=0, x0=(0.3,))
    assert len(starts) == 2 and starts[1].success
    assert res.start_index == 0
    assert not res.converged


def test_multistart_is_deterministic():
    def rastrigin_like(x):
        return -(x[0] ** 2) + 0.3 * math.cos(8 * x[0])

    a = multistart_maximize(rastrigin_like, [(-2.0, 2.0)], n_starts=8, seed=5)
    b = multistart_maximize(rastrigin_like, [(-2.0, 2.0)], n_starts=8, seed=5)
    assert a.x == b.x
    assert a.value == b.value


def test_multistart_respects_bounds():
    res = multistart_maximize(lambda x: x[0], [(0.0, 0.5)], n_starts=4, seed=1)
    assert res.x[0] <= 0.5
    assert res.value == pytest.approx(0.5, abs=1e-6)


def test_multistart_rejects_non_finite_objective():
    with pytest.raises(ValueError):
        multistart_maximize(lambda x: float("nan"), [(0.0, 1.0)], n_starts=1)


def test_multistart_trace_stream():
    stream = io.StringIO()
    multistart_maximize(lambda x: -x[0] ** 2, [(-1.0, 1.0)], n_starts=2, seed=0,
                        trace=stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "start,iteration,objective,x0"
    assert len(lines) > 2


def test_prescan_monotone():
    assert prescan_monotone(lambda x: x ** 3, -1.0, 1.0, increasing=True)
    assert not prescan_monotone(lambda x: math.sin(5 * x), 0.0, 3.0, increasing=True)
    assert prescan_monotone(lambda x: -x, 0.0, 1.0, increasing=False)
    assert prescan_monotone(lambda x: x, 0.0, 1.0)


def test_bisect_threshold_root():
    x, fx = bisect_threshold(lambda v: v - 0.3, 0.0, 1.0, xtol=1e-6)
    assert x == pytest.approx(0.3, abs=1e-5)
    assert fx > 0.0


def test_bisect_threshold_requires_sign_change():
    with pytest.raises(ValueError):
        bisect_threshold(lambda v: v + 1.0, 0.0, 1.0, xtol=1e-3)
    with pytest.raises(ValueError):
        bisect_threshold(lambda v: v - 5.0, 0.0, 1.0, xtol=1e-3)
