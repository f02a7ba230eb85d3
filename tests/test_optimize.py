"""Multi-start projected BFGS, its simplex reference, and the threshold driver
(monotone pre-scan, then bisection)."""

import io
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from sfgswap import optimize
from sfgswap.bell import optimize_chsh
from sfgswap.optimize import (
    maximize_starts_bfgs,
    monotone_threshold,
    multistart_maximize,
)
from sfgswap.presets import get_preset, swap_params
from simplex_reference import drive_one, nelder_mead


def _gradient(f, x, h=1e-7):
    """Central-difference gradient of the scalar ``f`` at the point ``x``."""
    steps = h * np.eye(len(x))
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in steps])


def _rows(f):
    """A batched objective giving the scalar ``f`` and its central-difference
    gradient at each point."""
    return lambda x: ([f(p) for p in x], [_gradient(f, p) for p in x])


def _onto(bounds):
    """The affine map from the unit cube onto the box ``bounds``, which
    spreads a search's random starts over it."""
    lows, highs = np.array(bounds, dtype=float).T
    return lambda r: lows + r * (highs - lows)


def _quadratic(x):
    return (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.1) ** 2


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _rastrigin_like(x):
    return x[0] ** 2 - 0.3 * math.cos(8 * x[0])


def _staircase(x):
    # flat steps: many vertices share a value, so argsort meets ties
    return math.floor(4 * abs(x[0])) + math.floor(4 * abs(x[1])) + 0.01 * abs(x[0])


def _wiggly(x):
    # fine ripples make contractions fail, so the simplex shrinks
    return x[0] ** 2 + x[1] ** 2 + 0.05 * math.cos(200 * x[0]) * math.cos(200 * x[1])


# Gradients of the 2-D objectives above (the staircase's away from its edges).
GRADIENTS = {
    _quadratic: lambda x: np.array([2.0 * (x[0] - 0.3), 4.0 * (x[1] + 0.1)]),
    _staircase: lambda x: np.array([0.01 * math.copysign(1.0, x[0]), 0.0]),
    _wiggly: lambda x: np.array(
        [2.0 * x[0] - 10.0 * math.sin(200 * x[0]) * math.cos(200 * x[1]),
         2.0 * x[1] - 10.0 * math.cos(200 * x[0]) * math.sin(200 * x[1])]),
}


@pytest.mark.parametrize("func, x0, maxiter", [
    (_quadratic, (0.9, -0.7), 4000),
    (_rosenbrock, (1.3, 0.7, 0.8, 1.9, 1.2), 10000),
    (_quadratic, (0.0, 0.5), 4000),
    (_rastrigin_like, (1.7,), 2000),
    (_staircase, (0.9, 0.7), 4000),
    (_wiggly, (0.9, 0.4), 4000),
    (_rosenbrock, (-1.2, 1.0), 20),
], ids=["quadratic-2d", "rosenbrock-5d", "zero-coordinate", "rastrigin-like",
        "plateau", "shrink", "maxiter"])
def test_nelder_mead_matches_scipy_bit_for_bit(func, x0, maxiter):
    options = {"xatol": 1e-6, "fatol": 1e-12, "maxiter": maxiter}
    ref = minimize(func, x0, method="Nelder-Mead", options=options)
    res = nelder_mead(func, x0, **options)
    assert np.array_equal(res.x, ref.x)
    assert res.fun == ref.fun
    assert res.nfev == ref.nfev
    assert res.success == ref.success


@pytest.mark.parametrize("func", [_wiggly, _staircase, _quadratic])
def test_lockstep_starts_match_lone_searches(func):
    # Starts stepped together, line searches and restarts included, give
    # what each gives alone under `optimize.bfgs_steps` driven one point at
    # a time: the same point, value, count and flag.
    bounds = [(-1.0, 1.0), (-1.0, 1.0)]
    starts = [(0.9, 0.4), (-0.7, 0.2), (0.0, 0.5), (0.3, -0.8)]
    gradient = GRADIENTS[func]
    runs = maximize_starts_bfgs(
        lambda x: ([-func(p) for p in x], [-gradient(p) for p in x]), bounds, starts)
    lows, highs = np.array(bounds).T
    for i, (x0, run) in enumerate(zip(starts, runs)):
        x, f, nfev, converged = drive_one(optimize.bfgs_steps(x0, lows, highs),
                                          lambda x: (func(x), gradient(x)))
        assert np.array_equal(np.clip(x, -1.0, 1.0), run.x)
        assert -f == run.value
        assert (nfev, converged, i) == (run.n_evaluations, run.converged, run.start_index)


def test_lockstep_trace_groups_rows_by_start():
    # The CSV trace lists each start's evaluations together, in start order,
    # numbered per start, as each start alone would write them; start 1 is
    # the seeded draw, as before the starts ran in lockstep.
    bounds = [(-1.0, 1.0), (-2.0, 2.0)]

    objective = _rows(lambda p: -(p[0] - 0.3) ** 2 - math.sin(3.0 * p[1]))

    def rows(stream):
        return [line.split(",") for line in stream.getvalue().splitlines()[1:]]

    stream = io.StringIO()
    res = multistart_maximize(objective, bounds, _onto(bounds), n_starts=3, seed=4, trace=stream)
    table = rows(stream)
    assert stream.getvalue().splitlines()[0] == "start,iteration,objective,x0,x1"
    assert len(table) == res.n_evaluations
    assert [int(r[0]) for r in table] == sorted(int(r[0]) for r in table)
    lows, highs = np.array([-1.0, -2.0]), np.array([1.0, 2.0])
    rng = random.Random(4)
    starts = [np.zeros(2)] + [lows + np.array([rng.random(), rng.random()]) * (highs - lows)
                              for _ in range(2)]
    for s, start in enumerate(starts):
        own = [r for r in table if int(r[0]) == s]
        assert [int(r[1]) for r in own] == list(range(len(own)))
        assert own[0][3:] == [f"{v:.12g}" for v in start]
        alone = io.StringIO()
        multistart_maximize(objective, bounds, _onto(bounds), n_starts=1, x0=start, trace=alone)
        assert [r[1:] for r in rows(alone)] == [r[1:] for r in own]


def _two_peaks(p):
    # a low peak at -0.5 (value 1) and a high one at 0.5 (value 2), split
    # by a valley at 0
    return math.exp(-20.0 * (p[0] + 0.5) ** 2) + 2.0 * math.exp(-20.0 * (p[0] - 0.5) ** 2)


@pytest.mark.parametrize("jump, wins", [(1.0, True), (0.0, False)], ids=["higher", "tie"])
def test_final_start_runs_after_the_drawn_starts(jump, wins):
    # Every drawn start lies in the low basin; the final start is searched
    # from the best of them moved by ``jump``: into the high basin it wins
    # as start n_starts, and back onto the low peak it ties and loses to
    # the earlier run.
    bounds = [(-1.0, 1.0)]
    objective = _rows(_two_peaks)
    seen = []

    def final_start(x):
        seen.append(x)
        return np.add(x, jump)

    stream = io.StringIO()
    res = multistart_maximize(objective, bounds, lambda r: -0.9 + 0.8 * r, n_starts=3, seed=2,
                              trace=stream, final_start=final_start)
    drawn = multistart_maximize(objective, bounds, lambda r: -0.9 + 0.8 * r, n_starts=3, seed=2)
    (last,) = maximize_starts_bfgs(objective, bounds, [np.add(drawn.x, jump)])
    assert seen == [drawn.x] and drawn.value == pytest.approx(1.0)
    assert res.n_evaluations == drawn.n_evaluations + last.n_evaluations
    if wins:
        assert (res.start_index, res.x, res.value) == (3, last.x, last.value)
        assert res.value == pytest.approx(2.0)
    else:
        assert last.value == drawn.value
        assert res == replace(drawn, n_evaluations=res.n_evaluations)
    header, *rows = [line.split(",") for line in stream.getvalue().splitlines()]
    assert header == ["start", "iteration", "objective", "x0"]
    assert len(rows) == res.n_evaluations
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
    own = [r for r in rows if r[0] == "3"]
    assert [int(r[1]) for r in own] == list(range(last.n_evaluations))
    assert own[0][3] == f"{drawn.x[0] + jump:.12g}"


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**40), ValueError),
                                         (1.5, TypeError), (2.0, TypeError),
                                         (None, TypeError), ("3", TypeError)])
def test_multistart_rejects_bad_seed_by_name(seed, error):
    with pytest.raises(error, match="seed must be a non-negative integer"):
        multistart_maximize(_rows(lambda x: x[0]), [(0.0, 1.0)], _onto([(0.0, 1.0)]),
                            n_starts=2, seed=seed)


@pytest.mark.parametrize("n_starts", [2.0, "2", None, 1.5])
def test_multistart_rejects_non_integer_n_starts_by_name(n_starts):
    with pytest.raises(TypeError, match="n_starts must be an integer of at least 1"):
        multistart_maximize(_rows(lambda x: x[0]), [(0.0, 1.0)], _onto([(0.0, 1.0)]),
                            n_starts=n_starts)


@pytest.mark.parametrize("kwargs, name", [({"n_starts": True}, "n_starts"),
                                          ({"n_starts": 2, "seed": False}, "seed")])
def test_searches_refuse_a_bool_count_or_seed_by_name(kwargs, name):
    # A bool is an int, but a flag is not a count: n_starts=True used to run
    # one start and seed=False to draw from seed 0.
    params = swap_params(get_preset("ideal")["params"])
    with pytest.raises(TypeError, match=f"^{name} must be .*, got {kwargs[name]!r}$"):
        optimize_chsh(params, **kwargs)


def _drawn_starts(monkeypatch, seed, n_starts=8):
    """The starts ``multistart_maximize`` runs on a 3-parameter box."""
    seen = []

    def record(objective, bounds, starts, trace=None):
        seen.extend(starts)
        return real(objective, bounds, starts, trace=trace)

    real = optimize.maximize_starts_bfgs
    monkeypatch.setattr(optimize, "maximize_starts_bfgs", record)
    bounds = [(-1.0, 1.0), (-2.0, 2.0), (0.0, 3.0)]
    multistart_maximize(_rows(lambda x: -x @ x), bounds, _onto(bounds), n_starts=n_starts,
                        seed=seed)
    return seen


@pytest.mark.parametrize("seed", [0, 1, 1000, 6011])
def test_multistart_starts_are_numpys_draws(monkeypatch, seed):
    # Start k > 0 is start_at of draws 3(k - 1) .. 3k - 1 of random.Random(seed).
    bounds = [(-1.0, 1.0), (-2.0, 2.0), (0.0, 3.0)]
    rng = random.Random(seed)
    want = [_onto(bounds)(np.full(3, 0.5))] + [
        _onto(bounds)(np.array([rng.random() for _ in range(3)])) for _ in range(7)]
    seen = _drawn_starts(monkeypatch, seed)
    assert len(seen) == 8
    for got, expected in zip(seen, want):
        assert got.dtype == np.float64 and np.array_equal(got, expected)


@pytest.mark.parametrize("seed, first", [
    (0, [0.6888437030500962, 1.03181761176121, 1.261714742492535]),
    (2**64 + 3, [0.8259368910944314, 1.690796586831183, 2.4888707727264494]),
], ids=["0", "2**64+3"])
def test_first_drawn_start_is_pinned(monkeypatch, seed, first):
    # A change of generator moves these literal draws.
    assert list(_drawn_starts(monkeypatch, seed, n_starts=2)[1]) == first


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**63 + 1), np.int32(7)])
def test_numpy_integers_draw_as_python_ints(monkeypatch, seed):
    numpys = _drawn_starts(monkeypatch, seed, n_starts=np.int64(8))
    monkeypatch.undo()
    pythons = _drawn_starts(monkeypatch, int(seed))
    assert all(np.array_equal(a, b) for a, b in zip(numpys, pythons, strict=True))


@pytest.mark.parametrize("n_starts", [0, -3])
def test_multistart_rejects_fewer_than_one_start(n_starts):
    with pytest.raises(ValueError, match="n_starts"):
        multistart_maximize(_rows(lambda x: x[0]), [(0.0, 1.0)], _onto([(0.0, 1.0)]),
                            n_starts=n_starts)


def test_multistart_finds_quadratic_maximum():
    bounds = [(-1.0, 1.0), (-1.0, 1.0)]
    res = multistart_maximize(_rows(lambda x: -(x[0] - 0.3) ** 2 - (x[1] + 0.1) ** 2),
                              bounds, _onto(bounds), n_starts=4, seed=0)
    assert res.x[0] == pytest.approx(0.3, abs=1e-4)
    assert res.x[1] == pytest.approx(-0.1, abs=1e-4)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert res.converged


def test_multistart_reports_best_start_convergence(monkeypatch):
    # Start 0 sits on the maximum and stays best; only start 1 converges.
    # The searches are created in start order but may finish in any order.
    real_steps = optimize.bfgs_steps
    starts = []

    def steps(*args, **kwargs):
        index = len(starts)
        starts.append(None)
        x, f, nfev, _ = yield from real_steps(*args, **kwargs)
        starts[index] = x, f, nfev, index == 1
        return starts[index]

    monkeypatch.setattr(optimize, "bfgs_steps", steps)
    res = multistart_maximize(_rows(lambda x: -(x[0] - 0.3) ** 2), [(-1.0, 1.0)],
                              _onto([(-1.0, 1.0)]), n_starts=2, seed=0, x0=(0.3,))
    assert len(starts) == 2 and starts[1][3]
    assert res.start_index == 0
    assert not res.converged


def test_multistart_is_deterministic():
    def rastrigin_like(x):
        return -(x[0] ** 2) + 0.3 * math.cos(8 * x[0])

    bounds = [(-2.0, 2.0)]
    a = multistart_maximize(_rows(rastrigin_like), bounds, _onto(bounds), n_starts=8, seed=5)
    b = multistart_maximize(_rows(rastrigin_like), bounds, _onto(bounds), n_starts=8, seed=5)
    assert a.x == b.x
    assert a.value == b.value


def test_multistart_respects_bounds():
    res = multistart_maximize(_rows(lambda x: x[0]), [(0.0, 0.5)], _onto([(0.0, 0.5)]),
                              n_starts=4, seed=1)
    assert res.x[0] <= 0.5
    assert res.value == pytest.approx(0.5, abs=1e-6)


def test_multistart_rejects_non_finite_objective():
    with pytest.raises(ValueError):
        multistart_maximize(_rows(lambda x: float("nan")), [(0.0, 1.0)], _onto([(0.0, 1.0)]),
                            n_starts=1)


@pytest.mark.parametrize("x0", [(float("nan"),), (float("inf"),)], ids=["nan", "inf"])
def test_multistart_rejects_non_finite_start(x0):
    # Refused before the objective is called.
    def objective(x):
        raise AssertionError("objective called")

    with pytest.raises(ValueError, match="every start must be finite"):
        multistart_maximize(objective, [(-1.0, 1.0)], _onto([(-1.0, 1.0)]), n_starts=1, x0=x0)


def test_maximize_rejects_a_wrong_number_of_values():
    def objective(x):
        return [0.0] * (len(x) + 1), np.zeros_like(x)

    with pytest.raises(ValueError, match="objective returned 3 values for 2 points"):
        maximize_starts_bfgs(objective, [(-1.0, 1.0)], [(0.0,), (0.5,)])


def test_multistart_trace_stream():
    stream = io.StringIO()
    multistart_maximize(_rows(lambda x: -x[0] ** 2), [(-1.0, 1.0)], _onto([(-1.0, 1.0)]),
                        n_starts=2, seed=0, trace=stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "start,iteration,objective,x0"
    assert len(lines) > 2


def _recorded(f):
    """f with a list of the points it is called at, in order."""
    calls = []

    def g(v):
        calls.append(v)
        return f(v)
    return g, calls


def test_prescan_monotone():
    # The pre-scan of monotone_threshold: the first calls are the eight
    # points of linspace(lo, hi), in order, and a scan that falls anywhere
    # by more than 1e-12 is refused after them.
    f, calls = _recorded(lambda x: x ** 3)
    monotone_threshold(f, -1.0, 1.0, xtol=0.5)
    assert calls[:optimize.PRESCAN_POINTS] == np.linspace(-1.0, 1.0, 8).tolist()
    for fall, hi in ((lambda x: math.sin(5 * x) - 0.5, 3.0), (lambda x: -x, 1.0),
                     (lambda x: x - 0.5 if x > 0.5 else -0.1 - (1e-11 if x > 0.2 else 0.0), 1.0)):
        f, calls = _recorded(fall)
        with pytest.raises(ValueError, match="monotone"):
            monotone_threshold(f, 0.0, hi, xtol=1e-3)
        assert len(calls) == optimize.PRESCAN_POINTS
    # a fall within the slack is no fall
    x = monotone_threshold(lambda x: x - 0.5 if x > 0.5 else -0.1 - (1e-13 if x > 0.2 else 0.0),
                           0.0, 1.0, xtol=1e-3)
    assert 0.5 < x <= 0.5 + 1e-3


def test_prescan_refusal_shows_the_largest_fall_and_sample():
    # The samples are k/7 below 1/2 and k/7 - 1 above it: the one fall is
    # 6/7, from 3/7 to 4/7, and the largest sample is 3/7.
    with pytest.raises(ValueError, match=r"^objective is not monotone over the bracket: it "
                       r"falls most, by 0\.857, from x = 0\.428571 to 0\.571429, and its "
                       r"largest sample is 0\.429$"):
        monotone_threshold(lambda x: x if x < 0.5 else x - 1.0, 0.0, 1.0, xtol=1e-3)


def test_bisect_threshold_root():
    x = monotone_threshold(lambda v: v - 0.3, 0.0, 1.0, xtol=1e-6)
    assert 0.3 < x <= 0.3 + 1e-6


def test_bisect_threshold_reuses_recorded_value():
    # No point is evaluated twice, pre-scan samples included.
    f, calls = _recorded(lambda v: v - 0.3)
    monotone_threshold(f, 0.0, 1.0, xtol=1e-6)
    assert len(calls) == len(set(calls))


def test_bisect_threshold_takes_known_end_values():
    # The bisection reads the bracket ends' values from the pre-scan.
    f, calls = _recorded(lambda v: v - 0.3)
    monotone_threshold(f, 0.0, 1.0, xtol=1e-3)
    assert calls.count(0.0) == 1 and calls.count(1.0) == 1


def test_bisect_threshold_requires_sign_change():
    with pytest.raises(ValueError, match="lower bracket edge"):
        monotone_threshold(lambda v: v + 1.0, 0.0, 1.0, xtol=1e-3)
    with pytest.raises(ValueError, match="no sign change"):
        monotone_threshold(lambda v: v - 5.0, 0.0, 1.0, xtol=1e-3)
    with pytest.raises(ValueError, match="no sign change"):
        monotone_threshold(lambda v: v - 1.0, 0.0, 1.0, xtol=1e-3)


def test_monotone_threshold_evaluates_only_open_midpoints():
    # After the eight samples, f is called only at the midpoints the
    # samples leave open: those strictly between the last non-positive
    # sample (2/7) and the first positive one (3/7).
    f, calls = _recorded(lambda v: v - 0.3)
    x = monotone_threshold(f, 0.0, 1.0, xtol=1e-3)
    samples = np.linspace(0.0, 1.0, 8).tolist()
    lo, hi, midpoints = 0.0, 1.0, []
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        midpoints.append(mid)
        lo, hi = (lo, mid) if mid > 0.3 else (mid, hi)
    assert len(midpoints) == 10 and x == hi
    open_midpoints = [m for m in midpoints if samples[2] < m < samples[3]]
    assert len(open_midpoints) == 7
    assert calls == samples + open_midpoints


@pytest.mark.parametrize("lo, hi, xtol", [
    (0.0, 1.0, float("nan")),
    (0.0, 1.0, float("inf")),
    (0.0, 1.0, -1e-3),
    (0.0, 1.0, 0.0),
    (1.0, 0.0, 1e-3),
    (0.5, 0.5, 1e-3),
    (float("nan"), 1.0, 1e-3),
    (0.0, float("inf"), 1e-3),
], ids=["xtol-nan", "xtol-inf", "xtol-negative", "xtol-zero", "reversed", "empty", "lo-nan",
        "hi-inf"])
def test_bisect_threshold_rejects_bad_arguments(lo, hi, xtol):
    # Rejected before any evaluation: a NaN tolerance would end the halving
    # at once and return hi, and a zero one would never end it.
    f, calls = _recorded(lambda v: v - 0.3)
    with pytest.raises(ValueError, match="bracket|xtol"):
        monotone_threshold(f, lo, hi, xtol=xtol)
    assert calls == []


def _quadratic_with_gradient(center, weights):
    center, weights = np.asarray(center), np.asarray(weights)

    def objective(x):
        return -(weights * (x - center) ** 2).sum(axis=1), -2.0 * weights * (x - center)
    return objective


def test_bfgs_maximum_inside_and_on_the_box():
    # The maximum of the second coordinate lies beyond its upper bound, so
    # the search ends on that bound with the first coordinate at its optimum.
    objective = _quadratic_with_gradient((0.3, 2.0), (1.0, 50.0))
    run, = maximize_starts_bfgs(objective, [(-1.0, 1.0), (-1.0, 1.0)], [(-0.8, 0.1)])
    assert run.converged
    assert run.x[0] == pytest.approx(0.3, abs=1e-10)
    assert run.x[1] == 1.0
    assert run.value == pytest.approx(-50.0, abs=1e-12)


def test_bfgs_converges_on_rosenbrock():
    def objective(x):
        a, b = x[:, 0], x[:, 1]
        value = -(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2)
        grad = np.stack([400.0 * a * (b - a * a) + 2.0 * (1.0 - a), -200.0 * (b - a * a)],
                        axis=1)
        return value, grad

    run, = maximize_starts_bfgs(objective, [(-math.inf, math.inf)] * 2, [(-1.2, 1.0)])
    assert run.converged
    assert run.x == pytest.approx((1.0, 1.0), abs=1e-8)
    assert run.n_evaluations < 200


def test_bfgs_lockstep_starts_match_lone_searches():
    # Each start stepped with the others ends where it ends alone: the
    # same point, value, count and flag, bit for bit.
    def objective(x):
        value = -(x[:, 0] - 0.3) ** 2 - np.sin(3.0 * x[:, 1]) - 0.1 * x[:, 0] * x[:, 1]
        grad = np.stack([-2.0 * (x[:, 0] - 0.3) - 0.1 * x[:, 1],
                         -3.0 * np.cos(3.0 * x[:, 1]) - 0.1 * x[:, 0]], axis=1)
        return value, grad

    bounds = [(-1.0, 1.0), (-2.0, 2.0)]
    starts = [(0.9, 0.4), (-0.7, 0.2), (0.0, 1.9), (0.3, -0.8)]
    runs = maximize_starts_bfgs(objective, bounds, starts)
    for i, (start, run) in enumerate(zip(starts, runs)):
        alone, = maximize_starts_bfgs(objective, bounds, [start])
        assert run == replace(alone, start_index=i)


@pytest.mark.parametrize("bad", ["value", "gradient", "shape"])
def test_bfgs_rejects_bad_objective_output(bad):
    def objective(x):
        values, grads = -(x ** 2).sum(axis=1), -2.0 * x
        if bad == "value":
            values[:] = float("nan")
        elif bad == "gradient":
            grads[:, 0] = float("inf")
        else:
            grads = grads[:, :1]
        return values, grads

    with pytest.raises(ValueError):
        maximize_starts_bfgs(objective, [(-1.0, 1.0)] * 2, [(0.5, 0.5)])
