"""Deterministic multi-start maximization by projected BFGS.

The objectives in this package (CHSH value, key rate) are smooth and low
dimensional but can have several local optima in the measurement angles, so
each search runs from a fixed number of starting points and keeps the best
result: the highest value, the lowest start index on a tie.  Given the same
seed the outcome is reproducible.

Each objective returns its values with their exact gradients, and every
search is a projected BFGS ascent with a backtracking line search
(``bfgs_steps``), which maximizes what the objective returns; its
tolerances are the module constants ``QN_*``.  Each start is a coroutine
that asks for one point at a time, and ``maximize_starts_bfgs`` steps the
starts together, so all of them share one objective call per step and each
ends where it would end alone.  ``multistart_maximize`` runs one list of
starts, the given ones and then seeded draws, can go on from one more that
the best point maps to, keeps the best, and writes the CSV trace.
The draws come from Python's ``random.Random(seed)``, whose ``random()``
sequence for an integer seed Python keeps the same across versions.

``monotone_threshold`` finds where a nondecreasing function turns positive:
a fixed pre-scan that checks monotonicity and the sign change, then a
bisection that evaluates only the midpoints whose sign the scan leaves open.

The package needs only numpy at run time, and no request loads numpy.random.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from ._checks import POSITIVE, integer_at_least, pair, real


@dataclass(frozen=True)
class OptimizeResult:
    """Best point found from one start (``maximize_starts_bfgs``) or over all
    starts (``multistart_maximize``): ``converged`` is that start's flag,
    ``n_evaluations`` counts the evaluations of every start it covers."""

    x: tuple
    value: float
    start_index: int
    n_evaluations: int
    converged: bool


def _finite_values(values, m: int) -> list:
    """The objective's m values as Python floats, each checked finite."""
    values = list(map(float, values))
    if len(values) != m:
        raise ValueError(f"objective returned {len(values)} values for {m} points")
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"objective returned non-finite value {bad!r}")
    return values


# Projected BFGS (``bfgs_steps``).  A search has converged when no component
# of its projected gradient exceeds QN_GTOL.  A trial step is accepted by the
# Armijo test with constant QN_ARMIJO when it changes the objective by more
# than QN_FNOISE * max(1, |f|); a smaller change is rounding noise (the CHSH
# value sits near 2 while its structure below the threshold is of order
# 1e-8), and the step is then judged by the slope at the trial point, the
# approximate Wolfe test of Hager and Zhang (SIAM J. Optim. 16, 170 (2005)),
# which is the Armijo test for a quadratic.  A search gives up when
# QN_MAX_BACKTRACKS halvings of a steepest-ascent step find no acceptable
# point, or after QN_MAXITER accepted steps.  A steepest-ascent step first
# moves no parameter by more than QN_FIRST_STEP.
QN_GTOL = 1e-10
QN_ARMIJO = 1e-4
QN_FNOISE = 1e-13
QN_MAX_BACKTRACKS = 40
QN_MAXITER = 1000
QN_FIRST_STEP = 0.1


def bfgs_steps(x0, lows, highs):
    """Projected BFGS with a backtracking line search, maximizing over the
    box [lows, highs], as a coroutine.

    Each step yields one point and is sent (f, g), the objective and its
    gradient there.  A parameter at a bound whose ascent direction points
    out of the box is held; the quasi-Newton direction moves the
    others, and each trial point is projected into the box.  When a
    quasi-Newton direction goes downhill or its line search fails, the
    search restarts from the steepest ascent.  Returns (x, f, evaluations,
    converged): the last accepted point, its objective, the number of points
    evaluated, and whether the projected gradient fell to QN_GTOL.
    """
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lows), highs)
    f, g = yield x
    nfev, iterations = 1, 0
    h = None  # inverse Hessian estimate; None until the first curvature pair
    while iterations < QN_MAXITER:
        held = np.where(g < 0.0, x <= lows, x >= highs)
        pg = np.where(held, 0.0, g)
        if abs(pg).max() <= QN_GTOL:
            return x, f, nfev, True
        d = None if h is None else np.where(held, 0.0, h @ pg)
        if d is None or g @ d <= 0.0:
            h, d = None, pg
        step = 1.0 if h is not None else min(1.0, QN_FIRST_STEP / abs(d).max())
        band = QN_FNOISE * max(1.0, abs(f))
        for _ in range(QN_MAX_BACKTRACKS):
            xn = np.minimum(np.maximum(x + step * d, lows), highs)
            fn, gn = yield xn
            nfev += 1
            s = xn - x
            slope = g @ s
            if slope > 0.0 and (fn >= f + QN_ARMIJO * slope if abs(fn - f) > band
                                else gn @ s >= (2.0 * QN_ARMIJO - 1.0) * slope):
                break
            step *= 0.5
        else:
            if h is None:
                return x, f, nfev, False
            h = None  # retry along the steepest ascent
            continue
        # held parameters did not move: their gradient change says nothing
        # about the curvature the free ones see
        y = np.where(held, 0.0, g - gn)
        sy, yy = s @ y, y @ y
        if sy > 1e-12 * yy:
            if h is None:
                h = np.eye(len(x)) * (sy / yy)
            # BFGS: h + (1 + y.hy / sy) s s' / sy - (hy s' + s hy') / sy, as
            # the symmetric rank-two update a b' + b a'
            hy = h @ y
            a = s / sy
            b = (0.5 * (1.0 + (y @ hy) / sy)) * s - hy
            ab = np.multiply.outer(a, b)
            h = h + ab + ab.T
        x, f, g, iterations = xn, fn, gn, iterations + 1
    return x, f, nfev, False


def maximize_starts_bfgs(objective, bounds, starts, trace: list = None) -> list:
    """Maximize ``objective`` over box ``bounds`` by projected BFGS
    (``bfgs_steps``) from each start.

    The starts step together: each search is a coroutine that asks for one
    point at a time, and at each step the pending point of every unfinished
    search is passed to the objective as one row of an (m, n) array, so a
    vectorized objective serves them in one call, and each search is sent
    its own row's reply.  A search's own arithmetic never sees the others,
    so each ends where it would end alone.

    Args:
        objective: callable on an (m, n) array of points, returns their m
            values and their (m, n) gradients, all finite.
        bounds: sequence of (low, high) pairs, one per parameter; a pair
            may be infinite.
        starts: the starting points.
        trace: optional list receiving one row (start, value, point) per
            evaluation, in the order evaluated: the index of the start in
            ``starts``, the objective, and the point as a list of floats.

    Returns:
        One OptimizeResult per start, in order, each with that start's own
        evaluation count (one value with its gradient per evaluation).
    """
    lows, highs = np.array(bounds, dtype=float).T
    searches = [bfgs_steps(x0, lows, highs) for x0 in starts]
    pending = {i: next(search) for i, search in enumerate(searches)}
    runs = [None] * len(searches)
    while pending:
        x = np.array(list(pending.values()))
        values, grads = objective(x)
        values = _finite_values(values, len(x))
        grads = np.asarray(grads, dtype=float)
        if grads.shape != x.shape or not np.isfinite(grads).all():
            raise ValueError("objective returned a gradient of the wrong shape or non-finite")
        if trace is not None:
            trace.extend(zip(pending, values, x.tolist()))
        for i, reply in zip(list(pending), zip(values, grads)):
            try:
                pending[i] = searches[i].send(reply)
            except StopIteration as stop:
                runs[i] = stop.value
                del pending[i]
    return [OptimizeResult(x=tuple(x.tolist()), value=f, start_index=i,
                           n_evaluations=nfev, converged=converged)
            for i, (x, f, nfev, converged) in enumerate(runs)]


def multistart_maximize(objective, bounds, start_at, n_starts: int = 16, seed: int = 0,
                        starts=(), trace: io.TextIOBase = None, final_start=None) -> OptimizeResult:
    """Maximize ``objective`` over box ``bounds`` with multi-start projected BFGS.

    Args:
        objective: callable on an (m, n) array of points, returns their m
            values and (m, n) gradients (see ``maximize_starts_bfgs``).
        bounds: sequence of (low, high) pairs, one per parameter, the box
            the search is held in; a pair may be infinite.
        start_at: map from the unit cube [0, 1)^n to starting points, which
            sets how the starts are spread: over a finite box, the affine
            map onto it; over periodic parameters left unbounded, one
            period of each.  It is called only for a start not given.
        n_starts: number of starts, an integer of at least 1.  The given
            ``starts`` come first; with none given, start 0 is ``start_at``
            at the cube's center.  Each further start up to ``n_starts`` is
            ``start_at(r)`` at the point r of the unit cube whose n
            coordinates are the next n draws of ``random.Random(seed)``.
            The generator is created, and ``seed`` checked, only when a
            start is drawn; more given starts than ``n_starts`` are all
            searched.
        seed: non-negative integer seed for the start points.
        starts: the given starts, searched first and in order.  Every
            start, given or drawn, must have one coordinate per bound and be
            finite; both are checked before the objective is called.
        trace: optional text stream receiving a CSV trace (start, iteration,
            objective, parameters): one header, then a row per evaluation,
            grouped by start in start order.
        final_start: optional map from the best point of the starts above
            to one more start, searched after them as the last start.

    Returns:
        OptimizeResult of the best start (the highest value, the first of
        them on a tie, the final start last), with the evaluations of every
        start.
    """
    n_starts = integer_at_least(n_starts, 1, "n_starts must be an integer of at least 1")
    n = len(bounds)
    starts = [np.asarray(x, dtype=float) for x in starts] or [start_at(np.full(n, 0.5))]
    if n_starts > len(starts):
        rng = random.Random(integer_at_least(seed, 0, "seed must be a non-negative integer"))
        starts += [start_at(np.array([rng.random() for _ in range(n)]))
                   for _ in range(len(starts), n_starts)]
    for x in starts:
        if x.shape != (n,):
            raise ValueError(f"every start must have {n} coordinates, one per bound, got {x.size}")
    if not np.isfinite(starts).all():
        raise ValueError("every start must be finite")
    rows = None if trace is None else []
    by_value = operator.attrgetter("value")
    runs = maximize_starts_bfgs(objective, bounds, starts, trace=rows)
    if final_start is not None:
        last = None if trace is None else []
        (run,) = maximize_starts_bfgs(objective, bounds, [final_start(max(runs, key=by_value).x)],
                                      trace=last)
        runs = runs + [replace(run, start_index=len(starts))]
        if trace is not None:
            rows += [(len(starts), v, x) for _, v, x in last]
    if trace is not None:
        writer = csv.writer(trace)
        writer.writerow(["start", "iteration", "objective"] + [f"x{i}" for i in range(n)])
        by_start = operator.itemgetter(0)
        for start, own in itertools.groupby(sorted(rows, key=by_start), by_start):
            for it, (_, v, x) in enumerate(own):
                writer.writerow([start, it, f"{v:.12g}"] + [f"{xi:.12g}" for xi in x])
    return replace(max(runs, key=by_value), n_evaluations=sum(res.n_evaluations for res in runs))


# Samples of the monotone pre-scan of ``monotone_threshold``, lo and hi included.
PRESCAN_POINTS = 8


def monotone_threshold(f, lo: float, hi: float, xtol: float) -> float:
    """Smallest x in [lo, hi] with f(x) > 0, to within ``xtol``, for f
    nondecreasing with f(lo) <= 0 < f(hi).

    f is first sampled, in order, at the PRESCAN_POINTS points of
    ``np.linspace(lo, hi, PRESCAN_POINTS)``; a scan that falls anywhere by
    more than 1e-12 (reported with its largest fall and sample), or whose
    ends show no sign change, is refused.  Then [lo, hi] is halved down to
    ``xtol``.  A midpoint at or above the first positive sample after the
    last non-positive one is positive, and one at or below that non-positive
    sample is not; f is evaluated only at the midpoints between the two, so
    no point is evaluated twice.  Returns the upper end of the final
    bracket.  The bracket must be finite with lo < hi, and ``xtol`` finite
    and positive, or the halving would never stop; both are checked before f
    is called.
    """
    pair("bracket", (lo, hi), lambda lo, hi: -math.inf < lo < hi < math.inf, "finite with lo < hi")
    real("xtol", xtol, *POSITIVE)
    xs = np.linspace(lo, hi, PRESCAN_POINTS)
    ys = [f(x) for x in xs]
    if not all(ys[i + 1] >= ys[i] - 1e-12 for i in range(PRESCAN_POINTS - 1)):
        i = max(range(PRESCAN_POINTS - 1), key=lambda k: ys[k] - ys[k + 1])
        raise ValueError(f"objective is not monotone over the bracket: it falls most, by "
                         f"{ys[i] - ys[i + 1]:.3g}, from x = {xs[i]:.6g} to {xs[i + 1]:.6g}, "
                         f"and its largest sample is {max(ys):.3g}")
    if ys[0] > 0.0:
        raise ValueError("objective already positive at the lower bracket edge")
    if ys[-1] <= 0.0:
        raise ValueError("no sign change in bracket")
    k = max(i for i, y in enumerate(ys) if y <= 0.0)
    below, above = xs[k], xs[k + 1]
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid >= above or (mid > below and f(mid) > 0.0):
            hi = mid
        else:
            lo = mid
    return hi
