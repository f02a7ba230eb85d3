"""Deterministic multi-start downhill-simplex maximization.

The objectives in this package (CHSH value, key rate) are smooth and low
dimensional but can have several local optima in the measurement angles, so
each search runs Nelder-Mead from a fixed number of seeded starting points
and keeps the best result.  Given the same seed the outcome is reproducible;
ties are broken by the lowest start index.

The simplex search itself (``simplex_steps``) is a port of scipy's
``scipy.optimize.minimize(method="Nelder-Mead")`` for the one configuration
used here, with the same arithmetic on Python floats, so the package needs
no scipy at run time and its optima match scipy's to the last bit.  It is a
coroutine that asks for the points it needs, so ``maximize_starts`` can step
all starts of a search together and evaluate their points in one objective
call.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class OptimizeResult:
    """Best point found from one start (``maximize_starts``) or over all starts
    (``multistart_maximize``): ``converged`` is that start's flag,
    ``n_evaluations`` counts the evaluations of every start it covers."""

    x: tuple
    value: float
    start_index: int
    n_evaluations: int
    converged: bool


@dataclass
class SimplexResult:
    """One simplex run: the best vertex ``x``, its value ``fun``, the number
    of objective calls ``nfev``, and ``success``, whether the tolerances
    were met within ``maxiter`` iterations."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


def simplex_steps(x0, xatol: float, fatol: float, maxiter: int):
    """Nelder-Mead downhill simplex from ``x0``, minimizing, as a coroutine.

    Each step yields a list of the k points it needs, each a list of n
    floats: the initial simplex, one trial point, or the n new vertices of a
    shrink.  It is then sent the k objective values as a list of floats.
    When the search ends it returns a ``SimplexResult``.

    Ported from ``_minimize_neldermead`` in scipy 1.17.1
    (scipy/optimize/_optimize.py; BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc. and 2003-2024 SciPy Developers), restricted to
    ``adaptive=False``, no bounds, the default initial simplex and no limit
    on evaluations.  The operations and their order are scipy's; a shrink
    asks for its vertices together, which for an objective without side
    effects is the same as scipy's one at a time.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    x0 = np.asarray(x0, dtype=float).ravel()
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y

    # The bookkeeping runs on Python floats: each vertex is a list, and each
    # vector operation is scipy's elementwise one, in the same order, so the
    # results are the same to the last bit.  scipy sorts twice before the
    # first iteration; np.argsort is not stable, so the second sort can
    # reorder tied vertices and is kept, as is np.argsort itself.
    sim = sim.tolist()
    fsim = yield sim
    nfev = N + 1
    for _ in range(2):
        ind = np.array(fsim).argsort().tolist()
        sim = [sim[i] for i in ind]
        fsim = [fsim[i] for i in ind]

    iterations = 1
    while iterations < maxiter:
        f0 = fsim[0]
        best = sim[0]
        # scipy's two maxima within tolerance, the cheaper one tested first
        if (all(abs(f0 - fk) <= fatol for fk in fsim[1:])
                and all(abs(v - b) <= xatol for vertex in sim[1:] for v, b in zip(vertex, best))):
            break

        # np.add.reduce(sim[:-1], 0) adds the vertices one after another
        total = best
        for vertex in sim[1:-1]:
            total = [t + v for t, v in zip(total, vertex)]
        xbar = [t / N for t in total]
        worst = sim[-1]
        xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
        fxr, = yield [xr]
        nfev += 1
        doshrink = False

        if fxr < f0:
            xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
            fxe, = yield [xe]
            nfev += 1
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        elif fxr < fsim[-1]:
            xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
            fxc, = yield [xc]
            nfev += 1
            if fxc <= fxr:
                sim[-1] = xc
                fsim[-1] = fxc
            else:
                doshrink = True
        else:
            xcc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
            fxcc, = yield [xcc]
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1] = xcc
                fsim[-1] = fxcc
            else:
                doshrink = True

        if doshrink:
            sim[1:] = [[b + sigma * (v - b) for b, v in zip(best, vertex)]
                       for vertex in sim[1:]]
            fsim[1:] = yield sim[1:]
            nfev += N
        iterations += 1
        ind = np.array(fsim).argsort().tolist()
        sim = [sim[i] for i in ind]
        fsim = [fsim[i] for i in ind]

    return SimplexResult(x=np.array(sim[0]), fun=min(fsim), nfev=nfev,
                         success=iterations < maxiter)


def nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int) -> SimplexResult:
    """Minimize ``func`` by the Nelder-Mead downhill simplex from ``x0``.

    Drives ``simplex_steps`` one point at a time, so the result equals that
    of ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})`` bit for
    bit.
    """
    search = simplex_steps(x0, xatol, fatol, maxiter)
    points = next(search)
    while True:
        try:
            points = search.send([float(func(np.array(x))) for x in points])
        except StopIteration as stop:
            return stop.value


def maximize_starts(objective, bounds, starts, xatol: float = 1e-6, fatol: float = 1e-12,
                    trace: io.TextIOBase = None) -> list:
    """Maximize ``objective`` over box ``bounds`` by Nelder-Mead from each start.

    The starts run in lockstep: at each step the points that every unfinished
    search needs are clipped into the box and passed to the objective as one
    (m, n) array, so a vectorized objective serves them in one call.  Each
    search is the same as it would be alone.

    Args:
        objective: callable on an (m, n) array of points, returns their m
            values, each a finite float.
        bounds: sequence of (low, high) pairs, one per parameter.
        starts: the starting points.
        xatol, fatol: simplex size and value convergence tolerances.
        trace: optional text stream receiving a CSV trace (start, iteration,
            objective, parameters), with rows grouped by start in start order.

    Returns:
        One OptimizeResult per start, in order, each with that start's own
        evaluation count.
    """
    # (1, n), so that clipping a lone point broadcasts nothing
    lows = np.array([[float(lo) for lo, _ in bounds]])
    highs = np.array([[float(hi) for _, hi in bounds]])
    ndim = len(bounds)
    searches = [simplex_steps(x0, xatol, fatol, 2000 * ndim) for x0 in starts]
    pending = [next(search) for search in searches]
    active = list(range(len(starts)))
    rows = [[] for _ in starts]
    results = [None] * len(starts)
    while active:
        x = np.array(pending[active[0]] if len(active) == 1
                     else [p for i in active for p in pending[i]])
        x = np.minimum(np.maximum(x, lows), highs)
        values = list(map(float, objective(x)))
        if len(values) != len(x):
            raise ValueError(f"objective returned {len(values)} values for {len(x)} points")
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(f"objective returned non-finite value {bad!r}")
        if trace is not None:
            points = x.tolist()
        k = 0
        finished = False
        for i in active:
            n = len(pending[i])
            if trace is not None:
                rows[i].extend(zip(values[k:k + n], points[k:k + n]))
            try:
                pending[i] = searches[i].send(list(map(operator.neg, values[k:k + n])))
            except StopIteration as stop:
                res = stop.value
                finished = True
                pending[i] = None
                results[i] = OptimizeResult(
                    x=tuple(np.minimum(np.maximum(res.x, lows[0]), highs[0]).tolist()),
                    value=-res.fun, start_index=i, n_evaluations=res.nfev,
                    converged=res.success)
            k += n
        if finished:
            active = [i for i in active if pending[i] is not None]
    if trace is not None:
        writer = csv.writer(trace)
        writer.writerow(["start", "iteration", "objective"]
                        + [f"x{i}" for i in range(ndim)])
        for i, start_rows in enumerate(rows):
            for it, (v, xc) in enumerate(start_rows):
                writer.writerow([i, it, f"{v:.12g}"] + [f"{xi:.12g}" for xi in xc])
    return results


def multistart_maximize(objective, bounds, n_starts: int = 16, seed: int = 0,
                        x0=None, xatol: float = 1e-6, fatol: float = 1e-12,
                        trace: io.TextIOBase = None) -> OptimizeResult:
    """Maximize ``objective`` over box ``bounds`` with multi-start Nelder-Mead.

    Args:
        objective: callable on an (m, n) array of points, returns their m
            values (see ``maximize_starts``).
        bounds: sequence of (low, high) pairs, one per parameter.
        n_starts: number of simplex starts, at least 1; start points are
            drawn from a seeded RNG, except the first which is the box center
            (or ``x0``).  The RNG is created only when a start is drawn.
        seed: RNG seed for the start points.
        x0: optional explicit first start.
        xatol: simplex size convergence tolerance.
        trace: optional text stream receiving a CSV trace
            (start, iteration, objective, parameters).

    Returns:
        OptimizeResult with the best point found.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    lows = np.array([float(lo) for lo, _ in bounds])
    highs = np.array([float(hi) for _, hi in bounds])
    starts = [0.5 * (lows + highs) if x0 is None else np.asarray(x0, dtype=float)]
    if n_starts > 1:
        rng = np.random.default_rng(seed)
        starts += [lows + rng.random(len(lows)) * (highs - lows) for _ in range(1, n_starts)]
    runs = maximize_starts(objective, bounds, starts, xatol=xatol, fatol=fatol, trace=trace)
    best = runs[0]
    for res in runs[1:]:
        if res.value > best.value + 1e-15:
            best = res
    return replace(best, n_evaluations=sum(res.n_evaluations for res in runs))


def prescan_monotone(f, lo: float, hi: float, n: int = 8, increasing: bool = None,
                     values: list = None) -> bool:
    """Coarse monotonicity check of f on [lo, hi] over n sample points; the
    list ``values``, if given, receives f at the points, lo and hi included."""
    xs = np.linspace(lo, hi, n)
    ys = [f(x) for x in xs]
    if values is not None:
        values.extend(ys)
    inc = all(ys[i + 1] >= ys[i] - 1e-12 for i in range(n - 1))
    dec = all(ys[i + 1] <= ys[i] + 1e-12 for i in range(n - 1))
    if increasing is True:
        return inc
    if increasing is False:
        return dec
    return inc or dec


def bisect_threshold(f, lo: float, hi: float, xtol: float, rtol: float = 0.0,
                     f_lo: float = None, f_hi: float = None):
    """Smallest x in [lo, hi] with f(x) > 0, assuming f is nondecreasing.

    Requires a sign change: f(lo) <= 0 < f(hi).  ``f_lo`` and ``f_hi`` are
    those values when the caller already has them.  Returns (x, f(x)).
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo > 0.0:
        raise ValueError("objective already positive at the lower bracket edge")
    if f_hi <= 0.0:
        raise ValueError("no sign change in bracket")
    while (hi - lo) > xtol + rtol * hi:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid > 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    return hi, f_hi
