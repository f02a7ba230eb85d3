"""Deterministic multi-start downhill-simplex maximization.

The objectives in this package (CHSH value, key rate) are smooth and low
dimensional but can have several local optima in the measurement angles, so
each search runs Nelder-Mead from a fixed number of seeded starting points
and keeps the best result.  Given the same seed the outcome is reproducible;
ties are broken by the lowest start index.

The simplex search itself (``nelder_mead``) is a NumPy port of scipy's
``scipy.optimize.minimize(method="Nelder-Mead")`` for the one configuration
used here, with the same arithmetic, so the package needs no scipy at run
time and its optima match scipy's to the last bit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptimizeResult:
    """Best point found over all starts: ``converged`` is that start's flag,
    ``n_evaluations`` counts the evaluations of every start."""

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


def nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int) -> SimplexResult:
    """Minimize ``func`` by the Nelder-Mead downhill simplex from ``x0``.

    Ported from ``_minimize_neldermead`` in scipy 1.17.1
    (scipy/optimize/_optimize.py; BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc. and 2003-2024 SciPy Developers), restricted to
    ``adaptive=False``, no bounds, the default initial simplex and no limit
    on evaluations.  The operations and their order are scipy's, so the
    result equals that of ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol,
    "maxiter": maxiter})`` bit for bit.
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

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return func(np.copy(x))

    # The bookkeeping runs on Python floats.  scipy sorts twice before the
    # first iteration; np.argsort is not stable, so the second sort can
    # reorder tied vertices and is kept, as is np.argsort itself.
    fsim = [float(f(sim[k])) for k in range(N + 1)]
    for _ in range(2):
        ind = np.array(fsim).argsort()
        sim = sim.take(ind, 0)
        fsim = [fsim[i] for i in ind.tolist()]

    iterations = 1
    while iterations < maxiter:
        f0 = fsim[0]
        if (np.abs(sim[1:] - sim[0]).max() <= xatol and
                max(abs(f0 - fk) for fk in fsim[1:]) <= fatol):
            break

        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = float(f(xr))
        doshrink = False

        if fxr < f0:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = float(f(xe))
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
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = float(f(xc))
            if fxc <= fxr:
                sim[-1] = xc
                fsim[-1] = fxc
            else:
                doshrink = True
        else:
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = float(f(xcc))
            if fxcc < fsim[-1]:
                sim[-1] = xcc
                fsim[-1] = fxcc
            else:
                doshrink = True

        if doshrink:
            for j in range(1, N + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = float(f(sim[j]))
        iterations += 1
        ind = np.array(fsim).argsort()
        sim = sim.take(ind, 0)
        fsim = [fsim[i] for i in ind.tolist()]

    return SimplexResult(x=sim[0], fun=min(fsim), nfev=nfev,
                         success=iterations < maxiter)


def multistart_maximize(objective, bounds, n_starts: int = 16, seed: int = 0,
                        x0=None, xatol: float = 1e-6, fatol: float = 1e-12,
                        trace: io.TextIOBase = None) -> OptimizeResult:
    """Maximize ``objective`` over box ``bounds`` with multi-start Nelder-Mead.

    Args:
        objective: callable on a parameter vector, returns a finite float.
        bounds: sequence of (low, high) pairs, one per parameter.
        n_starts: number of simplex restarts; start points are drawn from a
            seeded RNG, except the first which is the box center (or ``x0``).
        seed: RNG seed for the start points.
        x0: optional explicit first start.
        xatol: simplex size convergence tolerance.
        trace: optional text stream receiving a CSV trace
            (start, iteration, objective, parameters).

    Returns:
        OptimizeResult with the best point found.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    ndim = len(bounds)
    rng = np.random.default_rng(seed)
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])

    starts = []
    if x0 is not None:
        starts.append(np.asarray(x0, dtype=float))
    else:
        starts.append(0.5 * (lows + highs))
    while len(starts) < n_starts:
        starts.append(lows + rng.random(ndim) * (highs - lows))

    writer = None
    if trace is not None:
        writer = csv.writer(trace)
        writer.writerow(["start", "iteration", "objective"]
                        + [f"x{i}" for i in range(ndim)])

    def clip(x):
        return np.minimum(np.maximum(x, lows), highs)

    best = None
    total_evals = 0
    for s_idx, x_start in enumerate(starts):
        it = [0]

        def neg(x):
            xc = clip(x)
            v = float(objective(xc))
            if not math.isfinite(v):
                raise ValueError(f"objective returned non-finite value {v!r}")
            if writer is not None:
                writer.writerow([s_idx, it[0], f"{v:.12g}"]
                                + [f"{xi:.12g}" for xi in xc])
            it[0] += 1
            return -v

        res = nelder_mead(neg, x_start, xatol=xatol, fatol=fatol,
                          maxiter=2000 * ndim)
        total_evals += res.nfev
        x_best = clip(res.x)
        value = -res.fun
        if best is None or value > best.value + 1e-15:
            best = OptimizeResult(x=tuple(float(v) for v in x_best), value=float(value),
                                  start_index=s_idx, n_evaluations=total_evals,
                                  converged=bool(res.success))
    return OptimizeResult(x=best.x, value=best.value, start_index=best.start_index,
                          n_evaluations=total_evals, converged=best.converged)


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
