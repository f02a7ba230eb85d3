"""Nelder-Mead downhill simplex: the reference the projected BFGS searches
of ``sfgswap.optimize`` are tested against.

``simplex_steps`` is a port of scipy's ``scipy.optimize.minimize(method=
"Nelder-Mead")`` for one configuration, with the same arithmetic on Python
floats, so its optima match scipy's to the last bit; ``nelder_mead`` drives
it one point at a time, and ``maximize_starts`` runs it from several starts
in a box, as the package's CHSH, key-rate and gain searches once did.
``drive_one`` runs a search that asks for one point at a time, such as
``sfgswap.optimize.bfgs_steps``, on its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from sfgswap import optimize


@dataclass
class SimplexResult:
    """One Nelder-Mead run, in scipy's terms: the best vertex ``x``, its
    value ``fun``, the number of objective calls ``nfev``, and ``success``,
    whether the run converged before ``maxiter``."""

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


def drive(search, reply):
    """Run coroutine search ``search`` (``simplex_steps``), which yields lists
    of points, one point at a time: each point it asks for is answered by
    ``reply`` on that point alone.  Returns what the search returns."""
    points = next(search)
    while True:
        try:
            points = search.send([reply(np.array(x, dtype=float)) for x in points])
        except StopIteration as stop:
            return stop.value


def drive_one(search, reply):
    """Run coroutine search ``search`` (``optimize.bfgs_steps``), which yields
    one point at a time, alone: each point is answered by ``reply`` on it.
    Returns what the search returns."""
    x = next(search)
    while True:
        try:
            x = search.send(reply(x))
        except StopIteration as stop:
            return stop.value


def nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int) -> SimplexResult:
    """Minimize ``func`` by the Nelder-Mead downhill simplex from ``x0``.

    The result equals that of ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol,
    "maxiter": maxiter})`` bit for bit.
    """
    return drive(simplex_steps(x0, xatol, fatol, maxiter), lambda x: float(func(x)))


def maximize_starts(objective, bounds, starts, xatol: float = 1e-6,
                    fatol: float = 1e-12) -> list:
    """Maximize ``objective`` over box ``bounds`` by Nelder-Mead from each start.

    Each vertex is evaluated clipped into the box, while the simplex keeps
    the unclipped vertex.  ``objective`` takes an (m, n) array of points and
    returns their m values.  Returns one ``optimize.OptimizeResult`` per
    start, in order, with the reported point clipped into the box.
    """
    lows, highs = (np.array(edge, dtype=float) for edge in zip(*bounds))

    def value(x):
        v = float(objective(np.clip(x, lows, highs)[None])[0])
        if not math.isfinite(v):
            raise ValueError(f"objective returned non-finite value {v!r}")
        return -v

    runs = [drive(simplex_steps(x0, xatol, fatol, 2000 * len(bounds)), value) for x0 in starts]
    return [optimize.OptimizeResult(x=tuple(np.clip(res.x, lows, highs).tolist()),
                                    value=-res.fun, start_index=i, n_evaluations=res.nfev,
                                    converged=res.success)
            for i, res in enumerate(runs)]
