"""Nelder-Mead driven one point at a time: the reference the lockstep
simplex searches of ``sfgswap.optimize`` are tested against."""

import numpy as np

from sfgswap import optimize


def nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int) -> optimize.SearchResult:
    """Minimize ``func`` by the Nelder-Mead downhill simplex from ``x0``.

    Drives ``optimize.simplex_steps`` one point at a time, so the result
    equals that of ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})`` bit for
    bit.
    """
    search = optimize.simplex_steps(x0, xatol, fatol, maxiter)
    points = next(search)
    while True:
        try:
            points = search.send([float(func(np.array(x))) for x in points])
        except StopIteration as stop:
            return stop.value
