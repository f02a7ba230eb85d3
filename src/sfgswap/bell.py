"""CHSH correlations on heralded states and Devetak-Winter key rates with
threshold searches.

Measurements are threshold analyzers: each party sees one of four click
patterns per trial (only the first detector, only the second, both,
neither).  The outcome is -1 when only the first (H-arm) detector clicks
and +1 otherwise, the assignment of Eberhard's 2/3 efficiency limit (PRA
47, R747 (1993)).  No postselection is applied; every heralded trial
contributes to the correlators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._checks import POSITIVE, pair, real
from .detection import (
    analyzer_coefficients,
    arm_click_probs,
    trig_basis_and_derivative,
)
from .optimize import monotone_threshold, multistart_maximize
from .protocols import ExperimentParams, HeraldedEntries, _source_mu, heralded_entries

@functools.lru_cache(maxsize=256)
def _outcome_coefficients(eta_first: float, eta_second: float, n: int):
    """Trig-polynomial coefficients C[t, N, a, a'] (``detection.analyzer_coefficients``)
    of a party's +/-1 analyzer operator, from its mean outcome o[N, a] with N
    photons, a in the first arm: -1 when only the first detector clicks, +1
    on the other three patterns.  Cached and read-only, as searches reuse a few."""
    p_first, p_second = arm_click_probs(eta_first, eta_second, n)
    q_first, q_second = 1.0 - p_first, 1.0 - p_second
    o = (-p_first * q_second + q_first * p_second
         + p_first * p_second + q_first * q_second)
    c = analyzer_coefficients(o)
    c.setflags(write=False)
    return c


def _wrap_angle(theta: float) -> float:
    # analyzer angles have period pi; canonical range [-pi/2, pi/2)
    return (theta + math.pi / 2) % math.pi - math.pi / 2


@dataclass(frozen=True)
class BellSettings:
    """Analyzer angles of the CHSH test, wrapped into [-pi/2, pi/2).

    theta_a0 is the optional key-generation basis of the first party.
    """

    theta_a1: float
    theta_a2: float
    theta_b1: float
    theta_b2: float
    theta_a0: float = None

    def __post_init__(self):
        for name, theta in vars(self).items():
            if theta is not None or name != "theta_a0":  # theta_a0 alone is optional
                object.__setattr__(self, name, _wrap_angle(theta))


# The pump Jacobian d mu_k / d y_j of a search at fixed source strengths.
_FIXED_PUMP = np.zeros((4, 0))
_FIXED_PUMP.setflags(write=False)


class SearchKernel:
    """Normalized CHSH correlators of one heralded state, precomputed for a search.

    Each party's analyzer operator is a trig polynomial in its angle
    (``_outcome_coefficients``), gathered at the state's nonzero entries
    (``protocols.HeraldedEntries``), whose weights at new source strengths
    the swaps read too (``HeraldedEntries.state``), with the photon herald
    scaled by ``gain``; so an evaluation at new angles and source strengths
    is a few small array operations.  The correlators are read through the
    analyzer efficiencies (``eta_1h`` to ``eta_2v``) of ``analyzer`` and
    divided by the trace of the state.
    """

    def __init__(self, entries: HeraldedEntries, analyzer: ExperimentParams, gain: float = 1.0):
        real("gain", gain, *POSITIVE)
        N, a, a2, M, b, b2 = entries.index
        n = entries.n
        self._ca = _outcome_coefficients(analyzer.eta_1h, analyzer.eta_1v, n)[:, N, a, a2]
        self._cb = _outcome_coefficients(analyzer.eta_2h, analyzer.eta_2v, n)[:, M, b, b2]
        self._entries = replace(entries, sfg=gain * entries.sfg)
        self._n = n
        self._powers = entries.powers.astype(float)

    def correlator_gradients(self, thetas_a, thetas_b, mu, dmu=_FIXED_PUMP):
        """E[p, q] at analyzer angles thetas_a[p] and thetas_b[q] and the mean
        photon numbers ``mu`` of the modes (1H, 1V, 2H, 2V), read from the
        state there (``HeraldedEntries.state``), with its exact derivatives.

        Returns (E, dE_a, dE_b, dE_y): dE_a[p, q] is the derivative of
        E[p, q] in thetas_a[p] and dE_b[p, q] in thetas_b[q] (E[p, q] does not
        depend on the other angles), and dE_y[j, p, q] in a search's pump
        coordinate y_j, given its Jacobian dmu[k, j] = d mu_k / d y_j (by
        default none).  An angle derivative is the same trig polynomial in
        the derivative basis (``trig_basis_and_derivative``).  A source
        strength scales entry e by gamma ** powers, so d rho_e / d y_j =
        rho_e w[j, e], w[j, e] = sum_k dmu[k, j] powers[k, e] / (2 mu_k (1 +
        mu_k)), and the trace follows by the quotient rule.  One product
        serves every numerator: party a's rows (each angle's operator and its
        derivative, then the operators times each w[j]) against party b's
        (operator, derivative).  Stacked angles, of shape (m, p) and (m, q),
        with ``mu`` of shape (m, 4) or (4,) and ``dmu`` of shape (m, 4, J) or
        (4, J) stack every output, each point as it is alone."""
        mu = np.asarray(mu, dtype=float)
        rho, total = self._entries.state(mu)
        thetas_a = np.asarray(thetas_a, dtype=float)
        rows = trig_basis_and_derivative(np.concatenate((thetas_a, thetas_b), axis=-1), self._n)
        rows = rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1]))
        n_a = 2 * thetas_a.shape[-1]
        ops_a = rows[..., :n_a, :] @ self._ca
        ops_b = rows[..., n_a:, :] @ self._cb
        # with no pump coordinate nothing is divided, so no mu can overflow here
        w = (dmu / (2.0 * mu * (1.0 + mu))[..., None] if dmu.shape[-1] else dmu)
        w = w.swapaxes(-1, -2) @ self._powers
        n_y, n_e = w.shape[-2:]
        by_pump = ops_a[..., None, ::2, :] * w[..., None, :]
        ops_a = np.concatenate(
            (ops_a, by_pump.reshape(by_pump.shape[:-3] + (n_y * n_a // 2, n_e))), axis=-2)
        m = (ops_a * rho[..., None, :]) @ ops_b.swapaxes(-1, -2) / total[..., None, None]
        e = m[..., :n_a:2, ::2]
        de_a = m[..., 1:n_a:2, ::2]
        de_b = m[..., :n_a:2, 1::2]
        # summed along the entries as in ``HeraldedEntries.state``, so a stack
        # sums each point in the same order as that point alone
        d = self._entries.n_diagonal
        dtotal = (rho[..., None, :d] * w[..., :d]).sum(axis=-1) / total[..., None]
        num = m[..., n_a:, ::2].reshape(m.shape[:-2] + (n_y,) + e.shape[-2:])
        de_y = num - e[..., None, :, :] * dtotal[..., None, None]
        return e, de_a, de_b, de_y


def _qber(e: float) -> float:
    # +/-1 outcomes, no postselection; rounding can leave E an ulp outside [-1, 1].
    return min(1.0, max(0.0, (1.0 - float(e)) / 2.0))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary_entropy argument must be in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def holevo_chsh(s: float) -> float:
    """Eavesdropper information bound chi(S) = h[(1 + sqrt((S/2)^2 - 1))/2].

    Below S = 2 there is no Bell violation and chi is 1; slightly above the
    Tsirelson bound (numerical noise) the square root is clamped at 1.
    """
    if s < 2.0:
        return 1.0
    arg = (s / 2.0) ** 2 - 1.0
    root = math.sqrt(min(arg, 1.0))
    return binary_entropy((1.0 + root) / 2.0)


def dw_key_rate(s: float, q: float) -> float:
    """Devetak-Winter asymptotic key-rate lower bound r = 1 - h(Q) - chi(S)."""
    return 1.0 - binary_entropy(q) - holevo_chsh(s)


def dw_key_rate_slopes(s: float, q: float) -> tuple:
    """Derivatives (dr/dS, dr/dQ) of ``dw_key_rate``, each finite.

    dr/dS = -chi'(S) = S atanh(root) / (4 ln 2 root), with root =
    sqrt((S/2)^2 - 1), and dr/dQ = -h'(Q) = log2(Q / (1 - Q)).  Where a
    clamp holds the rate flat, the slope is that of the flat side: zero for
    S < 2 (chi = 1), for a root clamped at 1 (at and above 2 sqrt 2), and
    for Q = 0 (or 1, where h is pinned to 0).  At S = 2 it is the limit
    from above, S / (4 ln 2).
    """
    dr_ds = 0.0
    if s >= 2.0:
        root = math.sqrt(min((s / 2.0) ** 2 - 1.0, 1.0))
        if root < 1.0:
            dr_ds = s / (4.0 * math.log(2.0)) * (math.atanh(root) / root if root > 0.0 else 1.0)
    dr_dq = math.log2(q / (1.0 - q)) if 0.0 < q < 1.0 else 0.0
    return dr_ds, dr_dq


CANONICAL_X0 = (0.0, math.pi / 4, -math.pi / 8, math.pi / 8)


@dataclass(frozen=True)
class ChshOptimum:
    """Result of a CHSH (or key-rate) optimization."""

    value: float
    settings: BellSettings
    mu_h: float = None
    mu_v: float = None
    s: float = None
    q: float = None
    n_evaluations: int = 0
    converged: bool = False
    start_index: int = 0


# A search leaves the analyzer angles unbounded: every CHSH value has
# period pi in each angle, and a box edge at +/-pi/2 would only add corners
# where a search stops short of an optimum across the edge.
_FREE_ANGLES = [(-math.inf, math.inf)] * 4

# The pump-strength box (lo, hi) of a free-mu CHSH search, the pump strength
# of the efficiency-threshold margin, and the seed of the gain-threshold ones.
MU_BOUNDS = (1e-6, 0.4)
MU_FLOOR = 2e-3
GAIN_SEED = 0


def _angle_start(r):
    """Analyzer angles uniform in [-pi/2, pi/2) from a point r of the unit
    cube, the random starts of a search (``optimize.multistart_maximize``)."""
    return -math.pi / 2 + r * math.pi


# The signs of E[p, q] in the CHSH value E11 + E21 + E12 - E22.
_CHSH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])


def _chsh_gradient(e, de_a, de_b, de_y):
    """S = E11 + E21 + E12 - E22 at stacked points and its derivatives, from
    ``SearchKernel.correlator_gradients``; rows of party a past the first
    two are not part of S.

    Returns (S, dS): dS[m] lists the derivatives in the pump coordinates
    y_j, then in thetas_a[p] (p < 2), then in thetas_b[q].
    """
    s = e[:, 0, 0] + e[:, 1, 0] + e[:, 0, 1] - e[:, 1, 1]
    return s, np.concatenate(((de_y[:, :, :2] * _CHSH_SIGNS).sum(axis=(2, 3)),
                              (de_a[:, :2] * _CHSH_SIGNS).sum(axis=2),
                              (de_b[:, :2] * _CHSH_SIGNS).sum(axis=1)), axis=1)


def _s_and_q(e, de_a, de_b, de_y):
    """S (``_chsh_gradient``) and the raw QBER Q = (1 - E[a0, b1]) / 2 at
    stacked points, each a list of floats, and dS; party a's third row is
    its key angle a0."""
    s, ds = _chsh_gradient(e, de_a, de_b, de_y)
    return s.tolist(), [_qber(v) for v in e[:, 2, 0].tolist()], ds


def _key_rate_gradient(e, de_a, de_b, de_y):
    """r = ``dw_key_rate(S, Q)`` at stacked points (a0, a1, a2, b1, b2) and
    its gradient dr = dr/dS dS + dr/dQ dQ (``dw_key_rate_slopes``), from
    ``SearchKernel.correlator_gradients`` with party a's rows (a1, a2, a0)
    (``_s_and_q``)."""
    s, qs, ds = _s_and_q(e, de_a, de_b, de_y)
    slopes = np.array([dw_key_rate_slopes(*p) for p in zip(s, qs)])
    # where Q is clamped at 0 or 1, dr/dQ is zero
    dr_de = -0.5 * slopes[:, 1]
    grad = np.empty((len(s), 5))
    grad[:, 0] = dr_de * de_a[:, 2, 0]
    grad[:, 1:] = slopes[:, :1] * ds
    grad[:, 3] += dr_de * de_b[:, 2, 0]
    return [dw_key_rate(*p) for p in zip(s, qs)], grad


def _search_objective(kernel: SearchKernel, pump, target):
    """The objective of every Bell search: ``target`` read from ``kernel``
    at points x = (y, a0, a1, a2, b1, b2), where the target is
    ``_chsh_gradient`` (S and its gradient) or ``_key_rate_gradient`` (r and
    its gradient), or ``_s_and_q`` to read S and Q.  ``pump`` maps a point
    to the source strengths mu (1H, 1V, 2H, 2V) and their Jacobian
    d mu_k / d y_j in its first J coordinates y
    (``SearchKernel.correlator_gradients``).  Only a key-rate point has the
    key angle a0; party a's rows go to the kernel as (a1, a2, a0)."""
    def objective(x):
        mu, dmu = pump(x)
        thetas_a = np.concatenate((x[:, -4:-2], x[:, dmu.shape[-1]:-4]), axis=1)
        return target(*kernel.correlator_gradients(thetas_a, x[:, -2:], mu, dmu))

    return objective


def _fixed_pump(mu):
    """The pump of a search at the fixed source strengths ``mu``: no coordinate."""
    return lambda x: (mu, _FIXED_PUMP)


# d mu_k / d mu_P of the pump strengths (mu_H, mu_V) that both sources share.
_SHARED_PUMP = np.eye(2)[[0, 1, 0, 1]]


def _free_mu_pump(x):
    """The source strengths at the first coordinates y = (ln mu_H, ln mu_V)
    of a point x, shared by both sources, and their Jacobian."""
    mu = np.exp(x[:, :2]) @ _SHARED_PUMP.T
    return mu, mu[..., None] * _SHARED_PUMP


def optimize_chsh(params: ExperimentParams, free_mu: bool = False, gain: float = 1.0,
                  seed: int = 0, n_starts: int = 16, x0=None, trace=None) -> ChshOptimum:
    """Maximize the CHSH value over analyzer angles (and optionally the
    mean photon numbers of the sources) on the |A>-heralded state, read
    through the analyzer efficiencies of ``params``.

    The heralded entries are gathered once, and each evaluation rescales
    them by the source amplitudes: those of ``params``, or with
    ``free_mu`` two pump strengths varied per polarization within
    ``MU_BOUNDS`` and shared between the sources (``_free_mu_pump``).  The
    search is ``optimize.multistart_maximize`` on the exact gradient
    (``_search_objective`` with ``_chsh_gradient``), from ``x0`` and then
    random starts; the angles run unbounded, and random starts are drawn
    within one period.  A free-mu search runs over ln mu, so that a
    step changes a pump strength in proportion to it, which keeps a search
    from being drawn at once to the weak-pump edge of the box; its random
    starts are still uniform in mu.  Its landscape has a pair of optima that
    an exchange of H and V nearly maps onto each other (one with the H pump
    strong, one with the V pump strong), and a local search reaches only one
    of them, so the search goes on from the mirror image of its best point
    (``_mirror``) as its final start and keeps the better.  Its trace lists
    its own coordinates, ln mu_H and ln mu_V, as x0 and x1.
    """
    lo, hi = MU_BOUNDS
    kernel = SearchKernel(heralded_entries(params), params, gain)
    pump, n_y = (_free_mu_pump, 2) if free_mu else (_fixed_pump(_source_mu(params)), 0)
    if x0 is None:
        x0 = (0.05, 0.05)[:n_y] + CANONICAL_X0

    def start_at(r):
        return np.concatenate((np.log(lo + r[:n_y] * (hi - lo)), _angle_start(r[n_y:])))

    res = multistart_maximize(_search_objective(kernel, pump, _chsh_gradient),
                              [(math.log(lo), math.log(hi))] * n_y + _FREE_ANGLES, start_at,
                              n_starts=n_starts, seed=seed, trace=trace,
                              starts=[np.concatenate((np.log(x0[:n_y]), x0[n_y:]))],
                              final_start=_mirror if free_mu else None)
    mu_h, mu_v = np.clip(np.exp(res.x[:n_y]), lo, hi).tolist() if free_mu else (None, None)
    return ChshOptimum(value=res.value, settings=BellSettings(*res.x[n_y:]),
                       mu_h=mu_h, mu_v=mu_v, s=res.value, n_evaluations=res.n_evaluations,
                       converged=res.converged, start_index=res.start_index)


def _mirror(x):
    """The H <-> V mirror image of a free-mu search point (ln mu_H, ln mu_V,
    a1, a2, b1, b2): the pump strengths exchanged and every analyzer turned
    by pi/2."""
    return np.concatenate((x[1::-1], np.add(x[2:], math.pi / 2)))


def optimize_key_rate(params: ExperimentParams, gain: float = 1.0, seed: int = 0,
                      n_starts: int = 8, x0=None, trace=None) -> ChshOptimum:
    """Maximize the Devetak-Winter rate over the five analyzer angles on the
    |A>-heralded state.

    The free parameters are the key-generation angle theta_a0 and the four
    CHSH angles; the source strengths stay at their configured values.
    The search is ``optimize.multistart_maximize`` on the exact gradient
    (``_search_objective`` with ``_key_rate_gradient``), from ``x0`` and
    then random starts; the angles run unbounded, and random starts are
    drawn within one period.

    The reported QBER is min(Q, 1 - Q), the error rate after Bob flips his
    key bit where Q > 1/2.  The rate is symmetric in Q, so a search may end
    at either; r is the same for both.  The reported S and Q are read at
    the optimum through the search's own objective on a one-row stack
    (``_s_and_q``), so r = ``dw_key_rate(S, Q)`` holds exactly.
    """
    kernel = SearchKernel(heralded_entries(params), params, gain)
    return _key_rate_search(kernel, _source_mu(params), seed, n_starts, x0, trace)


def _key_rate_search(kernel: SearchKernel, mu, seed, n_starts, x0, trace) -> ChshOptimum:
    """The search of ``optimize_key_rate`` at the source strengths ``mu``,
    from ``x0`` (by default (0,) + ``CANONICAL_X0``) and then random starts."""
    pump = _fixed_pump(mu)
    res = multistart_maximize(_search_objective(kernel, pump, _key_rate_gradient),
                              _FREE_ANGLES + _FREE_ANGLES[:1], _angle_start, n_starts=n_starts,
                              seed=seed, starts=[(0.0,) + CANONICAL_X0 if x0 is None else x0],
                              trace=trace)
    # a one-row stack gives the point bit for bit as the search saw it
    (s,), (q,), _ = _search_objective(kernel, pump, _s_and_q)(np.array([res.x]))
    q = min(q, 1.0 - q)  # Bob's key bit flipped where Q > 1/2
    return ChshOptimum(value=res.value,
                       settings=BellSettings(*res.x[1:5], theta_a0=res.x[0]),
                       s=s, q=q, n_evaluations=res.n_evaluations, converged=res.converged,
                       start_index=res.start_index)


_MARGIN_BOUNDS = [(1e-4, 1.0)] + _FREE_ANGLES  # (mu_V / mu_H, a1, a2, b1, b2)


def _margin_pump(x):
    """The source strengths MU_FLOOR (1, r, 1, r) of every efficiency margin
    at the first coordinate y = (r,) of a point x, the pump ratio
    mu_V / mu_H, and their Jacobian."""
    mu = np.full((len(x), 4), MU_FLOOR)
    mu[:, 1::2] = MU_FLOOR * x[:, :1]
    return mu, MU_FLOOR * _SHARED_PUMP[:, 1:]


# pump ratios cot t0 of weakly entangled states, at near-axis angles: near
# the critical efficiency the optimum sits in this basin, which the maximally
# entangled start never reaches
_MARGIN_STARTS = [(math.cos(t0) / math.sin(t0), _wrap_angle(math.pi / 2 - 0.03),
                   _wrap_angle(math.pi / 2 + 0.34), 1.54, -1.23) for t0 in (1.2, 1.4, 1.5)]


def efficiency_threshold(params: ExperimentParams, bracket=(0.5, 1.0), seed: int = 0,
                         xtol: float = 1e-3) -> float:
    """Minimal symmetric detection efficiency with optimized S > 2 on the
    |A>-heralded state.

    At each efficiency the polarization asymmetry of the pump and the four
    analyzer angles are re-optimized, and the margin is S - 2, in one search
    per efficiency: ``optimize.multistart_maximize`` on ``_search_objective``
    with ``_chsh_gradient`` at the pump ratio mu_V / mu_H (``_margin_pump``),
    from one list of starts, all given, so none is drawn: the three fixed
    starts ``_MARGIN_STARTS`` and, after the first efficiency, the optimum
    of the last efficiency searched, keeping the first of the best.  The fixed
    starts are weakly entangled, at near-axis angles, the basin where the
    margin near the critical efficiency is of order 1e-4; the pump strength
    sits at ``MU_FLOOR``, since the margin grows as the multi-pair
    contamination (of order mu) shrinks.  The threshold is found by
    ``optimize.monotone_threshold``: a pre-scan that checks the optimized S
    is nondecreasing in the efficiency, then a bisection that searches only
    the efficiencies whose sign the scan leaves open.  Every start is given,
    so ``seed`` does not change the result.

    The bracket must satisfy 0 < lo < hi <= 1, and ``xtol`` must be finite
    and positive.
    """
    lo, hi = pair("bracket", bracket, lambda lo, hi: 0.0 < lo < hi <= 1.0, "in (0, 1] with lo < hi")
    real("xtol", xtol, *POSITIVE)
    entries = heralded_entries(params)
    warm = []

    def margin(eta):
        analyzer = params.replace(eta_1h=eta, eta_1v=eta, eta_2h=eta, eta_2v=eta)
        objective = _search_objective(SearchKernel(entries, analyzer), _margin_pump, _chsh_gradient)
        starts = _MARGIN_STARTS + warm
        best = multistart_maximize(objective, _MARGIN_BOUNDS, None, n_starts=len(starts),
                                   starts=starts)
        warm[:] = [best.x]
        return best.value - 2.0

    return monotone_threshold(margin, lo, hi, xtol)


def sfg_gain_threshold(params: ExperimentParams, bracket=(1.0, 1e4), rtol: float = 0.01) -> float:
    """Minimal multiplicative factor on the analyzer efficiency achieving a
    positive key rate (``optimize_key_rate``).

    The heralded entries are built once; the gain enters as an exact
    rescaling of their photon-herald part, so each gain only re-optimizes
    angles.  The first search runs 8 starts; each later one runs 4, the
    first of them the optimum of the last gain searched, and the others
    drawn with the seed ``GAIN_SEED``.  The threshold is found over ln(gain)
    by ``optimize.monotone_threshold``, to within ``rtol / 2`` there.

    The bracket must satisfy 0 < lo < hi < inf, and ``rtol`` must be
    finite and positive.
    """
    lo, hi = pair("bracket", bracket, lambda lo, hi: 0.0 < lo < hi < math.inf,
                  "finite and positive with lo < hi")
    real("rtol", rtol, *POSITIVE)
    entries, mu = heralded_entries(params), _source_mu(params)
    warm = {"x0": None}

    def margin(log_gain):
        kernel = SearchKernel(entries, params, math.exp(log_gain))
        n_starts = 8 if warm["x0"] is None else 4
        res = _key_rate_search(kernel, mu, GAIN_SEED, n_starts, warm["x0"], None)
        a = res.settings
        warm["x0"] = (a.theta_a0, a.theta_a1, a.theta_a2, a.theta_b1, a.theta_b2)
        return res.value

    return math.exp(monotone_threshold(margin, math.log(lo), math.log(hi), rtol / 2.0))
