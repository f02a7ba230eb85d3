"""CHSH correlations on heralded states, outcome strategies, and
Devetak-Winter key rates with threshold searches.

Measurements are threshold analyzers: each party sees one of four click
patterns per trial (only the first detector, only the second, both,
neither) and maps it to +/-1 through a Strategy.  No postselection is
applied; every heralded trial contributes to the correlators.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .detection import (
    CoincidenceEfficiencies,
    arm_click_probs,
    block_density,
    block_readout,
    joint_click_pattern_probs,
    reduced_branches,
)
from .fock import DensityOperator, PureState
from .optimize import bisect_threshold, multistart_maximize, prescan_monotone
from .protocols import OUTPUT_REGISTER, ExperimentParams, sfg_heralded_branches

RT2 = math.sqrt(2.0)
TSIRELSON = 2.0 * RT2

UNIT_EFFICIENCIES = CoincidenceEfficiencies(1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class Strategy:
    """Assignment of the four local click patterns to +/-1 outcomes.

    The default assigns -1 to "only the first (H-arm) detector clicked"
    and +1 to the other three patterns.
    """

    only_first: int = -1
    only_second: int = +1
    both: int = +1
    neither: int = +1

    def __post_init__(self):
        for v in (self.only_first, self.only_second, self.both, self.neither):
            if v not in (-1, +1):
                raise ValueError("strategy outcomes must be +1 or -1")

    def outcome(self, click_first: bool, click_second: bool) -> int:
        if click_first and click_second:
            return self.both
        if click_first:
            return self.only_first
        if click_second:
            return self.only_second
        return self.neither

    @functools.lru_cache(maxsize=256)
    def mean(self, eta_first: float, eta_second: float, n: int):
        """Mean +/-1 outcome [N, a] of a party holding N photons, a in the
        first arm; cached and read-only, as optimizers reuse a few."""
        p_first, p_second = arm_click_probs(eta_first, eta_second, n)
        q_first, q_second = 1.0 - p_first, 1.0 - p_second
        o = (self.only_first * p_first * q_second + self.only_second * q_first * p_second
             + self.both * p_first * p_second + self.neither * q_first * q_second)
        o.setflags(write=False)
        return o

    def negated(self) -> "Strategy":
        return Strategy(-self.only_first, -self.only_second, -self.both, -self.neither)


DEFAULT_STRATEGY = Strategy()


def all_strategies():
    """All 16 click-pattern-to-outcome assignments of one party."""
    return [Strategy(a, b, c, d)
            for a, b, c, d in itertools.product((-1, +1), repeat=4)]


def _wrap_angle(theta: float) -> float:
    # analyzer angles have period pi; canonical range [-pi/2, pi/2)
    return (theta + math.pi / 2) % math.pi - math.pi / 2


@dataclass(frozen=True)
class BellSettings:
    """Analyzer angles of the CHSH test, wrapped into [0, pi).

    theta_a0 is the optional key-generation basis of the first party.
    """

    theta_a1: float
    theta_a2: float
    theta_b1: float
    theta_b2: float
    theta_a0: float = None

    def __post_init__(self):
        object.__setattr__(self, "theta_a1", _wrap_angle(self.theta_a1))
        object.__setattr__(self, "theta_a2", _wrap_angle(self.theta_a2))
        object.__setattr__(self, "theta_b1", _wrap_angle(self.theta_b1))
        object.__setattr__(self, "theta_b2", _wrap_angle(self.theta_b2))
        if self.theta_a0 is not None:
            object.__setattr__(self, "theta_a0", _wrap_angle(self.theta_a0))


def correlator(pattern_probs: dict, strategy_a: Strategy, strategy_b: Strategy) -> float:
    """Expectation of the +/-1 outcome product over joint click patterns."""
    return sum(p * strategy_a.outcome(*d) * strategy_b.outcome(*e)
               for (d, e), p in pattern_probs.items())


def _disagreement(pattern_probs: dict, strategy_a: Strategy, strategy_b: Strategy) -> float:
    """Probability that the two parties' +/-1 outcomes differ."""
    return sum(p for (d, e), p in pattern_probs.items()
               if strategy_a.outcome(*d) != strategy_b.outcome(*e))


def chsh_value(rho_herald: DensityOperator, settings: BellSettings,
               strategy: Strategy = DEFAULT_STRATEGY,
               efficiencies: CoincidenceEfficiencies = UNIT_EFFICIENCIES,
               strategy_b: Strategy = None) -> float:
    """S = <A1 B1> + <A2 B1> + <A1 B2> - <A2 B2> on a normalized state."""
    if abs(rho_herald.trace() - 1.0) > 1e-6:
        raise ValueError("chsh_value requires a normalized density operator")
    sb = strategy if strategy_b is None else strategy_b

    def e(ta, tb):
        probs = joint_click_pattern_probs(rho_herald, ta, tb, efficiencies)
        return correlator(probs, strategy, sb)

    a1, a2 = settings.theta_a1, settings.theta_a2
    b1, b2 = settings.theta_b1, settings.theta_b2
    return e(a1, b1) + e(a2, b1) + e(a1, b2) - e(a2, b2)


def heralded_state_with_dark(rho_sfg: DensityOperator, psi_in: PureState,
                             dark: float) -> DensityOperator:
    """Normalized heralded state mixing the photon and dark-count heralds.

    rho_sfg is the event-weighted analyzer-heralded operator; the dark
    branch is the unheralded reduced input state weighted by the dark
    probability per window.
    """
    if not 0.0 <= dark < 1.0:
        raise ValueError("dark probability must be in [0, 1)")
    rho = rho_sfg.reorder(OUTPUT_REGISTER) if rho_sfg.register != OUTPUT_REGISTER else rho_sfg
    if dark > 0.0:
        acd = DensityOperator.from_branches(reduced_branches(psi_in),
                                            register=OUTPUT_REGISTER,
                                            n_max=rho.n_max).scaled(dark)
        rho = rho.add(acd)
    total = rho.trace()
    if total <= 0.0:
        raise ValueError("zero total herald probability")
    return rho.scaled(1.0 / total)


@dataclass(frozen=True)
class HeraldedEnsemble:
    """Heralded state split by origin: the pure branches and their
    photon-number-block densities (``detection.block_density``).

    The photon-herald part scales linearly when the analyzer efficiency is
    multiplied by ``gain``, so one ensemble serves every gain factor.
    """

    sfg: tuple
    dark: tuple
    sfg_trace: float
    dark_trace: float
    rho_sfg: np.ndarray
    rho_dark: np.ndarray

    def trace(self, gain: float = 1.0) -> float:
        return gain * self.sfg_trace + self.dark_trace


def heralded_ensemble(params: ExperimentParams, basis: str = "A") -> HeraldedEnsemble:
    """Build the branch ensemble of the heralded state for ``params``."""
    sfg, psi_in = sfg_heralded_branches(params, basis=basis)
    if params.window_acceptance != 1.0:
        w = math.sqrt(params.window_acceptance)
        sfg = [b.scaled(w) for b in sfg]
    dark = []
    if params.dark > 0.0:
        s = math.sqrt(params.dark)
        dark = [b.scaled(s) for b in reduced_branches(psi_in)]
    return HeraldedEnsemble(
        sfg=tuple(sfg), dark=tuple(dark),
        sfg_trace=sum(b.norm() ** 2 for b in sfg),
        dark_trace=sum(b.norm() ** 2 for b in dark),
        rho_sfg=block_density(sfg, params.pair_cap),
        rho_dark=block_density(dark, params.pair_cap),
    )


def _correlators(ensemble: HeraldedEnsemble, thetas_a, thetas_b, strategy_a: Strategy,
                 strategy_b: Strategy, effs: CoincidenceEfficiencies, gain: float):
    """Normalized correlators E[p, q] at every pair of analyzer angles."""
    total = ensemble.trace(gain)
    if total <= 0.0:
        raise ValueError("zero total herald probability")
    rho = gain * ensemble.rho_sfg + ensemble.rho_dark
    n = rho.shape[0] - 1
    return block_readout(rho, thetas_a, [strategy_a.mean(effs.d_H, effs.d_V, n)], thetas_b,
                         [strategy_b.mean(effs.e_H, effs.e_V, n)])[:, :, 0, 0] / total


def _chsh(e) -> float:
    return float(e[0, 0] + e[1, 0] + e[0, 1] - e[1, 1])


def _qber(e: float) -> float:
    # +/-1 outcomes, no postselection; rounding can leave E an ulp above 1.
    return max(0.0, (1.0 - float(e)) / 2.0)


def ensemble_chsh(ensemble: HeraldedEnsemble, settings: BellSettings,
                  strategy_a: Strategy = DEFAULT_STRATEGY,
                  strategy_b: Strategy = None,
                  efficiencies: CoincidenceEfficiencies = UNIT_EFFICIENCIES,
                  gain: float = 1.0) -> float:
    """CHSH value of the normalized ensemble state (photon-number blocks)."""
    sb = strategy_a if strategy_b is None else strategy_b
    return _chsh(_correlators(ensemble, (settings.theta_a1, settings.theta_a2),
                              (settings.theta_b1, settings.theta_b2),
                              strategy_a, sb, efficiencies, gain))


def qber(rho_herald: DensityOperator, theta_a0: float, theta_b1: float,
         strategy: Strategy = DEFAULT_STRATEGY,
         efficiencies: CoincidenceEfficiencies = UNIT_EFFICIENCIES,
         strategy_b: Strategy = None) -> float:
    """Key-basis error rate Q = P(+1,-1) + P(-1,+1)."""
    if abs(rho_herald.trace() - 1.0) > 1e-6:
        raise ValueError("qber requires a normalized density operator")
    sb = strategy if strategy_b is None else strategy_b
    probs = joint_click_pattern_probs(rho_herald, theta_a0, theta_b1, efficiencies)
    return _disagreement(probs, strategy, sb)


def _ensemble_qber(ensemble: HeraldedEnsemble, theta_a0: float, theta_b1: float,
                   strategy_a: Strategy, strategy_b: Strategy,
                   effs: CoincidenceEfficiencies, gain: float) -> float:
    return _qber(_correlators(ensemble, (theta_a0,), (theta_b1,), strategy_a, strategy_b,
                              effs, gain)[0, 0])


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


def _angle_bounds(n: int):
    return [(-math.pi / 2, math.pi / 2)] * n


def optimize_chsh(params: ExperimentParams, free_mu: bool = False,
                  strategy_a: Strategy = DEFAULT_STRATEGY,
                  strategy_b: Strategy = None,
                  efficiencies: CoincidenceEfficiencies = UNIT_EFFICIENCIES,
                  gain: float = 1.0, basis: str = "A", seed: int = 0,
                  n_starts: int = 16, x0=None,
                  mu_bounds=(1e-6, 0.4), trace=None) -> ChshOptimum:
    """Maximize the CHSH value over analyzer angles (and optionally the
    mean photon numbers of the sources).

    With ``free_mu`` the two pump strengths are varied per polarization and
    shared between the sources; the heralded state depends on them through
    a full pipeline rebuild per evaluation.
    """
    sb = strategy_a if strategy_b is None else strategy_b

    if not free_mu:
        ens = heralded_ensemble(params, basis=basis)

        def objective(x):
            return ensemble_chsh(ens, BellSettings(*x), strategy_a, sb,
                                 efficiencies, gain)

        res = multistart_maximize(objective, _angle_bounds(4), n_starts=n_starts,
                                  seed=seed, x0=x0 if x0 is not None else CANONICAL_X0,
                                  trace=trace)
        return ChshOptimum(value=res.value, settings=BellSettings(*res.x),
                           mu_h=None, mu_v=None, s=res.value, n_evaluations=res.n_evaluations,
                           converged=res.converged, start_index=res.start_index)

    from .optics import SourceParams

    def objective(x):
        mu_h, mu_v = x[0], x[1]
        p = params.replace(eps1=SourceParams(mu_h, mu_v),
                           eps2=SourceParams(mu_h, mu_v))
        ens = heralded_ensemble(p, basis=basis)
        return ensemble_chsh(ens, BellSettings(*x[2:6]), strategy_a, sb,
                             efficiencies, gain)

    bounds = [mu_bounds, mu_bounds] + _angle_bounds(4)
    if x0 is None:
        x0 = (0.05, 0.05) + CANONICAL_X0
    res = multistart_maximize(objective, bounds, n_starts=n_starts, seed=seed,
                              x0=x0, trace=trace)
    return ChshOptimum(value=res.value, settings=BellSettings(*res.x[2:6]),
                       mu_h=res.x[0], mu_v=res.x[1], s=res.value, n_evaluations=res.n_evaluations,
                       converged=res.converged, start_index=res.start_index)


def optimize_key_rate(params: ExperimentParams,
                      strategy_a: Strategy = DEFAULT_STRATEGY,
                      strategy_b: Strategy = None,
                      efficiencies: CoincidenceEfficiencies = UNIT_EFFICIENCIES,
                      gain: float = 1.0, basis: str = "A", seed: int = 0,
                      n_starts: int = 8, x0=None, trace=None) -> ChshOptimum:
    """Maximize the Devetak-Winter rate over the five analyzer angles.

    The free parameters are the key-generation angle theta_a0 and the four
    CHSH angles; the source strengths stay at their configured values.
    """
    sb = strategy_a if strategy_b is None else strategy_b
    ens = heralded_ensemble(params, basis=basis)

    def evaluate(x):
        st = BellSettings(*x[1:5], theta_a0=x[0])
        e = _correlators(ens, (st.theta_a1, st.theta_a2, st.theta_a0),
                         (st.theta_b1, st.theta_b2), strategy_a, sb, efficiencies, gain)
        return _chsh(e), _qber(e[2, 0])

    def objective(x):
        s, q = evaluate(x)
        return dw_key_rate(s, q)

    if x0 is None:
        x0 = (0.0,) + CANONICAL_X0
    res = multistart_maximize(objective, _angle_bounds(5), n_starts=n_starts,
                              seed=seed, x0=x0, trace=trace)
    s, q = evaluate(res.x)
    return ChshOptimum(value=res.value,
                       settings=BellSettings(*res.x[1:5], theta_a0=res.x[0]),
                       s=s, q=q, n_evaluations=res.n_evaluations, converged=res.converged,
                       start_index=res.start_index)


def _partial_entanglement_seed(eta: float):
    """Starting point for the CHSH search at symmetric efficiency ``eta``.

    Solves the single-pair limit exactly: a pure state cos(t)|HH> +
    sin(t)|VV> measured by threshold detectors of efficiency eta, outcome
    -1 only when the H-arm detector clicks and +1 otherwise (no-click
    events are kept).  Near the critical efficiency the optimum is a
    weakly entangled state with near-axis angles, a basin the maximally
    entangled starting point never reaches.

    Returns (amplitude ratio tan(t), four analyzer angles).
    """

    def corr(t, a, b):
        # state cos(t)|HV> + sin(t)|VH> in this parametrization; the seed
        # maps it to the |HH>/|VV> form of the heralded state afterwards
        c, s = math.cos(t), math.sin(t)
        p_a = eta * ((c * math.cos(a)) ** 2 + (s * math.sin(a)) ** 2)
        p_b = eta * ((s * math.cos(b)) ** 2 + (c * math.sin(b)) ** 2)
        amp_ab = c * math.cos(a) * math.sin(b) + s * math.sin(a) * math.cos(b)
        p_ab = eta * eta * amp_ab ** 2
        return 1.0 - 2.0 * p_a - 2.0 * p_b + 4.0 * p_ab

    def objective(x):
        t, a1, a2, b1, b2 = x
        return (corr(t, a1, b1) + corr(t, a2, b1)
                + corr(t, a1, b2) - corr(t, a2, b2))

    bounds = [(math.pi / 4, math.pi / 2)] + _angle_bounds(4)
    best = None
    for t0 in (1.2, 1.4, 1.5):
        res = multistart_maximize(objective, bounds, n_starts=1, seed=0,
                                  x0=(t0, -0.03, 0.34, 1.54, -1.23),
                                  xatol=1e-9)
        if best is None or res.value > best.value:
            best = res
    t, a1, a2, b1, b2 = best.x

    def to_model(a):
        return (a + math.pi / 2) % math.pi - math.pi / 2

    ratio = abs(math.cos(t) / math.sin(t))
    return ratio, (to_model(a1 + math.pi / 2), to_model(a2 + math.pi / 2),
                   to_model(b1), to_model(b2))


def efficiency_threshold(params: ExperimentParams,
                         strategy_a: Strategy = DEFAULT_STRATEGY,
                         strategy_b: Strategy = None, target_s: float = 2.0,
                         bracket=(0.5, 1.0), seed: int = 0,
                         xtol: float = 1e-3, mu_floor: float = 2e-3,
                         basis: str = "A") -> float:
    """Minimal symmetric detection efficiency with optimized S > target_s.

    At each efficiency the polarization asymmetry of the pump and the four
    analyzer angles are re-optimized.  The search is seeded from the exact
    single-pair optimum, which pins the weakly entangled basin where the
    violation margin near the critical efficiency is of order 1e-4; the
    pump strength itself sits at ``mu_floor``, since the margin grows as
    the multi-pair contamination (of order mu) shrinks.  An 8-point
    pre-scan checks that the optimized S is nondecreasing in the
    efficiency before bisecting.
    """
    from .optics import SourceParams

    sb = strategy_a if strategy_b is None else strategy_b
    warm = {"x0": None}

    def margin(eta):
        effs = CoincidenceEfficiencies(eta, eta, eta, eta)
        ratio0, angles0 = _partial_entanglement_seed(eta)

        def objective(x):
            ratio = x[0]
            p = params.replace(
                eps1=SourceParams(mu_floor, mu_floor * ratio),
                eps2=SourceParams(mu_floor, mu_floor * ratio))
            ens = heralded_ensemble(p, basis=basis)
            return ensemble_chsh(ens, BellSettings(*x[1:5]), strategy_a, sb,
                                 effs)

        bounds = [(1e-4, 1.0)] + _angle_bounds(4)
        starts = [(max(ratio0, 1e-4),) + angles0, (1.0,) + CANONICAL_X0]
        if warm["x0"] is not None:
            starts.append(warm["x0"])
        best = None
        for x0 in starts:
            res = multistart_maximize(objective, bounds, n_starts=1,
                                      seed=seed, x0=x0)
            if best is None or res.value > best.value:
                best = res
        warm["x0"] = best.x
        return best.value - target_s

    lo, hi = bracket
    if not prescan_monotone(margin, lo, hi, n=8, increasing=True):
        raise ValueError("optimized CHSH value is not monotone over the bracket")
    eta, _ = bisect_threshold(margin, lo, hi, xtol=xtol)
    return eta


def sfg_gain_threshold(params: ExperimentParams, objective: str = "rate",
                       strategy_a: Strategy = DEFAULT_STRATEGY,
                       strategy_b: Strategy = None,
                       efficiencies: CoincidenceEfficiencies = UNIT_EFFICIENCIES,
                       bracket=(1.0, 1e4), seed: int = 0,
                       rtol: float = 0.01) -> float:
    """Minimal multiplicative factor on the analyzer efficiency achieving
    S > 2 (``objective="s"``) or a positive key rate (``objective="rate"``).

    The heralded branches are computed once; the gain enters as an exact
    amplitude rescaling of the photon-herald branches, so each bisection
    step only re-optimizes angles (warm-started).
    """
    if objective not in ("s", "rate"):
        raise ValueError("objective must be 's' or 'rate'")
    warm = {"x0": None}

    def margin(log_gain):
        gain = math.exp(log_gain)
        n = 8 if warm["x0"] is None else 4
        if objective == "s":
            res = optimize_chsh(params, strategy_a=strategy_a, strategy_b=strategy_b,
                                efficiencies=efficiencies, gain=gain, seed=seed,
                                n_starts=n, x0=warm["x0"])
            warm["x0"] = (res.settings.theta_a1, res.settings.theta_a2,
                          res.settings.theta_b1, res.settings.theta_b2)
            return res.value - 2.0
        res = optimize_key_rate(params, strategy_a=strategy_a, strategy_b=strategy_b,
                                efficiencies=efficiencies, gain=gain, seed=seed,
                                n_starts=n, x0=warm["x0"])
        warm["x0"] = (res.settings.theta_a0, res.settings.theta_a1,
                      res.settings.theta_a2, res.settings.theta_b1,
                      res.settings.theta_b2)
        return res.value

    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    if not prescan_monotone(margin, lo, hi, n=8, increasing=True):
        raise ValueError("objective is not monotone in the gain over the bracket")
    warm["x0"] = None
    log_gain, _ = bisect_threshold(margin, lo, hi, xtol=rtol / 2.0)
    return math.exp(log_gain)
