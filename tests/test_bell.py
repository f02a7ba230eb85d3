"""CHSH correlators, outcome strategies, key rates, and their dual routes."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgswap.bell import (
    CANONICAL_X0,
    DEFAULT_STRATEGY,
    BellSettings,
    Strategy,
    TSIRELSON,
    _ensemble_qber,
    _partial_entanglement_seed,
    all_strategies,
    binary_entropy,
    chsh_value,
    dw_key_rate,
    ensemble_chsh,
    heralded_ensemble,
    heralded_state_with_dark,
    holevo_chsh,
    optimize_chsh,
    optimize_key_rate,
    qber,
)
from sfgswap.detection import CoincidenceEfficiencies
from sfgswap.optics import SfgParams, SourceParams
from sfgswap.presets import get_preset, swap_params
from sfgswap.protocols import ExperimentParams, sfg_heralded_operator


def make_params(**kwargs):
    return ExperimentParams(eps1=SourceParams(0.05, 0.05),
                            eps2=SourceParams(0.05, 0.05),
                            sfg=SfgParams(1.0, 1.0), **kwargs)


def test_binary_entropy_anchors():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=5e-4)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(0.0, 1.0))
def test_binary_entropy_symmetric_and_bounded(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)
    assert 0.0 <= binary_entropy(x) <= 1.0


def test_holevo_chsh_anchors():
    assert holevo_chsh(1.5) == 1.0
    assert holevo_chsh(2.0) == 1.0
    assert holevo_chsh(TSIRELSON) == pytest.approx(0.0, abs=1e-12)
    values = [holevo_chsh(s) for s in np.linspace(2.0, TSIRELSON, 20)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_dw_key_rate_anchors():
    assert dw_key_rate(TSIRELSON, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert dw_key_rate(2.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert dw_key_rate(2.5, 0.5) < 0.0


def test_strategy_contract():
    s = Strategy()
    assert s.outcome(True, False) == -1
    assert s.outcome(False, True) == +1
    assert s.outcome(True, True) == +1
    assert s.outcome(False, False) == +1
    n = s.negated()
    assert n.outcome(True, False) == +1
    assert len(all_strategies()) == 16
    with pytest.raises(ValueError):
        Strategy(only_first=0)


def test_bell_settings_wrap():
    s = BellSettings(1.9, -1.9, math.pi, 0.25, theta_a0=math.pi / 2)
    for theta in (s.theta_a1, s.theta_a2, s.theta_b1, s.theta_b2, s.theta_a0):
        assert -math.pi / 2 <= theta < math.pi / 2
    assert s.theta_a1 == pytest.approx(1.9 - math.pi)
    assert s.theta_b1 == pytest.approx(0.0, abs=1e-12)
    assert s.theta_b2 == 0.25


def test_chsh_has_pi_period_in_analyzer_angles():
    ens = heralded_ensemble(make_params())
    base = BellSettings(*CANONICAL_X0)
    shifted = BellSettings(CANONICAL_X0[0] + math.pi, *CANONICAL_X0[1:])
    assert ensemble_chsh(ens, shifted) == pytest.approx(ensemble_chsh(ens, base),
                                                        abs=1e-10)


@pytest.mark.parametrize("params", [
    make_params(eta_tH=0.8, eta_tV=0.7, dark=1e-4),
    # Heralded trace about 7.5e-12: the density route must keep its
    # relative precision on an operator of tiny trace.
    swap_params(get_preset("paper-tableS1")["params"]),
], ids=["lossy-dark", "paper-tableS1"])
def test_chsh_dual_route_equivalence(params):
    rho_sfg, psi_in = sfg_heralded_operator(params, basis="A")
    rho = heralded_state_with_dark(rho_sfg.scaled(params.window_acceptance), psi_in,
                                   params.dark)
    ens = heralded_ensemble(params)
    effs = CoincidenceEfficiencies(0.9, 0.85, 0.8, 0.75)
    settings_ = BellSettings(0.1, 0.7, -0.2, 0.5)
    slow = chsh_value(rho, settings_, efficiencies=effs)
    fast = ensemble_chsh(ens, settings_, efficiencies=effs)
    assert fast == pytest.approx(slow, abs=1e-10)
    slow_q = qber(rho, 0.3, -0.2, efficiencies=effs)
    fast_q = _ensemble_qber(ens, 0.3, -0.2, DEFAULT_STRATEGY, DEFAULT_STRATEGY, effs, 1.0)
    assert fast_q == pytest.approx(slow_q, abs=1e-10)


def test_chsh_value_requires_normalized_state():
    rho_sfg, _ = sfg_heralded_operator(make_params(), basis="A")
    with pytest.raises(ValueError):
        chsh_value(rho_sfg, BellSettings(*CANONICAL_X0))


def test_ensemble_gain_scaling():
    ens = heralded_ensemble(make_params(dark=1e-4))
    assert ens.trace(3.0) == pytest.approx(3.0 * ens.sfg_trace + ens.dark_trace)
    # The trace of the gain-scaled block density matches the branch norms.
    rho = 4.0 * ens.rho_sfg + ens.rho_dark
    assert np.einsum("NaaMbb->", rho) == pytest.approx(ens.trace(4.0))


def test_dark_herald_fraction_of_measured_pipeline():
    params = swap_params(get_preset("paper-tableS1")["params"])
    ens = heralded_ensemble(params)
    fraction = ens.dark_trace / ens.trace()
    assert fraction == pytest.approx(0.899, abs=0.005)


def test_tsirelson_bound_respected():
    ens = heralded_ensemble(make_params())
    rng = np.random.default_rng(3)
    for _ in range(25):
        settings_ = BellSettings(*rng.uniform(-math.pi / 2, math.pi / 2, size=4))
        assert abs(ensemble_chsh(ens, settings_)) <= TSIRELSON + 1e-9


def test_qber_small_for_aligned_ideal_state():
    params = make_params().replace(eps1=SourceParams(0.01, 0.01),
                                   eps2=SourceParams(0.01, 0.01))
    rho_sfg, psi_in = sfg_heralded_operator(params, basis="A")
    rho = heralded_state_with_dark(rho_sfg, psi_in, 0.0)
    assert qber(rho, 0.0, 0.0) < 0.05


def test_partial_entanglement_seed_shape():
    ratio, angles = _partial_entanglement_seed(0.70)
    assert 0.0 < ratio <= 1.0
    assert len(angles) == 4
    for a in angles:
        assert -math.pi / 2 <= a < math.pi / 2
    # Near the critical efficiency the optimum is weakly entangled.
    assert ratio < 0.5


def test_optima_report_best_start_diagnostics():
    # converged and start_index come from the start that gave the optimum:
    # the optimizer trace of that start must reach the reported value.
    params = make_params(pair_cap=2)
    for optimize in (optimize_chsh, optimize_key_rate):
        trace = io.StringIO()
        opt = optimize(params, n_starts=3, seed=5, trace=trace)
        rows = list(csv.DictReader(io.StringIO(trace.getvalue())))
        best = max(float(r["objective"]) for r in rows if int(r["start"]) == opt.start_index)
        assert 0 <= opt.start_index < 3
        assert best == pytest.approx(opt.value, abs=1e-9)
        assert opt.converged is True
