"""CHSH correlators, key rates, threshold searches, and their dual routes."""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_route import (
    UNIT_EFFICIENCIES,
    block_density,
    block_readout,
    chsh_value,
    dense_block,
    heralded_state_with_dark,
    qber,
    scaled_filter_blocks,
    sfg_heralded_branches,
    sfg_heralded_operator,
)
from sfgswap import bell
from sfgswap.bell import (
    CANONICAL_X0,
    BellSettings,
    SearchKernel,
    _qber,
    binary_entropy,
    dw_key_rate,
    dw_key_rate_slopes,
    efficiency_threshold,
    holevo_chsh,
    optimize_chsh,
    optimize_key_rate,
    sfg_gain_threshold,
)
from branch_route import reduced_branches
from dense_oracle import TSIRELSON, faithful_chsh_bound, vacuum_share
from sfgswap.detection import arm_click_probs
from sfgswap import optimize
from sfgswap.presets import get_preset, swap_params
from sfgswap.protocols import (
    ExperimentParams,
    HeraldedEntries,
    _gamma,
    _source_mu,
    heralded_entries,
    sfg_swap,
)
from simplex_reference import drive_one, maximize_starts


def _kernel(params, effs=UNIT_EFFICIENCIES, gain=1.0, basis="A"):
    """The search kernel of the heralded state of ``params``, read through
    the analyzer efficiencies of ``effs``."""
    return SearchKernel(heralded_entries(params, basis), effs, gain)


def _chsh_at(kernel, params, settings_):
    """CHSH value through ``kernel`` at the sources of ``params``."""
    e = kernel.correlator_gradients((settings_.theta_a1, settings_.theta_a2),
                                    (settings_.theta_b1, settings_.theta_b2),
                                    _source_mu(params))[0]
    return e[0, 0] + e[1, 0] + e[0, 1] - e[1, 1]


def _angle_bounds(n):
    """One period of each of n analyzer angles, the box the simplex searches ran in."""
    return [(-math.pi / 2, math.pi / 2)] * n


def _analyzer(d_h, d_v, e_h, e_v):
    """Analyzer arms of efficiencies (dH, dV, eH, eV)."""
    return ExperimentParams(eta_1h=d_h, eta_1v=d_v, eta_2h=e_h, eta_2v=e_v)


def _with_sources(params, mu):
    return params.replace(mu_1h=mu[0], mu_1v=mu[1], mu_2h=mu[2], mu_2v=mu[3])


def make_params(**kwargs):
    return ExperimentParams(mu_1h=0.05, mu_1v=0.05, mu_2h=0.05, mu_2v=0.05,
                            sfg_h=1.0, sfg_v=1.0, **kwargs)


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


def test_bell_settings_wrap():
    s = BellSettings(1.9, -1.9, math.pi, 0.25, theta_a0=math.pi / 2)
    for theta in (s.theta_a1, s.theta_a2, s.theta_b1, s.theta_b2, s.theta_a0):
        assert -math.pi / 2 <= theta < math.pi / 2
    assert s.theta_a1 == pytest.approx(1.9 - math.pi)
    assert s.theta_b1 == pytest.approx(0.0, abs=1e-12)
    assert s.theta_b2 == 0.25


def test_chsh_has_pi_period_in_analyzer_angles():
    params = make_params()
    kernel = _kernel(params)
    base = BellSettings(*CANONICAL_X0)
    shifted = BellSettings(CANONICAL_X0[0] + math.pi, *CANONICAL_X0[1:])
    assert _chsh_at(kernel, params, shifted) == pytest.approx(_chsh_at(kernel, params, base),
                                                              abs=1e-10)


@pytest.mark.parametrize("params", [
    make_params(eta_th=0.8, eta_tv=0.7, dark=1e-4),
    # Heralded trace about 7.5e-12: the density route must keep its
    # relative precision on an operator of tiny trace.
    swap_params(get_preset("paper-tableS1")["params"]),
], ids=["lossy-dark", "paper-tableS1"])
def test_chsh_dual_route_equivalence(params):
    rho_sfg, psi_in = sfg_heralded_operator(params, basis="A")
    rho = heralded_state_with_dark(rho_sfg.scaled(params.window_acceptance), psi_in,
                                   params.dark)
    effs = _analyzer(0.9, 0.85, 0.8, 0.75)
    kernel = _kernel(params, effs)
    settings_ = BellSettings(0.1, 0.7, -0.2, 0.5)
    slow = chsh_value(rho, settings_, efficiencies=effs)
    fast = _chsh_at(kernel, params, settings_)
    assert fast == pytest.approx(slow, abs=1e-10)
    slow_q = qber(rho, 0.3, -0.2, efficiencies=effs)
    fast_q = _qber(kernel.correlator_gradients((0.3,), (-0.2,), _source_mu(params))[0][0, 0])
    assert fast_q == pytest.approx(slow_q, abs=1e-10)


def _preset(name, **kwargs):
    return swap_params(get_preset(name)["params"]).replace(**kwargs)


# Bell-test analyzers of unit efficiency: the search cases on the measured
# sources below are set on this analyzer.
UNIT_ANALYZER = dict(eta_1h=1.0, eta_1v=1.0, eta_2h=1.0, eta_2v=1.0)


@pytest.mark.parametrize("basis", ["A", "D"])
@pytest.mark.parametrize("params", [
    _preset("ideal", pair_cap=2),
    _preset("ideal"),
    _preset("paper-tableS1"),
    _preset("paper-tableS1", pair_cap=5),
    _preset("ideal", t_1h=0.7, t_1v=0.6, t_2h=0.5, t_2v=0.8, eta_th=0.8, eta_tv=0.9,
            eta_d=0.85, dark=1e-3, window_acceptance=0.9, pair_cap=4),
], ids=["ideal-2", "ideal-3", "paper-tableS1-3", "paper-tableS1-5", "lossy-dark-windowed"])
def test_ensemble_matches_heralded_branches(params, basis):
    # The heralded state rescales one unit-amplitude herald by the source
    # amplitudes; the full pipeline on the sources' own input state must
    # give the same blocks, with independent pump strengths per source and
    # polarization, and sfg_swap the same photon-herald probability.
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.01, 0.3, size=4)
    params = _with_sources(params, mu)
    fast_sfg, fast_dark = scaled_filter_blocks(params, basis=basis)
    branches, psi_in = sfg_heralded_branches(params, basis=basis)
    rho_sfg = ((1.0 - params.dark) * params.window_acceptance
               * block_density(branches, params.pair_cap))
    rho_dark = params.dark * block_density(reduced_branches(psi_in), params.pair_cap)
    for fast, slow in ((fast_sfg, rho_sfg), (fast_dark, rho_dark)):
        assert np.abs(fast - slow).max() <= 1e-13 * np.abs(slow).max()
    assert sfg_swap(params, basis=basis).herald_prob * (1.0 - params.dark) == pytest.approx(
        np.einsum("NaaMbb->", rho_sfg), rel=1e-13)
    assert np.einsum("NaaMbb->", fast_dark) == pytest.approx(params.dark, rel=1e-13)


def test_chsh_value_requires_normalized_state():
    rho_sfg, _ = sfg_heralded_operator(make_params(), basis="A")
    with pytest.raises(ValueError):
        chsh_value(rho_sfg, BellSettings(*CANONICAL_X0))


def test_dark_herald_fraction_of_measured_pipeline():
    # The source amplitudes are normalized, so a dark count heralds with
    # probability dark, and a photon with herald_prob (1 - dark).
    params = swap_params(get_preset("paper-tableS1")["params"])
    rep = sfg_swap(params)
    fraction = params.dark / (rep.herald_prob * (1.0 - params.dark) + params.dark)
    assert fraction == pytest.approx(0.899, abs=0.005)


def test_tsirelson_bound_respected():
    params = make_params()
    kernel = _kernel(params)
    rng = np.random.default_rng(3)
    for _ in range(25):
        settings_ = BellSettings(*rng.uniform(-math.pi / 2, math.pi / 2, size=4))
        assert abs(_chsh_at(kernel, params, settings_)) <= TSIRELSON + 1e-9


def _fixed_mu_search(entries, params, n_starts):
    """The fixed-mu search of ``optimize_chsh`` (seed 0) on the heralded
    ``entries`` read through the analyzers of ``params``."""
    mu = _source_mu(params)
    objective = bell._chsh_objective(SearchKernel(entries, params),
                                     lambda y: (mu, bell._FIXED_PUMP))
    return optimize.multistart_maximize(objective, bell._FREE_ANGLES, bell._angle_start,
                                        n_starts=n_starts, seed=0, x0=CANONICAL_X0)


CHANNEL_MODES = ("t_1h", "t_1v", "t_2h", "t_2v")


@pytest.mark.parametrize("loss, s_lo, bound_lo", [(0.0, 2.22247, 2.4308), (0.9, 2.17082, 2.4436)])
def test_only_the_lo_herald_leaves_a_party_without_a_photon(loss, s_lo, bound_lo):
    # On ideal with loss on all four channel modes.  The SFG herald needs a
    # photon from each source, so it leaves no party empty (vacuum share 0)
    # and S reaches 2.61891.  The linear-optical herald also fires on a
    # double pair from one source, which leaves the other party empty: near
    # half its state, where a party's outcome is fixed, so its optimum stays
    # within the bound (1 - v) 2 sqrt 2 + 2 v of its vacuum share v.
    params = _preset("ideal", pair_cap=3, **dict.fromkeys(CHANNEL_MODES, 1.0 - loss))
    mu = _source_mu(params)
    sfg, lo = heralded_entries(params, "A"), heralded_entries(params, "lo")
    best_sfg = _fixed_mu_search(sfg, params, 8).value
    assert best_sfg == optimize_chsh(params, n_starts=8, seed=0).value
    assert round(best_sfg, 5) == 2.61891 and vacuum_share(sfg, mu) == 0.0
    best_lo = _fixed_mu_search(lo, params, 8).value
    bound = faithful_chsh_bound(vacuum_share(lo, mu))
    assert round(best_lo, 5) == s_lo and round(bound, 4) == bound_lo
    assert best_lo <= bound


def test_one_start_search_behind_the_lo_herald():
    params = _preset("ideal", pair_cap=3)
    res = _fixed_mu_search(heralded_entries(params, "lo"), params, 1)
    assert abs(res.value - 2.222468733177096) <= 1e-9
    assert res.n_evaluations == 12


@pytest.mark.parametrize("pair_cap", [3, 6])
def test_sfg_chsh_optimum_does_not_depend_on_channel_loss(pair_cap):
    # The Bell-test twin of criterion 9's flat SFG visibility: on ideal the
    # optimized S behind the SFG herald is the same at every channel loss.
    values = [optimize_chsh(_preset("ideal", pair_cap=pair_cap,
                                    **dict.fromkeys(CHANNEL_MODES, 1.0 - loss)),
                            n_starts=8, seed=0).value for loss in (0.0, 0.3, 0.6, 0.9)]
    assert max(values) - min(values) <= 1e-12


def test_qber_small_for_aligned_ideal_state():
    params = make_params().replace(mu_1h=0.01, mu_1v=0.01, mu_2h=0.01, mu_2v=0.01)
    rho_sfg, psi_in = sfg_heralded_operator(params, basis="A")
    rho = heralded_state_with_dark(rho_sfg, psi_in, 0.0)
    assert qber(rho, 0.0, 0.0) < 0.05


def test_efficiency_threshold_eberhard_limit():
    # At a weak pump the threshold approaches Eberhard's 2/3 for threshold
    # detectors with no-click events kept (PRA 47, R747 (1993)).
    params = _preset("ideal", pair_cap=2)
    xtol = 1e-3
    eta = efficiency_threshold(params, xtol=xtol)
    assert 2.0 / 3.0 - xtol <= eta <= 2.0 / 3.0 + 0.005
    assert eta == 0.6669921875


def test_efficiency_threshold_of_criterion_5_to_the_bit():
    # Criterion 5's search: the ideal preset at its pair_cap of 3.
    assert efficiency_threshold(_preset("ideal")) == 0.6845703125


def test_efficiency_threshold_of_a_lossy_preset_to_the_bit():
    # paper-table2's channel loss gives its pair_cap 3 state weights other
    # than the ideal preset's.
    assert efficiency_threshold(_preset("paper-table2")) == 0.68359375


def test_efficiency_threshold_signs_hold_under_a_wide_search(monkeypatch):
    # Near the threshold the driver's searches can stop short of the optimum:
    # on paper-table2 they read -2.80e-5 at 0.681640625 and -1.32e-5 at
    # 0.6826171875, where a search from the fixed starts and 48 seeded
    # uniform ones reads -3.43e-7 at both.  What the threshold rests on is
    # the sign: at every efficiency the driver visits within 0.01 of its
    # threshold, the wide search gives the driver's sign.
    visited = []
    real_maximize = bell.maximize_starts_bfgs
    real_threshold = bell.monotone_threshold

    def maximize(objective, bounds, starts):
        runs = real_maximize(objective, bounds, starts)
        visited[-1] += (objective, bounds, optimize.best_run(runs).value)
        return runs

    def threshold(margin, *args):
        def recorded_margin(eta):
            visited.append((eta,))
            return margin(eta)
        return real_threshold(recorded_margin, *args)

    monkeypatch.setattr(bell, "maximize_starts_bfgs", maximize)
    monkeypatch.setattr(bell, "monotone_threshold", threshold)
    threshold_eta = efficiency_threshold(_preset("paper-table2"))
    assert threshold_eta == 0.68359375
    lows, highs = np.array([(1e-4, 1.0)] + [(-math.pi / 2, math.pi / 2)] * 4).T
    wide_starts = bell._MARGIN_STARTS + [
        tuple(x) for x in np.random.default_rng(0).uniform(lows, highs, (48, 5))]
    near = [v for v in visited if abs(v[0] - threshold_eta) <= 0.01]
    assert len(near) == 5
    for eta, objective, bounds, value in near:
        wide = optimize.best_run(real_maximize(objective, bounds, wide_starts)).value
        assert (wide > 2.0) == (value > 2.0), (eta, value - 2.0, wide - 2.0)


@pytest.mark.parametrize("kwargs, argument", [
    ({"bracket": (0.5, 1.5)}, "bracket"),
    ({"bracket": (0.8, 0.6)}, "bracket"),
    ({"bracket": (0.0, 0.8)}, "bracket"),
    ({"bracket": (float("nan"), 0.8)}, "bracket"),
    ({"bracket": (0.6, 0.8), "xtol": float("nan")}, "xtol"),
    ({"xtol": 0.0}, "xtol"),
    ({"xtol": -1e-3}, "xtol"),
    ({"xtol": float("inf")}, "xtol"),
], ids=["hi-above-1", "reversed", "lo-zero", "lo-nan", "xtol-nan", "xtol-zero",
        "xtol-negative", "xtol-inf"])
def test_efficiency_threshold_rejects_bad_arguments(monkeypatch, kwargs, argument):
    # Rejected by name before any search (each search starts from the
    # heralded entries, so none may run).  Unchecked, xtol = nan ends the
    # bisection at once with the upper bracket edge as the threshold.
    monkeypatch.setattr(bell, "heralded_entries", None)
    with pytest.raises(ValueError, match=argument):
        efficiency_threshold(_preset("ideal", pair_cap=2), **kwargs)


def test_efficiency_threshold_refusal_shows_the_scan():
    # On paper-tableS1 dark counts (6.7e-11 per pulse) outweigh the photon
    # herald (7.5e-12), so no efficiency violates CHSH: every margin of the
    # scan is negative and falls with the efficiency, from about -8.0e-7 at
    # 0.5 to -1.6e-6 at 1.  The refusal names its largest fall and sample.
    with pytest.raises(ValueError, match="objective is not monotone over the bracket") as err:
        efficiency_threshold(_preset("paper-tableS1", pair_cap=2))
    found = re.search(r"falls most, by (\S+), from x = (\S+) to (\S+), and its largest sample "
                      r"is (\S+)$", str(err.value))
    fall, x_from, x_to, largest = map(float, found.groups())
    assert fall == pytest.approx(1.14e-7, abs=0.01e-7)
    assert x_to - x_from == pytest.approx(1.0 / 14.0, abs=1e-6)
    assert largest == pytest.approx(-7.99e-7, abs=0.01e-7)


@pytest.mark.parametrize("kwargs, argument", [
    ({"bracket": (0.0, 80.0)}, "bracket"),
    ({"bracket": (-1.0, 80.0)}, "bracket"),
    ({"bracket": (80.0, 3.0)}, "bracket"),
    ({"bracket": (3.0, float("inf"))}, "bracket"),
    ({"bracket": (float("nan"), 80.0)}, "bracket"),
    ({"rtol": float("nan")}, "rtol"),
    ({"rtol": 0.0}, "rtol"),
    ({"rtol": -0.01}, "rtol"),
    ({"rtol": float("inf")}, "rtol"),
], ids=["lo-zero", "lo-negative", "reversed", "hi-inf", "lo-nan", "rtol-nan", "rtol-zero",
        "rtol-negative", "rtol-inf"])
def test_sfg_gain_threshold_rejects_bad_arguments(monkeypatch, kwargs, argument):
    # Rejected by name before any search (each search starts from the
    # heralded entries, so none may run).  Unchecked, lo = 0 or -1 fails
    # with "math domain error", a reversed bracket is reported by its
    # logarithms, hi = inf fails after the searches with "herald probability
    # is zero", and rtol = nan is reported as xtol.
    monkeypatch.setattr(bell, "heralded_entries", None)
    with pytest.raises(ValueError, match=argument):
        sfg_gain_threshold(_preset("ideal", pair_cap=2), **kwargs)


@pytest.mark.parametrize("gain", [0.0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("search", [optimize_chsh, optimize_key_rate], ids=["chsh", "keyrate"])
def test_searches_reject_a_bad_gain_by_name(search, gain):
    # Unchecked, gain -1 reads a violation off an unphysical state on
    # paper-tableS1 (S = 2.0046, r = 0), gain 0 runs on dark counts alone,
    # and nan or inf fails with "herald probability is zero".
    with pytest.raises(ValueError, match=f"gain must be finite and positive, got {gain!r}"):
        search(_preset("paper-tableS1"), gain=gain, n_starts=1)


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


ASYMMETRIC = _analyzer(0.9, 0.8, 0.85, 0.7)

# (params, analyzer efficiencies, gain)
KERNEL_CASES = {
    "ideal-2": (_preset("ideal", pair_cap=2), UNIT_EFFICIENCIES, 1.0),
    "tableS1-3-dark": (_preset("paper-tableS1", dark=0.1), ASYMMETRIC, 1.0),
    "tableS1-5": (_preset("paper-tableS1", pair_cap=5),
                  _preset("paper-tableS1"), 1.0),
    "tableS1-3-gain3": (_preset("paper-tableS1"), ASYMMETRIC, 3.0),
}


def _outcome_mean(eta_first, eta_second, n):
    """Mean +/-1 outcome o[N, a] of a party: -1 exactly when only the first
    detector clicks."""
    p_first, p_second = arm_click_probs(eta_first, eta_second, n)
    return 1.0 - 2.0 * p_first * (1.0 - p_second)


def _block_correlators(rho, thetas_a, thetas_b, effs):
    """Normalized correlators from ``block_readout`` on the block density
    ``rho``, read through the analyzer efficiencies of ``effs``."""
    n = rho.shape[0] - 1
    e = block_readout(rho, thetas_a, [_outcome_mean(effs.eta_1h, effs.eta_1v, n)],
                      thetas_b, [_outcome_mean(effs.eta_2h, effs.eta_2v, n)])
    return e[:, :, 0, 0] / np.einsum("NaaMbb->", rho)


def _readout(params, basis, thetas_a, thetas_b, effs, gain):
    """Normalized correlators from ``block_readout`` on the dense heralded
    state of ``params``, its photon-herald part scaled by ``gain``."""
    rho_sfg, rho_dark = scaled_filter_blocks(params, basis)
    return _block_correlators(gain * rho_sfg + rho_dark, thetas_a, thetas_b, effs)


def _one_pair(basis="A"):
    """The one-pair state gamma_1H gamma_2H |HH> - gamma_1V gamma_2V |VV>,
    the one-pair sector of the |A>-heralded state (the populations of HH and
    VV, then the two coherences), or its twin with the coherences' sign of |D>."""
    sign = -1.0 if basis == "A" else 1.0
    return HeraldedEntries(
        index=tuple(np.array([(1, 1, 1, 1, 1, 1), (1, 0, 0, 1, 0, 0),
                              (1, 1, 0, 1, 1, 0), (1, 0, 1, 1, 0, 1)]).T),
        n_diagonal=2, sfg=np.array([1.0, 1.0, sign, sign]), dark=np.zeros(4), n=1,
        powers=np.array([(2, 0, 1, 1), (0, 2, 1, 1), (2, 0, 1, 1), (0, 2, 1, 1)]))


@pytest.mark.parametrize("basis", ["A", "D"])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_search_kernel_matches_block_readout_and_density_route(case, basis):
    # The kernel at random angles and pump strengths equals block_readout on
    # gain * rho_sfg + rho_dark over its trace, and the density route, to
    # 1e-13; the third angle of party a is the key-rate (QBER) row.
    params, effs, gain = KERNEL_CASES[case]
    rng = np.random.default_rng(11)
    kernel = _kernel(params, effs, gain, basis)
    for _ in range(3):
        mu = rng.uniform(0.005, 0.3, size=4)
        thetas_a = rng.uniform(-math.pi / 2, math.pi / 2, size=3)
        thetas_b = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
        local = _with_sources(params, mu)
        e = kernel.correlator_gradients(thetas_a, thetas_b, mu)[0]
        slow = _readout(local, basis, thetas_a, thetas_b, effs, gain)
        assert np.abs(e - slow).max() <= 1e-13
        rho_sfg, psi_in = sfg_heralded_operator(local, basis=basis, gain=gain)
        rho = heralded_state_with_dark(rho_sfg.scaled(local.window_acceptance), psi_in,
                                       local.dark)
        s = e[0, 0] + e[1, 0] + e[0, 1] - e[1, 1]
        settings_ = BellSettings(*thetas_a[:2], *thetas_b)
        assert s == pytest.approx(chsh_value(rho, settings_, efficiencies=effs), abs=1e-13)
        assert (1.0 - e[2, 0]) / 2.0 == pytest.approx(
            qber(rho, thetas_a[2], thetas_b[0], efficiencies=effs), abs=1e-13)


def _unhoisted_seed_objective(eta):
    # The CHSH value of cos(t)|HV> + sin(t)|VH> at x = (t, a1, a2, b1, b2),
    # measured by threshold detectors of efficiency eta (-1 only when the
    # H-arm detector clicks), in closed form from the click probabilities of
    # each party and of a double click, with each cosine and sine taken anew.
    def corr(t, a, b):
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

    return objective


@pytest.mark.parametrize("basis", ["A", "D"])
def test_one_pair_state_is_the_one_pair_sector_of_the_herald(basis):
    # The one-pair state (and its |D> twin) is the (N_d, N_e) = (1, 1) sector
    # of the heralded state, entry by entry up to order and a positive factor.
    def by_entry(entries):
        # weight of each entry, keyed by its (N_d, a, a', N_e, b, b') and powers
        keys = np.vstack(entries.index + tuple(entries.powers)).T.tolist()
        return dict(zip(map(tuple, keys), (entries.sfg + entries.dark).tolist()))

    sector = {key: weight for key, weight in by_entry(
        heralded_entries(_preset("ideal", pair_cap=2), basis)).items() if key[0] == key[3] == 1}
    one_pair = by_entry(_one_pair(basis))
    assert sector.keys() == one_pair.keys()
    factor = sector[(1, 1, 1, 1, 1, 1, 2, 0, 2, 0)]
    assert factor > 0.0
    for key, weight in one_pair.items():
        assert sector[key] == pytest.approx(factor * weight, rel=1e-14)
    # diagonal entries first, as HeraldedEntries lists them
    a, a2 = _one_pair().index[1:3]
    assert _one_pair().n_diagonal == 2 and (a == a2).tolist() == [True, True, False, False]


@pytest.mark.parametrize("eta", [0.5, 0.6669921875, 0.9, 1.0])
def test_seed_objective_is_the_one_pair_closed_form(eta):
    # The margin's objective on the one-pair kernel is the closed form at
    # t = atan2(gamma_H^2, gamma_V^2), mu = MU_FLOOR (1, r, 1, r), with party
    # a's angles less pi/2; its gradient is a central difference of it.
    kernel = SearchKernel(_one_pair(), _analyzer(eta, eta, eta, eta))
    objective = bell._chsh_objective(kernel, bell._margin_pump)
    closed = _unhoisted_seed_objective(eta)
    rng = np.random.default_rng(17)
    x = np.column_stack((rng.uniform(1e-4, 1.0, 12),
                         rng.uniform(-math.pi / 2, math.pi / 2, (12, 4))))
    x = np.vstack((bell._MARGIN_STARTS, x))
    values, grads = objective(x)
    for point, value, grad in zip(x, values.tolist(), grads):
        ratio, a1, a2, b1, b2 = point.tolist()
        g2_h, g2_v = (_gamma(np.array([bell.MU_FLOOR, bell.MU_FLOOR * ratio])) ** 2).tolist()
        t = math.atan2(g2_h, g2_v)
        assert abs(value - closed((t, a1 - math.pi / 2, a2 - math.pi / 2, b1, b2))) <= 1e-12
        for i in range(5):
            h = 1e-6 * ratio if i == 0 else 1e-6
            fd = _central_difference(lambda y: objective(y[None])[0][0], point, i, h)
            assert abs(fd - grad[i]) <= 1e-8


def test_threshold_search_builds_no_state_per_evaluation(monkeypatch):
    # Every evaluation of an efficiency-threshold search reads the search
    # kernel: the heralded entries are gathered once, each kernel call weighs
    # the gathered entries once by their source monomials (the weights the
    # swaps read too), and no swap readout runs.
    from sfgswap import protocols

    calls = dict.fromkeys(("heralded_entries", "monomials", "correlator_gradients",
                           "_visibility_report", "evaluations"), 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(bell, "heralded_entries")
    counted(HeraldedEntries, "monomials")
    counted(SearchKernel, "correlator_gradients")
    counted(protocols, "_visibility_report")
    real_maximize = bell.maximize_starts_bfgs

    def maximize(*args, **kwargs):
        runs = real_maximize(*args, **kwargs)
        calls["evaluations"] += sum(res.n_evaluations for res in runs)
        return runs
    monkeypatch.setattr(bell, "maximize_starts_bfgs", maximize)
    eta = efficiency_threshold(_preset("ideal", pair_cap=2), bracket=(0.6, 0.8), xtol=0.05)
    assert 0.6 < eta <= 0.8
    # every search from given starts, so the count is exact
    assert calls["evaluations"] == 824
    assert calls["heralded_entries"] == 1 and calls["_visibility_report"] == 0
    assert 0 < calls["monomials"] == calls["correlator_gradients"] < calls["evaluations"]


@pytest.mark.parametrize("case", ["ideal-2", "tableS1-3-dark", "tableS1-5"])
def test_search_kernel_stacked_points_match_lone_points(case):
    # A stack of points gives, bit for bit, what each point gives alone.
    params, effs, gain = KERNEL_CASES[case]
    rng = np.random.default_rng(2)
    kernel = _kernel(params, effs, gain)
    thetas_a = rng.uniform(-math.pi / 2, math.pi / 2, size=(6, 3))
    thetas_b = rng.uniform(-math.pi / 2, math.pi / 2, size=(6, 2))
    mu = rng.uniform(1e-4, 0.4, size=(6, 4))
    # each of (E, dE_a, dE_b, dE_mu)
    stacked = kernel.correlator_gradients(thetas_a, thetas_b, mu, np.eye(4))
    for i in range(6):
        alone = kernel.correlator_gradients(thetas_a[i], thetas_b[i], mu[i], np.eye(4))
        for many, one in zip(stacked, alone):
            assert np.array_equal(many[i], one)


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_pump_derivatives_are_the_chain_rule_of_the_per_mode_ones(case):
    # At stacked points, dE_y through a pump Jacobian dmu[k, j] = d mu_k / d y_j
    # of 1, 2 or 3 columns, one per point or one for all, is dmu applied to
    # the per-mode derivatives (the identity pump), to 1e-12 of its largest
    # entry; E, dE_a and dE_b do not depend on the pump.
    params, effs, gain = KERNEL_CASES[case]
    rng = np.random.default_rng(37)
    kernel = _kernel(params, effs, gain)
    thetas_a = rng.uniform(-math.pi / 2, math.pi / 2, size=(5, 3))
    thetas_b = rng.uniform(-math.pi / 2, math.pi / 2, size=(5, 2))
    mu = rng.uniform(1e-4, 0.4, size=(5, 4))
    *fixed, de_y = kernel.correlator_gradients(thetas_a, thetas_b, mu)
    assert de_y.shape == (5, 0, 3, 2)
    de_mu = kernel.correlator_gradients(thetas_a, thetas_b, mu, np.eye(4))[3]
    for n_y in (1, 2, 3):
        stacked = rng.normal(size=(5, 4, n_y))
        for dmu in (stacked, stacked[0]):
            *angles, de_y = kernel.correlator_gradients(thetas_a, thetas_b, mu, dmu)
            chain = np.einsum("...kj,...kpq->...jpq", dmu, de_mu)
            assert de_y.shape == chain.shape == (5, n_y, 3, 2)
            assert np.abs(de_y - chain).max() <= 1e-12 * np.abs(chain).max()
            for with_pump, without in zip(angles, fixed):
                assert np.abs(with_pump - without).max() <= 1e-15


@pytest.mark.parametrize("search, n_starts", [
    (lambda **kw: optimize_chsh(_preset("ideal"), free_mu=True, seed=0, **kw), 8),
    (lambda **kw: optimize_key_rate(_preset("paper-tableS1", pair_cap=2, **UNIT_ANALYZER),
                                    gain=3.0, seed=5, **kw), 3),
], ids=["chsh-free-mu", "key-rate"])
def test_lockstep_search_matches_each_start_alone(monkeypatch, search, n_starts):
    # Each start of a lockstep search ends where `optimize.bfgs_steps` ends
    # on that start alone, with the search's own objective at one point.  A
    # free-mu search goes on from the mirror image of its best point: one
    # more start, in a search of its own.
    real_maximize = optimize.maximize_starts_bfgs
    calls = []

    def maximize(objective, bounds, starts, **kwargs):
        calls.append(dict(objective=objective, bounds=bounds, starts=starts,
                          runs=real_maximize(objective, bounds, starts, **kwargs)))
        return calls[-1]["runs"]

    monkeypatch.setattr(optimize, "maximize_starts_bfgs", maximize)
    opt = search(n_starts=n_starts)
    runs = [run for call in calls for run in call["runs"]]
    assert len(calls[0]["runs"]) == n_starts
    assert len(runs) == n_starts + (len(calls) - 1)
    assert opt.n_evaluations == sum(run.n_evaluations for run in runs)
    assert opt.value == runs[opt.start_index].value
    for call in calls:
        lows, highs = np.array(call["bounds"]).T

        def minimand(x):
            values, grads = call["objective"](x[None])
            return -float(values[0]), -np.asarray(grads, dtype=float)[0]

        for start, run in zip(call["starts"], call["runs"]):
            x, f, nfev, converged = drive_one(optimize.bfgs_steps(start, lows, highs), minimand)
            assert np.array_equal(np.clip(x, lows, highs), run.x)
            assert (-f, nfev, converged) == (run.value, run.n_evaluations, run.converged)


def test_free_mu_search_goes_on_from_the_mirror_image(monkeypatch):
    # The second search starts at the H <-> V mirror image of the first
    # search's best point; on the measured sources at gain 3 a start with the
    # H pump strong ends at the optimum with the H pump strong, and only the
    # mirror search reaches the higher one with the V pump strong.
    real_maximize = optimize.maximize_starts_bfgs
    calls = []

    def maximize(objective, bounds, starts, **kwargs):
        calls.append((starts, real_maximize(objective, bounds, starts, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(optimize, "maximize_starts_bfgs", maximize)
    opt = optimize_chsh(_preset("paper-tableS1", **UNIT_ANALYZER), free_mu=True, gain=3.0,
                        n_starts=1, x0=(0.4, 0.25, 1.75, 0.98, 1.75, 0.98))
    (_, seeded), (mirror_starts, (mirrored,)) = calls
    best = optimize.best_run(seeded).x
    assert np.array_equal(mirror_starts[0], [best[1], best[0]] + [a + math.pi / 2
                                                                  for a in best[2:]])
    assert max(run.value for run in seeded) < mirrored.value == opt.value
    assert opt.start_index == 1
    assert opt.mu_h < opt.mu_v == pytest.approx(bell.MU_BOUNDS[1])


def test_free_mu_trace_lists_ln_mu():
    # One header; the seeded starts, then the mirror search as start
    # n_starts; x0 and x1 hold the search's own coordinates, ln mu_H and
    # ln mu_V, and the optimum's row gives the reported value and pump
    # strengths.
    stream = io.StringIO()
    opt = optimize_chsh(_preset("ideal"), free_mu=True, n_starts=3, seed=1, trace=stream)
    header, *rows = csv.reader(io.StringIO(stream.getvalue()))
    assert header == ["start", "iteration", "objective", "x0", "x1", "x2", "x3", "x4", "x5"]
    assert len(rows) == opt.n_evaluations
    assert sorted({int(r[0]) for r in rows}) == [0, 1, 2, 3]
    ln_mu = np.array([[float(v) for v in r[3:5]] for r in rows])
    # the box edges as printed: rounding to 12 digits keeps the order
    lo, hi = (float(f"{math.log(b):.12g}") for b in bell.MU_BOUNDS)
    assert (lo <= ln_mu).all() and (ln_mu <= hi).all()
    assert rows[0][3:5] == [f"{math.log(0.05):.12g}"] * 2
    best = max((r for r in rows if int(r[0]) == opt.start_index), key=lambda r: float(r[2]))
    assert float(best[2]) == pytest.approx(opt.value, abs=1e-11)
    assert [math.exp(float(v)) for v in best[3:5]] == pytest.approx([opt.mu_h, opt.mu_v],
                                                                    rel=1e-9)


@pytest.mark.parametrize("search", [
    lambda trace: optimize_chsh(_preset("paper-tableS1"), gain=3.0, n_starts=3, seed=2,
                                trace=trace),
    lambda trace: optimize_chsh(_preset("ideal"), free_mu=True, n_starts=3, seed=1,
                                trace=trace),
    lambda trace: optimize_key_rate(_preset("paper-tableS1", pair_cap=2, **UNIT_ANALYZER),
                                    gain=30.0, n_starts=3, seed=4, trace=trace),
], ids=["chsh", "chsh-free-mu", "key-rate"])
def test_tracing_changes_no_result(search):
    assert search(io.StringIO()) == search(None)


GRADIENT_CASES = {
    "ideal-2": (_preset("ideal", pair_cap=2), UNIT_EFFICIENCIES),
    "tableS1-3-dark": (_preset("paper-tableS1", dark=0.1), ASYMMETRIC),
    "fig-s3-asymmetric": (_preset("fig-s3", t_1h=0.6, t_1v=0.5, t_2h=0.7, t_2v=0.65,
                                  eta_th=0.8, eta_tv=0.9), ASYMMETRIC),
    # the one-pair state (``_one_pair``) near the critical efficiency
    "one-pair": (None, _analyzer(0.7, 0.7, 0.7, 0.7)),
}


def _central_difference(f, x, i, h):
    up, down = np.array(x, dtype=float), np.array(x, dtype=float)
    up[i] += h
    down[i] -= h
    return (f(up) - f(down)) / (2.0 * h)


@pytest.mark.parametrize("basis", ["A", "D"])
@pytest.mark.parametrize("case", list(GRADIENT_CASES))
def test_correlator_gradients_match_central_differences(case, basis):
    # Every derivative of every correlator, in the angles and the four
    # source strengths, against a central difference of the correlators.
    params, effs = GRADIENT_CASES[case]
    rng = np.random.default_rng(13)
    kernel = (SearchKernel(_one_pair(basis), effs) if params is None
              else _kernel(params, effs, basis=basis))
    for _ in range(3):
        thetas_a = rng.uniform(-math.pi / 2, math.pi / 2, size=3)
        thetas_b = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
        mu = rng.uniform(0.005, 0.3, size=4)
        e, de_a, de_b, de_mu = kernel.correlator_gradients(thetas_a, thetas_b, mu, np.eye(4))
        for p in range(3):
            fd = _central_difference(lambda t: kernel.correlator_gradients(t, thetas_b, mu)[0],
                                     thetas_a, p, 1e-6)
            assert np.abs(fd[p] - de_a[p]).max() <= 1e-8
            assert np.abs(np.delete(fd, p, axis=0)).max() <= 1e-8
        for q in range(2):
            fd = _central_difference(lambda t: kernel.correlator_gradients(thetas_a, t, mu)[0],
                                     thetas_b, q, 1e-6)
            assert np.abs(fd[:, q] - de_b[:, q]).max() <= 1e-8
            assert np.abs(np.delete(fd, q, axis=1)).max() <= 1e-8
        for k in range(4):
            # a relative step: rounding of E over the step stays near 1e-10
            fd = _central_difference(
                lambda m: kernel.correlator_gradients(thetas_a, thetas_b, m)[0],
                mu, k, 1e-5 * mu[k])
            assert np.abs(fd - de_mu[k]).max() <= 1e-8
        # The correlators are those of block_readout on the state at these
        # sources.
        if params is None:
            entries = _one_pair(basis)
            slow = _block_correlators(dense_block(entries, entries.sfg * entries.monomials(mu)),
                                      thetas_a, thetas_b, effs)
        else:
            slow = _readout(_with_sources(params, mu), basis, thetas_a, thetas_b, effs, 1.0)
        assert np.abs(e - slow).max() <= 1e-13


@pytest.mark.parametrize("preset", ["ideal", "paper-tableS1"])
def test_free_mu_objective_matches_central_differences(preset):
    # The free-mu search's gradient in (ln mu_H, ln mu_V, a1, a2, b1, b2),
    # through the shared pump's Jacobian, against a central difference of its
    # values, at random points with the pump strengths inside MU_BOUNDS.
    objective = bell._chsh_objective(_kernel(_preset(preset, **UNIT_ANALYZER)),
                                     bell._free_mu_pump)
    rng = np.random.default_rng(41)
    x = np.column_stack((rng.uniform(*np.log(bell.MU_BOUNDS), size=(8, 2)),
                         rng.uniform(-math.pi / 2, math.pi / 2, size=(8, 4))))
    _, grads = objective(x)
    for point, grad in zip(x, grads):
        for i in range(6):
            fd = _central_difference(lambda y: objective(y[None])[0][0], point, i, 1e-6)
            assert abs(fd - grad[i]) <= 1e-8


def test_threshold_searches_match_or_beat_the_simplex_margins(monkeypatch):
    # The gradient searches reach the simplex searches' optima: at every
    # efficiency the threshold search evaluates, the margin is no lower than a
    # Nelder-Mead search from the same starts (less 1e-11).  Each efficiency
    # runs one search, and near the critical efficiency its optimum is weakly
    # entangled.
    params = _preset("ideal", pair_cap=2)
    etas, visited = [], []
    real_maximize = bell.maximize_starts_bfgs
    real_threshold = bell.monotone_threshold

    def maximize(objective, bounds, starts):
        runs = real_maximize(objective, bounds, starts)
        visited.append((objective, bounds, starts, optimize.best_run(runs)))
        return runs

    def threshold(margin, *args):
        def recorded_margin(eta):
            etas.append(eta)
            return margin(eta)
        return real_threshold(recorded_margin, *args)

    monkeypatch.setattr(bell, "maximize_starts_bfgs", maximize)
    monkeypatch.setattr(bell, "monotone_threshold", threshold)
    eta = efficiency_threshold(params, bracket=(0.6, 0.8), xtol=0.05)
    assert eta == 0.6749999999999999
    assert len(etas) == len(visited) == 9
    for eta, (objective, bounds, starts, best) in zip(etas, visited):
        # Nelder-Mead in the simplex searches' own box; the angles there are
        # the same up to their period
        box = [bounds[0]] + _angle_bounds(4)
        wrapped = [(x[0],) + tuple((a + math.pi / 2) % math.pi - math.pi / 2 for a in x[1:])
                   for x in starts]
        simplex = max(run.value for run in maximize_starts(
            lambda x: objective(x)[0], box, wrapped, xatol=1e-6))
        assert best.value >= simplex - 1e-11
        if eta <= 0.7:
            assert best.x[0] < 0.5  # the pump ratio mu_V / mu_H


def _ideal_analyzer(**kwargs):
    """Measured sources with an ideal analyzer chain."""
    return _preset("paper-tableS1", eta_th=1.0, eta_tv=1.0, eta_d=1.0, eta_1h=1.0, eta_1v=1.0,
                   eta_2h=1.0, eta_2v=1.0, window_acceptance=1.0, **kwargs)


# (parameters, gain, seed, number of starts)
SIMPLEX_CASES = {
    "ideal": (_preset("ideal"), 1.0, 5, 3),
    "tableS1-gain3": (_preset("paper-tableS1", **UNIT_ANALYZER), 3.0, 5, 3),
    # the CLI's defaults on a unit analyzer: the seeded starts of a free-mu
    # search all end at the lower of the two mirror optima, and the simplex
    # reaches the higher
    "tableS1-gain3-seed0": (_preset("paper-tableS1", **UNIT_ANALYZER), 3.0, 0, 8),
    "ideal-analyzer-gain10": (_ideal_analyzer(), 10.0, 5, 3),
    "ideal-analyzer-gain300": (_ideal_analyzer(), 300.0, 5, 3),
    "fig-s3": (_preset("fig-s3"), 1.0, 5, 3),
}


@pytest.mark.parametrize("search", ["chsh", "chsh-free-mu", "key-rate"])
@pytest.mark.parametrize("case", list(SIMPLEX_CASES))
def test_searches_match_or_beat_the_simplex(monkeypatch, case, search):
    # From the same starts, the best projected-BFGS optimum is no lower than
    # the best Nelder-Mead optimum (less 1e-12), the simplex run as these
    # searches ran it before: over the angles in one period and over mu (not
    # ln mu) in bell.MU_BOUNDS, each vertex clipped into that box, to xatol 1e-6
    # and fatol 1e-12.
    params, gain, seed, n_starts = SIMPLEX_CASES[case]
    captured = {}
    real_maximize = optimize.maximize_starts_bfgs

    def maximize(objective, bounds, starts, **kwargs):
        # the seeded starts; a free-mu search's mirror search comes after
        captured.setdefault("objective", objective)
        captured.setdefault("starts", starts)
        return real_maximize(objective, bounds, starts, **kwargs)

    monkeypatch.setattr(optimize, "maximize_starts_bfgs", maximize)
    if search == "key-rate":
        opt = optimize_key_rate(params, gain=gain, n_starts=n_starts, seed=seed)
    else:
        opt = optimize_chsh(params, free_mu=search == "chsh-free-mu", gain=gain,
                            n_starts=n_starts, seed=seed)
    starts, objective = captured["starts"], captured["objective"]
    box = _angle_bounds(len(starts[0]))
    if search == "chsh-free-mu":
        box[:2] = [bell.MU_BOUNDS] * 2
        starts = [np.concatenate((np.exp(x[:2]), x[2:])) for x in starts]
        simplex = maximize_starts(
            lambda x: objective(np.concatenate((np.log(x[:, :2]), x[:, 2:]), axis=1))[0],
            box, starts)
    else:
        simplex = maximize_starts(lambda x: objective(x)[0], box, starts)
    assert opt.value >= max(run.value for run in simplex) - 1e-12


def _key_rate_search(monkeypatch, params, gain):
    """The objective of a one-start key-rate search on ``params`` and the
    point the search ends at."""
    captured = {}
    real_maximize = optimize.maximize_starts_bfgs

    def maximize(objective, bounds, starts, **kwargs):
        captured["objective"] = objective
        return real_maximize(objective, bounds, starts, **kwargs)

    monkeypatch.setattr(optimize, "maximize_starts_bfgs", maximize)
    opt = optimize_key_rate(params, gain=gain, n_starts=1)
    s = opt.settings
    return captured["objective"], np.array(
        [s.theta_a0, s.theta_a1, s.theta_a2, s.theta_b1, s.theta_b2])


def test_key_rate_gradient_matches_central_differences(monkeypatch):
    # The key-rate search's gradient, dr/dS dS + dr/dQ dQ, against a central
    # difference of its values, at angles near the search's optimum and at
    # random, on either side of S = 2 but away from it, from S = 2 sqrt 2
    # and from Q = 0 (and Q = 1), where the slopes are clamped.
    rng = np.random.default_rng(23)
    violating = 0
    for params, gain in ((_preset("ideal", pair_cap=2), 1.0), (_ideal_analyzer(), 30.0),
                         (_preset("paper-tableS1", dark=0.1), 3.0)):
        objective, optimum = _key_rate_search(monkeypatch, params, gain)
        points = np.concatenate((optimum + rng.normal(scale=0.2, size=(30, 5)),
                                 rng.uniform(-math.pi / 2, math.pi / 2, size=(30, 5))))
        e = _kernel(params, gain=gain).correlator_gradients(points[:, [1, 2, 0]], points[:, 3:5],
                                                            _source_mu(params))[0]
        s = e[:, 0, 0] + e[:, 1, 0] + e[:, 0, 1] - e[:, 1, 1]
        q = (1.0 - e[:, 2, 0]) / 2.0
        away = ((abs(s - 2.0) > 0.02) & (s < TSIRELSON - 0.02)
                & (abs(q - 0.5) < 0.5 - 0.01))
        assert away.sum() >= 20
        violating += (s[away] > 2.0).sum()
        _, grads = objective(points[away])
        for x, grad in zip(points[away], grads):
            for i in range(5):
                fd = _central_difference(lambda y: objective(y[None])[0][0], x, i, 1e-6)
                assert abs(fd - grad[i]) <= 1e-8
    assert violating >= 10


@pytest.mark.parametrize("e,q", [(1.0 + 1e-15, 0.0), (-1.0 - 1e-15, 1.0), (-1.0, 1.0), (0.5, 0.25)])
def test_qber_is_clamped_to_the_unit_interval(e, q):
    # Rounding can leave a correlator an ulp outside [-1, 1]; the QBER stays
    # in [0, 1], where binary_entropy and the rate are defined.
    assert _qber(e) == q
    assert dw_key_rate(2.5, _qber(e)) == pytest.approx(1.0 - binary_entropy(q) - holevo_chsh(2.5))
    assert dw_key_rate_slopes(2.5, _qber(e))[1] == (0.0 if q in (0.0, 1.0) else math.log2(1 / 3))


def test_key_rate_reports_the_qber_after_the_key_bit_flip():
    # From the mirror image of the canonical start (Alice's key analyzer
    # turned by pi/2) the search ends where Q > 1/2, from the canonical start
    # where Q < 1/2.  The reported QBER is min(Q, 1 - Q) and the rate is
    # that of the raw Q, which h leaves alone.
    params = _preset("ideal")
    kernel = _kernel(params)
    flipped = 0
    for key_angle in (math.pi / 2, 0.0):
        opt = optimize_key_rate(params, n_starts=1, x0=(key_angle,) + CANONICAL_X0)
        settings_ = opt.settings
        e = kernel.correlator_gradients(
            (settings_.theta_a1, settings_.theta_a2, settings_.theta_a0),
            (settings_.theta_b1, settings_.theta_b2), _source_mu(params))[0]
        raw = _qber(e[2, 0])
        flipped += raw > 0.5
        assert opt.q <= 0.5
        assert opt.q == pytest.approx(min(raw, 1.0 - raw), abs=1e-14)
        assert opt.value == pytest.approx(dw_key_rate(opt.s, raw), abs=1e-12)
    assert flipped == 1


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("gain", [3.0, 30.0, 50.0])
def test_key_rate_optimum_is_the_rate_of_its_own_s_and_q(gain, seed):
    # The reported S and Q are read at the optimum through the search's own
    # path, so the rate is exactly that of the reported pair.
    opt = optimize_key_rate(_preset("paper-tableS1", **UNIT_ANALYZER), gain=gain, seed=seed,
                            n_starts=2)
    assert opt.value == dw_key_rate(opt.s, opt.q)


def test_dw_key_rate_slopes_at_the_clamps():
    # Finite one-sided slopes where dw_key_rate is clamped: zero on the flat
    # side of S = 2, of S = 2 sqrt 2 and of Q = 0 (and Q = 1); at S = 2 the
    # limit from above.
    ln2 = math.log(2.0)
    assert dw_key_rate_slopes(1.9, 0.0) == (0.0, 0.0)
    assert dw_key_rate_slopes(2.0, 1.0) == (pytest.approx(1.0 / (2.0 * ln2), rel=1e-15), 0.0)
    assert dw_key_rate_slopes(TSIRELSON, 0.25)[0] == 0.0
    assert dw_key_rate_slopes(3.0, 0.25) == (0.0, math.log2(1.0 / 3.0))
    for s in (2.0 + 1e-15, np.nextafter(TSIRELSON, 0.0), TSIRELSON - 1e-12):
        for q in (1e-300, 0.5, 1.0 - 1e-16):
            assert all(map(math.isfinite, dw_key_rate_slopes(s, q)))


# Criterion 7b's state (measured sources, unit analyzer arms and window)
# without dark counts, where the key-rate search has a local optimum, and
# the rate a 128-start search reaches there (S = 2.57229, Q = 0.03924).
_LOCAL_OPTIMUM_CASE = dict(UNIT_ANALYZER, window_acceptance=1.0, dark=0.0)
_WIDE_KEY_RATE = 0.30633488363910


def test_a_wide_key_rate_search_reaches_the_better_optimum():
    opt = optimize_key_rate(_preset("paper-tableS1", **_LOCAL_OPTIMUM_CASE), n_starts=128, seed=0)
    assert opt.value == pytest.approx(_WIDE_KEY_RATE, abs=1e-9)
    assert (opt.s, opt.q) == (pytest.approx(2.57229, abs=5e-6), pytest.approx(0.03924, abs=5e-6))


@pytest.mark.xfail(strict=True,
                   reason="the default 8-start search ends at the local optimum "
                          "r = 0.24612 (see the decisions ledger)")
def test_the_default_key_rate_search_reaches_the_better_optimum():
    opt = optimize_key_rate(_preset("paper-tableS1", **_LOCAL_OPTIMUM_CASE))
    assert opt.value == pytest.approx(_WIDE_KEY_RATE, abs=1e-9)
