"""Acceptance gate: one test per published figure of merit.

Each test prints a single pass/fail line with the measured value and the
tolerance it was held to.  Tests marked xfail are honest misses: the model
disagrees with the published rounded figure and the measured value is
reported instead of being tuned to match.
"""

import math
import time

import numpy as np
import pytest

from branch_route import error_event_probs_simulated
from dense_oracle import run_oracle_suite
from sfgswap.bell import efficiency_threshold, optimize_chsh, sfg_gain_threshold
from sfgswap.efficiency import (
    CrystalParams,
    SfgBenchInputs,
    SpectralProfile,
    fidelity_lower_bound,
    sfg_eff_effective,
    sfg_eff_from_counts,
    sfg_eff_theoretical,
)
from sfgswap.presets import get_preset, swap_params
from sfgswap.protocols import error_event_probs, lo_swap, sfg_swap


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def table_s1_params():
    return swap_params(get_preset("paper-tableS1")["params"])


def ideal_params():
    return swap_params(get_preset("ideal")["params"])


def ideal_analyzer_params():
    """Measured sources with an ideal analyzer chain and dark counts kept."""
    return table_s1_params().replace(
        eta_th=1.0, eta_tv=1.0, eta_d=1.0,
        eta_1h=1.0, eta_1v=1.0, eta_2h=1.0, eta_2v=1.0,
        window_acceptance=1.0)


def test_criterion_1_visibility_reproduction():
    t0 = time.perf_counter()
    rep = sfg_swap(table_s1_params())
    elapsed = time.perf_counter() - t0
    ok = (0.775 <= rep.v_z <= 0.785 and 0.755 <= rep.v_x <= 0.765
          and elapsed < 60.0)
    report(1, ok, f"V_Z={rep.v_z:.6f} in [0.775, 0.785], "
                  f"V_X={rep.v_x:.6f} in [0.755, 0.765], "
                  f"runtime {elapsed:.1f}s < 60s")
    assert 0.775 <= rep.v_z <= 0.785
    assert 0.755 <= rep.v_x <= 0.765
    assert elapsed < 60.0


def test_criterion_1_visibilities_fall_with_the_truncation():
    # Criterion 1 passes only at the presets' pair_cap 3.  Each added pair
    # lowers both visibilities, by less each time, towards V_Z = 0.7301 and
    # V_X = 0.7095; from pair_cap 4 on V_Z lies below the window.
    reps = [sfg_swap(table_s1_params().replace(pair_cap=cap)) for cap in range(3, 8)]
    v_z, v_x = [rep.v_z for rep in reps], [rep.v_x for rep in reps]
    steps = [np.diff(v_z), np.diff(v_x)]
    ok = all((s < 0.0).all() and (np.diff(np.abs(s)) < 0.0).all() for s in steps)
    report("1 (truncation)", ok,
           "at pair_cap 3..7 V_Z = " + ", ".join(f"{v:.6f}" for v in v_z)
           + " and V_X = " + ", ".join(f"{v:.6f}" for v in v_x)
           + " fall by shrinking steps; V_Z misses [0.775, 0.785] from pair_cap 4")
    assert v_z == pytest.approx([0.778402, 0.742081, 0.732455, 0.730457, 0.730116], abs=5e-7)
    assert v_x == pytest.approx([0.758999, 0.721884, 0.711963, 0.709881, 0.709520], abs=5e-7)
    assert ok
    assert not 0.775 <= v_z[1] <= 0.785


def test_criterion_2_fidelity_bound():
    f = fidelity_lower_bound(0.833, 0.706)
    ok = abs(f - 0.7695) <= 1e-12
    report(2, ok, f"F_low(0.833, 0.706) = {f:.15f}, target 0.7695 +/- 1e-12")
    assert abs(f - 0.7695) <= 1e-12


def test_criterion_3_sfg_efficiencies():
    eff = get_preset("paper-table1")["efficiency"]
    lam_a, lam_b, f = eff["lambda_a"], eff["lambda_b"], eff["rep_rate"]
    measured = {}
    for row, target in (("h", 2.31e-8), ("v", 2.35e-8)):
        bench = SfgBenchInputs(
            c_sfg=eff[f"bench_{row}.c_sfg"], eta_t=eff[f"bench_{row}.eta_t"],
            eta_d=eff[f"bench_{row}.eta_d"], p_a=eff[f"bench_{row}.p_a"],
            p_b=eff[f"bench_{row}.p_b"], lambda_a=lam_a, lambda_b=lam_b, f=f)
        measured[row] = (sfg_eff_from_counts(bench), target, 0.01)
    crystal = CrystalParams(eta_shg=eff["crystal.eta_shg"],
                            length_cm=eff["crystal.length_cm"],
                            delta_nu_hat=eff["crystal.delta_nu_hat"],
                            tbp=eff["crystal.tbp"], lam=eff["crystal.lam"])
    eta_th = sfg_eff_theoretical(crystal)
    measured["theory"] = (eta_th, 4.16e-8, 0.01)
    prof_a = SpectralProfile(eff["profile_a.center_nm"], eff["profile_a.fwhm_nm"])
    prof_b = SpectralProfile(eff["profile_b.center_nm"], eff["profile_b.fwhm_nm"])
    center = 1.0 / (1.0 / prof_a.center_nm + 1.0 / prof_b.center_nm)
    prof_pm = SpectralProfile(center, eff["profile_pm.fwhm_nm"])
    measured["effective"] = (sfg_eff_effective(eta_th, prof_a, prof_b, prof_pm),
                             2.42e-8, 0.02)
    ok = all(abs(v - t) <= tol * t for v, t, tol in measured.values())
    detail = ", ".join(f"{k}={v:.4g} vs {t:.3g} (+/-{tol:.0%})"
                       for k, (v, t, tol) in measured.items())
    report(3, ok, detail)
    for key, (value, target, tol) in measured.items():
        assert abs(value - target) <= tol * target, key


def test_criterion_4_tsirelson_saturation():
    res = optimize_chsh(ideal_params(), free_mu=True, n_starts=8, seed=0)
    ok = 2.8283 <= res.value <= 2.8285
    report(4, ok, f"optimized S = {res.value:.6f} in [2.8283, 2.8285]")
    assert 2.8283 <= res.value <= 2.8285


def test_criterion_5_detection_efficiency_threshold():
    eta = efficiency_threshold(ideal_params())
    ok = abs(eta - 0.68) <= 0.01
    report(5, ok, f"threshold efficiency = {eta:.4f}, target 0.68 +/- 0.01")
    assert abs(eta - 0.68) <= 0.01


@pytest.fixture(scope="module")
def current_experiment_chsh():
    params = ideal_analyzer_params()
    r1 = optimize_chsh(params, n_starts=8, seed=0)
    x0 = (r1.settings.theta_a1, r1.settings.theta_a2,
          r1.settings.theta_b1, r1.settings.theta_b2)
    r3 = optimize_chsh(params, n_starts=4, seed=0, gain=3.0, x0=x0)
    return r1.value, r3.value


@pytest.mark.xfail(strict=True,
                   reason="model yields S = 1.8593, just below the 1.88 +/- "
                          "0.02 window; the gap traces to the multi-pair "
                          "sector weight (see the decisions ledger)")
def test_criterion_6_current_experiment_chsh(current_experiment_chsh):
    s1, _ = current_experiment_chsh
    ok = abs(s1 - 1.88) <= 0.02
    report(6, ok, f"optimized S = {s1:.5f}, target 1.88 +/- 0.02")
    assert abs(s1 - 1.88) <= 0.02


def test_criterion_6_gain_three_violates(current_experiment_chsh):
    _, s3 = current_experiment_chsh
    ok = s3 > 2.0
    report(6, ok, f"optimized S at gain 3 = {s3:.5f} > 2")
    assert s3 > 2.0


@pytest.mark.xfail(strict=True,
                   reason="model crosses r > 0 near gain 10, far below the "
                          "published factor 50; the S(gain) curve matches "
                          "but the implied QBER does not (see ledger)")
def test_criterion_7_gain_threshold_ideal_collection():
    params = ideal_analyzer_params()
    gain = sfg_gain_threshold(params, bracket=(3.0, 80.0), rtol=0.02)
    ok = abs(gain - 50.0) <= 0.2 * 50.0
    report(7, ok, f"gain threshold (ideal collection) = {gain:.2f}, "
                  f"target 50 +/- 20%")
    assert abs(gain - 50.0) <= 0.2 * 50.0


@pytest.mark.xfail(strict=True,
                   reason="model crosses r > 0 near gain 28 versus the "
                          "published 140; the 2.8x ratio between the two "
                          "cases matches the published one (see ledger)")
def test_criterion_7_gain_threshold_measured_collection():
    params = table_s1_params().replace(
        eta_1h=1.0, eta_1v=1.0, eta_2h=1.0, eta_2v=1.0,
        window_acceptance=1.0)
    gain = sfg_gain_threshold(params, bracket=(8.0, 220.0), rtol=0.02)
    ok = abs(gain - 140.0) <= 0.2 * 140.0
    report(7, ok, f"gain threshold (measured collection) = {gain:.2f}, "
                  f"target 140 +/- 20%")
    assert abs(gain - 140.0) <= 0.2 * 140.0


def test_criterion_8_error_event_law():
    worst = 0.0
    for gamma in np.linspace(0.05, 0.3, 5):
        for t in np.linspace(0.1, 0.9, 5):
            sim = error_event_probs_simulated(float(gamma), float(t))
            ref = error_event_probs(float(gamma), float(t))
            worst = max(worst,
                        abs(sim[0] - ref[0]) / ref[0],
                        abs(sim[1] - ref[1]) / ref[1],
                        abs(sim[0] / sim[1] - 2.0) / 2.0)
    ok = worst < 1e-6
    report(8, ok, f"worst relative error over 5x5 grid = {worst:.2e} < 1e-6, "
                  f"ratio pinned at 2:1")
    assert worst < 1e-6


@pytest.fixture(scope="module")
def loss_sweep():
    base = swap_params(get_preset("fig-s3")["params"])
    rows = []
    for loss in np.linspace(0.0, 0.9, 10):
        t = 1.0 - float(loss)
        p = base.replace(t_1h=t, t_1v=t, t_2h=t, t_2v=t)
        rows.append((float(loss), sfg_swap(p), lo_swap(p)))
    return rows


def test_criterion_9_sfg_flat_lo_monotone(loss_sweep):
    sfg_vz = [r[1].v_z for r in loss_sweep]
    sfg_vx = [r[1].v_x for r in loss_sweep]
    lo_vz = [r[2].v_z for r in loss_sweep]
    lo_vx = [r[2].v_x for r in loss_sweep]
    sfg_span = max(max(sfg_vz) - min(sfg_vz), max(sfg_vx) - min(sfg_vx))
    lo_monotone = all(b <= a + 1e-12 for a, b in zip(lo_vz, lo_vz[1:])) and \
        all(b <= a + 1e-12 for a, b in zip(lo_vx, lo_vx[1:]))
    ok = sfg_span < 0.01 and lo_monotone
    report(9, ok, f"SFG visibility span = {sfg_span:.2e} < 0.01; "
                  f"LO visibilities monotone decreasing: {lo_monotone}")
    assert sfg_span < 0.01
    assert lo_monotone


@pytest.mark.xfail(strict=True,
                   reason="at mean photon number 0.05 the attainable LO "
                          "visibility drop is about 0.09, just under the "
                          "0.1 clause (see ledger)")
def test_criterion_9_lo_drop_exceeds_tenth(loss_sweep):
    lo_vz = [r[2].v_z for r in loss_sweep]
    lo_vx = [r[2].v_x for r in loss_sweep]
    drop = max(lo_vz[0] - lo_vz[-1], lo_vx[0] - lo_vx[-1])
    ok = drop > 0.1
    report(9, ok, f"largest LO visibility drop = {drop:.4f}, clause > 0.1")
    assert drop > 0.1


def test_criterion_10_oracle_equivalence():
    n_cases, max_err = run_oracle_suite(n_cases=1000, seed=11)
    ok = n_cases >= 1000 and max_err < 1e-10
    report(10, ok, f"{n_cases} randomized cases, worst deviation "
                   f"{max_err:.2e} < 1e-10")
    assert n_cases >= 1000
    assert max_err < 1e-10


def test_criterion_11_desk_scale_exclusions():
    # Measured tomography fidelities (0.9163, 0.890, 0.770(76)), detector
    # jitter analysis, and the six-photon rate comparison depend on
    # laboratory data or external derivations and are out of scope; the
    # model-level behavior they summarize is covered by criteria 8-10.
    report(11, True, "excluded measured-data items documented; covered by "
                     "property criteria 8-10")
