"""End-to-end swapping, teleportation, and error-event pipelines."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

from dense_oracle import TSIRELSON, dense_density, faithful_chsh_bound, product_basis, vacuum_share
from density_route import (
    DensityOperator,
    apply_loss,
    branch_heralding_filter,
    branch_lo_swap,
    apply_sfg_first_order,
    coincidence_tables,
    dense_block,
    herald_projection,
    heralded_state_with_dark,
    joint_click_pattern_probs,
    kraus_parity_check,
    one_photon_fidelity,
    sandwich,
    scaled_filter_blocks,
    sfg_heralded_operator,
    unitary_column_map,
)
from branch_route import (
    OUTPUT_REGISTER,
    DetectorModel,
    PureState,
    _coherent_state,
    branch_qfc_teleport,
    branch_teleport,
    c_losses,
    channel_losses,
    error_event_probs_simulated,
    extend_state,
    herald_amplitude_branches,
    qfc_mode_transform,
    scaled_sfg,
    tensor,
    tmsv_pair,
)
from sfgswap import protocols
from sfgswap.bell import SearchKernel
from sfgswap.presets import PARAM_KEYS, get_preset, swap_params
from sfgswap.protocols import (
    ExperimentParams,
    _bounded_rows,
    _gamma,
    _source_mu,
    _source_norm,
    _visibility_x,
    _visibility_z,
    error_event_probs,
    heralded_entries,
    lo_swap,
    qfc_teleport_strong_pump,
    sfg_swap,
    teleport,
)


def ideal_params(mu_h=0.05, mu_v=0.05, **kwargs):
    return ExperimentParams(mu_1h=mu_h, mu_1v=mu_v, mu_2h=mu_h, mu_2v=mu_v,
                            sfg_h=1.0, sfg_v=1.0, **kwargs)


@pytest.mark.parametrize("pair_cap", [2.5, 3.0, "3"])
def test_experiment_params_rejects_non_integer_pair_cap_by_name(pair_cap):
    with pytest.raises(ValueError, match="pair_cap must be an integer"):
        ideal_params(pair_cap=pair_cap)


@pytest.mark.parametrize("pair_cap", [11, 60])
def test_experiment_params_rejects_pair_cap_above_the_maximum_by_name(pair_cap):
    # The layouts grow as about pair_cap ** 8: refused before any allocation.
    with pytest.raises(ValueError, match=f"pair_cap must be at most 10, got {pair_cap}"):
        ideal_params(pair_cap=pair_cap)


def test_experiment_params_accepts_pair_cap_up_to_the_maximum():
    assert ideal_params(pair_cap=10).pair_cap == 10


@pytest.mark.parametrize("dark", [-0.1, 1.0, float("nan")])
def test_experiment_params_rejects_bad_dark_by_name(dark):
    # A dark-count probability of 1 would leave no photon herald to weigh.
    with pytest.raises(ValueError, match=r"dark must be in \[0, 1\)"):
        ideal_params(dark=dark)


@pytest.mark.parametrize("value", ["0.5", None, 1j, True, False])
@pytest.mark.parametrize("key", PARAM_KEYS)
def test_experiment_params_rejects_a_non_number_by_name(key, value):
    # Built in the library, not parsed from a config: refused with the field
    # and the value, not with a bare TypeError from a comparison.  A bool is
    # an int, but a flag is not a number: True is not read as 1.
    kind = "an integer" if key == "pair_cap" else "a number"
    with pytest.raises(ValueError, match=f"^{key} must be {kind}, got {re.escape(repr(value))}"):
        ExperimentParams(**{key: value})


_EFFICIENCY = st.floats(0.05, 1.0)


@st.composite
def _experiments(draw):
    """Lossless-channel experiments with every other efficiency drawn."""
    mu = [draw(st.floats(1e-3, 0.3)) for _ in range(4)]
    names = ("eta_th", "eta_tv", "eta_1h", "eta_1v", "eta_2h", "eta_2v", "eta_d",
             "window_acceptance")
    return ExperimentParams(**dict(zip(("mu_1h", "mu_1v", "mu_2h", "mu_2v"), mu)),
                            sfg_h=draw(_EFFICIENCY), sfg_v=draw(_EFFICIENCY),
                            dark=draw(st.floats(0.0, 1e-3)),
                            pair_cap=draw(st.integers(2, 3)),
                            **{name: draw(_EFFICIENCY) for name in names})


@settings(max_examples=100, deadline=None)
@given(params=_experiments(), s=_EFFICIENCY)
def test_swap_reports_are_physical_and_the_herald_scales_with_the_channels(params, s):
    # Visibilities are correlators of +/-1 outcomes and the herald is a
    # probability, for both analyzers; the photon herald of the SFG swap
    # needs one photon through each channel, so a uniform channel
    # transmittance s scales it by s^2.
    lossy = params.replace(**dict.fromkeys(("t_1h", "t_1v", "t_2h", "t_2v"), s))
    sfg, sfg_lossy = sfg_swap(params), sfg_swap(lossy)
    for report in (sfg, sfg_lossy, lo_swap(params), lo_swap(lossy)):
        assert abs(report.v_z) <= 1.0 and abs(report.v_x) <= 1.0
        assert 0.0 < report.herald_prob <= 1.0
    assert sfg_lossy.herald_prob == pytest.approx(s * s * sfg.herald_prob, rel=1e-12, abs=0.0)


def _least_eigenvalue_ratios(entries, rho):
    """The least eigenvalue of each (N_d, N_e) block of the state with
    weights ``rho`` on ``entries``, over the block's trace (0 on an empty
    block)."""
    k = entries.n + 1
    blocks = dense_block(entries, rho).transpose(0, 3, 1, 4, 2, 5).reshape(k, k, k * k, k * k)
    least = np.linalg.eigvalsh(blocks)[..., 0]
    trace = np.trace(blocks, axis1=-2, axis2=-1)
    return np.divide(least, trace, out=np.zeros_like(least), where=trace > 0.0)


@settings(max_examples=100, deadline=None)
@given(params=_experiments(), eta_bsa=_EFFICIENCY)
def test_every_block_of_both_heralded_states_is_psd(params, eta_bsa):
    # The heralded state each swap reads, on both SFG herald bases and
    # through the linear-optical analyzer, is a density operator: every
    # photon-number block is positive semidefinite to 1e-12 of its trace.
    with pytest.MonkeyPatch.context() as mp:
        seen = _read_swaps(mp)
        sfg_swap(params, "A")
        sfg_swap(params, "D")
        lo_swap(params, eta_bsa)
    assert len(seen) == 3
    for entries, rho in seen:
        assert _least_eigenvalue_ratios(entries, rho).min() >= -1e-12


_ANGLES = st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=4, max_size=4)
_MU = st.lists(st.floats(1e-3, 0.3), min_size=4, max_size=4)


@settings(max_examples=100, deadline=None)
@given(params=_experiments(), basis=st.sampled_from("AD"), eta_bsa=_EFFICIENCY,
       thetas=_ANGLES, mu=_MU)
def test_swap_tables_are_the_dense_readout_and_chsh_is_bounded(params, basis, eta_bsa,
                                                               thetas, mu):
    # The gathered readout of both swaps equals block_readout of the dense
    # block density (the scaled entries for the SFG herald, the pure branches
    # for the linear-optical one), to 1e-13 of the herald probability; and the
    # search kernel's CHSH value on the entries of either herald obeys
    # Tsirelson's bound at any angles and sources, and the tighter bound of
    # its vacuum share, where a party with no photon has a fixed outcome.
    sfg, lo = sfg_swap(params, basis), lo_swap(params, eta_bsa)
    lo_ref = branch_lo_swap(params, eta_bsa)
    for rep, ref in ((sfg, coincidence_tables(sum(scaled_filter_blocks(params, basis)), params)),
                     (lo, {"z": lo_ref.p_z, "x": lo_ref.p_x})):
        for name, table in (("z", rep.p_z), ("x", rep.p_x)):
            for ij, p in ref[name].items():
                assert abs(table[ij] - p) <= 1e-13 * rep.herald_prob
    mu = np.array(mu)
    for entries in (heralded_entries(params, basis), heralded_entries(params, "lo", eta_bsa)):
        e = SearchKernel(entries, params).correlator_gradients(thetas[:2], thetas[2:], mu)[0]
        s = abs(e[0, 0] + e[1, 0] + e[0, 1] - e[1, 1])
        # rounding may put a correlator an ulp past its exact value
        assert s <= TSIRELSON + 1e-12
        assert s <= faithful_chsh_bound(vacuum_share(entries, mu)) + 1e-12


def test_rounding_leaves_no_probability_below_zero():
    # On this case the X-basis readout rounds the exact zero of P_X_VV to
    # -3.6e-19, which put V_X an ulp above 1.
    params = ideal_params(mu_h=0.25, mu_v=0.25, eta_1h=0.25, eta_2v=0.75, pair_cap=2)
    for report in (sfg_swap(params), lo_swap(params)):
        assert min(*report.p_z.values(), *report.p_x.values()) >= 0.0
        assert abs(report.v_z) <= 1.0 and abs(report.v_x) <= 1.0


def test_heralded_operator_matches_kraus_route_at_two_pairs():
    # With at most two photon pairs in total, the (2, 0) and (0, 2) pair
    # sectors cannot convert, so the first-order pipeline must agree exactly
    # with the ideal parity-check Kraus operator followed by the herald.
    params = ideal_params(mu_h=0.08, mu_v=0.05, pair_cap=2)
    rho, psi_in = sfg_heralded_operator(params, basis="A")
    kraus = kraus_parity_check(psi_in, params)
    branches = herald_amplitude_branches([kraus], "A", DetectorModel(params.eta_d))
    ref = DensityOperator.from_branches(
        [b if b.register == OUTPUT_REGISTER else b.reorder(OUTPUT_REGISTER)
         for b in branches], register=OUTPUT_REGISTER, n_max=4)
    basis = [occ for occ in product_basis(4, 2)]
    assert np.abs(dense_density(rho, basis) - dense_density(ref, basis)).max() < 1e-12
    assert rho.trace() == pytest.approx(ref.trace())


def test_heralded_state_leading_order_form():
    # Asymmetric pumps: the heralded state approaches
    # cos(theta)|HH> - sin(theta)|VV> with tan(theta) = mu_V / mu_H.
    params = ideal_params(mu_h=0.01, mu_v=0.004)
    rho, _ = sfg_heralded_operator(params, basis="A")
    rho = rho.normalized()
    hh = rho.entries[((1, 0, 1, 0), (1, 0, 1, 0))].real
    vv = rho.entries[((0, 1, 0, 1), (0, 1, 0, 1))].real
    cross = rho.entries[((1, 0, 1, 0), (0, 1, 0, 1))].real
    # Weight ratio tan^2(theta) with tan(theta) = gamma_V^2 / gamma_H^2.
    tan_theta = (_gamma(0.004) / _gamma(0.01)) ** 2
    assert vv / hh == pytest.approx(tan_theta ** 2, rel=1e-9)
    # The single-pair block is pure with a relative minus sign (A herald).
    assert cross == pytest.approx(-math.sqrt(hh * vv), rel=1e-9)
    # Multi-pair contamination is a small fraction at this pump level.
    assert hh + vv > 0.95


def test_sfg_swap_ideal_low_pump_visibilities():
    rep = sfg_swap(ideal_params(mu_h=1e-3, mu_v=1e-3))
    assert rep.v_z > 0.995
    assert rep.v_x > 0.995
    assert rep.fidelity_lower_bound == pytest.approx((rep.v_z + rep.v_x) / 2.0)
    assert rep.herald_prob > 0.0


@pytest.mark.parametrize("preset, rtol", [("ideal", 2.1e-9), ("fig-s3", 2.1e-9),
                                           ("paper-table2", 1.7e-8), ("paper-tableS1", 1.7e-8)])
def test_herald_probability_rises_to_its_untruncated_closed_form(preset, rtol):
    # Without the cut at pair_cap pairs the herald is the closed form
    # H = window eta_d / 2 (sfg_h eta_th t_1h t_2h mu_1h mu_2h + the same for
    # V).  A cap drops the sources' weight above it, so the herald rises to H
    # with the cap.
    p = swap_params(get_preset(preset)["params"])
    h_inf = p.window_acceptance * p.eta_d / 2 * (
        p.sfg_h * p.eta_th * p.t_1h * p.t_2h * p.mu_1h * p.mu_2h
        + p.sfg_v * p.eta_tv * p.t_1v * p.t_2v * p.mu_1v * p.mu_2v)
    heralds = [sfg_swap(p.replace(pair_cap=cap)).herald_prob for cap in (3, 5, 8, 10)]
    assert heralds == sorted(set(heralds)) and heralds[-1] < h_inf
    assert (h_inf - heralds[-1]) / h_inf < rtol


def test_window_acceptance_scales_herald_only():
    base = ideal_params()
    windowed = base.replace(window_acceptance=0.9)
    r0, r1 = sfg_swap(base), sfg_swap(windowed)
    assert r1.herald_prob == pytest.approx(0.9 * r0.herald_prob)
    # Without dark counts the visibilities are scale invariant.
    assert r1.v_z == pytest.approx(r0.v_z, abs=1e-12)
    assert r1.v_x == pytest.approx(r0.v_x, abs=1e-12)


def test_dark_counts_degrade_visibility():
    params = ideal_params(t_1h=0.5, t_1v=0.5, t_2h=0.5, t_2v=0.5)
    clean = sfg_swap(params)
    noisy = sfg_swap(params.replace(dark=clean.herald_prob))
    assert noisy.v_z < clean.v_z
    assert noisy.v_x < clean.v_x


def test_sfg_swap_matches_ensemble_with_dark_counts():
    # One heralded state for every readout: a photon herald without a dark
    # count (weight 1 - dark) plus a dark-count herald of the whole reduced
    # input.  Read the blocks of both heralds and the density reference route.
    params = swap_params(get_preset("ideal")["params"]).replace(dark=0.1)
    rep = sfg_swap(params)
    blocks = coincidence_tables(sum(scaled_filter_blocks(params)), params)
    rho_sfg, psi_in = sfg_heralded_operator(params)
    rho = heralded_state_with_dark(rho_sfg, psi_in, params.dark)
    for (basis, theta), visibility, v in ((("z", 0.0), _visibility_z, rep.v_z),
                                          (("x", math.pi / 4), _visibility_x, rep.v_x)):
        probs = joint_click_pattern_probs(rho, theta, theta, params)
        oracle = {d + e: sum(p for (cd, ce), p in probs.items() if cd[i] and ce[j])
                  for i, d in enumerate("HV") for j, e in enumerate("HV")}
        assert v == pytest.approx(visibility(blocks[basis]), abs=1e-12)
        assert v == pytest.approx(visibility(oracle), abs=1e-10)


def _read_swaps(monkeypatch):
    """Record the entries and weights each swap hands to its readout."""
    seen = []
    real = protocols._visibility_report

    def counted(entries, rho, *args):
        seen.append((entries, rho))
        return real(entries, rho, *args)

    monkeypatch.setattr(protocols, "_visibility_report", counted)
    return seen


@pytest.mark.parametrize("preset,dark", [("paper-tableS1", None), ("ideal", 0.1)])
def test_sfg_swap_weighs_the_search_state_to_the_last_bit(monkeypatch, preset, dark):
    # sfg_swap reads the state the Bell searches read: the same |A>-heralded
    # entries, and as weights their state (HeraldedEntries.state) at the
    # sources of params over the source norm, bit for bit.
    params = swap_params(get_preset(preset)["params"])
    if dark is not None:
        params = params.replace(dark=dark)
    seen = _read_swaps(monkeypatch)
    sfg_swap(params)
    [(entries, rho)] = seen
    search = heralded_entries(params)
    for name in ("index", "sfg", "dark", "powers"):
        assert np.array_equal(getattr(entries, name), getattr(search, name))
    assert entries.n_diagonal == search.n_diagonal
    state, _ = search.state(_source_mu(params))
    assert np.array_equal(rho, state / _source_norm(_source_mu(params), params.pair_cap))


@pytest.mark.parametrize("eta_bsa", [1.0, 0.8])
def test_lo_swap_weighs_the_search_state(monkeypatch, eta_bsa):
    # lo_swap reads the entries a search gets from the "lo" herald of
    # heralded_entries, weighted by their state at the sources of params
    # over the source norm, bit for bit; its herald is dark-count free.
    params = swap_params(get_preset("paper-tableS1")["params"])
    seen = _read_swaps(monkeypatch)
    rep = lo_swap(params, eta_bsa)
    [(entries, rho)] = seen
    search = heralded_entries(params, "lo", eta_bsa)
    for name in ("index", "sfg", "dark", "powers"):
        assert np.array_equal(getattr(entries, name), getattr(search, name))
    assert not search.dark.any()
    state, total = search.state(_source_mu(params))
    norm = _source_norm(_source_mu(params), params.pair_cap)
    assert np.array_equal(rho, state / norm)
    assert rep.herald_prob == total / norm


def test_heralded_entries_refuses_an_unknown_herald_by_name():
    params = ideal_params()
    with pytest.raises(ValueError, match="herald must be 'D', 'A' or 'lo', got 'X'"):
        heralded_entries(params, "X")
    for eta_bsa in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"eta_bsa must be in \[0, 1\]"):
            heralded_entries(params, "lo", eta_bsa)
        with pytest.raises(ValueError, match=r"eta_bsa must be in \[0, 1\]"):
            lo_swap(params, eta_bsa)
    # the linear-optical herald is no basis of the SFG photon
    with pytest.raises(ValueError, match="herald basis must be 'D' or 'A', got 'lo'"):
        sfg_swap(params, "lo")


def test_heralded_entries_and_layouts_compare_by_identity():
    # Both hold numpy arrays, which neither compare to one truth value nor
    # hash: equality is identity, so comparing or hashing them never raises.
    params = ideal_params()
    first, second = heralded_entries(params), heralded_entries(params)
    assert first == first and first != second and len({first, second}) == 2
    layout = protocols._swap_layout(params.pair_cap)
    assert layout == protocols._swap_layout(params.pair_cap)  # cached per cap
    assert layout != protocols._swap_layout(params.pair_cap + 1) and len({layout}) == 1


def test_each_swap_runs_one_gathered_readout(monkeypatch):
    # Both heralds of sfg_swap are one state, and lo_swap's state takes the
    # same form: each swap runs one readout, of one weight per gathered
    # entry, with the cap's photon numbers.
    params = swap_params(get_preset("paper-tableS1")["params"])
    seen = _read_swaps(monkeypatch)
    sfg_swap(params)
    lo_swap(params)
    assert len(seen) == 2
    for entries, rho in seen:
        assert entries.n == params.pair_cap
        assert rho.shape == entries.sfg.shape == entries.dark.shape
        assert 0 < entries.n_diagonal < rho.size


def test_sfg_swap_makes_no_spare_full_size_block():
    # At pair_cap 5 a block density is 6^6 doubles.  sfg_swap keeps the one
    # it reads (photon and dark-count herald together); every other
    # allocation must stay well below one more block.
    params = swap_params(get_preset("paper-tableS1")["params"]).replace(pair_cap=5)
    block = 6 ** 6 * np.dtype(float).itemsize
    sfg_swap(params)  # build the cached layout and rotation tables first
    tracemalloc.start()
    try:
        sfg_swap(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= block + 3 * block // 4


@pytest.mark.parametrize("swap", [sfg_swap, lo_swap], ids=["sfg", "lo"])
@pytest.mark.parametrize("pair_cap", [5, 8])
def test_no_swap_allocates_a_block_density(swap, pair_cap):
    # Both heralds gather into the few entries the layout can reach (206 of
    # 6^6 at pair_cap 5, 1,087 of 9^6 at 8), so a warm swap never holds
    # even half of one dense block density of doubles.
    params = swap_params(get_preset("paper-tableS1")["params"]).replace(pair_cap=pair_cap)
    half_block = (pair_cap + 1) ** 6 * np.dtype(float).itemsize // 2
    swap(params)  # build the cached layout and rotation tables first
    tracemalloc.start()
    try:
        swap(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < half_block


def test_lo_swap_low_pump_limit():
    rep = lo_swap(ideal_params(mu_h=1e-3, mu_v=1e-3))
    assert rep.v_z > 0.99
    assert rep.v_x > 0.99


def test_lo_swap_degrades_with_loss():
    clean = lo_swap(ideal_params())
    lossy = lo_swap(ideal_params(t_1h=0.3, t_1v=0.3, t_2h=0.3, t_2v=0.3))
    assert lossy.v_z < clean.v_z
    assert lossy.herald_prob > 0.0
    assert lossy.herald_prob < clean.herald_prob


# Each preset at its own channel transmittances (fig-s3 at the middle of its
# loss sweep) and at asymmetric ones, at every pair cap the model runs.
ASYMMETRIC_CHANNEL = {"t_1h": 0.6, "t_1v": 0.5, "t_2h": 0.7, "t_2v": 0.65}
SWAP_CASES = {
    f"{preset}-{cap}-{channel}": swap_params(get_preset(preset)["params"]).replace(
        pair_cap=cap, **(ASYMMETRIC_CHANNEL if channel == "asym" else own))
    for preset, own in (("ideal", {}), ("paper-tableS1", {}),
                        ("fig-s3", dict.fromkeys(ASYMMETRIC_CHANNEL, 0.55)))
    for cap in (2, 3, 4, 5) for channel in ("own", "asym")
}


@pytest.mark.parametrize("eta_bsa", [1.0, 0.8])
@pytest.mark.parametrize("case", list(SWAP_CASES))
def test_lo_swap_matches_branch_route(case, eta_bsa):
    params = SWAP_CASES[case]
    fast, slow = lo_swap(params, eta_bsa), branch_lo_swap(params, eta_bsa)
    assert fast.v_z == pytest.approx(slow.v_z, abs=1e-12)
    assert fast.v_x == pytest.approx(slow.v_x, abs=1e-12)
    assert fast.herald_prob == pytest.approx(slow.herald_prob, rel=1e-12)
    for name in ("p_z", "p_x"):
        table, ref = getattr(fast, name), getattr(slow, name)
        assert table.keys() == ref.keys()
        for ij, p in ref.items():
            assert table[ij] == pytest.approx(p, abs=1e-12 * slow.herald_prob)


def _unit_herald(params, basis):
    """The photon herald of the unit-amplitude input, unscaled by the window
    and dark counts, scattered from the gathered entries into a block."""
    entries = heralded_entries(params.replace(dark=0.0, window_acceptance=1.0), basis)
    return dense_block(entries, entries.sfg)


@pytest.mark.parametrize("basis", ["A", "D"])
@pytest.mark.parametrize("case", list(SWAP_CASES))
def test_heralding_filter_matches_branch_route(case, basis):
    params = SWAP_CASES[case]
    fast, slow = _unit_herald(params, basis), branch_heralding_filter(params, basis)
    assert fast.shape == slow.shape
    assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()
    # The same nonzero entries, which the Bell searches gather.
    assert np.array_equal(fast != 0.0, slow != 0.0)


@pytest.mark.parametrize("eta_bsa", [1.5, -0.5, float("nan"), float("inf"), True, "0.5", None, 1j])
def test_lo_swap_rejects_bad_eta_bsa_by_name(eta_bsa):
    # A flag is not an efficiency: True is not read as 1.  A string, None or
    # a complex number is refused by name, not with a bare TypeError.
    with pytest.raises(ValueError, match="eta_bsa"):
        lo_swap(SWAP_CASES["ideal-3-own"], eta_bsa)


def test_zero_herald_probability_is_named():
    # Neither analyzer can herald: a blind SFG detector, a blind BSA.
    params = SWAP_CASES["ideal-3-own"]
    with pytest.raises(ValueError, match="herald probability is zero"):
        sfg_swap(params.replace(eta_d=0.0))
    with pytest.raises(ValueError, match="herald probability is zero"):
        lo_swap(params, eta_bsa=0.0)


@pytest.mark.parametrize("arms", [("eta_1h", "eta_1v"), ("eta_2h", "eta_2v")])
def test_zero_coincidence_probability_is_named(arms):
    # Blind analyzer arms on d or e: the swap heralds, but no coincidence
    # is ever counted, so no visibility exists.
    params = SWAP_CASES["ideal-3-own"].replace(**{arm: 0.0 for arm in arms})
    with pytest.raises(ValueError, match="coincidence probability in the Z basis is zero"):
        sfg_swap(params)
    with pytest.raises(ValueError, match="coincidence probability in the Z basis is zero"):
        lo_swap(params)


@pytest.mark.parametrize("basis", ["A", "D"])
def test_lossless_heralding_filter_is_bit_exact(basis):
    # The ideal herald at pair_cap 2 feeds the efficiency-threshold search,
    # whose path turns on its last bits: 1/2 and 0.5000000000000001 differ.
    params = SWAP_CASES["ideal-2-own"]
    assert np.array_equal(_unit_herald(params, basis), branch_heralding_filter(params, basis))


def test_both_sfg_heralds_read_one_visibility_on_a_symmetric_state():
    # |D> leaves HH + VV, whose diagonal outcomes agree, and |A> HH - VV,
    # whose outcomes differ: read with its herald's sign, each state's X
    # visibility, and with it the fidelity bound, is the same.
    params = swap_params(get_preset("ideal")["params"])
    d, a = sfg_swap(params, "D"), sfg_swap(params, "A")
    assert a.v_x > 0.8
    for name in ("v_z", "v_x", "fidelity_lower_bound"):
        assert abs(getattr(d, name) - getattr(a, name)) <= 1e-15


CHANNELS = ("t_1h", "t_1v", "t_2h", "t_2v")


@settings(max_examples=100, deadline=None)
@given(params=_experiments(), basis=st.sampled_from("AD"),
       t=st.lists(_EFFICIENCY, min_size=4, max_size=4))
def test_the_sfg_swap_sees_the_channels_only_through_their_products(params, basis, t):
    # Loss commutes through the SFG herald and scales its H term by
    # sqrt(t_1h t_2h) and its V term by sqrt(t_1v t_2v): swapping t_1h and
    # t_2h, or moving each product onto one channel, leaves the swap as it is.
    t_1h, t_1v, t_2h, t_2v = t
    ref = sfg_swap(params.replace(**dict(zip(CHANNELS, t))), basis)
    for channels in ((t_2h, t_1v, t_1h, t_2v), (t_1h * t_2h, t_1v * t_2v, 1.0, 1.0),
                     (1.0, t_1v * t_2v, t_1h * t_2h, 1.0)):
        rep = sfg_swap(params.replace(**dict(zip(CHANNELS, channels))), basis)
        for name in ("v_z", "v_x", "herald_prob"):
            assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-13, abs=0.0)
        for table in ("p_z", "p_x"):
            for ij, p in getattr(ref, table).items():
                assert abs(getattr(rep, table)[ij] - p) <= 1e-13 * ref.herald_prob


@settings(max_examples=100, deadline=None)
@given(params=_experiments(), eta_bsa=_EFFICIENCY, s=_EFFICIENCY)
def test_the_lo_herald_sees_channel_loss_as_bsa_efficiency(params, eta_bsa, s):
    # Loss turns each arm of the linear-optical analyzer into an arm at
    # another angle and efficiency.  A uniform channel transmittance s keeps
    # the angle, pi/4, and scales the efficiency: the swap through it is the
    # lossless swap through an analyzer of efficiency eta_bsa s.
    ref = lo_swap(params, eta_bsa * s)
    rep = lo_swap(params.replace(**dict.fromkeys(CHANNELS, s)), eta_bsa)
    for name in ("v_z", "v_x", "herald_prob"):
        assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-13, abs=0.0)
    for table in ("p_z", "p_x"):
        for ij, p in getattr(ref, table).items():
            assert abs(getattr(rep, table)[ij] - p) <= 1e-13 * ref.herald_prob


def test_sfg_swap_visibilities_invariant_under_sfg_gain():
    # Without dark counts the heralded state only scales with the SFG
    # efficiency, so the visibilities must not move when it is multiplied
    # by 1e4; the measured preset's herald trace is of order 1e-11.
    params = swap_params(get_preset("paper-tableS1")["params"]).replace(
        dark=0.0, window_acceptance=1.0)
    gained = scaled_sfg(params, 1e4)
    r0, r1 = sfg_swap(params), sfg_swap(gained)
    assert r1.v_z == pytest.approx(r0.v_z, abs=1e-10)
    assert r1.v_x == pytest.approx(r0.v_x, abs=1e-10)


def test_error_event_probs_closed_form():
    gamma, t = 0.2, 0.6
    p_double, p_single = error_event_probs(gamma, t)
    base = gamma ** 6 * t * t * (1 - t)
    assert p_double == pytest.approx(2 * base)
    assert p_single == pytest.approx(base)
    with pytest.raises(ValueError):
        error_event_probs(1.0, 0.5)
    with pytest.raises(ValueError):
        error_event_probs(0.2, 1.5)


def test_error_event_probs_simulated_matches_closed_form():
    gamma, t = 0.15, 0.4
    sim = error_event_probs_simulated(gamma, t)
    ref = error_event_probs(gamma, t)
    assert sim[0] == pytest.approx(ref[0], rel=1e-9)
    assert sim[1] == pytest.approx(ref[1], rel=1e-9)
    assert sim[0] / sim[1] == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("pol,basis", [((1.0, 0.0), "D"),
                                       ((1 / math.sqrt(2), 1 / math.sqrt(2)), "D"),
                                       ((1 / math.sqrt(2), 1 / math.sqrt(2)), "A"),
                                       ((1 / math.sqrt(2), 1j / math.sqrt(2)), "D")])
def test_teleport_beats_classical_bound(pol, basis):
    rep = teleport(ideal_params(), pol, 0.95, herald_basis=basis)
    assert rep.fidelity > 2.0 / 3.0
    assert rep.herald_prob > 0.0
    assert 0.0 < rep.one_photon_weight <= 1.0


def test_teleport_weak_input_high_fidelity():
    rep = teleport(ideal_params(mu_h=0.01, mu_v=0.01), (1.0, 0.0), 0.05)
    assert rep.fidelity > 0.95


def test_teleport_requires_normalized_polarization():
    with pytest.raises(ValueError):
        teleport(ideal_params(), (1.0, 1.0), 0.95)


@pytest.mark.parametrize("pol, mean_photons, argument", [
    ((float("nan"), 0.0), 0.95, "input_polarization"),
    ((1.0, complex(0.0, float("inf"))), 0.95, "input_polarization"),
    ((1.0, 1.0), 0.95, "input_polarization"),
    ((1.0, 0.0), float("nan"), "input_mean_photons"),
    ((1.0, 0.0), float("inf"), "input_mean_photons"),
    ((1.0, 0.0), -1.0, "input_mean_photons"),
    ((1.0, 0.0), 0.0, "input_mean_photons"),
], ids=["nan-amplitude", "inf-amplitude", "unnormalized", "nan-photons", "inf-photons",
        "negative-photons", "zero-photons"])
def test_teleport_rejects_bad_input_by_name(pol, mean_photons, argument):
    # Each is refused at the edge with the argument's name, not later as
    # "herald probability is zero" or a math domain error.
    with pytest.raises(ValueError, match=argument):
        teleport(ideal_params(), pol, mean_photons)


@pytest.mark.parametrize("alpha, beta, chi_tau, eta_d, argument", [
    (0.6, 0.8, float("nan"), 1.0, "chi_tau"),
    (0.6, 0.8, float("inf"), 1.0, "chi_tau"),
    (0.6, 0.8, -1.0, 1.0, "chi_tau"),
    (float("inf"), 0.8, 0.1, 1.0, "alpha"),
    (0.6, complex(0.0, float("nan")), 0.1, 1.0, "beta"),
    (0.0, 0.0, 0.1, 1.0, "alpha and beta must not both be zero"),
    (0.6, 0.8, 0.1, 1.5, "eta_d"),
    (0.6, 0.8, 0.1, float("nan"), "eta_d"),
], ids=["nan-chi_tau", "inf-chi_tau", "negative-chi_tau", "inf-alpha", "nan-beta",
        "zero-pump", "eta_d-above-1", "nan-eta_d"])
def test_qfc_rejects_bad_input_by_name(alpha, beta, chi_tau, eta_d, argument):
    # Refused by name, not answered with NaN or negative angles or a math
    # domain error.
    with pytest.raises(ValueError, match=argument):
        qfc_teleport_strong_pump(alpha, beta, chi_tau, eta_d=eta_d)


def test_qfc_weak_pump_transfers_polarization():
    rep = qfc_teleport_strong_pump(0.6, 0.8, 0.01)
    assert rep.fidelity > 0.9999
    assert rep.herald_prob > 0.0


def test_qfc_strong_pump_degrades_transfer():
    weak = qfc_teleport_strong_pump(0.6, 0.8, 0.05)
    strong = qfc_teleport_strong_pump(0.6, 0.8, 2.0)
    assert strong.fidelity < weak.fidelity
    assert strong.conversion_angle_H == pytest.approx(0.6 * 2.0)
    assert strong.conversion_angle_V == pytest.approx(0.8 * 2.0)


R2 = 1 / math.sqrt(2)
READOUT_POLARIZATIONS = [(1.0, 0.0), (R2, R2), (R2, 1j * R2)]
BRANCH_POLARIZATIONS = READOUT_POLARIZATIONS + [(0.6, -0.8j)]


@pytest.mark.parametrize("pair_cap, basis, mean_photons", [
    *itertools.product([2, 3, 4], ["A", "D"], [0.05, 0.95]), (6, "D", 0.95)])
def test_teleport_matches_branch_route(pair_cap, basis, mean_photons):
    # The sums over pair number and the sparse branches truncate alike: the
    # pair at pair_cap pairs, renormalized; the product with the coherent
    # input at 2 pair_cap photons, with the weight dropped reported.
    params = swap_params(get_preset("paper-tableS1")["params"]).replace(pair_cap=pair_cap)
    for pol in BRANCH_POLARIZATIONS:
        fast = teleport(params, pol, mean_photons, herald_basis=basis)
        slow = branch_teleport(params, pol, mean_photons, herald_basis=basis)
        assert fast.fidelity == pytest.approx(slow.fidelity, abs=1e-12)
        assert fast.herald_prob == pytest.approx(slow.herald_prob, rel=1e-12)
        assert fast.one_photon_weight == pytest.approx(slow.one_photon_weight, abs=1e-12)
        assert fast.truncation_dropped == pytest.approx(slow.truncation_dropped, abs=1e-12)


@pytest.mark.parametrize("eta_d", [1.0, 0.85])
@pytest.mark.parametrize("chi_tau", [0.0, 0.01, 0.7, 2.0, 5.0])
def test_qfc_matches_branch_route(chi_tau, eta_d):
    # Closed form against the exact rotation on sparse states, past the
    # first maximum of the conversion (chi_tau |alpha| > pi / 2) too.
    for alpha, beta in BRANCH_POLARIZATIONS + [(0.6, 0.8), (2.0, -0.3 + 0.4j)]:
        fast = qfc_teleport_strong_pump(alpha, beta, chi_tau, eta_d=eta_d)
        slow = branch_qfc_teleport(alpha, beta, chi_tau, eta_d=eta_d)
        assert fast.fidelity == pytest.approx(slow.fidelity, abs=1e-12)
        assert fast.herald_prob == pytest.approx(slow.herald_prob, rel=1e-12, abs=1e-12)
        assert (fast.conversion_angle_H, fast.conversion_angle_V) == (
            slow.conversion_angle_H, slow.conversion_angle_V)


def _teleport_density_route(params, pol, mean_photons, basis):
    """(fidelity, herald probability, one-photon weight) of ``teleport`` with
    every channel, the herald and the readout on density operators."""
    alpha, beta = (complex(x) for x in pol)
    pair = tmsv_pair((params.mu_1h, params.mu_1v), ("aH", "aV"), ("dH", "dV"), params.pair_cap)
    z = math.sqrt(mean_photons)
    coh = _coherent_state(("bH", "bV"), (z * alpha, z * beta), 2 * params.pair_cap)
    psi = tensor(pair, coh).reorder(("aH", "aV", "bH", "bV", "dH", "dV"))
    rho = apply_loss(DensityOperator.from_pure(psi), channel_losses(params))
    rho = apply_loss(apply_sfg_first_order(rho, params), c_losses(params))
    rho = herald_projection(rho, basis, DetectorModel(params.eta_d)).reorder(("dH", "dV"))
    fidelity, weight = one_photon_fidelity(rho, alpha, beta if basis == "D" else -beta)
    return fidelity, rho.trace(), weight


# Each preset at its own pair_cap (3) and at 2; the density route takes
# seconds per case at 4.
TELEPORT_CASES = {
    f"{preset}{suffix}": swap_params(get_preset(preset)["params"]).replace(**cap)
    for suffix, cap in (("", {}), ("-cap2", {"pair_cap": 2}))
    for preset in ("ideal", "paper-tableS1", "fig-s3")
}


@pytest.mark.parametrize("basis", ["D", "A"])
@pytest.mark.parametrize("case", list(TELEPORT_CASES))
def test_teleport_readout_matches_density_route(case, basis):
    # Herald probability, one-photon weight and fidelity of the array route
    # equal the density-operator pipeline and readout.
    params = TELEPORT_CASES[case]
    for pol in READOUT_POLARIZATIONS:
        fidelity, herald_prob, weight = _teleport_density_route(params, pol, 0.95, basis)
        rep = teleport(params, pol, 0.95, herald_basis=basis)
        assert rep.fidelity == pytest.approx(fidelity, abs=1e-12)
        assert rep.one_photon_weight == pytest.approx(weight, abs=1e-12)
        assert rep.herald_prob == pytest.approx(herald_prob, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("chi_tau", [0.01, 2.0], ids=["weak", "strong"])
def test_qfc_readout_matches_density_route(chi_tau):
    pair = PureState(("aH", "aV", "dH", "dV"), {(1, 0, 1, 0): R2, (0, 1, 0, 1): R2}, n_max=2)
    state = extend_state(pair, ("cH", "cV"))
    for alpha, beta in READOUT_POLARIZATIONS + [(0.6, 0.8)]:
        col = unitary_column_map(state.register, state.n_max,
                                 lambda s, a=alpha, b=beta: qfc_mode_transform(s, a, b, chi_tau))
        rho = sandwich(DensityOperator.from_pure(state), col)
        rho = herald_projection(rho, "D", DetectorModel(0.85)).reorder(("dH", "dV"))
        fidelity, _ = one_photon_fidelity(rho, alpha, beta)
        rep = qfc_teleport_strong_pump(alpha, beta, chi_tau, eta_d=0.85)
        assert rep.fidelity == pytest.approx(fidelity, abs=1e-12)
        assert rep.herald_prob == pytest.approx(rho.trace(), rel=1e-12, abs=1e-12)


def test_bounded_rows_lists_every_weighted_row_in_order():
    for width, cap in ((4, 3), (3, 7), (8, 4)):
        expected = [row for row in itertools.product(range(cap + 1), repeat=width)
                    if sum(row) <= cap]
        assert _bounded_rows(width, cap).tolist() == [list(row) for row in expected]


@pytest.mark.parametrize("cap", range(2, 8))
def test_swap_layout_lists_every_entry_in_order(cap):
    # Every (N_d, a, a', N_e, b, b') with N_d + N_e <= cap, a, a' <= N_d,
    # b, b' <= N_e and a' - a = b' - b: diagonal ones first, then each part
    # in lexicographic order, which fixes the sum order of every readout.
    # An entry's powers are the pairs (a, N_d - a, b, N_e - b) of its row
    # plus those of its column.  The layout is the unit-amplitude input's
    # entry list: weight 1 on every entry, no dark-count herald, read-only.
    N, a, a2, M, b, b2 = index = np.indices((cap + 1,) * 6).reshape(6, -1)
    index = index[:, (N + M <= cap) & (a <= N) & (a2 <= N) & (b <= M) & (b2 <= M)
                  & (a2 - a == b2 - b)]
    diagonal = index[1] == index[2]
    N, a, a2, M, b, b2 = index = np.concatenate([index[:, diagonal], index[:, ~diagonal]], axis=1)
    layout = protocols._swap_layout(cap)
    assert np.array_equal(layout.index, index)
    assert np.array_equal(layout.powers, np.stack([a, N - a, b, M - b])
                          + np.stack([a2, N - a2, b2, M - b2]))
    assert layout.n_diagonal == np.count_nonzero(diagonal)
    assert layout.n == cap and (layout.sfg == 1.0).all() and not layout.dark.any()
    assert not any(x.flags.writeable for x in (*layout.index, layout.powers, layout.sfg,
                                               layout.dark))


def test_teleport_at_the_largest_pair_cap_peaks_below_a_megabyte(monkeypatch):
    # Teleport sums over pair number and lists no input term: listing the
    # 351,208 terms at pair_cap 10 peaked at 60.2 MB under tracemalloc.
    params = swap_params(get_preset("paper-tableS1")["params"]).replace(pair_cap=10)

    def refuse(*args):
        raise AssertionError("input rows listed")

    monkeypatch.setattr(protocols, "_bounded_rows", refuse)
    tracemalloc.start()
    try:
        teleport(params, (1.0, 0.0), 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("preset", ["ideal", "paper-tableS1", "fig-s3"])
def test_teleport_fidelity_is_the_same_at_every_pair_cap(preset):
    # The one-photon states of d the herald leaves differ only by a common
    # amplitude, so the fidelity depends on neither the truncation, the
    # input's mean photon number nor the herald basis.
    base = swap_params(get_preset(preset)["params"])
    for pol in BRANCH_POLARIZATIONS:
        fidelities = {teleport(base.replace(pair_cap=cap), pol, mean_photons,
                               herald_basis=basis).fidelity
                      for cap in range(2, 11) for basis in "DA"
                      for mean_photons in (0.05, 0.95, 20.0)}
        assert len(fidelities) == 1, (pol, fidelities)


@pytest.mark.parametrize("mean_photons", [0.05, 0.95, 20.0])
@pytest.mark.parametrize("pair_cap", [2, 3, 7, 10])
def test_teleport_truncation_dropped_is_the_poisson_tail(pair_cap, mean_photons):
    # The product cut drops the coherent photons beyond 2 (pair_cap - j)
    # beside j pairs: sum_j P(j) P(m > 2 pair_cap - 2 j), every digit of it,
    # though it is 1e-8 or less at the lowest mean photon numbers.
    params = swap_params(get_preset("paper-tableS1")["params"]).replace(pair_cap=pair_cap)
    ratio = [m / (1.0 + m) for m in (params.mu_1h, params.mu_1v)]
    pairs = [sum(ratio[0] ** k * ratio[1] ** (j - k) for k in range(j + 1))
             for j in range(pair_cap + 1)]
    exact = sum(w * pdtrc(2 * (pair_cap - j), mean_photons)
                for j, w in enumerate(pairs)) / sum(pairs)
    for pol in BRANCH_POLARIZATIONS:
        rep = teleport(params, pol, mean_photons)
        assert rep.truncation_dropped == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pair_cap", [2, 3, 5, 7, 10])
@pytest.mark.parametrize("mu", [(0.06, 0.05, 0.08, 0.061), (0.3, 0.0, 0.01, 0.2),
                                (0.05, 0.05, 0.0, 0.0)], ids=["measured", "one-off", "one-source"])
def test_source_norm_is_the_sum_over_every_input_term(mu, pair_cap):
    # gamma_m ** 2 = mu_m / (1 + mu_m) of each mode, raised to its pairs
    # and summed over the terms with at most pair_cap pairs: the trace of
    # the swap layout, up to the largest one (PAIR_CAP_MAX).
    ratio = [m / (1.0 + m) for m in mu]
    brute = sum(math.prod(r ** x for r, x in zip(ratio, row))
                for row in itertools.product(range(pair_cap + 1), repeat=4) if sum(row) <= pair_cap)
    assert _source_norm(np.array(mu), pair_cap) == pytest.approx(brute, rel=1e-14)


def test_warm_pipelines_build_no_input_rows(monkeypatch):
    # The layouts and the source norm's powers are built once per pair_cap:
    # a second swap or teleport lists no input terms.
    params = swap_params(get_preset("paper-tableS1")["params"])
    runs = (lambda: sfg_swap(params), lambda: lo_swap(params),
            lambda: teleport(params, (1.0, 0.0), 0.95))
    for run in runs:
        run()

    def refuse(*args):
        raise AssertionError("input rows built again")

    monkeypatch.setattr(protocols, "_bounded_rows", refuse)
    for run in runs:
        run()
