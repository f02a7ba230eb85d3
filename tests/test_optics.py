"""Sources, loss channels, and the SFG interaction, including the
dual-route equivalences between the pure-branch channels and the
density-operator reference route."""

import math

import numpy as np
import pytest

from dense_oracle import dense_density, product_basis, random_state
from density_route import (
    DensityOperator,
    _pbs_mix_branch,
    apply_loss,
    apply_sfg_first_order,
    kraus_parity_check,
)
from branch_route import (
    SWAP_REGISTER,
    LossMap,
    PureState,
    build_swapping_input,
    extend_state,
    loss_branches,
    qfc_mode_transform,
    scaled_sfg,
    sfg_branches,
    tmsv_pair,
)
from sfgswap.protocols import ExperimentParams, _gamma


def test_source_params_gamma():
    params = ExperimentParams(mu_1h=0.05, mu_1v=0.08)
    assert _gamma(params.mu_1h) == pytest.approx(math.sqrt(0.05 / 1.05))
    assert _gamma(params.mu_1v) == pytest.approx(math.sqrt(0.08 / 1.08))
    with pytest.raises(ValueError):
        ExperimentParams(mu_1h=-0.1, mu_1v=0.0)


def test_sfg_params_validation_and_scaling():
    with pytest.raises(ValueError):
        ExperimentParams(sfg_h=1.5, sfg_v=0.0)
    sfg = ExperimentParams(sfg_h=0.1, sfg_v=0.2)
    scaled = scaled_sfg(sfg, 3.0)
    assert (scaled.sfg_h, scaled.sfg_v) == (pytest.approx(0.3), pytest.approx(0.6))


def test_loss_map_validation():
    with pytest.raises(ValueError):
        LossMap({"a": 1.2})


def test_tmsv_pair_geometric_amplitudes():
    psi = tmsv_pair((0.05, 0.05), ("sH", "sV"), ("iH", "iV"), pair_cap=3)
    assert psi.is_normalized()
    g = _gamma(0.05)
    a0 = psi.amps[(0, 0, 0, 0)]
    assert psi.amps[(1, 0, 1, 0)] / a0 == pytest.approx(g)
    assert psi.amps[(2, 0, 2, 0)] / a0 == pytest.approx(g * g)
    assert psi.amps[(1, 1, 1, 1)] / a0 == pytest.approx(g * g)
    # Photon numbers are perfectly correlated between signal and idler.
    for (sh, sv, ih, iv) in psi.amps:
        assert (sh, sv) == (ih, iv)


def test_build_swapping_input_total_cap():
    psi = build_swapping_input(ExperimentParams(mu_1h=0.1, mu_1v=0.1, mu_2h=0.1, mu_2v=0.1,
                                                pair_cap=2))
    assert psi.register == SWAP_REGISTER
    assert psi.is_normalized()
    assert max(sum(occ) for occ in psi.amps) <= 4


@pytest.mark.parametrize("seed", range(6))
def test_loss_dual_route_equivalence(seed):
    rng = np.random.default_rng(seed)
    reg = ("aH", "aV", "x")
    psi = random_state(rng, reg, n_max=3)
    losses = LossMap({"aH": float(rng.uniform(0.2, 1.0)),
                      "aV": float(rng.uniform(0.0, 0.9))})
    rho = apply_loss(DensityOperator.from_pure(psi), losses)
    mix = DensityOperator.from_branches(loss_branches(psi, losses),
                                        register=reg, n_max=3)
    basis = product_basis(len(reg), 3)
    assert np.abs(dense_density(rho, basis) - dense_density(mix, basis)).max() < 1e-12
    # The attenuation channel is trace preserving.
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_loss_branch_count_and_identity():
    psi = PureState(("a",), {(2,): 1.0}, n_max=2)
    assert loss_branches(psi, LossMap({"a": 1.0})) == [psi]
    branches = loss_branches(psi, LossMap({"a": 0.5}))
    # Two photons can lose 0, 1 or 2 quanta.
    assert len(branches) == 3
    assert sum(b.norm_sq() for b in branches) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(4))
def test_sfg_dual_route_equivalence(seed):
    rng = np.random.default_rng(100 + seed)
    reg = ("aH", "aV", "bH", "bV")
    psi = random_state(rng, reg, n_max=3)
    sfg = ExperimentParams(sfg_h=0.3, sfg_v=0.4)
    rho = apply_sfg_first_order(DensityOperator.from_pure(psi), sfg)
    full_reg = reg + ("cH", "cV")
    mix = DensityOperator.from_branches(sfg_branches([psi], sfg),
                                        register=full_reg, n_max=3)
    basis = product_basis(len(full_reg), 3)
    assert np.abs(dense_density(rho, basis) - dense_density(mix, basis)).max() < 1e-12


def test_sfg_conversion_amplitude_single_pair():
    psi = PureState(("aH", "aV", "bH", "bV"), {(1, 0, 1, 0): 1.0}, n_max=4)
    out = sfg_branches([psi], ExperimentParams(sfg_h=0.25, sfg_v=0.25))
    assert len(out) == 1
    assert out[0].amps[(0, 0, 0, 0, 1, 0)] == pytest.approx(math.sqrt(0.25))


def test_sfg_bosonic_enhancement_two_pairs():
    # aH bH on |2,0,2,0> gives a factor 2 before the cH+ creation.
    psi = PureState(("aH", "aV", "bH", "bV"), {(2, 0, 2, 0): 1.0}, n_max=5)
    out = sfg_branches([psi], ExperimentParams(sfg_h=1.0, sfg_v=1.0))
    assert out[0].amps[(1, 0, 1, 0, 1, 0)] == pytest.approx(2.0)


def test_sfg_requires_vacuum_output_modes():
    psi = PureState(("aH", "aV", "bH", "bV", "cH", "cV"),
                    {(1, 0, 1, 0, 1, 0): 1.0}, n_max=4)
    with pytest.raises(ValueError):
        apply_sfg_first_order(DensityOperator.from_pure(psi), ExperimentParams(sfg_h=1.0, sfg_v=1.0))


def test_kraus_parity_check_matches_first_order_sfg():
    # On the at-most-one-pair-per-side sector the first-order interaction
    # acts exactly as the parity-check Kraus operator.
    psi = PureState(("aH", "aV", "bH", "bV", "dH"),
                    {(1, 0, 1, 0, 1): 0.6, (0, 1, 0, 1, 0): 0.8}, n_max=5)
    sfg = ExperimentParams(sfg_h=0.5, sfg_v=0.3)
    kraus = kraus_parity_check(psi, sfg)
    assert kraus.norm_sq() == pytest.approx(0.36 * 0.5 + 0.64 * 0.3)
    branches = sfg_branches([psi], sfg)
    assert len(branches) == 1
    conv = branches[0].reorder(kraus.register + ("aH", "aV", "bH", "bV"))
    for occ, a in kraus.amps.items():
        assert conv.amps[occ + (0, 0, 0, 0)] == pytest.approx(a)


def test_kraus_parity_check_rejects_three_photons():
    psi = PureState(("aH", "aV", "bH", "bV"), {(2, 0, 1, 0): 1.0}, n_max=4)
    with pytest.raises(ValueError):
        kraus_parity_check(psi, ExperimentParams(sfg_h=1.0, sfg_v=1.0))


def test_pbs_mix_is_an_involution():
    rng = np.random.default_rng(11)
    psi = random_state(rng, ("aH", "aV", "bH", "bV"), n_max=2)
    assert _pbs_mix_branch(_pbs_mix_branch(psi)).amps == psi.amps
    assert _pbs_mix_branch(psi).norm_sq() == pytest.approx(psi.norm_sq())


def test_qfc_mode_transform_unitary_and_weak_pump():
    pair = PureState(("aH", "aV", "dH", "dV"),
                     {(1, 0, 1, 0): 1 / math.sqrt(2), (0, 1, 0, 1): 1 / math.sqrt(2)},
                     n_max=2)
    state = extend_state(pair, ("cH", "cV"))
    out = qfc_mode_transform(state, 0.6, 0.8j, 0.7)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)
    # Weak pump: converted amplitude is linear in the pump amplitude.
    weak = qfc_mode_transform(state, 1e-4, 0.0, 1.0)
    amp = weak.amps[(0, 0, 1, 0, 1, 0)]
    assert abs(amp) == pytest.approx(math.sin(1e-4) / math.sqrt(2), rel=1e-6)
