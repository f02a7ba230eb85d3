"""Threshold detection, heralding, and coincidence probabilities."""

import math

import numpy as np
import pytest

from dense_oracle import dense_density, product_basis
from density_route import (
    AnalyzerSetting,
    DensityOperator,
    block_density,
    block_readout,
    expectation,
    herald_projection,
    joint_click_pattern_probs,
    partial_trace,
    threshold_povm,
)
from branch_route import (
    OUTPUT_REGISTER,
    DetectorModel,
    PureState,
    click_prob,
    herald_amplitude_branches,
    reduced_branches,
    two_mode_rotation,
)
from sfgswap.detection import (
    _rotation_eig,
    analyzer_coefficients,
    arm_click_probs,
    rotation_blocks,
    trig_basis_and_derivative,
)
from sfgswap.protocols import ExperimentParams


def test_click_prob_values():
    assert click_prob(0.3, 0) == 0.0
    assert click_prob(0.3, 1) == pytest.approx(0.3)
    assert click_prob(0.3, 2) == pytest.approx(1.0 - 0.7 ** 2)
    assert click_prob(1.0, 5) == 1.0


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(1.5)
    with pytest.raises(ValueError):
        DetectorModel(0.5, dark_prob_per_window=1.0)


def test_analyzer_setting_range():
    with pytest.raises(ValueError):
        AnalyzerSetting(-0.1)
    with pytest.raises(ValueError):
        AnalyzerSetting(math.pi)


def test_threshold_povm_two_photons():
    reg = ("dH", "dV")
    rho = DensityOperator.from_pure(PureState.basis(reg, (2, 0), n_max=2))
    povm = threshold_povm(reg, "dH", "dV", AnalyzerSetting(0.0),
                          DetectorModel(0.6), n_max=2)
    assert expectation(rho, povm) == pytest.approx(1.0 - 0.4 ** 2)


def test_threshold_povm_rotated_analyzer():
    reg = ("dH", "dV")
    rho = DensityOperator.from_pure(PureState.basis(reg, (1, 0), n_max=2))
    theta = 0.3
    povm = threshold_povm(reg, "dH", "dV", AnalyzerSetting(theta),
                          DetectorModel(0.8), n_max=2)
    # An H photon reaches the rotated H arm with probability cos^2(theta).
    assert expectation(rho, povm) == pytest.approx(0.8 * math.cos(theta) ** 2)


@pytest.mark.parametrize("basis,seed", [("D", 0), ("A", 1), ("D", 2), ("A", 3)])
def test_herald_dual_route_equivalence(basis, seed):
    rng = np.random.default_rng(40 + seed)
    reg = ("aH", "cH", "cV", "dH")
    # At most one c photon, as required by the first-order interaction.
    basis_occ = [occ for occ in product_basis(4, 2)
                 if sum(occ) <= 2 and occ[1] + occ[2] <= 1]
    amps = {}
    for p in rng.choice(len(basis_occ), size=5, replace=False):
        amps[basis_occ[p]] = complex(rng.normal(), rng.normal())
    psi = PureState(reg, amps, n_max=2).normalized()
    det = DetectorModel(0.85)
    rho = herald_projection(DensityOperator.from_pure(psi), basis, det)
    mix = DensityOperator.from_branches(
        herald_amplitude_branches([psi], basis, det), register=("dH",), n_max=2)
    dense = product_basis(1, 2)
    assert np.abs(dense_density(rho, dense) - dense_density(mix, dense)).max() < 1e-12
    assert rho.trace() >= 0.0


def test_herald_rejects_two_converted_photons():
    psi = PureState(("cH", "cV", "dH"), {(1, 1, 0): 1.0}, n_max=2)
    with pytest.raises(ValueError):
        herald_projection(DensityOperator.from_pure(psi), "D", DetectorModel(1.0))
    with pytest.raises(ValueError):
        herald_amplitude_branches([psi], "D", DetectorModel(1.0))


def test_herald_basis_validation():
    psi = PureState(("cH", "cV", "dH"), {(1, 0, 0): 1.0}, n_max=2)
    with pytest.raises(ValueError, match="herald basis must be 'D' or 'A'"):
        herald_projection(DensityOperator.from_pure(psi), "X", DetectorModel(1.0))
    with pytest.raises(ValueError, match="herald basis must be 'D' or 'A'"):
        herald_amplitude_branches([psi], "X", DetectorModel(1.0))


def test_herald_on_diagonal_photon():
    # |D> on the c modes heralds with probability eta_d; |A> is orthogonal.
    amps = {(1, 0, 1): 1 / math.sqrt(2), (0, 1, 1): 1 / math.sqrt(2)}
    psi = PureState(("cH", "cV", "dH"), amps, n_max=2)
    rho = DensityOperator.from_pure(psi)
    assert herald_projection(rho, "D", DetectorModel(0.85)).trace() == pytest.approx(0.85)
    assert herald_projection(rho, "A", DetectorModel(0.85)).trace() == pytest.approx(0.0)


def test_click_pattern_marginals_match_threshold_povm():
    # Each single-arm click probability, as a marginal of the click-pattern
    # table and as a block-kernel readout, must equal the expectation of
    # that arm's rotated threshold POVM.
    rng = np.random.default_rng(9)
    amps = {occ: complex(rng.normal(), rng.normal())
            for occ in product_basis(4, 2) if sum(occ) <= 2}
    psi = PureState(OUTPUT_REGISTER, amps, n_max=2).normalized()
    rho = DensityOperator.from_pure(psi)
    effs = ExperimentParams(eta_1h=0.9, eta_1v=0.8, eta_2h=0.7, eta_2v=0.6)
    theta_d, theta_e = 0.2, 2.7
    table = joint_click_pattern_probs(rho, theta_d, theta_e, effs)
    assert len(table) == 16
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
    # Weight vectors: the H-arm and V-arm click probabilities, then 1.
    one = np.ones((3, 3))
    e = block_readout(block_density([psi], 2),
                      [theta_d], [*arm_click_probs(effs.eta_1h, effs.eta_1v, 2), one],
                      [theta_e], [*arm_click_probs(effs.eta_2h, effs.eta_2v, 2), one])[0, 0]
    assert e[2, 2] == pytest.approx(1.0, abs=1e-12)
    kernel = (e[0, 2], e[1, 2], e[2, 0], e[2, 1])
    # Rotating (m2, m1) by pi - theta is the analyzer rotation of (m1, m2)
    # by theta, up to a phase that cancels in the POVM.
    arms = (("dH", "dV", theta_d, effs.eta_1h), ("dV", "dH", math.pi - theta_d, effs.eta_1v),
            ("eH", "eV", theta_e, effs.eta_2h), ("eV", "eH", math.pi - theta_e, effs.eta_2v))
    for i, (mode, partner, theta, eta) in enumerate(arms):
        marginal = sum(p for (d, e), p in table.items() if (d + e)[i])
        povm = threshold_povm(OUTPUT_REGISTER, mode, partner, AnalyzerSetting(theta),
                              DetectorModel(eta), n_max=2, register_cap=2)
        assert marginal == pytest.approx(expectation(rho, povm), abs=1e-12)
        assert kernel[i] == pytest.approx(expectation(rho, povm), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.4, -1.3, 2.9, -math.pi / 4])
def test_rotation_blocks_match_two_mode_rotation(theta):
    # Column a' of block N is the rotation of |a', N - a'>.
    blocks = rotation_blocks([theta], 6)[0]
    for n in range(7):
        for a in range(n + 1):
            out = two_mode_rotation(PureState.basis(("H", "V"), (a, n - a), n_max=6),
                                    "H", "V", theta)
            column = np.zeros(7)
            for (h, _), amp in out.amps.items():
                assert abs(amp.imag) < 1e-15
                column[h] = amp.real
            assert np.abs(blocks[n, :, a] - column).max() < 1e-13


def _rotation_eig_by_eigh(N: int):
    """Eigenvalues and eigenprojectors of i K_N from LAPACK's Hermitian
    eigensolver, in ascending order: the oracle of the closed form."""
    off = np.sqrt(np.arange(1, N + 1) * np.arange(N, 0, -1.0))
    w, v = np.linalg.eigh(1j * (np.diag(off, 1) - np.diag(off, -1)))
    return w, np.einsum("ak,bk->kab", v, v.conj())


def test_rotation_eigenvalues_are_exact():
    # The eigenvalues of i K_N are the integers N - 2k, with no rounding.
    w, _, _ = _rotation_eig(20)
    for N in range(21):
        assert w[N, :N + 1].tolist() == [float(2 * k - N) for k in range(N + 1)]
        assert not w[N, N + 1:].any()


def test_rotation_projectors_match_eigh():
    n = 20
    w, proj, _ = _rotation_eig(n)
    for N in range(n + 1):
        w_ref, p_ref = _rotation_eig_by_eigh(N)
        assert np.abs(w[N, :N + 1] - w_ref).max() <= 1e-13 * max(N, 1)
        closed = proj[N, :N + 1] + 1j * proj[N, n + 1:n + 2 + N]
        assert np.abs(closed[:, :N + 1, :N + 1] - p_ref).max() <= 1e-13
        assert not proj[N, :, N + 1:].any() and not proj[N, :, :, N + 1:].any()


@pytest.mark.parametrize("n", [0, 1, 3, 5, 10])
def test_rotation_blocks_at_zero_are_the_identity(n):
    blocks = rotation_blocks([0.0], n)[0]
    for N in range(n + 1):
        expected = np.zeros((n + 1, n + 1))
        expected[:N + 1, :N + 1] = np.eye(N + 1)
        assert np.array_equal(blocks[N], expected)


def test_rotation_blocks_are_orthogonal():
    n = 10
    thetas = np.random.default_rng(17).uniform(-math.pi, math.pi, 12)
    for block in rotation_blocks(thetas, n):
        for N in range(n + 1):
            r = block[N, :N + 1, :N + 1]
            assert np.abs(r @ r.T - np.eye(N + 1)).max() <= 1e-13


def test_accidental_branches_match_partial_trace():
    amps = {(0, 0, 0, 0, 0): 0.8, (1, 1, 0, 0, 0): 0.48, (1, 0, 0, 1, 0): 0.36}
    psi = PureState(("aH",) + OUTPUT_REGISTER, amps, n_max=2)
    branches = reduced_branches(psi)
    assert len(branches) == 2
    assert all(b.register == OUTPUT_REGISTER for b in branches)
    mix = DensityOperator.from_branches(branches, register=OUTPUT_REGISTER, n_max=2)
    ref = partial_trace(DensityOperator.from_pure(psi), ["aH"])
    dense = product_basis(4, 2)
    assert np.abs(dense_density(mix, dense) - dense_density(ref, dense)).max() < 1e-15
    assert mix.trace() == pytest.approx(1.0)



@pytest.mark.parametrize("n", [2, 3, 5])
def test_analyzer_operator_is_a_trig_polynomial(n):
    # O(theta) = R(-theta)^T diag(o) R(-theta) from its 2n + 1 fitted
    # coefficients equals the rotation at angles off the fitting grid and
    # at the period's edges.
    rng = np.random.default_rng(n)
    thetas = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 16),
                             [math.pi / 2, -math.pi / 2, 0.0, math.pi / 4]])
    r = rotation_blocks(-thetas, n)
    for weight in (*arm_click_probs(0.9, 0.6, n), rng.uniform(-1.0, 1.0, (n + 1, n + 1))):
        exact = np.einsum("pNca,Nc,pNcb->pNab", r, weight, r)
        poly = np.einsum("pt,tNab->pNab", trig_basis_and_derivative(thetas, n)[:, 0],
                         analyzer_coefficients(weight))
        assert np.abs(poly - exact).max() <= 1e-13
