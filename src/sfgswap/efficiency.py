"""Conversion-efficiency calculators for the nonlinear analyzer.

Three routes to the internal SFG efficiency: extraction from measured count
rates, the theoretical crystal formula from the SHG benchmark, and the
effective efficiency found by integrating the phase-matching acceptance
over the photon spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PLANCK_H = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m / s

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class SfgBenchInputs:
    """Measured quantities of a classical-input conversion benchmark.

    c_sfg: detected sum-frequency count rate (counts / s)
    eta_t, eta_d: collection transmittance and detector efficiency
    p_a, p_b: average input powers (W)
    lambda_a, lambda_b: input wavelengths (m)
    f: pulse repetition rate (pulses / s)
    """

    c_sfg: float
    eta_t: float
    eta_d: float
    p_a: float
    p_b: float
    lambda_a: float
    lambda_b: float
    f: float

    def __post_init__(self):
        for name in ("c_sfg", "p_a", "p_b", "lambda_a", "lambda_b", "f"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("eta_t", "eta_d"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")


@dataclass(frozen=True)
class CrystalParams:
    """Waveguide parameters entering the theoretical efficiency.

    eta_shg: second-harmonic benchmark efficiency, fractional W^-1 cm^-2
        (a percentage such as 28 %/(W cm^2) enters as 0.28)
    length_cm: waveguide length (cm)
    delta_nu_hat: spectral acceptance (Hz cm)
    tbp: time-bandwidth product of the pulses
    lam: operating wavelength (m)
    """

    eta_shg: float
    length_cm: float
    delta_nu_hat: float
    tbp: float
    lam: float

    def __post_init__(self):
        for name in ("eta_shg", "length_cm", "delta_nu_hat", "tbp", "lam"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SpectralProfile:
    """Gaussian spectral distribution: center and FWHM in nm."""

    center_nm: float
    fwhm_nm: float
    shape: str = "gaussian"

    def __post_init__(self):
        if self.fwhm_nm <= 0.0:
            raise ValueError("FWHM must be positive")
        if self.shape != "gaussian":
            raise ValueError(f"unsupported spectral shape {self.shape!r}")

    @property
    def sigma_nm(self) -> float:
        return self.fwhm_nm * FWHM_TO_SIGMA


def photons_per_pulse(power: float, wavelength: float, rep_rate: float) -> float:
    """Mean photon number per pulse of an average-power beam."""
    return power * wavelength / (PLANCK_H * SPEED_OF_LIGHT * rep_rate)


def sfg_eff_from_counts(inputs: SfgBenchInputs) -> float:
    """Internal conversion efficiency from a two-beam count-rate benchmark.

    The detected rate is C = eta_t eta_d f eta n_a n_b with n_a, n_b the
    photons per pulse of each input beam; solve for eta.
    """
    n_a = photons_per_pulse(inputs.p_a, inputs.lambda_a, inputs.f)
    n_b = photons_per_pulse(inputs.p_b, inputs.lambda_b, inputs.f)
    return inputs.c_sfg / (inputs.eta_t * inputs.eta_d * inputs.f * n_a * n_b)


def sfg_eff_theoretical(cp: CrystalParams) -> float:
    """Single-photon conversion efficiency from the SHG benchmark.

    eta = (eta_shg / 2) (h c / lambda) (delta_nu_hat L / tbp); the photon
    energy converts the classical W^-1 cm^-2 benchmark to a per-photon
    figure and the acceptance-bandwidth term fixes the effective spectral
    density.
    """
    photon_energy = PLANCK_H * SPEED_OF_LIGHT / cp.lam
    return (cp.eta_shg / 2.0) * photon_energy * (cp.delta_nu_hat * cp.length_cm / cp.tbp)


def _overlap_integrand(a: SpectralProfile, b: SpectralProfile, pm: SpectralProfile):
    """Integrand of the spectral-overlap integral in centered coordinates.

    The phase-matching acceptance is a peak-normalized Gaussian in the
    sum-frequency wavelength detuning; first-order detunings of the input
    wavelengths map to the output as lambda_c^2 (x / lambda_a^2 +
    y / lambda_b^2).
    """
    lam_c = 1.0 / (1.0 / a.center_nm + 1.0 / b.center_nm)
    ca = lam_c ** 2 / a.center_nm ** 2
    cb = lam_c ** 2 / b.center_nm ** 2
    sa, sb, sp = a.sigma_nm, b.sigma_nm, pm.sigma_nm
    na = 1.0 / (sa * math.sqrt(2.0 * math.pi))
    nb = 1.0 / (sb * math.sqrt(2.0 * math.pi))

    def f(x, y):
        detune = ca * x + cb * y
        return (na * np.exp(-x * x / (2 * sa * sa))
                * nb * np.exp(-y * y / (2 * sb * sb))
                * np.exp(-detune * detune / (2 * sp * sp)))

    return f, (ca, cb, sa, sb, sp)


def spectral_overlap(a: SpectralProfile, b: SpectralProfile, pm: SpectralProfile,
                     rel_tol: float = 1e-6, max_order: int = 256) -> float:
    """Overlap of the photon spectra with the phase-matching acceptance.

    Tensor-product Gauss-Legendre quadrature over +/- 5 sigma, doubling the
    order until the result is stable to ``rel_tol``.
    """
    f, (ca, cb, sa, sb, sp) = _overlap_integrand(a, b, pm)
    half_a, half_b = 5.0 * sa, 5.0 * sb
    prev = None
    order = 16
    while order <= max_order:
        xs, wx = np.polynomial.legendre.leggauss(order)
        x = xs * half_a
        y = xs * half_b
        grid = f(x[:, None], y[None, :])
        val = float((wx[:, None] * wx[None, :] * grid).sum() * half_a * half_b)
        if prev is not None and abs(val - prev) <= rel_tol * abs(val):
            return val
        prev = val
        order *= 2
    raise RuntimeError("spectral-overlap quadrature did not converge")


def spectral_overlap_gaussian(a: SpectralProfile, b: SpectralProfile,
                              pm: SpectralProfile) -> float:
    """Closed form of ``spectral_overlap`` for Gaussian profiles."""
    _, (ca, cb, sa, sb, sp) = _overlap_integrand(a, b, pm)
    return sp / math.sqrt(sp * sp + ca * ca * sa * sa + cb * cb * sb * sb)


def sfg_eff_effective(eta_th: float, a: SpectralProfile, b: SpectralProfile,
                      pm: SpectralProfile, rel_tol: float = 1e-6) -> float:
    """Effective efficiency: the theoretical value reduced by the overlap
    of the photon spectra with the phase-matching acceptance."""
    if eta_th < 0.0:
        raise ValueError("eta_th must be nonnegative")
    return eta_th * spectral_overlap(a, b, pm, rel_tol=rel_tol)


def fidelity_lower_bound(v_z: float, v_x: float) -> float:
    """Certified fidelity lower bound (V_Z + V_X) / 2."""
    for name, v in (("v_z", v_z), ("v_x", v_x)):
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [-1, 1]")
    return (v_z + v_x) / 2.0
