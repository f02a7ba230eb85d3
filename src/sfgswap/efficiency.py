"""Conversion-efficiency calculators for the nonlinear analyzer.

Three routes to the internal SFG efficiency: extraction from measured count
rates, the theoretical crystal formula from the SHG benchmark, and the
effective efficiency, the theoretical one times the overlap of the
phase-matching acceptance with the photon spectra, a Gaussian integral in
closed form.  The quadrature of ``tests/test_efficiency.py`` is the
reference it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import FRACTION, NONNEGATIVE, POSITIVE, fields, real

PLANCK_H = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m / s

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# The rule of each measured input by field name, and the rule of every input
# not named: the collection transmittance and detector efficiency are
# fractions, every other input is finite and positive.  ``cli.SECTIONS``
# reads the [efficiency] keys' rules from here.
INPUT_RULES, INPUT_DEFAULT = {"eta_t": FRACTION, "eta_d": FRACTION}, POSITIVE


class _MeasuredInputs:
    """A record of measured inputs: each field is checked on construction
    against its rule in ``INPUT_RULES``, or ``INPUT_DEFAULT``
    (``_checks.fields``)."""

    def __post_init__(self):
        fields(self, INPUT_RULES, INPUT_DEFAULT)


@dataclass(frozen=True)
class SfgBenchInputs(_MeasuredInputs):
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


@dataclass(frozen=True)
class CrystalParams(_MeasuredInputs):
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


@dataclass(frozen=True)
class SpectralProfile(_MeasuredInputs):
    """Gaussian spectral distribution: center and FWHM in nm."""

    center_nm: float
    fwhm_nm: float

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


def spectral_overlap_gaussian(a: SpectralProfile, b: SpectralProfile,
                              pm: SpectralProfile) -> float:
    """Overlap of the photon spectra with the phase-matching acceptance.

    The acceptance is a peak-normalized Gaussian in the sum-frequency
    wavelength detuning; first-order detunings x, y of the input wavelengths
    map to the output as lambda_c^2 (x / lambda_a^2 + y / lambda_b^2).  Its
    integral against the normalized spectra of ``a`` and ``b`` is
    sigma_pm / sqrt(sigma_pm^2 + c_a^2 sigma_a^2 + c_b^2 sigma_b^2).
    """
    lam_c = 1.0 / (1.0 / a.center_nm + 1.0 / b.center_nm)
    ca = lam_c ** 2 / a.center_nm ** 2
    cb = lam_c ** 2 / b.center_nm ** 2
    sa, sb, sp = a.sigma_nm, b.sigma_nm, pm.sigma_nm
    return sp / math.sqrt(sp * sp + ca * ca * sa * sa + cb * cb * sb * sb)


def sfg_eff_effective(eta_th: float, a: SpectralProfile, b: SpectralProfile,
                      pm: SpectralProfile) -> float:
    """Effective efficiency: the theoretical value reduced by the overlap
    of the photon spectra with the phase-matching acceptance."""
    real("eta_th", eta_th, *NONNEGATIVE)
    return eta_th * spectral_overlap_gaussian(a, b, pm)


def fidelity_lower_bound(v_z: float, v_x: float) -> float:
    """Certified fidelity lower bound (V_Z + V_X) / 2."""
    for name, v in (("v_z", v_z), ("v_x", v_x)):
        real(name, v, lambda x: -1.0 <= x <= 1.0, "in [-1, 1]")
    return (v_z + v_x) / 2.0
