"""Conversion-efficiency calculators and the spectral-overlap integral."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgswap.efficiency import (
    PLANCK_H,
    SPEED_OF_LIGHT,
    CrystalParams,
    SfgBenchInputs,
    SpectralProfile,
    fidelity_lower_bound,
    photons_per_pulse,
    sfg_eff_effective,
    sfg_eff_from_counts,
    sfg_eff_theoretical,
    spectral_overlap_gaussian,
)


def spectral_overlap(a: SpectralProfile, b: SpectralProfile, pm: SpectralProfile,
                     rel_tol: float = 1e-6, max_order: int = 256) -> float:
    """Overlap of the photon spectra with the phase-matching acceptance by
    tensor-product Gauss-Legendre quadrature over +/- 5 sigma, doubling the
    order until the result is stable to ``rel_tol``: the reference for the
    closed form ``spectral_overlap_gaussian``.

    The acceptance is a peak-normalized Gaussian in the sum-frequency
    wavelength detuning; first-order detunings of the input wavelengths map
    to the output as lambda_c^2 (x / lambda_a^2 + y / lambda_b^2).
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

    half_a, half_b = 5.0 * sa, 5.0 * sb
    prev = None
    order = 16
    while order <= max_order:
        xs, wx = np.polynomial.legendre.leggauss(order)
        grid = f(xs[:, None] * half_a, xs[None, :] * half_b)
        val = float((wx[:, None] * wx[None, :] * grid).sum() * half_a * half_b)
        if prev is not None and abs(val - prev) <= rel_tol * abs(val):
            return val
        prev = val
        order *= 2
    raise RuntimeError("spectral-overlap quadrature did not converge")


def bench(**kwargs):
    base = dict(c_sfg=2.54e6, eta_t=0.43, eta_d=0.85, p_a=80e-9, p_b=61e-9,
                lambda_a=1535e-9, lambda_b=1585e-9, f=1e9)
    base.update(kwargs)
    return SfgBenchInputs(**base)


def test_photons_per_pulse():
    n = photons_per_pulse(80e-9, 1535e-9, 1e9)
    assert n == pytest.approx(80e-9 * 1535e-9 / (PLANCK_H * SPEED_OF_LIGHT * 1e9))


def test_bench_efficiency_power_scaling():
    # Same count rate at double the input powers means a quarter of the
    # per-photon-pair efficiency.
    eta = sfg_eff_from_counts(bench())
    eta_double = sfg_eff_from_counts(bench(p_a=160e-9, p_b=122e-9))
    assert eta_double == pytest.approx(eta / 4.0)
    # Counts scale linearly.
    assert sfg_eff_from_counts(bench(c_sfg=2 * 2.54e6)) == pytest.approx(2 * eta)


def test_bench_validation():
    with pytest.raises(ValueError):
        bench(p_a=0.0)
    with pytest.raises(ValueError):
        bench(eta_t=0.0)


def test_theoretical_efficiency_scales_with_length():
    cp = CrystalParams(eta_shg=0.28, length_cm=6.3, delta_nu_hat=2.48e11,
                       tbp=0.67, lam=1560e-9)
    eta = sfg_eff_theoretical(cp)
    cp2 = CrystalParams(eta_shg=0.28, length_cm=12.6, delta_nu_hat=2.48e11,
                        tbp=0.67, lam=1560e-9)
    assert sfg_eff_theoretical(cp2) == pytest.approx(2 * eta)
    with pytest.raises(ValueError):
        CrystalParams(eta_shg=0.0, length_cm=1.0, delta_nu_hat=1.0, tbp=1.0,
                      lam=1e-6)


def profiles(fwhm_a=0.31, fwhm_b=0.33, fwhm_pm=0.080):
    a = SpectralProfile(1535.0, fwhm_a)
    b = SpectralProfile(1585.0, fwhm_b)
    center = 1.0 / (1.0 / 1535.0 + 1.0 / 1585.0)
    pm = SpectralProfile(center, fwhm_pm)
    return a, b, pm


def test_spectral_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(1550.0, 0.0)
    # Gaussian is the only profile: no shape can be asked for.
    with pytest.raises(TypeError):
        SpectralProfile(1550.0, 0.3, shape="lorentzian")


def crystal(**kwargs):
    base = dict(eta_shg=0.28, length_cm=6.3, delta_nu_hat=2.48e11, tbp=0.67, lam=1560e-9)
    base.update(kwargs)
    return CrystalParams(**base)


def profile(**kwargs):
    base = dict(center_nm=1550.0, fwhm_nm=0.3)
    base.update(kwargs)
    return SpectralProfile(**base)


BAD_FIELDS = (
    [(bench, name, v, "must be finite and positive")
     for name in ("c_sfg", "p_a", "p_b", "lambda_a", "lambda_b", "f")
     for v in (math.nan, math.inf, -1.0)]
    + [(bench, name, v, "must be in (0, 1]")
       for name in ("eta_t", "eta_d") for v in (math.nan, math.inf, 1.5)]
    + [(crystal, name, v, "must be finite and positive")
       for name in ("eta_shg", "length_cm", "delta_nu_hat", "tbp", "lam")
       for v in (math.nan, math.inf, -1.0)]
    + [(profile, name, v, "must be finite and positive")
       for name in ("center_nm", "fwhm_nm") for v in (math.nan, math.inf, -1550.0)])


@pytest.mark.parametrize("make, name, value, rule", BAD_FIELDS,
                         ids=[f"{make.__name__}-{name}-{value}"
                              for make, name, value, _ in BAD_FIELDS])
def test_efficiency_inputs_refuse_non_finite_and_out_of_range(make, name, value, rule):
    # NaN slips through a `<= 0` test, so each field is checked finite, and
    # the message names the field and its value.
    with pytest.raises(ValueError, match=re.escape(f"{name} {rule}, got {value!r}")):
        make(**{name: value})


def test_overlap_quadrature_matches_closed_form():
    a, b, pm = profiles()
    quad = spectral_overlap(a, b, pm)
    closed = spectral_overlap_gaussian(a, b, pm)
    assert quad == pytest.approx(closed, rel=1e-4)
    assert 0.0 < quad < 1.0


def test_overlap_wide_acceptance_limit():
    a, b, pm = profiles(fwhm_pm=1000.0)
    assert spectral_overlap_gaussian(a, b, pm) == pytest.approx(1.0, abs=1e-4)


def test_overlap_monotone_in_photon_bandwidth():
    values = [spectral_overlap_gaussian(*profiles(fwhm_a=w, fwhm_b=w))
              for w in (0.1, 0.2, 0.4, 0.8)]
    assert all(b < a for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.5, 2.0))
def test_overlap_invariant_under_joint_width_rescaling_of_closed_form(scale):
    # The overlap depends only on width ratios up to the fixed center
    # wavelengths; verify the quadrature tracks the closed form off the
    # nominal operating point too.
    a, b, pm = profiles(fwhm_a=0.31 * scale, fwhm_b=0.33 * scale,
                        fwhm_pm=0.080 * scale)
    quad = spectral_overlap(a, b, pm)
    closed = spectral_overlap_gaussian(a, b, pm)
    assert quad == pytest.approx(closed, rel=1e-4)


def test_effective_efficiency_reduces_theoretical():
    a, b, pm = profiles()
    eta = sfg_eff_effective(4.16e-8, a, b, pm)
    assert 0.0 < eta < 4.16e-8
    with pytest.raises(ValueError):
        sfg_eff_effective(-1.0, a, b, pm)


@pytest.mark.parametrize("eta_th", [math.nan, math.inf, -1.0])
def test_effective_efficiency_refuses_non_finite_and_negative(eta_th):
    # NaN and inf slip through a `< 0` test; the message names the value.
    with pytest.raises(ValueError, match=re.escape(
            f"eta_th must be finite and nonnegative, got {eta_th!r}")):
        sfg_eff_effective(eta_th, *profiles())


def test_fidelity_lower_bound():
    assert fidelity_lower_bound(0.8, 0.7) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        fidelity_lower_bound(1.2, 0.0)
