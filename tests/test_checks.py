"""The argument rules of the library (``sfgswap._checks``), read through every
entry point that takes a number."""

import re

import numpy as np
import pytest

from sfgswap import bell
from sfgswap.bell import SearchKernel, efficiency_threshold, sfg_gain_threshold
from sfgswap.efficiency import (
    CrystalParams,
    SfgBenchInputs,
    SpectralProfile,
    fidelity_lower_bound,
    sfg_eff_effective,
)
from sfgswap.optimize import monotone_threshold
from sfgswap.presets import PARAM_KEYS, get_preset, swap_params
from sfgswap.protocols import (
    ExperimentParams,
    error_event_probs,
    heralded_entries,
    qfc_teleport_strong_pump,
    teleport,
)

IDEAL = swap_params(get_preset("ideal")["params"]).replace(pair_cap=2)
BENCH = dict(c_sfg=2.54e6, eta_t=0.43, eta_d=0.85, p_a=80e-9, p_b=61e-9,
             lambda_a=1535e-9, lambda_b=1585e-9, f=1e9)
CRYSTAL = dict(eta_shg=0.28, length_cm=6.3, delta_nu_hat=2.48e11, tbp=0.67, lam=1560e-9)
PROFILE = dict(center_nm=1535.0, fwhm_nm=0.31)


class _Reached(Exception):
    """Raised where a threshold search would begin: its arguments passed."""


def _reached(*args, **kwargs):
    raise _Reached


def _field(make, base, name):
    return lambda value: make(**{**base, name: value})


# (entry point and argument, the name a refusal gives, a call with that
# argument set to the value and every other one valid, a valid value)
CASES = [
    ("heralded_entries-eta_bsa", "eta_bsa", lambda v: heralded_entries(IDEAL, "lo", v), 0.5),
    ("error_event_probs-gamma", "gamma", lambda v: error_event_probs(v, 0.5), 0.5),
    ("error_event_probs-t", "t", lambda v: error_event_probs(0.2, v), 0.5),
    ("teleport-input_polarization", "input_polarization",
     lambda v: teleport(IDEAL, v, 0.95), (1.0, 0.0)),
    ("teleport-input_mean_photons", "input_mean_photons",
     lambda v: teleport(IDEAL, (1.0, 0.0), v), 0.5),
    ("qfc-alpha", "alpha", lambda v: qfc_teleport_strong_pump(v, 0.8, 0.1), 0.6),
    ("qfc-beta", "beta", lambda v: qfc_teleport_strong_pump(0.6, v, 0.1), 0.8),
    ("qfc-chi_tau", "chi_tau", lambda v: qfc_teleport_strong_pump(0.6, 0.8, v), 0.5),
    ("qfc-eta_d", "eta_d", lambda v: qfc_teleport_strong_pump(0.6, 0.8, 0.1, eta_d=v), 0.5),
    ("SearchKernel-gain", "gain", lambda v: SearchKernel(heralded_entries(IDEAL), IDEAL, v), 3),
    ("efficiency_threshold-bracket", "bracket",
     lambda v: efficiency_threshold(IDEAL, bracket=v), (0.5, 1.0)),
    ("efficiency_threshold-xtol", "xtol", lambda v: efficiency_threshold(IDEAL, xtol=v), 1e-3),
    ("sfg_gain_threshold-bracket", "bracket",
     lambda v: sfg_gain_threshold(IDEAL, bracket=v), (3.0, 80.0)),
    ("sfg_gain_threshold-rtol", "rtol", lambda v: sfg_gain_threshold(IDEAL, rtol=v), 0.02),
    ("monotone_threshold-lo", "bracket", lambda v: monotone_threshold(_reached, v, 1.0, 1e-3), 0.0),
    ("monotone_threshold-hi", "bracket", lambda v: monotone_threshold(_reached, 0.0, v, 1e-3), 1.0),
    ("monotone_threshold-xtol", "xtol", lambda v: monotone_threshold(_reached, 0.0, 1.0, v), 1e-3),
    *[(f"SfgBenchInputs-{key}", key, _field(SfgBenchInputs, BENCH, key), 0.5) for key in BENCH],
    *[(f"CrystalParams-{key}", key, _field(CrystalParams, CRYSTAL, key), 0.5) for key in CRYSTAL],
    *[(f"SpectralProfile-{key}", key, _field(SpectralProfile, PROFILE, key), 0.5)
      for key in PROFILE],
    ("sfg_eff_effective-eta_th", "eta_th", lambda v: sfg_eff_effective(
        v, SpectralProfile(**PROFILE), SpectralProfile(**PROFILE), SpectralProfile(**PROFILE)),
     0.5),
    ("fidelity_lower_bound-v_z", "v_z", lambda v: fidelity_lower_bound(v, 0.5), 0.5),
    ("fidelity_lower_bound-v_x", "v_x", lambda v: fidelity_lower_bound(0.5, v), 0.5),
]
# Arguments that are pairs, and pairs of the wrong arity.
PAIRS = ("teleport-input_polarization", "efficiency_threshold-bracket",
         "sfg_gain_threshold-bracket")
REFUSALS = ([(case, value) for case in CASES for value in (True, "0.5", None)]
            + [(case, value) for case in CASES if case[0] in PAIRS
               for value in ((0.5,), (0.5, 0.7, 0.9))])


@pytest.mark.parametrize("case, value", REFUSALS,
                         ids=[f"{case[0]}-{value!r}" for case, value in REFUSALS])
def test_every_argument_refuses_what_is_no_number_by_name(monkeypatch, case, value):
    # A bool is an int, but a flag is not a number, and neither a string nor
    # None is one: each is refused by the argument's name before any work,
    # not read as 1 nor failed with a bare TypeError or an unpacking error.
    # (ExperimentParams' own fields are refused alike:
    # test_experiment_params_rejects_a_non_number_by_name.)
    _, name, call, _ = case
    monkeypatch.setattr(bell, "heralded_entries", _reached)
    with pytest.raises(ValueError, match=rf"^{name} must be (a number|a pair of numbers), "
                                         rf"got .*{re.escape(repr(value))}"):
        call(value)


PARAM_CASES = [(f"ExperimentParams-{key}", key, _field(ExperimentParams, {}, key),
                3 if key == "pair_cap" else 0.5) for key in PARAM_KEYS]


def _numpy(value):
    if isinstance(value, tuple):
        return tuple(map(np.float64, value))
    return np.int64(value) if isinstance(value, int) else np.float64(value)


@pytest.mark.parametrize("case", CASES + PARAM_CASES, ids=[c[0] for c in CASES + PARAM_CASES])
def test_every_argument_accepts_numpy_scalars(monkeypatch, case):
    # numpy registers its scalar types with ``numbers``: np.float64 and
    # np.int64 are numbers wherever a Python float or int is.
    _, _, call, good = case
    monkeypatch.setattr(bell, "heralded_entries", _reached)
    try:
        call(_numpy(good))
    except _Reached:
        pass


HUGE = 10**400  # an int beyond the float range, which Python compares exactly with inf


@pytest.mark.parametrize("call, name, rule, value", [
    (lambda: ExperimentParams(mu_1h=HUGE), "mu_1h", "finite and nonnegative", HUGE),
    (lambda: qfc_teleport_strong_pump(HUGE, 0.5, 0.1), "alpha", "finite", HUGE),
    (lambda: teleport(IDEAL, (HUGE, 0), 0.9), "input_polarization", "finite and normalized",
     (HUGE, 0)),
    (lambda: teleport(IDEAL, (1.0, 0.0), HUGE), "input_mean_photons", "finite and positive",
     HUGE),
], ids=["ExperimentParams-mu_1h", "qfc-alpha", "teleport-input_polarization",
        "teleport-input_mean_photons"])
def test_an_integer_beyond_the_float_range_is_refused_by_name(call, name, rule, value):
    # Refused as out of range, not accepted (0 < 10**400 < inf holds) nor
    # failed later with a bare OverflowError.
    with pytest.raises(ValueError, match=rf"^{name} must be {rule}, got {re.escape(repr(value))}$"):
        call()
