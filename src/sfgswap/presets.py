"""Named parameter bundles shipped with the package.

A preset is a two-level mapping {section: {key: value}} in the same shape
as a parsed configuration file; the CLI merges a preset with the user's
config file and ``--set`` overrides before building typed parameters.
"""

from __future__ import annotations

import copy
import dataclasses
import math

from .protocols import ExperimentParams

# Measured entangled-photon-source parameters: mean photon numbers per
# mode, Klyshko (analyzer-arm) efficiencies, and transmittances of the
# optical circuit in front of the analyzer.
_EPS_PARAMS = {
    "mu_1h": 0.060, "mu_1v": 0.050, "mu_2h": 0.080, "mu_2v": 0.061,
    "eta_1h": 0.097, "eta_1v": 0.11, "eta_2h": 0.070, "eta_2v": 0.10,
    "t_1h": 0.44, "t_1v": 0.48, "t_2h": 0.56, "t_2v": 0.57,
}

# Symmetric sources with a lossless, dark-free, unit-efficiency analyzer, which
# the measured presets overlay; ``get_preset`` copies it for each preset.
_IDEAL_PARAMS = {
    "mu_1h": 0.05, "mu_1v": 0.05, "mu_2h": 0.05, "mu_2v": 0.05,
    "eta_1h": 1.0, "eta_1v": 1.0, "eta_2h": 1.0, "eta_2v": 1.0,
    "t_1h": 1.0, "t_1v": 1.0, "t_2h": 1.0, "t_2v": 1.0,
    "sfg_h": 1.0, "sfg_v": 1.0, "eta_th": 1.0, "eta_tv": 1.0, "eta_d": 1.0,
    "dark": 0.0, "window_acceptance": 1.0, "pair_cap": 3,
}

_PRESETS = {
    # Measured analyzer-unit benchmark: classical two-beam count rates,
    # collection and detection efficiencies, input powers, plus the
    # crystal constants and spectral profiles for the theoretical and
    # effective efficiency routes.
    "paper-table1": {
        "efficiency": {
            "bench_h.c_sfg": 2.54e6, "bench_h.eta_t": 0.43,
            "bench_h.eta_d": 0.85, "bench_h.p_a": 80e-9,
            "bench_h.p_b": 61e-9,
            "bench_v.c_sfg": 1.94e6, "bench_v.eta_t": 0.40,
            "bench_v.eta_d": 0.85, "bench_v.p_a": 70e-9,
            "bench_v.p_b": 56e-9,
            "lambda_a": 1535e-9, "lambda_b": 1585e-9, "rep_rate": 1e9,
            "crystal.eta_shg": 0.28, "crystal.length_cm": 6.3,
            "crystal.delta_nu_hat": 2.48e11, "crystal.tbp": 0.67,
            "crystal.lam": 1560e-9,
            "profile_a.center_nm": 1535.0, "profile_a.fwhm_nm": 0.31,
            "profile_b.center_nm": 1585.0, "profile_b.fwhm_nm": 0.33,
            "profile_pm.fwhm_nm": 0.080,
        },
    },
    # Source parameters alone, with an ideal (lossless, dark-free,
    # unit-efficiency) analyzer.
    "paper-table2": {"params": dict(_IDEAL_PARAMS, **_EPS_PARAMS)},
    # The full measured pipeline: sources, analyzer conversion
    # efficiencies, collection/detection losses, dark counts, and the
    # 96 % coincidence-window acceptance.
    "paper-tableS1": {"params": dict(
        _IDEAL_PARAMS, **_EPS_PARAMS, sfg_h=2.31e-8, sfg_v=2.35e-8,
        eta_th=0.43, eta_tv=0.40, eta_d=0.85, dark=6.7e-11, window_acceptance=0.96)},
    # Loss-free reference point.
    "ideal": {"params": _IDEAL_PARAMS},
    # Visibility-versus-loss comparison of the two analyzers: symmetric
    # sources, ideal collection and detection, loss swept on all four
    # channel modes at once.
    "fig-s3": {
        "params": _IDEAL_PARAMS,
        "sweep": {"variable": "loss", "start": 0.0, "stop": 0.9,
                  "steps": 19, "bsa": "both"},
    },
}

# Every [params] key: the fields of ExperimentParams.
PARAM_KEYS = tuple(field.name for field in dataclasses.fields(ExperimentParams))


def presets() -> list:
    """Stable, sorted list of available preset names."""
    return sorted(_PRESETS)


def get_preset(name: str) -> dict:
    """Deep copy of the named preset's configuration sections."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(presets())}")
    return copy.deepcopy(_PRESETS[name])


def _number(key: str, value) -> float:
    if not isinstance(value, bool):  # a JSON true is not the number 1
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def _integer(key: str, value) -> int:
    """``value`` as an int, from integer text (read exactly) or any number or
    numeric string without a fractional part: a fraction is refused."""
    if not isinstance(value, bool):  # a JSON true is not the number 1
        try:
            return int(str(value).strip())
        except ValueError:
            pass
        try:
            number = _number(key, value)
        except ValueError:
            number = math.nan
        if number.is_integer():
            return int(number)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def swap_params(section: dict) -> ExperimentParams:
    """ExperimentParams from a flat [params] section; an absent key takes
    the field's default."""
    unknown = set(section).difference(PARAM_KEYS)
    if unknown:
        raise KeyError(f"unknown parameter keys: {', '.join(sorted(unknown))}")
    return ExperimentParams(**{key: (_integer if key == "pair_cap" else _number)(key, value)
                               for key, value in section.items()})
