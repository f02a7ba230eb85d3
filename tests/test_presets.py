"""Named parameter bundles and the flat-section parameter builder."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgswap.presets import PARAM_KEYS, get_preset, presets, swap_params
from sfgswap.protocols import PAIR_CAP_MAX, ExperimentParams


def test_presets_listing_is_sorted_and_stable():
    names = presets()
    assert names == sorted(names)
    for expected in ("ideal", "fig-s3", "paper-table1", "paper-table2",
                     "paper-tableS1"):
        assert expected in names
    assert presets() == names


def test_get_preset_returns_deep_copy():
    a = get_preset("ideal")
    a["params"]["mu_1h"] = 999
    assert get_preset("ideal")["params"]["mu_1h"] == 0.05


def test_fig_s3_sweeps_from_the_ideal_params():
    assert get_preset("fig-s3")["params"] == get_preset("ideal")["params"]


def test_get_preset_unknown_name():
    with pytest.raises(KeyError):
        get_preset("nope")


def test_swap_params_field_mapping():
    p = swap_params(get_preset("paper-tableS1")["params"])
    assert (p.mu_1h, p.mu_1v, p.mu_2h, p.mu_2v) == (0.060, 0.050, 0.080, 0.061)
    assert (p.sfg_h, p.sfg_v) == (2.31e-8, 2.35e-8)
    assert (p.t_1h, p.t_1v, p.t_2h, p.t_2v) == (0.44, 0.48, 0.56, 0.57)
    assert (p.eta_th, p.eta_tv, p.eta_d) == (0.43, 0.40, 0.85)
    assert (p.eta_1h, p.eta_1v) == (0.097, 0.11)
    assert (p.eta_2h, p.eta_2v) == (0.070, 0.10)
    assert p.dark == 6.7e-11
    assert p.window_acceptance == 0.96
    assert p.pair_cap == 3


def test_swap_params_accepts_string_values():
    p = swap_params({"mu_1h": "0.05", "sfg_h": "1.0", "pair_cap": "2"})
    assert p.mu_1h == 0.05
    assert p.pair_cap == 2


def test_swap_params_rejects_unknown_keys():
    with pytest.raises(KeyError):
        swap_params({"mu_1h": 0.05, "bogus": 1.0})


@pytest.mark.parametrize("value", [3, 3.0, "3", "3.0"])
def test_swap_params_accepts_integral_pair_cap(value):
    p = swap_params({"pair_cap": value})
    assert p.pair_cap == 3 and type(p.pair_cap) is int


@pytest.mark.parametrize("value", [2.5, "2.5", "three", float("nan"), float("inf"), None])
def test_swap_params_rejects_non_integer_pair_cap_by_name(value):
    # A fractional cap is refused, not truncated to the cap below it.
    with pytest.raises(ValueError, match="pair_cap must be an integer"):
        swap_params({"pair_cap": value})


def test_swap_params_refuses_an_integer_past_the_float_range_by_name():
    # A JSON integer literal of 401 digits has no float; it used to end in an
    # OverflowError traceback.
    with pytest.raises(ValueError, match="^mu_1h must be a number, got 1000"):
        swap_params({"mu_1h": 10**400})


def test_param_keys_are_the_experiment_params_fields():
    assert PARAM_KEYS == tuple(field.name for field in dataclasses.fields(ExperimentParams))
    assert len(PARAM_KEYS) == 20


_FRACTION = st.floats(0.0, 1.0)
# A valid value of each [params] key, by key prefix.
_VALID = {"mu_": st.floats(0.0, 1e300), "sfg_": _FRACTION, "t_": _FRACTION, "eta_": _FRACTION,
          "window_": _FRACTION, "dark": st.floats(0.0, 1.0, exclude_max=True),
          "pair_cap": st.integers(2, PAIR_CAP_MAX)}


@st.composite
def _sections(draw):
    """A [params] section with every key in its range, each value a number or
    its string, and the section as parsed."""
    section, parsed = {}, {}
    for key in PARAM_KEYS:
        value = draw(next(s for prefix, s in _VALID.items() if key.startswith(prefix)))
        parsed[key] = value
        section[key] = repr(value) if draw(st.booleans()) else value
    return section, parsed


@settings(max_examples=200, deadline=None)
@given(_sections())
def test_swap_params_fields_are_the_section(drawn):
    section, parsed = drawn
    assert dataclasses.asdict(swap_params(section)) == parsed
