"""Named parameter bundles and the flat-section parameter builder."""

import pytest

from sfgswap.presets import get_preset, presets, swap_params


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


def test_get_preset_unknown_name():
    with pytest.raises(KeyError):
        get_preset("nope")


def test_swap_params_field_mapping():
    p = swap_params(get_preset("paper-tableS1")["params"])
    assert p.eps1.mu_H == 0.060
    assert p.eps1.mu_V == 0.050
    assert p.eps2.mu_H == 0.080
    assert p.eps2.mu_V == 0.061
    assert p.sfg.eta_H == 2.31e-8
    assert p.sfg.eta_V == 2.35e-8
    assert (p.t1H, p.t1V, p.t2H, p.t2V) == (0.44, 0.48, 0.56, 0.57)
    assert (p.eta_tH, p.eta_tV, p.eta_d) == (0.43, 0.40, 0.85)
    assert (p.eta_1H, p.eta_1V) == (0.097, 0.11)
    assert (p.eta_2H, p.eta_2V) == (0.070, 0.10)
    assert p.dark == 6.7e-11
    assert p.window_acceptance == 0.96
    assert p.pair_cap == 3


def test_swap_params_accepts_string_values():
    p = swap_params({"mu_1h": "0.05", "sfg_h": "1.0", "pair_cap": "2"})
    assert p.eps1.mu_H == 0.05
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
