"""Every entry point over parameters drawn at their rules' edges: each call
returns finite, physical outputs or refuses its input with a ValueError."""

import dataclasses
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import TSIRELSON
from sfgswap.bell import optimize_chsh, optimize_key_rate
from sfgswap.cli import POLARIZATIONS
from sfgswap.protocols import ExperimentParams, lo_swap, sfg_swap, teleport

# Visibilities, fidelities and their bounds are ratios bounded by 1, whose
# rounding error is absolute.
RATIO_TOL = 1e-12

_EDGES = (0.0, 1e-300, 1e-12, 0.5)
_MU = st.one_of(st.sampled_from(_EDGES + (1.0, 1e300)), st.floats(0.0, 1e300))
_UNIT = st.one_of(st.sampled_from(_EDGES + (1.0,)), st.floats(0.0, 1.0))
_BELOW_ONE = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.0, exclude_max=True))
_RULES = {**dict.fromkeys(("mu_1h", "mu_1v", "mu_2h", "mu_2v"), _MU),
          **dict.fromkeys(("sfg_h", "sfg_v", "t_1h", "t_1v", "t_2h", "t_2v", "eta_th", "eta_tv",
                           "eta_1h", "eta_1v", "eta_2h", "eta_2v", "eta_d",
                           "window_acceptance"), _UNIT),
          "dark": _BELOW_ONE, "pair_cap": st.sampled_from([2, 3, 5, 10])}


def _probability(p) -> bool:
    return 0.0 <= p <= 1.0


def _ratio(v) -> bool:
    return abs(v) <= 1.0 + RATIO_TOL


def _swap_physical(rep) -> bool:
    return (_ratio(rep.v_z) and _ratio(rep.v_x) and _ratio(rep.fidelity_lower_bound)
            and _probability(rep.herald_prob)
            and all(map(_probability, [*rep.p_z.values(), *rep.p_x.values()])))


def _teleport_physical(rep) -> bool:
    return (-RATIO_TOL <= rep.fidelity <= 1.0 + RATIO_TOL and _probability(rep.herald_prob)
            and _probability(rep.one_photon_weight) and _probability(rep.truncation_dropped))


def _search_physical(opt) -> bool:
    return opt.s <= TSIRELSON + 1e-9 and (opt.q is None or _probability(opt.q))


_CALLS = {
    "sfg-A": (lambda p: sfg_swap(p, "A"), _swap_physical),
    "sfg-D": (lambda p: sfg_swap(p, "D"), _swap_physical),
    "lo": (lo_swap, _swap_physical),
    "teleport": (lambda p: teleport(p, POLARIZATIONS["D"], 0.95), _teleport_physical),
    "chsh": (lambda p: optimize_chsh(p, n_starts=1), _search_physical),
    "keyrate": (lambda p: optimize_key_rate(p, n_starts=1), _search_physical),
}


def _finite(report) -> bool:
    """Whether every float of a report, its tables and its settings is finite."""
    values = []
    for v in vars(report).values():
        if isinstance(v, dict):
            values += v.values()
        elif dataclasses.is_dataclass(v):
            values += vars(v).values()
        else:
            values.append(v)
    return all(math.isfinite(v) for v in values if isinstance(v, float))


@settings(max_examples=100, deadline=None)
@given(fields=st.fixed_dictionaries(_RULES), name=st.sampled_from(sorted(_CALLS)))
def test_every_entry_point_returns_physical_outputs_or_refuses(fields, name):
    # Under warnings as errors, a numpy RuntimeWarning fails the call.
    call, physical = _CALLS[name]
    params = ExperimentParams(**fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = call(params)
        except ValueError:
            return
    assert _finite(report), report
    assert physical(report), report
