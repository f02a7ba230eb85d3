"""Command-line front end: run named experiments and sweeps from flat
key=value (INI) or JSON configuration, and emit CSV or human-readable
reports.

Each report is the library's result record, printed key by key: a
``TeleportReport`` or ``QfcReport`` field by field, and a CHSH optimum's
value, ``BellSettings`` and pump strengths.  ``presets`` lists the bundles
through the same output path, refusals and exit codes as every experiment.

Exit codes: 0 on success, 2 on configuration and output errors, 3 on model
errors.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import asdict

from . import bell
from ._checks import NONNEGATIVE, POSITIVE, check
from .detection import HERALD_SIGNS
from .efficiency import (
    INPUT_DEFAULT,
    INPUT_RULES,
    CrystalParams,
    SfgBenchInputs,
    SpectralProfile,
    sfg_eff_effective,
    sfg_eff_from_counts,
    sfg_eff_theoretical,
    spectral_overlap_gaussian,
)
from .presets import PARAM_KEYS, _integer, _number, get_preset, presets, swap_params
from .protocols import _normalized, lo_swap, qfc_teleport_strong_pump, sfg_swap, teleport

# The CSV columns, in order, and their units.
CSV_UNITS = {
    "V_Z": "dimensionless", "V_X": "dimensionless",
    "F_low": "dimensionless", "S": "dimensionless", "Q": "dimensionless",
    "r": "bits/herald", "herald_prob": "probability/pulse",
}

POLARIZATIONS = {
    "H": (1.0, 0.0), "V": (0.0, 1.0),
    "D": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "A": (1 / math.sqrt(2), -1 / math.sqrt(2)),
    "R": (1 / math.sqrt(2), 1j / math.sqrt(2)),
    "L": (1 / math.sqrt(2), -1j / math.sqrt(2)),
}


class ConfigError(Exception):
    pass


class _Values(dict):
    """A section's resolved keys; looking up a required key that is absent
    refuses it."""

    def __missing__(self, key):
        raise ConfigError(f"missing required key {key!r}")


def _given(key, raw):
    return raw


def _boolean(key, raw) -> bool:
    word = str(raw).strip().lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ConfigError(f"key {key!r} is not a boolean: {raw!r}")


def _text(key, raw) -> str:
    # a JSON config may give a number where a name is due
    return str(raw)


def _complex(key, raw) -> complex:
    try:
        value = complex(str(raw))
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        raise ConfigError(f"key {key!r} is not a finite complex number: {raw!r}")
    return value


def _polarization(key, raw) -> tuple:
    name = str(raw)
    if name in POLARIZATIONS:
        return POLARIZATIONS[name]
    try:
        pol = tuple(complex(p) for p in name.split(","))
    except ValueError:
        raise ConfigError(f"unknown polarization {name!r}")
    if len(pol) != 2:
        raise ConfigError(f"polarization needs two amplitudes, got {name!r}")
    if not _normalized(*pol):
        raise ConfigError(f"polarization must be normalized, got {name!r}")
    return pol


# The swap of each Bell-state analyzer: the SFG herald and the linear-optical
# one.  Each swap is looked up by its name at the call, so a wrapper put on
# that name (a traced span, a test's stub) sees every call.
ANALYZERS = {"sfg": lambda params: sfg_swap(params), "lo": lambda params: lo_swap(params)}
_CHANNELS = ("t_1h", "t_1v", "t_2h", "t_2v")
# The sweep shorthands: each sets four [params] keys, the channel
# transmittances or the pump strengths, to one map of the swept value.
SHORTHANDS = {"loss": (_CHANNELS, lambda v: 1.0 - v), "t": (_CHANNELS, lambda v: v),
              "mu": (("mu_1h", "mu_1v", "mu_2h", "mu_2v"), lambda v: v)}

_NEEDS_PARAMS = ("swap-sfg", "swap-lo", "teleport", "bell", "keyrate", "sweep")
_EFFICIENCY_KEYS = ("lambda_a", "lambda_b", "rep_rate",
                    *(f"bench_{row}.{field}" for row in "hv"
                      for field in ("c_sfg", "eta_t", "eta_d", "p_a", "p_b")),
                    *(f"crystal.{field}" for field in
                      ("eta_shg", "length_cm", "delta_nu_hat", "tbp", "lam")),
                    "profile_a.center_nm", "profile_a.fwhm_nm",
                    "profile_b.center_nm", "profile_b.fwhm_nm", "profile_pm.fwhm_nm")

# Every config section: the experiments that read it (True where one needs
# it), and for each key its parser, its default (None: required) and its
# rule, a ``_checks`` rule pair (a test of the value and what it asks; None:
# any value), refused as "<key> must be <rule>, got <value>".  A fourth
# item names the experiments that read a key, where fewer read it than read
# its section.  presets.swap_params parses and checks the [params] keys.
# --gain-factor and --seed spell keys of [bell].  teleport.herald_basis is
# checked (D or A) but changes no output: the herald's sign leaves every
# teleport number as it is.
SECTIONS = {
    "params": ({**dict.fromkeys(_NEEDS_PARAMS, True), "qfc": False},
               dict.fromkeys(PARAM_KEYS, (_given, None, None))),
    "teleport": ({"teleport": False}, {
        "polarization": (_polarization, POLARIZATIONS["D"], None),
        "mean_photons": (_number, 0.95, POSITIVE),
        "herald_basis": (_text, "D", (HERALD_SIGNS.__contains__, "'D' or 'A'")),
    }),
    "qfc": ({"qfc": False}, {
        "alpha": (_complex, complex(1 / math.sqrt(2)), None),
        "beta": (_complex, complex(1 / math.sqrt(2)), None),
        "chi_tau": (_number, 0.1, NONNEGATIVE),
    }),
    "bell": ({"bell": False, "keyrate": False}, {
        "gain_factor": (_number, 1.0, POSITIVE),
        "n_starts": (_integer, 8, (lambda n: n >= 1, "at least 1")),
        "seed": (_integer, 0, (lambda n: n >= 0, "nonnegative")),
        "free_mu": (_boolean, False, None, ("bell",)),
    }),
    "sweep": ({"sweep": False}, {
        "variable": (_text, "", ((*SHORTHANDS, *PARAM_KEYS).__contains__,
                                 f"{', '.join(SHORTHANDS)} or a [params] key")),
        "steps": (_integer, None, (lambda n: n >= 2, "at least 2")),
        "start": (_number, None, (math.isfinite, "finite")),
        "stop": (_number, None, (math.isfinite, "finite")),
        "bsa": (_text, "sfg", ((*ANALYZERS, "both").__contains__,
                               f"{', '.join(ANALYZERS)} or both")),
    }),
    "efficiency": ({"efficiency": True}, {
        key: (_number, None, INPUT_RULES.get(key.rpartition(".")[2], INPUT_DEFAULT))
        for key in _EFFICIENCY_KEYS}),
}


def _check_names(config: dict, experiment: str) -> None:
    """Refuse a section that is not in SECTIONS, and a key that is not in its
    section or, in a section the experiment reads, one that it does not read."""
    for name, section in config.items():
        if name not in SECTIONS:
            hint = "; name the experiment on the command line" if name == "experiment" else ""
            raise ConfigError(f"[{name}] is not a config section{hint}")
        readers, keys = SECTIONS[name]
        read = {key for key, (_, _, _, *only) in keys.items()
                if not only or experiment in only[0]}
        unknown = sorted(set(section) - (read if experiment in readers else set(keys)))
        if unknown:
            raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")


def _read(config: dict, experiment: str, name: str) -> _Values:
    """The [name] section of ``config`` as ``experiment`` reads it, each key
    parsed, checked and defaulted as SECTIONS says."""
    readers, keys = SECTIONS[name]
    section = config.get(name, {})
    if readers[experiment] and not section:
        article = "an" if name[0] in "aeiou" else "a"
        raise ConfigError(f"{experiment} experiment needs {article} [{name}] section")
    values = _Values()
    for key, (parse, default, rule, *_) in keys.items():
        if key not in section and default is None:
            continue
        try:
            values[key] = parse(key, section[key]) if key in section else default
            if rule:
                check(key, values[key], *rule)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return values


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config {path}: {exc}")
        if not isinstance(data, dict) or not all(
                isinstance(v, dict) for v in data.values()):
            raise ConfigError("JSON config must map section names to objects")
        for section, kv in data.items():
            for key, value in kv.items():
                if value is None or isinstance(value, (list, dict)):
                    raise ConfigError(f"key {section}.{key} must be a number, string or "
                                      f"boolean, got {json.dumps(value)}")
        return {s: dict(kv) for s, kv in data.items()}
    import configparser

    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config {path}: {exc}")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _merge(base: dict, extra: dict) -> dict:
    out = {s: dict(kv) for s, kv in base.items()}
    for section, kv in extra.items():
        out.setdefault(section, {}).update(kv)
    return out


def _apply_sets(config: dict, sets) -> dict:
    for item in sets or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        section, dot, rest = key.partition(".")
        if not dot:
            section, rest = "params", key
        if not (section and rest.strip()):  # no key, or nothing before or after its dot
            raise ConfigError(f"--set expects key=value, got {item!r}")
        if dot and any(name.startswith(section + ".") for name in _EFFICIENCY_KEYS):
            # a dotted key of [efficiency], such as crystal.lam
            section, rest = "efficiency", key
        config.setdefault(section, {})[rest.strip()] = value.strip()
    return config


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    return f"{value:.12g}"


def _csv_lines(rows, swept_names=(), swept_units=()) -> str:
    header = [f"{n} ({u})" for n, u in zip(swept_names, swept_units)]
    header += [f"{m} ({unit})" for m, unit in CSV_UNITS.items()]
    lines = [",".join(header)]
    for swept, metrics in rows:
        cells = [_fmt(v) if not isinstance(v, str) else v for v in swept]
        cells += [_fmt(metrics.get(m)) for m in CSV_UNITS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_params(config: dict, experiment: str, **assignments):
    section = {**_read(config, experiment, "params"), **assignments}
    try:
        return swap_params(section)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _report_metrics(metrics: dict) -> str:
    lines = [f"{k} = {_fmt(v)}" for k, v in metrics.items() if v is not None]
    return "\n".join(lines) + "\n"


def _swap_metrics(rep) -> dict:
    return {"V_Z": rep.v_z, "V_X": rep.v_x, "F_low": rep.fidelity_lower_bound,
            "herald_prob": rep.herald_prob}


def _transfer_outputs(rep):
    # a transfer's fidelity goes in the F_low column
    return asdict(rep), _csv_lines([((), {"F_low": rep.fidelity, "herald_prob": rep.herald_prob})])


# Each _run_* function returns the metrics of its report (None: the table is
# the report) and its CSV table.

def _run_swap(config, experiment):
    params = _build_params(config, experiment)
    rep = ANALYZERS[experiment.removeprefix("swap-")](params)
    metrics = _swap_metrics(rep)
    for name, table in (("P_Z", rep.p_z), ("P_X", rep.p_x)):
        metrics.update({f"{name}_{ij}": p for ij, p in table.items()})
    return metrics, _csv_lines([((), metrics)])


def _run_teleport(config, experiment):
    opts = _read(config, experiment, "teleport")
    params = _build_params(config, experiment)
    return _transfer_outputs(teleport(params, opts["polarization"], opts["mean_photons"],
                                      herald_basis=opts["herald_basis"]))


def _run_qfc(config, experiment):
    opts = _read(config, experiment, "qfc")
    if opts["alpha"] == 0 and opts["beta"] == 0:
        raise ConfigError("alpha and beta must not both be zero")
    return _transfer_outputs(qfc_teleport_strong_pump(
        opts["alpha"], opts["beta"], opts["chi_tau"], _build_params(config, experiment).eta_d))


def _run_bell(config, experiment):
    params = _build_params(config, experiment)
    opts = _read(config, experiment, "bell")
    res = bell.optimize_chsh(params, free_mu=opts["free_mu"], gain=opts["gain_factor"],
                             seed=opts["seed"], n_starts=opts["n_starts"])
    # theta_a0, and at a fixed pump mu_h and mu_v, are None: not printed
    metrics = {"S": res.value, **asdict(res.settings), "mu_h": res.mu_h, "mu_v": res.mu_v,
               "bell_violation": 1.0 if res.value > 2.0 else 0.0}
    return metrics, _csv_lines([((opts["gain_factor"],), {"S": res.value})],
                               ("gain_factor",), ("dimensionless",))


def _run_keyrate(config, experiment):
    params = _build_params(config, experiment)
    opts = _read(config, experiment, "bell")
    res = bell.optimize_key_rate(params, gain=opts["gain_factor"], seed=opts["seed"],
                                 n_starts=opts["n_starts"])
    metrics = {"r": res.value, "S": res.s, "Q": res.q}
    return metrics, _csv_lines([((opts["gain_factor"],), metrics)],
                               ("gain_factor",), ("dimensionless",))


def _run_efficiency(config, experiment):
    values = _read(config, experiment, "efficiency")

    def group(prefix):
        # the keys under ``prefix`` by field name, each one required
        return {key[len(prefix):]: values[key] for key in _EFFICIENCY_KEYS
                if key.startswith(prefix)}

    results = {}
    for row in ("h", "v"):
        if f"bench_{row}.c_sfg" in values:
            # only a count-rate row reads the wavelengths and the pulse rate
            bench = SfgBenchInputs(lambda_a=values["lambda_a"], lambda_b=values["lambda_b"],
                                   f=values["rep_rate"], **group(f"bench_{row}."))
            results[f"eta_sfg_{row}_from_counts"] = sfg_eff_from_counts(bench)
    if "crystal.eta_shg" in values:
        results["eta_sfg_theoretical"] = sfg_eff_theoretical(CrystalParams(**group("crystal.")))
    if "profile_a.fwhm_nm" in values:
        prof_a = SpectralProfile(**group("profile_a."))
        prof_b = SpectralProfile(**group("profile_b."))
        center_pm = 1.0 / (1.0 / prof_a.center_nm + 1.0 / prof_b.center_nm)
        prof_pm = SpectralProfile(center_pm, **group("profile_pm."))
        results["spectral_overlap"] = spectral_overlap_gaussian(prof_a, prof_b, prof_pm)
        if "eta_sfg_theoretical" in results:
            results["eta_sfg_effective"] = sfg_eff_effective(
                results["eta_sfg_theoretical"], prof_a, prof_b, prof_pm)
    if not results:
        raise ConfigError("efficiency section provided no computable inputs")
    header = ",".join(f"{k} (dimensionless)" for k in results)
    return results, header + "\n" + ",".join(_fmt(v) for v in results.values()) + "\n"


def _sweep_assignments(variable: str, value: float) -> dict:
    keys, to = SHORTHANDS.get(variable, ((variable,), lambda v: v))
    return dict.fromkeys(keys, to(value))


def _run_sweep(config, experiment):
    opts = _read(config, experiment, "sweep")
    variable, steps, start, stop = (opts[key] for key in ("variable", "steps", "start", "stop"))
    values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    # Every point's parameters are checked before any point runs.
    points = [_build_params(config, experiment, **_sweep_assignments(variable, v)) for v in values]
    analyzers = [(name, swap) for name, swap in ANALYZERS.items() if opts["bsa"] in (name, "both")]
    rows = []
    for value, params in zip(values, points):
        try:
            rows += [((value, name), _swap_metrics(swap(params))) for name, swap in analyzers]
        except ValueError as exc:  # a model error names its point
            raise ValueError(f"at {variable} = {_fmt(value)}: {exc}") from exc
    # sweeps are tabular in either output format
    return None, _csv_lines(rows, (variable, "bsa"), ("dimensionless", "label"))


def _run_presets(config, experiment):
    return None, "\n".join(presets()) + "\n"


RUNNERS = {"swap-sfg": _run_swap, "swap-lo": _run_swap, "teleport": _run_teleport,
           "qfc": _run_qfc, "bell": _run_bell, "keyrate": _run_keyrate,
           "efficiency": _run_efficiency, "sweep": _run_sweep, "presets": _run_presets}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfgswap",
        description="Simulations of entanglement swapping with a "
                    "sum-frequency-generation Bell-state analyzer.")
    parser.add_argument("experiment",
                        choices=RUNNERS,
                        help="experiment to run, or 'presets' to list bundles")
    parser.add_argument("--config", help="INI or JSON configuration file")
    parser.add_argument("--preset", help="named parameter bundle")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a single configuration key "
                             "(section.key=value; bare keys go to [params])")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--seed", help="seed for optimizer restarts (bell.seed)")
    parser.add_argument("--format", choices=("csv", "report"),
                        default="report", dest="fmt")
    parser.add_argument("--gain-factor", help="multiplier on the analyzer conversion efficiency "
                                                 "(bell.gain_factor)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = {}
        if args.preset:
            try:
                config = get_preset(args.preset)
            except KeyError as exc:
                raise ConfigError(str(exc))
        if args.config:
            config = _merge(config, _load_config_file(args.config))
        config = _apply_sets(config, args.set)
        readers = SECTIONS["bell"][0]
        for key in ("gain_factor", "seed"):
            if getattr(args, key) is None:
                continue
            if args.experiment not in readers:
                raise ConfigError(f"--{key.replace('_', '-')} applies only to "
                                  f"{' and '.join(readers)}, not {args.experiment}")
            config.setdefault("bell", {})[key] = getattr(args, key)
        _check_names(config, args.experiment)
        report, table = RUNNERS[args.experiment](config, args.experiment)
        _emit(table if args.fmt == "csv" or report is None else _report_metrics(report),
              args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
