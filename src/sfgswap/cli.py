"""Command-line front end: run named experiments and sweeps from flat
key=value (INI) or JSON configuration, and emit CSV or human-readable
reports.

Exit codes: 0 on success, 2 on configuration errors, 3 on model errors.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

from . import bell
from .detection import HERALD_SIGNS
from .efficiency import (
    CrystalParams,
    SfgBenchInputs,
    SpectralProfile,
    sfg_eff_effective,
    sfg_eff_from_counts,
    sfg_eff_theoretical,
    spectral_overlap_gaussian,
)
from .presets import get_preset, presets, swap_params
from .protocols import lo_swap, qfc_teleport_strong_pump, sfg_swap, teleport

EXPERIMENTS = ("swap-sfg", "swap-lo", "teleport", "qfc", "bell", "keyrate",
               "efficiency", "sweep")

CSV_METRICS = ("V_Z", "V_X", "F_low", "S", "Q", "r", "herald_prob")
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


# The experiment is named on the command line, and nothing reads a section
# that names it.
_NO_EXPERIMENT_SECTION = ("[experiment] is not a config section; name the experiment "
                         "on the command line")


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
        if "." in key:
            first, rest = key.split(".", 1)
            if first == "experiment":
                raise ConfigError(_NO_EXPERIMENT_SECTION)
            # section.key, except dotted keys inside [efficiency]
            section, key = (first, rest) if first in (
                "params", "sweep", "teleport", "qfc", "bell") else ("efficiency", key)
        else:
            section = "params"
        config.setdefault(section, {})[key.strip()] = value.strip()
    return config


def _get_float(section: dict, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(section[key])
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} is not a number: {section[key]!r}")


def _get_int(section: dict, key: str, default, minimum: int) -> int:
    if key not in section and default is None:
        raise ConfigError(f"missing required key {key!r}")
    value = section.get(key, default)
    try:
        number = int(str(value).strip())
    except ValueError:
        raise ConfigError(f"key {key!r} is not an integer: {value!r}")
    if number < minimum:
        raise ConfigError(f"key {key!r} must be at least {minimum}, got {number}")
    return number


def _get_bool(section: dict, key: str, default: bool) -> bool:
    if key not in section:
        return default
    value = str(section[key]).strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ConfigError(f"key {key!r} is not a boolean: {section[key]!r}")


def _get_str(section: dict, key: str, default: str) -> str:
    # a JSON config may give a number where a name is due
    return str(section.get(key, default))


def _get_complex(section: dict, key: str, default: complex) -> complex:
    try:
        value = complex(str(section.get(key, default)))
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        raise ConfigError(f"key {key!r} is not a finite complex number: {section[key]!r}")
    return value


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    return f"{value:.12g}"


def _csv_lines(rows, swept_names=(), swept_units=()) -> str:
    header = [f"{n} ({u})" for n, u in zip(swept_names, swept_units)]
    header += [f"{m} ({CSV_UNITS[m]})" for m in CSV_METRICS]
    lines = [",".join(header)]
    for swept, metrics in rows:
        cells = [_fmt(v) if not isinstance(v, str) else v for v in swept]
        cells += [_fmt(metrics.get(m)) for m in CSV_METRICS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _section(config: dict, name: str, keys) -> dict:
    """The [name] section of ``config``, refused if it has a key outside ``keys``."""
    section = config.get(name, {})
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
    return section


def _build_params(config: dict):
    try:
        return swap_params(config.get("params", {}))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def _report_metrics(metrics: dict) -> str:
    lines = [f"{k} = {_fmt(v)}" for k, v in metrics.items() if v is not None]
    return "\n".join(lines) + "\n"


def _run_swap(config, fmt, out, lo=False):
    params = _build_params(config)
    rep = lo_swap(params) if lo else sfg_swap(params)
    metrics = {"V_Z": rep.v_z, "V_X": rep.v_x,
               "F_low": rep.fidelity_lower_bound,
               "herald_prob": rep.herald_prob}
    for name, table in (("P_Z", rep.p_z), ("P_X", rep.p_x)):
        metrics.update({f"{name}_{ij}": p for ij, p in table.items()})
    if fmt == "csv":
        _emit(_csv_lines([((), metrics)]), out)
    else:
        _emit(_report_metrics(metrics), out)
    return 0


def _run_teleport(config, fmt, out):
    section = _section(config, "teleport", ("polarization", "mean_photons", "herald_basis"))
    pol_name = _get_str(section, "polarization", "D")
    if pol_name in POLARIZATIONS:
        pol = POLARIZATIONS[pol_name]
    else:
        try:
            pol = tuple(complex(p) for p in pol_name.split(","))
        except ValueError:
            raise ConfigError(f"unknown polarization {pol_name!r}")
        if len(pol) != 2:
            raise ConfigError(f"polarization needs two amplitudes, got {pol_name!r}")
        # The tolerance ``protocols.teleport`` accepts.
        if not abs(math.sqrt(abs(pol[0]) ** 2 + abs(pol[1]) ** 2) - 1.0) <= 1e-9:
            raise ConfigError(f"polarization must be normalized, got {pol_name!r}")
    mean_photons = _get_float(section, "mean_photons", 0.95)
    if not (math.isfinite(mean_photons) and mean_photons > 0.0):
        raise ConfigError(f"mean_photons must be finite and positive, got {mean_photons!r}")
    basis = _get_str(section, "herald_basis", "D")
    if basis not in HERALD_SIGNS:
        raise ConfigError(f"herald basis must be 'D' or 'A', got {basis!r}")
    params = _build_params(config)
    rep = teleport(params, pol, mean_photons, herald_basis=basis)
    metrics = {"fidelity": rep.fidelity, "herald_prob": rep.herald_prob,
               "one_photon_weight": rep.one_photon_weight}
    if fmt == "csv":
        _emit(_csv_lines([((), {"F_low": rep.fidelity,
                                "herald_prob": rep.herald_prob})]), out)
    else:
        _emit(_report_metrics(metrics), out)
    return 0


def _run_qfc(config, fmt, out):
    section = _section(config, "qfc", ("alpha", "beta", "chi_tau"))
    alpha = _get_complex(section, "alpha", 1 / math.sqrt(2))
    beta = _get_complex(section, "beta", 1 / math.sqrt(2))
    if alpha == 0 and beta == 0:
        raise ConfigError("alpha and beta must not both be zero")
    chi_tau = _get_float(section, "chi_tau", 0.1)
    if not (math.isfinite(chi_tau) and chi_tau >= 0.0):
        raise ConfigError(f"chi_tau must be finite and nonnegative, got {chi_tau!r}")
    rep = qfc_teleport_strong_pump(alpha, beta, chi_tau, _build_params(config).eta_d)
    metrics = {"fidelity": rep.fidelity, "herald_prob": rep.herald_prob,
               "conversion_angle_H": rep.conversion_angle_H,
               "conversion_angle_V": rep.conversion_angle_V}
    if fmt == "csv":
        _emit(_csv_lines([((), {"F_low": rep.fidelity,
                                "herald_prob": rep.herald_prob})]), out)
    else:
        _emit(_report_metrics(metrics), out)
    return 0


def _search_config(config, gain_factor, *keys):
    """Parameters, [bell] section, analyzer gain and number of starts of a
    Bell-test search; ``keys`` are the other [bell] keys the search reads."""
    params = _build_params(config)
    section = _section(config, "bell", ("gain_factor", "n_starts") + keys)
    gain = gain_factor if gain_factor is not None else _get_float(
        section, "gain_factor", 1.0)
    if not (math.isfinite(gain) and gain > 0.0):
        raise ConfigError(f"gain factor must be finite and positive, got {gain!r}")
    return params, section, gain, _get_int(section, "n_starts", 8, minimum=1)


def _run_bell(config, fmt, out, seed, gain_factor):
    params, section, gain, n_starts = _search_config(config, gain_factor, "free_mu")
    free_mu = _get_bool(section, "free_mu", False)
    res = bell.optimize_chsh(params, free_mu=free_mu, gain=gain, seed=seed,
                             n_starts=n_starts)
    metrics = {"S": res.value,
               "theta_a1": res.settings.theta_a1,
               "theta_a2": res.settings.theta_a2,
               "theta_b1": res.settings.theta_b1,
               "theta_b2": res.settings.theta_b2}
    if free_mu:
        metrics["mu_h"] = res.mu_h
        metrics["mu_v"] = res.mu_v
    if fmt == "csv":
        _emit(_csv_lines([((gain,), {"S": res.value})],
                         ("gain_factor",), ("dimensionless",)), out)
    else:
        metrics["bell_violation"] = 1.0 if res.value > 2.0 else 0.0
        _emit(_report_metrics(metrics), out)
    return 0


def _run_keyrate(config, fmt, out, seed, gain_factor):
    params, _, gain, n_starts = _search_config(config, gain_factor)
    res = bell.optimize_key_rate(params, gain=gain, seed=seed,
                                 n_starts=n_starts)
    metrics = {"r": res.value, "S": res.s, "Q": res.q}
    if fmt == "csv":
        _emit(_csv_lines([((gain,), metrics)],
                         ("gain_factor",), ("dimensionless",)), out)
    else:
        _emit(_report_metrics(metrics), out)
    return 0


def _run_efficiency(config, fmt, out):
    section = config.get("efficiency", {})
    if not section:
        raise ConfigError("efficiency experiment needs an [efficiency] section")
    lam_a = _get_float(section, "lambda_a")
    lam_b = _get_float(section, "lambda_b")
    rep_rate = _get_float(section, "rep_rate")
    results = {}
    for row in ("h", "v"):
        prefix = f"bench_{row}."
        if prefix + "c_sfg" in section:
            bench = SfgBenchInputs(
                c_sfg=_get_float(section, prefix + "c_sfg"),
                eta_t=_get_float(section, prefix + "eta_t"),
                eta_d=_get_float(section, prefix + "eta_d"),
                p_a=_get_float(section, prefix + "p_a"),
                p_b=_get_float(section, prefix + "p_b"),
                lambda_a=lam_a, lambda_b=lam_b, f=rep_rate)
            results[f"eta_sfg_{row}_from_counts"] = sfg_eff_from_counts(bench)
    eta_th = None
    if "crystal.eta_shg" in section:
        crystal = CrystalParams(
            eta_shg=_get_float(section, "crystal.eta_shg"),
            length_cm=_get_float(section, "crystal.length_cm"),
            delta_nu_hat=_get_float(section, "crystal.delta_nu_hat"),
            tbp=_get_float(section, "crystal.tbp"),
            lam=_get_float(section, "crystal.lam"))
        eta_th = sfg_eff_theoretical(crystal)
        results["eta_sfg_theoretical"] = eta_th
    if "profile_a.fwhm_nm" in section and eta_th is not None:
        prof_a = SpectralProfile(_get_float(section, "profile_a.center_nm"),
                                 _get_float(section, "profile_a.fwhm_nm"))
        prof_b = SpectralProfile(_get_float(section, "profile_b.center_nm"),
                                 _get_float(section, "profile_b.fwhm_nm"))
        center_pm = 1.0 / (1.0 / prof_a.center_nm + 1.0 / prof_b.center_nm)
        prof_pm = SpectralProfile(center_pm,
                                  _get_float(section, "profile_pm.fwhm_nm"))
        results["spectral_overlap"] = spectral_overlap_gaussian(prof_a, prof_b, prof_pm)
        results["eta_sfg_effective"] = sfg_eff_effective(
            eta_th, prof_a, prof_b, prof_pm)
    if not results:
        raise ConfigError("efficiency section provided no computable inputs")
    if fmt == "csv":
        header = ",".join(f"{k} (dimensionless)" for k in results)
        row = ",".join(_fmt(v) for v in results.values())
        _emit(header + "\n" + row + "\n", out)
    else:
        _emit(_report_metrics(results), out)
    return 0


def _sweep_assignments(variable: str, value: float) -> dict:
    if variable == "loss":
        t = 1.0 - value
        return {"t_1h": t, "t_1v": t, "t_2h": t, "t_2v": t}
    if variable == "t":
        return {"t_1h": value, "t_1v": value, "t_2h": value, "t_2v": value}
    if variable == "mu":
        return {"mu_1h": value, "mu_1v": value,
                "mu_2h": value, "mu_2v": value}
    return {variable: value}


def _sweep_point(args):
    params, bsa = args
    out = []
    if bsa in ("sfg", "both"):
        rep = sfg_swap(params)
        out.append(("sfg", rep))
    if bsa in ("lo", "both"):
        rep = lo_swap(params)
        out.append(("lo", rep))
    return out


def _run_sweep(config, fmt, out, jobs):
    section = _section(config, "sweep", ("variable", "steps", "start", "stop", "bsa"))
    variable = _get_str(section, "variable", "")
    if not variable:
        raise ConfigError("sweep needs a variable")
    steps = _get_int(section, "steps", None, minimum=2)
    start = _get_float(section, "start")
    stop = _get_float(section, "stop")
    bsa = _get_str(section, "bsa", "sfg")
    if bsa not in ("sfg", "lo", "both"):
        raise ConfigError(f"sweep bsa must be sfg, lo or both, not {bsa!r}")
    params_section = config.get("params", {})
    known = set(_sweep_assignments(variable, 0.0))
    valid = set(params_section) | {"t_1h", "t_1v", "t_2h", "t_2v",
                                   "mu_1h", "mu_1v", "mu_2h", "mu_2v"}
    if not known <= valid:
        raise ConfigError(f"unknown sweep variable {variable!r}")
    values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    # Every point's parameters are checked before any point runs.
    tasks = [(_build_params({"params": {**params_section, **_sweep_assignments(variable, v)}}),
              bsa) for v in values]
    # A fork-based pool starts all its workers up front, so it gets no more
    # than there are points.
    workers = min(jobs, len(tasks))
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    rows = []
    for value, point in zip(values, results):
        for which, rep in point:
            rows.append(((value, which),
                         {"V_Z": rep.v_z, "V_X": rep.v_x,
                          "F_low": rep.fidelity_lower_bound,
                          "herald_prob": rep.herald_prob}))
    # sweeps are tabular in either output format
    text = _csv_lines(rows, (variable, "bsa"), ("dimensionless", "label"))
    _emit(text, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfgswap",
        description="Simulations of entanglement swapping with a "
                    "sum-frequency-generation Bell-state analyzer.")
    parser.add_argument("experiment",
                        choices=EXPERIMENTS + ("presets",),
                        help="experiment to run, or 'presets' to list bundles")
    parser.add_argument("--config", help="INI or JSON configuration file")
    parser.add_argument("--preset", help="named parameter bundle")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a single configuration key "
                             "(section.key=value; bare keys go to [params])")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent sweep evaluations")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for optimizer restarts")
    parser.add_argument("--format", choices=("csv", "report"),
                        default="report", dest="fmt")
    parser.add_argument("--gain-factor", type=float, default=None,
                        help="multiplier on the analyzer conversion efficiency")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "presets":
        _emit("\n".join(presets()) + "\n", args.out)
        return 0

    try:
        config = {}
        if args.preset:
            try:
                config = get_preset(args.preset)
            except KeyError as exc:
                raise ConfigError(str(exc))
        if args.config:
            config = _merge(config, _load_config_file(args.config))
            if "experiment" in config:
                raise ConfigError(_NO_EXPERIMENT_SECTION)
        config = _apply_sets(config, args.set)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.experiment == "swap-sfg":
            return _run_swap(config, args.fmt, args.out)
        if args.experiment == "swap-lo":
            return _run_swap(config, args.fmt, args.out, lo=True)
        if args.experiment == "teleport":
            return _run_teleport(config, args.fmt, args.out)
        if args.experiment == "qfc":
            return _run_qfc(config, args.fmt, args.out)
        if args.experiment == "bell":
            return _run_bell(config, args.fmt, args.out, args.seed,
                             args.gain_factor)
        if args.experiment == "keyrate":
            return _run_keyrate(config, args.fmt, args.out, args.seed,
                                args.gain_factor)
        if args.experiment == "efficiency":
            return _run_efficiency(config, args.fmt, args.out)
        if args.experiment == "sweep":
            return _run_sweep(config, args.fmt, args.out, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
