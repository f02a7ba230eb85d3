"""Command-line interface: config handling, output formats, exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sfgswap
from sfgswap.cli import main
from sfgswap.presets import PARAM_KEYS, get_preset


def run(tmp_path, *argv, name="out.txt"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_presets_listing(tmp_path):
    code, text = run(tmp_path, "presets")
    names = text.strip().splitlines()
    assert code == 0
    assert names == sorted(names)
    assert "paper-tableS1" in names


def test_presets_refuses_a_bad_output_path_like_every_experiment(tmp_path, capsys):
    # The listing goes through the experiments' output path: a directory
    # that is not there is an output error, not a traceback.
    for argv in (["presets"], ["swap-sfg", "--preset", "ideal"]):
        assert main([*argv, "--out", str(tmp_path / "missing" / "out.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("argv, refusal", [
    (("--set", "junk"), "--set expects key=value, got 'junk'"),
    (("--set", "bogus=1"), "unknown key(s) in [params]: bogus"),
    (("--preset", "nope"), "\"unknown preset 'nope'; available: "),
], ids=["malformed-set", "unknown-key", "unknown-preset"])
def test_presets_reads_its_flags_like_every_experiment(capsys, argv, refusal):
    # presets reads no section, as efficiency reads no [params]: its flags
    # are read and refused, not ignored.
    assert main(["presets", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"config error: {refusal}")


_ANGLES = ["theta_a1", "theta_a2", "theta_b1", "theta_b2"]
_ONE_START = ("--set", "bell.n_starts=1")


@pytest.mark.parametrize("argv, keys", [
    (("teleport",), ["fidelity", "herald_prob", "one_photon_weight", "truncation_dropped"]),
    (("qfc",), ["fidelity", "herald_prob", "conversion_angle_H", "conversion_angle_V"]),
    (("bell", *_ONE_START), ["S", *_ANGLES, "bell_violation"]),
    (("bell", *_ONE_START, "--set", "bell.free_mu=true"),
     ["S", *_ANGLES, "mu_h", "mu_v", "bell_violation"]),
    (("keyrate", *_ONE_START), ["r", "S", "Q"]),
], ids=["teleport", "qfc", "bell", "bell-free-mu", "keyrate"])
def test_each_report_prints_its_record_keys_in_order(tmp_path, argv, keys):
    # A report prints its result record's fields; theta_a0, and the pump
    # strengths of a fixed-pump search, are unset and not printed.
    code, text = run(tmp_path, argv[0], "--preset", "ideal", *argv[1:])
    assert code == 0
    assert [line.split(" = ")[0] for line in text.splitlines()] == keys


def test_swap_sfg_report(tmp_path):
    code, text = run(tmp_path, "swap-sfg", "--preset", "ideal")
    assert code == 0
    assert "V_Z = " in text and "herald_prob = " in text and "P_Z_HH = " in text


def test_swap_sfg_csv_units_header(tmp_path):
    code, text = run(tmp_path, "swap-sfg", "--preset", "ideal",
                     "--format", "csv")
    assert code == 0
    header = text.splitlines()[0]
    assert "V_Z (dimensionless)" in header
    assert "herald_prob (probability/pulse)" in header


def test_output_is_deterministic(tmp_path):
    _, first = run(tmp_path, "swap-sfg", "--preset", "paper-tableS1",
                   "--format", "csv", name="a.csv")
    _, second = run(tmp_path, "swap-sfg", "--preset", "paper-tableS1",
                    "--format", "csv", name="b.csv")
    assert first == second


def test_set_overrides_params(tmp_path):
    _, base = run(tmp_path, "swap-sfg", "--preset", "ideal", name="a.txt")
    code, changed = run(tmp_path, "swap-sfg", "--preset", "ideal",
                        "--set", "t_1h=0.5", name="b.txt")
    assert code == 0
    assert changed != base


def test_json_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(get_ideal_config()))
    code, text = run(tmp_path, "swap-sfg", "--config", str(cfg))
    assert code == 0
    assert "V_Z = " in text


def test_ini_config(tmp_path):
    cfg = tmp_path / "cfg.ini"
    lines = ["[params]"]
    lines += [f"{k} = {v}" for k, v in get_ideal_config()["params"].items()]
    cfg.write_text("\n".join(lines) + "\n")
    code, text = run(tmp_path, "swap-sfg", "--config", str(cfg))
    assert code == 0
    assert "V_Z = " in text


def get_ideal_config():
    return {"params": {"mu_1h": 0.05, "mu_1v": 0.05, "mu_2h": 0.05,
                       "mu_2v": 0.05, "sfg_h": 1.0, "sfg_v": 1.0}}


def test_efficiency_preset(tmp_path):
    code, text = run(tmp_path, "efficiency", "--preset", "paper-table1")
    assert code == 0
    assert "eta_sfg_h_from_counts" in text
    assert "eta_sfg_theoretical" in text
    assert "eta_sfg_effective" in text


def test_efficiency_reports_the_overlap_of_profiles_alone(tmp_path):
    # The spectral overlap needs only the three profiles; without crystal
    # constants there is no theoretical efficiency to reduce by it.
    profiles = {key: get_preset("paper-table1")["efficiency"][key]
                for key in ("lambda_a", "lambda_b", "rep_rate", "profile_a.center_nm",
                            "profile_a.fwhm_nm", "profile_b.center_nm", "profile_b.fwhm_nm",
                            "profile_pm.fwhm_nm")}
    args = [arg for key, value in profiles.items()
            for arg in ("--set", f"efficiency.{key}={value}")]
    code, text = run(tmp_path, "efficiency", *args)
    assert code == 0
    assert text == "spectral_overlap = 0.577636921171\n"


_TABLE1 = get_preset("paper-table1")["efficiency"]


@pytest.mark.parametrize("prefix, report", [
    ("crystal.", "eta_sfg_theoretical = 4.15716820713e-08\n"),
    ("profile_", "spectral_overlap = 0.577636921171\n"),
], ids=["crystal", "profiles"])
def test_efficiency_reads_the_wavelengths_only_with_a_count_rate_row(tmp_path, capsys, prefix,
                                                                     report):
    # lambda_a, lambda_b and rep_rate enter only the count-rate efficiency:
    # the crystal constants alone, or the three profiles alone, give their
    # result without them.
    args = [arg for key, value in _TABLE1.items() if key.startswith(prefix)
            for arg in ("--set", f"{key}={value}")]
    assert run(tmp_path, "efficiency", *args) == (0, report)
    # A count-rate row still needs them.
    assert main(["efficiency", *args, "--set", "bench_h.c_sfg=1"]) == 2
    assert capsys.readouterr().err == "config error: missing required key 'lambda_a'\n"


def test_teleport_and_qfc(tmp_path):
    code, text = run(tmp_path, "teleport", "--preset", "ideal",
                     "--set", "teleport.mean_photons=0.95", name="t.txt")
    assert code == 0 and "fidelity = " in text
    code, text = run(tmp_path, "qfc", "--set", "qfc.chi_tau=0.05", name="q.txt")
    assert code == 0 and "conversion_angle_H" in text


def test_bell_report(tmp_path):
    code, text = run(tmp_path, "bell", "--preset", "ideal",
                     "--set", "bell.n_starts=1")
    assert code == 0
    assert "S = " in text and "bell_violation = 1" in text


def test_bell_reads_the_analyzer_arms_of_params(tmp_path):
    # The search reads the Bell-test analyzers of [params].
    _, base = run(tmp_path, "bell", "--preset", "ideal", "--set", "bell.n_starts=1",
                  name="a.txt")
    code, lossy = run(tmp_path, "bell", "--preset", "ideal", "--set", "bell.n_starts=1",
                      "--set", "eta_1h=0.5", name="b.txt")
    assert code == 0

    def s(text):
        return float(dict(line.split(" = ") for line in text.splitlines())["S"])

    assert s(lossy) < s(base) - 0.1


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: with it unimportable, the CLI still
    # imports, loads no scipy module and runs an optimizing experiment.
    out = tmp_path / "bell.txt"
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import sfgswap.cli
        loaded = [m for m, mod in sys.modules.items()
                  if m.split(".")[0] == "scipy" and mod is not None]
        assert not loaded, loaded
        code = sfgswap.cli.main(["bell", "--preset", "ideal",
                                 "--set", "bell.free_mu=true",
                                 "--set", "bell.n_starts=1",
                                 "--out", {str(out)!r}])
        # seeded starts come from Python's random: no request loads numpy.random
        assert "numpy.random" not in sys.modules
        sys.exit(code)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(sfgswap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    values = dict(line.split(" = ") for line in out.read_text().splitlines())
    assert abs(float(values["S"]) - 2.0 * math.sqrt(2.0)) <= 1e-4


def test_sweep_and_bell_make_no_lapack_call(tmp_path):
    # Every numpy.linalg entry point raises in a fresh interpreter (no cached
    # rotation table): the analyzer rotations are closed form, so the
    # pair_cap sweep of both analyzers and the free-mu Bell search run.
    # Neither loads numpy.ma (np.unique would), which costs a request time
    # and memory.
    script = textwrap.dedent(f"""
        import sys
        import numpy.linalg as la

        def refuse(*args, **kwargs):
            raise RuntimeError("numpy.linalg called")

        for name in la.__all__:
            if callable(getattr(la, name)) and not isinstance(getattr(la, name), type):
                setattr(la, name, refuse)
        import sfgswap.cli
        for argv in (["sweep", "--preset", "paper-tableS1", "--set", "sweep.variable=pair_cap",
                      "--set", "sweep.start=3", "--set", "sweep.stop=5", "--set", "sweep.steps=3",
                      "--set", "sweep.bsa=both"],
                     ["bell", "--preset", "ideal", "--set", "bell.free_mu=true",
                      "--set", "bell.n_starts=1"]):
            code = sfgswap.cli.main(argv + ["--out", {str(tmp_path / "out.txt")!r}])
            assert code == 0, argv
        assert "numpy.ma" not in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(sfgswap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_drawn_start_needs_no_numpy_random(tmp_path):
    # With numpy.random unimportable, a search with a drawn start runs and
    # prints what the same search prints in this process.
    argv = ["bell", "--preset", "paper-tableS1", "--gain-factor", "3",
            "--set", "bell.n_starts=2"]
    out = tmp_path / "blocked.txt"
    script = textwrap.dedent(f"""
        import sys
        sys.modules["numpy.random"] = None
        import sfgswap.cli
        sys.exit(sfgswap.cli.main({argv!r} + ["--out", {str(out)!r}]))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(sfgswap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, text = run(tmp_path, *argv, name="in-process.txt")
    assert code == 0 and "S = " in text
    assert out.read_text() == text


def test_cli_import_leaves_pool_and_ini_modules_unloaded():
    # No request needs a process pool (every sweep runs in-process), and the
    # INI parser serves only config files; a bare import loads neither.
    script = textwrap.dedent("""
        import sys
        import sfgswap.cli
        loaded = [m for m in ("concurrent.futures", "configparser") if m in sys.modules]
        assert not loaded, loaded
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(sfgswap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sweep_rows_follow_input_order(tmp_path):
    code, text = run(tmp_path, "sweep", "--preset", "fig-s3", "--set", "sweep.steps=3",
                     "--format", "csv")
    assert code == 0
    rows = text.strip().splitlines()
    assert rows[0].startswith("loss (dimensionless),bsa (label)")
    # Three sweep points, two analyzers each, in input order.
    values = [row.split(",")[0] for row in rows[1:]]
    assert values == ["0", "0", "0.45", "0.45", "0.9", "0.9"]


@pytest.mark.parametrize("sets,point", [
    (("sweep.stop=1.0", "sweep.steps=3"), "loss = 1"),
    (("sweep.stop=1.0", "sweep.steps=3", "sweep.bsa=lo"), "loss = 1"),
    (("sweep.variable=mu", "sweep.start=0", "sweep.stop=0.1", "sweep.steps=3"), "mu = 0"),
], ids=["sfg-full-loss", "lo-full-loss", "mu-from-zero"])
def test_a_sweep_point_that_heralds_nothing_is_named(capsys, sets, point):
    # The model error of one point exits 3 and says which point it is.
    argv = ["sweep", "--preset", "fig-s3"]
    for assignment in sets:
        argv += ["--set", assignment]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"model error: at {point}: herald probability is zero\n"


def test_sweep_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig-s3", "--jobs", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --jobs" in captured.err


PAIR_CAP_SWEEP = ("sweep", "--preset", "ideal", "--set", "sweep.variable=pair_cap",
                  "--set", "sweep.start=3", "--set", "sweep.steps=3")


def test_fractional_pair_cap_sweep_exits_2_before_any_point(monkeypatch, capsys):
    # The middle point, 3.5, is refused by name before the first point runs.
    import sfgswap.cli

    ran = []
    monkeypatch.setattr(sfgswap.cli, "sfg_swap", ran.append)
    assert main([*PAIR_CAP_SWEEP, "--set", "sweep.stop=4"]) == 2
    assert ran == []
    assert "pair_cap must be an integer, got 3.5" in capsys.readouterr().err


def test_integral_pair_cap_sweep_runs_each_cap(tmp_path):
    code, text = run(tmp_path, *PAIR_CAP_SWEEP, "--set", "sweep.stop=5")
    assert code == 0
    rows = [row.split(",") for row in text.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["3", "4", "5"]
    # Each row holds its own cap's result.
    assert len({row[2] for row in rows}) == 3


@pytest.mark.parametrize("key, value", [("start", "nan"), ("stop", "inf"), ("stop", "-inf")])
@pytest.mark.parametrize("sweep", [("sweep", "--preset", "fig-s3"),
                                   (*PAIR_CAP_SWEEP, "--set", "sweep.stop=5")],
                         ids=["loss", "pair_cap"])
def test_non_finite_sweep_end_is_refused_by_its_key(monkeypatch, capsys, sweep, key, value):
    # The key the user set is named, not a parameter it would have reached.
    import sfgswap.cli

    ran = []
    monkeypatch.setattr(sfgswap.cli, "sfg_swap", ran.append)
    assert main([*sweep, "--set", f"sweep.{key}={value}"]) == 2
    assert ran == []
    assert f"config error: {key} must be finite, got {value}" in capsys.readouterr().err


def test_zero_herald_probability_is_a_model_error(capsys):
    # The swaps and the searches name a vanishing herald alike.
    for command in ("swap-sfg", "bell", "keyrate"):
        assert main([command, "--preset", "ideal", "--set", "params.eta_d=0"]) == 3
        assert "model error: herald probability is zero" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["swap-sfg", "swap-lo"])
def test_blind_analyzer_arms_are_a_model_error(command, capsys):
    assert main([command, "--preset", "ideal", "--set", "eta_1h=0", "--set", "eta_1v=0"]) == 3
    assert ("model error: coincidence probability in the Z basis is zero"
            in capsys.readouterr().err)


def test_a_probability_above_one_is_a_model_error(capsys):
    # The SFG herald is first order in chi tau, so its weight grows as
    # sfg mu^2 without bound: a pump this strong is outside the model.
    strong = [arg for mode in ("1h", "1v", "2h", "2v") for arg in ("--set", f"mu_{mode}=2")]
    assert main(["swap-sfg", "--preset", "ideal", "--set", "pair_cap=10"] + strong) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("model error: heralded probability 1.68 exceeds 1: sfg and mu are "
                            "outside the first-order model\n")


def test_pair_cap_above_the_maximum_is_a_config_error(capsys):
    assert main(["swap-sfg", "--preset", "ideal", "--set", "pair_cap=60"]) == 2
    assert "pair_cap must be at most 10, got 60" in capsys.readouterr().err


def test_pair_cap_sweep_past_the_maximum_exits_2_before_any_point(monkeypatch, capsys):
    import sfgswap.cli

    ran = []
    monkeypatch.setattr(sfgswap.cli, "sfg_swap", ran.append)
    assert main([*PAIR_CAP_SWEEP, "--set", "sweep.stop=11"]) == 2
    assert ran == []
    assert "pair_cap must be at most 10, got 11" in capsys.readouterr().err


def test_qfc_reads_the_herald_efficiency_of_params(tmp_path):
    # The converted photon is detected with eta_d of [params]; unset, it is 1,
    # so qfc needs no [params] section.
    for preset in ((), ("--preset", "paper-table1")):
        code, text = run(tmp_path, "qfc", *preset, name="a.txt")
        assert code == 0 and "herald_prob = 0.00249583611012\n" in text
    code, text = run(tmp_path, "qfc", "--set", "eta_d=0.5", name="b.txt")
    assert code == 0 and "herald_prob = 0.00124791805506\n" in text


@pytest.mark.parametrize("route", ["set", "ini", "json"])
def test_experiment_section_is_a_config_error(tmp_path, capsys, route):
    # The experiment is the first argument; an [experiment] section is
    # refused by name, not read as a dotted [efficiency] key or ignored.
    args = ["--set", "experiment.name=bell"]
    if route == "ini":
        (tmp_path / "cfg.ini").write_text("[experiment]\nname = bell\n")
        args = ["--config", str(tmp_path / "cfg.ini")]
    elif route == "json":
        (tmp_path / "cfg.json").write_text(json.dumps({"experiment": {"name": "bell"}}))
        args = ["--config", str(tmp_path / "cfg.json")]
    code, text = run(tmp_path, "swap-sfg", "--preset", "ideal", *args)
    assert code == 2 and text == ""
    assert "[experiment] is not a config section" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", ["=5", " =5", "bell.=5", "bell. =5", "crystal.=5",
                                        ".x=5"])
def test_an_empty_set_key_is_refused_as_malformed(capsys, assignment):
    # An empty key, or nothing before or after its dot, is a malformed --set,
    # not an unknown key or section with an empty name.
    assert main(["swap-sfg", "--preset", "ideal", "--set", assignment]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --set expects key=value, got {assignment!r}\n"


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["swap-sfg", "--preset", "nope"]) == 2
    assert main(["swap-sfg", "--preset", "ideal", "--set", "oops"]) == 2
    assert main(["sweep", "--preset", "ideal"]) == 2
    assert main(["efficiency"]) == 2
    assert main(["swap-sfg", "--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["swap-sfg", "--preset", "ideal", "--set", "pair_cap=1"]) == 2
    for bad in ("mu_1h=nan", "t_1h=1.5", "eta_1h=-0.1", "window_acceptance=2"):
        assert main(["swap-sfg", "--preset", "ideal", "--set", bad]) == 2
    for bad in ("teleport.herald_basis=X", "teleport.mean_photons=-1",
                "teleport.mean_photons=nan", "teleport.mean_photons=0",
                "teleport.polarization=1,0,5", "teleport.polarization=1,1"):
        assert main(["teleport", "--preset", "ideal", "--set", bad]) == 2
    for bad in (("qfc.chi_tau=nan",), ("qfc.chi_tau=-1",), ("qfc.chi_tau=inf",),
                ("qfc.alpha=abc",), ("qfc.beta=nan",), ("qfc.alpha=0", "qfc.beta=0")):
        assert main(["qfc", *(arg for value in bad for arg in ("--set", value))]) == 2
    # No silent coercion: a fractional step count is not truncated, and a
    # misspelled flag is not read as false.
    assert main(["sweep", "--preset", "fig-s3", "--set", "sweep.steps=2.9"]) == 2
    assert main(["bell", "--preset", "ideal", "--set", "bell.free_mu=treu",
                 "--set", "bell.n_starts=1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (("bell", "--set", "bell.n_start=1"), "[bell]: n_start"),
    (("bell", "--set", "bell.n_starts=1", "--set", "bell.fre_mu=true"), "[bell]: fre_mu"),
    (("keyrate", "--set", "bell.n_starts=1", "--set", "bell.free_mu=true"), "[bell]: free_mu"),
    (("teleport", "--set", "teleport.mean_photon=5"), "[teleport]: mean_photon"),
    (("qfc", "--set", "qfc.chitau=5"), "[qfc]: chitau"),
    (("sweep", "--set", "sweep.variable=mu", "--set", "sweep.start=0.01", "--set",
      "sweep.stop=0.02", "--set", "sweep.steps=2", "--set", "sweep.step=3"), "[sweep]: step"),
    (("efficiency", "--set", "crystal.bogus=1"), "[efficiency]: crystal.bogus"),
], ids=["bell-n_start", "bell-fre_mu", "keyrate-free_mu", "teleport-mean_photon", "qfc-chitau",
        "sweep-step", "efficiency-crystal.bogus"])
def test_unknown_experiment_keys_are_config_errors(tmp_path, capsys, argv, message):
    # A key the experiment does not read is refused by name, not ignored.
    code, text = run(tmp_path, argv[0], "--preset", "ideal", *argv[1:])
    assert code == 2 and text == ""
    assert f"unknown key(s) in {message}" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, config, message", [
    ("teleport", {"teleport": {"polarization": 1}},
     "polarization needs two amplitudes, got '1'"),
    ("sweep", {"sweep": {"variable": ["mu"], "start": 0.01, "stop": 0.1, "steps": 2}},
     'key sweep.variable must be a number, string or boolean, got ["mu"]'),
    ("teleport", {"teleport": {"herald_basis": ["D"]}},
     'key teleport.herald_basis must be a number, string or boolean, got ["D"]'),
    ("sweep", {"sweep": {"variable": None, "start": 0.01, "stop": 0.1, "steps": 2}},
     "key sweep.variable must be a number, string or boolean, got null"),
    ("swap-sfg", {"params": {"mu_1h": True}}, "mu_1h must be a number, got True"),
    ("swap-lo", {"params": {"t_1h": False}}, "t_1h must be a number, got False"),
    ("swap-sfg", {"params": {"pair_cap": True}}, "pair_cap must be an integer, got True"),
    ("sweep", {"sweep": {"variable": "mu", "start": True, "stop": 0.1, "steps": 2}},
     "start must be a number, got True"),
    ("sweep", {"sweep": {"variable": "pair_cap", "start": 3, "stop": True, "steps": 2}},
     "stop must be a number, got True"),
    ("teleport", {"teleport": {"mean_photons": True}}, "mean_photons must be a number, got True"),
    ("bell", {"bell": {"gain_factor": True, "n_starts": 1}},
     "gain_factor must be a number, got True"),
], ids=["polarization-number", "sweep-variable-list", "herald-basis-list", "sweep-variable-null",
        "params-mu-true", "params-t-false", "params-pair-cap-true", "sweep-start-true",
        "sweep-stop-true", "teleport-mean-photons-true", "bell-gain-factor-true"])
def test_json_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, experiment, config,
                                                         message):
    # A JSON list, object or null is refused when the file is read, and a
    # number where a name is due is read as its text; each used to end in a
    # traceback with exit 1.  A JSON true or false where a number is due is
    # refused too; it used to be read as 1 or 0, and the run went on.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, text = run(tmp_path, experiment, "--preset", "ideal", "--config", str(cfg))
    assert code == 2 and text == ""
    assert message in capsys.readouterr().err


def test_boolean_keys_accept_only_yes_and_no_words():
    from sfgswap.cli import SECTIONS, ConfigError, _read
    parse = SECTIONS["bell"][1]["free_mu"][0]
    for word in ("1", "true", "YES", "True", "yes"):
        assert parse("free_mu", word) is True
    for word in ("0", "false", "No", "FALSE", "no"):
        assert parse("free_mu", word) is False
    # An absent key takes the table's default.
    assert _read({"bell": {}}, "bell", "bell")["free_mu"] is False
    for word in ("treu", "", "2", "on"):
        with pytest.raises(ConfigError, match="'free_mu' is not a boolean"):
            parse("free_mu", word)


@pytest.mark.parametrize("route", ["set", "ini", "json"])
def test_misspelled_section_is_a_config_error(tmp_path, capsys, route):
    # A section name with a typo is refused by name, not read as a dotted
    # [efficiency] key and ignored.
    args = ["--set", "bel.free_mu=true"]
    if route == "ini":
        (tmp_path / "cfg.ini").write_text("[bel]\nfree_mu = true\n")
        args = ["--config", str(tmp_path / "cfg.ini")]
    elif route == "json":
        (tmp_path / "cfg.json").write_text(json.dumps({"bel": {"free_mu": True}}))
        args = ["--config", str(tmp_path / "cfg.json")]
    code, text = run(tmp_path, "bell", "--preset", "ideal", "--set", "bell.n_starts=1", *args)
    assert code == 2 and text == ""
    assert "[bel] is not a config section" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["swap-sfg", "keyrate"])
def test_missing_params_section_is_a_config_error(tmp_path, capsys, experiment):
    # paper-table1 has only [efficiency]: the run stops at the edge instead
    # of failing in the model with a zero herald probability.
    code, text = run(tmp_path, experiment, "--preset", "paper-table1")
    assert code == 2 and text == ""
    assert f"{experiment} experiment needs a [params] section" in capsys.readouterr().err


def test_sections_the_experiment_does_not_read_are_ignored(tmp_path):
    # Presets and shared config files carry several sections; a known
    # section the experiment does not read is ignored, but its keys must
    # still be known.
    _, base = run(tmp_path, "swap-sfg", "--preset", "ideal", name="a.txt")
    code, text = run(tmp_path, "swap-sfg", "--preset", "fig-s3", "--set", "bell.n_starts=1",
                     "--set", "qfc.chi_tau=0.2", name="b.txt")
    assert code == 0 and text == base
    assert run(tmp_path, "swap-sfg", "--preset", "ideal", "--set", "bell.n_start=1")[0] == 2


def test_every_preset_key_is_in_the_table():
    from sfgswap.cli import SECTIONS
    from sfgswap.presets import get_preset, presets
    for name in presets():
        for section, keys in get_preset(name).items():
            assert section in SECTIONS, (name, section)
            assert set(keys) <= set(SECTIONS[section][1]), (name, section)


@pytest.mark.parametrize("experiment",
                         ["swap-sfg", "swap-lo", "teleport", "qfc", "efficiency", "sweep",
                          "presets"])
@pytest.mark.parametrize("flag", [("--gain-factor", "2"), ("--seed", "1")],
                         ids=["gain-factor", "seed"])
def test_search_flags_are_refused_where_no_search_runs(capsys, experiment, flag):
    # --gain-factor and --seed spell keys of [bell]; an experiment that does
    # not read [bell] refuses them instead of ignoring them.
    preset = "paper-table1" if experiment == "efficiency" else "fig-s3"
    assert main([experiment, "--preset", preset, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[0]} applies only to bell and keyrate" in captured.err


def test_seed_flag_spells_the_bell_seed_key(tmp_path, monkeypatch):
    # --seed 2 and bell.seed=2 print the same bytes, and the seed reaches
    # the search.
    from sfgswap import bell

    seeds = []

    def record(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return real(*args, **kwargs)

    real = bell.optimize_chsh
    monkeypatch.setattr(bell, "optimize_chsh", record)
    base = ("bell", "--preset", "paper-tableS1", "--gain-factor", "30",
            "--set", "bell.n_starts=2")
    code, flag = run(tmp_path, *base, "--seed", "2", name="flag.txt")
    assert code == 0 and "S = " in flag
    assert run(tmp_path, *base, "--set", "bell.seed=2", name="key.txt") == (0, flag)
    assert seeds == [2, 2]


@pytest.mark.parametrize("assignment, message", [
    ("efficiency.rep_rate=nan", "rep_rate must be finite and positive"),
    ("profile_a.center_nm=-1", "profile_a.center_nm must be finite and positive"),
    ("profile_pm.fwhm_nm=0", "profile_pm.fwhm_nm must be finite and positive"),
    ("crystal.length_cm=-1", "crystal.length_cm must be finite and positive"),
    ("bench_h.p_a=0", "bench_h.p_a must be finite and positive"),
    ("bench_h.eta_t=1.5", "bench_h.eta_t must be in (0, 1]"),
], ids=["rep_rate=nan", "center=-1", "pm_fwhm=0", "length=-1", "p_a=0", "eta_t=1.5"])
def test_bad_efficiency_values_exit_2(capsys, assignment, message):
    # Checked at the edge, not passed through to the calculators (nan) or
    # refused deep inside them as a model error.
    assert main(["efficiency", "--preset", "paper-table1", "--set", assignment]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error:" in captured.err and message in captured.err


@pytest.mark.parametrize("experiment", ["bell", "keyrate"])
@pytest.mark.parametrize("argv, message", [
    (("--set", "bell.n_starts=0"), "n_starts must be at least 1"),
    (("--set", "bell.n_starts=-3"), "n_starts must be at least 1"),
    (("--set", "bell.n_starts=1.5"), "n_starts must be an integer, got '1.5'"),
    (("--seed", "-1"), "seed must be nonnegative"),
    (("--gain-factor", "0"), "gain_factor must be finite and positive"),
    (("--gain-factor", "-2"), "gain_factor must be finite and positive"),
    (("--gain-factor", "nan"), "gain_factor must be finite and positive"),
    (("--set", "bell.gain_factor=inf"), "gain_factor must be finite and positive"),
], ids=["n_starts=0", "n_starts=-3", "n_starts=1.5", "seed=-1", "gain=0", "gain=-2",
        "gain=nan", "bell.gain_factor=inf"])
def test_bad_search_inputs_exit_2(tmp_path, capsys, experiment, argv, message):
    # Rejected before any search runs, instead of running one start or
    # failing deep in the model.
    code, text = run(tmp_path, experiment, "--preset", "ideal",
                     "--set", "bell.n_starts=1", *argv)
    assert code == 2 and text == ""
    assert message in capsys.readouterr().err


_SWEEP = ("sweep", "--preset", "fig-s3")
_EFFICIENCY = ("efficiency", "--preset", "paper-table1")


@pytest.mark.parametrize("argv, refusal", [
    (("teleport", "--preset", "ideal", "--set", "teleport.mean_photons=0"),
     "mean_photons must be finite and positive, got 0.0"),
    (("teleport", "--preset", "ideal", "--set", "teleport.herald_basis=X"),
     "herald_basis must be 'D' or 'A', got 'X'"),
    (("qfc", "--set", "qfc.chi_tau=-1"), "chi_tau must be finite and nonnegative, got -1.0"),
    (("bell", "--preset", "ideal", "--gain-factor", "0"),
     "gain_factor must be finite and positive, got 0.0"),
    (("bell", "--preset", "ideal", "--set", "bell.n_starts=0"), "n_starts must be at least 1, got 0"),
    (("keyrate", "--preset", "ideal", "--seed", "-1"), "seed must be nonnegative, got -1"),
    (("sweep", "--preset", "ideal", "--set", "sweep.start=0", "--set", "sweep.stop=1",
      "--set", "sweep.steps=2"), "variable must be loss, t, mu or a [params] key, got ''"),
    ((*_SWEEP, "--set", "sweep.variable=bogus"),
     "variable must be loss, t, mu or a [params] key, got 'bogus'"),
    ((*_SWEEP, "--set", "sweep.steps=1"), "steps must be at least 2, got 1"),
    ((*_SWEEP, "--set", "sweep.start=nan"), "start must be finite, got nan"),
    ((*_SWEEP, "--set", "sweep.stop=-inf"), "stop must be finite, got -inf"),
    ((*_SWEEP, "--set", "sweep.bsa=x"), "bsa must be sfg, lo or both, got 'x'"),
    ((*_EFFICIENCY, "--set", "bench_v.p_b=0"), "bench_v.p_b must be finite and positive, got 0.0"),
    ((*_EFFICIENCY, "--set", "bench_h.eta_t=1.5"), "bench_h.eta_t must be in (0, 1], got 1.5"),
], ids=["mean_photons", "herald_basis", "chi_tau", "gain_factor", "n_starts", "seed",
        "variable-empty", "variable-unknown", "steps", "start", "stop", "bsa",
        "efficiency-positive", "efficiency-fraction"])
def test_every_key_rule_refuses_in_one_form(capsys, argv, refusal):
    # Each rule of cli.SECTIONS is a _checks rule pair, and its refusal reads
    # "<key> must be <rule>, got <value>", whatever the key.
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {refusal}\n"


# Each integer key, a run that reads it, and the routes a value reaches it by:
# a --set override, a JSON config, and for bell.seed the flag that spells it.
_INTEGER_KEYS = {
    "pair_cap": (("swap-sfg", "--preset", "ideal"), ("set", "json")),
    "sweep.steps": (("sweep", "--preset", "fig-s3"), ("set", "json")),
    "bell.n_starts": (("bell", "--preset", "ideal"), ("set", "json")),
    "bell.seed": (("bell", "--preset", "ideal", "--set", "bell.n_starts=2"),
                  ("set", "json", "flag")),
}
_INTEGER_ROUTES = [(key, route) for key, (_, routes) in _INTEGER_KEYS.items() for route in routes]


def _integer_run(tmp_path, key, route, value, name="out.txt"):
    """Run ``key``'s experiment with ``value`` given to the key by ``route``."""
    section, _, name_in_section = key.rpartition(".")
    if route == "json":
        cfg = tmp_path / "integer.json"
        cfg.write_text(json.dumps({section or "params": {name_in_section: value}}))
        spelled = ("--config", str(cfg))
    else:
        spelled = ("--seed", value) if route == "flag" else ("--set", f"{key}={value}")
    return run(tmp_path, *_INTEGER_KEYS[key][0], *spelled, name=name)


@pytest.mark.parametrize("key, route", _INTEGER_ROUTES)
def test_integral_spellings_of_an_integer_key_print_the_same_bytes(tmp_path, key, route):
    # One integer rule for every key and route: an integral number or
    # numeric string is the integer it spells.
    spellings = (3.0, "3.0", " 3 ") if route == "json" else ("3.0", " 3 ")
    code, want = _integer_run(tmp_path, key, route, 3 if route == "json" else "3")
    assert code == 0 and want
    for i, value in enumerate(spellings):
        assert _integer_run(tmp_path, key, route, value, name=f"{i}.txt") == (0, want)


@pytest.mark.parametrize("value", [2.5, True, "nan", "inf"])
@pytest.mark.parametrize("key, route", _INTEGER_ROUTES)
def test_non_integers_of_an_integer_key_exit_2_by_name(tmp_path, capsys, key, route, value):
    # A fraction is refused, not truncated; a flag and a non-finite value are
    # no integer.
    if route != "json":
        value = str(value).lower()
    code, text = _integer_run(tmp_path, key, route, value)
    assert code == 2 and text == ""
    name = key.rpartition(".")[2]
    assert f"config error: {name} must be an integer, got {value!r}" in capsys.readouterr().err


def test_seed_text_is_read_to_every_digit(tmp_path, monkeypatch):
    # 10**23 - 1 is no float: read through one it would be 99999999999999991611392,
    # which draws other starts.  Both seeds print S = 2.61891400439; the
    # printed angles differ only because a tie is broken at the last bit (the
    # drawn start wins at 10**23 - 1, the canonical one at the float's seed),
    # so the seed each search is given is read too.
    from sfgswap import bell

    seeds = []

    def record(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return real(*args, **kwargs)

    real = bell.optimize_chsh
    monkeypatch.setattr(bell, "optimize_chsh", record)
    argv = ("bell", "--preset", "ideal", "--set", "bell.n_starts=2")
    code, text = run(tmp_path, *argv, "--seed", "99999999999999999999999")
    assert code == 0
    assert run(tmp_path, *argv, "--set", "bell.seed=99999999999999999999999",
               name="set.txt") == (0, text)
    assert run(tmp_path, *argv, "--seed", str(int(float("99999999999999999999999"))),
               name="float.txt")[1] != text
    assert seeds == [10**23 - 1, 10**23 - 1, 99999999999999991611392]
    assert all(type(seed) is int for seed in seeds)


def test_model_errors_exit_3(capsys):
    code = main(["swap-sfg", "--preset", "ideal",
                 "--set", "mu_1h=0", "--set", "mu_1v=0",
                 "--set", "mu_2h=0", "--set", "mu_2v=0"])
    assert code == 3
    capsys.readouterr()


def test_teleport_reports_the_truncation_weight(tmp_path):
    # A bright input runs far past the cut at 2 pair_cap photons: the report
    # says how much of its weight the cut drops, the CSV keeps its columns.
    argv = ("teleport", "--preset", "ideal", "--set", "teleport.mean_photons=20")
    code, text = run(tmp_path, *argv)
    assert code == 0
    assert "fidelity = 1\n" in text and "truncation_dropped = 0.999767124054\n" in text
    code, table = run(tmp_path, *argv, "--format", "csv", name="out.csv")
    assert code == 0 and "truncation" not in table


# An out-of-range value of each [params] key, by key prefix.
_OUT_OF_RANGE = {"mu_": "inf", "sfg_": "2", "t_": "2", "eta_": "-0.1", "window_": "1.5",
                 "dark": "1", "pair_cap": "1"}


@pytest.mark.parametrize("key", PARAM_KEYS)
@pytest.mark.parametrize("kind", ["range", "nan", "word"])
def test_every_params_refusal_names_the_key(capsys, key, kind):
    value = {"nan": "nan", "word": "abc"}.get(kind) or next(
        v for prefix, v in _OUT_OF_RANGE.items() if key.startswith(prefix))
    assert main(["swap-sfg", "--preset", "ideal", "--set", f"{key}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {key} must be")
    assert value in captured.err


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("experiment, line", [
    ("keyrate", "r = -0.163322031233"),
    ("bell", "S = 1.90507683746"),
])
def test_readme_quotes_the_cli_output(tmp_path, experiment, line):
    assert line in README
    code, text = run(tmp_path, experiment, "--preset", "paper-tableS1", "--gain-factor", "3")
    assert code == 0 and line + "\n" in text


def test_readme_quotes_the_efficiency_threshold():
    from sfgswap.bell import efficiency_threshold
    from sfgswap.presets import get_preset, swap_params

    assert "η = 0.6669921875." in README
    params = swap_params(get_preset("ideal")["params"]).replace(pair_cap=2)
    assert efficiency_threshold(params) == 0.6669921875
