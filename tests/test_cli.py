"""Command-line interface: config handling, output formats, exit codes."""

import json

import pytest

from sfgswap.cli import main


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


def test_swap_sfg_report(tmp_path):
    code, text = run(tmp_path, "swap-sfg", "--preset", "ideal")
    assert code == 0
    assert "V_Z = " in text and "herald_prob = " in text


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


def test_sweep_ordering_and_parallel_determinism(tmp_path):
    args = ("sweep", "--preset", "fig-s3", "--set", "sweep.steps=3",
            "--format", "csv")
    code, serial = run(tmp_path, *args, "--jobs", "1", name="s1.csv")
    assert code == 0
    code, parallel = run(tmp_path, *args, "--jobs", "2", name="s2.csv")
    assert code == 0
    assert serial == parallel
    rows = serial.strip().splitlines()
    assert rows[0].startswith("loss (dimensionless),bsa (label)")
    # Three sweep points, two analyzers each, in input order.
    values = [row.split(",")[0] for row in rows[1:]]
    assert values == ["0", "0", "0.45", "0.45", "0.9", "0.9"]


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["swap-sfg", "--preset", "nope"]) == 2
    assert main(["swap-sfg", "--preset", "ideal", "--set", "oops"]) == 2
    assert main(["sweep", "--preset", "ideal"]) == 2
    assert main(["efficiency"]) == 2
    assert main(["swap-sfg", "--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["swap-sfg", "--preset", "ideal", "--set", "pair_cap=1"]) == 2
    for bad in ("mu_1h=nan", "t_1h=1.5", "eta_1h=-0.1", "window_acceptance=2"):
        assert main(["swap-sfg", "--preset", "ideal", "--set", bad]) == 2
    capsys.readouterr()


def test_model_errors_exit_3(capsys):
    code = main(["swap-sfg", "--preset", "ideal",
                 "--set", "mu_1h=0", "--set", "mu_1v=0",
                 "--set", "mu_2h=0", "--set", "mu_2v=0"])
    assert code == 3
    capsys.readouterr()
