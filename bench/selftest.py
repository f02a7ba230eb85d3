"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--short]

Each check must accept a well-formed output and reject the same output
with one value perturbed.  The well-formed outputs here are made up to
satisfy the identities; with ``--short`` the test also runs one request of
each workload (from the root of a checkout), requires its real output to
pass, and requires each perturbation of that real output to be rejected.
Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from workloads import (
    TSIRELSON,
    WORKLOADS,
    binary_entropy,
    holevo_chsh,
    parse_report,
)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv(header, rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header] + rows)
    return out.getvalue()


def _report(values: dict) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in values.items())


HEADER = ["{var} (dimensionless)", "bsa (label)", "V_Z (dimensionless)",
          "V_X (dimensionless)", "F_low (dimensionless)", "S (dimensionless)",
          "Q (dimensionless)", "r (bits/herald)", "herald_prob (probability/pulse)"]


def _sweep_csv(var: str, points) -> str:
    """points: (swept value, bsa, V_Z, V_X, herald_prob)."""
    header = [HEADER[0].format(var=var)] + HEADER[1:]
    rows = [[_fmt(x), bsa, _fmt(vz), _fmt(vx), _fmt((vz + vx) / 2), "", "", "",
             _fmt(h)] for x, bsa, vz, vx, h in points]
    return _csv(header, rows)


def synthetic_outputs() -> dict:
    """Outputs that satisfy every identity, keyed by request name."""
    loss = [0.9 * i / 18 for i in range(19)]
    fig_s3 = []
    for x in loss:
        fig_s3.append((x, "sfg", 0.862068965517, 0.862068965517,
                       (1 - x) ** 2 * 2.4e-3))
        fig_s3.append((x, "lo", 0.85 - 0.1 * x, 0.83 - 0.05 * x, 0.0))
    pair_cap = [
        (3, "sfg", 0.7784, 0.7628, 7.5e-12), (3, "lo", 0.7939, 0.7490, 0.0),
        (4, "sfg", 0.7460, 0.7299, 7.9e-12), (4, "lo", 0.7397, 0.6875, 0.0),
        (5, "sfg", 0.7455, 0.7294, 7.9e-12), (5, "lo", 0.7277, 0.6740, 0.0),
    ]
    s, q = 2.46755260945, 0.0512412883497
    return {
        "sweep-fig-s3": _sweep_csv("loss", fig_s3),
        "sweep-pair-cap": _sweep_csv("pair_cap", pair_cap),
        "bell-gain3": _report({"S": 2.0841768553, "theta_a1": 0.8}),
        "keyrate-gain30": _report({"r": 1 - binary_entropy(q) - holevo_chsh(s),
                                   "S": s, "Q": q}),
        "bell-free-mu": _report({"S": 2.82842146793, "mu_h": 1e-6}),
        "efficiency-threshold": "0.6669921875\n",
    }


def csv_edit(bsa: str, index: int, update):
    """Perturb the ``index``-th row of analyzer ``bsa`` (sorted by the swept
    value); ``update(row, previous_row)`` returns the new values.  F_low
    follows V_Z and V_X unless the update sets it."""
    def perturb(text: str) -> str:
        lines = [row for row in csv.reader(io.StringIO(text)) if row]
        names = [cell.split(" (")[0] for cell in lines[0]]
        group = sorted((r for r in lines[1:] if r[1] == bsa), key=lambda r: float(r[0]))

        def values(row):
            return {n: float(v) for n, v in zip(names, row) if n != "bsa" and v}

        row = values(group[index])
        new = update(row, values(group[index - 1]) if index else None)
        if "F_low" not in new:
            new["F_low"] = (new.get("V_Z", row["V_Z"]) + new.get("V_X", row["V_X"])) / 2
        for name, value in new.items():
            group[index][names.index(name)] = _fmt(value)
        return _csv(lines[0], lines[1:])
    return perturb


def report_edit(update):
    def perturb(text: str) -> str:
        values = parse_report(text)
        values.update(update(values))
        return _report(values)
    return perturb


def _key_rate(s, q):
    return 1 - binary_entropy(q) - holevo_chsh(s)


# (request, check expected to fire, perturbation)
CASES = [
    ("sweep-fig-s3", "sfg_vz_eq_vx",
     csv_edit("sfg", 9, lambda r, p: {"V_X": r["V_X"] + 1e-6})),
    ("sweep-fig-s3", "sfg_herald_scaling",
     csv_edit("sfg", 10, lambda r, p: {"herald_prob": r["herald_prob"] * (1 + 1e-6)})),
    ("sweep-fig-s3", "lo_monotone",
     csv_edit("lo", 5, lambda r, p: {"V_Z": p["V_Z"]})),
    ("sweep-fig-s3", "visibility_bound",
     csv_edit("lo", 0, lambda r, p: {"V_Z": 1.000001})),
    ("sweep-fig-s3", "fidelity_identity",
     csv_edit("sfg", 3, lambda r, p: {"F_low": r["F_low"] + 1e-6})),
    ("sweep-pair-cap", "pair_cap_convergence",
     csv_edit("sfg", 2, lambda r, p: {"V_Z": p["V_Z"] - 0.05})),
    ("sweep-pair-cap", "fidelity_identity",
     csv_edit("lo", 1, lambda r, p: {"F_low": r["F_low"] - 1e-6})),
    ("bell-gain3", "chsh_violation", report_edit(lambda v: {"S": 1.999})),
    ("bell-gain3", "chsh_violation", report_edit(lambda v: {"S": TSIRELSON + 1e-6})),
    ("keyrate-gain30", "key_rate_identity", report_edit(lambda v: {"r": v["r"] + 1e-6})),
    ("keyrate-gain30", "qber_range",
     report_edit(lambda v: {"Q": 1.01, "r": _key_rate(v["S"], 1.0)})),
    ("keyrate-gain30", "tsirelson",
     report_edit(lambda v: {"S": 2.83, "r": _key_rate(2.83, v["Q"])})),
    ("bell-free-mu", "tsirelson_reached",
     report_edit(lambda v: {"S": TSIRELSON - 2e-4})),
    ("efficiency-threshold", "eberhard", lambda text: "0.6\n"),
    ("efficiency-threshold", "eberhard", lambda text: "0.672\n"),
]

# One request of each workload for --short.
SHORT_REQUESTS = ("sweep-fig-s3", "keyrate-gain30", "efficiency-threshold")


def requests_by_name() -> dict:
    return {r.name: r for make in WORKLOADS.values() for r in make(0)}


def run_cases(outputs: dict, label: str) -> int:
    """Check each output as given and under each perturbation; returns the
    number of cases that went the wrong way."""
    requests = requests_by_name()
    wrong = 0
    for name, text in outputs.items():
        check = requests[name].check
        problems = check(text)
        wrong += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label} {name}: accepted as given"
              + (f" -- {problems}" if problems else ""))
        for empty in ("", "garbage\n"):
            if not check(empty):
                wrong += 1
                print(f"FAIL {label} {name}: accepted {empty!r}")
        for case_name, expected, perturb in CASES:
            if case_name != name:
                continue
            fired = {c for c, _ in check(perturb(text))}
            ok = expected in fired
            wrong += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label} {name}: perturbation "
                  f"rejected by {expected}" + ("" if ok else f" (fired: {sorted(fired)})"))
    return wrong


def real_outputs() -> dict:
    import run as bench_run

    os.makedirs(bench_run.OUT_DIR, exist_ok=True)
    env = bench_run.child_env()
    requests = requests_by_name()
    outputs = {}
    for name in SHORT_REQUESTS:
        outcome = bench_run.spawn("run", requests[name], f"selftest-{name}", env)
        if outcome.exit_code != 0 or outcome.result.get("code") != 0:
            raise SystemExit(f"request {name} failed: {outcome.result.get('error')}")
        print(f"ran {name} in {outcome.wall_s:.2f} s")
        outputs[name] = outcome.result["output"]
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--short", action="store_true",
                        help="also run one request of each workload")
    args = parser.parse_args(argv)
    wrong = run_cases(synthetic_outputs(), "synthetic")
    if args.short:
        wrong += run_cases(real_outputs(), "real")
    print(f"{wrong} case(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
