"""Benchmark rounds and the checks on their outputs.

A round is a fixed list of requests.  Each request carries a check that
recomputes an identity or bound the physics fixes from the request's own
output; no check compares against a stored copy of an earlier output.
A check returns a list of (check name, message) problems, empty on success.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

TSIRELSON = 2.0 * math.sqrt(2.0)
# The CLI prints 12 significant digits, so a value on a bound can print
# just beyond it.
PRINT_TOL = 1e-9
# efficiency_threshold's default bisection tolerance.
THRESHOLD_XTOL = 1e-3
EBERHARD = 2.0 / 3.0

# Every source and analyzer efficiency of paper-tableS1 set to 1: the
# measured sources with an ideal analyzer.
IDEAL_ANALYZER = tuple(
    arg for key in ("eta_th", "eta_tv", "eta_d", "eta_1h", "eta_1v",
                    "eta_2h", "eta_2v", "window_acceptance")
    for arg in ("--set", f"{key}=1"))


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple  # request.py arguments after the mode and result path
    check: Callable[[str], list]


# ---------------------------------------------------------------- parsing

def parse_csv(text: str) -> list:
    """Rows of a CLI CSV table as dicts keyed by column name without unit."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        raise ValueError("empty CSV output")
    header = [cell.split(" (")[0] for cell in lines[0]]
    return [dict(zip(header, row)) for row in lines[1:] if row]


def parse_report(text: str) -> dict:
    """``key = value`` lines of a CLI report as floats."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = float(value)
    return out


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def holevo_chsh(s: float) -> float:
    """Eve's information bound chi(S); 1 bit without a Bell violation."""
    if s <= 2.0:
        return 1.0
    root = math.sqrt(min((s / 2.0) ** 2 - 1.0, 1.0))
    return binary_entropy((1.0 + root) / 2.0)


def _guarded(check):
    """Turn a parse failure into a reported problem."""
    @functools.wraps(check)
    def run(text):
        try:
            return check(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [("parse", f"cannot read output: {exc!r}")]
    return run


# ---------------------------------------------------------------- sweep

def _visibility_rows(rows) -> list:
    problems = []
    for r in rows:
        vz, vx, f = float(r["V_Z"]), float(r["V_X"]), float(r["F_low"])
        if abs(vz) > 1.0 or abs(vx) > 1.0:
            problems.append(("visibility_bound", f"|V| > 1 in {r}"))
        if abs(f - (vz + vx) / 2.0) > PRINT_TOL:
            problems.append(("fidelity_identity",
                             f"F_low != (V_Z+V_X)/2 in {r}"))
    return problems


@_guarded
def check_loss_sweep(text: str) -> list:
    """fig-s3: SFG V_Z = V_X, SFG herald ~ (1-L)^2, LO V strictly falling."""
    rows = parse_csv(text)
    problems = _visibility_rows(rows)
    by_bsa = {b: sorted(((float(r["loss"]), r) for r in rows if r["bsa"] == b),
                        key=lambda item: item[0])
              for b in ("sfg", "lo")}
    if len(by_bsa["sfg"]) != 19 or len(by_bsa["lo"]) != 19:
        return problems + [("rows", "expected 19 SFG and 19 LO loss points")]
    loss0, row0 = by_bsa["sfg"][0]
    h0 = float(row0["herald_prob"])
    if loss0 != 0.0 or not h0 > 0.0:
        problems.append(("sfg_herald_scaling", "no positive herald at zero loss"))
    for loss, r in by_bsa["sfg"]:
        if abs(float(r["V_Z"]) - float(r["V_X"])) > PRINT_TOL:
            problems.append(("sfg_vz_eq_vx", f"V_Z != V_X at loss {loss}"))
        expect = (1.0 - loss) ** 2 * h0
        if abs(float(r["herald_prob"]) - expect) > PRINT_TOL * expect:
            problems.append(("sfg_herald_scaling",
                             f"herald_prob {r['herald_prob']} != "
                             f"(1-L)^2 herald_prob(0) = {expect!r} at loss {loss}"))
    for key in ("V_Z", "V_X"):
        points = [(loss, float(r[key])) for loss, r in by_bsa["lo"]]
        for (l1, v1), (l2, v2) in zip(points, points[1:]):
            if not v2 < v1:
                problems.append(("lo_monotone",
                                 f"LO {key} does not fall from loss {l1} to {l2}"))
    return problems


@_guarded
def check_pair_cap_sweep(text: str) -> list:
    """pair_cap 3..5: each visibility converges, |V5-V4| < |V4-V3|."""
    rows = parse_csv(text)
    problems = _visibility_rows(rows)
    for bsa in ("sfg", "lo"):
        v = {round(float(r["pair_cap"])): r for r in rows if r["bsa"] == bsa}
        if sorted(v) != [3, 4, 5]:
            problems.append(("rows", f"expected pair_cap 3, 4, 5 for {bsa}"))
            continue
        for key in ("V_Z", "V_X"):
            v3, v4, v5 = (float(v[n][key]) for n in (3, 4, 5))
            if not abs(v5 - v4) < abs(v4 - v3):
                problems.append(("pair_cap_convergence",
                                 f"{bsa} {key}: |V5-V4| >= |V4-V3|"))
    return problems


def sweep_round(seed: int) -> list:
    return [
        Request("sweep-fig-s3", ("cli", "sweep", "--preset", "fig-s3"),
                check_loss_sweep),
        Request("sweep-pair-cap",
                ("cli", "sweep", "--preset", "paper-tableS1",
                 "--set", "sweep.variable=pair_cap", "--set", "sweep.start=3",
                 "--set", "sweep.stop=5", "--set", "sweep.steps=3",
                 "--set", "sweep.bsa=both"),
                check_pair_cap_sweep),
    ]


# ---------------------------------------------------------------- bell

@_guarded
def check_violation(text: str) -> list:
    """Measured sources at gain 3 violate CHSH: 2 < S <= 2 sqrt 2."""
    s = parse_report(text)["S"]
    if not 2.0 < s <= TSIRELSON + PRINT_TOL:
        return [("chsh_violation", f"S = {s!r} outside (2, 2 sqrt 2]")]
    return []


@_guarded
def check_key_rate(text: str) -> list:
    """r = 1 - h(Q) - chi(S), 0 <= Q <= 1 and S <= 2 sqrt 2."""
    values = parse_report(text)
    r, s, q = values["r"], values["S"], values["Q"]
    problems = []
    if not 0.0 <= q <= 1.0:
        problems.append(("qber_range", f"Q = {q!r} outside [0, 1]"))
    if s > TSIRELSON + PRINT_TOL:
        problems.append(("tsirelson", f"S = {s!r} above 2 sqrt 2"))
    expect = 1.0 - binary_entropy(min(max(q, 0.0), 1.0)) - holevo_chsh(s)
    if abs(r - expect) > PRINT_TOL:
        problems.append(("key_rate_identity",
                         f"r = {r!r} but 1 - h(Q) - chi(S) = {expect!r}"))
    return problems


@_guarded
def check_free_mu(text: str) -> list:
    """Free pump strengths with an ideal analyzer reach Tsirelson's bound."""
    s = parse_report(text)["S"]
    if abs(s - TSIRELSON) > 1e-4:
        return [("tsirelson_reached", f"S = {s!r} not within 1e-4 of 2 sqrt 2")]
    return []


def bell_round(seed: int) -> list:
    measured = ("--preset", "paper-tableS1") + IDEAL_ANALYZER
    seed_args = ("--seed", str(seed))
    return [
        Request("bell-gain3",
                ("cli", "bell") + measured
                + ("--gain-factor", "3", "--set", "bell.n_starts=2") + seed_args,
                check_violation),
        Request("keyrate-gain30",
                ("cli", "keyrate") + measured
                + ("--gain-factor", "30", "--set", "bell.n_starts=1") + seed_args,
                check_key_rate),
        Request("bell-free-mu",
                ("cli", "bell", "--preset", "ideal", "--set", "bell.free_mu=true",
                 "--set", "bell.n_starts=1") + seed_args,
                check_free_mu),
    ]


# ---------------------------------------------------------------- threshold

@_guarded
def check_eberhard(text: str) -> list:
    """Eberhard: no CHSH violation below eta = 2/3; the search lands there."""
    eta = float(text.strip())
    if not EBERHARD - THRESHOLD_XTOL <= eta <= EBERHARD + 0.005:
        return [("eberhard",
                 f"eta = {eta!r} outside [2/3 - xtol, 2/3 + 0.005]")]
    return []


def threshold_round(seed: int) -> list:
    return [Request("efficiency-threshold", ("threshold", str(seed)),
                    check_eberhard)]


WORKLOADS = {
    "sweep": sweep_round,
    "bell": bell_round,
    "threshold": threshold_round,
}

# bell-gain3 costs 500 to 1400 evaluations depending on the seed of its
# second start, a third of a bell round on average; a bell run therefore
# takes the median of three rounds, each with its own optimizer seed, so
# that one costly seed does not set the run's figure.
MIN_ROUNDS = {"sweep": 1, "bell": 3, "threshold": 1}
