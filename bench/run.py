"""End-to-end benchmark of sfgswap.

    python3 bench/run.py --workload {sweep,bell,threshold} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Every request runs in a fresh interpreter (``bench/request.py``), one at a
time.  A run is

1. a warm-up round: each request of the round run up to its first physics
   call, which imports the package and its dependencies from disk;
2. timed rounds, repeated until their requests have taken ``--seconds``
   (and at least ``MIN_ROUNDS`` rounds); round ``r`` forwards the
   optimizer seed ``1000 * seed + r``;
3. with ``--trace 0``, set-up probes (requests stopped at their first
   physics call) spread between the timed requests, where the timed
   requests alone give fewer than ``SETUP_SAMPLES`` set-up times.

With ``--trace 1`` each timed request runs twice, plain and then traced,
and the per-layer metrics come from the traced copies.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import request as req_mod
from workloads import MIN_ROUNDS, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REQUEST_SCRIPT = os.path.join(BENCH_DIR, "request.py")
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 5
REQUEST_TIMEOUT_S = 150.0
# No new round starts after this much of a run, whatever MIN_ROUNDS says,
# so that a run ends within three minutes on a loaded machine.
ROUND_DEADLINE_S = 100.0


@dataclass
class Outcome:
    """One request process: timings, resource use and its result file."""

    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    result: dict
    started: float  # CLOCK_MONOTONIC time of the spawn
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or self.result.get("code") != 0 or bool(self.problems)

    @property
    def setup_s(self):
        """Time from spawn to the first physics call, or None."""
        end = self.result.get("setup_end")
        return end - self.started if end is not None and self.exit_code == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(mode: str, request, tag: str, env: dict) -> Outcome:
    """Run ``request`` in a fresh interpreter and wait for it to end."""
    result_path = os.path.join(OUT_DIR, f"{tag}.json")
    with open(os.path.join(OUT_DIR, f"{tag}.err"), "w") as err:
        t0 = req_mod.monotonic()
        proc = subprocess.Popen(
            [sys.executable, REQUEST_SCRIPT, mode, result_path, *request.argv],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = req_mod.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {}
    return Outcome(request.name, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, proc.returncode, result, t0)


def run_request(request, mode: str, tag: str, env: dict) -> Outcome:
    """Run one timed request and check its output."""
    outcome = spawn(mode, request, tag, env)
    if outcome.exit_code == 0 and outcome.result.get("code") == 0:
        outcome.problems = request.check(outcome.result.get("output", ""))
    report_failure(outcome, tag)
    return outcome


def report_failure(outcome: Outcome, tag: str) -> None:
    if not outcome.failed:
        return
    print(f"request {outcome.name} failed (exit {outcome.exit_code}, "
          f"code {outcome.result.get('code')}); see {OUT_DIR}/{tag}.err",
          file=sys.stderr)
    if outcome.result.get("error"):
        print(outcome.result["error"], file=sys.stderr)
    for check, message in outcome.problems:
        print(f"  check {check}: {message}", file=sys.stderr)


class SetupProbes:
    """Requests stopped at their first physics call, cycling through the
    round.  ``times`` holds each probe's set-up time, None where the probe
    never reached a physics call."""

    def __init__(self, requests, count: int, tag: str, env: dict):
        self.requests, self.left, self.tag, self.env = requests, count, tag, env
        # Spread the probes through the run, since the machine's speed
        # drifts over seconds: this many before each timed request, the
        # rest after the last round.
        self.per_request = max(1, count // (2 * len(requests)))
        self.times = []

    def run(self, count: int) -> None:
        for _ in range(min(count, self.left)):
            i = len(self.times)
            request = self.requests[i % len(self.requests)]
            self.times.append(spawn("setup", request, f"{self.tag}-{i}", self.env).setup_s)
            self.left -= 1

    def before_request(self) -> None:
        self.run(self.per_request)

    def finish(self) -> list:
        self.run(self.left)
        return self.times


def timed_rounds(workload: str, seed: int, seconds: float, traced: bool,
                 env: dict, probes: SetupProbes) -> list:
    """Repeat the round until its requests have taken ``seconds``; returns
    a list of (plain outcomes, traced outcomes)."""
    rounds = []
    min_rounds = 1 if traced else MIN_ROUNDS[workload]
    start = req_mod.monotonic()
    measured = 0.0
    while not rounds or (req_mod.monotonic() - start < ROUND_DEADLINE_S and (
            measured < seconds or len(rounds) < min_rounds)):
        r = len(rounds)
        plain, spans = [], []
        for i, request in enumerate(WORKLOADS[workload](1000 * seed + r)):
            probes.before_request()
            plain.append(run_request(request, "run", f"{workload}-r{r}-{i}", env))
            if traced:
                # right after its plain twin, so that both see the same
                # machine speed
                spans.append(run_request(request, "trace", f"{workload}-t{r}-{i}", env))
        measured += sum(o.wall_s for o in plain + spans)
        rounds.append((plain, spans))
    return rounds


def span_totals(outcomes) -> tuple:
    """Calls, self time (s) and work counts summed over traced requests.

    Self time of a span is its duration minus that of its child spans.
    """
    import numpy as np

    calls, self_s, counts = {}, {}, {}
    for outcome in outcomes:
        result = outcome.result
        for key, value in result.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if "spans" not in result:
            continue
        data = np.load(result["spans"])
        name, parent = data["name"], data["parent"]
        duration = data["end"] - data["start"]
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        labels = result["labels"]
        n_calls = np.bincount(name, minlength=len(labels))
        n_self = np.bincount(name, weights=duration - children, minlength=len(labels))
        for i, label in enumerate(labels):
            calls[label] = calls.get(label, 0) + int(n_calls[i])
            self_s[label] = self_s.get(label, 0.0) + float(n_self[i])
    return calls, self_s, counts


def per_round(total, n: int):
    value = total / n
    return int(value) if float(value).is_integer() else value


def layer_metrics(rounds) -> dict:
    traced = [o for _, spans in rounds for o in spans]
    calls, self_s, counts = span_totals(traced)
    n = len(rounds)
    metrics = {}
    labels = [req_mod.IMPORT_SPAN] + [f"{m}.{q}" for m, q in req_mod.SPANS]
    # Every name is reported on every workload, so that the result always
    # holds the same metrics: a span never called, or one a later change
    # removed from the program, reads 0.
    for label in labels:
        metrics[f"{label}.calls"] = (per_round(calls.get(label, 0), n), "count")
        metrics[f"{label}.self_ms"] = (1000.0 * self_s.get(label, 0.0) / n, "ms")
    for span, (counter, _) in req_mod.COUNTS.items():
        key = f"{span}.{counter}"
        metrics[key] = (per_round(counts.get(key, 0), n), "count")
    overhead = [sum(o.wall_s for o in spans) - sum(o.wall_s for o in plain)
                for plain, spans in rounds]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics


def end_to_end_metrics(rounds, probe_times) -> dict:
    plain = [outcomes for outcomes, _ in rounds]
    setup = [o.setup_s for r in plain for o in r] + probe_times
    setup = [t for t in setup if t is not None]
    if not setup:
        raise SystemExit("no request reached a physics call")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(o.wall_s for o in r) for r in plain), "s"),
        "cpu_s": (statistics.median(sum(o.cpu_s for o in r) for r in plain), "s"),
        "peak_rss_mb": (max(o.rss_mb for r in plain for o in r), "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    requests = WORKLOADS[workload](1000 * seed)
    warm = SetupProbes(requests, len(requests), f"{workload}-warm", env).finish()
    if None in warm:
        print("warm-up did not reach a physics call; see "
              f"{OUT_DIR}/{workload}-warm-*.err", file=sys.stderr)
    # Every timed request gives a set-up time; probes make up the rest of
    # SETUP_SAMPLES when the minimum number of rounds gives fewer.
    n_probes = 0 if trace else max(
        0, SETUP_SAMPLES - len(requests) * MIN_ROUNDS[workload])
    probes = SetupProbes(requests, n_probes, f"{workload}-setup", env)
    rounds = timed_rounds(workload, seed, seconds, trace, env, probes)
    setup_times = probes.finish()
    outcomes = [o for plain, spans in rounds for o in plain + spans]
    correct = not any(o.problems for o in outcomes)
    attempted = len(outcomes) + len(setup_times)
    failed = sum(o.failed for o in outcomes) + setup_times.count(None)
    if trace:
        metrics = layer_metrics(rounds)
    else:
        metrics = end_to_end_metrics(rounds, setup_times)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sfgswap", "__init__.py")):
        print("bench: src/sfgswap not found; run from the repository root",
              file=sys.stderr)
        return 2
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {out.pop('rounds')}  attempted {out['attempted']}  "
          f"failed {out['failed']}  correct {str(out['correct']).lower()}")
    for name, metric in out["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-"
                                    f"{args.trace}.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
