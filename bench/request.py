"""Run one benchmark request in a fresh interpreter.

    python3 bench/request.py MODE RESULT_PATH KIND [ARG ...]

KIND is ``cli`` followed by the argv of ``sfgswap.cli.main``, or
``threshold SEED`` for the efficiency-threshold search, which the CLI does
not expose.  MODE is one of

* ``run``: the request, with the time of its first call into a physics
  module recorded (CLOCK_MONOTONIC, comparable across processes); the
  one-shot hook that records it restores the original functions at that
  call, so the physics itself runs uninstrumented;
* ``setup``: the same, but stop at the first physics call;
* ``trace``: record a span around every call of the functions in ``SPANS``
  and write the spans to ``RESULT_PATH`` with ``.npz`` in place of
  ``.json`` when the request ends.

The result (exit code, captured output, error text, setup time stamp or
trace summary) is written to RESULT_PATH as JSON.  The program under test
is imported from ``PYTHONPATH``; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import sys
import time
import traceback
from array import array

# Modules whose public functions do physics; the first call into any of
# them ends set-up.  presets and cli build parameters and parse arguments.
PHYSICS_MODULES = ("fock", "optics", "detection", "protocols", "bell",
                   "optimize", "efficiency")

# Traced spans, as (module, qualified name).  Each is wrapped in every
# sfgswap namespace that binds it, since the package imports with
# ``from .x import y``.
SPANS = (
    ("optics", "build_swapping_input"),
    ("optics", "loss_branches"),
    ("optics", "sfg_branches"),
    ("detection", "herald_amplitude_branches"),
    ("protocols", "sfg_heralded_branches"),
    ("bell", "heralded_ensemble"),
    ("detection", "coincidence_prob"),
    ("detection", "accidental_state"),
    ("fock", "sandwich"),
    ("fock", "DensityOperator.from_branches"),
    ("protocols", "sfg_swap"),
    ("protocols", "lo_swap"),
    ("fock", "two_mode_rotation"),
    ("bell", "ensemble_chsh"),
    ("bell", "optimize_chsh"),
    ("bell", "optimize_key_rate"),
    ("optimize", "multistart_maximize"),
    ("optimize", "prescan_monotone"),
    ("optimize", "bisect_threshold"),
    ("bell", "efficiency_threshold"),
    ("cli", "main"),
    ("presets", "swap_params"),
)

# Work counts taken from a span's return value: span -> (counter, count).
COUNTS = {
    "optics.loss_branches": ("branches_out", len),
    "optics.sfg_branches": ("branches_out", len),
    "detection.herald_amplitude_branches": ("branches_out", len),
    "bell.heralded_ensemble": ("branches",
                               lambda ens: len(ens.sfg) + len(ens.dark)),
    "fock.DensityOperator.from_branches": ("entries_out",
                                           lambda rho: len(rho.entries)),
    "optimize.multistart_maximize": ("evaluations",
                                     lambda res: res.n_evaluations),
}

IMPORT_SPAN = "import.sfgswap"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _function_bindings() -> dict:
    """id(function) -> every (namespace, name) of the package binding it."""
    bindings = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "sfgswap"
                                  or module_name.startswith("sfgswap.")):
            continue
        for name, value in vars(module).items():
            if inspect.isfunction(value):
                bindings.setdefault(id(value), []).append((module, name))
    return bindings


def _replace(module_name: str, qualname: str, make_wrapper, undo: list,
             bindings: dict) -> bool:
    """Replace ``sfgswap.<module_name>.<qualname>`` by ``make_wrapper(fn)``
    wherever the package binds it.  Returns False if the name is absent."""
    module = sys.modules.get(f"sfgswap.{module_name}")
    if module is None:
        return False
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make_wrapper(raw.__func__))
        elif inspect.isfunction(raw):
            new = make_wrapper(raw)
        else:
            return False
        undo.append((cls, attr, raw))
        setattr(cls, attr, new)
        return True
    fn = getattr(module, qualname, None)
    if not inspect.isfunction(fn):
        return False
    wrapped = make_wrapper(fn)
    for namespace, name in bindings.get(id(fn), ()):
        undo.append((namespace, name, fn))
        setattr(namespace, name, wrapped)
    return True


def install_setup_hook(on_first_call):
    """Call ``on_first_call(t)`` at the first call of any public function
    of a physics module, then restore the originals."""
    undo = []
    fired = []

    def make_wrapper(fn):
        def hook(*args, **kwargs):
            if not fired:
                fired.append(True)
                t = monotonic()
                for owner, name, original in reversed(undo):
                    setattr(owner, name, original)
                on_first_call(t)
            return fn(*args, **kwargs)
        return hook

    bindings = _function_bindings()
    for module_name in PHYSICS_MODULES:
        module = sys.modules.get(f"sfgswap.{module_name}")
        if module is None:
            continue
        for name, fn in list(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                _replace(module_name, name, make_wrapper, undo, bindings)


class SpanRecorder:
    """In-memory spans: label id, start, end and parent index per call."""

    def __init__(self):
        self.labels = []
        self.label_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]

    def label(self, label: str) -> int:
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self.label_ids[label]

    def open(self, label_id: int) -> int:
        idx = len(self.start)
        self.name.append(label_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, label: str, fn):
        label_id = self.label(label)
        counter = COUNTS.get(label)
        key = f"{label}.{counter[0]}" if counter else None
        if key:
            self.counts[key] = 0

        def traced(*args, **kwargs):
            idx = self.open(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter:
                try:
                    self.counts[key] += int(counter[1](result))
                except (AttributeError, TypeError):
                    pass
            return result
        return traced

    def install(self):
        """Wrap every span in ``SPANS``; returns the labels found."""
        found = []
        bindings = _function_bindings()
        for module_name, qualname in SPANS:
            label = f"{module_name}.{qualname}"
            if _replace(module_name, qualname,
                        lambda fn, label=label: self.wrap(label, fn), [], bindings):
                found.append(label)
        return found

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def execute(kind: str, args):
    """Run the request; returns (exit code, output text)."""
    # The package binds the name ``presets`` to a function, so look the
    # modules up by their full names.
    bell, cli, presets = (importlib.import_module(f"sfgswap.{name}")
                          for name in ("bell", "cli", "presets"))

    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(args))
        return code, buf.getvalue()
    if kind == "threshold":
        (seed,) = args
        section = dict(presets.get_preset("ideal")["params"], pair_cap=2)
        params = presets.swap_params(section)
        eta = bell.efficiency_threshold(params, seed=int(seed))
        return 0, repr(float(eta)) + "\n"
    raise SystemExit(f"unknown request kind {kind!r}")


def _write(path: str, result: dict) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


def main(argv) -> int:
    mode, result_path, kind, *args = argv
    result = {"mode": mode}
    recorder = None
    if mode == "trace":
        recorder = SpanRecorder()
        idx = recorder.open(recorder.label(IMPORT_SPAN))
    import sfgswap.cli  # noqa: F401  (loads every module of the package)
    if recorder is not None:
        recorder.close(idx)
        result["spans_found"] = recorder.install()
    elif mode in ("run", "setup"):
        def first_physics_call(t):
            result["setup_end"] = t
            if mode == "setup":
                _write(result_path, result)
                sys.stdout.flush()
                os._exit(0)
        install_setup_hook(first_physics_call)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    try:
        code, output = execute(kind, args)
    except Exception:
        code, output = 1, ""
        result["error"] = traceback.format_exc()
    result.update(code=code, output=output)
    if recorder is not None:
        spans_path = result_path[:-len(".json")] + ".npz"
        recorder.save(spans_path)
        result.update(spans=spans_path, labels=recorder.labels,
                      counts=recorder.counts)
    _write(result_path, result)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
