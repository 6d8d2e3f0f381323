"""Span tracing of the calls into each clearbalk module, from outside the package.

The tracer replaces a function name in the module that calls it (for
example ``clearbalk.oracle.verify.solve_truncated_balance``) with a
wrapper that records one span per call: name, start, end, parent span,
op id and thread. Spans stay in compact in-memory arrays and are written
out once, when the run ends. A few wrappers also read a count off the
returned value (truncation level, verifier checks, simulated events).

A layer is one module of the package. Its self time is the duration of
its spans minus that of their child spans, both on the calling thread's
CPU clock. A thread waiting for the interpreter lock, or the main thread
waiting for the ``sweep`` pool, accrues no CPU time, so no layer is
charged for a wait and the layers' self times add up to at most the
process's CPU time. Spans also record wall start and end.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import threading
from array import array
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

LAYERS = ("cli", "model", "spectral", "benefit", "dominant", "equilibrium",
          "oracle.verify", "oracle.balance", "oracle.simulate")

#: (module that binds the name, name, layer the called function belongs to).
TARGETS = (
    ("clearbalk.cli", "main", "cli"),
    ("clearbalk.cli", "_sweep_row", "cli"),
    ("clearbalk.cli", "validate_params", "model"),
    ("clearbalk.cli", "spectral_quantities", "spectral"),
    ("clearbalk.cli", "stationary_distribution", "spectral"),
    ("clearbalk.cli", "benefit_coefficients", "benefit"),
    ("clearbalk.cli", "h_upper", "benefit"),
    ("clearbalk.cli", "h_upper_limit", "benefit"),
    ("clearbalk.cli", "net_benefit_ao", "benefit"),
    ("clearbalk.cli", "critical_values", "dominant"),
    ("clearbalk.cli", "dominant_fully_unobservable", "dominant"),
    ("clearbalk.cli", "dominant_almost_unobservable", "dominant"),
    ("clearbalk.cli", "dominant_fully_observable", "dominant"),
    ("clearbalk.cli", "compute_equilibria", "equilibrium"),
    ("clearbalk.cli", "solve_truncated_balance", "oracle.balance"),
    ("clearbalk.cli", "simulate", "oracle.simulate"),
    ("clearbalk.equilibrium", "congestion_case", "model"),
    ("clearbalk.equilibrium", "f_eval", "benefit"),
    ("clearbalk.equilibrium", "g_eval", "benefit"),
    ("clearbalk.equilibrium", "h_upper_limit", "benefit"),
    ("clearbalk.benefit", "f_eval", "benefit"),
    ("clearbalk.benefit", "g_eval", "benefit"),
    ("clearbalk.oracle.verify", "verify_equilibrium", "oracle.verify"),
    ("clearbalk.oracle.verify", "solve_truncated_balance", "oracle.balance"),
)

#: Names wrapped only to count calls; their time stays with the caller.
COUNTED = (("clearbalk.equilibrium", "brentq"),)

#: Every binding of the balance solve, for ``record_solves``.
BALANCE_BINDINGS = (("clearbalk.cli", "solve_truncated_balance"),
                    ("clearbalk.oracle.verify", "solve_truncated_balance"))

#: Per-layer counts with their units.
COUNTS = (
    ("benefit.f_eval_calls", "count"),
    ("equilibrium.scan_levels", "levels"),
    ("equilibrium.knife_edges", "count"),
    ("equilibrium.brentq_fallbacks", "count"),
    ("spectral.clipped_masses", "count"),
    ("oracle.verify.checks", "count"),
    ("oracle.balance.levels", "levels"),
    ("oracle.balance.level_max", "levels"),
    ("oracle.balance.residual_max", "1"),
    ("oracle.balance.tail_mass_max", "1"),
    ("oracle.simulate.events", "count"),
    ("trace.overhead_share", "1"),
)

def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTS)
    return units


@contextlib.contextmanager
def patched(bindings, make_wrapper):
    """Replace each (module, name, ...) binding by ``make_wrapper(fn, i)``.

    Yields the bindings that do not exist, so a later version of the
    package that renames a function still runs; restores the originals
    on exit.
    """
    saved, missing = [], []
    try:
        for i, (module_name, attr, *_) in enumerate(bindings):
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, make_wrapper(fn, i))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


@contextlib.contextmanager
def record_solves(solves: list):
    """Append ``(level, residual, tail_mass)`` of every balance solve to ``solves``.

    A solve that raises is recorded as None. Nothing is timed, so this
    stays on during the first measured pass to describe the workload, and
    the traced pass reads the balance counts from it too.
    """
    def make_wrapper(fn, _):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                solves.append(None)
                raise
            solves.append((result.level, getattr(result, "residual", 0.0),
                           getattr(result, "tail_mass", 0.0)))
            return result
        return wrapper

    with patched(BALANCE_BINDINGS, make_wrapper):
        yield


def balance_counts(solves: list) -> dict:
    """The ``oracle.balance`` counts of the solves that returned."""
    done = [s for s in solves if s is not None]
    return {"oracle.balance.levels": float(sum(s[0] for s in done)),
            "oracle.balance.level_max": float(max((s[0] for s in done), default=0)),
            "oracle.balance.residual_max": float(max((s[1] for s in done), default=0.0)),
            "oracle.balance.tail_mass_max": float(max((s[2] for s in done), default=0.0))}


def self_times(parent, thread, cpu) -> np.ndarray:
    """Each span's thread-CPU duration minus that of its children in the same thread.

    The main thread's ``cli.main`` span accrues no CPU while it waits for
    the ``sweep`` pool, so the pool's spans, which hang off it from other
    threads, are not subtracted from it.
    """
    linked = parent >= 0
    same_thread = np.zeros(len(parent), dtype=bool)
    same_thread[linked] = thread[parent[linked]] == thread[linked]
    covered = np.bincount(parent[same_thread], weights=cpu[same_thread], minlength=len(parent))
    return cpu - covered


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self):
        self.op_id = -1
        self.counts = {name: 0.0 for name, _ in COUNTS}
        self.brentq_calls = 0
        self.missing: list[str] = []
        self._span_name = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._thread = array("i")
        self._start = array("d")
        self._end = array("d")
        self._cpu = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._threads = 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        self._local.stack = self._main_stack
        self._local.thread = 0
        with patched(TARGETS, self._span_wrapper) as missing_spans, \
                patched(COUNTED, self._count_wrapper) as missing_counts:
            self.missing = missing_spans + missing_counts
            yield self

    def _thread_state(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._local.thread = self._threads
                self._threads += 1
        return stack, self._local.thread

    def _span_wrapper(self, fn, target: int):
        hook = _HOOKS.get(TARGETS[target][1])

        def wrapper(*args, **kwargs):
            stack, thread = self._thread_state()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            with self._lock:
                span = len(self._start)
                self._span_name.append(target)
                self._parent.append(parent)
                self._op.append(self.op_id)
                self._thread.append(thread)
                self._start.append(0.0)
                self._end.append(0.0)
                self._cpu.append(0.0)
            stack.append(span)
            start, cpu = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._cpu[span] = thread_time() - cpu
                self._end[span] = perf_counter()
                self._start[span] = start
                stack.pop()
            if hook is not None:
                with self._lock:
                    hook(result, self.counts)
            return result
        return wrapper

    def _count_wrapper(self, fn, _):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.brentq_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _arrays(self):
        return (np.frombuffer(self._span_name, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int64),
                np.frombuffer(self._op, dtype=np.int64),
                np.frombuffer(self._thread, dtype=np.int32),
                np.frombuffer(self._start, dtype=np.float64),
                np.frombuffer(self._end, dtype=np.float64),
                np.frombuffer(self._cpu, dtype=np.float64))

    def metrics(self, solves: list, overhead: float) -> dict:
        """Per-layer calls and self time of the one traced pass, plus the counts.

        ``solves`` holds the pass's balance solves (see ``record_solves``);
        ``overhead`` is its time over that of an untraced pass, minus 1.
        """
        name, parent, _, thread, _, _, cpu = self._arrays()
        self_time = self_times(parent, thread, cpu)
        layer_of_target = np.array([LAYERS.index(t[2]) for t in TARGETS])
        layer = layer_of_target[name]
        calls = np.bincount(layer, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=self_time, minlength=len(LAYERS))

        values = {}
        for i, layer_name in enumerate(LAYERS):
            values[f"{layer_name}.calls"] = float(calls[i])
            values[f"{layer_name}.self_s"] = float(busy[i])
        f_eval = [i for i, t in enumerate(TARGETS) if t[1] == "f_eval"]
        counts = dict(self.counts)
        counts["benefit.f_eval_calls"] = float(np.isin(name, f_eval).sum())
        counts["equilibrium.brentq_fallbacks"] = float(self.brentq_calls)
        counts.update(balance_counts(solves))
        values.update(counts)
        values["trace.overhead_share"] = overhead
        return values

    def write(self, path: Path) -> int:
        """Write every span to ``path`` (numpy .npz); return the span count."""
        name, parent, op, thread, start, end, cpu = self._arrays()
        np.savez(path, name=name, parent=parent, op=op, thread=thread,
                 start=start, end=end, cpu=cpu,
                 targets=np.array([f"{m}.{a}" for m, a, _ in TARGETS]),
                 layers=np.array([t[2] for t in TARGETS]))
        return len(name)


def _on_report(report, counts):
    bounds = getattr(report, "bounds", None)
    subcase = getattr(getattr(report, "subcase", None), "value", None)
    if subcase == "II" and bounds is not None and math.isfinite(bounds.n_u):
        counts["equilibrium.scan_levels"] += bounds.n_u
    counts["equilibrium.knife_edges"] += bool(getattr(report, "knife_edge", False))


def _on_verification(report, counts):
    counts["oracle.verify.checks"] += len(getattr(report, "checks", ()))


def _on_distribution(dist, counts):
    counts["spectral.clipped_masses"] += getattr(dist, "clipped", 0)


def _on_simulation(estimates, counts):
    counts["oracle.simulate.events"] += getattr(estimates, "event_count", 0)


_HOOKS = {
    "compute_equilibria": _on_report,
    "verify_equilibrium": _on_verification,
    "stationary_distribution": _on_distribution,
    "simulate": _on_simulation,
}
