"""Host-speed calibration, interleaved with the measured calls.

The benchmark's timings come from a shared machine whose speed drifts by
20 to 50 % over seconds to minutes, and processor time drifts with wall
time, so neither alone resolves a 25 % change. A short probe of fixed
work that does not touch clearbalk (a Python loop, small dense solves,
one sparse solve, and the argument parsing, JSON round trip through a
file and text formatting of a short CLI call) runs between CLI calls
every ``EVERY_S`` seconds, and after every call that took longer. Each
call's time is then scaled by ``NOMINAL_S`` over the median of the
``SIDE`` probes on each side of it: the result is the call's time at the
nominal speed, in the same units.
On the 2-core virtual machine where it was tuned, the probe followed most
slow phases (window medians of a 25-model corpus op moved by up to 20 %,
their ratio to the probe by up to 5 %) but missed some that lasted a
minute or more. In one ``corpus`` pass, the time of 50-model chunks
correlated 0.82 with the probe before it had a CLI-like half, and 0.95
with that half alone.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

#: Seconds between probes while calls are short.
EVERY_S = 0.5

#: Probes on each side of a call that its scale is taken from.
SIDE = 2

#: Probe time taken as nominal speed (about its median on the machine above).
NOMINAL_S = 0.04

_RNG = np.random.default_rng(2011)
_DENSE = _RNG.random((120, 120)) + 120.0 * np.eye(120)
_DENSE_RHS = _RNG.random(120)
_SPARSE = scipy.sparse.diags([np.full(19999, -1.0), np.full(20000, 3.0), np.full(19999, -1.0)],
                             [-1, 0, 1], format="csc")
_SPARSE_RHS = np.ones(20000)

#: The interpreter-bound half of a probe does what a short CLI call does:
#: parse arguments, write and read back a JSON report, format a table.
CLI_ROUNDS = 32
_PARSER = argparse.ArgumentParser(prog="probe")
_PARSER.add_argument("command")
for _flag in ("--config", "--format", "--out"):
    _PARSER.add_argument(_flag)
_PAYLOAD = {"case": {"kind": "A"},
            "rows": [{"n": n, "env1": 0.1234567 * n, "env2": 1.0 / (n + 1), "label": f"level-{n}"}
                     for n in range(40)]}


def probe_work(scratch: Path) -> float:
    """The fixed work of one probe, writing only ``scratch``; returns a
    value so nothing is skipped."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    for _ in range(10):
        total += float(np.linalg.solve(_DENSE, _DENSE_RHS)[0])
    total += float(scipy.sparse.linalg.spsolve(_SPARSE, _SPARSE_RHS)[0])
    for _ in range(CLI_ROUNDS):
        _PARSER.parse_args(["equilibrium", "--config", "c.json", "--format", "json",
                            "--out", str(scratch)])
        scratch.write_text(json.dumps(_PAYLOAD, indent=2))
        rows = json.loads(scratch.read_text())["rows"]
        total += len("".join(f"{row['n']:4d} {row['env1']:.6g} {row['label']}\n" for row in rows))
    return total


def probe(scratch: Path) -> float:
    """Seconds one probe takes now."""
    start = perf_counter()
    probe_work(scratch)
    return perf_counter() - start


class SpeedLog:
    """Probes taken during a run, with their times, for scaling the calls."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def tick(self) -> None:
        """Probe if the last probe ended ``EVERY_S`` or more seconds ago."""
        if not self.ends or perf_counter() - self.ends[-1] >= EVERY_S:
            self.probe()

    def probe(self) -> None:
        start = perf_counter()
        probe_work(self.scratch)
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """Nominal over the median of the ``SIDE`` probes on each side of [start, end]."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.starts, end)
        near = self.seconds[max(0, before - SIDE):before] + self.seconds[after:after + SIDE]
        return NOMINAL_S / statistics.median(near)


def scaled_setup(seconds: float, scratch: Path, samples: int = 5) -> float:
    """Set-up seconds at nominal speed, from probes taken right after it."""
    return seconds * NOMINAL_S / statistics.median(probe(scratch) for _ in range(samples))
