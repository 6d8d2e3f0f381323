"""clearbalk benchmark: one workload per run, through the public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
there. One process and one thread drive the load in a closed loop: the
next CLI call starts when the previous one returns. A run repeats whole
passes over the workload's items until ``--seconds`` have elapsed (at
least the workload's minimum of passes), then checks the outputs of the
first run of each item and compares every later run with it. Times are
reported at nominal machine speed, from speed probes interleaved with the
calls (``speed.py``); the record of the run keeps them unscaled too.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one untraced pass is followed
by one pass under the span tracer, and the object holds the per-layer
metrics. Human-readable
lines, including the metric names of the workload's own units, come
before it. Each run also writes a record, and a traced run its spans,
under ``.bench_out/``. The exit code is 1 when a correctness gate fails
and 2 when the checkout has no ``src/clearbalk``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: OpenBLAS runs on one thread. The load is driven by one thread, and on a
#: 2-CPU virtual machine whose second CPU is starved at times, BLAS calls
#: that wait for a helper thread were the largest source of run-to-run
#: noise. Set before numpy is first imported; set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

#: The process, its threads and the set-up probes it starts run on one CPU.
#: Unpinned, the ``sweep`` pool's threads hand the interpreter lock across
#: CPUs, which was both slower and noisier, and a call and the speed probes
#: next to it ran on different CPUs. Pinned, the time of a 2,001-point sweep
#: call correlated 0.68 with the probe before it (0.36 unpinned).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

#: Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 3

#: Chunks a pass of many distinct ops is cut into, and the fewest ops per chunk.
CHUNKS = 10
CHUNK_MIN_OPS = 50

#: Stand-in for the latency of a failed op, which JSON cannot carry as infinity.
FAILED_MS = 1e9

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_share": "1",
                    "op_p50_ms": "ms", "work_per_s": "1/s"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed ops enter as infinity."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def set_up(name: str, seed: int, tiny: bool, workdir: Path):
    """Import the package, generate the workload and run one warm-up op.

    Returns the workload and the set-up time, as measured and at nominal speed.
    """
    start = time.perf_counter()
    import speed
    import workloads

    scratch = workdir / "probe.json"
    workload = workloads.build(name, seed, tiny, workdir, speed.SpeedLog(scratch))
    workload.warmup()
    seconds = time.perf_counter() - start
    return workload, (seconds, speed.scaled_setup(seconds, scratch))


def setup_probe(args) -> tuple[float, float]:
    """Set-up time of the same workload in a fresh interpreter, as measured
    and at nominal speed."""
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return tuple(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def measure(workload, seconds: float | None = None, passes: int | None = None,
            solves: list | None = None, tracer=None, reference: dict | None = None):
    """Run ``passes`` whole passes, or at least the workload's minimum until
    ``seconds`` have elapsed.

    Without ``passes``, items whose first op succeeded are then run again
    until each has been timed ``workload.min_runs`` times. With ``solves``
    the first pass runs under the balance-solve recorder. The first op of
    each key keeps its outputs, and their hashes become the reference that
    every later op of that key must match byte for byte. A speed probe
    closes the measurement, so every call has one on each side. Returns
    the kept ops, every op, the pass count, the wall time, the keys of ops
    whose outputs differed, and the reference.
    """
    import tracing

    kept, every, mismatched = [], [], []
    reference = {} if reference is None else reference

    def run_one(item):
        if tracer is not None:
            tracer.op_id += 1
        op = workload.run(item)
        every.append(op)
        if op.key not in reference:
            reference[op.key] = output_hash(op)
            kept.append(op)
            return
        if output_hash(op) != reference[op.key]:
            mismatched.append(op.key)
        for call in op.calls:
            call.output = ""

    done = 0
    start = time.perf_counter()
    while True:
        record = solves is not None and done == 0
        with tracing.record_solves(solves) if record else contextlib.nullcontext():
            for item in workload.items:
                run_one(item)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= (passes or workload.min_passes) and (seconds is None or elapsed >= seconds):
            break
    if passes is None:
        again = [item for item, op in zip(workload.items, every) if op.ok]
        for _ in range(workload.min_runs - done):
            for item in again:
                run_one(item)
        elapsed = time.perf_counter() - start
    workload.speed.probe()
    return kept, every, done, elapsed, mismatched, reference


def output_hash(op) -> str:
    digest = hashlib.sha256()
    for call in op.calls:
        digest.update(call.outcome.encode())
        digest.update(call.output.encode())
    return digest.hexdigest()


def code_id() -> str:
    """Hash of the package and benchmark sources, naming the code a digest belongs to."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "clearbalk").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stable_digest(key: str, digest: str) -> str | None:
    """Record the digest; return the earlier one if it differs for the same key."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.setdefault(key, digest)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return previous if previous != digest else None


def by_key(every) -> list[list]:
    """The runs of each distinct op, in the order the ops first ran."""
    runs: dict[str, list] = {}
    for op in every:
        runs.setdefault(op.key, []).append(op)
    return list(runs.values())


def middle_mean(values) -> float:
    """Mean of the middle half of the values; the median of three or fewer.

    On ``sweep``, whose calls vary by 2x from one to the next, ten-second
    windows of one process agreed better by this than by the median
    (quartile spread 0.065 against 0.080).
    """
    ordered = sorted(values)
    cut = (len(ordered) + 1) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def op_seconds(workload, ops, scaled: bool = True) -> float:
    """An op's time at nominal speed (or as measured): the sum over its CLI
    calls of each call's middle mean (see ``middle_mean``) across the runs
    of the same op."""
    def seconds(call):
        return call.seconds * (workload.speed.scale(call.start, call.end) if scaled else 1.0)

    return sum(middle_mean(seconds(c) for c in column)
               for column in zip(*(op.calls for op in ops)))


def end_to_end(workload, every, setup_s: float, peak_rss_mb: float,
               scaled: bool = True) -> tuple[dict, dict]:
    """The benchmark's end-to-end metrics and the same numbers in workload units.

    Times are at nominal speed (see ``speed.py``) unless ``scaled`` is
    false; a failed op counts as infinitely slow. When a pass has at least
    ``CHUNKS * CHUNK_MIN_OPS`` distinct ops, it is cut into ``CHUNKS`` runs
    of consecutive ops, each a few seconds long. ``work_per_s`` is the
    median of the chunks' work per second, and every op's time is divided
    by how much slower its chunk ran than that median before the median op
    time is taken: this keeps slow phases of a shared machine, which the
    speed probes do not always see, out of the figures. (Taken against the
    fastest chunk instead, eight ``corpus`` passes in one process spread
    0.097 in ``work_per_s`` and 0.130 in ``op_p50_ms``; against the median
    chunk, 0.046 and 0.081.)
    """
    timed = [(op_seconds(workload, ops, scaled), all(op.ok for op in ops), ops[0].work)
             for ops in by_key(every)]
    latencies = [seconds * 1e3 if ok else math.inf for seconds, ok, _ in timed]
    parts = CHUNKS if len(timed) >= CHUNKS * CHUNK_MIN_OPS else 1
    size = math.ceil(len(timed) / parts)
    chunks = [timed[i:i + size] for i in range(0, len(timed), size)]
    rates = [sum(w for _, ok, w in c if ok) / sum(t for t, _, _ in c) for c in chunks]
    rate = statistics.median(rates)
    p50 = percentile([t * 1e3 * r / rate if ok else math.inf
                      for c, r in zip(chunks, rates) for t, ok, _ in c], 50)
    ok_share = sum(ok for _, ok, _ in timed) / len(timed)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ok_share": ok_share,
               "op_p50_ms": p50 if math.isfinite(p50) else FAILED_MS, "work_per_s": rate}
    count = len(timed)
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
             "failed_share": (1.0 - ok_share, "failed/ops")}
    if workload.op_unit == "model":
        named["models_per_s"] = (metrics["work_per_s"], "models/s")
        named["model_p50_ms"] = (p50, "ms")
        if count >= 1000:
            named["model_p99_ms"] = (percentile(latencies, 99), "ms")
    elif workload.unit == "points":
        named["sweep_points_per_s"] = (metrics["work_per_s"], "points/s")
        named["op_p50_ms"] = (p50, "ms")
    else:
        named["sim_events_per_s"] = (metrics["work_per_s"], "events/s")
        named["op_p50_ms"] = (p50, "ms")
    return metrics, named


def outcome_counts(every) -> tuple[dict, dict]:
    calls, ops = {}, {}
    for op in every:
        for call in op.calls:
            calls[call.outcome] = calls.get(call.outcome, 0) + 1
        if not op.ok:
            cause = next(c.outcome for c in op.calls if not c.ok)
            ops[cause] = ops.get(cause, 0) + 1
    return calls, ops


def parse_args(argv):
    parser = argparse.ArgumentParser(description="clearbalk benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "slow_clearing", "sweep", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test only")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh interpreter and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clearbalk" / "cli.py").is_file():
        print(f"error: {SRC / 'clearbalk'} not found; run from the root of a "
              "clearbalk checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    workload, setup_main = set_up(args.workload, args.seed, args.tiny, workdir)
    import clearbalk
    if not Path(clearbalk.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported clearbalk from {clearbalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    import speed
    import tracing

    # A traced run needs one untraced pass, as the base of the overhead.
    solves: list = []
    kept, every, passes, wall, mismatched, reference = measure(
        workload, seconds=None if args.trace else args.seconds,
        passes=1 if args.trace else None, solves=solves)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer, spans, missing = {}, 0, []
    if args.trace:
        tracer = tracing.Tracer()
        traced_solves: list = []
        with tracer.installed():
            _, traced, _, _, traced_mismatch, _ = measure(
                workload, passes=1, solves=traced_solves, tracer=tracer, reference=reference)
        mismatched += traced_mismatch
        untraced_pass = sum(op_seconds(workload, ops) for ops in by_key(every))
        overhead = sum(op_seconds(workload, [op]) for op in traced) / untraced_pass - 1.0
        per_layer = tracer.metrics(traced_solves, overhead)
        spans = tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        missing = tracer.missing

    levels = [s[0] if s is not None else None for s in solves]
    check = workload.check(kept, levels)
    failures = list(check.failures)
    if mismatched:
        failures.append(f"outputs differ from the first pass for {sorted(set(mismatched))}")
    digest = hashlib.sha256(json.dumps(check.digest_parts, sort_keys=True).encode()).hexdigest()[:16]
    key = f"{code_id()}/{args.workload}/{'tiny' if args.tiny else 'full'}/seed{args.seed}"
    previous = stable_digest(key, digest)
    if previous:
        failures.append(f"output digest {digest} differs from {previous} of an earlier "
                        "run of the same code")

    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setup_samples = [setup_main] + [setup_probe(args) for _ in range(probes)]
    metrics, named = end_to_end(workload, every, statistics.median(s[1] for s in setup_samples),
                                peak_rss_mb)
    unscaled, _ = end_to_end(workload, every, statistics.median(s[0] for s in setup_samples),
                             peak_rss_mb, scaled=False)
    call_outcomes, failed_ops = outcome_counts(every)
    failed = sum(not op.ok for op in every)

    speed_factors = [speed.NOMINAL_S / p for p in workload.speed.seconds]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"ops {len(every)}  failed {failed}  measured {wall:.3f} s  "
          f"speed scale median {statistics.median(speed_factors):.3f} "
          f"over {len(speed_factors)} probes")
    for name, (value, unit) in named.items():
        print(f"  {name:<20} {value:.6g} {unit}")
    print(f"  {'call outcomes':<20} {json.dumps(call_outcomes, sort_keys=True)}")
    print(f"  {'failed ops by cause':<20} {json.dumps(failed_ops, sort_keys=True)}")
    print(f"  {'digest':<20} {digest}")
    for name, value in check.properties.items():
        print(f"  {name:<20} {json.dumps(value)}")
    for name, value in per_layer.items():
        print(f"  {name:<30} {value:.6g} {tracing.per_layer_units()[name]}")
    if missing:
        print(f"  names not found for tracing: {missing}")
    for failure in failures:
        print(f"  GATE FAILED: {failure}")

    units = tracing.per_layer_units() if args.trace else END_TO_END_UNITS
    values = per_layer if args.trace else metrics
    result = {"correct": not failures, "attempted": len(every), "failed": failed,
              "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  tiny=args.tiny, passes=passes, measured_s=wall, digest=digest,
                  speed_probes_s=workload.speed.seconds, unscaled_metrics=unscaled,
                  setup_samples_s=setup_samples, workload_metrics=named,
                  call_outcomes=call_outcomes, failed_ops=failed_ops,
                  properties=check.properties, gate_failures=failures,
                  spans_written=spans)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
