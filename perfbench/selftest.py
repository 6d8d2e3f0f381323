"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Every workload runs at tiny size twice
untraced and once traced; each run must exit 0 with ``correct`` true,
report exactly the metrics that ``BENCHMARK.json`` names, each with its
unit, and give the same output digest in both untraced runs. Last, the
benchmark must refuse to run, without printing a result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int) -> str:
    done = bench(workload, trace)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {done.returncode}\n"
                         f"{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise SystemExit(f"{workload} trace {trace}: bad result {result}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"{workload} trace {trace}: metrics {got} != {expected}")
    record = ROOT / ".bench_out" / f"run-{workload}-seed7-trace{trace}.json"
    return json.loads(record.read_text())["digest"]


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("corpus", 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            raise SystemExit(f"ran without sources: exit {done.returncode}, "
                             f"stdout {done.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        digests = {check_run(workload, 0), check_run(workload, 0)}
        if len(digests) != 1:
            raise SystemExit(f"{workload}: digest changed between runs: {digests}")
        check_run(workload, 1)
        print(f"ok  {workload}  digest {digests.pop()}")
    check_refuses_without_sources()
    print("ok  refuses to run without src/clearbalk")
    return 0


if __name__ == "__main__":
    sys.exit(main())
