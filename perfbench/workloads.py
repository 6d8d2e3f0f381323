"""The four workloads: their inputs, the CLI calls of one op, and their gates.

Every op drives the public entry point ``clearbalk.cli.main`` in-process,
with ``--out`` set to a file in the run's work directory, so argument
parsing, config loading and rendering are timed together with the model
code. Inputs come from the benchmark's ``--seed``; the program only sees
the generated config files and arguments.

Each workload lists the items of one pass. ``check`` reads the outputs of
the first op of each item and returns the failed correctness gates, the parts the
output digest hashes, and the workload's measured properties.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import clearbalk.cli
from clearbalk import (
    ModelParams,
    RewardCost,
    benefit_coefficients,
    compute_equilibria,
    format_strategy,
    parse_strategy,
    solve_truncated_balance,
    spectral_quantities,
    stationary_distribution,
    validate_params,
)
from speed import SpeedLog

#: Absolute tolerance of the closed-form stationary law against the balance solve.
STATIONARY_TOLERANCE = 1e-9

#: Standard errors a simulated mass may lie from the closed form.
SIM_SE_LIMIT = 6.0

#: Slack added to the simulation gate so exact zeros with zero spread pass.
SIM_ABS_SLACK = 1e-12

#: Decimals of a mixing probability kept in the output digest.
THETA_DECIMALS = 6

REFERENCE = ModelParams(2.0, 1.0, 1.0, 3.0, 1.0, 2.0)


#: Exit-3 messages of ``clearbalk.cli.main`` and the cause each one names.
EXIT_CAUSES = (("consistency failure: oracle verification rejected", "verification-rejected"),
               ("consistency failure:", "ConsistencyError"),
               ("error:", "input-error"))


@dataclass
class Call:
    """One CLI invocation: exit code or exception, its interval, stderr and output."""

    code: int | None
    error: str
    start: float
    end: float
    stderr: str
    output: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.error

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def outcome(self) -> str:
        """``exit 0``, ``exit <code> <cause>`` or the class of an uncaught exception.

        ``cli.main`` turns a ``ConsistencyError`` and a rejected
        verification both into exit 3; the message it prints tells them apart.
        """
        if self.error or self.ok:
            return self.error or "exit 0"
        cause = next((c for prefix, c in EXIT_CAUSES if self.stderr.startswith(prefix)),
                     "unknown")
        return f"exit {self.code} {cause}"


@dataclass
class Op:
    """The CLI calls made for one item; failed when any call failed."""

    key: str
    calls: list[Call]
    work: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.calls)


@dataclass
class Check:
    failures: list[str]
    digest_parts: list
    properties: dict


def run_cli(argv: list[str], out: Path, speed: SpeedLog) -> Call:
    """Call ``clearbalk.cli.main`` once; only the call itself is timed.

    The speed probe, when one is due, runs before the call.
    """
    out.unlink(missing_ok=True)
    speed.tick()
    error = ""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = clearbalk.cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            code, error = None, type(exc).__name__
        end = time.perf_counter()
    output = out.read_text() if out.exists() else ""
    return Call(code, error, start, end, stderr.getvalue(), output)


def write_config(path: Path, params: ModelParams, reward: float, cost: float = 1.0) -> str:
    fields = dataclasses.asdict(params)
    fields.update(R=reward, C=cost)
    path.write_text(json.dumps(fields))
    return str(path)


def critical_ratios(params: ModelParams) -> tuple[float, float]:
    """R/C where the all-join benefit changes sign at level 0 and as n grows.

    Between the two lies subcase II; below and above lie I and III (their
    order depends on the congestion case).
    """
    model = validate_params(params, RewardCost(1.0, 1.0))
    coef = benefit_coefficients(model, spectral_quantities(model), RewardCost(1.0, 1.0))
    return (coef.a + coef.b) / (coef.d + coef.e), coef.a / coef.d


def one_minus_r1(params: ModelParams) -> float:
    return 1.0 - spectral_quantities(validate_params(params, RewardCost(1.0, 1.0))).r1


def rounded_strategy(text: str | None) -> str | None:
    """Strategy descriptor with its mixing probability rounded for the digest."""
    if text is None or text == "family":
        return text
    head, _, rest = text.rpartition(":")
    if head.startswith(("mixed-threshold:", "reverse:")):
        return f"{head}:{float(rest):.{THETA_DECIMALS}f}"
    return text


def span(values) -> list[float]:
    values = list(values)
    return [min(values), max(values)] if values else []


class Workload:
    name = ""
    unit = ""
    op_unit = "op"
    items: list = []
    #: Passes a run makes at least.
    min_passes = 1
    #: Runs of each item that succeeds; items beyond the passes run after them.
    min_runs = 1
    out: Path
    speed: SpeedLog

    def cli(self, argv: list[str]) -> Call:
        return run_cli(argv, self.out, self.speed)

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, item) -> Op:
        raise NotImplementedError

    def check(self, ops: list[Op], levels: list) -> Check:
        raise NotImplementedError


@dataclass
class ModelItem:
    key: str
    params: ModelParams
    reward: float
    config: str = ""


class ModelWorkload(Workload):
    """A full analysis of each model: the op of ``corpus`` and ``slow_clearing``.

    One op runs ``analyze`` in the fu, au and fo regimes, the verified
    ``equilibrium`` report, and ``stationary`` and ``benefit`` under the
    first listed equilibrium (skipped for the case-C family, which lists
    no single strategy).
    """

    unit = "models"
    op_unit = "model"

    def __init__(self, name: str, items: list[ModelItem], workdir: Path,
                 every_op_must_pass: bool, stationary_sample: int, rng: random.Random):
        self.name = name
        self.items = items
        self.out = workdir / f"{name}.out"
        self.every_op_must_pass = every_op_must_pass
        self.stationary_sample = stationary_sample
        self.rng = rng
        self.by_key = {item.key: item for item in items}
        for i, item in enumerate(self.by_key.values()):
            item.config = write_config(workdir / f"{name}-{i}.json", item.params, item.reward)
        self.warm_item = ModelItem("warm-up", REFERENCE, 0.72)
        self.warm_item.config = write_config(workdir / f"{name}-warm.json", REFERENCE, 0.72)

    def warmup(self) -> None:
        self.run(self.warm_item)

    def run(self, item: ModelItem) -> Op:
        cfg = ["--config", item.config, "--format", "json"]
        calls = [self.cli(["analyze", "--info-level", level] + cfg)
                 for level in ("fu", "au", "fo")]
        report = self.cli(["equilibrium"] + cfg)
        calls.append(report)
        if report.ok:
            first = json.loads(report.output)["equilibria"][0]["strategy"]
            if first is not None:
                for command in ("stationary", "benefit"):
                    calls.append(self.cli([command, "--strategy", first] + cfg))
        return Op(item.key, calls, 1.0)

    def check(self, ops: list[Op], levels: list) -> Check:
        failures, parts, mix = [], [], Counter()
        stationary_ops = []
        for op in ops:
            item = self.by_key[op.key]
            if self.every_op_must_pass and not op.ok:
                failures.append(f"{op.key}: {[c.outcome for c in op.calls]}")
            # A report is written before the verdict, so exit 3 may still carry
            # one; only a raised error leaves none.
            report_call = op.calls[3]
            if not report_call.output:
                parts.append([op.key, report_call.outcome])
                continue
            report = json.loads(report_call.output)
            mix[f"{report['case']['kind']}/{report['subcase']}"] += 1
            rejected = [i["strategy"] for i in report["equilibria"]
                        if i["verification"] is not None and not i["verification"]["passed"]]
            if rejected:
                failures.append(f"{op.key}: oracle verifier rejected {rejected}")
            bounds = report["bounds"] or {}
            parts.append([op.key, report_call.outcome, report["case"]["kind"], report["subcase"],
                          [str(bounds.get(k)) for k in ("n_l", "n_u", "n_l_plus", "n_u_minus")],
                          [rounded_strategy(i["strategy"]) for i in report["equilibria"]]])
            if len(op.calls) > 4 and op.calls[4].ok:
                stationary_ops.append((item, op.calls[4]))
        gaps = []
        for item, call in self.rng.sample(stationary_ops,
                                          min(self.stationary_sample, len(stationary_ops))):
            gaps.append(stationary_error(item, json.loads(call.output)))
            if not gaps[-1] <= STATIONARY_TOLERANCE:
                failures.append(f"{item.key}: stationary law off the balance solve by {gaps[-1]:.3g}")
        solved = [lv for lv in levels if lv is not None]
        properties = {
            "case_subcase_mix": dict(sorted(mix.items())),
            "one_minus_r1_range": span(one_minus_r1(i.params) for i in self.by_key.values()),
            "balance_levels": {str(k): v for k, v in sorted(Counter(solved).items())},
            "balance_solves_raised": levels.count(None),
        }
        if gaps:
            properties["stationary_gap_max"] = max(gaps)
        return Check(failures, parts, properties)


def stationary_error(item: ModelItem, payload: dict) -> float:
    """Largest absolute gap between the CLI's stationary table and the balance solve."""
    model = validate_params(item.params, RewardCost(item.reward, 1.0))
    solution = solve_truncated_balance(model, parse_strategy(payload["strategy"]))
    gaps = [abs(row[f"env{e}"] - solution.pmf(row["n"], e))
            for row in payload["rows"] for e in (1, 2)]
    top = payload["max_level"] + 1
    gaps += [abs(payload["tail"][f"env{e}"] - solution.tail(top, e)) for e in (1, 2)]
    return max(gaps)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def corpus_items(rng: random.Random, count: int) -> list[ModelItem]:
    """Well-conditioned models with every case and subcase represented.

    Rates are log-uniform in [0.1, 10]; models with r1 > 0.88 are redrawn,
    so the all-join balance solve stops by 256 levels. Every tenth model
    is forced into congestion case C (equal clearing rates or equal
    congestion ratios); a quarter of those sit exactly on the critical
    ratio, where every strategy is an equilibrium. R is drawn below,
    between or above the two critical ratios, which spreads the models
    over subcases I, II and III.
    """
    items = []
    while len(items) < count:
        i = len(items)
        rates = [_log_uniform(rng, 0.1, 10.0) for _ in range(6)]
        if i % 10 == 0:
            if rng.random() < 0.5:
                rates[3] = rates[2]
            else:
                rates[1] = rates[0] * rates[3] / rates[2]
        params = ModelParams(*rates)
        if one_minus_r1(params) < 0.12:
            continue
        low, high = sorted(critical_ratios(params))
        draw = rng.random()
        if i % 40 == 0:
            reward = low
        elif draw < 0.25:
            reward = low * rng.uniform(0.5, 0.95)
        elif draw < 0.75 and i % 10:
            reward = low + (high - low) * rng.uniform(0.05, 0.95)
        else:
            reward = high * rng.uniform(1.05, 2.0)
        items.append(ModelItem(f"corpus-{i}", params, reward))
    return items


def ladder_items() -> list[ModelItem]:
    """Slow-clearing models, 1 - r1 from about 1e-2 down to about 1e-4.

    R is twice the larger critical ratio, so the equilibrium is
    always-join and the verifier's balance solve needs the most levels.
    """
    models = {
        "mu=1e-2": ModelParams(2.0, 1.0, 1e-2, 3e-2, 1.0, 2.0),
        "mu=3e-3": ModelParams(2.0, 1.0, 3e-3, 9e-3, 1.0, 2.0),
        "mu=1e-4": ModelParams(2.0, 1.0, 1e-4, 3e-4, 1.0, 2.0),
        "rates-1e-4..1e4": ModelParams(1e4, 1e-4, 1e2, 1e-2, 1.0, 1e-1),
        "case-B": ModelParams(4.0, 1.0, 1e-2, 3e-3, 1.0, 2.0),
    }
    return [ModelItem(key, params, 2.0 * max(critical_ratios(params)))
            for key, params in models.items()]


@dataclass
class Grid:
    key: str
    params: ModelParams
    reward: float
    param: str
    start: float
    stop: float
    config: str = ""

    def argv(self, steps: int) -> list[str]:
        return ["sweep", "--config", self.config, "--param", self.param,
                "--from", repr(self.start), "--to", repr(self.stop), "--steps", str(steps)]

    def point(self, value: float) -> tuple[ModelParams, RewardCost]:
        if self.param == "R":
            return self.params, RewardCost(value, 1.0)
        return dataclasses.replace(self.params, **{self.param: value}), RewardCost(self.reward, 1.0)


class SweepWorkload(Workload):
    """``sweep`` over two grids per op, each crossing subcases I, II and III."""

    name = "sweep"
    unit = "points"

    def __init__(self, rng: random.Random, steps: int, workdir: Path, sample: int):
        self.steps = steps
        self.sample = sample
        self.rng = rng
        self.out = workdir / "sweep.csv"
        # Critical R of the reference model: 0.68 and 0.7236; of the case-B
        # model at R = 0.6, q21 = 0.342 and 0.468.
        self.grids = [
            Grid("reference-R", REFERENCE, 0.72, "R",
                 0.6 * rng.uniform(0.9, 1.0), 0.8 * rng.uniform(1.0, 1.1)),
            Grid("case-B-q21", ModelParams(4.0, 1.0, 3.0, 1.0, 1.0, 2.0), 0.6, "q21",
                 0.1 * rng.uniform(0.9, 1.0), 1.0 * rng.uniform(1.0, 1.1)),
        ]
        for grid in self.grids:
            grid.config = write_config(workdir / f"sweep-{grid.key}.json", grid.params, grid.reward)
        self.items = [self.grids]

    def warmup(self) -> None:
        for grid in self.grids:
            self.cli(grid.argv(101))

    def run(self, grids: list[Grid]) -> Op:
        calls = [self.cli(grid.argv(self.steps)) for grid in grids]
        return Op("grids", calls, float(self.steps * len(grids)))

    def check(self, ops: list[Op], levels: list) -> Check:
        failures, parts, mix, gaps = [], [], Counter(), []
        for grid, call in zip(self.grids, ops[0].calls):
            if not call.ok:
                failures.append(f"{grid.key}: {call.outcome}")
                continue
            rows = list(csv.DictReader(io.StringIO(call.output)))
            if len(rows) != self.steps:
                failures.append(f"{grid.key}: {len(rows)} rows for {self.steps} steps")
                continue
            step = (grid.stop - grid.start) / (self.steps - 1)
            values = [grid.start + i * step for i in range(self.steps)]
            for row in rows:
                mix[f"{row['case']}/{row['subcase']}"] += 1
                parts.append([row["case"], row["subcase"], row["n_l"], row["n_u"],
                              [rounded_strategy(s) for s in row["equilibria"].split(";")]])
            for i in self.rng.sample(range(self.steps), min(self.sample, self.steps)):
                expected = direct_row(grid, values[i])
                got = [rows[i][k] for k in ("case", "subcase", "n_l", "n_u", "equilibria")]
                if got != expected:
                    failures.append(f"{grid.key} row {i}: {got} != direct {expected}")
            gaps += [one_minus_r1(grid.point(v)[0]) for v in values[::max(1, self.steps // 100)]]
        properties = {"case_subcase_mix": dict(sorted(mix.items())),
                      "one_minus_r1_range": span(gaps),
                      "balance_levels": {}, "balance_solves_raised": levels.count(None)}
        return Check(failures, parts, properties)


def direct_row(grid: Grid, value: float) -> list[str]:
    """A sweep row's classification computed by the library, unverified."""
    params, rc = grid.point(value)
    model = validate_params(params, rc)
    spec = spectral_quantities(model)
    report = compute_equilibria(model, spec, benefit_coefficients(model, spec, rc), rc,
                                verify=False)

    def level(v) -> str:
        return "" if report.bounds is None else ("inf" if math.isinf(v) else str(v))

    if report.equilibria[0].strategy is None:
        listed = "family"
    else:
        listed = ";".join(format_strategy(i.strategy) for i in report.equilibria)
    return [report.case.kind.value, report.subcase.value,
            level(getattr(report.bounds, "n_l", None)),
            level(getattr(report.bounds, "n_u", None)), listed]


class SimulateWorkload(Workload):
    """``simulate`` on the reference model, one call per strategy per op."""

    name = "simulate"
    unit = "events"
    strategies = ("threshold:3", "mixed-threshold:2:0.857", "reverse:0:0.458",
                  "vector:1,0.5,0.25")
    #: Simulation seed; fixed so the standard-error gate is deterministic.
    seed = 2011

    def __init__(self, horizon: float, replications: int, workdir: Path):
        self.horizon = horizon
        self.replications = replications
        self.out = workdir / "simulate.json"
        self.config = write_config(workdir / "simulate.json.cfg", REFERENCE, 0.72)
        self.items = [self.strategies]

    def _argv(self, strategy: str, horizon: float) -> list[str]:
        return ["simulate", "--config", self.config, "--strategy", strategy,
                "--horizon", repr(horizon), "--replications", str(self.replications),
                "--seed", str(self.seed), "--format", "json"]

    def warmup(self) -> None:
        for strategy in self.strategies:
            self.cli(self._argv(strategy, self.horizon / 100))

    def run(self, strategies) -> Op:
        calls = [self.cli(self._argv(s, self.horizon)) for s in strategies]
        events = sum(json.loads(c.output)["event_count"] for c in calls if c.ok)
        return Op("strategies", calls, float(events))

    def check(self, ops: list[Op], levels: list) -> Check:
        failures, parts, worst = [], [], {}
        model = validate_params(REFERENCE, RewardCost(0.72, 1.0))
        spec = spectral_quantities(model)
        for strategy, call in zip(self.strategies, ops[0].calls):
            if not call.ok:
                failures.append(f"{strategy}: {call.outcome}")
                continue
            est = json.loads(call.output)
            parts.append([strategy, est["event_count"]])
            parsed = parse_strategy(strategy)
            if strategy.startswith("vector:"):
                continue
            dist = stationary_distribution(model, spec, parsed)
            z = 0.0
            for n in range(6):
                for e in (1, 2):
                    gap = abs(est["masses"][n][e - 1] - dist.pmf(n, e))
                    se = est["masses_se"][n][e - 1]
                    if gap > SIM_SE_LIMIT * se + SIM_ABS_SLACK:
                        failures.append(f"{strategy} level {n} env {e}: simulated "
                                        f"{est['masses'][n][e - 1]:.6g} vs closed form "
                                        f"{dist.pmf(n, e):.6g} (se {se:.3g})")
                    if se > 0.0:
                        z = max(z, gap / se)
            worst[strategy] = round(z, 3)
        properties = {"one_minus_r1_range": span([1.0 - spec.r1]),
                      "events_per_strategy": {p[0]: p[1] for p in parts},
                      "largest_gap_in_se": worst,
                      "balance_levels": {}, "balance_solves_raised": levels.count(None)}
        return Check(failures, parts, properties)


def build(name: str, seed: int, tiny: bool, workdir: Path, speed: SpeedLog) -> Workload:
    """Generate the named workload's inputs from ``seed``."""
    rng = random.Random(seed)
    if name == "corpus":
        workload = ModelWorkload("corpus", corpus_items(rng, 40 if tiny else 1000), workdir,
                                 every_op_must_pass=True, stationary_sample=8 if tiny else 32,
                                 rng=rng)
    elif name == "slow_clearing":
        items = ladder_items()
        workload = ModelWorkload("slow_clearing", items[:1] if tiny else items, workdir,
                                 every_op_must_pass=False, stationary_sample=0, rng=rng)
        # The ladder's verifying models take about 3-6 s of a 40-45 s pass;
        # five runs each give their op times a middle mean of three. With
        # three runs, ten-seed sets spread 0.15-0.22 in op_p50_ms.
        workload.min_runs = 5
    elif name == "sweep":
        # 2,001 points a grid: a 20,001-point call takes seconds, so a run
        # held one or two of them and its median moved by a quarter.
        workload = SweepWorkload(rng, 201 if tiny else 2001, workdir, sample=16 if tiny else 64)
    elif name == "simulate":
        workload = SimulateWorkload(1200.0 if tiny else 6000.0, 8, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.speed = speed
    return workload
