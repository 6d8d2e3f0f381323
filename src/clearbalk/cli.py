"""Batch command-line front end.

Subcommands: ``analyze`` (dominant strategies or full equilibrium set),
``equilibrium`` (alias for ``analyze --info-level ao``), ``stationary``
(distribution table under a strategy), ``benefit`` (conditional net
benefit per observed level), ``simulate`` (discrete-event estimates),
``sweep`` (equilibrium classification along a parameter grid).

All subcommands read the same JSON config (six rates plus R and C),
print a table by default or machine-readable JSON/CSV on request, and
use exit codes 0 (success), 2 (input error), 3 (internal consistency
failure, or any other package error, such as an equilibrium bound past
the search cap; the one-line message names the error class, and ``sweep``
still writes the row of each failed grid point, as ``error:<class>``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path

from .benefit import benefit_coefficients, h_upper, h_upper_limit, net_benefit_ao
from .codec import decode
from .dominant import (
    KNIFE_TOLERANCE,
    DominantStrategySet,
    Regime,
    critical_values,
    dominant_almost_unobservable,
    dominant_fully_observable,
    dominant_fully_unobservable,
)
from .equilibrium import SIGN_TOLERANCE, EquilibriumReport, compute_equilibria
from .errors import (
    ClearbalkError,
    ConsistencyError,
    NonPositiveRate,
    NonPositiveRewardCost,
    StrategyParseError,
    UnreachableState,
)
from .model import ModelParams, RewardCost, validate_params
from .oracle.balance import solve_truncated_balance
from .oracle.simulate import simulate
from .spectral import spectral_quantities, stationary_distribution
from .strategies import JoinVector, Strategy, format_strategy, parse_strategy

_CONFIG_FIELDS = ("lambda1", "lambda2", "mu1", "mu2", "q12", "q21", "R", "C")

_SWEEP_PARAMS = ("R", "C", "lambda1", "lambda2", "mu1", "mu2", "q12", "q21")


class _InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _fmt(value: float | None) -> str:
    """Float cell with 12 significant digits; 'inf' for infinities, '' for None."""
    return "" if value is None else f"{value:.12g}"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cells_text(cells: list[tuple[str, ...]], fmt: str) -> str:
    """Rows of string cells, header first, as CSV or a left-aligned table."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        return buf.getvalue()
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in cells)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str):
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise _InputError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise _InputError("config must be a JSON object")
    missing = [f for f in _CONFIG_FIELDS if f not in raw]
    if missing:
        raise _InputError("config is missing required field(s): " + ", ".join(missing))
    extra = sorted(k for k in raw if k not in _CONFIG_FIELDS)
    if extra:
        raise _InputError("config has unknown field(s): " + ", ".join(extra))
    for field in _CONFIG_FIELDS:
        value = raw[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _InputError(f"config field {field} must be a number, got {value!r}")
    params = ModelParams(lambda1=raw["lambda1"], lambda2=raw["lambda2"],
                         mu1=raw["mu1"], mu2=raw["mu2"],
                         q12=raw["q12"], q21=raw["q21"])
    rc = RewardCost(reward=raw["R"], cost=raw["C"])
    model = validate_params(params, rc)
    return model, rc


def _parse_span(text: str) -> list[int]:
    """Level span grammar: a single level 'n' or an inclusive range 'a..b'."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _InputError(f"bad level span {text!r}; expected 'n' or 'a..b'")
    if lo < 0 or hi < lo:
        raise _InputError(f"bad level span {text!r}; need 0 <= a <= b")
    return list(range(lo, hi + 1))


def _tolerance(text: str) -> float:
    """``--tolerance``: a finite float >= 0; argparse names the flag on rejection."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:   # also false for NaN
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


def _decision_text(join: float | None) -> str:
    if join is None:
        return "indifferent (any q in [0, 1])"
    return "join (q=1)" if join >= 1.0 else "balk (q=0)"


dominant_from_dict = functools.partial(decode, DominantStrategySet)


_REGIME_NAMES = {
    Regime.FULLY_UNOBSERVABLE: "fully-unobservable",
    Regime.ALMOST_UNOBSERVABLE: "almost-unobservable",
    Regime.FULLY_OBSERVABLE: "fully-observable",
}


def _dominant_table(report: DominantStrategySet) -> str:
    lines = [f"regime          {_REGIME_NAMES[report.regime]}"]
    if report.regime is Regime.FULLY_UNOBSERVABLE:
        lines.append(f"decision        {_decision_text(report.join)}")
        lines.append(f"V_fu            {_fmt(report.critical.v_fu)}")
        lines.append(f"S_fu            {_fmt(report.net_benefit)}")
    else:
        for e in (0, 1):
            lines.append(f"decision env {e + 1}  {_decision_text(report.join[e])}")
        for e in (0, 1):
            lines.append(f"S_au env {e + 1}      {_fmt(report.net_benefit[e])}")
        lines.append(f"V_au_min        {_fmt(report.critical.v_au_min)}")
        lines.append(f"V_au_max        {_fmt(report.critical.v_au_max)}")
        lines.append(f"V_fu            {_fmt(report.critical.v_fu)}")
    lines.append(f"knife_edge      {'yes' if report.knife_edge else 'no'}")
    return "\n".join(lines) + "\n"


def _equilibrium_table(report: EquilibriumReport) -> str:
    lines = [
        f"case            {report.case.kind.value} (product = {_fmt(report.case.product)})",
        f"subcase         {report.subcase.value}",
    ]
    if report.bounds is not None:
        b = report.bounds
        lines.append(f"orientation     {b.orientation.value}")
        lines.append("bounds          "
                     f"n_l={_fmt(b.n_l)} n_u={_fmt(b.n_u)} "
                     f"n_l_plus={_fmt(b.n_l_plus)} n_u_minus={_fmt(b.n_u_minus)}")
    if report.social_optimum is not None:
        lines.append(f"social_optimum  {format_strategy(report.social_optimum)}")
    lines.append(f"social_coincides {'yes' if report.social_coincides else 'no'}")
    lines.append(f"knife_edge      {'yes' if report.knife_edge else 'no'}")
    lines.append("equilibria:")
    for item in report.equilibria:
        name = format_strategy(item.strategy) if item.strategy is not None else "(family)"
        verdict = ""
        if item.verification is not None:
            verdict = "  verify=pass" if item.verification.passed else "  verify=FAIL"
        note = f"  [{item.note}]" if item.note else ""
        lines.append(f"  {name:<34} {item.tag}{verdict}{note}")
    return "\n".join(lines) + "\n"


def _emit_report(args, report, table, what: str) -> None:
    """A report as a table (the default) or as JSON; CSV is refused."""
    if args.format == "csv":
        raise _InputError(f"format csv is not supported for {what} reports")
    _emit(_json_text(report.to_dict()) if args.format == "json" else table(report), args.out)


def _run_equilibrium(args) -> int:
    model, rc = _load_config(args.config)
    tolerance = args.tolerance if args.tolerance is not None else SIGN_TOLERANCE
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, rc)
    report = compute_equilibria(model, spec, coef, rc, verify=True,
                                tolerance=tolerance)
    _emit_report(args, report, _equilibrium_table, "equilibrium")
    failed = [item for item in report.equilibria
              if item.verification is not None and not item.verification.passed]
    if failed:
        names = ", ".join(format_strategy(i.strategy) for i in failed)
        print(f"consistency failure: oracle verification rejected: {names}",
              file=sys.stderr)
        return 3
    return 0


def cmd_analyze(args) -> int:
    if args.info_level == "ao":
        return _run_equilibrium(args)
    model, rc = _load_config(args.config)
    tolerance = args.tolerance if args.tolerance is not None else KNIFE_TOLERANCE
    runner = {
        "fu": dominant_fully_unobservable,
        "au": dominant_almost_unobservable,
        "fo": dominant_fully_observable,
    }[args.info_level]
    report = runner(model, rc, tolerance)
    _emit_report(args, report, _dominant_table, "analyze")
    return 0


def _stationary_rows(model, strategy: Strategy, max_n: int):
    """(rows, tail) where rows[n] = (p(n,1), p(n,2)) and tail covers > max_n."""
    if isinstance(strategy, JoinVector):
        law = solve_truncated_balance(model, strategy)
    else:
        law = stationary_distribution(model, spectral_quantities(model), strategy)
    rows = [(law.pmf(n, 1), law.pmf(n, 2)) for n in range(max_n + 1)]
    return rows, (law.tail(max_n + 1, 1), law.tail(max_n + 1, 2))


def cmd_stationary(args) -> int:
    model, rc = _load_config(args.config)
    strategy = parse_strategy(args.strategy)
    if args.max_n < 0:
        raise _InputError(f"--max-n must be nonnegative, got {args.max_n}")
    rows, tail = _stationary_rows(model, strategy, args.max_n)
    fmt = args.format or "table"
    if fmt == "json":
        payload = {
            "strategy": format_strategy(strategy),
            "max_level": args.max_n,
            "rows": [{"n": n, "env1": r[0], "env2": r[1], "total": r[0] + r[1]}
                     for n, r in enumerate(rows)],
            "tail": {"env1": tail[0], "env2": tail[1], "total": tail[0] + tail[1]},
        }
        _emit(_json_text(payload), args.out)
        return 0
    cells = [("n", "env1", "env2", "total")]
    for n, (m1, m2) in enumerate(rows):
        cells.append((str(n), _fmt(m1), _fmt(m2), _fmt(m1 + m2)))
    cells.append(("tail", _fmt(tail[0]), _fmt(tail[1]), _fmt(tail[0] + tail[1])))
    _emit(_cells_text(cells, fmt), args.out)
    return 0


def cmd_benefit(args) -> int:
    model, rc = _load_config(args.config)
    strategy = parse_strategy(args.strategy)
    if isinstance(strategy, JoinVector):
        raise _InputError("benefit has no closed form for join vectors; "
                          "use the simulate command")
    levels = _parse_span(args.levels)
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, rc)
    rows = []
    unreachable = []
    for n in levels:
        try:
            bv = net_benefit_ao(model, coef, strategy, n)
            rows.append((n, bv.value, bv.palm[0], bv.sojourn))
        except UnreachableState:
            rows.append((n, None, None, None))
            unreachable.append(n)

    fmt = args.format or "table"
    if fmt == "json":
        payload = {
            "strategy": format_strategy(strategy),
            "rows": [{"n": n, "net_benefit": v, "palm_env1": p, "sojourn": s}
                     for n, v, p, s in rows],
        }
        _emit(_json_text(payload), args.out)
    else:
        cells = [("n", "net_benefit", "palm_env1", "sojourn")]
        for n, v, p, s in rows:
            if v is None:
                cells.append((str(n), "-", "-", "-"))
            else:
                cells.append((str(n), _fmt(v), _fmt(p), _fmt(s)))
        _emit(_cells_text(cells, fmt), args.out)
    if unreachable:
        span = ", ".join(str(n) for n in unreachable)
        print(f"warning: level(s) {span} unreachable under "
              f"{format_strategy(strategy)}; reported as '-'", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    model, rc = _load_config(args.config)
    strategy = parse_strategy(args.strategy)
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        raise _InputError(f"--horizon must be positive and finite, got {args.horizon}")
    if args.replications < 1:
        raise _InputError(f"--replications must be >= 1, got {args.replications}")
    if args.seed < 0:
        raise _InputError(f"--seed must be nonnegative, got {args.seed}")
    estimates = simulate(model, rc, strategy, horizon=args.horizon,
                         seed=args.seed, replications=args.replications)
    fmt = args.format or "json"
    if fmt == "json":
        _emit(_json_text(estimates.to_dict()), args.out)
        return 0
    if fmt == "csv":
        raise _InputError("format csv is not supported for simulate reports")

    reference = None
    if not isinstance(strategy, JoinVector):
        spec = spectral_quantities(model)
        reference = stationary_distribution(model, spec, strategy)
    cells = [("n", "sim env1", "se", "ref env1", "sim env2", "se", "ref env2")]
    shown = min(10, estimates.track_levels)
    for n in range(shown + 1):
        ref1 = _fmt(reference.pmf(n, 1)) if reference is not None else "-"
        ref2 = _fmt(reference.pmf(n, 2)) if reference is not None else "-"
        cells.append((str(n),
                      _fmt(estimates.pmf(n, 1)), _fmt(estimates.pmf_se(n, 1)), ref1,
                      _fmt(estimates.pmf(n, 2)), _fmt(estimates.pmf_se(n, 2)), ref2))
    lines = []
    s1, s2 = model.mean_clearing
    for e, ref_s in ((0, s1), (1, s2)):
        mean = estimates.sojourn_by_env[e]
        se = estimates.sojourn_by_env_se[e]
        mean_text = "-" if math.isnan(mean) else _fmt(float(mean))
        se_text = "-" if math.isnan(se) else _fmt(float(se))
        lines.append(f"sojourn env {e + 1}: sim {mean_text} (se {se_text}), "
                     f"expected {_fmt(ref_s)}")
    lines.append(f"events: {estimates.event_count}")
    _emit(_cells_text(cells, fmt) + "\n".join(lines) + "\n", args.out)
    return 0


def _sweep_row(base_params: ModelParams, base_rc: RewardCost, param: str,
               value: float, tolerance: float) -> dict:
    if param == "R":
        params, rc = base_params, RewardCost(value, base_rc.cost)
    elif param == "C":
        params, rc = base_params, RewardCost(base_rc.reward, value)
    else:
        params = dataclasses.replace(base_params, **{param: value})
        rc = base_rc
    model = validate_params(params, rc)
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, rc)
    report = compute_equilibria(model, spec, coef, rc, verify=False,
                                tolerance=tolerance)
    crit = critical_values(model)
    if report.equilibria and report.equilibria[0].strategy is None:
        listed = "family"
    else:
        listed = ";".join(format_strategy(i.strategy) for i in report.equilibria)
    bounds = {} if report.bounds is None else report.bounds.to_dict()
    return {
        "param": param,
        "value": value,
        "case": report.case.kind.value,
        "subcase": report.subcase.value,
        "n_l": bounds.get("n_l"),
        "n_u": bounds.get("n_u"),
        "equilibria": listed,
        "v_fu": crit.v_fu,
        "h_upper_0": h_upper(coef, 0),
        "h_limit": h_upper_limit(coef),
    }


def cmd_sweep(args) -> int:
    model, rc = _load_config(args.config)
    if args.steps < 2:
        raise _InputError(f"--steps must be at least 2, got {args.steps}")
    tolerance = args.tolerance if args.tolerance is not None else SIGN_TOLERANCE
    step = (args.stop - args.start) / (args.steps - 1)
    header = ("param", "value", "case", "subcase", "n_l", "n_u",
              "equilibria", "v_fu", "h_upper_0", "h_limit")
    rows, failures = [], []
    for i in range(args.steps):
        value = args.start + i * step
        try:
            rows.append(_sweep_row(model.params, rc, args.param, value, tolerance))
        except (NonPositiveRate, NonPositiveRewardCost):
            raise  # a bad rate or reward is an input error (exit 2)
        except ClearbalkError as exc:
            failures.append(exc)
            rows.append({**dict.fromkeys(header), "param": args.param,
                         "value": value, "equilibria": f"error:{type(exc).__name__}"})

    fmt = args.format or "csv"
    if fmt == "json":
        _emit(_json_text(rows), args.out)
    else:
        table = [header]
        for row in rows:
            table.append((
                row["param"], _fmt(row["value"]), row["case"] or "", row["subcase"] or "",
                "" if row["n_l"] is None else str(row["n_l"]),
                "" if row["n_u"] is None else str(row["n_u"]),
                row["equilibria"], _fmt(row["v_fu"]),
                _fmt(row["h_upper_0"]), _fmt(row["h_limit"]),
            ))
        _emit(_cells_text(table, fmt), args.out)
    if failures:
        print(f"numerical failure: {type(failures[0]).__name__}: {failures[0]} "
              f"({len(failures)} of {args.steps} grid points)", file=sys.stderr)
    return 3 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="JSON config with lambda1, lambda2, mu1, mu2, q12, q21, R, C")
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument("--format", choices=["table", "json", "csv"],
                        help="output format (default depends on the subcommand)")
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--tolerance", type=_tolerance,
                          help="override the sign-test tolerance")

    parser = argparse.ArgumentParser(
        prog="clearbalk",
        description="Equilibrium balking analysis for a clearing queue "
                    "in an alternating environment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, tolerant],
                       help="dominant strategies (fu/au/fo) or equilibrium set (ao)")
    p.add_argument("--info-level", choices=["fu", "au", "fo", "ao"], required=True,
                   help="information regime")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("equilibrium", parents=[common, tolerant],
                       help="alias for analyze --info-level ao")
    p.set_defaults(func=_run_equilibrium)

    p = sub.add_parser("stationary", parents=[common],
                       help="stationary distribution under a strategy")
    p.add_argument("--strategy", required=True, help="strategy descriptor")
    p.add_argument("--max-n", type=int, default=10, help="largest level to print")
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("benefit", parents=[common],
                       help="conditional net benefit of joining per level")
    p.add_argument("--strategy", required=True, help="strategy descriptor")
    p.add_argument("--levels", default="0..5", help="level span: 'n' or 'a..b'")
    p.set_defaults(func=cmd_benefit)

    p = sub.add_parser("simulate", parents=[common],
                       help="discrete-event simulation estimates")
    p.add_argument("--strategy", required=True, help="strategy descriptor")
    p.add_argument("--horizon", type=float, default=1e5,
                   help="simulated time per replication")
    p.add_argument("--replications", type=int, default=16)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common, tolerant],
                       help="equilibrium classification along a parameter grid")
    p.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, NonPositiveRate, NonPositiveRewardCost, StrategyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except ClearbalkError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
