"""Batch command-line front end.

Subcommands: ``analyze`` (dominant strategies or full equilibrium set),
``equilibrium`` (alias for ``analyze --info-level ao``), ``stationary``
(distribution table under a strategy), ``benefit`` (conditional net
benefit per observed level), ``simulate`` (discrete-event estimates),
``sweep`` (equilibrium classification along a parameter grid).
``stationary``, ``benefit`` and the reference column of the ``simulate``
table read the closed-form law of any strategy, join vectors included.

All subcommands read the same JSON config (six rates plus R and C),
print a table by default or machine-readable JSON/CSV on request, and
use exit codes 0 (success), 2 (input error: argparse reports a bad flag,
descriptor or format before any work, the handler any other ``InputError``),
3 (internal consistency failure, or any other package error, such as a bound
n_u past the listing cap; the one-line message names the error class, and
``sweep`` still writes the row of each failed grid point, as ``error:<class>``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .benefit import benefit_coefficients, net_benefit_ao
from .dominant import DominantStrategySet, Regime, dominant_strategies
from .equilibrium import EquilibriumReport, compute_equilibria
from .errors import (
    ClearbalkError,
    ConsistencyError,
    InputError,
    UnreachableState,
)
from .grid import SWEEP_FIELDS, sweep_columns
from .model import CONFIG_FIELDS, SIGN_TOLERANCE, config_inputs, validate_params
from .oracle.simulate import simulate
from .spectral import spectral_quantities, stationary_distribution
from .strategies import Strategy, format_strategy, parse_strategy

_SWEEP_FLOATS = ("value", "v_fu", "h_upper_0", "h_limit")


def _fmts(column) -> list[str]:
    """Float cells with 12 significant digits; 'inf' for infinities, '-' for NaN, '' for None."""
    return ["" if value is None else "-" if value != value else "%.12g" % value
            for value in column]


def _fmt(value: float | None) -> str:
    return _fmts((value,))[0]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cells_text(cells: list[tuple[str, ...]], fmt: str) -> str:
    """Rows of string cells, header first, as CSV or a left-aligned table. CSV quotes
    nothing: no cell holds ``,``, ``"``, ``\r`` or ``\n``, as cells are numbers, config
    field names, ``-``, ``tail``, ``family``, ``error:<class>`` and non-vector descriptors."""
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in cells)
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in cells)


def _render(args, payload, cells) -> None:
    """Write a report in ``args.format``, which ``main`` has checked.

    ``payload()`` gives the JSON value and ``cells()`` the table: rows of
    string cells, header first, written as a table or CSV, or the laid-out
    text of a report with no CSV form. Only the form being written is built.
    """
    if args.format == "json":
        text = _json_text(payload())
    else:
        text = cells()
        if not isinstance(text, str):
            text = _cells_text(text, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write report {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _load_config(path: str):
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}")
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc.strerror}")
    except ValueError as exc:   # JSONDecodeError, or an int past the digit limit
        raise InputError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    missing = [f for f in CONFIG_FIELDS if f not in raw]
    if missing:
        raise InputError("config is missing required field(s): " + ", ".join(missing))
    extra = sorted(k for k in raw if k not in CONFIG_FIELDS)
    if extra:
        raise InputError("config has unknown field(s): " + ", ".join(extra))
    params, rc = config_inputs(raw)
    return validate_params(params, rc), rc


def _flag(convert, ok, need: str):
    """An argparse ``type=``: ``convert(text)``, refused unless ``ok`` holds.

    On a refusal argparse names the flag and exits with status 2. A range
    test written as a chained comparison is false for NaN, so it refuses
    "nan" too.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    return parse


def _strategy(text: str) -> Strategy:
    try:
        return parse_strategy(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _decision_text(join: float | None) -> str:
    if join is None:
        return "indifferent (any q in [0, 1])"
    return "join (q=1)" if join >= 1.0 else "balk (q=0)"


def _labelled(rows) -> list[str]:
    """The header lines of a report: each label padded to 15 columns, then its value."""
    return [f"{label:<15} {value}" for label, value in rows]


def _dominant_table(report: DominantStrategySet) -> str:
    c = report.critical
    if report.regime is Regime.FULLY_UNOBSERVABLE:
        rows = [("decision", _decision_text(report.join)), ("V_fu", _fmt(c.v_fu)),
                ("S_fu", _fmt(report.net_benefit))]
    else:
        rows = [*((f"decision env {e}", _decision_text(j)) for e, j in enumerate(report.join, 1)),
                *((f"S_au env {e}", _fmt(v)) for e, v in enumerate(report.net_benefit, 1)),
                ("V_au_min", _fmt(c.v_au_min)), ("V_au_max", _fmt(c.v_au_max)),
                ("V_fu", _fmt(c.v_fu))]
    lines = _labelled([("regime", report.regime.name.lower().replace("_", "-")), *rows,
                       ("knife_edge", "yes" if report.knife_edge else "no")])
    return "\n".join(lines) + "\n"


def _equilibrium_table(report: EquilibriumReport) -> str:
    rows = [("case", f"{report.case.kind.value} (product = {_fmt(report.case.product)})"),
            ("subcase", report.subcase.value)]
    if report.bounds is not None:
        b = report.bounds
        rows += [("orientation", b.orientation.value),
                 ("bounds", f"n_l={_fmt(b.n_l)} n_u={_fmt(b.n_u)} "
                            f"n_l_plus={_fmt(b.n_l_plus)} n_u_minus={_fmt(b.n_u_minus)}")]
    if report.social_optimum is not None:
        rows.append(("social_optimum", format_strategy(report.social_optimum)))
    lines = _labelled([*rows, ("social_coincides", "yes" if report.social_coincides else "no"),
                       ("knife_edge", "yes" if report.knife_edge else "no")])
    lines.append("equilibria:")
    names = [format_strategy(item.strategy) if item.strategy is not None else "(family)"
             for item in report.equilibria]
    width = max([34, *map(len, names)])
    for name, item in zip(names, report.equilibria):
        verdict = ""
        if item.verification is not None:
            verdict = "  verify=pass" if item.verification.passed else "  verify=FAIL"
        note = f"  [{item.note}]" if item.note else ""
        lines.append(f"  {name:<{width}} {item.tag}{verdict}{note}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    model, rc = _load_config(args.config)
    if args.info_level != "ao":
        report = dominant_strategies(model, rc, Regime(args.info_level), args.tolerance)
        _render(args, report.to_dict, lambda: _dominant_table(report))
        return 0
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, rc)
    report = compute_equilibria(model, spec, coef, rc, verify=True, tolerance=args.tolerance)
    _render(args, report.to_dict, lambda: _equilibrium_table(report))
    failed = [item for item in report.equilibria
              if item.verification is not None and not item.verification.passed]
    if failed:
        print(f"consistency failure: oracle verification rejected: {len(failed)} of "
              f"{len(report.equilibria)} members, the first {format_strategy(failed[0].strategy)}",
              file=sys.stderr)
        return 3
    return 0


def cmd_stationary(args) -> int:
    model, rc = _load_config(args.config)
    law = stationary_distribution(model, spectral_quantities(model), args.strategy)
    rows = [(n, law.pmf(n, 1), law.pmf(n, 2)) for n in range(args.max_n + 1)]
    tail = (law.tail(args.max_n + 1, 1), law.tail(args.max_n + 1, 2))

    def payload():
        return {
            "strategy": format_strategy(args.strategy),
            "max_level": args.max_n,
            "rows": [{"n": n, "env1": m1, "env2": m2, "total": m1 + m2}
                     for n, m1, m2 in rows],
            "tail": {"env1": tail[0], "env2": tail[1], "total": tail[0] + tail[1]},
        }

    def cells():
        return [("n", "env1", "env2", "total"),
                *((str(n), _fmt(m1), _fmt(m2), _fmt(m1 + m2))
                  for n, m1, m2 in [*rows, ("tail", *tail)])]

    _render(args, payload, cells)
    return 0


def cmd_benefit(args) -> int:
    model, rc = _load_config(args.config)
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, rc)
    rows = []
    unreachable = []
    for n in range(args.levels[0], args.levels[-1] + 1):
        try:
            bv = net_benefit_ao(model, coef, args.strategy, n)
            rows.append((n, bv.value, bv.palm[0], bv.sojourn))
        except UnreachableState:
            rows.append((n, None, None, None))
            unreachable.append(n)

    def payload():
        return {
            "strategy": format_strategy(args.strategy),
            "rows": [{"n": n, "net_benefit": v, "palm_env1": p, "sojourn": s}
                     for n, v, p, s in rows],
        }

    def cells():
        return [("n", "net_benefit", "palm_env1", "sojourn"),
                *((str(n), "-", "-", "-") if v is None else (str(n), _fmt(v), _fmt(p), _fmt(s))
                  for n, v, p, s in rows)]

    _render(args, payload, cells)
    if unreachable:
        span = ", ".join(str(n) for n in unreachable)
        print(f"warning: level(s) {span} unreachable under "
              f"{format_strategy(args.strategy)}; reported as '-'", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    model, rc = _load_config(args.config)
    estimates = simulate(model, rc, args.strategy, horizon=args.horizon,
                         seed=args.seed, replications=args.replications)

    def cells():
        reference = stationary_distribution(model, spectral_quantities(model), args.strategy)
        rows = [("n", "sim env1", "se", "ref env1", "sim env2", "se", "ref env2")]
        for n in range(11):   # TRACK_LEVELS, 40, holds them all
            rows.append((str(n), *(_fmt(value) for env in (1, 2) for value in (
                estimates.pmf(n, env), estimates.pmf_se(n, env), reference.pmf(n, env)))))
        lines = []
        for e, ref_s in enumerate(model.mean_clearing):
            lines.append(f"sojourn env {e + 1}: sim {_fmt(estimates.sojourn_by_env[e])} "
                         f"(se {_fmt(estimates.sojourn_by_env_se[e])}), expected {_fmt(ref_s)}")
        lines.append(f"events: {estimates.event_count}")
        return _cells_text(rows, "table") + "\n".join(lines) + "\n"

    _render(args, estimates.to_dict, cells)
    return 0


def _sweep_cells(columns: dict[str, list]) -> list[tuple[str, ...]]:
    """The rows of string cells of the sweep ``columns``, header first, a column at a time."""
    return [SWEEP_FIELDS, *zip(*(_fmts(column) if name in _SWEEP_FLOATS
                                 else ["" if v is None else str(v) for v in column]
                                 for name, column in columns.items()))]


def cmd_sweep(args) -> int:
    model, rc = _load_config(args.config)
    columns, failures = sweep_columns(model.params, rc, args.param, args.start, args.stop,
                                      args.steps, args.tolerance)

    def payload():
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    _render(args, payload, lambda: _sweep_cells(columns))
    if failures:
        print(f"numerical failure: {type(failures[0]).__name__}: {failures[0]} "
              f"({len(failures)} of {args.steps} grid points)", file=sys.stderr)
    return 3 if failures else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``clearbalk`` parser, built on the first ``main`` call and shared by the rest.

    Sharing is safe: each call gets a fresh ``Namespace``, the handlers look up
    module-level names at call time (so a name replaced in this module is the
    one the next call runs), a string default such as ``--levels 0..5`` goes
    through its ``type=`` again on every call, and every ``set_defaults`` value
    is immutable.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="JSON config with " + ", ".join(CONFIG_FIELDS))
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument("--format", choices=["table", "json", "csv"],
                        help="output format (default depends on the subcommand)")
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--tolerance", default=SIGN_TOLERANCE,
                          type=_flag(float, lambda v: 0 <= v < math.inf, "finite and nonnegative"),
                          help="sign band as a share of R: a net benefit within tolerance*R of "
                               "zero is a knife edge (default %(default)g)")
    strategic = argparse.ArgumentParser(add_help=False)
    strategic.add_argument("--strategy", type=_strategy, required=True,
                           help="strategy descriptor")

    parser = argparse.ArgumentParser(
        prog="clearbalk",
        description="Equilibrium balking analysis for a clearing queue "
                    "in an alternating environment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, tolerant],
                       help="dominant strategies (fu/au/fo) or equilibrium set (ao)")
    p.add_argument("--info-level", choices=["fu", "au", "fo", "ao"], required=True,
                   help="information regime")
    p.set_defaults(func=cmd_analyze, formats=("table", "json"))

    p = sub.add_parser("equilibrium", parents=[common, tolerant],
                       help="alias for analyze --info-level ao")
    p.set_defaults(func=cmd_analyze, info_level="ao", formats=("table", "json"))

    p = sub.add_parser("stationary", parents=[common, strategic],
                       help="stationary distribution under a strategy")
    p.add_argument("--max-n", type=_flag(int, lambda v: v >= 0, "a nonnegative integer"),
                   default=10, help="largest level to print")
    p.set_defaults(func=cmd_stationary, formats=("table", "json", "csv"))

    p = sub.add_parser("benefit", parents=[common, strategic],
                       help="conditional net benefit of joining per level")
    p.add_argument("--levels", default="0..5", help="level span: 'n' or 'a..b'",
                   type=_flag(lambda text: [int(x) for x in text.split("..", 1)],
                              lambda span: 0 <= span[0] <= span[-1],
                              "'n' or 'a..b' with 0 <= a <= b"))
    p.set_defaults(func=cmd_benefit, formats=("table", "json", "csv"))

    p = sub.add_parser("simulate", parents=[common, strategic],
                       help="discrete-event simulation estimates")
    p.add_argument("--horizon", type=_flag(float, lambda v: 0.0 < v < math.inf,
                                           "positive and finite"),
                   default=1e5, help="simulated time per replication")
    p.add_argument("--replications", type=_flag(int, lambda v: v >= 1, "a positive integer"),
                   default=16)
    p.add_argument("--seed", type=_flag(int, lambda v: v >= 0, "a nonnegative integer"),
                   default=0, help="master RNG seed")
    p.set_defaults(func=cmd_simulate, formats=("json", "table"))

    p = sub.add_parser("sweep", parents=[common, tolerant],
                       help="equilibrium classification along a parameter grid")
    p.add_argument("--param", required=True, choices=CONFIG_FIELDS)
    finite = _flag(float, math.isfinite, "finite")
    p.add_argument("--from", dest="start", type=finite, required=True)
    p.add_argument("--to", dest="stop", type=finite, required=True)
    p.add_argument("--steps", type=_flag(int, lambda v: v >= 2, "an integer of at least 2"),
                   required=True)
    p.set_defaults(func=cmd_sweep, formats=("csv", "json", "table"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.format = args.format or args.formats[0]
    if args.format not in args.formats:
        parser.error(f"argument --format: {args.format} is not supported by {args.command}")
    try:
        return args.func(args)
    except InputError as exc:
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
