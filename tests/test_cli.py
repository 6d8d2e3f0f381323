"""Command-line front end: exit codes, formats, round-trips."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from clearbalk import (
    ConsistencyError,
    DominantStrategySet,
    EquilibriumReport,
    JoinVector,
    MixedThreshold,
    PureThreshold,
    Regime,
    SimEstimates,
    compute_equilibria,
    dominant_strategies,
    format_strategy,
    net_benefit_ao,
    stationary_distribution,
)
from clearbalk import cli
from clearbalk.cli import main
from clearbalk.equilibrium import SCAN_LIMIT
from clearbalk.oracle import verify as oracle_verify
from clearbalk.oracle.verify import MASS_FLOOR, VERIFY_TOLERANCE, VerificationReport
import decimal_reference
from conftest import Ctx, PSTAR, time_limit
from clearbalk import RewardCost

BASE_CONFIG = {
    "lambda1": 2.0, "lambda2": 1.0, "mu1": 1.0, "mu2": 3.0,
    "q12": 1.0, "q21": 2.0, "R": 0.72, "C": 1.0,
}

RATES = ("lambda1", "lambda2", "mu1", "mu2", "q12", "q21")

# r1 and r2 near 0.0042, so r1**n underflows at the levels around 165
SMALL_RATIO_CONFIG = {
    "lambda1": 0.016743977228212244, "lambda2": 0.03384402744337043,
    "mu1": 3.9494826976825506, "mu2": 8.125627823231214,
    "q12": 0.016620754669195402, "q21": 0.0011702509971118248,
    "R": 0.15854222038049257, "C": 1.0,
}


@pytest.fixture
def config(tmp_path):
    def write(name="config.json", drop=None, **overrides):
        data = dict(BASE_CONFIG)
        data.update(overrides)
        if drop:
            del data[drop]
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def test_analyze_fu_table(config, capsys):
    assert main(["analyze", "--config", config(R=0.6), "--info-level", "fu"]) == 0
    out = capsys.readouterr().out
    assert "balk (q=0)" in out
    assert "V_fu            0.7" in out
    assert "S_fu            -0.1" in out


def test_analyze_fu_json_round_trip(config, capsys):
    assert main(["analyze", "--config", config(), "--info-level", "fu",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    assert DominantStrategySet.from_dict(data) == dominant_strategies(
        ctx.model, ctx.rc, Regime.FULLY_UNOBSERVABLE)


@pytest.mark.parametrize("level", ["au", "fo"])
@pytest.mark.parametrize("reward", [0.6, 0.75, 0.5])
def test_analyze_au_fo_json_round_trip(config, capsys, level, reward):
    # R/C = 0.75 = E[S_1] and 0.5 = E[S_2] leave that coordinate free (None)
    assert main(["analyze", "--config", config(R=reward), "--info-level", level,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = Ctx(PSTAR, RewardCost(reward, 1.0))
    want = dominant_strategies(ctx.model, ctx.rc, Regime(level))
    assert (None in want.join) == (reward != 0.6)
    assert DominantStrategySet.from_dict(data) == want


def test_analyze_au_table(config, capsys):
    assert main(["analyze", "--config", config(R=0.6), "--info-level", "au"]) == 0
    out = capsys.readouterr().out
    assert "decision env 1  balk (q=0)" in out
    assert "decision env 2  join (q=1)" in out


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 30])
def test_analyze_au_table_at_a_knife_edge(config, capsys, scale):
    # R/C = E[S_1] = 6/8 on the reference rates, in any unit of money
    assert main(["analyze", "--config", config(R=0.75 * scale, C=scale),
                 "--info-level", "au"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "decision env 1  indifferent (any q in [0, 1])" in lines
    assert "decision env 2  join (q=1)" in lines
    assert "S_au env 1      0" in lines
    assert "knife_edge      yes" in lines


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e12])
def test_equilibrium_in_any_unit_of_money(config, capsys, scale):
    assert main(["equilibrium", "--config", config(R=0.72 * scale, C=scale)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "subcase         II" in lines
    assert "knife_edge      no" in lines
    members = [line.split()[0] for line in lines[lines.index("equilibria:") + 1:]]
    assert members[:2] == ["threshold:2", "threshold:3"]
    assert len(members) == 3 and members[2].startswith("mixed-threshold:2:0.857142857142")


def test_analyze_ao_json_round_trip(config, capsys):
    assert main(["analyze", "--config", config(), "--info-level", "ao",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    want = compute_equilibria(ctx.model, ctx.spec, ctx.coef, ctx.rc)
    assert EquilibriumReport.from_dict(data) == want


def test_equilibrium_alias_matches_analyze(config, capsys):
    path = config()
    assert main(["analyze", "--config", path, "--info-level", "ao",
                 "--format", "json"]) == 0
    via_analyze = capsys.readouterr().out
    assert main(["equilibrium", "--config", path, "--format", "json"]) == 0
    via_alias = capsys.readouterr().out
    assert via_alias == via_analyze


def test_equilibrium_json_keeps_integer_bounds(config, capsys):
    assert main(["equilibrium", "--config", config(), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"n_l": 2,' in out
    assert '"n_u": 3,' in out


def test_slow_clearing_equilibrium_json_lists_runs(config, capsys):
    # 1 - r1 = 1e-4: about 115k reachable levels, reported as a few runs
    path = config(mu1=1e-4, mu2=3e-4, R=2e4)
    assert main(["equilibrium", "--config", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    (item,) = data["equilibria"]
    assert item["strategy"] == "always-join"
    wire = item["verification"]
    assert wire["passed"]
    assert len(wire["checks"]) <= 4
    assert wire["checks"][-1]["last_level"] > 1e5
    report = VerificationReport.from_dict(wire)
    assert report.to_dict() == wire
    assert VerificationReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report


def test_slowest_clearing_equilibrium_verifies(config, capsys):
    # 1 - r1 = 1e-7: the oracle truncates at about 2.8e8 levels
    path = config(mu1=1e-7, mu2=3e-7, R=2e7)
    assert main(["equilibrium", "--config", path]) == 0
    out = capsys.readouterr().out
    assert re.search(r"always-join +pure +verify=pass", out)


def test_equilibrium_table(config, capsys):
    assert main(["equilibrium", "--config", config()]) == 0
    out = capsys.readouterr().out
    assert "case            A" in out
    assert "n_l=2 n_u=3" in out
    assert "social_optimum  threshold:3" in out
    assert out.count("verify=pass") == 3
    assert "mixed-threshold:2:" in out


def test_forced_misclassification_fails_verification(config, capsys):
    # a huge sign band flattens every test into the knife edge, the
    # classifier then reports always-join, and the oracle vetoes it
    code = main(["equilibrium", "--config", config(), "--tolerance", "0.05"])
    captured = capsys.readouterr()
    assert code == 3
    assert "verification rejected" in captured.err
    assert "join" in captured.out


@pytest.mark.parametrize("command", [
    ["equilibrium"],
    ["analyze", "--info-level", "fu"],
    ["sweep", "--param", "R", "--from", "0.6", "--to", "0.8", "--steps", "2"],
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "-1e-12", "tight"])
def test_tolerance_must_be_finite_and_nonnegative(config, capsys, command, value):
    with pytest.raises(SystemExit) as info:
        main(command[:1] + ["--config", config()] + command[1:] + [f"--tolerance={value}"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--tolerance" in err
    assert "finite and nonnegative" in err


def test_zero_tolerance_is_accepted(config, capsys):
    assert main(["equilibrium", "--config", config(), "--tolerance", "0"]) == 0
    assert "n_l=2 n_u=3" in capsys.readouterr().out


def test_equilibrium_table_puts_every_member_tag_at_one_offset(config, capsys):
    # a mixed threshold's full-precision theta makes its name the longest
    assert main(["equilibrium", "--config", config()]) == 0
    members = capsys.readouterr().out.split("equilibria:\n")[1].splitlines()
    found = [re.match(r"  (\S+) +(pure|mixed) ", line) for line in members]
    assert any(len(m[1]) > 34 for m in found)
    assert len({m.start(2) for m in found}) == 1


# consistent model whose upper bound n_u lies past the listing cap
PAST_CAP_CONFIG = {
    "lambda1": 122138.80182365495, "lambda2": 55271.63639674091,
    "mu1": 0.038823142603324645, "mu2": 0.0012200002100189568,
    "q12": 0.0014219869022153516, "q21": 0.0006898391676283957,
    "R": 519.3780290194833, "C": 1.0,
}


@pytest.mark.parametrize("command", [
    ["equilibrium"],
    ["sweep", "--param", "R", "--from", "519.3780290194833",
     "--to", "519.3780290194833", "--steps", "2"],
])
def test_bound_past_the_cap_exits_3_without_traceback(config, capsys, command):
    # the limit is -8.6e-12 of R: inside the default band (see below), outside 1e-12
    path = config(**PAST_CAP_CONFIG)
    assert main(command[:1] + ["--config", path] + command[1:] + ["--tolerance", "1e-12"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "ScanLimitExceeded" in err
    found = re.search(rf"upper-threshold bound n_u = (\d+) lies above {SCAN_LIMIT}, "
                      "the most pure thresholds a report lists", err)
    assert found
    # alpha = R*d - C*a is 1e-11 of its terms here, so the float crossing keeps
    # some 7 digits: n_u may lie 10 levels from the reference's 93,727,585
    crossing = decimal_reference.upper_crossing(
        [PAST_CAP_CONFIG[name] for name in RATES], PAST_CAP_CONFIG["R"],
        PAST_CAP_CONFIG["C"], 1e-12 * PAST_CAP_CONFIG["R"])
    assert abs(int(found[1]) - math.ceil(crossing)) <= 10


def test_bound_past_the_cap_is_a_knife_edge_at_the_default_band(config, capsys):
    # the limit, -8.6e-12 of R, lies within the default band of 1e-9 of R
    assert main(["equilibrium", "--config", config(**PAST_CAP_CONFIG)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "subcase         III" in lines
    assert "knife_edge      yes" in lines
    assert lines[lines.index("equilibria:") + 1:] == [
        "  always-join                        pure  verify=pass"]


def test_stationary_csv(config, capsys):
    assert main(["stationary", "--config", config(), "--strategy", "threshold:2",
                 "--max-n", "4", "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["n", "env1", "env2", "total"]
    assert len(rows) == 7
    assert float(rows[3][1]) == pytest.approx(0.22589531680440771, rel=1e-11)
    assert float(rows[4][1]) == 0.0
    assert rows[6][0] == "tail"
    assert float(rows[6][3]) == 0.0


def test_stationary_json_matches_library(config, capsys):
    assert main(["stationary", "--config", config(), "--strategy", "mixed-threshold:2:0.5",
                 "--max-n", "6", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    from clearbalk import MixedThreshold
    dist = stationary_distribution(ctx.model, ctx.spec, MixedThreshold(2, 0.5))
    assert data["strategy"] == "mixed-threshold:2:0.5"
    for row in data["rows"]:
        n = row["n"]
        assert row["env1"] == dist.pmf(n, 1)
        assert row["env2"] == dist.pmf(n, 2)
    assert data["tail"]["total"] == dist.tail(7, 1) + dist.tail(7, 2)


def test_stationary_join_vector_is_a_proper_law(config, capsys):
    assert main(["stationary", "--config", config(), "--strategy", "vector:1,0.5",
                 "--max-n", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    total = sum(r["total"] for r in data["rows"]) + data["tail"]["total"]
    assert total == pytest.approx(1.0, abs=1e-10)
    assert data["rows"][3]["total"] == pytest.approx(0.0, abs=1e-12)


def test_benefit_marks_unreachable(config, capsys):
    assert main(["benefit", "--config", config(), "--strategy", "threshold:2",
                 "--levels", "0..4"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].split() == ["n", "net_benefit", "palm_env1", "sojourn"]
    assert lines[4].split() == ["3", "-", "-", "-"]
    assert lines[5].split() == ["4", "-", "-", "-"]
    assert "unreachable" in captured.err
    assert "3, 4" in captured.err


def test_benefit_small_ratios_do_not_underflow(config, capsys):
    assert main(["benefit", "--config", config(**SMALL_RATIO_CONFIG),
                 "--strategy", "threshold:165", "--levels", "160..166"]) == 0
    captured = capsys.readouterr()
    rows = [line.split() for line in captured.out.splitlines()[1:]]
    assert [r[0] for r in rows] == [str(n) for n in range(160, 167)]
    assert float(rows[4][1]) > 0.0 > float(rows[5][1])
    assert rows[6][1:] == ["-", "-", "-"]
    assert "level(s) 166 unreachable" in captured.err


def test_benefit_json_values(config, capsys):
    assert main(["benefit", "--config", config(), "--strategy", "always-join",
                 "--levels", "0..2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["net_benefit"] == pytest.approx(0.04, abs=1e-13)
    assert data["rows"][0]["sojourn"] == pytest.approx(0.68, rel=1e-12)


def test_benefit_reads_the_join_vector_law(config, capsys):
    assert main(["benefit", "--config", config(), "--strategy", "vector:1,0.5",
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    for row in rows[:3]:
        want = net_benefit_ao(ctx.model, ctx.coef, JoinVector((1.0, 0.5)), row["n"])
        assert (row["net_benefit"], row["palm_env1"], row["sojourn"]) == (
            want.value, want.palm[0], want.sojourn)
    assert [row["net_benefit"] for row in rows[3:]] == [None] * 3
    assert "level(s) 3, 4, 5 unreachable under vector:1.0,0.5" in captured.err


def test_simulate_outputs_are_reproducible(config, tmp_path, capsys):
    path = config()
    args = ["simulate", "--config", path, "--strategy", "always-join",
            "--horizon", "500", "--replications", "2", "--seed", "42"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(first.read_text())
    assert data["seed"] == 42
    assert data["replications"] == 2


def test_simulate_json_round_trip(config, capsys):
    # one replication leaves every standard error NaN, written as null
    assert main(["simulate", "--config", config(), "--strategy", "threshold:3",
                 "--horizon", "200", "--replications", "1", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"masses_se": [\n    [\n      null,' in out
    estimates = SimEstimates.from_dict(json.loads(out))
    assert json.dumps(estimates.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n" == out


def test_simulate_table_shows_reference(config, capsys):
    assert main(["simulate", "--config", config(), "--strategy", "always-balk",
                 "--horizon", "200", "--replications", "2",
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "ref env1" in out
    assert "0.666666666667" in out
    assert "events:" in out


def test_simulate_refuses_more_events_than_the_clock_resolves(config, capsys):
    # lambda1 = 1e200 makes the mean gap between events far below the float
    # spacing of the clock at the horizon, so simulated time cannot advance;
    # the count is 6.67e199 in the long run and 1.06e199 more from the start
    # in environment 1
    with time_limit(1.0, "simulate"):
        code = main(["simulate", "--config", config(lambda1=1e200), "--strategy", "always-join",
                     "--horizon", "1", "--replications", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("numerical failure: FloatRangeError: about 7.72e+199 events to the "
                   "horizon 1, 2**53 or more: simulated time cannot advance to it\n")


def test_simulate_counts_the_events_of_the_first_visit(config, capsys):
    # about 4 events per unit time in the long run, but the path starts in
    # environment 1, whose first visit holds about 1e100 events
    path = config(lambda1=1e200, lambda2=1.0, mu1=1.0, mu2=1.0, q12=1e100, q21=1e-100)
    with time_limit(1.0, "simulate"):
        code = main(["simulate", "--config", path, "--strategy", "always-join", "--horizon", "1",
                     "--replications", "1"])
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: FloatRangeError: about 1e+100 events to the horizon 1, 2**53 or "
        "more: simulated time cannot advance to it\n")


def test_simulate_of_a_visit_past_the_int64_range_returns(config, capsys):
    # q = 1e-170 makes each visit's geometric event count saturate at
    # 2**63 - 1, where the sum of two draws wrapped and the loop never ended
    path = config(**{**dict.fromkeys(RATES, 1e-170), "mu1": 1.0, "mu2": 1.0}, R=1.0)
    with time_limit(5.0, "simulate"):
        code = main(["simulate", "--config", path, "--strategy", "always-join", "--horizon", "10",
                     "--replications", "1", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    # no arrival and no switch before the horizon: all the mass is at (0, env 1)
    assert json.loads(out)["masses"][0] == [1.0, 0.0]


def test_simulate_of_a_visit_whose_end_probability_underflows_returns(config, capsys):
    # q12/(lambda1 + mu1 + q12) = 1e-383 is below the floats, where numpy's
    # geometric draw refused a probability of 0.0
    path = config(lambda1=1.0, lambda2=1.0, mu1=1e216, mu2=1.0, q12=1e-167, q21=1e-239)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", path, "--strategy", "always-join",
                     "--horizon", "1e-212", "--replications", "1", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["event_count"] > 0


def test_rejected_family_is_one_short_line(config, capsys, monkeypatch):
    # a verifier that rejects every mixed threshold of a family of 2,115
    def reject_mixed(model, rc, strategy):
        passed = not isinstance(strategy, MixedThreshold)
        return VerificationReport(format_strategy(strategy), passed, (), VERIFY_TOLERANCE,
                                  MASS_FLOOR)

    monkeypatch.setattr(oracle_verify, "verify_equilibrium", reject_mixed)
    code = main(["equilibrium", "--config", config(lambda1=1490.0, lambda2=200.0, mu1=1.08e-4,
                                                   mu2=1.04, q12=7.25e-3, q21=2.36e-3, R=49.8)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("consistency failure: oracle verification rejected: 1057 of 2115 "
                          "members, the first mixed-threshold:")
    assert err.count("\n") == 1 and len(err.encode()) < 300


def test_large_family_verifies_with_few_checks_per_member(config, capsys):
    # case A, subcase II with n_u = 1,057: 1,058 pure and 1,057 mixed thresholds,
    # each verified by walking its first two and last few levels only
    with time_limit(10.0, "equilibrium"):
        code = main(["equilibrium", "--config", config(lambda1=1490.0, lambda2=200.0,
                                                       mu1=1.08e-4, mu2=1.04, q12=7.25e-3,
                                                       q21=2.36e-3, R=49.8),
                     "--format", "json"])
    assert code == 0
    members = json.loads(capsys.readouterr().out)["equilibria"]
    assert len(members) == 2115
    assert all(m["verification"]["passed"] for m in members)
    assert max(len(m["verification"]["checks"]) for m in members) <= 6


def test_simulate_csv_rejected(config, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", config(), "--strategy", "always-join",
              "--horizon", "100", "--format", "csv"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --format: csv" in err and "simulate" in err


@pytest.mark.parametrize("flag, value", [
    ("--horizon", "nan"), ("--horizon", "inf"),
    ("--horizon", "0"), ("--seed", "-1"), ("--replications", "0"),
])
def test_simulate_rejects_bad_arguments(config, capsys, flag, value):
    argv = ["simulate", "--config", config(), "--strategy", "always-join",
            "--horizon", "100", "--replications", "2"]
    with pytest.raises(SystemExit) as info:
        main(argv + [flag, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err
    assert "Traceback" not in err


def test_analyze_csv_rejected(config, capsys):
    for argv in (["analyze", "--config", config(), "--info-level", "fu", "--format", "csv"],
                 ["equilibrium", "--config", config(), "--format", "csv"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --format: csv" in err and argv[0] in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--info-level", "fu"],
    ["analyze", "--info-level", "ao"],
    ["equilibrium"],
    ["simulate", "--strategy", "always-join", "--horizon", "100", "--replications", "2"],
])
def test_csv_refused_where_the_report_is_not_tabular(config, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--config", config()] + argv[1:] + ["--format", "csv"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --format: csv is not supported by {argv[0]}\n")


@pytest.mark.parametrize("argv, work", [
    (["simulate", "--strategy", "always-join"], "simulate"),
    (["equilibrium"], "compute_equilibria"),
])
def test_format_refused_before_any_work(config, capsys, monkeypatch, argv, work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the format was checked")

    monkeypatch.setattr(cli, work, refuse)
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--config", config()] + argv[1:] + ["--format", "csv"])
    assert info.value.code == 2
    assert "argument --format: csv" in capsys.readouterr().err


def test_sweep_csv_subcase_transitions(config, capsys):
    assert main(["sweep", "--config", config(), "--param", "R",
                 "--from", "0.6", "--to", "0.8", "--steps", "5",
                 "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][0] == "param"
    values = [float(r[1]) for r in rows[1:]]
    assert values == pytest.approx([0.6, 0.65, 0.7, 0.75, 0.8])
    assert [r[3] for r in rows[1:]] == ["I", "I", "II", "III", "III"]


def test_sweep_json_payload(config, capsys):
    assert main(["sweep", "--config", config(), "--param", "mu2",
                 "--from", "2.0", "--to", "4.0", "--steps", "3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["value"] for row in data] == [2.0, 3.0, 4.0]
    assert all(row["param"] == "mu2" for row in data)
    assert all("v_fu" in row for row in data)


def test_sweep_needs_two_steps(config, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", config(), "--param", "R",
              "--from", "0.6", "--to", "0.8", "--steps", "1"])
    assert info.value.code == 2
    assert "argument --steps: must be an integer of at least 2, got '1'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["stationary", "--strategy", "always-join", "--max-n", "-1"], "--max-n"),
    (["benefit", "--strategy", "always-join", "--levels", "3..1"], "--levels"),
    (["benefit", "--strategy", "always-join", "--levels", "x"], "--levels"),
    (["benefit", "--strategy", "always-join", "--levels", "-1"], "--levels"),
])
def test_level_flags_are_checked_by_argparse(config, capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--config", config()] + argv[1:])
    assert info.value.code == 2
    assert f"argument {flag}: must be " in capsys.readouterr().err


def test_level_span_flag_reads_one_level_or_a_range(config, capsys):
    for levels, shown in (("2", ["2"]), ("1..3", ["1", "2", "3"])):
        assert main(["benefit", "--config", config(), "--strategy", "always-join",
                     "--levels", levels]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == shown


@pytest.mark.parametrize("mutation,needle", [
    (dict(drop="q21"), "q21"),
    (dict(bogus=1.0), "bogus"),
    (dict(mu1="fast"), "mu1"),
    (dict(mu1=-1.0), "mu1"),
    (dict(R=0.0), "reward"),
    (dict(lambda1=10 ** 400), "rate lambda1 must be strictly positive and finite"),
    (dict(R=10 ** 400), "reward must be strictly positive and finite"),
    (dict(R="high"), "reward must be a number, got 'high'"),
])
def test_config_validation(config, capsys, mutation, needle):
    path = config(**mutation)
    assert main(["analyze", "--config", path, "--info-level", "fu"]) == 2
    assert needle in capsys.readouterr().err


def test_config_not_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["analyze", "--config", str(path), "--info-level", "fu"]) == 2
    assert "JSON" in capsys.readouterr().err


def test_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["analyze", "--config", str(path), "--info-level", "fu"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config must be a JSON object\n"


def test_config_int_past_the_digit_limit(tmp_path, capsys):
    # json refuses ints of more than 4,300 digits with a plain ValueError on
    # Pythons that have the limit; the rest parse it and find it not finite
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(BASE_CONFIG).replace("2.0", "1" + "0" * 5000, 1))
    assert main(["analyze", "--config", str(path), "--info-level", "fu"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_config_not_found(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", "--config", missing, "--info-level", "fu"]) == 2
    assert "not found" in capsys.readouterr().err


def test_config_that_is_a_directory_is_an_input_error(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path), "--info-level", "fu"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read config {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("argv", [
    ["equilibrium"],
    ["sweep", "--param", "R", "--from", "0.6", "--to", "0.8", "--steps", "3"],
])
def test_out_into_a_missing_directory_is_an_input_error(config, tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.txt"
    assert main(argv[:1] + ["--config", config(), "--out", str(target)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write report {target}: No such file or directory\n"


def test_bad_strategy_descriptor(config, capsys):
    for text, reason in (("threshold:-2", "nonnegative"), ("sometimes", "unknown strategy")):
        with pytest.raises(SystemExit) as info:
            main(["stationary", "--config", config(), "--strategy", text])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --strategy: " in err and reason in err


def test_out_writes_file_and_keeps_stdout_quiet(config, tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["stationary", "--config", config(), "--strategy", "always-join",
                 "--max-n", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("n")


@pytest.mark.parametrize("argv", [
    ["stationary", "--strategy", "always-join", "--seed", "1"],
    ["benefit", "--strategy", "always-join", "--seed", "1"],
    ["stationary", "--strategy", "always-join", "--tolerance", "0.1"],
    ["simulate", "--strategy", "always-join", "--tolerance", "0.1"],
])
def test_flags_only_on_subcommands_that_read_them(config, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--config", config()] + argv[1:])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_keeps_the_grid_when_one_point_fails(config, capsys, fmt):
    # R = 519 puts n_u past the listing cap; 519.5 and 520 are subcase III
    path = config(**PAST_CAP_CONFIG)
    assert main(["sweep", "--config", path, "--param", "R", "--from", "519",
                 "--to", "520", "--steps", "3", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: ScanLimitExceeded: ")
    assert captured.err.rstrip().endswith("(1 of 3 grid points)")
    if fmt == "csv":
        rows = list(csv.reader(captured.out.splitlines()))
        assert len(rows) == 4
        assert rows[1][:2] == ["R", "519"]
        assert rows[1][6] == "error:ScanLimitExceeded"
        assert rows[1][2:6] + rows[1][7:] == [""] * 7
        assert [r[3] for r in rows[2:]] == ["III", "III"]
    else:
        data = json.loads(captured.out)
        assert [row["value"] for row in data] == [519.0, 519.5, 520.0]
        assert data[0]["equilibria"] == "error:ScanLimitExceeded"
        assert all(data[0][k] is None for k in data[0]
                   if k not in ("param", "value", "equilibria"))
        assert [row["subcase"] for row in data[1:]] == ["III", "III"]


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_sweep_span_must_be_finite(config, capsys, flag, value):
    # the = form, since argparse reads a bare -inf as an option
    span = {"--from": "0.6", "--to": "0.8", flag: value}
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", config(), "--param", "R", "--steps", "3",
              *(f"{name}={text}" for name, text in span.items())])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be finite, got '{value}'" in err


def test_sweep_rejects_a_nonpositive_rate_as_input(config, capsys):
    assert main(["sweep", "--config", config(), "--param", "mu1",
                 "--from", "-1", "--to", "1", "--steps", "3"]) == 2
    assert "mu1" in capsys.readouterr().err


def test_sweep_refuses_a_step_that_overflows(config, capsys):
    # stop - start overflows to -inf; the grid would read inf * 0 = NaN at its
    # first point, with a numpy warning, which the suite turns into an error
    assert main(["sweep", "--config", config(), "--param", "R",
                 "--from", "1e308", "--to=-1e308", "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reward must be strictly positive and finite, got -1e+308\n"


@pytest.mark.parametrize("param, start, stop, message", [
    ("R", "0.3", "-0.1", "reward must be strictly positive and finite, got -0.1"),
    ("mu1", "1e308", "-1e300", "rate mu1 must be strictly positive and finite, got -1e+300"),
])
def test_sweep_refuses_a_nonpositive_end_as_given(config, capsys, param, start, stop, message):
    # the grid's last value start + 2*step rounds away from the end given
    assert main(["sweep", "--config", config(), "--param", param,
                 f"--from={start}", f"--to={stop}", "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_clips_a_grid_value_rounded_past_an_end(config, capsys):
    # 1 + 2*((1e-300 - 1)/2) rounds to 0.0; 6*step overflows to inf, with a
    # numpy warning unless the grid ignores it
    assert main(["sweep", "--config", config(), "--param", "R", "--from", "1",
                 "--to", "1e-300", "--steps", "3", "--format", "json"]) == 0
    assert [row["value"] for row in json.loads(capsys.readouterr().out)] == [1.0, 0.5, 1e-300]
    top = 1.7976931348623157e308
    assert main(["sweep", "--config", config(), "--param", "mu1", "--from", "1",
                 "--to", repr(top), "--steps", "7", "--format", "json"]) == 3
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert rows[-1]["value"] == top
    assert [row["equilibria"] for row in rows[1:]] == ["error:FloatRangeError"] * 6
    assert captured.err.startswith("numerical failure: FloatRangeError: ")
    assert captured.err.endswith(" (6 of 7 grid points)\n")


def test_consistency_error_exits_3_with_its_prefix(config, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ConsistencyError("x")

    monkeypatch.setattr(cli, "compute_equilibria", fail)
    assert main(["equilibrium", "--config", config()]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "consistency failure: x\n"


# pairs of calls whose second leaves to its default the flag the first set, with
# argparse refusals and an input error (a sweep end that is not positive) between
# them, each followed by a good call
REUSE_CALLS = [
    ["stationary", "--strategy", "threshold:3", "--max-n", "3", "--format", "csv"],
    ["stationary", "--strategy", "threshold:3"],
    ["benefit", "--strategy", "threshold:3", "--levels", "2..3"],
    ["benefit", "--strategy", "threshold:3"],
    ["simulate", "--strategy", "threshold:3", "--format", "csv"],
    ["analyze", "--info-level", "au", "--tolerance", "0.5"],
    ["analyze", "--info-level", "au"],
    ["stationary", "--strategy", "threshold:-2"],
    ["benefit", "--strategy", "threshold:3", "--levels", "1"],
    ["sweep", "--param", "R", "--from", "-0.1", "--to", "0.8", "--steps", "5"],
    ["sweep", "--param", "R", "--from", "0.6", "--to", "0.8", "--steps", "5",
     "--tolerance", "0.02"],
    ["equilibrium"],
]


def test_a_reused_parser_leaks_nothing_from_one_call_to_the_next(config, capsys, monkeypatch):
    # the usage line of a refusal is wrapped to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    path = config()
    calls = [argv[:1] + ["--config", path] + argv[1:] for argv in REUSE_CALLS]
    parser = cli._build_parser()
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    assert cli._build_parser() is parser
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "clearbalk.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, *_ in fresh] == [0, 0, 0, 0, 2, 0, 0, 2, 0, 2, 0, 0]


@pytest.mark.parametrize("argv, name", [
    (["equilibrium"], "compute_equilibria"),
    (["stationary", "--strategy", "threshold:3"], "stationary_distribution"),
    (["sweep", "--param", "R", "--from", "0.6", "--to", "0.8", "--steps", "3"],
     "sweep_columns"),
])
def test_a_name_replaced_after_a_call_is_the_one_the_next_call_runs(config, capsys,
                                                                    monkeypatch, argv, name):
    argv = argv[:1] + ["--config", config()] + argv[1:]
    assert main(argv) == 0

    def fail(*args, **kwargs):
        raise ConsistencyError(name)

    monkeypatch.setattr(cli, name, fail)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"consistency failure: {name}\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--info-level", "fu"],
    ["equilibrium", "--format", "json"],
    ["stationary", "--strategy", "mixed-threshold:2:0.857", "--format", "csv"],
    ["benefit", "--strategy", "reverse:0:0.458", "--levels", "0..4"],
    ["simulate", "--strategy", "threshold:3", "--horizon", "200", "--replications", "2"],
    ["sweep", "--param", "R", "--from", "0.6", "--to", "0.8", "--steps", "21"],
])
def test_integer_rates_write_the_bytes_of_float_rates(tmp_path, capsys, argv):
    outputs = []
    for name, cast in (("int.json", int), ("float.json", float)):
        path = tmp_path / name
        path.write_text(json.dumps({**BASE_CONFIG, **{k: cast(BASE_CONFIG[k]) for k in RATES}}))
        outputs.append((main(argv[:1] + ["--config", str(path)] + argv[1:]),
                        capsys.readouterr()))
    assert '"lambda1": 2,' in (tmp_path / "int.json").read_text()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


# configs past the float range, and the message naming the quantity that left it
OUT_OF_RANGE = ", outside the range of normal floats"
FLOAT_RANGE_CASES = [
    ({"lambda1": 1e200}, "the discriminant is inf" + OUT_OF_RANGE),
    ({"lambda1": 10 ** 200}, "the discriminant is inf" + OUT_OF_RANGE),
    ({"lambda1": 2e160, "lambda2": 1e160}, "lambda1*lambda2 is inf" + OUT_OF_RANGE),
    (dict.fromkeys(RATES, 1e-200), "K = mu1*mu2 + mu1*q21 + mu2*q12 underflows to 0.0"),
    ({"lambda1": 2.21e-42, "lambda2": 1.49e173, "mu1": 1.46e290, "mu2": 8.38e-79,
      "q12": 1.11e281, "q21": 1.34e257}, "K = mu1*mu2 + mu1*q21 + mu2*q12 overflows to inf"),
    # a divisor of the roots or the coefficients is 0.0
    ({"lambda1": 1e-200, "lambda2": 1e-200}, "lambda1*lambda2 is 0.0" + OUT_OF_RANGE),
    ({"lambda1": 1e-100, "lambda2": 1e-100, **dict.fromkeys(RATES[2:], 1e-150)},
     "the discriminant is 0.0" + OUT_OF_RANGE),
    # normal roots, but the z2 factor |v2|/sqrt(delta), about 1/lambda1, overflows
    # for a subnormal lambda1: the float b1 is inf, where 100 and 200 digits give 0.4995
    ({"lambda1": 1e-310, "lambda2": 1e10, "mu1": 1e-3, "mu2": 1.0, "q12": 1e-3, "q21": 1.0,
      "R": 1.0}, "the mixture coefficient b1 is inf, outside the range of finite floats"),
]
FLOAT_RANGE_IDS = ["huge-lambda1", "huge-int-lambda1", "huge-lambda-product", "tiny-rates",
                   "huge-k", "tiny-lambda-product", "zero-discriminant", "nan-coefficient"]


@pytest.mark.parametrize("overrides, message", FLOAT_RANGE_CASES, ids=FLOAT_RANGE_IDS)
@pytest.mark.parametrize("argv", [
    ["analyze", "--info-level", "ao"],
    ["equilibrium"],
    ["stationary", "--strategy", "threshold:3"],
    ["benefit", "--strategy", "threshold:3"],
    ["sweep", "--param", "R", "--from", "0.6", "--to", "0.8", "--steps", "3"],
])
def test_quantities_past_the_float_range_are_named(config, capsys, overrides, message, argv):
    assert main(argv[:1] + ["--config", config(**overrides)] + argv[1:]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: FloatRangeError: {message}")
    assert err.count("\n") == 1


# arrival masses that underflow to 0.0 where a subcommand divides by them: the
# r1 branch's d (read by the large-n limit of cases A and B), d + e (read by h0)
# and a level's own (read by its Palm weights)
ZERO_D = {"lambda1": 586459035270.9109, "lambda2": 1.4606320045149506e-40,
          "mu1": 7.100972772929663e-99, "mu2": 8.546002649162509e+58,
          "q12": 1.255977720881509e+107, "q21": 5.0708971697664974e-259,
          "R": 0.017708381774948673}
ZERO_D_PLUS_E = {"lambda1": 2.3792432270161037e+203, "lambda2": 1.0697347133142987e-278,
                 "mu1": 1.00661377743046e-06, "mu2": 1.1600561116257657e-287,
                 "q12": 2.3477617057993297e+185, "q21": 2.049625519276266e-148,
                 "R": 26863.16569389952}
ZERO_LEVEL_MASS = {"lambda1": 6.025040528283326e+36, "lambda2": 8.744243035275419e-227,
                   "mu1": 1.2068188803967966e-124, "mu2": 6.892462397796713e-26,
                   "q12": 5.583559720834335e-60, "q21": 1.0776680861896632e-287,
                   "R": 5758.840729315806}


@pytest.mark.parametrize("overrides, argv, message", [
    (ZERO_D, ["equilibrium"], "the r1-branch arrival mass d underflows to 0.0"),
    (ZERO_D, ["sweep", "--param", "R", "--from", "0.0177", "--to", "0.0178", "--steps", "3"],
     "the r1-branch arrival mass d underflows to 0.0 (3 of 3 grid points)"),
    (ZERO_D_PLUS_E, ["analyze", "--info-level", "ao"],
     "the arrival mass d + e of level 0 underflows to 0.0"),
    (ZERO_LEVEL_MASS, ["benefit", "--strategy", "threshold:3"],
     "the arrival mass of level 1 underflows to 0.0"),
], ids=["zero-d", "zero-d-sweep", "zero-d-plus-e", "zero-level-mass"])
def test_arrival_masses_that_underflow_are_named(config, capsys, overrides, argv, message):
    code = main(argv[:1] + ["--config", config(**overrides)] + argv[1:])
    err = capsys.readouterr().err
    assert (code, err) == (3, f"numerical failure: FloatRangeError: {message}\n")


@pytest.mark.parametrize("overrides, message", FLOAT_RANGE_CASES, ids=FLOAT_RANGE_IDS)
def test_dominant_decisions_need_only_k_in_range(config, capsys, overrides, message):
    path = config(**overrides)
    code = main(["analyze", "--config", path, "--info-level", "fu"])
    err = capsys.readouterr().err
    if message.startswith("K"):
        assert code == 3
        assert message in err
        # the simulator reads the model too, so it stops before its first event
        assert main(["simulate", "--config", path, "--strategy", "always-join"]) == 3
        assert message in capsys.readouterr().err
    else:
        assert (code, err) == (0, "")


# lambda1*q21 + lambda2*q12 underflows (to 0.0, and to a subnormal), or
# lambda1/lambda2 and q21/q12 leave the float range; the V_fu of each model
WEIGHTS_AT_THE_FLOAT_EDGES = {
    "zero": ({**dict.fromkeys(RATES, 1e-170), "mu1": 1.0, "mu2": 1.0}, 1.0),
    "subnormal": ({"lambda1": 1e-150, "lambda2": 1e-150, "mu1": 1.0, "mu2": 2.0,
                   "q12": 1e-200, "q21": 1e-200}, 0.75),
    "extreme-ratios": ({"lambda1": 1e300, "lambda2": 1e-30, "mu1": 1.0, "mu2": 2.0,
                        "q12": 1e300, "q21": 1e-30}, 0.5),
}


@pytest.mark.parametrize("name", WEIGHTS_AT_THE_FLOAT_EDGES)
def test_weights_at_the_float_edges_give_a_finite_v_fu(config, capsys, name):
    overrides, v_fu = WEIGHTS_AT_THE_FLOAT_EDGES[name]
    path = config(R=1.0, **overrides)
    for level in ("fu", "au", "fo"):
        assert main(["analyze", "--config", path, "--info-level", level, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert (json.loads(out)["critical"]["v_fu"], err) == (v_fu, "")


def test_sweep_of_underflowing_weights_writes_a_finite_v_fu(config, capsys):
    path = config(R=1.0, **WEIGHTS_AT_THE_FLOAT_EDGES["subnormal"][0])
    argv = ["sweep", "--config", path, "--param", "R", "--from", "0.5", "--to", "1.5",
            "--steps", "3"]
    assert main(argv + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert ([row["v_fu"] for row in json.loads(out)], err) == ([0.75] * 3, "")
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert ([row["v_fu"] for row in csv.DictReader(out.splitlines())], err) == (["0.75"] * 3, "")


def _csv_reports(config, capsys, rng) -> list[str]:
    """The CSV reports of seeded ``sweep``, ``stationary`` and ``benefit`` calls."""
    family = config("family.json", **dict.fromkeys(RATES, 1.0), R=1.0)   # case C
    reverse = config("reverse.json", lambda1=1.0, lambda2=6.0, mu1=1.0, mu2=3.0, q12=1.0,
                     q21=1.0, R=0.475)   # case B
    calls = [
        ["sweep", "--config", family, "--param", "R", "--from", "0.5", "--to", "1.5",
         "--steps", "5"],
        ["sweep", "--config", config(), "--param", "R", "--from", "0.55", "--to", "0.85",
         "--steps", "301"],
        ["sweep", "--config", reverse, "--param", "R", "--from", "0.3", "--to", "0.7",
         "--steps", "201"],
        # the discriminant overflows from lambda1 = 3.8e153 on: error rows
        ["sweep", "--config", config(), "--param", "lambda1", "--from", "1e152",
         "--to", "1e154", "--steps", "9"],
    ]
    for i in range(12):
        rates = dict(zip(RATES, np.exp(rng.uniform(-4.0, 4.0, 6)).tolist()))
        path = config(f"seeded-{i}.json", **rates, R=float(np.exp(rng.uniform(-2.0, 2.0))))
        param = ("R", "C", *RATES)[rng.integers(8)]
        calls.append(["sweep", "--config", path, "--param", param,
                      "--from", repr(float(np.exp(rng.uniform(-3.0, 0.0)))),
                      "--to", repr(float(np.exp(rng.uniform(0.0, 3.0)))), "--steps", "41",
                      "--tolerance", repr(float(rng.choice([1e-9, 0.02])))])
    for strategy in ("always-join", "always-balk", "threshold:3", "mixed-threshold:2:0.857",
                     "reverse:0:0.458", "reverse:2:0.5", "vector:1,0.5,0.25"):
        for path in (config(), reverse, family):
            calls.append(["stationary", "--config", path, "--strategy", strategy,
                          "--max-n", str(rng.integers(0, 12))])
            calls.append(["benefit", "--config", path, "--strategy", strategy,
                          "--levels", "0..8"])
    reports = []
    for argv in calls:
        assert main(argv + ["--format", "csv"]) in (0, 3)
        reports.append(capsys.readouterr().out)
    return reports


def test_csv_reports_have_no_quoting_to_drop(config, capsys):
    # the CSV writer joins cells with "," unquoted: exact while no cell holds
    # ",", '"', "\r" or "\n", which csv.reader then reads back as a plain split
    seen = set()
    for text in _csv_reports(config, capsys, np.random.default_rng(31)):
        assert text.endswith("\n") and "\r" not in text and '"' not in text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [line.split(",") for line in text.splitlines()]
        assert {len(row) for row in rows} == {len(rows[0])}   # no cell holds a ","
        seen.update(member.split(":")[0] for row in rows for cell in row
                    for member in cell.split(";"))
    assert {"family", "error", "mixed-threshold", "reverse", "threshold", "-", "tail",
            ""} <= seen
