"""Command-line front end: exit codes, formats, round-trips."""

import csv
import json

import pytest

from clearbalk import (
    PureThreshold,
    compute_equilibria,
    dominant_almost_unobservable,
    dominant_fully_observable,
    dominant_fully_unobservable,
    report_from_dict,
    stationary_distribution,
)
from clearbalk.cli import dominant_from_dict, main
from clearbalk.equilibrium import SCAN_LIMIT
from clearbalk.oracle.verify import verification_from_dict
from conftest import Ctx, PSTAR
from clearbalk import RewardCost

BASE_CONFIG = {
    "lambda1": 2.0, "lambda2": 1.0, "mu1": 1.0, "mu2": 3.0,
    "q12": 1.0, "q21": 2.0, "R": 0.72, "C": 1.0,
}

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
    assert dominant_from_dict(data) == dominant_fully_unobservable(ctx.model, ctx.rc)


@pytest.mark.parametrize("level", ["au", "fo"])
@pytest.mark.parametrize("reward", [0.6, 0.75, 0.5])
def test_analyze_au_fo_json_round_trip(config, capsys, level, reward):
    # R/C = 0.75 = E[S_1] and 0.5 = E[S_2] leave that coordinate free (None)
    assert main(["analyze", "--config", config(R=reward), "--info-level", level,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = Ctx(PSTAR, RewardCost(reward, 1.0))
    runner = {"au": dominant_almost_unobservable, "fo": dominant_fully_observable}[level]
    want = runner(ctx.model, ctx.rc)
    assert (None in want.join) == (reward != 0.6)
    assert dominant_from_dict(data) == want


def test_analyze_au_table(config, capsys):
    assert main(["analyze", "--config", config(R=0.6), "--info-level", "au"]) == 0
    out = capsys.readouterr().out
    assert "decision env 1  balk (q=0)" in out
    assert "decision env 2  join (q=1)" in out


def test_analyze_ao_json_round_trip(config, capsys):
    assert main(["analyze", "--config", config(), "--info-level", "ao",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    want = compute_equilibria(ctx.model, ctx.spec, ctx.coef, ctx.rc)
    assert report_from_dict(data) == want


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
    report = verification_from_dict(wire)
    assert report.to_dict() == wire
    assert verification_from_dict(json.loads(json.dumps(report.to_dict()))) == report


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


# consistent model whose upper bound n_u lies past the search cap
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
    path = config(**PAST_CAP_CONFIG)
    assert main(command[:1] + ["--config", path] + command[1:]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "ScanLimitExceeded" in err
    assert f"upper-threshold bound lies above the search cap {SCAN_LIMIT}" in err


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


def test_stationary_join_vector_uses_oracle(config, capsys):
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


def test_benefit_rejects_join_vector(config, capsys):
    assert main(["benefit", "--config", config(), "--strategy", "vector:1,0.5"]) == 2
    assert "simulate" in capsys.readouterr().err


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


def test_simulate_table_shows_reference(config, capsys):
    assert main(["simulate", "--config", config(), "--strategy", "always-balk",
                 "--horizon", "200", "--replications", "2",
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "ref env1" in out
    assert "0.666666666667" in out
    assert "events:" in out


def test_simulate_csv_rejected(config, capsys):
    assert main(["simulate", "--config", config(), "--strategy", "always-join",
                 "--horizon", "100", "--format", "csv"]) == 2
    assert "csv" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--horizon", "nan"), ("--horizon", "inf"),
    ("--horizon", "0"), ("--seed", "-1"), ("--replications", "0"),
])
def test_simulate_rejects_bad_arguments(config, capsys, flag, value):
    argv = ["simulate", "--config", config(), "--strategy", "always-join",
            "--horizon", "100", "--replications", "2"]
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


def test_analyze_csv_rejected(config, capsys):
    assert main(["analyze", "--config", config(), "--info-level", "fu",
                 "--format", "csv"]) == 2
    assert main(["equilibrium", "--config", config(), "--format", "csv"]) == 2
    capsys.readouterr()


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
    assert main(["sweep", "--config", config(), "--param", "R",
                 "--from", "0.6", "--to", "0.8", "--steps", "1"]) == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("mutation,needle", [
    (dict(drop="q21"), "q21"),
    (dict(bogus=1.0), "bogus"),
    (dict(mu1="fast"), "mu1"),
    (dict(mu1=-1.0), "mu1"),
    (dict(R=0.0), "reward"),
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


def test_config_not_found(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", "--config", missing, "--info-level", "fu"]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_strategy_descriptor(config, capsys):
    assert main(["stationary", "--config", config(),
                 "--strategy", "threshold:-2"]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert main(["stationary", "--config", config(),
                 "--strategy", "sometimes"]) == 2
    assert "unknown strategy" in capsys.readouterr().err


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
    # R = 519 puts n_u past the search cap; 519.5 and 520 are subcase III
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


def test_sweep_rejects_a_nonpositive_rate_as_input(config, capsys):
    assert main(["sweep", "--config", config(), "--param", "mu1",
                 "--from", "-1", "--to", "1", "--steps", "3"]) == 2
    assert "mu1" in capsys.readouterr().err
