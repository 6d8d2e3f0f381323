"""The numpy sweep (``grid``) against the per-point scalar analysis it replaced.

``_sweep_row`` below is the per-point loop body ``clearbalk sweep`` ran
before the sweep became columns: validate, spectral, coefficients,
``compute_equilibria`` and ``critical_values`` at every grid point. The
tests run the CLI once as it is and once with ``sweep_columns`` swapped
for that loop, and require the same bytes on stdout and stderr and the
same exit code.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

from clearbalk import (
    AlwaysJoin,
    CASE_TOLERANCE,
    CaseKind,
    ClearbalkError,
    InputError,
    ModelParams,
    RewardCost,
    benefit_coefficients,
    compute_equilibria,
    congestion_case,
    critical_values,
    format_strategy,
    h_upper_limit,
    net_benefit_ao,
    spectral_quantities,
    validate_params,
)
from clearbalk import cli, equilibrium, grid
from clearbalk.grid import SWEEP_FIELDS
from conftest import P0, PB, PSTAR

PARAMS = ("R", "C", "lambda1", "lambda2", "mu1", "mu2", "q12", "q21")

# consistent model whose upper bound n_u lies past the listing cap at R = 519
PAST_CAP = ModelParams(122138.80182365495, 55271.63639674091, 0.038823142603324645,
                       0.0012200002100189568, 0.0014219869022153516, 0.0006898391676283957)

# case C with a float d of 0.0, which the large-n limit R - C*a/d divides by
CASE_C_ZERO_D = ModelParams(1.128209438100654e22, 5.615931821492883e-152,
                            1.3615158599899018e92, 1.3615158599899018e92,
                            4.855245127377703e167, 2.858000814625628e-229)


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
    at_zero = net_benefit_ao(model, coef, AlwaysJoin(), 0).value
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
        "h_upper_0": at_zero,
        # a float d of 0.0 passes in case C alone, where the benefit is h0 at every level
        "h_limit": at_zero if coef.d == 0.0 else h_upper_limit(coef),
    }


def reference_columns(params, rc, param, start, stop, steps, tolerance):
    """``sweep_columns`` as the per-point loop of ``_sweep_row``."""
    step = (stop - start) / (steps - 1)
    rows, failures = [], []
    for i in range(steps):
        value = start + i * step
        try:
            rows.append(_sweep_row(params, rc, param, value, tolerance))
        except InputError:
            raise
        except ClearbalkError as exc:
            failures.append(exc)
            rows.append({**dict.fromkeys(SWEEP_FIELDS), "param": param,
                         "value": value, "equilibria": f"error:{type(exc).__name__}"})
    return {name: [row[name] for row in rows] for name in SWEEP_FIELDS}, failures


def _config(tmp_path, params: ModelParams, reward: float, cost: float = 1.0) -> str:
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**dataclasses.asdict(params), "R": reward, "C": cost}))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_matches_reference(monkeypatch, capsys, argv):
    """Both formats of the sweep ``argv`` equal the reference's, byte for byte.

    Returns the parsed CSV rows of the sweep.
    """
    outputs = {}
    for fmt in ("csv", "json"):
        outputs[fmt] = _run(capsys, argv + ["--format", fmt])
        with monkeypatch.context() as patch:
            patch.setattr(cli, "sweep_columns", reference_columns)
            want = _run(capsys, argv + ["--format", fmt])
        assert outputs[fmt] == want, f"{fmt} differs from the per-point reference"
    return [line.split(",") for line in outputs["csv"][1].splitlines()[1:]]


def _critical_rewards(params: ModelParams) -> tuple[float, float]:
    """R at which the benefit at 0 against always-join and its large-n limit
    change sign, at C = 1."""
    model = validate_params(params, RewardCost(1.0, 1.0))
    coef = benefit_coefficients(model, spectral_quantities(model), RewardCost(1.0, 1.0))
    # the conditional sojourn at level 0
    at_zero = 1.0 - net_benefit_ao(model, coef, AlwaysJoin(), 0).value
    limit = coef.a / coef.d
    return min(at_zero, limit), max(at_zero, limit)


def _seeded_grids():
    """(param, rates, R, start, stop) for every --param, case A and case B,
    over two rate ranges."""
    rng = np.random.default_rng(8_2026)
    grids = []
    spans = ((np.exp(-4.0), np.exp(4.0)), (1e-3, 1e3))
    for (low, high), param, kind in itertools.product(
            spans, PARAMS, (CaseKind.CASE_A, CaseKind.CASE_B)):
        while True:
            rates = ModelParams(*np.exp(rng.uniform(np.log(low), np.log(high), 6)).tolist())
            if congestion_case(validate_params(rates, RewardCost(1.0, 1.0))).kind is kind:
                break
        lo, hi = _critical_rewards(rates)
        if param == "R":
            start, stop = 0.8 * lo, 1.25 * hi
            reward = hi
        else:
            # R/C somewhere from below subcase II to above it
            reward = float(np.exp(rng.uniform(np.log(0.8 * lo), np.log(1.25 * hi))))
            base = 1.0 / reward if param == "C" else getattr(rates, param)
            start, stop = base * np.exp(-1.5), base * np.exp(1.5)
            if param == "C":
                reward = 1.0
        grids.append((param, rates, reward, float(start), float(stop)))
    return grids


def test_seeded_grids_match_the_per_point_reference(tmp_path, monkeypatch, capsys):
    seen = set()
    for param, rates, reward, start, stop in _seeded_grids():
        argv = ["sweep", "--config", _config(tmp_path, rates, reward), "--param", param,
                f"--from={start!r}", f"--to={stop!r}", "--steps", "61"]
        rows = assert_matches_reference(monkeypatch, capsys, argv)
        seen.update((row[2], row[3]) for row in rows)
        seen.update(member.split(":")[0] for row in rows for member in row[6].split(";"))
    assert {("A", "I"), ("A", "II"), ("A", "III"), ("B", "I"), ("B", "II"), ("B", "III"),
            "threshold", "mixed-threshold", "reverse"} <= seen


@pytest.mark.parametrize("params, reward, param, start, stop, steps", [
    # case C: R = 1 is the critical ratio, where every strategy is an equilibrium
    (P0, 1.0, "R", 0.5, 1.5, 5),
    (P0, 1.0, "mu1", 0.5, 1.5, 5),
    # case B, crossing its mixed reverse thresholds
    (PB, 0.475, "R", 0.3, 0.7, 201),
    (PB, 0.475, "q12", 0.2, 5.0, 201),
    # the reference model over the perfbench-like reward span
    (PSTAR, 0.72, "R", 0.55, 0.85, 301),
    # a grid point past the listing cap, then subcase III
    (PAST_CAP, 519.3780290194833, "R", 519.0, 520.0, 3),
    # mu1 and rho1 across mu2 and rho2 within four CASE_TOLERANCE: the points
    # on either side of the relative band's edges, case A to C to B and back
    (PSTAR, 0.72, "mu1", 3.0 * (1.0 - 4 * CASE_TOLERANCE), 3.0 * (1.0 + 4 * CASE_TOLERANCE), 41),
    (PSTAR, 0.72, "lambda1", (1.0 - 4 * CASE_TOLERANCE) / 3.0, (1.0 + 4 * CASE_TOLERANCE) / 3.0,
     41),
    # case C whose float d is 0.0: h_limit is h0, not nan
    (CASE_C_ZERO_D, 1.0, "R", 0.5, 1.5, 3),
])
def test_named_grids_match_the_per_point_reference(tmp_path, monkeypatch, capsys, params,
                                                   reward, param, start, stop, steps):
    argv = ["sweep", "--config", _config(tmp_path, params, reward), "--param", param,
            "--from", repr(start), "--to", repr(stop), "--steps", str(steps)]
    rows = assert_matches_reference(monkeypatch, capsys, argv)
    if params is P0 and param == "R":
        assert [row[6] for row in rows] == ["always-balk", "always-balk", "family",
                                            "always-join", "always-join"]
    if params is CASE_C_ZERO_D:
        assert [row[9] for row in rows] == [row[8] for row in rows] == ["0.5", "1", "1.5"]
    if params is PB:
        assert any(row[6].startswith("reverse:0:") for row in rows)
    if params is PAST_CAP:
        assert rows[0][6] == "error:ScanLimitExceeded"
    if params is PSTAR and param in ("mu1", "lambda1"):
        assert {row[2] for row in rows} == {"A", "B", "C"}


@pytest.mark.parametrize("params, reward, param, start, stop, quantity", [
    # the discriminant overflows from lambda1 = 3.8e153 on
    (PSTAR, 0.72, "lambda1", 1e152, 1e154, "the discriminant is inf"),
    # K underflows at q12 = 1e-170 only
    (ModelParams(1e-100, 1e-100, 1e-170, 1e-170, 1.0, 1e-170), 1e170, "q12", 1e-170, 1.0,
     "K = mu1*mu2 + mu1*q21 + mu2*q12 underflows to 0.0"),
    # the mixture coefficient b1 overflows while lambda1 is subnormal, at the first point
    (ModelParams(1e-310, 1e10, 1e-3, 1.0, 1e-3, 1.0), 1.0, "lambda1", 1e-310, 1e-300,
     "the mixture coefficient b1 is inf"),
    # the r1-branch arrival mass d underflows to 0.0 at the first point only
    (ModelParams(586459035270.9109, 1.4606320045149506e-40, 7.100972772929663e-99,
                 8.546002649162509e+58, 1.255977720881509e+107, 5.0708971697664974e-259),
     0.017708381774948673, "lambda2", 1.4606320045149506e-40, 1e10,
     "the r1-branch arrival mass d underflows to 0.0"),
], ids=["discriminant-overflow", "k-underflow", "nan-coefficient", "zero-d"])
def test_points_past_the_float_range_match_the_per_point_reference(
        tmp_path, monkeypatch, capsys, params, reward, param, start, stop, quantity):
    argv = ["sweep", "--config", _config(tmp_path, params, reward), "--param", param,
            "--from", repr(start), "--to", repr(stop), "--steps", "9"]
    rows = assert_matches_reference(monkeypatch, capsys, argv)
    failed = [row[6] == "error:FloatRangeError" for row in rows]
    assert any(failed) and not all(failed)
    _, _, err = _run(capsys, argv)
    assert err.startswith(f"numerical failure: FloatRangeError: {quantity}")


def test_underflowing_weight_product_matches_the_per_point_reference(tmp_path, monkeypatch,
                                                                      capsys):
    # lambda1*q21 + lambda2*q12 and K are normal, their product is not
    path = _config(tmp_path, ModelParams(2.0, 1.0, 0.25, 1e-170, 1e-170, 1e-170), 0.72)
    code, out, _ = _run(capsys, ["analyze", "--config", path, "--info-level", "fu"])
    assert code == 0
    assert "V_fu            1.66666666667e+169" in out
    argv = ["sweep", "--config", path, "--param", "mu1", "--from", "0.25", "--to", "0.5",
            "--steps", "2"]
    assert _run(capsys, argv + ["--format", "json"])[0] == 0
    assert_matches_reference(monkeypatch, capsys, argv)


@pytest.mark.parametrize("params", [PSTAR, PB])
def test_wide_sign_bands_match_the_per_point_reference(tmp_path, monkeypatch, capsys, params):
    # with a band of 0.02 many sign tests land in it, where the strict
    # bounds and the subcase tests take their weak/strict sides
    argv = ["sweep", "--config", _config(tmp_path, params, 0.5), "--param", "R",
            "--from", "0.3", "--to", "0.9", "--steps", "301", "--tolerance", "0.02"]
    assert_matches_reference(monkeypatch, capsys, argv)


def test_a_bad_grid_value_is_the_same_input_error(tmp_path, monkeypatch, capsys):
    argv = ["sweep", "--config", _config(tmp_path, PSTAR, 0.72), "--param", "mu1",
            "--from", "-1", "--to", "1", "--steps", "5"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    monkeypatch.setattr(cli, "sweep_columns", reference_columns)
    assert _run(capsys, argv) == (code, out, err)


def test_sweep_runs_no_per_point_analysis(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("per-point analysis called during a sweep")

    for module, name in ((cli, "compute_equilibria"), (equilibrium, "compute_equilibria")):
        monkeypatch.setattr(module, name, refuse)
    argv = ["sweep", "--config", _config(tmp_path, PSTAR, 0.72), "--param", "R",
            "--from", "0.55", "--to", "0.85", "--steps", "301"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert "mixed-threshold:" in out and "threshold:3" in out


@pytest.mark.parametrize("start, stop, pure", [
    # R across the two ends of PB's mixed reverse threshold, where theta(0) is within
    # 1e-12 of 0 and of 1: at a zero band those points list the nearer pure
    (0.46938775510199376, 0.46938775510208763, "always-balk"),
    (0.4794520547944725, 0.47945205479456837, "always-join"),
])
def test_case_b_roots_rounded_onto_an_end_match_the_per_point_reference(
        tmp_path, monkeypatch, capsys, start, stop, pure):
    rounded = []   # the keys of the points listed one at a time, on their own coefficients
    cells = grid._cells

    def spy(key, coef, row):
        if coef is not None:
            rounded.append(key)
        return cells(key, coef, row)

    monkeypatch.setattr(grid, "_cells", spy)
    argv = ["sweep", "--config", _config(tmp_path, PB, 0.475), "--param", "R",
            "--from", repr(start), "--to", repr(stop), "--steps", "41", "--tolerance", "0"]
    rows = assert_matches_reference(monkeypatch, capsys, argv)
    assert rounded.count((2, 1)) >= 2   # case B, subcase II, in both formats
    assert {row[6].split(":")[0] for row in rows if row[3] == "II"} == {pure, "reverse"}
