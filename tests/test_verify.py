"""Best-response verifier built on the balance-equation oracle."""

import json
from dataclasses import astuple

import numpy as np
import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    MixedThreshold,
    PureThreshold,
    ModelParams,
    ReverseThreshold,
    RewardCost,
    benefit_coefficients,
    solve_truncated_balance,
    spectral_quantities,
    validate_params,
    verify_equilibrium,
)
from clearbalk.equilibrium import mixing_probability
from clearbalk.oracle import verify as oracle_verify
from clearbalk.oracle.verify import VERIFY_TOLERANCE, VerificationReport
import decimal_reference
from conftest import PB, PSTAR, Ctx


def test_equilibrium_threshold_passes(pstar):
    report = verify_equilibrium(pstar.model, pstar.rc, PureThreshold(2))
    assert report.passed
    assert report.failures() == ()
    assert [c.level for c in report.checks] == [0, 1, 2]
    assert report.strategy == "threshold:2"


def test_too_low_threshold_fails_above(pstar):
    report = verify_equilibrium(pstar.model, pstar.rc, PureThreshold(1))
    assert not report.passed
    assert [c.level for c in report.failures()] == [1]
    # at the threshold level the strategy balks but joining would pay
    record = report.failures()[0]
    assert record.join_prob == 0.0
    assert record.net_benefit > 0.0
    assert record.margin < 0.0


def test_threshold_fails_when_joining_dominates():
    model = validate_params(PSTAR, RewardCost(0.8, 1.0))
    report = verify_equilibrium(model, RewardCost(0.8, 1.0), PureThreshold(5))
    assert not report.passed
    assert [c.level for c in report.failures()] == [5]


def test_always_join_fails_outside_its_subcase(pstar):
    report = verify_equilibrium(pstar.model, pstar.rc, AlwaysJoin())
    assert not report.passed
    failing = [c.level for c in report.failures()]
    assert min(failing) == 3
    for c in report.checks:
        assert c.join_prob == 1.0
        assert c.margin == pytest.approx(c.net_benefit + report.tolerance * pstar.rc.reward,
                                         abs=1e-15)


def test_mixed_threshold_interior_margin(pstar):
    report = verify_equilibrium(pstar.model, pstar.rc, MixedThreshold(2, 6.0 / 7.0))
    assert report.passed
    interior = [c for c in report.checks if 0.0 < c.join_prob < 1.0]
    assert len(interior) == 1
    c = interior[0]
    assert c.level == 2
    band = report.tolerance * pstar.rc.reward
    assert abs(c.net_benefit) <= band
    assert c.margin == pytest.approx(band - abs(c.net_benefit), abs=1e-15)


def test_reverse_mixed_passes(pb):
    report = verify_equilibrium(pb.model, pb.rc, ReverseThreshold(0, 11.0 / 24.0))
    assert report.passed
    zero = report.checks[0]
    assert zero.level == 0
    assert abs(zero.net_benefit) <= report.tolerance
    # above the mixing level everybody joins and the benefit is positive
    for c in report.checks[1:]:
        assert c.join_prob == 1.0
        assert c.net_benefit > 0.0


def test_balk_checks_only_empty_level():
    model = validate_params(PB, RewardCost(0.46, 1.0))
    report = verify_equilibrium(model, RewardCost(0.46, 1.0), AlwaysBalk())
    assert report.passed
    assert [c.level for c in report.checks] == [0]
    c = report.checks[0]
    assert c.join_prob == 0.0
    assert c.net_benefit < 0.0
    assert c.margin == pytest.approx(report.tolerance * 0.46 - c.net_benefit, abs=1e-15)


def test_mass_floor_skips_unreachable(pstar):
    report = verify_equilibrium(pstar.model, pstar.rc, PureThreshold(2))
    assert all(c.mass >= report.mass_floor for c in report.checks)


def test_report_round_trips(pstar):
    report = verify_equilibrium(pstar.model, pstar.rc, PureThreshold(2))
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert VerificationReport.from_dict(json.loads(blob)) == report


def test_custom_tolerance_loosens_verdict(pstar, monkeypatch):
    strict = verify_equilibrium(pstar.model, pstar.rc, PureThreshold(1))
    assert not strict.passed
    monkeypatch.setattr(oracle_verify, "VERIFY_TOLERANCE", 1.0)
    loose = verify_equilibrium(pstar.model, pstar.rc, PureThreshold(1))
    assert loose.passed and loose.tolerance == 1.0


def _reference_checks(model, rc, strategy, tol, mass_floor):
    """One check per reachable level, walking pmf(n) up to the truncation level."""
    p = model.params
    lam = (p.lambda1, p.lambda2)
    mean_s = model.mean_clearing
    solution = solve_truncated_balance(model, strategy)
    checks = []
    for n in range(solution.level + 1):
        m1 = solution.pmf(n, 1)
        m2 = solution.pmf(n, 2)
        mass = m1 + m2
        if mass < mass_floor:
            continue
        w1 = lam[0] * m1
        w2 = lam[1] * m2
        sojourn = (w1 * mean_s[0] + w2 * mean_s[1]) / (w1 + w2)
        net = rc.reward - rc.cost * sojourn
        jp = strategy.join_prob(n)
        margin = tol - abs(net)
        if jp >= 1.0:
            margin = net + tol
        elif jp <= 0.0:
            margin = tol - net
        checks.append((n, mass, margin, margin >= 0.0))
    return checks


def _sojourn(model, solution, n):
    p = model.params
    w1, w2 = p.lambda1 * solution.pmf(n, 1), p.lambda2 * solution.pmf(n, 2)
    return (w1 * model.mean_clearing[0] + w2 * model.mean_clearing[1]) / (w1 + w2)


def _draw_model(rng):
    """Rates log-uniform in 0.1..10, clearing slowed down in some; no model when 1 - r1 < 1e-3."""
    lam1, lam2, q12, q21 = (10.0 ** rng.uniform(-1.0, 1.0, size=4)).tolist()
    slow = 10.0 ** rng.uniform(-3.0, 0.0) if rng.random() < 0.4 else 1.0
    mu1, mu2 = (slow * 10.0 ** rng.uniform(-1.0, 1.0, size=2)).tolist()
    params = ModelParams(lam1, lam2, mu1, mu2, q12, q21)
    model = validate_params(params, RewardCost(1.0, 1.0))
    return params, model if 1.0 - spectral_quantities(model).r1 >= 1e-3 else None


def _reference_cases(count):
    """Seeded models and strategies for the run-length verifier.

    Always-join with R inside its subcase, and always-join and reverse
    thresholds at 0 with R between the sojourns at level 2 and at the
    deepest level up to 60 with mass 1e-8 (so the verdict flips inside the
    constant-step run),
    reverse thresholds mixing at level 0 and above it, and clearing slowed
    down to 1 - r1 = 1e-3.
    """
    rng = np.random.default_rng(20261018)
    cases = []
    while len(cases) < count:
        params, model = _draw_model(rng)
        if model is None:
            continue
        kind = len(cases) % 4
        if kind < 3:
            strategy = AlwaysJoin() if kind < 2 else ReverseThreshold(0, float(rng.uniform(0.05, 1.0)))
            solution = solve_truncated_balance(model, strategy)
            near = _sojourn(model, solution, 2)
            deep = max(n for n in range(2, min(solution.level, 61))
                       if solution.pmf(n, 1) + solution.pmf(n, 2) >= 1e-8)
            far = _sojourn(model, solution, deep)
            if kind > 0 and abs(far - near) < 1e-6 * near:
                continue
        else:
            strategy = ReverseThreshold(int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.0)))
            near, far = model.mean_clearing
        if kind == 0:
            reward = max(model.mean_clearing) * rng.uniform(1.0, 2.0)
        else:
            # mostly near the deep level's sojourn, so the flip lands deep in the run
            reward = far + (near - far) * rng.uniform() ** 4 - VERIFY_TOLERANCE
        rc = RewardCost(reward, 1.0)
        cases.append((validate_params(params, rc), rc, strategy))
    return cases


def test_runs_match_the_reference_walk():
    slowest, outcomes = 1.0, set()
    for model, rc, strategy in _reference_cases(200):
        report = verify_equilibrium(model, rc, strategy)
        reference = _reference_checks(model, rc, strategy, report.tolerance * rc.reward,
                                      report.mass_floor)
        assert report.passed == all(ok for _, _, _, ok in reference)
        by_level = {n: (mass, margin, ok) for n, mass, margin, ok in reference}
        covered = [n for c in report.checks for n in range(c.level, c.last_level + 1)]
        assert covered == sorted(by_level)
        failing = {n for c in report.failures() for n in range(c.level, c.last_level + 1)}
        assert failing == {n for n, (_, _, ok) in by_level.items() if not ok}
        for c in report.checks:
            span = [by_level[n] for n in range(c.level, c.last_level + 1)]
            assert c.margin == pytest.approx(min(m for _, m, _ in span), abs=1e-12)
            assert c.mass == pytest.approx(sum(m for m, _, _ in span), abs=1e-12)
            assert all(ok == c.ok for _, _, ok in span)
        assert len(report.checks) <= len(reference)
        slowest = min(slowest, 1.0 - spectral_quantities(model).r1)
        outcomes.add((type(strategy).__name__, report.passed))
    assert slowest < 2e-3
    assert outcomes == {(name, passed) for name in ("AlwaysJoin", "ReverseThreshold")
                        for passed in (True, False)}



def _threshold_cases(count):
    """Seeded pure and mixed thresholds at n0 in 3..60 for the run-length verifier.

    Below n0 everyone joins, so levels 2..n0-1 are the balance solve's
    constant-step run. In turn, R lies between the sojourns at level 2
    and at the deepest run level with mass 1e-8, so the verdict flips
    inside the run, or R is the sojourn at n0 under the strategy itself,
    where it is an equilibrium when the sojourn grows with the level.
    Clearing is slowed down to 1 - r1 = 1e-3 in some models.
    """
    rng = np.random.default_rng(20261019)
    cases = []
    while len(cases) < count:
        params, model = _draw_model(rng)
        if model is None:
            continue
        n0 = int(rng.integers(3, 61))
        strategy = (PureThreshold(n0) if len(cases) % 2 == 0
                    else MixedThreshold(n0, float(rng.uniform(0.05, 0.95))))
        solution = solve_truncated_balance(model, strategy)
        near = _sojourn(model, solution, 2)
        deep = max(n for n in range(2, n0)
                   if n == 2 or solution.pmf(n, 1) + solution.pmf(n, 2) >= 1e-8)
        far = _sojourn(model, solution, deep)
        if abs(far - near) < 1e-6 * near:
            continue
        if len(cases) % 4 < 2:
            reward = far + (near - far) * rng.uniform() ** 4 - VERIFY_TOLERANCE
        else:
            reward = _sojourn(model, solution, n0)
        rc = RewardCost(reward, 1.0)
        cases.append((validate_params(params, rc), rc, strategy))
    return cases


def test_threshold_runs_match_the_reference_walk():
    outcomes, split_runs = set(), 0
    for model, rc, strategy in _threshold_cases(200):
        report = verify_equilibrium(model, rc, strategy)
        reference = _reference_checks(model, rc, strategy, report.tolerance * rc.reward,
                                      report.mass_floor)
        assert report.passed == all(ok for _, _, _, ok in reference)
        by_level = {n: (mass, margin, ok) for n, mass, margin, ok in reference}
        covered = [n for c in report.checks for n in range(c.level, c.last_level + 1)]
        assert covered == sorted(by_level)
        failing = {n for c in report.failures() for n in range(c.level, c.last_level + 1)}
        assert failing == {n for n, (_, _, ok) in by_level.items() if not ok}
        for c in report.checks:
            span = [by_level[n] for n in range(c.level, c.last_level + 1)]
            assert c.margin == pytest.approx(min(m for _, m, _ in span), abs=1e-12)
            assert c.mass == pytest.approx(sum(m for m, _, _ in span), abs=1e-12)
            assert all(ok == c.ok for _, _, ok in span)
        assert len(report.checks) <= 6
        run = [c for c in report.checks if c.last_level > c.level]
        split_runs += len(run) == 2 and run[0].ok != run[1].ok
        outcomes.add((type(strategy).__name__, report.passed))
    assert split_runs >= 20
    assert outcomes == {(name, passed) for name in ("PureThreshold", "MixedThreshold")
                        for passed in (True, False)}


# case A, subcase II with n_l = 3,572 and n_u = 4,562, where clearing is slow
# and the rates lie ten decades apart
LARGE_R = (ModelParams(1.0122738637355755, 986018.3753659689, 4.7947527257461365e-05,
                       4352.909630747323, 1.2524648977612393e-05, 9.00207592809864e-06),
           RewardCost(13246.360403503204, 1.0))


def test_mixed_threshold_at_large_reward_verifies():
    # the a2 numerator mu2*lambda1*z1 + K cancels here: taken as written it puts
    # theta(3573) 2.8e-8 off, and the balance solve sees a net benefit of 3.2e-7
    params, rc = LARGE_R
    model = validate_params(params, rc)
    coef = benefit_coefficients(model, spectral_quantities(model), rc)
    report = verify_equilibrium(model, rc, MixedThreshold(3573, mixing_probability(coef, 3573)))
    assert report.passed


def test_mixing_probability_at_large_reward_matches_the_decimal_reference():
    params, rc = LARGE_R
    model = validate_params(params, rc)
    coef = benefit_coefficients(model, spectral_quantities(model), rc)
    want = decimal_reference.mixing_probability(astuple(params), rc.reward, rc.cost, 3573)
    assert mixing_probability(coef, 3573) == pytest.approx(float(want), rel=1e-11, abs=0.0)


def test_mixing_probability_near_zero_matches_the_decimal_reference_absolutely():
    # theta(0) is about 4e-5, the difference of two terms of about 0.093 in the
    # numerator, so the float alpha's 7.3e-15 relative error comes out 8.5e-11
    # relative; absolutely it stays near 3.4e-15
    params = ModelParams(3.66685, 1.0, 1.0, 3.0, 1.0, 2.0)
    ctx = Ctx(params, RewardCost(0.72, 1.0))
    want = decimal_reference.mixing_probability(astuple(params), 0.72, 1.0, 0)
    assert mixing_probability(ctx.coef, 0) == pytest.approx(float(want), rel=0.0, abs=1e-14)
