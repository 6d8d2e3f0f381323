"""Equilibrium enumeration: worked instances, subcases, serialization."""

import json
import math

import numpy as np
import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    BenefitCoefficients,
    CaseKind,
    ModelParams,
    MixedThreshold,
    NoInteriorRoot,
    Orientation,
    PureThreshold,
    ReverseThreshold,
    RewardCost,
    ScanLimitExceeded,
    Subcase,
    ThresholdBounds,
    bounds_from_dict,
    compute_equilibria,
    f_eval,
    g_eval,
    h_upper_limit,
    mixing_probability,
    report_from_dict,
    solve_truncated_balance,
    threshold_bounds,
    validate_params,
)
from clearbalk.equilibrium import SCAN_LIMIT, _SignTester
from conftest import P0, PB, UNIT_RC, Ctx, case_a_model


def _report(ctx: Ctx, **kw):
    return compute_equilibria(ctx.model, ctx.spec, ctx.coef, ctx.rc, **kw)


def test_worked_case_a_instance(pstar):
    report = _report(pstar)
    assert report.case.kind is CaseKind.CASE_A
    assert report.case.product < 0.0
    assert report.subcase is Subcase.II
    b = report.bounds
    assert (b.n_l, b.n_u, b.n_l_plus, b.n_u_minus) == (2, 3, 2, 3)
    assert b.orientation is Orientation.THRESHOLD
    assert not report.knife_edge

    pures = sorted(i.strategy.n0 for i in report.equilibria if i.tag == "pure")
    assert pures == [2, 3]
    mixed = [i.strategy for i in report.equilibria if i.tag == "mixed"]
    assert len(mixed) == 1
    assert mixed[0].n0 == 2
    assert mixed[0].theta == pytest.approx(6.0 / 7.0, abs=1e-6)
    assert abs(f_eval(pstar.coef, 2, mixed[0].theta)) < 1e-10

    assert report.social_optimum == PureThreshold(3)
    assert not report.social_coincides
    for item in report.equilibria:
        assert item.verification is not None and item.verification.passed


@pytest.mark.parametrize("pstar_r,subcase,strategy", [
    (0.6, Subcase.I, AlwaysBalk()),
    (0.8, Subcase.III, AlwaysJoin()),
], indirect=["pstar_r"])
def test_case_a_degenerate_subcases(pstar_r, subcase, strategy):
    report = _report(pstar_r)
    assert report.subcase is subcase
    assert [i.strategy for i in report.equilibria] == [strategy]
    assert report.social_optimum is None
    assert report.social_coincides
    if subcase is Subcase.III:
        assert math.isinf(report.bounds.n_u)


def test_case_b_mixed_reverse(pb):
    report = _report(pb)
    assert report.case.kind is CaseKind.CASE_B
    assert report.bounds.orientation is Orientation.REVERSE
    assert report.subcase is Subcase.II
    assert len(report.equilibria) == 1
    item = report.equilibria[0]
    assert item.tag == "reverse"
    assert isinstance(item.strategy, ReverseThreshold)
    assert item.strategy.n0 == 0
    assert item.strategy.theta == pytest.approx(11.0 / 24.0, abs=1e-6)
    assert item.verification.passed


def test_case_b_pure_sides():
    low = _report(Ctx(PB, RewardCost(0.46, 1.0)))
    assert low.subcase is Subcase.II
    assert [i.strategy for i in low.equilibria] == [AlwaysBalk()]
    high = _report(Ctx(PB, RewardCost(0.49, 1.0)))
    assert high.subcase is Subcase.I
    assert [i.strategy for i in high.equilibria] == [AlwaysJoin()]


def test_case_c_signs():
    balk = _report(Ctx(P0, RewardCost(0.72, 1.0)))
    assert balk.case.kind is CaseKind.CASE_C
    assert balk.subcase is Subcase.I
    assert [i.strategy for i in balk.equilibria] == [AlwaysBalk()]
    join = _report(Ctx(P0, RewardCost(1.5, 1.0)))
    assert join.subcase is Subcase.III
    assert [i.strategy for i in join.equilibria] == [AlwaysJoin()]


def test_case_c_knife_edge_family():
    report = _report(Ctx(P0, RewardCost(1.0, 1.0)))
    assert report.subcase is Subcase.II
    assert report.knife_edge
    assert len(report.equilibria) == 1
    item = report.equilibria[0]
    assert item.strategy is None
    assert item.tag == "family"
    assert "every threshold" in item.note


def test_mixing_probability_golden(pstar):
    theta = mixing_probability(pstar.coef, 2)
    assert theta == pytest.approx(6.0 / 7.0, rel=1e-12)
    assert abs(f_eval(pstar.coef, 2, theta)) < 1e-12


@pytest.mark.parametrize("n0", [0, 1, 3, 5])
def test_mixing_probability_outside_window(pstar, n0):
    with pytest.raises(NoInteriorRoot):
        mixing_probability(pstar.coef, n0)


def test_scan_limit_guard():
    # internally inconsistent coefficients: F(n,1) > 0 for every n while
    # the analytic limit reports negative, so n_u is never found
    coef = BenefitCoefficients(
        a=2.0, b=0.0, d=1.0, e=0.1, alpha=0.5, beta=0.1,
        r1=0.9, r2=0.5, z1=-1.0 / 9.0, z2=-1.0, log_ratio=math.log(5.0 / 9.0),
        reward=1.0, cost=1.0,
        arrival_r1=(1.0, 1.0), arrival_r2=(0.05, 0.05),
    )
    with pytest.raises(ScanLimitExceeded):
        threshold_bounds(coef, Orientation.THRESHOLD)


@pytest.mark.parametrize("orientation, alpha, beta, a", [
    (Orientation.THRESHOLD, 0.5, 0.1, 2.0),
    (Orientation.REVERSE, -0.5, -0.1, 0.5),
])
def test_scan_limit_names_orientation(orientation, alpha, beta, a):
    # F(n,1) keeps the sign that continues the search while the analytic
    # limit has the opposite one, in either orientation
    coef = BenefitCoefficients(
        a=a, b=0.0, d=1.0, e=0.1, alpha=alpha, beta=beta,
        r1=0.9, r2=0.5, z1=-1.0 / 9.0, z2=-1.0, log_ratio=math.log(5.0 / 9.0),
        reward=1.0, cost=1.0,
        arrival_r1=(1.0, 1.0), arrival_r2=(0.05, 0.05),
    )
    message = f"upper-{orientation.value} bound lies above the search cap {SCAN_LIMIT}"
    with pytest.raises(ScanLimitExceeded, match=message):
        threshold_bounds(coef, orientation)


def _reference_bounds(coef, orientation, tolerance):
    """Reference bounds by a level-by-level scan: up to n_u, then down to n_l."""
    tester = _SignTester(coef, tolerance)
    s = 1 if orientation is Orientation.THRESHOLD else -1

    def sign(n, theta):
        return s * tester.sign_f(n, theta)

    def bounds(subcase, nl, nu, nlp, num):
        return ThresholdBounds(orientation, subcase, nl, nu, nlp, num, tester.band_hit)

    sign_at_zero = sign(0, 1.0)
    sign_limit = s * tester._sign(h_upper_limit(coef))
    if sign_at_zero < 0:
        return bounds(Subcase.I, 0, 0, 0, 0)
    if sign_limit >= 0:
        return bounds(Subcase.III, math.inf, math.inf, math.inf, math.inf)
    n_u = 0
    while sign(n_u, 1.0) >= 0:
        n_u += 1
        assert n_u <= SCAN_LIMIT
    n_l = n_u
    while n_l >= 1 and sign(n_l - 1, 0.0) <= 0:
        n_l -= 1
    n_l_plus = n_l if sign(n_l, 0.0) < 0 else n_l + 1
    n_u_minus = n_u if sign(n_u - 1, 1.0) > 0 else n_u - 1
    return bounds(Subcase.II, n_l, n_u, n_l_plus, n_u_minus)


def test_bounds_match_the_level_scan():
    # R inside the subcase II window, up to 1e-6 of its width from the
    # limit end (long ranges), or on its empty-system edge (knife edges)
    rng = np.random.default_rng(6_061_801)
    seen = {}
    for _ in range(4000):
        params = ModelParams(*np.exp(rng.uniform(-4.0, 4.0, size=6)).tolist())
        unit = Ctx(params, UNIT_RC).coef
        edge, limit = (unit.a + unit.b) / (unit.d + unit.e), unit.a / unit.d
        kind = rng.integers(0, 4)
        if kind == 0:
            reward = float(np.exp(rng.uniform(-3.0, 3.0)) * min(edge, limit))
        elif kind == 1:
            reward = edge
        else:
            reward = limit + 10.0 ** rng.uniform(-6.0, 0.0) * (edge - limit)
        coef = Ctx(params, RewardCost(reward, 1.0)).coef
        tolerance = float(10.0 ** rng.uniform(-12.0, -3.0))
        for orientation in Orientation:
            got = threshold_bounds(coef, orientation, tolerance)
            assert got == _reference_bounds(coef, orientation, tolerance)
            key = (orientation, got.subcase, got.knife_edge)
            seen[key] = seen.get(key, 0) + 1
    for orientation in Orientation:
        assert seen.get((orientation, Subcase.II, False), 0) >= 200
        assert seen.get((orientation, Subcase.II, True), 0) >= 200


def _count_sign_tests(monkeypatch):
    calls = [0]
    sign_f = _SignTester.sign_f

    def counted(self, n, theta):
        calls[0] += 1
        return sign_f(self, n, theta)

    monkeypatch.setattr(_SignTester, "sign_f", counted)
    return calls


def test_long_range_bounds_take_few_sign_tests(monkeypatch):
    params = ModelParams(lambda1=2.13e6, lambda2=6.58e7, mu1=234.0, mu2=1.14e-6,
                         q12=5.52e-4, q21=5.1e-5)
    ctx = Ctx(params, RewardCost(539.0, 1.0))
    calls = _count_sign_tests(monkeypatch)
    b = threshold_bounds(ctx.coef, Orientation.THRESHOLD)
    assert (b.subcase, b.n_l, b.n_u) == (Subcase.II, 0, 85_494)
    assert calls[0] <= 200


def test_bound_past_the_cap_raises_after_few_sign_tests(monkeypatch):
    params = ModelParams(lambda1=122138.80182365495, lambda2=55271.63639674091,
                         mu1=0.038823142603324645, mu2=0.0012200002100189568,
                         q12=0.0014219869022153516, q21=0.0006898391676283957)
    ctx = Ctx(params, RewardCost(519.3780290194833, 1.0))
    calls = _count_sign_tests(monkeypatch)
    with pytest.raises(ScanLimitExceeded):
        threshold_bounds(ctx.coef, Orientation.THRESHOLD)
    assert calls[0] <= 200


def test_report_round_trips_through_json(pstar, pb):
    for ctx in (pstar, pb):
        report = _report(ctx)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert report_from_dict(json.loads(blob)) == report


def test_family_report_round_trips():
    report = _report(Ctx(P0, RewardCost(1.0, 1.0)), verify=False)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert report_from_dict(json.loads(blob)) == report


def test_bounds_infinity_encoding():
    b = ThresholdBounds(Orientation.THRESHOLD, Subcase.III,
                        math.inf, math.inf, math.inf, math.inf, False)
    d = b.to_dict()
    assert d["n_u"] == "inf"
    assert bounds_from_dict(d) == b


def test_enum_wire_values():
    assert Orientation.THRESHOLD.value == "threshold"
    assert Orientation.REVERSE.value == "reverse"
    assert [s.value for s in Subcase] == ["I", "II", "III"]


def test_random_case_a_structure(rng):
    # when subcase II arises: contiguous pures, interior mixed roots
    seen_ii = 0
    for _ in range(12):
        model = case_a_model(rng)
        ctx = Ctx(model.params, RewardCost(1.0, 1.0))
        window_lo = (ctx.coef.a + ctx.coef.b) / (ctx.coef.d + ctx.coef.e)
        window_hi = ctx.coef.a / ctx.coef.d
        reward = float(rng.uniform(window_lo, window_hi))
        ctx = Ctx(model.params, RewardCost(reward, 1.0))
        report = _report(ctx, verify=False)
        if report.subcase is not Subcase.II:
            continue
        seen_ii += 1
        b = report.bounds
        assert 0 <= b.n_l <= b.n_u < math.inf
        assert b.n_l <= b.n_l_plus <= b.n_l + 1
        assert b.n_u - 1 <= b.n_u_minus <= b.n_u
        pures = sorted(i.strategy.n0 for i in report.equilibria if i.tag == "pure")
        assert pures == list(range(int(b.n_l), int(b.n_u) + 1))
        for item in report.equilibria:
            if item.tag == "mixed":
                theta = item.strategy.theta
                assert 0.0 < theta < 1.0
                resid = abs(f_eval(ctx.coef, item.strategy.n0, theta))
                assert resid / g_eval(ctx.coef, item.strategy.n0, 1.0) < 1e-9
        assert report.social_optimum == PureThreshold(int(b.n_u))
    assert seen_ii >= 8


def test_small_ratios_do_not_underflow():
    # r1 and r2 near 0.0042: r1**n underflows before F changes sign at 165
    params = ModelParams(lambda1=0.016743977228212244, lambda2=0.03384402744337043,
                         mu1=3.9494826976825506, mu2=8.125627823231214,
                         q12=0.016620754669195402, q21=0.0011702509971118248)
    ctx = Ctx(params, RewardCost(0.15854222038049257, 1.0))
    report = _report(ctx)
    assert report.subcase is Subcase.II
    assert [i.strategy for i in report.equilibria] == [PureThreshold(165)]
    assert report.equilibria[0].verification.passed


def _bisect_root(coef, n0):
    lo, hi = 0.0, 1.0
    f_lo = f_eval(coef, n0, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f_eval(coef, n0, mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_mixing_probability_matches_bisection():
    # independent check of the closed-form theta on wide-rate case-A models
    rng = np.random.default_rng(5_440_011)
    compared = 0
    for _ in range(400):
        rates = (10.0 ** rng.uniform(-3.0, 3.0, size=6)).tolist()
        model = validate_params(ModelParams(*rates), UNIT_RC)
        unit = Ctx(model.params, UNIT_RC)
        if unit.coef.a / unit.coef.d <= (unit.coef.a + unit.coef.b) / (unit.coef.d + unit.coef.e):
            continue
        reward = float(rng.uniform((unit.coef.a + unit.coef.b) / (unit.coef.d + unit.coef.e),
                                   unit.coef.a / unit.coef.d))
        ctx = Ctx(model.params, RewardCost(reward, 1.0))
        report = _report(ctx, verify=False)
        for item in report.equilibria:
            if item.tag != "mixed":
                continue
            n0 = item.strategy.n0
            if f_eval(ctx.coef, n0, 1.0) == 0.0 or f_eval(ctx.coef, n0, 0.0) == 0.0:
                continue
            assert item.strategy.theta == pytest.approx(_bisect_root(ctx.coef, n0), abs=1e-9)
            compared += 1
    assert compared >= 30


def _welfare_rate(model, rc, strategy):
    """Sum over e of lambda_e * sum_n j(n) p(n, e) * (R - C E[S_e]), by the balance oracle.

    For strategies that join with certainty from level 1 on, so the levels
    above 0 enter through the tail mass.
    """
    law = solve_truncated_balance(model, strategy)
    p = model.params
    total = 0.0
    for env, lam, sojourn in ((1, p.lambda1, model.mean_clearing[0]),
                              (2, p.lambda2, model.mean_clearing[1])):
        flow = lam * (strategy.join_prob(0) * law.pmf(0, env) + law.tail(1, env))
        total += flow * (rc.reward - rc.cost * sojourn)
    return total


@pytest.mark.xfail(strict=True, reason="outside case A subcase II social_coincides is "
                                       "asserted, not computed")
def test_case_b_social_coincidence_is_not_checked():
    params = ModelParams(lambda1=5.986, lambda2=0.1409, mu1=0.6026, mu2=0.1801,
                         q12=1.987, q21=1.0007)
    ctx = Ctx(params, RewardCost(2.981, 1.0))
    report = _report(ctx, verify=False)
    assert (report.case.kind, report.subcase) == (CaseKind.CASE_B, Subcase.II)
    [item] = report.equilibria
    assert item.strategy.theta == pytest.approx(0.0749, abs=1e-4)
    at_equilibrium = _welfare_rate(ctx.model, ctx.rc, item.strategy)
    assert at_equilibrium == pytest.approx(0.0024385, rel=1e-4)
    better = _welfare_rate(ctx.model, ctx.rc, ReverseThreshold(0, 0.3475))
    assert better == pytest.approx(0.0040877, rel=1e-4)
    # a coincidence claim must mean that no strategy does better
    assert not report.social_coincides or at_equilibrium >= better
