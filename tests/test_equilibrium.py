"""Equilibrium enumeration: worked instances, subcases, serialization."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    BenefitCoefficients,
    CaseKind,
    ClearbalkError,
    EquilibriumReport,
    FloatRangeError,
    ModelParams,
    MixedThreshold,
    NoInteriorRoot,
    Orientation,
    PureThreshold,
    ReverseThreshold,
    RewardCost,
    SIGN_TOLERANCE,
    ScanLimitExceeded,
    Subcase,
    ThresholdBounds,
    benefit_coefficients,
    compute_equilibria,
    congestion_case,
    f_eval,
    g_eval,
    h_upper_limit,
    mixing_probability,
    net_benefit_ao,
    solve_truncated_balance,
    spectral_quantities,
    validate_params,
)
from clearbalk.equilibrium import SCAN_LIMIT, classify, equilibrium_members
from clearbalk.model import banded_sign
from clearbalk.spectral import FLOATS, discounts, scaled_mixture
from conftest import (
    P0,
    PB,
    PSTAR,
    UNIT_RC,
    Ctx,
    case_a_model,
    case_b_model,
    case_c_model,
)


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
        z1=-1.0 / 9.0, z2=-1.0, log_ratio=math.log(5.0 / 9.0),
        reward=1.0, cost=1.0,
        arrival_r1=(1.0, 1.0), arrival_r2=(0.05, 0.05),
    )
    index, *levels, band, _, _ = classify(coef, 1, SIGN_TOLERANCE)
    with pytest.raises(ScanLimitExceeded):
        equilibrium_members(CaseKind.CASE_A, coef, index, levels, band)


@pytest.mark.parametrize("orientation, alpha, beta, a", [
    (Orientation.THRESHOLD, 0.5, 0.1, 2.0),
    (Orientation.REVERSE, -0.5, -0.1, 0.5),
])
def test_scan_limit_names_orientation(orientation, alpha, beta, a):
    # F(n,1) never crosses to the sign that marks n_u, though the analytic
    # limit has it, in either orientation
    coef = BenefitCoefficients(
        a=a, b=0.0, d=1.0, e=0.1, alpha=alpha, beta=beta,
        z1=-1.0 / 9.0, z2=-1.0, log_ratio=math.log(5.0 / 9.0),
        reward=1.0, cost=1.0,
        arrival_r1=(1.0, 1.0), arrival_r2=(0.05, 0.05),
    )
    message = (f"upper-{orientation.value} bound n_u = inf lies above {SCAN_LIMIT}, "
               "the most pure thresholds a report lists")
    # case A lists thresholds, case B (F negated) reverse thresholds
    kind, orient = ((CaseKind.CASE_A, 1) if orientation is Orientation.THRESHOLD
                    else (CaseKind.CASE_B, -1))
    index, *levels, band, _, _ = classify(coef, orient, SIGN_TOLERANCE)
    with pytest.raises(ScanLimitExceeded, match=message):
        equilibrium_members(kind, coef, index, levels, band)


@pytest.mark.parametrize("expected", [AlwaysJoin(), AlwaysBalk()])
def test_case_b_root_rounded_onto_an_end_is_the_nearer_pure(pb, expected):
    # beta = -alpha puts theta(0) at 1; the second beta puts it at 0
    c = pb.coef
    beta = (-c.alpha if expected == AlwaysJoin()
            else -c.alpha * (1.0 - c.z1) * c.z2 / ((1.0 - c.z2) * c.z1))
    coef = dataclasses.replace(c, beta=beta)
    with pytest.raises(NoInteriorRoot):
        mixing_probability(coef, 0)
    subcase, bounds, items, knife = equilibrium_members(CaseKind.CASE_B, coef, 1,
                                                        (0, 1, 0, 1), False)
    assert subcase is Subcase.II and bounds.n_u_minus == 1
    assert [(item.strategy, item.tag) for item in items] == [(expected, "reverse")]
    assert knife is True


def _reference_bounds(coef, orient, tolerance):
    """(subcase index, n_l, n_u, n_l_plus, n_u_minus, band) of ``classify`` in
    case A (``orient`` 1) or B (-1), by a level-by-level scan: up to n_u, then
    down to n_l."""
    band_hit = False

    def banded(value):
        nonlocal band_hit
        sign = banded_sign(value, tolerance)
        band_hit = band_hit or sign == 0
        return orient * sign

    def sign(n, theta):
        # F(n, theta)/G(n, 1), both divided by r1**n
        f = scaled_mixture(coef.log_ratio, coef.alpha, coef.beta, n,
                           *discounts(coef.z1, coef.z2, theta))
        g = scaled_mixture(coef.log_ratio, coef.d, coef.e, n, *discounts(coef.z1, coef.z2, 1.0))
        return banded(f / g)

    def bounds(subcase, nl, nu, nlp, num):
        return list(Subcase).index(subcase), nl, nu, nlp, num, band_hit

    sign_at_zero = sign(0, 1.0)
    sign_limit = banded(h_upper_limit(coef))
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
        for orient in (1, -1):
            index, *levels, band, _, _ = classify(coef, orient, tolerance)
            assert (index, *levels, band) == _reference_bounds(coef, orient,
                                                               tolerance * coef.reward)
            key = (orient, index, band)
            seen[key] = seen.get(key, 0) + 1
    for orient in (1, -1):   # subcase II has index 1
        assert seen.get((orient, 1, False), 0) >= 200
        assert seen.get((orient, 1, True), 0) >= 200


def _count_exp_calls(monkeypatch):
    calls = [0]
    exp = FLOATS.exp

    def counted(x):
        calls[0] += 1
        return exp(x)

    monkeypatch.setattr(FLOATS, "exp", counted)
    return calls


def _reference_model_exp_calls(calls):
    calls[0] = 0
    assert classify(Ctx(PSTAR, RewardCost(0.72, 1.0)).coef, 1, SIGN_TOLERANCE)[2] == 3   # n_u
    return calls[0]


def test_long_range_bounds_take_few_sign_tests(monkeypatch):
    params = ModelParams(lambda1=2.13e6, lambda2=6.58e7, mu1=234.0, mu2=1.14e-6,
                         q12=5.52e-4, q21=5.1e-5)
    ctx = Ctx(params, RewardCost(539.0, 1.0))
    calls = _count_exp_calls(monkeypatch)
    index, n_l, n_u, *_ = classify(ctx.coef, 1, SIGN_TOLERANCE)
    assert (index, n_l, n_u) == (1, 0, 85_494)   # subcase II
    long_range = calls[0]
    # as many evaluations as at n_u = 3: the bounds are logarithms, not searches
    assert 0 < long_range == _reference_model_exp_calls(calls)


def test_bound_past_the_cap_raises_after_few_sign_tests(monkeypatch):
    params = ModelParams(lambda1=122138.80182365495, lambda2=55271.63639674091,
                         mu1=0.038823142603324645, mu2=0.0012200002100189568,
                         q12=0.0014219869022153516, q21=0.0006898391676283957)
    ctx = Ctx(params, RewardCost(519.3780290194833, 1.0))
    calls = _count_exp_calls(monkeypatch)
    # the limit is -8.6e-12 of R: a knife edge of subcase III at the default band
    index, *levels, band, _, _ = classify(ctx.coef, 1, 1e-12)
    with pytest.raises(ScanLimitExceeded):
        equilibrium_members(CaseKind.CASE_A, ctx.coef, index, levels, band)
    past_cap = calls[0]
    # as many evaluations as at n_u = 3: the bounds are logarithms, not searches
    assert 0 < past_cap == _reference_model_exp_calls(calls)


def test_report_round_trips_through_json(pstar, pb):
    for ctx in (pstar, pb):
        report = _report(ctx)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert EquilibriumReport.from_dict(json.loads(blob)) == report


def test_family_report_round_trips():
    report = _report(Ctx(P0, RewardCost(1.0, 1.0)), verify=False)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert EquilibriumReport.from_dict(json.loads(blob)) == report


def test_bounds_infinity_encoding():
    b = ThresholdBounds(Orientation.THRESHOLD, Subcase.III,
                        math.inf, math.inf, math.inf, math.inf, False)
    d = b.to_dict()
    assert d["n_u"] == "inf"
    assert ThresholdBounds.from_dict(d) == b


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


def test_mixing_probability_is_an_indifference_point_under_slow_clearing():
    # 1 - r1 = 3.0e-12: theta from the rounded r1 and r2 left F(1, theta)/G(1, theta)
    # at -9.8e-3; the root form leaves rounding only
    params = ModelParams(lambda1=1177889.2, lambda2=2926.42, mu1=6.0576e-7,
                         mu2=0.119754, q12=2.91887e-6, q21=7.09318e-6)
    ctx = Ctx(params, RewardCost(255757.6, 1.0))
    assert 1.0 - ctx.spec.r1 < 1e-11
    for n0 in (0, 1):
        theta = mixing_probability(ctx.coef, n0)
        ratio = f_eval(ctx.coef, n0, theta) / g_eval(ctx.coef, n0, theta)
        assert abs(ratio) <= 1e-12


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


def _synthetic(h0, h_limit, **changes):
    """Coefficients with (alpha + beta)/(d + e) = h0 and R - C*a/d = h_limit."""
    return dataclasses.replace(BenefitCoefficients(
        a=1.0 - h_limit, b=0.0, d=1.0, e=0.0, alpha=h0, beta=0.0,
        z1=-1.0 / 9.0, z2=-1.0, log_ratio=math.log(5.0 / 9.0), reward=1.0, cost=1.0,
        arrival_r1=(1.0, 1.0), arrival_r2=(0.0, 0.0)), **changes)


def _columns(coefs):
    """The coefficients of many points as one BenefitCoefficients of numpy columns."""
    values = [[getattr(c, f.name) for c in coefs] for f in dataclasses.fields(BenefitCoefficients)]
    return BenefitCoefficients(*(tuple(map(np.array, zip(*v))) if isinstance(v[0], tuple)
                                 else np.array(v) for v in values))


def test_sign_rules_give_python_ints_and_the_same_on_columns():
    def rule(orient, at_zero, at_limit):
        # the subcase choice as branches, indexed I, II, III
        if orient == 0:
            return at_zero + 1
        return 0 if orient * at_zero < 0 else 2 if orient * at_limit >= 0 else 1

    # h0 and h_limit of -1, 0 and 1 give every triple of banded signs
    combos = list(itertools.product((1, -1, 0), (-1, 0, 1), (-1, 0, 1)))
    points = [(_synthetic(float(h0), float(h_limit)), orient, 1e-9)
              for orient, h0, h_limit in combos]
    assert [classify(*point)[0] for point in points] == [rule(*combo) for combo in combos]
    # models of cases A, B and C, R below, on the edges of, inside and above
    # the subcase II window, each point in every orientation
    rng = np.random.default_rng(17)
    for make in (case_a_model, case_b_model, case_c_model):
        for _ in range(60):
            model = make(rng)
            spec = spectral_quantities(model)
            unit = benefit_coefficients(model, spec, UNIT_RC)
            edge, limit = (unit.a + unit.b) / (unit.d + unit.e), unit.a / unit.d
            low, high = sorted((edge, limit))
            for reward in (0.5 * low, edge, limit, low + rng.uniform() * (high - low), 2 * high):
                coef = benefit_coefficients(model, spec, RewardCost(reward, 1.0))
                tolerance = float(10.0 ** rng.uniform(-12.0, -3.0))
                points += [(coef, orient, tolerance) for orient in (1, -1, 0)]
    # the edges where math raises and numpy does not: in subcase II, a c1
    # of 0 (division by 0), c0 of 0 (log of 0, ceil of inf), both 0 (log
    # and ceil of NaN), c0 and c1 of one sign (log of a negative number)
    # and log_ratio < -709 (exp overflows at level -1)
    edges = [_synthetic(0.5, -1.0), _synthetic(-1e-9, -1.0),
             _synthetic((0.5 - 1e-9) / 1.1, -1.0, alpha=-1e-9, beta=0.5, e=0.1),
             _synthetic(0.0, -1.0, log_ratio=-800.0)]
    points += [(coef, orient, 1e-9) for coef in edges for orient in (1, -1)]

    got = [classify(*point) for point in points]
    for subcase, *levels, band, h0, h_limit in got:
        assert type(subcase) is int and type(band) is bool
        assert all(type(value) is float for value in (h0, h_limit))
        assert all(type(level) in (int, float) for level in levels)
    coefs, orients, tolerances = zip(*points)
    with np.errstate(all="ignore"):
        columns = classify(_columns(coefs), np.array(orients), np.array(tolerances))
    for column, values in zip(columns, zip(*got)):
        np.testing.assert_array_equal(column, np.array(values, dtype=float))
    seen = {(orient, subcase, band) for (_, orient, _), (subcase, *_, band, _, _)
            in zip(points, got)}
    assert {(1, 1, False), (1, 1, True), (-1, 1, False), (-1, 1, True), (0, 1, True)} <= seen

    values = [-math.inf, -2e-9, -1e-9, 0.0, 1e-9, 2e-9, math.inf, math.nan]
    signs = [banded_sign(value, 1e-9) for value in values]
    assert signs == [-1, -1, 0, 0, 0, 1, 1, -1]
    assert all(type(sign) is int for sign in signs)
    assert banded_sign(np.array(values), 1e-9).tolist() == signs


@pytest.mark.parametrize("orient", [1, -1, 0])
def test_an_arrival_mass_of_zero_is_named(orient):
    # h0 divides by d + e in every case, and the limit by d outside case C
    with pytest.raises(FloatRangeError, match=r"^the arrival mass d \+ e of level 0 underflows"):
        classify(_synthetic(1.0, 0.0, d=0.0, e=0.0), orient, 1e-9)
    if orient:
        with pytest.raises(FloatRangeError, match="^the r1-branch arrival mass d underflows"):
            classify(_synthetic(1.0, 0.0, d=0.0, e=1.0), orient, 1e-9)


def test_case_c_classifies_where_the_limit_divides_by_zero():
    # d underflows to 0.0 in some models at the edge of the float range;
    # case C reads only h0 = (alpha + beta)/(d + e), which is also its limit,
    # since the benefit is the same at every level
    subcase, *_, band, h0, h_limit = classify(_synthetic(1.0, 0.0, d=0.0, e=1.0), 0, 1e-9)
    assert (subcase, band, h0, h_limit) == (2, False, 1.0, 1.0)


#: log(sys.float_info.max): exp overflows above it
EXP_EDGE = 709.782712893384


def _theta_pairs(rng: np.random.Generator) -> list[tuple[BenefitCoefficients, int]]:
    """Seeded (coefficients, n0) pairs: the mixed candidates and a few other levels of
    case A and B models with R across subcase II, rates log-uniform in e^+-6."""
    pairs = []
    while len(pairs) < 1850:
        rates = ModelParams(*np.exp(rng.uniform(-6.0, 6.0, 6)).tolist())
        try:
            unit = Ctx(rates, UNIT_RC)
        except ClearbalkError:
            continue
        orient = {CaseKind.CASE_A: 1, CaseKind.CASE_B: -1}.get(congestion_case(unit.model).kind)
        if orient is None:
            continue
        # the critical ratios R/C of h0 and of its large-n limit
        ends = sorted((1.0 - net_benefit_ao(unit.model, unit.coef, AlwaysJoin(), 0).value,
                       unit.coef.a / unit.coef.d))
        reward = float(np.exp(rng.uniform(np.log(0.9 * ends[0]), np.log(1.1 * ends[1]))))
        coef = Ctx(rates, RewardCost(reward, 1.0)).coef
        index, _, n_u, n_l_plus, n_u_minus, *_ = classify(coef, orient, SIGN_TOLERANCE)
        levels = {0, int(rng.integers(0, 40))}
        if index == 1 and n_u < 10 ** 4:
            levels.update(range(int(n_l_plus), min(int(n_u_minus), int(n_l_plus) + 20)))
        pairs += [(coef, n0) for n0 in sorted(levels)]
    return pairs


def _theta_edges(c: BenefitCoefficients) -> dict[str, list[tuple[BenefitCoefficients, int]]]:
    """(coefficients, n0) pairs at the float edges of ``mixing_probability``, by edge."""
    around = [1.0 - 2.0 ** -50, 1.0, 1.0 + 2.0 ** -50, 1.001, 2.0]
    small = c.beta * math.exp(-EXP_EDGE)   # beta*s about beta at the edge
    overflow = [(dataclasses.replace(c, beta=beta, log_ratio=EXP_EDGE / n0 * f), n0)
                for beta in (c.beta, small) for n0 in (1, 7, 1000) for f in around]
    overflow += [(dataclasses.replace(c, beta=small, log_ratio=float(x)), 1)
                 for x in (np.nextafter(EXP_EDGE, 0.0), EXP_EDGE, np.nextafter(EXP_EDGE, 1e3))]
    # alpha*(1-z1) + beta*s is 0.0: both 0, or alpha 0 and s underflowing
    zero = [(dataclasses.replace(c, alpha=0.0, beta=0.0), 3),
            (dataclasses.replace(c, alpha=0.0), 10 ** 6)]
    # beta = -alpha puts theta(0) at 1, the second beta at 0; nudged by 2^-44 steps
    ends = [(dataclasses.replace(c, beta=beta * (1.0 + k * 2.0 ** -44)), 0)
            for beta in (-c.alpha, -c.alpha * (1.0 - c.z1) * c.z2 / ((1.0 - c.z2) * c.z1))
            for k in range(-40, 41)]
    return {"overflow": overflow, "zero": zero, "ends": ends}


def _coefficient_columns(coefs: list[BenefitCoefficients]) -> BenefitCoefficients:
    """One ``BenefitCoefficients`` of numpy columns, entry k from ``coefs[k]``."""
    def column(values):
        return (tuple(map(np.array, zip(*values))) if isinstance(values[0], tuple)
                else np.array(values))
    return BenefitCoefficients(**{f.name: column([getattr(c, f.name) for c in coefs])
                                  for f in dataclasses.fields(BenefitCoefficients)})


def test_column_theta_is_the_float_theta_bit_for_bit(pb):
    groups = {"seeded": _theta_pairs(np.random.default_rng(31)), **_theta_edges(pb.coef)}
    pairs = [pair for group in groups.values() for pair in group]
    assert len(pairs) >= 2000
    with np.errstate(all="ignore"):   # as ``grid`` calls it
        column = mixing_probability(_coefficient_columns([c for c, _ in pairs]),
                                    np.array([n0 for _, n0 in pairs], dtype=float))
    outcome = []   # theta, or None where the float form raises and the column has NaN
    for (coef, n0), got in zip(pairs, column.tolist()):
        try:
            want = mixing_probability(coef, n0)
        except NoInteriorRoot:
            assert math.isnan(got), (coef, n0, got)
            outcome.append(None)
        else:
            assert got.hex() == want.hex(), (coef, n0, got, want)
            outcome.append(want)
    thetas = iter(outcome)
    by_group = {name: [next(thetas) for _ in group] for name, group in groups.items()}
    assert sum(theta is not None for theta in by_group["seeded"]) >= 300
    assert all(theta is None for theta in by_group["zero"])
    for name in ("overflow", "ends"):   # both sides of each edge are seen
        assert {theta is None for theta in by_group[name]} == {True, False}
    # a theta within 1e-12 of 0 or 1 is left out, one just inside it kept
    assert any(theta is not None and min(theta, 1.0 - theta) < 1e-11 for theta in by_group["ends"])
