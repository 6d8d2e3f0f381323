"""Conditional net-benefit machinery: goldens, recurrences, dispatch.

Reference values were derived symbolically for the standard models and
cross-checked against the balance-equation oracle before freezing.
"""

import math

import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    JoinVector,
    MixedThreshold,
    PureThreshold,
    ReverseThreshold,
    RewardCost,
    UnreachableState,
    benefit_coefficients,
    critical_values,
    f_eval,
    g_eval,
    h_upper_limit,
    net_benefit_ao,
    solve_truncated_balance,
    spectral_quantities,
    stationary_distribution,
)
from conftest import Ctx, case_a_model, case_b_model, case_c_model, random_model

THETAS = [k / 10.0 for k in range(11)]


def test_coefficient_goldens(pstar):
    coef = pstar.coef
    assert coef.a == pytest.approx(0.49473448246209891, rel=1e-13)
    assert coef.b == pytest.approx(0.02041703268941624, rel=1e-13)
    assert coef.d == pytest.approx(0.68370623935603193, rel=1e-13)
    assert coef.e == pytest.approx(0.07386951821972565, rel=1e-13)
    assert coef.alpha == pytest.approx(-0.0024659901257559188, abs=1e-13)
    assert coef.beta == pytest.approx(0.032769020428786222, rel=1e-12)


def test_f_goldens(pstar):
    coef = pstar.coef
    assert f_eval(coef, 0, 1.0) == pytest.approx(1.0 / 33.0, rel=1e-12)
    assert f_eval(coef, 2, 1.0) == pytest.approx(5.0087653393438517e-5, abs=1e-13)
    assert f_eval(coef, 2, 0.0) == pytest.approx(-8.2644628099173554e-4, abs=1e-13)
    assert f_eval(coef, 3, 1.0) == pytest.approx(-3.1418618946793252e-4, abs=1e-13)


def test_h_goldens(pstar):
    coef = pstar.coef
    model = pstar.model

    def upper(n):
        return net_benefit_ao(model, coef, AlwaysJoin(), n).value

    def lower(n):
        return net_benefit_ao(model, coef, PureThreshold(n), n).value

    assert upper(0) == pytest.approx(0.04, abs=1e-13)
    assert upper(1) == pytest.approx(0.0096551724137931034, abs=1e-13)
    assert upper(2) == pytest.approx(2.2598870056497175e-4, abs=1e-13)
    assert lower(2) == pytest.approx(-0.0016216216216216216, abs=1e-13)
    assert lower(3) == pytest.approx(-0.0030434782608695652, abs=1e-13)
    limit = 0.72 - (5.0 + math.sqrt(5.0)) / 10.0
    assert h_upper_limit(coef) == pytest.approx(limit, abs=1e-13)
    assert coef.a / coef.d == pytest.approx((5.0 + math.sqrt(5.0)) / 10.0, rel=1e-13)


def test_empty_queue_benefit_equals_unconditional(rng):
    # an arrival seeing 0 under all-balk learns nothing: H_L(0) = R - C*V_fu
    for _ in range(30):
        model = random_model(rng)
        ctx = Ctx(model.params, RewardCost(0.9, 1.3))
        v_fu = critical_values(model).v_fu
        at_empty = net_benefit_ao(ctx.model, ctx.coef, PureThreshold(0), 0).value
        assert at_empty == pytest.approx(0.9 - 1.3 * v_fu, abs=1e-10)


def test_tail_recurrences(rng):
    for _ in range(30):
        ctx = Ctx(random_model(rng).params, RewardCost(1.1, 0.8))
        for n in range(0, 13, 3):
            for theta in THETAS:
                lhs_f = f_eval(ctx.coef, n, theta)
                rhs_f = f_eval(ctx.coef, n, 1.0) + (1.0 - theta) * f_eval(ctx.coef, n + 1, theta)
                assert lhs_f == pytest.approx(rhs_f, abs=1e-10)
                lhs_g = g_eval(ctx.coef, n, theta)
                rhs_g = g_eval(ctx.coef, n, 1.0) + (1.0 - theta) * g_eval(ctx.coef, n + 1, theta)
                assert lhs_g == pytest.approx(rhs_g, abs=1e-10)


def test_g_positive_and_decreasing_in_theta(rng):
    for _ in range(30):
        ctx = Ctx(random_model(rng).params, RewardCost(1.0, 1.0))
        for n in (0, 1, 5, 12):
            values = [g_eval(ctx.coef, n, theta) for theta in THETAS]
            assert all(v > 0.0 for v in values)
            for lo, hi in zip(values, values[1:]):
                assert hi < lo


def _signed_slack(values: list[float]) -> float:
    return 1e-12 * (max(abs(v) for v in values) + 1.0)


def _assert_monotone(values: list[float], direction: int) -> None:
    """No consecutive difference significantly violates the direction."""
    band = _signed_slack(values)
    for lo, hi in zip(values, values[1:]):
        if direction > 0:
            assert hi - lo >= -band
        elif direction < 0:
            assert hi - lo <= band
        else:
            assert abs(hi - lo) <= band


@pytest.mark.parametrize("builder,direction", [
    (case_a_model, -1), (case_b_model, +1), (case_c_model, 0),
])
def test_benefit_envelope_monotone_in_n(rng, builder, direction):
    # the conditional benefit of joining against all-join is decreasing,
    # increasing or flat in n exactly per the congestion case
    for _ in range(10):
        ctx = Ctx(builder(rng).params, RewardCost(1.0, 1.0))
        ae_bd = ctx.coef.a * ctx.coef.e - ctx.coef.b * ctx.coef.d
        # in case C one spectral branch may carry no mass at all, so the
        # equality band must be scaled by the full coefficient magnitudes
        scale = ((abs(ctx.coef.a) + abs(ctx.coef.b))
                 * (abs(ctx.coef.d) + abs(ctx.coef.e)))
        if direction < 0:
            assert ae_bd > 0.0
        elif direction > 0:
            assert ae_bd < 0.0
        else:
            assert abs(ae_bd) <= 1e-9 * scale
        values = [net_benefit_ao(ctx.model, ctx.coef, AlwaysJoin(), n).value
                  for n in range(16)]
        _assert_monotone(values, direction)
        first = values[1] - values[0]
        if direction != 0:
            assert math.copysign(1.0, first) == direction


@pytest.mark.parametrize("builder,direction", [
    (case_a_model, +1), (case_b_model, -1), (case_c_model, 0),
])
def test_mixed_benefit_monotone_in_theta(rng, builder, direction):
    for _ in range(10):
        ctx = Ctx(builder(rng).params, RewardCost(1.0, 1.0))
        for n in (0, 2):
            values = [f_eval(ctx.coef, n, t) / g_eval(ctx.coef, n, t) for t in THETAS]
            _assert_monotone(values, direction)


def test_dispatch_always_join(pstar):
    result = net_benefit_ao(pstar.model, pstar.coef, AlwaysJoin(), 0)
    assert result.value == pytest.approx(0.04, abs=1e-13)
    assert result.sojourn == pytest.approx(0.68, rel=1e-13)
    assert result.value == pytest.approx(0.72 - result.sojourn, abs=1e-14)
    assert sum(result.palm) == pytest.approx(1.0, abs=1e-14)
    for n in range(1, 8):
        got = net_benefit_ao(pstar.model, pstar.coef, AlwaysJoin(), n)
        want = f_eval(pstar.coef, n, 1.0) / g_eval(pstar.coef, n, 1.0)
        assert got.value == pytest.approx(want, abs=1e-14)


def test_dispatch_palm_matches_stationary_law(pstar):
    spec = spectral_quantities(pstar.model)
    dist = stationary_distribution(pstar.model, spec, AlwaysJoin())
    p = pstar.model.params
    for n in (0, 1, 4):
        w1 = p.lambda1 * dist.pmf(n, 1)
        w2 = p.lambda2 * dist.pmf(n, 2)
        got = net_benefit_ao(pstar.model, pstar.coef, AlwaysJoin(), n)
        assert got.palm[0] == pytest.approx(w1 / (w1 + w2), rel=1e-12)
        assert got.palm[1] == pytest.approx(w2 / (w1 + w2), rel=1e-12)


def test_dispatch_pure_threshold(pstar):
    strat = PureThreshold(3)
    for n in range(3):
        got = net_benefit_ao(pstar.model, pstar.coef, strat, n)
        want = f_eval(pstar.coef, n, 1.0) / g_eval(pstar.coef, n, 1.0)
        assert got.value == pytest.approx(want, abs=1e-14)
    at = net_benefit_ao(pstar.model, pstar.coef, strat, 3)
    want = f_eval(pstar.coef, 3, 0.0) / g_eval(pstar.coef, 3, 0.0)
    assert at.value == pytest.approx(want, abs=1e-14)
    with pytest.raises(UnreachableState):
        net_benefit_ao(pstar.model, pstar.coef, strat, 4)


def test_dispatch_mixed_threshold(pstar):
    strat = MixedThreshold(2, 6.0 / 7.0)
    at = net_benefit_ao(pstar.model, pstar.coef, strat, 2)
    assert at.value == pytest.approx(0.0, abs=1e-13)
    over = net_benefit_ao(pstar.model, pstar.coef, strat, 3)
    assert over.value == pytest.approx(-0.0030769230769230769, abs=1e-12)
    with pytest.raises(UnreachableState):
        net_benefit_ao(pstar.model, pstar.coef, strat, 4)
    with pytest.raises(UnreachableState):
        net_benefit_ao(pstar.model, pstar.coef, MixedThreshold(2, 0.0), 3)


def test_dispatch_balk_like(pstar):
    for strat in (AlwaysBalk(), ReverseThreshold(2, 0.5), ReverseThreshold(0, 0.0)):
        got = net_benefit_ao(pstar.model, pstar.coef, strat, 0)
        want = f_eval(pstar.coef, 0, 0.0) / g_eval(pstar.coef, 0, 0.0)
        assert got.value == pytest.approx(want, abs=1e-14)
        assert got.value == pytest.approx(0.02, abs=1e-13)
        with pytest.raises(UnreachableState):
            net_benefit_ao(pstar.model, pstar.coef, strat, 1)


def test_dispatch_reverse_interior(pstar):
    strat = ReverseThreshold(0, 0.4)
    for n in (0, 1, 5):
        got = net_benefit_ao(pstar.model, pstar.coef, strat, n)
        want = f_eval(pstar.coef, n, 0.4) / g_eval(pstar.coef, n, 0.4)
        assert got.value == pytest.approx(want, abs=1e-14)
    full = net_benefit_ao(pstar.model, pstar.coef, ReverseThreshold(0, 1.0), 2)
    want = f_eval(pstar.coef, 2, 1.0) / g_eval(pstar.coef, 2, 1.0)
    assert full.value == pytest.approx(want, abs=1e-14)


def test_dispatch_rejections(pstar):
    # a join vector reads its closed-form law; the Palm mixture of the balance rows agrees
    strategy = JoinVector((1.0, 0.5))
    sol = solve_truncated_balance(pstar.model, strategy)
    p, (s1, s2), rc = pstar.model.params, pstar.model.mean_clearing, pstar.rc
    for n in range(3):
        w1, w2 = p.lambda1 * sol.pmf(n, 1), p.lambda2 * sol.pmf(n, 2)
        want = rc.reward - rc.cost * (w1 * s1 + w2 * s2) / (w1 + w2)
        got = net_benefit_ao(pstar.model, pstar.coef, strategy, n)
        assert got.value == pytest.approx(want, abs=1e-12 * rc.reward)
    with pytest.raises(UnreachableState):
        net_benefit_ao(pstar.model, pstar.coef, strategy, 3)
    with pytest.raises(ValueError):
        net_benefit_ao(pstar.model, pstar.coef, AlwaysJoin(), -1)


def test_value_decomposition_everywhere(rng):
    # value = R - C * sojourn and palm is a probability pair, all strategies
    from conftest import random_closed_strategy
    for _ in range(25):
        ctx = Ctx(random_model(rng).params, RewardCost(1.4, 0.9))
        strategy = random_closed_strategy(rng)
        bound = strategy.support_bound()
        top = 5 if bound is None else min(bound, 5)
        for n in range(top + 1):
            try:
                got = net_benefit_ao(ctx.model, ctx.coef, strategy, n)
            except UnreachableState:
                continue
            assert got.value == pytest.approx(1.4 - 0.9 * got.sojourn, abs=1e-12)
            assert got.palm[0] >= 0.0 and got.palm[1] >= 0.0
            assert sum(got.palm) == pytest.approx(1.0, abs=1e-12)
