"""Closed-form stationary laws: frozen reference values plus structure checks.

Numeric goldens were derived symbolically from the characteristic
polynomial and boundary system of the reference models, then confirmed
against the truncated balance-equation solver before freezing.
"""

import math
import time

import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    JoinVector,
    MixedThreshold,
    ModelParams,
    PureThreshold,
    ReverseThreshold,
    RewardCost,
    spectral_quantities,
    stationary_always_join,
    stationary_distribution,
    stationary_reverse,
    stationary_threshold,
    validate_params,
)
from conftest import random_model


def test_pstar_roots_and_ratios(pstar):
    spec = pstar.spec
    assert spec.delta == pytest.approx(80.0, rel=1e-14)
    assert spec.z1 == pytest.approx(-3.0 + math.sqrt(5.0), rel=1e-14)
    assert spec.z2 == pytest.approx(-3.0 - math.sqrt(5.0), rel=1e-14)
    assert spec.r1 == pytest.approx(0.56691527068179906, rel=1e-14)
    assert spec.r2 == pytest.approx(0.16035745659092821, rel=1e-14)


def test_pstar_mixture_coefficients(pstar):
    spec = pstar.spec
    assert spec.a1 == pytest.approx(0.30576272556816589, rel=1e-13)
    assert spec.b1 == pytest.approx(-0.03303545284089316, rel=1e-13)
    assert spec.a2 == pytest.approx(0.07218078821970016, rel=1e-13)
    assert spec.b2 == pytest.approx(0.13994042390151197, rel=1e-13)


def test_p0_collapses_to_single_geometric(p0):
    # symmetric rates: r = (1/2, 1/4) and the second branch carries nothing
    spec = p0.spec
    assert spec.delta == pytest.approx(4.0, rel=1e-14)
    assert (spec.r1, spec.r2) == pytest.approx((0.5, 0.25), rel=1e-14)
    assert spec.b1 == pytest.approx(0.0, abs=1e-15)
    assert spec.b2 == pytest.approx(0.0, abs=1e-15)
    dist = stationary_always_join(p0.model, spec)
    for n in range(8):
        assert dist.pmf(n, 1) == pytest.approx(0.25 * 0.5 ** n, rel=1e-13)
        assert dist.pmf(n, 2) == pytest.approx(0.25 * 0.5 ** n, rel=1e-13)


def test_ratio_ordering_random(rng):
    for _ in range(50):
        model = random_model(rng)
        spec = spectral_quantities(model)
        assert 0.0 < spec.r2 < spec.r1 < 1.0
        assert spec.z2 < spec.z1 < 0.0


def test_always_join_masses_and_tails(pstar):
    dist = stationary_always_join(pstar.model, pstar.spec)
    assert dist.pmf(0, 1) == pytest.approx(3.0 / 11.0, rel=1e-13)
    assert dist.pmf(1, 1) == pytest.approx(0.16804407713498623, rel=1e-13)
    assert dist.tail(2, 1) == pytest.approx(0.22589531680440771, rel=1e-13)
    assert dist.tail(2, 2) == pytest.approx(0.057851239669421488, rel=1e-13)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-13)
    assert dist.support_bound is None


def test_env_marginals_recover_environment_law(rng):
    for _ in range(25):
        model = random_model(rng)
        spec = spectral_quantities(model)
        dist = stationary_always_join(model, spec)
        pe1, pe2 = model.env_stationary
        assert dist.env_marginal(1) == pytest.approx(pe1, rel=1e-10)
        assert dist.env_marginal(2) == pytest.approx(pe2, rel=1e-10)


def test_threshold_law_head_and_lump(pstar):
    dist = stationary_threshold(pstar.model, pstar.spec, 2, 0.0)
    aj = stationary_always_join(pstar.model, pstar.spec)
    for n in (0, 1):
        assert dist.pmf(n, 1) == aj.pmf(n, 1)
        assert dist.pmf(n, 2) == aj.pmf(n, 2)
    # the whole tail of the all-join law piles onto the threshold level
    assert dist.pmf(2, 1) == pytest.approx(aj.tail(2, 1), rel=1e-13)
    assert dist.pmf(2, 2) == pytest.approx(aj.tail(2, 2), rel=1e-13)
    assert dist.pmf(3, 1) == 0.0
    assert dist.support_bound == 2
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-13)


def test_mixed_threshold_overflow_masses(pstar):
    dist = stationary_threshold(pstar.model, pstar.spec, 2, 6.0 / 7.0)
    assert dist.pmf(2, 1) == pytest.approx(0.10606060606060606, rel=1e-12)
    assert dist.pmf(3, 1) == pytest.approx(0.11983471074380165, rel=1e-12)
    assert dist.pmf(2, 2) == pytest.approx(0.028925619834710744, rel=1e-12)
    assert dist.pmf(3, 2) == pytest.approx(0.028925619834710744, rel=1e-12)
    assert dist.support_bound == 3
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-13)


def test_reverse_interior_masses(pstar):
    dist = stationary_reverse(pstar.model, pstar.spec, 0.5)
    assert dist.pmf(0, 1) == pytest.approx(0.39080459770114943, rel=1e-12)
    assert dist.pmf(2, 1) == pytest.approx(0.068110572812767170, rel=1e-12)
    assert dist.pmf(0, 2) == pytest.approx(0.25287356321839080, rel=1e-12)
    assert dist.pmf(2, 2) == pytest.approx(0.018143820651657642, rel=1e-12)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-13)
    assert dist.support_bound is None


def test_reverse_endpoints(pstar):
    balk = stationary_reverse(pstar.model, pstar.spec, 0.0)
    assert balk.pmf(0, 1) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert balk.pmf(1, 1) == 0.0
    full = stationary_reverse(pstar.model, pstar.spec, 1.0)
    aj = stationary_always_join(pstar.model, pstar.spec)
    for n in range(6):
        for e in (1, 2):
            assert full.pmf(n, e) == pytest.approx(aj.pmf(n, e), rel=1e-12)


def test_dispatch_equivalences(pstar):
    model, spec = pstar.model, pstar.spec
    balk = stationary_distribution(model, spec, AlwaysBalk())
    dormant = stationary_distribution(model, spec, ReverseThreshold(2, 0.7))
    assert balk.pmf(0, 1) == dormant.pmf(0, 1)
    assert balk.pmf(1, 1) == dormant.pmf(1, 1) == 0.0
    pure = stationary_distribution(model, spec, PureThreshold(3))
    mixed_zero = stationary_distribution(model, spec, MixedThreshold(3, 0.0))
    for n in range(5):
        assert pure.pmf(n, 1) == mixed_zero.pmf(n, 1)
    degenerate = stationary_distribution(model, spec, MixedThreshold(0, 0.0))
    assert degenerate.pmf(0, 2) == balk.pmf(0, 2)


def test_join_vector_has_no_closed_form(pstar):
    with pytest.raises(ValueError):
        stationary_distribution(pstar.model, pstar.spec, JoinVector((1.0, 0.5)))


def test_random_laws_are_proper(rng):
    # every closed-form law: nonnegative masses summing to one
    from conftest import random_closed_strategy
    for _ in range(40):
        model = random_model(rng)
        spec = spectral_quantities(model)
        strategy = random_closed_strategy(rng)
        dist = stationary_distribution(model, spec, strategy)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-10)
        for n in range(6):
            assert dist.pmf(n, 1) >= 0.0
            assert dist.pmf(n, 2) >= 0.0


def test_bad_queries_raise(pstar):
    dist = stationary_always_join(pstar.model, pstar.spec)
    with pytest.raises(ValueError):
        dist.pmf(-1, 1)
    with pytest.raises(ValueError):
        dist.pmf(0, 3)
    with pytest.raises(ValueError):
        dist.tail(0, 0)


def _head_row_reference(model, spec, strategy):
    """The explicit head-row construction of the laws, kept as a reference.

    Returns (rows, geometric): rows[n] = (p(n, 1), p(n, 2)) below
    len(rows), then p(n, e) = g1[e]*r1**n + g2[e]*r2**n from len(rows) on
    when ``geometric`` = (g1, g2), and zero mass when it is None.
    """
    r1, r2 = spec.r1, spec.r2

    def discounted_tail(env, n, theta):
        a, b = spec.coefficients(env)
        w = 1.0 - theta
        return a * r1 ** n / (1.0 - w * r1) + b * r2 ** n / (1.0 - w * r2)

    if isinstance(strategy, AlwaysJoin):
        return [], ((spec.a1, spec.a2), (spec.b1, spec.b2))
    if isinstance(strategy, ReverseThreshold):
        theta = strategy.theta if strategy.n0 == 0 else 0.0
        if theta > 0.0:
            w = 1.0 - theta
            head = [(discounted_tail(1, 0, theta), discounted_tail(2, 0, theta))]
            g1 = (theta * spec.a1 / (1.0 - w * r1), theta * spec.a2 / (1.0 - w * r1))
            g2 = (theta * spec.b1 / (1.0 - w * r2), theta * spec.b2 / (1.0 - w * r2))
            return head, (g1, g2)
        strategy = AlwaysBalk()
    if isinstance(strategy, AlwaysBalk):
        return [model.env_stationary], None
    n0 = strategy.n0
    theta = strategy.theta if isinstance(strategy, MixedThreshold) else 0.0
    rows = [(spec.a1 * r1 ** n + spec.b1 * r2 ** n, spec.a2 * r1 ** n + spec.b2 * r2 ** n)
            for n in range(n0)]
    rows.append((discounted_tail(1, n0, theta), discounted_tail(2, n0, theta)))
    if theta > 0.0:
        w = 1.0 - theta
        rows.append(tuple(discounted_tail(env, n0 + 1, 0.0)
                          - w * discounted_tail(env, n0 + 1, theta) for env in (1, 2)))
    return rows, None


def test_piecewise_laws_match_head_row_reference(rng):
    for _ in range(200):
        model = random_model(rng)
        spec = spectral_quantities(model)
        n0 = int(rng.integers(0, 9))
        theta = float(rng.uniform(0.05, 0.95))
        for strategy in (AlwaysJoin(), AlwaysBalk(), PureThreshold(n0),
                         MixedThreshold(n0, theta), ReverseThreshold(0, theta),
                         ReverseThreshold(0, 1.0), ReverseThreshold(2, theta)):
            rows, geometric = _head_row_reference(model, spec, strategy)
            dist = stationary_distribution(model, spec, strategy)
            assert len(dist.pieces) <= 3

            def ref_pmf(n, e):
                if n < len(rows):
                    return rows[n][e]
                if geometric is None:
                    return 0.0
                return geometric[0][e] * spec.r1 ** n + geometric[1][e] * spec.r2 ** n

            def ref_tail(m, e):
                total = sum(row[e] for row in rows[m:])
                if geometric is not None:
                    start = max(m, len(rows))
                    total += geometric[0][e] * spec.r1 ** start / (1.0 - spec.r1)
                    total += geometric[1][e] * spec.r2 ** start / (1.0 - spec.r2)
                return total

            for n in range(n0 + 3):
                for env in (1, 2):
                    assert dist.pmf(n, env) == pytest.approx(ref_pmf(n, env - 1), rel=1e-12)
                    assert dist.tail(n, env) == pytest.approx(ref_tail(n, env - 1), rel=1e-12)


def test_far_threshold_law_in_constant_time():
    # slow clearing, 1 - r1 of order 1e-9, so r1**n0 stays of order one
    model = validate_params(ModelParams(2.0, 1.0, 1e-9, 3e-9, 1.0, 2.0), RewardCost(1.0, 1.0))
    spec = spectral_quantities(model)
    n0 = 10 ** 9
    start = time.perf_counter()
    dist = stationary_threshold(model, spec, n0, 0.5)
    aj = stationary_always_join(model, spec)
    for env in (1, 2):
        assert dist.pmf(n0 - 1, env) == aj.pmf(n0 - 1, env)
        assert aj.pmf(n0, env) > 0.0
        # the two piles carry the always-join tail from n0 on
        assert dist.pmf(n0, env) + dist.pmf(n0 + 1, env) == pytest.approx(
            aj.tail(n0, env), rel=1e-12)
        assert dist.tail(n0, env) == pytest.approx(aj.tail(n0, env), rel=1e-12)
        assert dist.tail(n0 // 2, env) == pytest.approx(aj.tail(n0 // 2, env), rel=1e-12)
        assert dist.tail(0, env) == pytest.approx(model.env_stationary[env - 1], rel=1e-12)
        assert dist.pmf(n0 + 2, env) == dist.tail(n0 + 2, env) == 0.0
    assert len(dist.pieces) == 3
    assert dist.support_bound == n0 + 1
    assert time.perf_counter() - start < 0.05


def test_env_marginals_hold_at_extreme_rates(rng):
    # rates over 16 decades reach 1 - r1 near the rounding unit, where
    # divisors taken from a rounded r1 lose every digit
    for _ in range(3000):
        model = random_model(rng, 1e-8, 1e8)
        spec = spectral_quantities(model)
        n0 = int(rng.integers(0, 9))
        theta = float(rng.uniform(0.05, 0.95))
        for strategy in (AlwaysJoin(), AlwaysBalk(), PureThreshold(n0),
                         MixedThreshold(n0, theta), ReverseThreshold(0, theta)):
            dist = stationary_distribution(model, spec, strategy)
            for env in (1, 2):
                assert dist.env_marginal(env) == pytest.approx(
                    model.env_stationary[env - 1], rel=1e-12)
