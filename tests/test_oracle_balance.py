"""Truncated balance-equation solver against the closed-form laws."""

import math

import numpy as np
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
    solve_truncated_balance,
    spectral_quantities,
    stationary_distribution,
    validate_params,
    verify_equilibrium,
)
from clearbalk.errors import ConsistencyError
from clearbalk.oracle import balance
from clearbalk.strategies import Stepped
from conftest import UNIT_RC, random_closed_strategy, random_join_vector, random_model


def test_symmetric_model_geometric(p0):
    sol = solve_truncated_balance(p0.model, AlwaysJoin())
    for n in range(12):
        for env in (1, 2):
            assert sol.pmf(n, env) == pytest.approx(0.25 * 0.5 ** n, abs=1e-12)
    assert sol.residual < 1e-10
    assert sol.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_reference_model_always_join(pstar):
    sol = solve_truncated_balance(pstar.model, AlwaysJoin())
    assert sol.pmf(0, 1) == pytest.approx(3.0 / 11.0, abs=1e-12)
    assert sol.pmf(1, 1) == pytest.approx(0.16804407713498623, abs=1e-12)
    assert sol.tail(2, 1) == pytest.approx(0.22589531680440771, abs=1e-10)
    assert sol.tail(2, 2) == pytest.approx(0.057851239669421488, abs=1e-10)
    assert sol.tail_mass < 1e-11


def test_balk_concentrates_on_empty(pstar):
    sol = solve_truncated_balance(pstar.model, AlwaysBalk())
    assert sol.pmf(0, 1) == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert sol.pmf(0, 2) == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert sol.pmf(1, 1) == 0.0
    assert sol.tail_mass == 0.0


def test_finite_support_is_exact(pstar):
    sol = solve_truncated_balance(pstar.model, PureThreshold(4))
    dist = stationary_distribution(pstar.model, pstar.spec, PureThreshold(4))
    assert sol.level == 6
    assert sol.tail_mass == 0.0
    for n in range(7):
        for env in (1, 2):
            assert sol.pmf(n, env) == pytest.approx(dist.pmf(n, env), abs=1e-13)
    assert sol.pmf(5, 1) == pytest.approx(0.0, abs=1e-15)


def test_mixed_threshold_overflow(pstar):
    strat = MixedThreshold(2, 6.0 / 7.0)
    sol = solve_truncated_balance(pstar.model, strat)
    dist = stationary_distribution(pstar.model, pstar.spec, strat)
    for n in range(4):
        for env in (1, 2):
            assert sol.pmf(n, env) == pytest.approx(dist.pmf(n, env), abs=1e-12)


def test_join_vector_has_oracle_law(pstar):
    strat = JoinVector((1.0, 0.5))
    sol = solve_truncated_balance(pstar.model, strat)
    assert sol.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert sol.residual < 1e-10
    # level 2 was entered with probability 0.5, level 3 never
    assert sol.pmf(2, 1) > 0.0
    assert sol.pmf(3, 1) == pytest.approx(0.0, abs=1e-15)


def _generator(model, strategy, level):
    """Dense generator of the chain truncated at ``level``, built state by state."""
    p = model.params
    lam, mu, switch = (p.lambda1, p.lambda2), (p.mu1, p.mu2), (p.q12, p.q21)
    gen = np.zeros((2 * (level + 1), 2 * (level + 1)))
    for n in range(level + 1):
        for e in (0, 1):
            i = 2 * n + e
            if n < level:
                gen[i, i + 2] = lam[e] * strategy.join_prob(n)
            if n >= 1:
                gen[i, e] += mu[e]
            gen[i, 2 * n + 1 - e] += switch[e]
            gen[i, i] -= gen[i].sum()
    return gen


@pytest.mark.parametrize("strategy", [AlwaysJoin(), MixedThreshold(3, 0.4)])
def test_masses_solve_the_generator(pstar, strategy):
    sol = solve_truncated_balance(pstar.model, strategy)
    flow = sol.masses.reshape(-1) @ _generator(pstar.model, strategy, sol.level)
    assert np.max(np.abs(flow)) < 1e-14
    assert sol.residual == pytest.approx(np.max(np.abs(flow)), abs=1e-16)


def test_env_marginals(pstar):
    sol = solve_truncated_balance(pstar.model, AlwaysJoin())
    pe1, pe2 = pstar.model.env_stationary
    assert sol.tail(0, 1) == pytest.approx(pe1, abs=1e-11)
    assert sol.tail(0, 2) == pytest.approx(pe2, abs=1e-11)


def test_random_agreement_with_closed_form(rng):
    for _ in range(30):
        model = random_model(rng)
        strategy = random_closed_strategy(rng)
        spec = spectral_quantities(model)
        dist = stationary_distribution(model, spec, strategy)
        sol = solve_truncated_balance(model, strategy)
        top = min(sol.level, 25)
        worst = max(
            abs(sol.pmf(n, env) - dist.pmf(n, env))
            for n in range(top + 1) for env in (1, 2)
        )
        assert worst < 1e-8
        assert sol.residual < 1e-9
    for _ in range(30):
        model = random_model(rng)
        strategy = random_join_vector(rng)
        dist = stationary_distribution(model, spectral_quantities(model), strategy)
        sol = solve_truncated_balance(model, strategy)
        worst = max(abs(sol.pmf(n, env) - dist.pmf(n, env))
                    for n in range(sol.level + 1) for env in (1, 2))
        assert worst < 1e-8
        assert sol.residual < 1e-9


def test_masses_shape_and_dtype(pstar):
    sol = solve_truncated_balance(pstar.model, PureThreshold(3))
    assert isinstance(sol.masses, np.ndarray)
    assert sol.masses.shape == (sol.level + 1, 2)
    assert (sol.masses >= 0.0).all()


def test_wide_rate_stress_against_closed_form():
    # rates log-uniform on [1e-4, 1e4], then slow clearing down to 1 - r1 = 1e-12
    rng = np.random.default_rng(20261018)
    slow = [(2.0, 1.0, m, 3.0 * m, 1.0, 2.0) for m in (1e-6, 1e-8, 1e-10, 5e-13)]
    slowest = 1.0
    for checked in range(60 + len(slow)):
        rates = (list(slow[checked - 60]) if checked >= 60
                 else (10.0 ** rng.uniform(-4.0, 4.0, size=6)).tolist())
        model = validate_params(ModelParams(*rates), UNIT_RC)
        spec = spectral_quantities(model)
        join_all = checked % 4 == 0 or checked >= 60
        strategy = AlwaysJoin() if join_all else random_closed_strategy(rng)
        dist = stationary_distribution(model, spec, strategy)
        sol = solve_truncated_balance(model, strategy)
        top = min(sol.level, 300)
        worst = max(abs(sol.pmf(n, env) - dist.pmf(n, env))
                    for n in range(top + 1) for env in (1, 2))
        assert worst < 1e-10, (rates, strategy)
        assert sol.total_mass() == pytest.approx(1.0, abs=1e-9)
        if sol.level <= 20_000:
            # the rows themselves, every one of them, must carry the whole mass
            assert sol.masses.sum() == pytest.approx(1.0, abs=1e-9), (rates, strategy)
        assert sol.residual < 1e-12 * max(rates)
        slowest = min(slowest, 1.0 - spec.r1)
    assert slowest <= 1e-12


def test_step_eigenvalues_match_the_quartic():
    # T = diag(lambda) A^-1 has the spectral ratios r1 > r2 as its eigenvalues
    rng = np.random.default_rng(20261019)
    for _ in range(2000):
        model = validate_params(ModelParams(*(10.0 ** rng.uniform(-6.0, 6.0, size=6)).tolist()),
                                UNIT_RC)
        spec = spectral_quantities(model)
        _, _, log_rho1, log_rho2 = balance.constant_step(model.params, (1.0, 0.0))
        assert math.exp(log_rho1) == pytest.approx(spec.r1, rel=1e-12, abs=0.0)
        assert math.exp(log_rho2) == pytest.approx(spec.r2, rel=1e-12, abs=0.0)
        # and 1 - r1 keeps its digits as clearing slows
        assert -math.expm1(log_rho1) == pytest.approx(-spec.z1 / (1.0 - spec.z1),
                                                      rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mu", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_slow_clearing_rows_match_closed_form(mu):
    # 1 - r1 is about mu; the run reaches 2.8e9 levels at mu = 1e-8
    model = validate_params(ModelParams(2.0, 1.0, mu, 3.0 * mu, 1.0, 2.0), UNIT_RC)
    dist = stationary_distribution(model, spectral_quantities(model), AlwaysJoin())
    sol = solve_truncated_balance(model, AlwaysJoin())
    top = sol.level
    levels = (set(range(64)) | {top - 2, top - 1}
              | {(1 << k) + d for k in range(top.bit_length()) for d in (-1, 0, 1)}
              | set(np.linspace(0, top - 1, 101).astype(int).tolist()))
    for n in sorted(n for n in levels if 0 <= n < top):
        for env in (1, 2):
            assert sol.pmf(n, env) == pytest.approx(dist.pmf(n, env), rel=1e-12, abs=0.0)
            assert sol.tail(n, env) == pytest.approx(dist.tail(n, env), rel=1e-12, abs=0.0)
    for env in (1, 2):
        assert sol.tail(top, env) == pytest.approx(dist.tail(top, env), rel=1e-12, abs=0.0)


def test_slow_clearing_always_join_verifies():
    # 1 - r1 = 1e-4: the tail target needs about 276k levels
    params = ModelParams(lambda1=2.0, lambda2=1.0, mu1=1e-4, mu2=3e-4, q12=1.0, q21=2.0)
    rc = RewardCost(2e4, 1.0)
    model = validate_params(params, rc)
    sol = solve_truncated_balance(model, AlwaysJoin())
    assert 2e5 < sol.level
    assert sol.tail_mass < balance.TAIL_TARGET
    assert sol.residual < 1e-14
    report = verify_equilibrium(model, rc, AlwaysJoin())
    assert report.passed
    assert len(report.checks) <= 4


class _Unbounded(Stepped):
    """A strategy outside the families: no support bound, uncertain joining."""

    def __init__(self, steps):
        self.pairs = steps

    def steps(self):
        return self.pairs


@pytest.mark.parametrize("steps", [
    ((0, 0.5),),
    ((0, 1.0), (10, 0.5)),
], ids=["uncertain-everywhere", "uncertain-from-level-10"])
def test_unbounded_strategy_must_join_from_level_one(pstar, steps):
    with pytest.raises(ConsistencyError, match="no support bound but joins with probability 0.5"):
        solve_truncated_balance(pstar.model, _Unbounded(steps))


def _level_recursion(model, strategy, level):
    """Rows and tails ``0..level`` of the truncated chain, one 2x2 solve per level.

    Level 0 is driven by pi diag(mu), level n by p(n-1) diag(lambda j(n-1));
    each solve uses the positive inverse of diag(c + q) - S, and the top
    row is the tail at ``level``.
    """
    p = model.params
    lam, mu, q12, q21 = (p.lambda1, p.lambda2), (p.mu1, p.mu2), p.q12, p.q21

    def solve(y, c1, c2):   # y [diag(c + q) - S]^-1
        det = c1 * c2 + c1 * q21 + c2 * q12
        return ((y[0] * (c2 + q21) + y[1] * q21) / det, (y[0] * q12 + y[1] * (c1 + q12)) / det)

    y = (model.env_stationary[0] * mu[0], model.env_stationary[1] * mu[1])
    rows, tails = [], []
    for n in range(level):
        tails.append(solve(y, *mu))
        j = strategy.join_prob(n)
        x = solve(y, mu[0] + lam[0] * j, mu[1] + lam[1] * j)
        rows.append(x)
        y = (x[0] * lam[0] * j, x[1] * lam[1] * j)
    tails.append(solve(y, *mu))
    return np.array(rows + tails[-1:]), np.array(tails)


def test_constant_step_matches_level_recursion(pstar):
    # the run p(n) = p(1) T^(n-1) against the recursion walked level by level,
    # to the truncation level or up to the walked cap after the run
    slow = validate_params(ModelParams(2.0, 1.0, 1e-2, 3e-2, 1.0, 2.0), UNIT_RC)
    for model in (pstar.model, slow):
        for strategy in (AlwaysJoin(), ReverseThreshold(0, 0.3), PureThreshold(30),
                         MixedThreshold(30, 0.4), JoinVector((0.5,) + (1.0,) * 30 + (0.5, 1.0))):
            sol = solve_truncated_balance(model, strategy)
            rows, tails = _level_recursion(model, strategy, sol.level)
            assert sol.level > 20
            for n in range(sol.level + 1):
                for env in (1, 2):
                    assert sol.pmf(n, env) == pytest.approx(rows[n, env - 1],
                                                            rel=1e-11, abs=1e-300)
                    assert sol.tail(n, env) == pytest.approx(tails[n, env - 1],
                                                             rel=1e-11, abs=1e-300)
            assert sol.masses == pytest.approx(rows, rel=1e-11, abs=1e-300)


def test_automatic_level_is_first_below_tail_target(rng):
    # the bisection must land on the first level whose tail is below the target
    slow = validate_params(ModelParams(2.0, 1.0, 1e-4, 3e-4, 1.0, 2.0), UNIT_RC)
    for model in [random_model(rng) for _ in range(20)] + [slow]:
        for strategy in (AlwaysJoin(), ReverseThreshold(0, 0.6)):
            sol = solve_truncated_balance(model, strategy)
            assert sol.tail_mass == sol.tail(sol.level, 1) + sol.tail(sol.level, 2)
            assert sol.tail_mass < balance.TAIL_TARGET
            assert sol.tail(sol.level - 1, 1) + sol.tail(sol.level - 1, 2) >= balance.TAIL_TARGET
    # the level a walk over every level finds for this model
    assert solve_truncated_balance(slow, AlwaysJoin()).level == 276335
