import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clearbalk import (
    AlwaysJoin,
    CaseKind,
    InputError,
    ModelParams,
    RewardCost,
    congestion_case,
    simulate,
    solve_truncated_balance,
    stationary_distribution,
    validate_params,
)
from conftest import P0, PB, PSTAR, UNIT_RC


def test_pstar_derived_quantities():
    model = validate_params(PSTAR, UNIT_RC)
    assert model.rho1 == 2.0
    assert model.rho2 == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert model.env_stationary == pytest.approx((2.0 / 3.0, 1.0 / 3.0), abs=1e-15)
    assert model.mean_clearing == pytest.approx((0.75, 0.5), abs=1e-15)


def test_integer_rates_are_stored_as_floats():
    model = validate_params(ModelParams(2, 1, 1, 3, 1, 2), RewardCost(1, 1))
    assert [type(v) for v in model.params.__dict__.values()] == [float] * 6
    assert model == validate_params(PSTAR, UNIT_RC)


def test_mean_clearing_solves_first_step_system():
    # E[S_1] = 1/(mu1+q12) + q12/(mu1+q12) * E[S_2], and symmetrically
    for params in (PSTAR, PB, P0):
        model = validate_params(params, UNIT_RC)
        s1, s2 = model.mean_clearing
        p = model.params
        assert s1 == pytest.approx((1.0 + p.q12 * s2) / (p.mu1 + p.q12), rel=1e-13)
        assert s2 == pytest.approx((1.0 + p.q21 * s1) / (p.mu2 + p.q21), rel=1e-13)


@given(st.sampled_from(["lambda1", "lambda2", "mu1", "mu2", "q12", "q21"]),
       st.sampled_from([0.0, -1.0, math.nan, math.inf]))
def test_bad_rate_names_field(field, value):
    params = ModelParams(**{**PSTAR.__dict__, field: value})
    with pytest.raises(InputError) as err:
        validate_params(params, UNIT_RC)
    assert str(err.value).startswith(f"rate {field} must be strictly positive and finite")


def test_non_numeric_rate_rejected():
    params = ModelParams(**{**PSTAR.__dict__, "mu2": "3"})
    with pytest.raises(InputError) as err:
        validate_params(params, UNIT_RC)
    assert str(err.value) == "rate mu2 must be a number, got '3'"
    params = ModelParams(**{**PSTAR.__dict__, "q12": True})
    with pytest.raises(InputError) as err:
        validate_params(params, UNIT_RC)
    assert str(err.value) == "rate q12 must be a number, got True"


@pytest.mark.parametrize("reward,cost", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0),
                                         (1.0, math.inf)])
def test_bad_reward_cost_rejected(reward, cost):
    with pytest.raises(InputError) as err:
        validate_params(PSTAR, RewardCost(reward, cost))
    field = "cost" if reward == 1.0 else "reward"
    assert str(err.value).startswith(f"{field} must be strictly positive and finite")


def test_congestion_cases():
    assert congestion_case(validate_params(PSTAR, UNIT_RC)).kind is CaseKind.CASE_A
    assert congestion_case(validate_params(PB, UNIT_RC)).kind is CaseKind.CASE_B
    assert congestion_case(validate_params(P0, UNIT_RC)).kind is CaseKind.CASE_C


def test_case_c_by_matched_rho():
    # different mu but identical congestion ratio
    params = ModelParams(lambda1=1.0, lambda2=2.5, mu1=2.0, mu2=5.0, q12=1.0, q21=3.0)
    label = congestion_case(validate_params(params, UNIT_RC))
    assert label.kind is CaseKind.CASE_C
    assert label.product == pytest.approx(0.0, abs=1e-12)


def test_case_product_reported():
    label = congestion_case(validate_params(PSTAR, UNIT_RC))
    model = validate_params(PSTAR, UNIT_RC)
    assert label.product == pytest.approx(
        (PSTAR.mu1 - PSTAR.mu2) * (model.rho1 - model.rho2), rel=1e-15)
    assert label.product < 0.0


#: The stationary law of always-join on the reference model, by the route that gives it
LAWS = {
    "closed form": lambda ctx: stationary_distribution(ctx.model, ctx.spec, AlwaysJoin()),
    "balance": lambda ctx: solve_truncated_balance(ctx.model, AlwaysJoin()),
    "simulation": lambda ctx: simulate(ctx.model, ctx.rc, AlwaysJoin(), horizon=50.0,
                                       replications=1),
}


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("env", [0, 3])
def test_every_law_refuses_an_environment_other_than_1_or_2(pstar, law, env):
    with pytest.raises(ValueError, match=f"^environment must be 1 or 2, got {env}$"):
        LAWS[law](pstar).pmf(0, env)
