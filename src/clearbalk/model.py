"""Parameter intake and environment-level quantities of the clearing system.

The facility removes all waiting customers at once whenever it clears. An
exogenous environment process alternates between states 1 and 2: while the
environment sits in state e, customers arrive at Poisson rate lambda_e,
clearings occur at rate mu_e, and the environment switches to the other
state at rate q12 (from state 1) or q21 (from state 2). With all six rates
strictly positive the pair (queue length, environment) is an irreducible
continuous-time Markov chain.

Everything downstream consumes two families of derived quantities computed
here:

* the stationary environment distribution, proportional to the opposite
  switch rates: p_E(1) = q21/(q12+q21), p_E(2) = q12/(q12+q21);
* the mean time to the next clearing seen from environment e, obtained by
  solving the two-equation first-step system

      E[S_1] = 1/(mu1+q12) + q12/(mu1+q12) * E[S_2]
      E[S_2] = 1/(mu2+q21) + q21/(mu2+q21) * E[S_1]

  whose closed-form solution is E[S_1] = (mu2+q21+q12)/K and
  E[S_2] = (mu1+q21+q12)/K with K = mu1*mu2 + mu1*q21 + mu2*q12.

The sign of (mu1-mu2)*(rho1-rho2), where rho_e = lambda_e/mu_e, splits
models into three congestion cases. It decides whether a longer observed
queue is good or bad news for an arriving customer, and therefore which
shape the equilibrium strategies take; ``congestion_case`` computes the
label and keeps the raw product for auditing near-boundary inputs.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

from .errors import FloatRangeError, InputError

#: Relative tolerance for classifying the congestion product as zero.
CASE_TOLERANCE = 1e-12

#: Default sign band of every regime: a net benefit within this share of R is zero.
SIGN_TOLERANCE = 1e-9

#: The fields of a config: the six rates of ``ModelParams``, then R and C.
CONFIG_FIELDS = ("lambda1", "lambda2", "mu1", "mu2", "q12", "q21", "R", "C")


@dataclass(frozen=True)
class ModelParams:
    """Raw rate parameters, one arrival/clearing pair per environment state.

    Attributes:
        lambda1: Arrival rate while the environment is in state 1.
        lambda2: Arrival rate while the environment is in state 2.
        mu1: Clearing rate while the environment is in state 1.
        mu2: Clearing rate while the environment is in state 2.
        q12: Switch rate from environment state 1 to state 2.
        q21: Switch rate from environment state 2 to state 1.
    """

    lambda1: float
    lambda2: float
    mu1: float
    mu2: float
    q12: float
    q21: float


@dataclass(frozen=True)
class RewardCost:
    """Linear reward/cost structure of a customer.

    Attributes:
        reward: Utility units received on service completion.
        cost: Utility units paid per time unit spent waiting.
    """

    reward: float
    cost: float


@dataclass(frozen=True)
class ValidatedModel:
    """Validated parameters plus the derived environment-level quantities.

    Attributes:
        params: The validated raw rates.
        rho1: Congestion ratio lambda1/mu1.
        rho2: Congestion ratio lambda2/mu2.
        k: K = mu1*mu2 + mu1*q21 + mu2*q12, the divisor of ``mean_clearing``.
        env_stationary: Stationary environment distribution (p_E(1), p_E(2)).
        mean_clearing: Mean times to the next clearing (E[S_1], E[S_2]).
    """

    params: ModelParams
    rho1: float
    rho2: float
    k: float
    env_stationary: tuple[float, float]
    mean_clearing: tuple[float, float]


class CaseKind(enum.Enum):
    """Congestion case: sign of (mu1-mu2)*(rho1-rho2)."""

    CASE_A = "A"
    CASE_B = "B"
    CASE_C = "C"


@dataclass(frozen=True)
class CaseLabel:
    """Congestion case label with the raw product value for reporting."""

    kind: CaseKind
    product: float


def env_index(env: int) -> int:
    """The index, 0 or 1, of environment 1 or 2 in a pair; ValueError for any other."""
    if env in (1, 2):
        return env - 1
    raise ValueError(f"environment must be 1 or 2, got {env}")


def config_inputs(fields) -> tuple[ModelParams, RewardCost]:
    """The rates and the reward structure in a mapping of ``CONFIG_FIELDS``."""
    *rates, reward, cost = (fields[name] for name in CONFIG_FIELDS)
    return ModelParams(*rates), RewardCost(reward, cost)


def _require_positive(name: str, value) -> None:
    """Raise ``InputError`` naming ``name`` unless ``value`` is a finite number > 0.

    The bounds compare exactly, so an int too large for a float is refused
    here as not finite instead of overflowing in the arithmetic.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{name} must be a number, got {value!r}")
    if not 0.0 < value <= sys.float_info.max:   # also false for NaN
        raise InputError(f"{name} must be strictly positive and finite, got {value!r}")


def validate_params(raw: ModelParams, rc: RewardCost) -> ValidatedModel:
    """Validate raw inputs and compute the derived environment quantities.

    Args:
        raw: Rate parameters; all six must be strictly positive and finite.
        rc: Reward/cost pair; both must be strictly positive and finite.

    Returns:
        A ValidatedModel carrying the rates as floats, the congestion ratios,
        the stationary environment distribution and the mean clearing times.

    Raises:
        InputError: If a rate, the reward or the cost is not a number,
            nonpositive or not finite; the message names the field. A zero
            switch rate would degenerate the alternating environment, so it
            is rejected rather than special-cased.
        FloatRangeError: If K underflows to 0 or overflows to inf.
    """
    for name in CONFIG_FIELDS[:6]:
        _require_positive(f"rate {name}", getattr(raw, name))
    for name in ("reward", "cost"):
        _require_positive(name, getattr(rc, name))
    # as floats, so that no int arithmetic reaches a closed form
    model = derive_model(ModelParams(*map(float, vars(raw).values())))
    if model.k > sys.float_info.max:
        raise FloatRangeError("K = mu1*mu2 + mu1*q21 + mu2*q12 overflows to inf")
    return model


def derive_model(raw: ModelParams) -> ValidatedModel:
    """The derived quantities of ``validate_params``, without its checks.

    Pure arithmetic, so it also runs elementwise on rates that are numpy
    columns (see ``grid``).
    """
    switch_total = raw.q12 + raw.q21
    env_stationary = (raw.q21 / switch_total, raw.q12 / switch_total)
    k = raw.mu1 * raw.mu2 + raw.mu1 * raw.q21 + raw.mu2 * raw.q12
    try:
        mean_clearing = ((raw.mu2 + raw.q21 + raw.q12) / k, (raw.mu1 + raw.q21 + raw.q12) / k)
    except ZeroDivisionError:
        raise FloatRangeError("K = mu1*mu2 + mu1*q21 + mu2*q12 underflows to 0.0") from None
    return ValidatedModel(
        params=raw,
        rho1=raw.lambda1 / raw.mu1,
        rho2=raw.lambda2 / raw.mu2,
        k=k,
        env_stationary=env_stationary,
        mean_clearing=mean_clearing,
    )


def banded_sign(value, band):
    """-1, 0 or 1: 0 where |value| <= band, -1 for NaN; elementwise on numpy columns too."""
    return (value > band) * 2 - 1 + (abs(value) <= band)


def congestion_sign(model: ValidatedModel):
    """The sign of (mu1-mu2)*(rho1-rho2): -1 (case A), 1 (case B, and NaN) or 0.

    It is 0 (case C) when mu1 = mu2 or rho1 = rho2 within the relative
    ``CASE_TOLERANCE``. Elementwise on numpy columns too (``grid``).
    """
    p = model.params
    mu_gap, rho_gap = abs(p.mu1 - p.mu2), abs(model.rho1 - model.rho2)
    # |x - y| <= tolerance*max(x, y), tested against each of x and y
    flat = ((mu_gap <= CASE_TOLERANCE * p.mu1) | (mu_gap <= CASE_TOLERANCE * p.mu2)
            | (rho_gap <= CASE_TOLERANCE * model.rho1) | (rho_gap <= CASE_TOLERANCE * model.rho2))
    return (flat == 0) * (1 - 2 * ((p.mu1 - p.mu2) * (model.rho1 - model.rho2) < 0.0))


#: The congestion case of each ``congestion_sign``, indexed by sign + 1.
CASE_OF_SIGN = (CaseKind.CASE_A, CaseKind.CASE_C, CaseKind.CASE_B)


def congestion_case(model: ValidatedModel) -> CaseLabel:
    """The case of ``congestion_sign``, labelled with the raw product
    (mu1-mu2)*(rho1-rho2), so that near-boundary classifications can be audited."""
    p = model.params
    return CaseLabel(kind=CASE_OF_SIGN[congestion_sign(model) + 1],
                     product=(p.mu1 - p.mu2) * (model.rho1 - model.rho2))
