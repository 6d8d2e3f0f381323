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
import math
from dataclasses import dataclass

from .errors import NonPositiveRate, NonPositiveRewardCost

#: Relative tolerance for classifying the congestion product as zero.
CASE_TOLERANCE = 1e-12


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
        env_stationary: Stationary environment distribution (p_E(1), p_E(2)).
        mean_clearing: Mean times to the next clearing (E[S_1], E[S_2]).
    """

    params: ModelParams
    rho1: float
    rho2: float
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


def _require_positive_rate(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise NonPositiveRate(f"rate {name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0.0:
        raise NonPositiveRate(f"rate {name} must be strictly positive and finite, got {value}")


def validate_params(raw: ModelParams, rc: RewardCost) -> ValidatedModel:
    """Validate raw inputs and compute the derived environment quantities.

    Args:
        raw: Rate parameters; all six must be strictly positive and finite.
        rc: Reward/cost pair; both must be strictly positive and finite.

    Returns:
        A ValidatedModel carrying congestion ratios, the stationary
        environment distribution, and the mean clearing times.

    Raises:
        NonPositiveRate: If any rate is nonpositive or not finite. A zero
            switch rate would degenerate the alternating environment, so it
            is rejected rather than special-cased.
        NonPositiveRewardCost: If reward or cost is nonpositive or not finite.
    """
    for name in ("lambda1", "lambda2", "mu1", "mu2", "q12", "q21"):
        _require_positive_rate(name, getattr(raw, name))
    for name in ("reward", "cost"):
        value = getattr(rc, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or value <= 0.0:
            raise NonPositiveRewardCost(
                f"{name} must be strictly positive and finite, got {value!r}")

    switch_total = raw.q12 + raw.q21
    env_stationary = (raw.q21 / switch_total, raw.q12 / switch_total)
    k = raw.mu1 * raw.mu2 + raw.mu1 * raw.q21 + raw.mu2 * raw.q12
    mean_clearing = ((raw.mu2 + raw.q21 + raw.q12) / k, (raw.mu1 + raw.q21 + raw.q12) / k)
    return ValidatedModel(
        params=raw,
        rho1=raw.lambda1 / raw.mu1,
        rho2=raw.lambda2 / raw.mu2,
        env_stationary=env_stationary,
        mean_clearing=mean_clearing,
    )


def congestion_case(model: ValidatedModel) -> CaseLabel:
    """Classify the congestion pattern by the sign of (mu1-mu2)*(rho1-rho2).

    The zero branch is taken when either factor vanishes within the relative
    ``CASE_TOLERANCE``, i.e. when mu1 = mu2 or rho1 = rho2 up to rounding; the
    raw product is always carried in the label so near-boundary
    classifications can be audited by the caller.
    """
    p = model.params
    mu_diff = p.mu1 - p.mu2
    rho_diff = model.rho1 - model.rho2
    product = mu_diff * rho_diff
    mu_zero = abs(mu_diff) <= CASE_TOLERANCE * max(p.mu1, p.mu2)
    rho_zero = abs(rho_diff) <= CASE_TOLERANCE * max(model.rho1, model.rho2)
    if mu_zero or rho_zero:
        kind = CaseKind.CASE_C
    elif product < 0.0:
        kind = CaseKind.CASE_A
    else:
        kind = CaseKind.CASE_B
    return CaseLabel(kind=kind, product=product)
