"""Conditional net benefit of joining, as a function of the observed queue.

A customer who sees n others present (with the environment hidden) weighs
the reward R against C times the conditional mean sojourn, where the
conditioning runs over the environment given the observation. Under the
all-join stationary law the arrival-rate-weighted masses are two-term
geometric mixtures, so both the numerator and denominator of the
conditional expectation are too:

    lambda1*p(n,1)*E[S_1] + lambda2*p(n,2)*E[S_2] = A*r1**n + B*r2**n
    lambda1*p(n,1)        + lambda2*p(n,2)        = D*r1**n + E*r2**n

Everything in this module is built from the four coefficients A, B, D, E.
The discounted aggregates

    F(n, theta) = alpha*r1**n/(1-(1-theta)*r1) + beta*r2**n/(1-(1-theta)*r2)
    G(n, theta) =     D*r1**n/(1-(1-theta)*r1) +    E*r2**n/(1-(1-theta)*r2)

with alpha = R*D - C*A and beta = R*E - C*B collect the net benefit across
a (1-theta)-discounted tail of levels; G is always strictly positive, so
sign questions about conditional benefits reduce to sign questions about
F. The two envelopes H_upper(n) = F(n,1)/G(n,1) and
H_lower(n) = F(n,0)/G(n,0) are the benefits of joining at n when the
population joins up to n (exclusive) and through n (inclusive),
respectively, and ``net_benefit_ao`` dispatches the exact F/G expression
for every reachable state of every closed-form strategy class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnreachableState
from .model import RewardCost, ValidatedModel
from .spectral import SpectralData
from .strategies import (
    AlwaysBalk,
    AlwaysJoin,
    JoinVector,
    MixedThreshold,
    PureThreshold,
    ReverseThreshold,
    Strategy,
)


@dataclass(frozen=True)
class BenefitCoefficients:
    """Geometric-mixture coefficients of the net-benefit machinery.

    ``a``/``b`` weight the sojourn numerator, ``d``/``e`` the
    arrival-weighted mass denominator; ``alpha``/``beta`` are the cached
    reward-minus-cost combinations R*d - C*a and R*e - C*b. The
    per-environment splits ``arrival_r1[e-1] = lambda_e * A_e`` and
    ``arrival_r2[e-1] = lambda_e * B_e`` are kept so arrival-conditioned
    (Palm) environment probabilities can be formed for any state without
    revisiting the spectral data.
    """

    a: float
    b: float
    d: float
    e: float
    alpha: float
    beta: float
    r1: float
    r2: float
    reward: float
    cost: float
    arrival_r1: tuple[float, float]
    arrival_r2: tuple[float, float]


@dataclass(frozen=True)
class BenefitValue:
    """Conditional net benefit with its reporting decomposition.

    ``value`` equals ``reward - cost * sojourn`` where ``sojourn`` is the
    conditional mean time to the next clearing and ``palm`` the
    arrival-conditioned environment distribution at the observed state.
    """

    value: float
    sojourn: float
    palm: tuple[float, float]


def benefit_coefficients(model: ValidatedModel, spec: SpectralData,
                         rc: RewardCost) -> BenefitCoefficients:
    """Assemble A, B, D, E and the cached alpha/beta for a reward structure."""
    p = model.params
    s1, s2 = model.mean_clearing
    arrival_r1 = (p.lambda1 * spec.a1, p.lambda2 * spec.a2)
    arrival_r2 = (p.lambda1 * spec.b1, p.lambda2 * spec.b2)
    a = arrival_r1[0] * s1 + arrival_r1[1] * s2
    b = arrival_r2[0] * s1 + arrival_r2[1] * s2
    d = arrival_r1[0] + arrival_r1[1]
    e = arrival_r2[0] + arrival_r2[1]
    return BenefitCoefficients(
        a=a, b=b, d=d, e=e,
        alpha=rc.reward * d - rc.cost * a,
        beta=rc.reward * e - rc.cost * b,
        r1=spec.r1, r2=spec.r2,
        reward=rc.reward, cost=rc.cost,
        arrival_r1=arrival_r1, arrival_r2=arrival_r2,
    )


def f_eval(coef: BenefitCoefficients, n: int, theta: float) -> float:
    """Discounted net-benefit aggregate F(n, theta) in closed form."""
    w = 1.0 - theta
    return (coef.alpha * coef.r1 ** n / (1.0 - w * coef.r1)
            + coef.beta * coef.r2 ** n / (1.0 - w * coef.r2))


def g_eval(coef: BenefitCoefficients, n: int, theta: float) -> float:
    """Discounted arrival-mass aggregate G(n, theta); strictly positive."""
    w = 1.0 - theta
    return (coef.d * coef.r1 ** n / (1.0 - w * coef.r1)
            + coef.e * coef.r2 ** n / (1.0 - w * coef.r2))


def scaled_aggregate(coef: BenefitCoefficients, c1: float, c2: float,
                     n: int, theta: float) -> float:
    """c1*r1**n/(1-(1-theta)*r1) + c2*r2**n/(1-(1-theta)*r2), divided by r1**n.

    With (c1, c2) = (alpha, beta) this is F(n, theta)/r1**n, with (d, e)
    G(n, theta)/r1**n. Ratios of such sums equal the unscaled ratios and
    stay finite at levels where r1**n itself underflows (small r1).
    """
    w = 1.0 - theta
    ratio = (coef.r2 / coef.r1) ** n
    return c1 / (1.0 - w * coef.r1) + c2 * ratio / (1.0 - w * coef.r2)


def _benefit(coef: BenefitCoefficients, n: int, theta: float) -> float:
    """F(n, theta)/G(n, theta), the benefit at n of a (1-theta)-discounted tail."""
    return (scaled_aggregate(coef, coef.alpha, coef.beta, n, theta)
            / scaled_aggregate(coef, coef.d, coef.e, n, theta))


def h_upper(coef: BenefitCoefficients, n: int) -> float:
    """Benefit of joining at n when the population joins strictly below n only."""
    return _benefit(coef, n, 1.0)


def h_lower(coef: BenefitCoefficients, n: int) -> float:
    """Benefit of joining at n when the population joins through n as well."""
    return _benefit(coef, n, 0.0)


def h_upper_limit(coef: BenefitCoefficients) -> float:
    """Analytic large-n limit of h_upper: R - C*a/d.

    r1 > r2 makes the r1 branch dominate, so the conditional sojourn tends
    to a/d. Computing the limit analytically avoids iterating n upward into
    floating-point underflow.
    """
    return coef.reward - coef.cost * coef.a / coef.d


def _arrival_weights(coef: BenefitCoefficients, n: int,
                     theta: float) -> tuple[float, float]:
    """Per-environment arrival weights of a discounted tail, scaled by r1**n."""
    return tuple(scaled_aggregate(coef, coef.arrival_r1[e], coef.arrival_r2[e], n, theta)
                 for e in (0, 1))


def _package(model: ValidatedModel, value: float,
             weights: tuple[float, float]) -> BenefitValue:
    total = weights[0] + weights[1]
    palm = (weights[0] / total, weights[1] / total)
    s1, s2 = model.mean_clearing
    return BenefitValue(value=value, sojourn=palm[0] * s1 + palm[1] * s2, palm=palm)


def _discounted(model: ValidatedModel, coef: BenefitCoefficients, n: int,
                theta: float) -> BenefitValue:
    """Benefit at n when the population's masses from n on form a discounted tail."""
    return _package(model, _benefit(coef, n, theta), _arrival_weights(coef, n, theta))


def net_benefit_ao(model: ValidatedModel, coef: BenefitCoefficients,
                   strategy: Strategy, n: int) -> BenefitValue:
    """Net benefit of joining at observed queue length n against ``strategy``.

    Dispatches the exact F/G expression for the state (strategy, n)
    together with the arrival-conditioned environment pair and conditional
    sojourn of that state.

    Raises:
        UnreachableState: If the state has zero stationary mass under the
            strategy, where a conditional benefit is undefined. This
            includes the overflow level n0+1 of a mixed threshold with
            theta = 0.
        ValueError: For JoinVector strategies, which have no closed form;
            the simulation oracle estimates those.
    """
    if n < 0:
        raise ValueError(f"queue length must be nonnegative, got {n}")
    if isinstance(strategy, JoinVector):
        raise ValueError("join vectors have no closed-form benefit; "
                         "use the simulation oracle")

    if isinstance(strategy, ReverseThreshold) and strategy.n0 == 0 and strategy.theta == 1.0:
        strategy = AlwaysJoin()

    if isinstance(strategy, AlwaysJoin):
        return _discounted(model, coef, n, 1.0)

    if isinstance(strategy, (AlwaysBalk, ReverseThreshold)) and not (
            isinstance(strategy, ReverseThreshold) and strategy.n0 == 0 and strategy.theta > 0.0):
        # Always-balk and every steady-state equivalent: only the empty
        # system is ever seen, and seeing it carries no information.
        if n != 0:
            raise UnreachableState(
                f"level {n} has zero stationary mass under {strategy!r}")
        return _discounted(model, coef, 0, 0.0)

    if isinstance(strategy, ReverseThreshold):
        # Interior theta at level 0: every level is reachable and the
        # discounted aggregates apply verbatim at each n.
        return _discounted(model, coef, n, strategy.theta)

    if isinstance(strategy, PureThreshold):
        strategy = MixedThreshold(strategy.n0, 0.0)

    if isinstance(strategy, MixedThreshold):
        n0, theta = strategy.n0, strategy.theta
        if n < n0:
            return _discounted(model, coef, n, 1.0)
        if n == n0:
            return _discounted(model, coef, n0, theta)
        if n == n0 + 1 and theta > 0.0:
            # mass at n0+1 is the undiscounted tail minus the discounted one
            f_diff = (scaled_aggregate(coef, coef.alpha, coef.beta, n0, 0.0)
                      - scaled_aggregate(coef, coef.alpha, coef.beta, n0, theta))
            g_diff = (scaled_aggregate(coef, coef.d, coef.e, n0, 0.0)
                      - scaled_aggregate(coef, coef.d, coef.e, n0, theta))
            plain = _arrival_weights(coef, n0 + 1, 0.0)
            disc = _arrival_weights(coef, n0 + 1, theta)
            w = 1.0 - theta
            weights = (plain[0] - w * disc[0], plain[1] - w * disc[1])
            return _package(model, f_diff / g_diff, weights)
        raise UnreachableState(
            f"level {n} has zero stationary mass under {strategy!r}")

    raise TypeError(f"not a strategy: {strategy!r}")
