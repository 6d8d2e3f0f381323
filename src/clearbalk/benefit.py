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
respectively. ``net_benefit_ao`` takes the same ratio with the divisors of
the piece of the strategy's law (see ``spectral``) that holds level n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnreachableState
from .model import RewardCost, ValidatedModel
from .spectral import SpectralData, branch_power, law_pieces, piece_at, scaled_mixture
from .strategies import Strategy


@dataclass(frozen=True)
class BenefitCoefficients:
    """Geometric-mixture coefficients of the net-benefit machinery.

    ``a``/``b`` weight the sojourn numerator, ``d``/``e`` the
    arrival-weighted mass denominator; ``alpha``/``beta`` are the cached
    reward-minus-cost combinations R*d - C*a and R*e - C*b. The
    per-environment splits ``arrival_r1[e-1] = lambda_e * A_e`` and
    ``arrival_r2[e-1] = lambda_e * B_e`` are kept so arrival-conditioned
    (Palm) environment probabilities can be formed for any state without
    revisiting the spectral data. The roots ``z1``, ``z2`` (r = 1/(1 - z))
    and ``log_ratio`` = log(r2/r1) keep the aggregates accurate as r1 -> 1.
    """

    a: float
    b: float
    d: float
    e: float
    alpha: float
    beta: float
    r1: float
    r2: float
    z1: float
    z2: float
    log_ratio: float
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
        r1=spec.r1, r2=spec.r2, z1=spec.z1, z2=spec.z2, log_ratio=spec.log_ratio,
        reward=rc.reward, cost=rc.cost,
        arrival_r1=arrival_r1, arrival_r2=arrival_r2,
    )


def scaled_aggregate(coef: BenefitCoefficients, c1: float, c2: float,
                     n: int, theta: float) -> float:
    """c1*r1**n/(1-(1-theta)*r1) + c2*r2**n/(1-(1-theta)*r2), divided by r1**n.

    With (c1, c2) = (alpha, beta) this is F(n, theta)/r1**n, with (d, e)
    G(n, theta)/r1**n. Ratios of such sums equal the unscaled ratios and
    stay finite at levels where r1**n itself underflows (small r1).
    """
    # spectral.discounts written out: calling it from here made
    # compute_equilibria, whose sign tests run through here, ~15% slower
    z1, z2 = coef.z1, coef.z2
    return scaled_mixture(coef.log_ratio, c1, c2, n,
                          (theta - z1) / (1.0 - z1), (theta - z2) / (1.0 - z2))


def f_eval(coef: BenefitCoefficients, n: int, theta: float) -> float:
    """Discounted net-benefit aggregate F(n, theta) in closed form."""
    return branch_power(coef.z1, n) * scaled_aggregate(coef, coef.alpha, coef.beta, n, theta)


def g_eval(coef: BenefitCoefficients, n: int, theta: float) -> float:
    """Discounted arrival-mass aggregate G(n, theta); strictly positive."""
    return branch_power(coef.z1, n) * scaled_aggregate(coef, coef.d, coef.e, n, theta)


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


def net_benefit_ao(model: ValidatedModel, coef: BenefitCoefficients,
                   strategy: Strategy, n: int) -> BenefitValue:
    """Net benefit of joining at observed queue length n against ``strategy``.

    F/G and the arrival-conditioned environment pair are evaluated with the
    divisors of the piece of the strategy's law that holds level n.

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
    piece = piece_at(law_pieces(coef.z1, coef.z2, strategy), n)
    if piece is None:
        raise UnreachableState(f"level {n} has zero stationary mass under {strategy!r}")

    def aggregate(c1: float, c2: float) -> float:
        return scaled_mixture(coef.log_ratio, c1, c2, n, piece.d1, piece.d2)

    w1, w2 = (aggregate(coef.arrival_r1[e], coef.arrival_r2[e]) for e in (0, 1))
    palm = (w1 / (w1 + w2), w2 / (w1 + w2))
    s1, s2 = model.mean_clearing
    return BenefitValue(value=aggregate(coef.alpha, coef.beta) / aggregate(coef.d, coef.e),
                        sojourn=palm[0] * s1 + palm[1] * s2, palm=palm)
