"""Dominant strategies when the queue length is invisible or irrelevant.

In a clearing system a joining customer's sojourn ends at the next clearing
epoch, so it never depends on how many others are present or on what they
decide. Strategic interaction therefore disappears in three information
regimes and the best response is outright dominant:

* fully unobservable: the customer sees nothing; joining pays off iff
  R/C exceeds the critical value V_fu, the arrival-rate-weighted average
  of the per-environment mean clearing times;
* almost unobservable: the customer sees the environment e only; joining
  pays off iff R/C exceeds E[S_e], giving a per-environment pair of
  decisions;
* fully observable: seeing the queue length on top of the environment adds
  nothing (the sojourn does not depend on it), so the answer is the almost
  unobservable one under its own regime tag.

``dominant_strategies`` makes the one comparison of R/C with the critical
values of any of the three regimes.

Equalities produce indifference: any mixture is dominant, reported as a
free coordinate plus a knife-edge flag since the classification is
tolerance-dependent in floating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .codec import Wire
from .model import SIGN_TOLERANCE, RewardCost, ValidatedModel, banded_sign
from .spectral import elementwise


class Regime(enum.Enum):
    FULLY_UNOBSERVABLE = "fu"
    ALMOST_UNOBSERVABLE = "au"
    FULLY_OBSERVABLE = "fo"


class DominanceKind(enum.Enum):
    UNIQUE_PURE = "unique-pure"
    INDIFFERENCE_FAMILY = "indifference-family"


@dataclass(frozen=True)
class CriticalValues:
    """Critical values of R/C separating balk from join decisions.

    ``v_fu`` applies when nothing is observed; ``v_au_min``/``v_au_max``
    are the smaller and larger of the two per-environment mean clearing
    times and bracket ``v_fu``.
    """

    v_fu: float
    v_au_min: float
    v_au_max: float


@dataclass(frozen=True)
class DominantStrategySet(Wire):
    """Dominant strategy report for one information regime.

    ``join`` is a single joining probability for the fully unobservable
    regime and a per-environment pair otherwise; ``None`` marks a free
    coordinate (any value in [0, 1] is dominant). ``net_benefit`` is the
    joining customer's expected net benefit, a scalar or per-environment
    pair accordingly.
    """

    regime: Regime
    kind: DominanceKind
    join: float | None | tuple[float | None, float | None]
    net_benefit: float | tuple[float, float]
    critical: CriticalValues
    knife_edge: bool


def critical_values(model: ValidatedModel) -> CriticalValues:
    """Closed-form critical values of R/C for the unobservable regimes.

    V_fu averages the mean clearing times with weights proportional to
    lambda_e * p_E(e): the environment mix seen by an arriving customer.
    The almost-unobservable critical values are the per-environment mean
    clearing times themselves.
    """
    s1, s2 = model.mean_clearing
    return CriticalValues(v_fu=fully_unobservable_value(model),
                          v_au_min=min(s1, s2), v_au_max=max(s1, s2))


def fully_unobservable_value(model: ValidatedModel) -> float:
    """V_fu alone; elementwise on numpy columns too.

    The weights lambda1*q21 and lambda2*q12 are built from the rates'
    mantissas and exponents and scaled into range by one exact power of
    two, so V_fu has the unscaled bits wherever the products are normal.
    """
    p, k = model.params, model.k
    xp = elementwise(k)
    (m1, e1), (m2, e2), (n12, f12), (n21, f21) = map(
        xp.frexp, (p.lambda1, p.lambda2, p.q12, p.q21))
    top = xp.maximum(e1 + f21, e2 + f12)
    w1, w2 = xp.ldexp(m1 * n21, e1 + f21 - top), xp.ldexp(m2 * n12, e2 + f12 - top)
    return (w1 * p.mu2 + w2 * p.mu1) / ((w1 + w2) * k) + (p.q21 + p.q12) / k


def dominant_strategies(model: ValidatedModel, rc: RewardCost, regime: Regime,
                        tolerance: float = SIGN_TOLERANCE) -> DominantStrategySet:
    """Dominant joining decisions in a regime without queue-length feedback.

    R/C is compared with each critical value of the regime: V_fu when
    nothing is observed, E[S_e] per environment otherwise. Join (q=1) above
    it, balk (q=0) below it, and report a free coordinate (None, any q in
    [0, 1]) where R/C lies within tolerance*R/C of it. The fully
    unobservable report has one scalar decision and net benefit.
    """
    crit = critical_values(model)
    values = (crit.v_fu,) if regime is Regime.FULLY_UNOBSERVABLE else model.mean_clearing
    ratio = rc.reward / rc.cost
    signs = [banded_sign(ratio - value, tolerance * ratio) for value in values]
    join = tuple(None if sign == 0 else float(sign > 0) for sign in signs)
    net_benefit = tuple(rc.reward - rc.cost * value for value in values)
    if regime is Regime.FULLY_UNOBSERVABLE:
        (join,), (net_benefit,) = join, net_benefit
    knife = 0 in signs
    return DominantStrategySet(
        regime, DominanceKind.INDIFFERENCE_FAMILY if knife else DominanceKind.UNIQUE_PURE,
        join=join, net_benefit=net_benefit, critical=crit, knife_edge=knife)
