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
  nothing (the sojourn does not depend on it), so the answer coincides
  with the almost unobservable one.

Equalities produce indifference: any mixture is dominant, reported as a
free coordinate plus a knife-edge flag since the classification is
tolerance-dependent in floating point.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from dataclasses import dataclass

import numpy as np

from .codec import Wire
from .model import RewardCost, ValidatedModel, banded_sign

#: Relative equality band when comparing R/C against a critical value.
KNIFE_TOLERANCE = 1e-9


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
    """V_fu alone; elementwise on numpy columns too."""
    p, k = model.params, model.k
    weight_den = p.lambda1 * p.q21 + p.lambda2 * p.q12
    # divide by weight_den and k in turn where their product is not a normal float
    den = weight_den * k
    normal = (den >= sys.float_info.min) & (den <= sys.float_info.max)
    value = ((p.lambda1 * p.q21 * p.mu2 + p.lambda2 * p.q12 * p.mu1)
             / np.where(normal, den, weight_den) / np.where(normal, 1.0, k) + (p.q21 + p.q12) / k)
    return value if np.ndim(value) else float(value)


def _compare(ratio: float, critical: float, tolerance: float) -> int:
    """Sign of ratio - critical with a relative equality band."""
    return banded_sign(ratio - critical, tolerance * max(abs(ratio), abs(critical)))


def _join(sign: int) -> float | None:
    """The dominant joining probability for a comparison, None where every one is."""
    return None if sign == 0 else float(sign > 0)


def dominant_fully_unobservable(model: ValidatedModel, rc: RewardCost,
                                tolerance: float = KNIFE_TOLERANCE) -> DominantStrategySet:
    """Dominant joining probability when nothing is observed.

    Join (q=1) when R/C > V_fu, balk (q=0) when R/C < V_fu, and report the
    whole family q in [0, 1] at equality within the relative tolerance.
    """
    crit = critical_values(model)
    sign = _compare(rc.reward / rc.cost, crit.v_fu, tolerance)
    return DominantStrategySet(
        Regime.FULLY_UNOBSERVABLE,
        DominanceKind.INDIFFERENCE_FAMILY if sign == 0 else DominanceKind.UNIQUE_PURE,
        join=_join(sign), net_benefit=rc.reward - rc.cost * crit.v_fu,
        critical=crit, knife_edge=sign == 0)


def dominant_almost_unobservable(model: ValidatedModel, rc: RewardCost,
                                 tolerance: float = KNIFE_TOLERANCE) -> DominantStrategySet:
    """Dominant per-environment joining pair when only the environment is seen."""
    signs = [_compare(rc.reward / rc.cost, mean_s, tolerance) for mean_s in model.mean_clearing]
    knife = 0 in signs
    return DominantStrategySet(
        Regime.ALMOST_UNOBSERVABLE,
        DominanceKind.INDIFFERENCE_FAMILY if knife else DominanceKind.UNIQUE_PURE,
        join=tuple(map(_join, signs)),
        net_benefit=tuple(rc.reward - rc.cost * mean_s for mean_s in model.mean_clearing),
        critical=critical_values(model), knife_edge=knife)


def dominant_fully_observable(model: ValidatedModel, rc: RewardCost,
                              tolerance: float = KNIFE_TOLERANCE) -> DominantStrategySet:
    """Same decisions as the almost unobservable regime.

    The observed queue length never changes a joiner's sojourn in a
    clearing system, so the extra information is superfluous.
    """
    base = dominant_almost_unobservable(model, rc, tolerance)
    return dataclasses.replace(base, regime=Regime.FULLY_OBSERVABLE)
