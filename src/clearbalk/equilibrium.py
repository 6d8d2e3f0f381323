"""Equilibrium strategy sets: classification, bounds, and enumeration.

A symmetric strategy is an equilibrium when it is a best response against
itself. Because the conditional benefit of joining at observed queue
length n against a threshold population reduces to sign questions about
the discounted aggregate F(n, theta), the entire equilibrium set follows
from a handful of integer bounds:

* congestion case A (benefit falls with n): candidate equilibria are
  threshold strategies. Subcase I (joining already loses at an empty
  system) leaves only always-balk; subcase III (joining still wins in the
  large-n limit) only always-join; in between, the pure thresholds from
  n_l through n_u are all equilibria, plus one mixed threshold at every
  level where F crosses zero strictly inside (0, 1).
* congestion case B (benefit rises with n): candidate equilibria are
  reverse thresholds, and exactly one of always-join, always-balk, or the
  mixed reverse threshold at the empty system survives.
* congestion case C: the observed queue length carries no information, so
  the sign of the constant benefit picks always-balk, always-join, or
  declares every threshold and reverse-threshold strategy an equilibrium.

Sign tests run on F values normalized by G(n, 1) with an absolute band;
band hits follow the weak/strict-inequality conventions of the exact
theory and set a knife-edge flag, since the classification is then
tolerance-dependent. Along n each normalized F is a two-term geometric
mixture, so the level where a banded sign flips is a logarithm (see
``subcase_ii_levels``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .benefit import BenefitCoefficients, f_eval, h_upper_limit, scaled_aggregate
from .codec import Wire, decode
from .errors import NoInteriorRoot, ScanLimitExceeded
from .model import CaseKind, CaseLabel, RewardCost, ValidatedModel, banded_sign, congestion_case
# verify_equilibrium is looked up on its module at call time, where
# perfbench's tracer wraps it
from .oracle import verify as oracle_verify
from .oracle.verify import VerificationReport
from .spectral import SpectralData, discounts
from .strategies import (
    AlwaysBalk,
    AlwaysJoin,
    MixedThreshold,
    PureThreshold,
    ReverseThreshold,
    Strategy,
)

#: Absolute band for sign tests on G(n,1)-normalized F values.
SIGN_TOLERANCE = 1e-9

#: Most pure thresholds a report lists: a larger upper bound n_u raises
#: ScanLimitExceeded.
SCAN_LIMIT = 10 ** 6


class Orientation(enum.Enum):
    THRESHOLD = "threshold"
    REVERSE = "reverse"


class Subcase(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class ThresholdBounds(Wire):
    """Integer bounds delimiting the equilibrium strategies.

    For the threshold orientation, ``n_l``..``n_u`` is the pure-threshold
    equilibrium range and mixed thresholds live at levels
    ``n_l_plus``..``n_u_minus - 1``; the strict variants refine the plain
    bounds by strict-sign tests. The reverse orientation stores the
    mirrored quantities. Subcase I sets every bound to 0, subcase III to
    infinity.
    """

    orientation: Orientation
    subcase: Subcase
    n_l: float
    n_u: float
    n_l_plus: float
    n_u_minus: float
    knife_edge: bool


#: Rebuild ThresholdBounds from its JSON dictionary form.
bounds_from_dict = functools.partial(decode, ThresholdBounds)


class _SignTester:
    """Banded sign tests on normalized F values, tracking band hits."""

    def __init__(self, coef: BenefitCoefficients, tolerance: float):
        self.coef = coef
        self.tolerance = tolerance
        self.band_hit = False

    def sign_f(self, n: int, theta: float) -> int:
        # F(n, theta) / G(n, 1) from their forms divided by r1**n, which
        # underflows long before the sign changes when r1 is small
        c = self.coef
        return self._sign(scaled_aggregate(c, c.alpha, c.beta, n, theta)
                          / scaled_aggregate(c, c.d, c.e, n, 1.0))

    def _sign(self, value: float) -> int:
        sign = banded_sign(value, self.tolerance)
        self.band_hit = self.band_hit or sign == 0
        return sign


#: ``Subcase`` in the order of ``subcase_index``.
SUBCASES = tuple(Subcase)


def subcase_index(orient, at_zero, at_limit):
    """Index into ``SUBCASES`` from the banded signs of the benefit at level 0
    and in its large-n limit; elementwise on numpy columns too (``grid``).

    ``orient`` is 1 in case A and -1 in case B (the threshold test with F
    negated): I where orient*at_zero < 0, else III where orient*at_limit >= 0,
    else II. It is 0 in case C, where the benefit does not depend on n and
    at_zero alone gives I, II (in the band) or III.
    """
    threshold = (orient * at_zero >= 0) * (1 + (orient * at_limit >= 0))
    return (orient == 0) * (at_zero + 1) + (orient != 0) * threshold


def threshold_bounds(coef: BenefitCoefficients, orientation: Orientation,
                     tolerance: float = SIGN_TOLERANCE) -> ThresholdBounds:
    """Classify the subcase and compute the equilibrium bounds.

    The subcase follows from the signs of the benefit at an empty system
    and of its analytic large-n limit; the bounds of subcase II come from
    ``subcase_ii_levels``.

    Raises:
        ScanLimitExceeded: If n_u lies above ``SCAN_LIMIT``, the most pure
            thresholds a report lists.
    """
    tester = _SignTester(coef, tolerance)
    s = 1 if orientation is Orientation.THRESHOLD else -1
    subcase = SUBCASES[subcase_index(s, tester.sign_f(0, 1.0),
                                     tester._sign(h_upper_limit(coef)))]
    if subcase is not Subcase.II:
        levels = (0 if subcase is Subcase.I else math.inf,) * 4
    else:
        *levels, band = subcase_ii_levels(coef, s, tolerance)
        if levels[1] > SCAN_LIMIT:
            raise past_cap(orientation, float(levels[1]))
        levels, tester.band_hit = map(int, levels), tester.band_hit or bool(band)
    return ThresholdBounds(orientation, subcase, *levels, knife_edge=tester.band_hit)


def subcase_ii_levels(coef: BenefitCoefficients, orient, tolerance: float):
    """(n_l, n_u, n_l_plus, n_u_minus, band_hit) of subcase II, in closed form.

    ``orient`` is 1 for the threshold orientation and -1 for the reverse
    one. Arithmetic only, so it runs on floats and elementwise on numpy
    columns (``grid``); levels are floats, ``inf`` where a test never holds.

    Divided by r1**n, orient*F(n, theta)/G(n, 1) is orient*(A + B*s)/(d + e*s)
    with s = (r2/r1)**n, A = alpha/delta1(theta), B = beta/delta2(theta)
    and d + e*s > 0. So the banded test ``value < c`` (or ``<= c``) is
    c0 + c1*s < 0 (or ``<= 0``) with c0 = orient*A - c*d, c1 = orient*B - c*e.
    As s falls from 1 toward 0, it holds at every level when c1 <= 0 and
    c0 passes it, from level ceil(log(-c0/c1)/log_ratio) when c1 > 0, and
    never when c0 fails it. The sign tests on either side of that level
    undo a rounding of the logarithm by one level.

    n_u is the first level of ``< -tolerance`` at theta = 1 and n_l the
    first of ``<= tolerance`` at theta = 0, if below n_u. The strict bounds
    read the signs at n_l and n_u - 1. Each banded value is monotone in n,
    so any level in a band lies next to n_l or n_u, where those signs see it.
    """
    log_ratio = coef.log_ratio
    e1, e2 = discounts(coef.z1, coef.z2, 0.0)

    def value(n, d1, d2):
        # orient*F(n, theta)/G(n, 1) in the operation order of _SignTester
        power = np.exp(n * log_ratio)
        return orient * ((coef.alpha / d1 + coef.beta * power / d2)
                         / (coef.d + coef.e * power))

    def first(d1, d2, bound, test):
        c0 = orient * coef.alpha / d1 - bound * coef.d
        c1 = orient * coef.beta / d2 - bound * coef.e
        crossing = np.maximum(np.ceil(np.log(np.divide(-c0, c1)) / log_ratio), 0.0)
        level = np.where(test(c0, 0.0), np.where(c1 > 0.0, crossing, 0.0), np.inf)
        below = test(value(level - 1.0, d1, d2), bound) & (level >= 1.0)
        holds = test(value(level, d1, d2), bound) | (level == np.inf)
        return np.where(below, level - 1.0, np.where(holds, level, level + 1.0))

    with np.errstate(all="ignore"):
        n_u = first(1.0, 1.0, -tolerance, np.less)
        n_l = np.minimum(first(e1, e2, tolerance, np.less_equal), n_u)
        at_l, below_u = value(n_l, e1, e2), value(n_u - 1.0, 1.0, 1.0)
    return (n_l, n_u, np.where(at_l < -tolerance, n_l, n_l + 1.0),
            np.where(below_u > tolerance, n_u, n_u - 1.0),
            (abs(at_l) <= tolerance) | (abs(below_u) <= tolerance))


def past_cap(orientation: Orientation, n_u: float) -> ScanLimitExceeded:
    """The error of an upper bound n_u that lies above ``SCAN_LIMIT``."""
    return ScanLimitExceeded(f"upper-{orientation.value} bound n_u = {n_u:.15g} lies above "
                             f"{SCAN_LIMIT}, the most pure thresholds a report lists")


def mixing_probability(coef: BenefitCoefficients, n0: int) -> float:
    """Joining probability theta(n0) solving F(n0, theta) = 0.

    Divided by r1**n0, F(n0, theta) is alpha*(1-z1)/(theta-z1) +
    beta*s*(1-z2)/(theta-z2) with s = (r2/r1)**n0 = exp(n0*log_ratio).
    Clearing the denominators leaves an equation linear in theta:

        theta = [alpha*(1-z1)*z2 + beta*s*(1-z2)*z1] / [alpha*(1-z1) + beta*s*(1-z2)]

    Taken from the roots, it keeps the digits that the rounded r1 and r2
    lose as clearing slows (r1 -> 1), and s cannot underflow to a 0/0.

    Raises:
        NoInteriorRoot: If the computed theta does not lie strictly inside
            (0, 1), which signals that n0 is outside the admissible mixed
            range.
    """
    z1, z2 = coef.z1, coef.z2
    w1 = coef.alpha * (1.0 - z1)
    w2 = coef.beta * math.exp(n0 * coef.log_ratio) * (1.0 - z2)
    denom = w1 + w2
    if denom == 0.0:
        raise NoInteriorRoot(f"F(n={n0}, theta) has no interior root (degenerate)")
    theta = (w1 * z2 + w2 * z1) / denom
    slack = 1e-12
    if not slack < theta < 1.0 - slack:
        raise NoInteriorRoot(f"computed theta {theta!r} is outside (0, 1) at n0={n0}")
    return theta


@dataclass(frozen=True)
class EquilibriumItem(Wire):
    """One member of the equilibrium set.

    ``strategy`` is None for the all-strategies family of congestion case
    C at the knife edge, where enumeration is impossible; ``tag`` is one
    of ``pure``, ``mixed``, ``reverse``, ``family``.
    """

    strategy: Strategy | None
    tag: str
    verification: VerificationReport | None = None
    note: str = ""


@dataclass(frozen=True)
class EquilibriumReport(Wire):
    """Complete equilibrium analysis of one model and reward structure."""

    case: CaseLabel
    subcase: Subcase
    bounds: ThresholdBounds | None
    equilibria: tuple[EquilibriumItem, ...]
    social_optimum: Strategy | None
    social_coincides: bool
    knife_edge: bool
    tolerance: float = field(default=SIGN_TOLERANCE)


#: Rebuild an EquilibriumReport from its JSON dictionary form.
report_from_dict = functools.partial(decode, EquilibriumReport)


def compute_equilibria(model: ValidatedModel, spec: SpectralData,
                       coef: BenefitCoefficients, rc: RewardCost,
                       verify: bool = True,
                       tolerance: float = SIGN_TOLERANCE) -> EquilibriumReport:
    """Compute the complete equilibrium set with optional oracle checks.

    Congestion case A emits the contiguous pure-threshold range plus every
    admissible mixed threshold; case B emits its single reverse-threshold
    equilibrium; case C picks always-balk, always-join, or the
    all-strategies family by the sign of the constant benefit. In case A
    subcase II the highest pure threshold is reported as the socially
    optimal strategy (joining imposes no externality on others, and among
    equilibria the widest joining range maximizes realized reward).
    Everywhere else ``social_coincides`` is set without computing an
    optimum: it is asserted, not checked, and in case B subcase II it can
    be wrong.

    When ``verify`` is set, every concrete equilibrium is checked by the
    balance-oracle best-response verifier and the per-strategy report is
    attached.
    """
    case = congestion_case(model)
    if case.kind is CaseKind.CASE_C:
        tester = _SignTester(coef, tolerance)
        sign = tester.sign_f(0, 1.0)
        # a constant benefit: its limit is its value at 0
        subcase = SUBCASES[subcase_index(0, sign, sign)]
        bounds, knife = None, tester.band_hit
    else:
        orientation = (Orientation.THRESHOLD if case.kind is CaseKind.CASE_A
                       else Orientation.REVERSE)
        bounds = threshold_bounds(coef, orientation, tolerance)
        subcase, knife = bounds.subcase, bounds.knife_edge
    items, root_knife = equilibrium_members(case.kind, subcase, coef, bounds)
    social = (PureThreshold(int(bounds.n_u))
              if case.kind is CaseKind.CASE_A and subcase is Subcase.II else None)

    if verify:
        items = [item if item.strategy is None else dataclasses.replace(
                     item, verification=oracle_verify.verify_equilibrium(model, rc, item.strategy))
                 for item in items]

    return EquilibriumReport(
        case=case, subcase=subcase, bounds=bounds,
        equilibria=tuple(items),
        social_optimum=social, social_coincides=social is None,
        knife_edge=knife or root_knife, tolerance=tolerance,
    )


def equilibrium_members(kind: CaseKind, subcase: Subcase, coef: BenefitCoefficients,
                        bounds: ThresholdBounds | None) -> tuple[list[EquilibriumItem], bool]:
    """The equilibrium set of a classified model, and whether a mixed root
    rounded onto 0 or 1 (a knife edge).

    Only subcase II of cases A and B reads ``coef`` and ``bounds``.
    """
    if kind is CaseKind.CASE_B:
        if subcase is Subcase.I or (subcase is Subcase.II and bounds.n_u_minus == 0):
            return [EquilibriumItem(AlwaysJoin(), "reverse")], False
        if subcase is Subcase.III or bounds.n_l_plus >= 1:
            return [EquilibriumItem(AlwaysBalk(), "reverse")], False
        try:
            theta = mixing_probability(coef, 0)
        except NoInteriorRoot:
            # root rounded onto an endpoint: report the nearer pure
            join_side = abs(f_eval(coef, 0, 1.0)) <= abs(f_eval(coef, 0, 0.0))
            return [EquilibriumItem(AlwaysJoin() if join_side else AlwaysBalk(), "reverse")], True
        return [EquilibriumItem(ReverseThreshold(0, theta), "reverse")], False
    if subcase is not Subcase.II:
        return [EquilibriumItem(AlwaysBalk() if subcase is Subcase.I else AlwaysJoin(),
                                "pure")], False
    if kind is CaseKind.CASE_C:
        return [EquilibriumItem(
            None, "family",
            note="every threshold and reverse-threshold strategy is an equilibrium")], False
    items = [EquilibriumItem(PureThreshold(n0), "pure")
             for n0 in range(int(bounds.n_l), int(bounds.n_u) + 1)]
    root_knife = False
    for n0 in range(int(bounds.n_l_plus), int(bounds.n_u_minus)):
        try:
            theta = mixing_probability(coef, n0)
        except NoInteriorRoot:
            # interior root pushed onto 0 or 1 by rounding: the
            # mixed candidate collapses onto an adjacent pure one
            root_knife = True
            continue
        items.append(EquilibriumItem(MixedThreshold(n0, theta), "mixed"))
    return items, root_knife
