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
tolerance-dependent. Each banded sign flips at most once along n, so the
bounds are found by bisection (see ``threshold_bounds``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass, field

from .benefit import BenefitCoefficients, f_eval, h_upper_limit, scaled_aggregate
from .codec import Wire, decode
from .errors import NoInteriorRoot, ScanLimitExceeded
from .model import CaseKind, CaseLabel, RewardCost, ValidatedModel, congestion_case
# verify_equilibrium is looked up on its module at call time, where
# perfbench's tracer wraps it
from .oracle import verify as oracle_verify
from .oracle.balance import bisect_first, search_first
from .oracle.verify import VerificationReport
from .spectral import SpectralData
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

#: Highest level the search for the upper bound n_u probes.
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
        if abs(value) <= self.tolerance:
            self.band_hit = True
            return 0
        return 1 if value > 0.0 else -1


def threshold_bounds(coef: BenefitCoefficients, orientation: Orientation,
                     tolerance: float = SIGN_TOLERANCE) -> ThresholdBounds:
    """Classify the subcase and compute the equilibrium bounds.

    The subcase follows from the signs of the benefit at an empty system
    and of its analytic large-n limit; only subcase II needs a search.
    F(n, theta)/G(n, 1) is a Moebius function of s = (r2/r1)**n, and s
    falls with n, so each banded sign flips at most once: n_u (the first
    n with ``sign(n, 1) < 0``) is found by doubling and bisection, n_l
    (the first n with ``sign(n, 0) <= 0``) by bisection below n_u. Band
    hits lie next to n_l or n_u, where the strict bounds test again, so
    the knife-edge flag does not depend on the levels probed.

    Raises:
        ScanLimitExceeded: If n_u lies above ``SCAN_LIMIT``, which the limit
            test rules out for consistent coefficients.
    """
    tester = _SignTester(coef, tolerance)
    # the reverse orientation is the threshold one with F negated
    s = 1 if orientation is Orientation.THRESHOLD else -1

    def sign(n: int, theta: float) -> int:
        return s * tester.sign_f(n, theta)

    def bounds(subcase: Subcase, nl: float, nu: float,
               nlp: float, num: float) -> ThresholdBounds:
        return ThresholdBounds(orientation=orientation, subcase=subcase,
                               n_l=nl, n_u=nu, n_l_plus=nlp, n_u_minus=num,
                               knife_edge=tester.band_hit)

    sign_at_zero = sign(0, 1.0)
    sign_limit = s * tester._sign(h_upper_limit(coef))
    if sign_at_zero < 0:
        return bounds(Subcase.I, 0, 0, 0, 0)
    if sign_limit >= 0:
        return bounds(Subcase.III, math.inf, math.inf, math.inf, math.inf)
    n_u = search_first(lambda n: sign(n, 1.0) < 0, SCAN_LIMIT)
    if n_u > SCAN_LIMIT:
        raise ScanLimitExceeded(
            f"upper-{orientation.value} bound lies above the search cap {SCAN_LIMIT}")
    n_l = bisect_first(lambda n: sign(n, 0.0) <= 0, 0, n_u)
    n_l_plus = n_l if sign(n_l, 0.0) < 0 else n_l + 1
    n_u_minus = n_u if sign(n_u - 1, 1.0) > 0 else n_u - 1
    return bounds(Subcase.II, n_l, n_u, n_l_plus, n_u_minus)


def mixing_probability(coef: BenefitCoefficients, n0: int) -> float:
    """Joining probability theta(n0) solving F(n0, theta) = 0.

    Clearing the denominators makes F linear in u = 1 - theta, giving the
    closed form u = F(n0, 1) / (alpha*r1**n0*r2 + beta*r2**n0*r1). Both
    terms are divided by r1**n0, so the ratio is evaluated as
    (alpha + beta*s) / (alpha*r2 + beta*s*r1) with s = (r2/r1)**n0, which
    cannot underflow.

    Raises:
        NoInteriorRoot: If the computed theta does not lie strictly inside
            (0, 1), which signals that n0 is outside the admissible mixed
            range.
    """
    ratio = (coef.r2 / coef.r1) ** n0
    denom = coef.alpha * coef.r2 + coef.beta * ratio * coef.r1
    if denom == 0.0:
        raise NoInteriorRoot(f"F(n={n0}, theta) has no interior root (degenerate)")
    theta = 1.0 - (coef.alpha + coef.beta * ratio) / denom
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

    items: list[EquilibriumItem] = []
    bounds: ThresholdBounds | None = None
    social: Strategy | None = None
    root_knife = False

    if case.kind is CaseKind.CASE_A:
        bounds = threshold_bounds(coef, Orientation.THRESHOLD, tolerance)
        if bounds.subcase is Subcase.I:
            items.append(EquilibriumItem(AlwaysBalk(), "pure"))
        elif bounds.subcase is Subcase.III:
            items.append(EquilibriumItem(AlwaysJoin(), "pure"))
        else:
            for n0 in range(int(bounds.n_l), int(bounds.n_u) + 1):
                items.append(EquilibriumItem(PureThreshold(n0), "pure"))
            for n0 in range(int(bounds.n_l_plus), int(bounds.n_u_minus)):
                try:
                    theta = mixing_probability(coef, n0)
                except NoInteriorRoot:
                    # interior root pushed onto 0 or 1 by rounding: the
                    # mixed candidate collapses onto an adjacent pure one
                    root_knife = True
                    continue
                items.append(EquilibriumItem(MixedThreshold(n0, theta), "mixed"))
            social = PureThreshold(int(bounds.n_u))
    elif case.kind is CaseKind.CASE_B:
        bounds = threshold_bounds(coef, Orientation.REVERSE, tolerance)
        if bounds.subcase is Subcase.I:
            items.append(EquilibriumItem(AlwaysJoin(), "reverse"))
        elif bounds.subcase is Subcase.III:
            items.append(EquilibriumItem(AlwaysBalk(), "reverse"))
        elif bounds.n_u_minus == 0:
            items.append(EquilibriumItem(AlwaysJoin(), "reverse"))
        elif bounds.n_l_plus >= 1:
            items.append(EquilibriumItem(AlwaysBalk(), "reverse"))
        else:
            try:
                theta = mixing_probability(coef, 0)
                items.append(EquilibriumItem(ReverseThreshold(0, theta), "reverse"))
            except NoInteriorRoot:
                # root rounded onto an endpoint: report the nearer pure
                root_knife = True
                join_side = abs(f_eval(coef, 0, 1.0)) <= abs(f_eval(coef, 0, 0.0))
                edge = AlwaysJoin() if join_side else AlwaysBalk()
                items.append(EquilibriumItem(edge, "reverse"))
    else:
        tester = _SignTester(coef, tolerance)
        sign = tester.sign_f(0, 1.0)
        if sign < 0:
            subcase = Subcase.I
            items.append(EquilibriumItem(AlwaysBalk(), "pure"))
        elif sign > 0:
            subcase = Subcase.III
            items.append(EquilibriumItem(AlwaysJoin(), "pure"))
        else:
            subcase = Subcase.II
            items.append(EquilibriumItem(
                None, "family",
                note="every threshold and reverse-threshold strategy is an equilibrium"))
        knife = tester.band_hit
    if bounds is not None:
        subcase, knife = bounds.subcase, bounds.knife_edge or root_knife

    if verify:
        items = [item if item.strategy is None else dataclasses.replace(
                     item, verification=oracle_verify.verify_equilibrium(model, rc, item.strategy))
                 for item in items]

    return EquilibriumReport(
        case=case, subcase=subcase, bounds=bounds,
        equilibria=tuple(items),
        social_optimum=social, social_coincides=social is None,
        knife_edge=knife, tolerance=tolerance,
    )
