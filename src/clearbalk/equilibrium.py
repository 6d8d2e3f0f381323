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

Sign tests run on F values normalized by G(n, 1) with a band of tolerance*R;
band hits follow the weak/strict-inequality conventions of the exact
theory and set a knife-edge flag, since the classification is then
tolerance-dependent. Along n each normalized F is a two-term geometric
mixture, so the level where a banded sign flips is a logarithm: ``classify``
gives the subcase, the bounds and the band hits in closed form, on floats
and on the numpy columns of a sweep alike; so does ``listed_levels``, the levels
a point lists, whose members ``equilibrium_members`` makes for a report.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator
from dataclasses import dataclass, field

from .benefit import BenefitCoefficients, f_eval, h_upper_limit
from .codec import Wire
from .errors import FloatRangeError, NoInteriorRoot, ScanLimitExceeded
from .model import (SIGN_TOLERANCE, CaseKind, CaseLabel, RewardCost, ValidatedModel, banded_sign,
                    congestion_case)
# verify_equilibrium is looked up on its module at call time, where
# perfbench's tracer wraps it
from .oracle import verify as oracle_verify
from .oracle.verify import VerificationReport
from .spectral import FLOATS, SpectralData, discounts, elementwise
from .strategies import (
    AlwaysBalk,
    AlwaysJoin,
    MixedThreshold,
    PureThreshold,
    ReverseThreshold,
    Strategy,
)

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


#: ``Subcase`` in the order of the index that ``classify`` gives.
SUBCASES = tuple(Subcase)


def arrival_masses(coef: BenefitCoefficients, orient) -> dict:
    """The arrival masses that ``classify`` divides by, by name: d + e for h0, and
    d for the large-n limit outside case C, which reads no limit (1.0 there)."""
    return {"the arrival mass d + e of level 0": coef.d + coef.e,
            "the r1-branch arrival mass d": elementwise(coef.d).where(orient != 0, coef.d, 1.0)}


def classify(coef: BenefitCoefficients, orient, tolerance: float):
    """(subcase, n_l, n_u, n_l_plus, n_u_minus, band, h0, h_limit) of a model.

    ``orient`` is 1 in case A (threshold), -1 in case B (reverse, the
    threshold tests with F negated) and 0 in case C. Written against
    ``elementwise``: Python ints, floats and bools on floats, and the same
    entry by entry on numpy columns (``grid``).

    The signs of h0 = F(0, 1)/G(0, 1) = (alpha + beta)/(d + e) and of its
    large-n limit h_limit, banded by ``width`` = tolerance*R, give the subcase:
    in cases A and B, I (index 0) where orient*h0 < 0, else III (2) where
    orient*h_limit >= 0, else II (1); in case C, h0 alone gives I, II (in the
    band) or III. ``band`` is whether a sign fell in the band: h0's, h_limit's
    outside case C, and in subcase II those at the levels below. Outside subcase
    II of cases A and B the levels are 0 in subcase I and inf otherwise.

    Divided by r1**n, orient*F(n, theta)/G(n, 1) is orient*(A + B*s)/(d + e*s)
    with s = (r2/r1)**n, A = alpha/delta1(theta), B = beta/delta2(theta) and
    d + e*s > 0. So the banded test ``value < c`` (or ``<= c``) is
    c0 + c1*s < 0 (or ``<= 0``) with c0 = orient*A - c*d, c1 = orient*B - c*e.
    As s falls from 1 toward 0, it holds at every level when c1 <= 0 and
    c0 passes it, from level ceil(log(-c0/c1)/log_ratio) when c1 > 0, and
    never when c0 fails it; the signs on either side of that level undo a
    rounding of the logarithm. n_u is the first level of ``< -width``
    at theta = 1, n_l the first of ``<= width`` at theta = 0 if below
    n_u, and the strict bounds read the signs at n_l and n_u - 1. Each
    banded value is monotone in n, so any level in a band lies next to n_l
    or n_u, where those signs see it.

    Raises:
        FloatRangeError: On floats, naming the first of ``arrival_masses``
            that underflows to 0.0.
    """
    xp = elementwise(coef.alpha)
    for name, mass in arrival_masses(coef, orient).items():
        if xp is FLOATS and mass == 0.0:   # ``grid`` checks its columns itself
            raise FloatRangeError(f"{name} underflows to 0.0")
    h0 = (coef.alpha + coef.beta) / (coef.d + coef.e)
    # a float d of 0.0 passes the mass checks in case C alone, where the benefit
    # is the same at every level, so its limit is h0
    h_limit = xp.where(coef.d == 0.0, h0, h_upper_limit(coef))
    width = tolerance * coef.reward
    at_zero, at_limit = banded_sign(h0, width), banded_sign(h_limit, width)
    threshold = (orient * at_zero >= 0) * (1 + (orient * at_limit >= 0))
    subcase = (orient == 0) * (at_zero + 1) + (orient != 0) * threshold
    band = (at_zero == 0) | ((orient != 0) & (at_limit == 0))
    search = (orient != 0) & (subcase == 1)
    levels = (xp.where(subcase == 0, 0, math.inf),) * 4
    if not xp.any(search):
        return (subcase, *levels, band, h0, h_limit)
    log_ratio = coef.log_ratio
    e1, e2 = discounts(coef.z1, coef.z2, 0.0)

    def value(n, d1, d2):
        # orient*F(n, theta)/G(n, 1), both divided by r1**n as scaled_mixture forms them
        power = xp.exp(n * log_ratio)
        return orient * xp.divide(coef.alpha / d1 + coef.beta * power / d2,
                                  coef.d + coef.e * power)

    def first(d1, d2, bound, test):
        c0 = orient * coef.alpha / d1 - bound * coef.d
        c1 = orient * coef.beta / d2 - bound * coef.e
        crossing = xp.maximum(xp.ceil(xp.divide(xp.log(xp.divide(-c0, c1)), log_ratio)), 0.0)
        level = xp.where(test(c0, 0.0), xp.where(c1 > 0.0, crossing, 0.0), math.inf)
        below = test(value(level - 1.0, d1, d2), bound) & (level >= 1.0)
        holds = test(value(level, d1, d2), bound) | (level == math.inf)
        return xp.where(below, level - 1.0, xp.where(holds, level, level + 1.0))

    n_u = first(1.0, 1.0, -width, operator.lt)
    n_l = xp.minimum(first(e1, e2, width, operator.le), n_u)
    at_l, below_u = value(n_l, e1, e2), value(n_u - 1.0, 1.0, 1.0)
    strict = (xp.where(at_l < -width, n_l, n_l + 1.0),
              xp.where(below_u > width, n_u, n_u - 1.0))
    levels = [xp.where(search, level, fill) for level, fill in zip((n_l, n_u, *strict), levels)]
    hit = (abs(at_l) <= width) | (abs(below_u) <= width)
    return (subcase, *levels, band | (search & hit), h0, h_limit)


#: (orientation of the bounds, ``orient`` of ``classify``) by congestion case
_ORIENTATIONS = {CaseKind.CASE_A: (Orientation.THRESHOLD, 1),
                 CaseKind.CASE_B: (Orientation.REVERSE, -1), CaseKind.CASE_C: (None, 0)}
#: The class of a mixed member by ``orient``
MIXED = {1: MixedThreshold, -1: ReverseThreshold}


def _bounds(orientation: Orientation, index: int, levels, band: bool) -> ThresholdBounds:
    """Bounds of ``classify``'s subcase ``index``, ``levels`` and ``band``; ints outside III."""
    subcase = SUBCASES[index]
    if subcase is Subcase.II and levels[1] > SCAN_LIMIT:
        raise ScanLimitExceeded(f"upper-{orientation.value} bound n_u = {levels[1]:.15g} lies "
                                f"above {SCAN_LIMIT}, the most pure thresholds a report lists")
    if subcase is not Subcase.III:
        levels = map(int, levels)
    return ThresholdBounds(orientation, subcase, *levels, knife_edge=band)


def mixing_probability(coef: BenefitCoefficients, n0):
    """Joining probability theta(n0) solving F(n0, theta) = 0.

    Divided by r1**n0, F(n0, theta) is alpha*(1-z1)/(theta-z1) +
    beta*s*(1-z2)/(theta-z2) with s = (r2/r1)**n0 = exp(n0*log_ratio).
    Clearing the denominators leaves an equation linear in theta:

        theta = [alpha*(1-z1)*z2 + beta*s*(1-z2)*z1] / [alpha*(1-z1) + beta*s*(1-z2)]

    Taken from the roots, it keeps the digits that the rounded r1 and r2
    lose as clearing slows (r1 -> 1), and s cannot underflow to a 0/0. On numpy
    columns (``elementwise``) it gives NaN where the float form raises, else its bits.

    Raises:
        NoInteriorRoot: On floats, if the computed theta does not lie strictly
            inside (0, 1), which signals that n0 is outside the admissible
            mixed range.
    """
    xp = elementwise(coef.alpha)
    z1, z2 = coef.z1, coef.z2
    w1 = coef.alpha * (1.0 - z1)
    w2 = coef.beta * xp.libm_exp(n0 * coef.log_ratio) * (1.0 - z2)
    denom = w1 + w2
    theta = xp.divide(w1 * z2 + w2 * z1, denom)
    interior = (1e-12 < theta) & (theta < 1.0 - 1e-12)
    if xp is FLOATS and not interior:
        raise NoInteriorRoot(f"F(n={n0}, theta) has no interior root (degenerate)" if denom == 0.0
                             else f"computed theta {theta!r} is outside (0, 1) at n0={n0}")
    return xp.where(interior, theta, math.nan)


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


def compute_equilibria(model: ValidatedModel, spec: SpectralData,
                       coef: BenefitCoefficients, rc: RewardCost,
                       verify: bool = True,
                       tolerance: float = SIGN_TOLERANCE) -> EquilibriumReport:
    """Compute the complete equilibrium set with optional oracle checks:
    ``classify`` in the orientation of the case, then ``equilibrium_members``.

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

    The sign band is tolerance*R. When ``verify`` is set, every concrete
    equilibrium is checked by the balance-oracle best-response verifier and
    the per-strategy report is attached.
    """
    case = congestion_case(model)
    index, *levels, band, _, _ = classify(coef, _ORIENTATIONS[case.kind][1], tolerance)
    subcase, bounds, items, knife = equilibrium_members(case.kind, coef, index, levels, band)
    social = (PureThreshold(bounds.n_u)
              if case.kind is CaseKind.CASE_A and subcase is Subcase.II else None)

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


def listed_levels(orient, n_l, n_u, n_l_plus, n_u_minus):
    """What a point of case A subcase II (``orient`` 1) or case B (-1) lists, elementwise:
    (first, end) of its pure thresholds, n_l..n_u in case A, and of its ``MIXED`` ones
    where their theta is interior (else, in case B, the nearer pure), n_l_plus..n_u_minus-1
    in case A and 0 in case B where n_u_minus > 0 and n_l_plus < 1; and whether it lists
    always-join, not always-balk, where it lists no level."""
    xp = elementwise(n_l)
    case_a = orient > 0
    return (xp.where(case_a, n_l, 0), xp.where(case_a, n_u + 1, 0), xp.where(case_a, n_l_plus, 0),
            xp.where(case_a, n_u_minus, (n_u_minus > 0) & (n_l_plus < 1)), n_u_minus == 0)


def equilibrium_members(kind: CaseKind, coef: BenefitCoefficients | None, index: int,
                        levels, band: bool) -> tuple[Subcase, ThresholdBounds | None,
                                                     list[EquilibriumItem], bool]:
    """(subcase, bounds, members, knife edge) of a point of case ``kind`` that
    ``classify`` gave the subcase ``index``, ``levels`` and ``band``: the
    bounds are None in case C, and a mixed root rounded onto 0 or 1 is a
    knife edge too. Only ``listed_levels`` points read ``coef``.

    Raises:
        ScanLimitExceeded: If n_u lies above ``SCAN_LIMIT`` (subcase II).
    """
    orientation, orient = _ORIENTATIONS[kind]
    subcase = SUBCASES[index]
    bounds = None if orientation is None else _bounds(orientation, index, levels, band)
    knife = band
    if orient < 0 or (orient > 0 and subcase is Subcase.II):
        first, end, low, high, join = map(int, listed_levels(orient, *levels))
        tag = "mixed" if orient > 0 else "reverse"
        items = [EquilibriumItem(PureThreshold(n0), "pure") for n0 in range(first, end)]
        for n0 in range(low, high):
            try:
                items.append(EquilibriumItem(MIXED[orient](n0, mixing_probability(coef, n0)), tag))
            except NoInteriorRoot:
                # root rounded onto 0 or 1: a mixed threshold is an adjacent pure one
                knife = True
                if orient < 0:   # the reverse threshold at 0 is the nearer pure
                    near = abs(f_eval(coef, 0, 1.0)) <= abs(f_eval(coef, 0, 0.0))
                    items.append(EquilibriumItem(AlwaysJoin() if near else AlwaysBalk(), tag))
        items = items or [EquilibriumItem(AlwaysJoin() if join else AlwaysBalk(), tag)]
    elif subcase is not Subcase.II:
        items = [EquilibriumItem(AlwaysBalk() if subcase is Subcase.I else AlwaysJoin(), "pure")]
    else:
        items = [EquilibriumItem(None, "family", note="every threshold and "
                                 "reverse-threshold strategy is an equilibrium")]
    return subcase, bounds, items, knife
