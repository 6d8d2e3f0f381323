"""Closed-form stationary distributions for every strategy class.

When every customer joins, the stationary masses p(n, e) of the joint
(queue length, environment) chain satisfy a second-order linear recursion
in n whose characteristic roots z2 < z1 < 0 are real. Writing
r_e = 1/(1 - z_e) turns the solution into a two-term geometric mixture

    p(n, e) = A_e * r1**n + B_e * r2**n,        0 < r2 < r1 < 1,

with coefficients A_e, B_e fixed by the boundary behaviour at the empty
system. Every other strategy, join vectors included, keeps this mixture
on the levels it reaches, with each branch divided by its own divisor:
its law is a *piece* per step of the strategy (``Stepped.steps``). A
piece covers levels first..last, and on those levels every quantity
linear in the masses (the masses themselves, the arrival weights, and
the benefit aggregates of ``benefit``) is its always-join form with the
r1 branch divided by d1 and the r2 branch by d2. One recursion over the
steps gives the divisors (``law_pieces``): with delta(theta) = 1 -
(1-theta)*r for each branch, level n multiplies the divisor by
delta(j(n)) and divides it by j(n-1). So a stretch of certain joining
keeps its divisor, and the law ends after a level that balks:
always-join is levels 0.. with divisors (1, 1), and a pure threshold n0
adds level n0 with delta(0).

``scaled_mixture`` is the one evaluation kernel: masses, tails, F, G and
Palm weights are all calls of it with a piece's divisors. Divisors and
powers come from the roots, as delta(theta) = (theta - z)/(1 - z) and
log r = -log1p(-z): as clearing slows, r1 -> 1, and 1 - r1 taken from the
rounded r1 loses every digit near the rounding unit. Tail sums are closed
geometric forms, never series truncations; the truncation-based
evaluation lives in the oracle package so the two routes stay independent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, FloatRangeError
from .model import ValidatedModel, env_index
from .strategies import Strategy

#: Masses more negative than this raise; tinier negatives clip to zero.
MASS_CLIP = 1e-14


@dataclass(frozen=True)
class SpectralData:
    """Characteristic roots, geometric ratios, and mixture coefficients.

    ``z1`` is the root taking the positive square root of the discriminant,
    so z2 < z1 < 0 and the ratios satisfy 0 < r2 < r1 < 1, with
    ``log_ratio`` = log(r2/r1) taken from the roots. ``a1, b1`` (resp.
    ``a2, b2``) are the environment-1 (resp. 2) mixture coefficients.
    """

    delta: float
    z1: float
    z2: float
    r1: float
    r2: float
    log_ratio: float
    a1: float
    b1: float
    a2: float
    b2: float

    def coefficients(self, env: int) -> tuple[float, float]:
        """Mixture coefficient pair (A_e, B_e) for environment ``env`` in {1, 2}."""
        return ((self.a1, self.b1), (self.a2, self.b2))[env_index(env)]


#: ``elementwise`` on Python floats: ``math`` and conditional expressions,
#: with numpy's IEEE results where ``math`` raises or returns an int
#: (exp overflows above 709.782712893384 = log(sys.float_info.max)).
FLOATS = SimpleNamespace(
    sqrt=math.sqrt, log1p=math.log1p, frexp=math.frexp, ldexp=math.ldexp,
    exp=lambda x: math.inf if x > 709.782712893384 else math.exp(x),
    log=lambda x: math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan,
    ceil=lambda x: float(math.ceil(x)) if math.isfinite(x) else x,
    divide=lambda x, y: x / y if y else x * math.copysign(math.inf, y),
    maximum=lambda x, y: x if x >= y or x != x else y,
    minimum=lambda x, y: x if x <= y or x != x else y,
    where=lambda condition, x, y: x if condition else y, any=bool)
FLOATS.libm_exp = FLOATS.exp

#: ``elementwise`` on numpy columns. log1p and libm_exp (for a theta written to every
#: digit) are libm's, mapped over the column, as on floats: numpy's may differ in the last bit.
COLUMNS = SimpleNamespace(
    sqrt=np.sqrt, log1p=lambda x: np.array(list(map(math.log1p, x.tolist()))), exp=np.exp,
    libm_exp=lambda x: np.array(list(map(FLOATS.libm_exp, x.tolist()))),
    frexp=np.frexp, ldexp=np.ldexp, log=np.log, ceil=np.ceil, divide=np.divide,
    maximum=np.maximum, minimum=np.minimum, where=np.where, any=np.any)


def elementwise(x) -> SimpleNamespace:
    """The functions that the closed forms shared by a point and a grid call,
    for ``x`` a float (``FLOATS``) or a numpy column (``COLUMNS``)."""
    return COLUMNS if isinstance(x, np.ndarray) else FLOATS


def derive_spectral(model: ValidatedModel) -> SpectralData:
    """The arithmetic of ``spectral_quantities``, without its range checks;
    elementwise on a model whose rates are numpy columns too (see ``grid``).
    A division by 0.0 gives an IEEE infinity or NaN, for the checks to name."""
    p, k = model.params, model.k
    l1, l2 = p.lambda1, p.lambda2
    linear = l1 * (p.mu2 + p.q21) + l2 * (p.mu1 + p.q12)
    gap = l2 * (p.mu1 + p.q12) - l1 * (p.mu2 + p.q21)
    delta = gap * gap + 4.0 * l1 * l2 * p.q12 * p.q21
    xp = elementwise(delta)
    sq = xp.sqrt(delta)
    z2 = xp.divide(-(linear + sq), 2.0 * l1 * l2)
    z1 = xp.divide(k, l1 * l2 * z2)
    # u = l1*z + mu1 + q12 and v = l2*z + mu2 + q21 have the product q12*q21 at
    # both roots: u1 = (sq + gap)/(2*l2) and v1 = (sq - gap)/(2*l1) at z1, and
    # -u2 = (sq - gap)/(2*l2) and -v2 = (sq + gap)/(2*l1) at z2. At each root the
    # factor that adds sq and |gap| cancels nothing, and the other is q12*q21 over
    # it, times its mu before the last product so as not to underflow where the
    # term does not. The numerators are mu1*v1 + mu2*q12 and mu2*u1 + mu1*q21 at
    # z1, and mu1*|v2| - mu2*q12 and mu2*|u2| - mu1*q21 at z2, whose terms are
    # each taken over sq before their products
    up = gap >= 0.0

    def over_sq(mu, q):
        # mu*q/sq, the quotient first unless it is not a normal float; sq is
        # at most 1.4e154, so mu*q is finite where q/sq underflows
        ratio = xp.divide(q, sq)
        return xp.where(_normal(ratio), mu * ratio, xp.divide(mu * q, sq))

    q_big, q_small = xp.where(up, p.q21, p.q12), xp.where(up, p.q12, p.q21)
    big1 = (sq + abs(gap)) / xp.where(up, 2.0 * l2, 2.0 * l1)   # u1 if up, else v1
    small1 = q_big * (xp.where(up, p.mu1, p.mu2) * xp.divide(q_small, big1))
    big2 = xp.divide(sq + abs(gap), sq) / xp.where(up, 2.0 * l1, 2.0 * l2)   # |v2|/sq if up
    small2 = q_big * xp.divide(over_sq(xp.where(up, p.mu2, p.mu1), q_small), big2 * sq)
    pe1, pe2 = model.env_stationary
    return SpectralData(
        delta=delta, z1=z1, z2=z2, r1=1.0 / (1.0 - z1), r2=1.0 / (1.0 - z2),
        log_ratio=xp.log1p(-z1) - xp.log1p(-z2),
        a1=xp.divide((xp.where(up, small1, p.mu1 * big1) + p.mu2 * p.q12) * pe1,
                     sq * (1.0 - z1)),
        b1=xp.divide((xp.where(up, p.mu1 * big2, small2) - over_sq(p.mu2, p.q12)) * pe1,
                     1.0 - z2),
        a2=xp.divide((xp.where(up, p.mu2 * big1, small1) + p.mu1 * p.q21) * pe2,
                     sq * (1.0 - z1)),
        b2=xp.divide((xp.where(up, small2, p.mu2 * big2) - over_sq(p.mu1, p.q21)) * pe2,
                     1.0 - z2))


def _checked(model: ValidatedModel, spec: SpectralData) -> tuple[dict, dict]:
    """The quantities that must be normal floats, then the mixture coefficients,
    which must be finite (0 and subnormals pass), by name in the order of the checks."""
    p = model.params
    return ({"lambda1*lambda2": p.lambda1 * p.lambda2, "the discriminant": spec.delta,
             "the root z2": spec.z2, "the root z1": spec.z1},
            {"the mixture coefficient a1": spec.a1, "the mixture coefficient b1": spec.b1,
             "the mixture coefficient a2": spec.a2, "the mixture coefficient b2": spec.b2})


def _normal(value):
    """Whether ``value`` is neither 0, subnormal, infinite nor NaN; elementwise on columns."""
    return (abs(value) >= sys.float_info.min) & (abs(value) <= sys.float_info.max)


def _finite(value):
    """Whether ``value`` is neither infinite nor NaN; elementwise on columns."""
    return abs(value) <= sys.float_info.max


#: The test of each part of ``_checked``, and the range it names.
_TESTS = ((_normal, "normal"), (_finite, "finite"))


def in_float_range(model: ValidatedModel, spec: SpectralData):
    """Where ``spectral_quantities`` raises no FloatRangeError, on ``derive_spectral`` columns."""
    return np.logical_and.reduce([test(value) for (test, _), checked in
                                  zip(_TESTS, _checked(model, spec))
                                  for value in checked.values()])


def spectral_quantities(model: ValidatedModel) -> SpectralData:
    """Compute the discriminant, roots, ratios, and mixture coefficients.

    The roots solve l1*l2*z**2 + (l1*(mu2+q21) + l2*(mu1+q12))*z + K = 0
    with K = mu1*mu2 + mu1*q21 + mu2*q12 > 0, so both are strictly negative
    and the discriminant is strictly positive (a square plus a positive
    term). The smaller root is computed directly and the larger one through
    the product identity z1*z2 = K/(l1*l2), which avoids cancellation.
    FloatRangeError names the first of l1*l2, delta, z2, z1 that is not a
    normal float, or else the first of a1, b1, a2, b2 that is not finite.
    """
    spec = derive_spectral(model)
    for (test, kind), checked in zip(_TESTS, _checked(model, spec)):
        for name, value in checked.items():
            if not test(value):
                raise FloatRangeError(
                    f"{name} is {float(value)!r}, outside the range of {kind} floats")
    return spec


def _clip_mass(value: float, where: str) -> float:
    if value >= 0.0:
        return value
    if value >= -MASS_CLIP:
        return 0.0
    raise ConsistencyError(f"negative stationary mass {value!r} at {where}")


def branch_power(z: float, n: int) -> float:
    """r**n for the branch r = 1/(1 - z), as exp(-n*log1p(-z))."""
    return math.exp(-n * math.log1p(-z))


def discounts(z1: float, z2: float, theta: float) -> tuple[float, float]:
    """delta(theta) = 1 - (1-theta)*r for the r1 and the r2 branch."""
    return (theta - z1) / (1.0 - z1), (theta - z2) / (1.0 - z2)


def scaled_mixture(log_ratio: float, c1: float, c2: float, n: int,
                   d1: float, d2: float) -> float:
    """(c1*r1**n/d1 + c2*r2**n/d2) / r1**n, given log_ratio = log(r2/r1).

    Divided by r1**n, the value stays finite where r1**n underflows, and
    ratios of two such values equal the unscaled ratios.
    """
    return c1 / d1 + c2 * math.exp(n * log_ratio) / d2


def _level_sum(z: float, count: float) -> float:
    """1/(1 + r + ... + r**(count-1)): the divisor that sums ``count`` levels."""
    if count == 1:
        return 1.0
    # 1 - r over 1 - r**count; expm1(-inf) = -1 covers an unbounded piece
    return -z / (1.0 - z) / -math.expm1(-count * math.log1p(-z))


class Piece(NamedTuple):
    """Levels ``first``..``last`` of a law (``last`` may be ``math.inf``).

    On these levels every quantity linear in the masses is its always-join
    form with the r1 branch divided by ``d1`` and the r2 branch by ``d2``.
    """

    first: int
    last: float
    d1: float
    d2: float


def law_pieces(z1: float, z2: float, strategy: Strategy) -> tuple[Piece, ...]:
    """The pieces of the closed-form law of ``strategy``, a piece per step.

    Each branch ``v r^n`` of the always-join mixture solves the always-join
    recursion, ``v r [diag(lambda + mu + q) - S] = v diag(lambda)``, so under
    a joining probability j, ``v r [diag(lambda j + mu + q) - S] = v diag(lambda)
    delta(j)``. So ``p(n) = sum of v r^n / D(n)`` over the branches solves
    level n's balance equation, ``p(n) [diag(lambda j(n) + mu + q) - S] =
    p(n-1) diag(lambda j(n-1))``, with the divisor

        D(n) = D(n-1) delta(j(n)) / j(n-1),     D(-1) = 1, j(-1) = 1,

    and level 0 reads the clearing inflow ``pi diag(mu)`` as always-join
    does. delta(1) = 1, so a stretch of certain joining is one piece; every
    other step covers one level, and the law ends after a level with j = 0.
    """
    pieces, d1, d2, j = [], 1.0, 1.0, 1.0
    for first, end, theta in strategy.stretches():
        e1, e2 = discounts(z1, z2, theta)
        n = first
        while n < end and j > 0.0:
            d1, d2 = d1 * e1 / j, d2 * e2 / j
            last = end - 1 if theta == 1.0 else n
            pieces.append(Piece(n, last, d1, d2))
            n, j = last + 1, theta
    return tuple(pieces)


def piece_at(pieces: tuple[Piece, ...], n: int) -> Piece | None:
    """The piece holding level ``n``, or None where the law has no mass."""
    for piece in pieces:
        if piece.first <= n <= piece.last:
            return piece
    return None


@dataclass(frozen=True)
class StationaryDistribution:
    """Evaluation handle for a stationary (queue length, environment) law.

    The law is ``pieces`` of the always-join mixture of ``spec``, a piece
    per step of the strategy; levels outside every piece carry no mass.
    ``pmf`` is a closed form, O(1) at any level, and ``tail`` is O(1) per
    piece.
    """

    spec: SpectralData
    pieces: tuple[Piece, ...]

    def _levels(self, piece: Piece, start: int, stop: float, a: float, b: float) -> float:
        """Mass on the levels start..stop-1 of ``piece``, from an environment's (A_e, B_e)."""
        s = self.spec
        count = stop - start
        return branch_power(s.z1, start) * scaled_mixture(
            s.log_ratio, a, b, start,
            piece.d1 * _level_sum(s.z1, count), piece.d2 * _level_sum(s.z2, count))

    def pmf(self, n: int, env: int) -> float:
        """Stationary mass of state (n, env), env in {1, 2}."""
        a, b = self.spec.coefficients(env)
        if n < 0:
            raise ValueError(f"bad state ({n}, {env})")
        piece = piece_at(self.pieces, n)
        if piece is None:
            return 0.0
        return _clip_mass(self._levels(piece, n, n + 1, a, b), f"pmf({n}, {env})")

    def tail(self, m: int, env: int) -> float:
        """Closed-form tail mass: sum of pmf(n, env) over n >= m."""
        a, b = self.spec.coefficients(env)
        if m < 0:
            raise ValueError(f"bad tail query ({m}, {env})")
        total = sum((self._levels(piece, max(m, piece.first), piece.last + 1, a, b)
                     for piece in self.pieces if m <= piece.last), 0.0)
        return _clip_mass(total, f"tail({m}, {env})")

    def total_mass(self) -> float:
        """Closed-form total mass; equals 1 up to rounding."""
        return self.tail(0, 1) + self.tail(0, 2)


def stationary_distribution(model: ValidatedModel, spec: SpectralData,
                            strategy: Strategy) -> StationaryDistribution:
    """The closed-form stationary law of ``strategy``."""
    return StationaryDistribution(spec, law_pieces(spec.z1, spec.z2, strategy))
