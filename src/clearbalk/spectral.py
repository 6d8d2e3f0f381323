"""Closed-form stationary distributions for every strategy class.

When every customer joins, the stationary masses p(n, e) of the joint
(queue length, environment) chain satisfy a second-order linear recursion
in n whose characteristic roots z2 < z1 < 0 are real. Writing
r_e = 1/(1 - z_e) turns the solution into a two-term geometric mixture

    p(n, e) = A_e * r1**n + B_e * r2**n,        0 < r2 < r1 < 1,

with coefficients A_e, B_e fixed by the boundary behaviour at the empty
system. Every other strategy class keeps this mixture on the levels it
reaches and moves the rest of the tail onto at most two of them, so its
law is at most three *pieces*. A piece covers levels first..last, and on
those levels every quantity linear in the masses (the masses themselves,
the arrival weights, and the benefit aggregates of ``benefit``) is its
always-join form with the r1 branch divided by d1 and the r2 branch by
d2. With delta(theta) = 1 - (1-theta)*r for each branch:

* always-join: levels 0.. with divisors (1, 1);
* a mixed threshold (n0, theta), pure when theta = 0: levels below n0
  with (1, 1); level n0 with delta(theta), the (1-theta)-discounted tail;
  and, when theta > 0, level n0+1 with delta(theta)*(1-r)/theta, the
  plain tail minus (1-theta) times the discounted one;
* always-balk and its steady-state equivalents: the pure threshold at 0;
* a reverse threshold at 0 with interior theta: level 0 with
  delta(theta), levels 1.. with delta(theta)/theta.

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
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConsistencyError
from .model import ValidatedModel
from .strategies import (
    AlwaysBalk,
    AlwaysJoin,
    JoinVector,
    MixedThreshold,
    PureThreshold,
    ReverseThreshold,
    Strategy,
)

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
        if env == 1:
            return (self.a1, self.b1)
        if env == 2:
            return (self.a2, self.b2)
        raise ValueError(f"environment must be 1 or 2, got {env}")


def spectral_quantities(model: ValidatedModel) -> SpectralData:
    """Compute the discriminant, roots, ratios, and mixture coefficients.

    The roots solve l1*l2*z**2 + (l1*(mu2+q21) + l2*(mu1+q12))*z + K = 0
    with K = mu1*mu2 + mu1*q21 + mu2*q12 > 0, so both are strictly negative
    and the discriminant is strictly positive (a square plus a positive
    term). The smaller root is computed directly and the larger one through
    the product identity z1*z2 = K/(l1*l2), which avoids cancellation.
    """
    p = model.params
    l1, l2 = p.lambda1, p.lambda2
    linear = l1 * (p.mu2 + p.q21) + l2 * (p.mu1 + p.q12)
    delta = (l2 * (p.mu1 + p.q12) - l1 * (p.mu2 + p.q21)) ** 2 + 4.0 * l1 * l2 * p.q12 * p.q21
    sq = math.sqrt(delta)
    k = p.mu1 * p.mu2 + p.mu1 * p.q21 + p.mu2 * p.q12
    z2 = -(linear + sq) / (2.0 * l1 * l2)
    z1 = k / (l1 * l2 * z2)
    r1 = 1.0 / (1.0 - z1)
    r2 = 1.0 / (1.0 - z2)
    pe1, pe2 = model.env_stationary
    a1 = (p.mu1 * l2 * z1 + k) * pe1 / (sq * (1.0 - z1))
    b1 = -(p.mu1 * l2 * z2 + k) * pe1 / (sq * (1.0 - z2))
    a2 = (p.mu2 * l1 * z1 + k) * pe2 / (sq * (1.0 - z1))
    b2 = -(p.mu2 * l1 * z2 + k) * pe2 / (sq * (1.0 - z2))
    return SpectralData(delta=delta, z1=z1, z2=z2, r1=r1, r2=r2,
                        log_ratio=math.log1p(-z1) - math.log1p(-z2),
                        a1=a1, b1=b1, a2=a2, b2=b2)


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


def _threshold_pieces(z1: float, z2: float, n0: int, theta: float) -> tuple[Piece, ...]:
    d1, d2 = discounts(z1, z2, theta)
    pieces = [Piece(0, n0 - 1, 1.0, 1.0)] if n0 > 0 else []
    pieces.append(Piece(n0, n0, d1, d2))
    if theta > 0.0:
        e1, e2 = discounts(z1, z2, 0.0)
        pieces.append(Piece(n0 + 1, n0 + 1, d1 * e1 / theta, d2 * e2 / theta))
    return tuple(pieces)


def law_pieces(z1: float, z2: float, strategy: Strategy) -> tuple[Piece, ...]:
    """The pieces of the closed-form law of ``strategy``.

    Raises:
        ValueError: For JoinVector strategies, which have no closed form;
            the balance and simulation oracles cover them.
    """
    if isinstance(strategy, AlwaysJoin):
        return (Piece(0, math.inf, 1.0, 1.0),)
    if isinstance(strategy, ReverseThreshold) and strategy.n0 == 0 and strategy.theta > 0.0:
        d1, d2 = discounts(z1, z2, strategy.theta)
        return (Piece(0, 0, d1, d2), Piece(1, math.inf, d1 / strategy.theta, d2 / strategy.theta))
    if isinstance(strategy, (AlwaysBalk, ReverseThreshold)):
        # the other reverse thresholds never leave the empty system
        return _threshold_pieces(z1, z2, 0, 0.0)
    if isinstance(strategy, PureThreshold):
        return _threshold_pieces(z1, z2, strategy.n0, 0.0)
    if isinstance(strategy, MixedThreshold):
        return _threshold_pieces(z1, z2, strategy.n0, strategy.theta)
    if isinstance(strategy, JoinVector):
        raise ValueError("join vectors have no closed form; "
                         "use the balance or simulation oracle")
    raise TypeError(f"not a strategy: {strategy!r}")


def piece_at(pieces: tuple[Piece, ...], n: int) -> Piece | None:
    """The piece holding level ``n``, or None where the law has no mass."""
    for piece in pieces:
        if piece.first <= n <= piece.last:
            return piece
    return None


@dataclass(frozen=True)
class StationaryDistribution:
    """Evaluation handle for a stationary (queue length, environment) law.

    The law is at most three ``pieces`` of the always-join mixture of
    ``spec``; levels outside every piece carry no mass. ``pmf`` and
    ``tail`` are closed forms, O(1) at any level.
    """

    spec: SpectralData
    pieces: tuple[Piece, ...]

    @property
    def support_bound(self) -> int | None:
        """Largest level with positive mass, or None for a geometric tail."""
        return None if self.pieces[-1].last == math.inf else self.pieces[-1].last

    def _levels(self, piece: Piece, start: int, stop: float, env: int) -> float:
        """Mass of ``env`` on the levels start..stop-1 of ``piece``."""
        s = self.spec
        a, b = s.coefficients(env)
        count = stop - start
        return branch_power(s.z1, start) * scaled_mixture(
            s.log_ratio, a, b, start,
            piece.d1 * _level_sum(s.z1, count), piece.d2 * _level_sum(s.z2, count))

    def pmf(self, n: int, env: int) -> float:
        """Stationary mass of state (n, env), env in {1, 2}."""
        if n < 0 or env not in (1, 2):
            raise ValueError(f"bad state ({n}, {env})")
        piece = piece_at(self.pieces, n)
        if piece is None:
            return 0.0
        return _clip_mass(self._levels(piece, n, n + 1, env), f"pmf({n}, {env})")

    def tail(self, m: int, env: int) -> float:
        """Closed-form tail mass: sum of pmf(n, env) over n >= m."""
        if m < 0 or env not in (1, 2):
            raise ValueError(f"bad tail query ({m}, {env})")
        total = sum((self._levels(piece, max(m, piece.first), piece.last + 1, env)
                     for piece in self.pieces if m <= piece.last), 0.0)
        return _clip_mass(total, f"tail({m}, {env})")

    def env_marginal(self, env: int) -> float:
        """Marginal stationary probability of environment ``env``."""
        return self.tail(0, env)

    def total_mass(self) -> float:
        """Closed-form total mass; equals 1 up to rounding."""
        return self.tail(0, 1) + self.tail(0, 2)


def stationary_always_join(model: ValidatedModel, spec: SpectralData) -> StationaryDistribution:
    """Stationary law when every customer joins: the pure geometric mixture."""
    return stationary_distribution(model, spec, AlwaysJoin())


def stationary_threshold(model: ValidatedModel, spec: SpectralData,
                         n0: int, theta: float) -> StationaryDistribution:
    """Stationary law under the mixed threshold (n0, theta); theta = 0 is pure."""
    return stationary_distribution(model, spec, MixedThreshold(n0, theta))


def stationary_reverse(model: ValidatedModel, spec: SpectralData,
                       theta: float) -> StationaryDistribution:
    """Stationary law under the reverse threshold (0, theta).

    theta = 0 gives always-balk, the law of every reverse threshold from
    n0 >= 1 on, and theta = 1 gives always-join.
    """
    return stationary_distribution(model, spec, ReverseThreshold(0, theta))


def stationary_distribution(model: ValidatedModel, spec: SpectralData,
                            strategy: Strategy) -> StationaryDistribution:
    """The closed-form stationary law for any supported strategy.

    Raises:
        ValueError: For JoinVector strategies, whose stationary law has no
            closed form here; use the balance-equation oracle instead.
    """
    return StationaryDistribution(spec, law_pieces(spec.z1, spec.z2, strategy))
