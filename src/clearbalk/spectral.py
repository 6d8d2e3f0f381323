"""Closed-form stationary distributions for every strategy class.

When every customer joins, the stationary masses p(n, e) of the joint
(queue length, environment) chain satisfy a second-order linear recursion
in n whose characteristic roots z2 < z1 < 0 are real. Writing
r_e = 1/(1 - z_e) turns the solution into a two-term geometric mixture

    p(n, e) = A_e * r1**n + B_e * r2**n,        0 < r2 < r1 < 1,

with coefficients A_e, B_e fixed by the boundary behaviour at the empty
system. Every other strategy class induces a stationary law that is a
head-block plus geometric-tail rearrangement of the same mixture:

* a mixed threshold at n0 piles the (1-theta)-discounted tail onto level
  n0 and the complement onto n0+1, leaving levels below n0 untouched;
* a pure threshold piles the whole tail onto n0;
* always-balk concentrates at the empty system with the environment
  marginal;
* a reverse threshold at 0 with interior theta spreads a discounted head
  onto level 0 and keeps a genuine geometric tail above it.

All tail sums are evaluated through the closed geometric forms, never by
series truncation; the truncation-based evaluation lives in the oracle
package precisely so the two routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    so z2 < z1 < 0 and the ratios satisfy 0 < r2 < r1 < 1. ``a1, b1``
    (resp. ``a2, b2``) are the environment-1 (resp. 2) mixture coefficients.
    """

    delta: float
    z1: float
    z2: float
    r1: float
    r2: float
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
                        a1=a1, b1=b1, a2=a2, b2=b2)


def _clip_mass(value: float, where: str) -> tuple[float, int]:
    if value >= 0.0:
        return value, 0
    if value >= -MASS_CLIP:
        return 0.0, 1
    raise ConsistencyError(f"negative stationary mass {value!r} at {where}")


@dataclass(frozen=True)
class StationaryDistribution:
    """Evaluation handle for a stationary (queue length, environment) law.

    The representation is an explicit head block for levels below
    ``geometric_from`` plus, optionally, a geometric mixture
    ``g1[e]*r1**n + g2[e]*r2**n`` valid for every level from
    ``geometric_from`` on. Finite-support laws carry no geometric part and
    expose ``support_bound``; infinite-support laws report ``None`` there
    and answer tail queries in closed form.

    Attributes:
        head: ``head[n] = (mass(n, 1), mass(n, 2))`` for n < geometric_from.
        geometric_from: First level covered by the geometric part.
        g1: Per-environment coefficients of the r1 branch, or None.
        g2: Per-environment coefficients of the r2 branch, or None.
        r1: Larger geometric ratio, or None for finite support.
        r2: Smaller geometric ratio, or None for finite support.
        clipped: Count of head entries clipped from tiny negatives to zero.
    """

    head: tuple[tuple[float, float], ...]
    geometric_from: int
    g1: tuple[float, float] | None
    g2: tuple[float, float] | None
    r1: float | None
    r2: float | None
    clipped: int = 0

    @property
    def support_bound(self) -> int | None:
        """Largest level with positive mass, or None for a geometric tail."""
        if self.g1 is not None:
            return None
        return len(self.head) - 1

    def pmf(self, n: int, env: int) -> float:
        """Stationary mass of state (n, env), env in {1, 2}."""
        if n < 0 or env not in (1, 2):
            raise ValueError(f"bad state ({n}, {env})")
        e = env - 1
        if n < self.geometric_from:
            return self.head[n][e]
        if self.g1 is None:
            return 0.0
        value = self.g1[e] * self.r1 ** n + self.g2[e] * self.r2 ** n
        clipped, _ = _clip_mass(value, f"pmf({n}, {env})")
        return clipped

    def tail(self, m: int, env: int) -> float:
        """Closed-form tail mass: sum of pmf(n, env) over n >= m."""
        if m < 0 or env not in (1, 2):
            raise ValueError(f"bad tail query ({m}, {env})")
        e = env - 1
        total = sum(self.head[n][e] for n in range(m, self.geometric_from))
        if self.g1 is not None:
            start = max(m, self.geometric_from)
            total += self.g1[e] * self.r1 ** start / (1.0 - self.r1)
            total += self.g2[e] * self.r2 ** start / (1.0 - self.r2)
        clipped, _ = _clip_mass(total, f"tail({m}, {env})")
        return clipped

    def env_marginal(self, env: int) -> float:
        """Marginal stationary probability of environment ``env``."""
        return self.tail(0, env)

    def total_mass(self) -> float:
        """Closed-form total mass; equals 1 up to rounding."""
        return self.tail(0, 1) + self.tail(0, 2)


def _head_block(rows: list[tuple[float, float]]) -> tuple[tuple[tuple[float, float], ...], int]:
    clipped = 0
    cleaned: list[tuple[float, float]] = []
    for i, (m1, m2) in enumerate(rows):
        c1, k1 = _clip_mass(m1, f"level {i}, env 1")
        c2, k2 = _clip_mass(m2, f"level {i}, env 2")
        clipped += k1 + k2
        cleaned.append((c1, c2))
    return tuple(cleaned), clipped


def stationary_always_join(model: ValidatedModel, spec: SpectralData) -> StationaryDistribution:
    """Stationary law when every customer joins: the pure geometric mixture."""
    return StationaryDistribution(
        head=(), geometric_from=0,
        g1=(spec.a1, spec.a2), g2=(spec.b1, spec.b2),
        r1=spec.r1, r2=spec.r2,
    )


def _balk_distribution(model: ValidatedModel) -> StationaryDistribution:
    head, clipped = _head_block([model.env_stationary])
    return StationaryDistribution(head=head, geometric_from=1,
                                  g1=None, g2=None, r1=None, r2=None, clipped=clipped)


def _discounted_tail(spec: SpectralData, env: int, n: int, theta: float) -> float:
    """Closed form of sum_{i>=n} (1-theta)**(i-n) * p(i, env)."""
    a, b = spec.coefficients(env)
    w = 1.0 - theta
    return (a * spec.r1 ** n / (1.0 - w * spec.r1)
            + b * spec.r2 ** n / (1.0 - w * spec.r2))


def stationary_threshold(model: ValidatedModel, spec: SpectralData,
                         n0: int, theta: float) -> StationaryDistribution:
    """Stationary law under the mixed threshold strategy at ``n0``.

    Levels below n0 keep the all-join masses. Level n0 receives the
    (1-theta)-discounted tail, level n0+1 the complementary overflow mass
    (absent when theta = 0, which is the pure threshold case), and nothing
    lies above. With n0 = 0 and theta = 0 this degenerates to always-balk.
    """
    if n0 < 0:
        raise ValueError(f"threshold level must be nonnegative, got {n0}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if n0 == 0 and theta == 0.0:
        return _balk_distribution(model)
    rows: list[tuple[float, float]] = []
    for n in range(n0):
        a1n = spec.a1 * spec.r1 ** n + spec.b1 * spec.r2 ** n
        a2n = spec.a2 * spec.r1 ** n + spec.b2 * spec.r2 ** n
        rows.append((a1n, a2n))
    rows.append((_discounted_tail(spec, 1, n0, theta),
                 _discounted_tail(spec, 2, n0, theta)))
    if theta > 0.0:
        w = 1.0 - theta
        overflow = []
        for env in (1, 2):
            plain = _discounted_tail(spec, env, n0 + 1, 0.0)  # undiscounted tail
            discounted = w * _discounted_tail(spec, env, n0 + 1, theta)
            overflow.append(plain - discounted)
        rows.append((overflow[0], overflow[1]))
    head, clipped = _head_block(rows)
    return StationaryDistribution(head=head, geometric_from=len(head),
                                  g1=None, g2=None, r1=None, r2=None, clipped=clipped)


def stationary_reverse(model: ValidatedModel, spec: SpectralData,
                       theta: float) -> StationaryDistribution:
    """Stationary law under the reverse threshold at level 0.

    theta = 0 gives always-balk, theta = 1 always-join. For interior theta
    level 0 collects the full (1-theta)-discounted series and each level
    n >= 1 keeps theta times its discounted tail, which is again a
    two-term geometric mixture, so tail queries stay closed-form.

    Reverse thresholds with n0 >= 1 never leave the empty system in steady
    state; route them here as theta = 0.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if theta == 0.0:
        return _balk_distribution(model)
    w = 1.0 - theta
    head, clipped = _head_block([(
        _discounted_tail(spec, 1, 0, theta),
        _discounted_tail(spec, 2, 0, theta),
    )])
    g1 = (theta * spec.a1 / (1.0 - w * spec.r1), theta * spec.a2 / (1.0 - w * spec.r1))
    g2 = (theta * spec.b1 / (1.0 - w * spec.r2), theta * spec.b2 / (1.0 - w * spec.r2))
    return StationaryDistribution(head=head, geometric_from=1,
                                  g1=g1, g2=g2, r1=spec.r1, r2=spec.r2, clipped=clipped)


def stationary_distribution(model: ValidatedModel, spec: SpectralData,
                            strategy: Strategy) -> StationaryDistribution:
    """Dispatch the closed-form stationary law for any supported strategy.

    Raises:
        ValueError: For JoinVector strategies, whose stationary law has no
            closed form here; use the balance-equation oracle instead.
    """
    if isinstance(strategy, AlwaysJoin):
        return stationary_always_join(model, spec)
    if isinstance(strategy, AlwaysBalk):
        return _balk_distribution(model)
    if isinstance(strategy, PureThreshold):
        return stationary_threshold(model, spec, strategy.n0, 0.0)
    if isinstance(strategy, MixedThreshold):
        return stationary_threshold(model, spec, strategy.n0, strategy.theta)
    if isinstance(strategy, ReverseThreshold):
        if strategy.n0 >= 1:
            return _balk_distribution(model)
        return stationary_reverse(model, spec, strategy.theta)
    if isinstance(strategy, JoinVector):
        raise ValueError("join vectors have no closed-form stationary law; "
                         "use the truncated balance oracle")
    raise TypeError(f"not a strategy: {strategy!r}")
