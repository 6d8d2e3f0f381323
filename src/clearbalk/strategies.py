"""Strategy classes and their string descriptors.

A (symmetric, mixed) strategy assigns each observed queue length n a joining
probability. Five structured families cover everything the closed-form
analysis handles, plus a raw probability vector for the simulator:

* ``AlwaysJoin``: join at every n. Equivalent to a threshold at infinity
  and to the reverse threshold at 0 with certain joining.
* ``AlwaysBalk``: never join. Equivalent to a pure threshold at 0.
* ``PureThreshold(n0)``: join while fewer than n0 are present, balk at n0
  and above.
* ``MixedThreshold(n0, theta)``: join below n0, join with probability theta
  at exactly n0, balk above.
* ``ReverseThreshold(n0, theta)``: balk below n0, join with probability
  theta at exactly n0, join above. For n0 >= 1 the empty system is never
  left in steady state, so these behave like AlwaysBalk there.
* ``JoinVector(probs)``: explicit per-level joining probabilities, balking
  beyond the last entry. The closed forms do not cover these; both oracles do.

``support_bound()`` names the highest level a stationary chain started
empty can reach, or None when every level is reachable. Every strategy
without a support bound (``AlwaysJoin`` and ``ReverseThreshold(0, theta)``
with ``theta > 0``) joins with certainty from level 1 on, and every bounded
one balks at its bound. ``certain_until`` reads both facts for both
oracles: where a stretch of certain joining ends, which the balance oracle
takes as one constant 2x2 step and the simulator as a range of joins.
The descriptor grammar used by the command-line interface and by report
serialization maps each family to a compact string; ``parse_strategy`` and
``format_strategy`` are exact inverses of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StrategyParseError


def _check_level(n0: int) -> None:
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 0:
        raise ValueError(f"threshold level must be a nonnegative integer, got {n0!r}")


def _check_probability(theta: float, what: str = "theta") -> None:
    if not isinstance(theta, (int, float)) or isinstance(theta, bool) \
            or not math.isfinite(theta) or theta < 0.0 or theta > 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {theta!r}")


@dataclass(frozen=True)
class AlwaysJoin:
    """Join regardless of the observed queue length."""

    def join_prob(self, n: int) -> float:
        return 1.0

    def support_bound(self) -> int | None:
        return None


@dataclass(frozen=True)
class AlwaysBalk:
    """Never join; the stationary queue is empty."""

    def join_prob(self, n: int) -> float:
        return 0.0

    def support_bound(self) -> int:
        return 0


@dataclass(frozen=True)
class PureThreshold:
    """Join iff the observed queue length is strictly below ``n0``."""

    n0: int

    def __post_init__(self) -> None:
        _check_level(self.n0)

    def join_prob(self, n: int) -> float:
        return 1.0 if n < self.n0 else 0.0

    def support_bound(self) -> int:
        return self.n0


@dataclass(frozen=True)
class MixedThreshold:
    """Join below ``n0``, join with probability ``theta`` at ``n0``, balk above."""

    n0: int
    theta: float

    def __post_init__(self) -> None:
        _check_level(self.n0)
        _check_probability(self.theta)

    def join_prob(self, n: int) -> float:
        if n < self.n0:
            return 1.0
        if n == self.n0:
            return self.theta
        return 0.0

    def support_bound(self) -> int:
        return self.n0 + 1 if self.theta > 0.0 else self.n0


@dataclass(frozen=True)
class ReverseThreshold:
    """Balk below ``n0``, join with probability ``theta`` at ``n0``, join above."""

    n0: int
    theta: float

    def __post_init__(self) -> None:
        _check_level(self.n0)
        _check_probability(self.theta)

    def join_prob(self, n: int) -> float:
        if n < self.n0:
            return 0.0
        if n == self.n0:
            return self.theta
        return 1.0

    def support_bound(self) -> int | None:
        # Starting from an empty system, the first join must happen at the
        # level where the joining probability first becomes positive.
        if self.n0 >= 1 or self.theta == 0.0:
            return 0
        return None


@dataclass(frozen=True)
class JoinVector:
    """Raw per-level joining probabilities; levels past the end balk."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("join vector must have at least one entry")
        for i, p in enumerate(self.probs):
            _check_probability(p, what=f"probs[{i}]")

    def join_prob(self, n: int) -> float:
        return self.probs[n] if n < len(self.probs) else 0.0

    def support_bound(self) -> int:
        n = 0
        while n < len(self.probs) and self.probs[n] > 0.0:
            n += 1
        return n


Strategy = AlwaysJoin | AlwaysBalk | PureThreshold | MixedThreshold | ReverseThreshold | JoinVector


def certain_until(strategy: Strategy, start: int, reach: int) -> int:
    """First level from ``start`` to ``reach`` at which ``strategy`` may balk, else ``reach``.

    For ``start >= 1`` or a level of certain joining: an unbounded strategy
    then never balks, and a bounded one balks at its bound at the latest.
    """
    if strategy.support_bound() is None:
        return reach
    n = start
    while n < reach and strategy.join_prob(n) >= 1.0:
        n += 1
    return n


def format_strategy(strategy: Strategy) -> str:
    """Render a strategy as its descriptor string (inverse of parse_strategy)."""
    if isinstance(strategy, AlwaysJoin):
        return "always-join"
    if isinstance(strategy, AlwaysBalk):
        return "always-balk"
    if isinstance(strategy, PureThreshold):
        return f"threshold:{strategy.n0}"
    if isinstance(strategy, MixedThreshold):
        return f"mixed-threshold:{strategy.n0}:{strategy.theta!r}"
    if isinstance(strategy, ReverseThreshold):
        return f"reverse:{strategy.n0}:{strategy.theta!r}"
    if isinstance(strategy, JoinVector):
        return "vector:" + ",".join(repr(p) for p in strategy.probs)
    raise TypeError(f"not a strategy: {strategy!r}")


#: Each descriptor head: its class and the converter of each ``:``-separated
#: field. The one field of ``vector`` holds its ``,``-separated entries.
_DESCRIPTORS = {
    "always-join": (AlwaysJoin, ()),
    "always-balk": (AlwaysBalk, ()),
    "threshold": (PureThreshold, (int,)),
    "mixed-threshold": (MixedThreshold, (int, float)),
    "reverse": (ReverseThreshold, (int, float)),
    "vector": (JoinVector, (lambda entries: tuple(map(float, entries.split(","))),)),
}


def parse_strategy(text: str) -> Strategy:
    """Parse a descriptor string into a strategy value.

    Grammar: ``always-join`` | ``always-balk`` | ``threshold:<n0>`` |
    ``mixed-threshold:<n0>:<theta>`` | ``reverse:<n0>:<theta>`` |
    ``vector:<p0>,<p1>,...``; ``_DESCRIPTORS`` reads the fields.

    Raises:
        StrategyParseError: If the string does not match the grammar or a
            field is out of range.
    """
    head, sep, rest = text.strip().partition(":")
    if head not in _DESCRIPTORS:
        raise StrategyParseError(f"unknown strategy descriptor {text!r}")
    make, converters = _DESCRIPTORS[head]
    fields = rest.split(":") if sep else []
    if len(fields) != len(converters):
        raise StrategyParseError(f"{head} takes {len(converters)} field(s), got {text!r}")
    try:
        return make(*(convert(field) for convert, field in zip(converters, fields)))
    except ValueError as exc:
        raise StrategyParseError(f"bad descriptor {text!r}: {exc}") from None
