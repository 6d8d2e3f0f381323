"""Strategy classes and their string descriptors.

A (symmetric, mixed) strategy assigns each observed queue length n a joining
probability. Five structured families cover everything the equilibrium
analysis handles, plus a raw probability vector:

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
  beyond the last entry.

Each class states its joining probabilities once, as ``steps()``: (first
level, probability) pairs, each holding up to the next. Everything else
reads the steps: ``join_prob(n)``; ``support_bound()``, the highest level
a stationary chain started empty can reach, or None when every level is
reachable; ``certain_until``, where a stretch of certain joining ends,
which the balance oracle takes as one constant 2x2 step and the simulator
as a range of joins; and the closed-form law of ``spectral.law_pieces``.
The descriptor grammar used by the command-line interface and by report
serialization maps each family to a compact string; ``parse_strategy`` and
``format_strategy`` are exact inverses of each other.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import InputError


def _check_level(n0: int) -> None:
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 0:
        raise ValueError(f"threshold level must be a nonnegative integer, got {n0!r}")


def _check_probability(theta: float, what: str = "theta") -> None:
    if not isinstance(theta, (int, float)) or isinstance(theta, bool) \
            or not math.isfinite(theta) or theta < 0.0 or theta > 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {theta!r}")


Steps = tuple[tuple[int, float], ...]


class Stepped:
    """A strategy stated by its joining steps; every other reading of it reads them."""

    def steps(self) -> Steps:
        """(first level, probability) pairs in level order.

        Each pair holds from its level up to the next pair's level, and the
        last pair, whose probability is 0 or 1, holds forever. Of two pairs
        at the same level the later wins.
        """
        raise NotImplementedError

    @functools.cached_property
    def _columns(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """First levels and probabilities of the steps, the later of two at a level; built once."""
        held = dict(self.steps())
        return tuple(held), tuple(held.values())

    def stretches(self) -> Iterator[tuple[int, float, float]]:
        """``(first, end, p)``: the levels first..end-1 join with probability ``p``."""
        levels, probs = self._columns
        return zip(levels, (*levels[1:], math.inf), probs)

    def join_prob(self, n: int) -> float:
        levels, probs = self._columns
        return probs[bisect.bisect_right(levels, n) - 1]

    def support_bound(self) -> int | None:
        """The first level that joins with probability 0, else None: the highest
        level a chain started empty reaches, since every level below it may join."""
        levels, probs = self._columns
        return levels[probs.index(0.0)] if 0.0 in probs else None


@dataclass(frozen=True)
class AlwaysJoin(Stepped):
    """Join regardless of the observed queue length."""

    def steps(self) -> Steps:
        return ((0, 1.0),)


@dataclass(frozen=True)
class AlwaysBalk(Stepped):
    """Never join; the stationary queue is empty."""

    def steps(self) -> Steps:
        return ((0, 0.0),)


@dataclass(frozen=True)
class PureThreshold(Stepped):
    """Join iff the observed queue length is strictly below ``n0``."""

    n0: int

    def __post_init__(self) -> None:
        _check_level(self.n0)

    def steps(self) -> Steps:
        return ((0, 1.0), (self.n0, 0.0))


@dataclass(frozen=True)
class MixedThreshold(Stepped):
    """Join below ``n0``, join with probability ``theta`` at ``n0``, balk above."""

    n0: int
    theta: float

    def __post_init__(self) -> None:
        _check_level(self.n0)
        _check_probability(self.theta)

    def steps(self) -> Steps:
        return ((0, 1.0), (self.n0, self.theta), (self.n0 + 1, 0.0))


@dataclass(frozen=True)
class ReverseThreshold(Stepped):
    """Balk below ``n0``, join with probability ``theta`` at ``n0``, join above."""

    n0: int
    theta: float

    def __post_init__(self) -> None:
        _check_level(self.n0)
        _check_probability(self.theta)

    def steps(self) -> Steps:
        return ((0, 0.0), (self.n0, self.theta), (self.n0 + 1, 1.0))


@dataclass(frozen=True)
class JoinVector(Stepped):
    """Raw per-level joining probabilities; levels past the end balk."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("join vector must have at least one entry")
        for i, p in enumerate(self.probs):
            _check_probability(p, what=f"probs[{i}]")

    def steps(self) -> Steps:
        return (*enumerate(self.probs), (len(self.probs), 0.0))


Strategy = AlwaysJoin | AlwaysBalk | PureThreshold | MixedThreshold | ReverseThreshold | JoinVector


def certain_until(strategy: Strategy, start: int, reach: int) -> int:
    """First level from ``start`` to ``reach`` at which ``strategy`` may balk, else ``reach``."""
    for first, end, p in strategy.stretches():
        if end > start and p < 1.0:
            return min(max(first, start), reach)
    return reach


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
_HEADS = {make: head for head, (make, _) in _DESCRIPTORS.items()}


def descriptor(make: type, *fields) -> str:
    """The descriptor string of ``make(*fields)``, without making it: its head
    in ``_DESCRIPTORS``, then the ``repr`` of each field."""
    return ":".join([_HEADS[make], *(repr(value) if isinstance(value, (int, float))
                                     else ",".join(map(repr, value)) for value in fields)])


def format_strategy(strategy: Strategy) -> str:
    """Render a strategy as its descriptor string (inverse of parse_strategy)."""
    if type(strategy) not in _HEADS:
        raise TypeError(f"not a strategy: {strategy!r}")
    return descriptor(type(strategy), *map(strategy.__getattribute__, strategy.__match_args__))


def parse_strategy(text: str) -> Strategy:
    """Parse a descriptor string into a strategy value.

    Grammar: ``always-join`` | ``always-balk`` | ``threshold:<n0>`` |
    ``mixed-threshold:<n0>:<theta>`` | ``reverse:<n0>:<theta>`` |
    ``vector:<p0>,<p1>,...``; ``_DESCRIPTORS`` reads the fields.

    Raises:
        InputError: If the string does not match the grammar or a
            field is out of range.
    """
    head, sep, rest = text.strip().partition(":")
    if head not in _DESCRIPTORS:
        raise InputError(f"unknown strategy descriptor {text!r}")
    make, converters = _DESCRIPTORS[head]
    fields = rest.split(":") if sep else []
    if len(fields) != len(converters):
        raise InputError(f"{head} takes {len(converters)} field(s), got {text!r}")
    try:
        return make(*(convert(field) for convert, field in zip(converters, fields)))
    except ValueError as exc:
        raise InputError(f"bad descriptor {text!r}: {exc}") from None
