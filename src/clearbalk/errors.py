"""Exception hierarchy.

Every error raised by this package derives from :class:`ClearbalkError`, so
callers can catch one base type. Subclasses separate bad user input (rates,
reward/cost, strategy descriptors) from internal consistency failures that
indicate a numerical breakdown rather than a caller mistake.
"""

from __future__ import annotations


class ClearbalkError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveRate(ClearbalkError):
    """A rate parameter is zero, negative, or not finite."""


class NonPositiveRewardCost(ClearbalkError):
    """Reward or waiting cost is zero, negative, or not finite."""


class StrategyParseError(ClearbalkError, ValueError):
    """A strategy descriptor string does not match the grammar."""


class UnreachableState(ClearbalkError):
    """Conditional benefit requested at a state with zero stationary mass."""


class NoInteriorRoot(ClearbalkError):
    """The mixing-probability equation has no root strictly inside (0, 1)."""


class ScanLimitExceeded(ClearbalkError):
    """The upper bound n_u lies above the most pure thresholds a report lists."""


class FloatRangeError(ClearbalkError):
    """A derived quantity overflows or underflows the range of normal floats."""


class SingularSystem(ClearbalkError):
    """The truncated balance system could not be solved uniquely."""


class ConsistencyError(ClearbalkError):
    """An internal cross-check failed beyond tolerance."""
