"""Exception hierarchy.

Every error raised by this package derives from :class:`ClearbalkError`, so
callers can catch one base type. :class:`InputError` is every refused input;
the other subclasses are numerical or internal failures, not caller mistakes.
"""

from __future__ import annotations


class ClearbalkError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ClearbalkError, ValueError):
    """A refused rate, R, C, strategy descriptor, config or report path."""


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
