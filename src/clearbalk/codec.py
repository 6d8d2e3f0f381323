"""JSON wire format of every report, derived from dataclass annotations.

One converter table per dataclass is built from its field annotations on
first use and cached. The wire conventions:

* enums travel as their values, strategies as descriptor strings;
* tuples and numpy arrays travel as lists, nested dataclasses as objects;
* an infinite float travels as the string ``"inf"`` and NaN as ``null``;
  every other number passes through unchanged, so an int stored in a
  float field (a threshold level such as ``n_l``) stays an int.

``decode`` inverts ``encode`` field by field, so a report survives a
JSON round trip unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import types
import typing

import numpy as np

from .strategies import Strategy, format_strategy, parse_strategy

_STRATEGY_ARMS = frozenset(typing.get_args(Strategy))


def _float_out(value: float) -> float | str | None:
    if value - value == 0.0:
        return value
    return None if value != value else "inf"


def _float_in(value: float | str | None) -> float:
    if value is None:
        return math.nan
    return math.inf if value == "inf" else value


def _array_out(array: np.ndarray) -> list:
    if array.ndim > 1:
        return [_array_out(row) for row in array]
    return [_float_out(v) for v in array.tolist()]


def _each(conv, container):
    if conv is None:
        return container
    return lambda v: container(conv(x) for x in v)


def _optional(conv):
    return None if conv is None else (lambda v: None if v is None else conv(v))


@functools.cache
def _converters(tp) -> tuple:
    """(encoder, decoder) for values annotated ``tp``; None passes values through."""
    if tp in (int, str, bool):
        return None, None
    if tp is float:
        return _float_out, _float_in
    if tp is np.ndarray:
        # numpy reads None as NaN and "inf" as infinity in a float array
        return _array_out, functools.partial(np.array, dtype=float)
    if isinstance(tp, enum.EnumMeta):
        return (lambda v: v.value), tp
    if dataclasses.is_dataclass(tp):
        return functools.partial(encode, tp), functools.partial(decode, tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and len(set(args) - {Ellipsis}) == 1:
        enc, dec = _converters(args[0])
        return _each(enc, list), _each(dec, tuple)
    if origin not in (typing.Union, types.UnionType):
        raise TypeError(f"no wire form for {tp}")
    arms = [a for a in args if a is not type(None)]
    if set(arms) == _STRATEGY_ARMS:
        pair = format_strategy, parse_strategy
    elif len(arms) == 1:
        pair = _converters(arms[0])
    else:
        # a scalar or a tuple of scalars, told apart by the value itself
        (seq,) = [a for a in arms if typing.get_origin(a) is tuple]
        (scalar,) = [a for a in arms if a is not seq]
        (seq_enc, seq_dec), (enc, dec) = _converters(seq), _converters(scalar)
        pair = (lambda v: seq_enc(v) if isinstance(v, tuple) else enc(v),
                lambda v: seq_dec(v) if isinstance(v, list) else dec(v))
    return tuple(map(_optional, pair)) if type(None) in args else pair


@functools.cache
def _table(cls: type) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, *_converters(hints[f.name])) for f in dataclasses.fields(cls))


def encode(cls: type, obj) -> dict:
    """Wire dictionary of the dataclass instance ``obj`` of type ``cls``."""
    wire = {}
    for name, enc, _ in _table(cls):
        value = getattr(obj, name)
        wire[name] = value if enc is None else enc(value)
    return wire


def decode(cls: type, wire: dict):
    """Rebuild an instance of the dataclass ``cls`` from its wire dictionary."""
    return cls(**{name: wire[name] if dec is None else dec(wire[name])
                  for name, _, dec in _table(cls)})


class Wire:
    """Mixin giving a dataclass its JSON wire form: ``to_dict()``, and
    ``from_dict(wire)`` to rebuild it."""

    def to_dict(self) -> dict:
        return encode(type(self), self)

    @classmethod
    def from_dict(cls, wire: dict):
        return decode(cls, wire)
