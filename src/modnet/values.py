"""Tagged values exchanged between modules over named ports.

A Value is immutable and hashable so network state can be snapshotted and
compared bit-for-bit. Real payloads must be finite: log-weights are the only
place infinities are meaningful, and they are plain floats, not Values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any

DISCRETE = "discrete"
REAL = "real"
DISCRETE_VECTOR = "discrete_vector"
REAL_VECTOR = "real_vector"

_KINDS = (DISCRETE, REAL, DISCRETE_VECTOR, REAL_VECTOR)


@dataclass(frozen=True)
class Value:
    kind: str
    data: Any

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown value kind {self.kind!r}")
        if self.kind == DISCRETE:
            if not isinstance(self.data, int) or isinstance(self.data, bool):
                raise ValueError("discrete payload must be an int")
        elif self.kind == REAL:
            if not isinstance(self.data, float):
                raise ValueError("real payload must be a float")
            if not math.isfinite(self.data):
                raise ValueError("real payload must be finite")
        elif self.kind == DISCRETE_VECTOR:
            if not isinstance(self.data, tuple) or any(
                not isinstance(v, int) or isinstance(v, bool) for v in self.data
            ):
                raise ValueError("discrete_vector payload must be a tuple of ints")
        else:
            if not isinstance(self.data, tuple) or any(
                not isinstance(v, float) for v in self.data
            ):
                raise ValueError("real_vector payload must be a tuple of floats")
            if any(not math.isfinite(v) for v in self.data):
                raise ValueError("real_vector payload must be finite")


def _int(v) -> int:
    """v as an int: any integer but a bool, numpy ints included. Nothing
    else is coerced, so a float or a string is refused."""
    if type(v) is int:
        return v
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def check_count(name: str, v, least: int = 1) -> int:
    """The one rule for a count: v as an int by _int's rule, if >= least;
    else ValueError "<name> must be an integer >= <least>, got <v!r>"."""
    try:
        n = _int(v)
        if n >= least:
            return n
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


def _float(v) -> float:
    """v as a float: any real number but a bool, numpy ones included."""
    if type(v) is float:
        return v
    if isinstance(v, bool) or not isinstance(v, Real):
        raise ValueError(f"{v!r} is not a real number")
    return float(v)


def discrete(v: int) -> Value:
    return Value(DISCRETE, _int(v))


def real(v: float) -> Value:
    return Value(REAL, _float(v))


def discrete_vector(vs) -> Value:
    return Value(DISCRETE_VECTOR, tuple(map(_int, vs)))


def real_vector(vs) -> Value:
    return Value(REAL_VECTOR, tuple(map(_float, vs)))
