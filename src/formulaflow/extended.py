"""Extended nonnegative rational arithmetic with a first-class infinity.

Disconnection is represented by the singleton ``INF`` rather than a float
sentinel.  The conventions used throughout the package are

    x + INF = INF        1 / INF = 0        1 / 0 = INF

and ``INF`` compares strictly greater than every finite number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Union


class Infinity:
    """Positive infinity, closed under the operations the solvers need."""

    _singleton = None
    __slots__ = ()

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "inf"

    __str__ = __repr__

    def __float__(self):
        return math.inf

    def __hash__(self):
        return hash(math.inf)

    def __bool__(self):
        return True

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        if other is INF or isinstance(other, (Rational, int, float)):
            return INF
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if other is INF:
            return INF
        if isinstance(other, (Rational, int, float)):
            if other <= 0:
                raise ArithmeticError("cannot multiply infinity by a nonpositive value")
            return INF
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other is INF:
            raise ArithmeticError("inf / inf is undefined")
        if isinstance(other, (Rational, int, float)):
            if other <= 0:
                raise ArithmeticError("cannot divide infinity by a nonpositive value")
            return INF
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (Rational, int, float)):
            return Fraction(0)
        return NotImplemented

    # comparisons ----------------------------------------------------------
    def __eq__(self, other):
        return other is INF or (isinstance(other, float) and math.isinf(other) and other > 0)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return self.__eq__(other)

    def __gt__(self, other):
        if self.__eq__(other):
            return False
        if isinstance(other, (Rational, int, float)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if self.__eq__(other) or isinstance(other, (Rational, int, float)):
            return True
        return NotImplemented


INF = Infinity()

ExtRational = Union[Fraction, Infinity]


def is_inf(value) -> bool:
    return value is INF or (isinstance(value, float) and math.isinf(value))


def recip(value: ExtRational) -> ExtRational:
    """Reciprocal under the conventions 1/0 = INF and 1/INF = 0."""
    if value is INF:
        return Fraction(0)
    value = Fraction(value)
    if value == 0:
        return INF
    return 1 / value


def parallel_sum(values) -> ExtRational:
    """Resistance of a parallel bank: conductances add."""
    conductance: ExtRational = Fraction(0)
    for v in values:
        conductance = conductance + recip(v)
    return recip(conductance)


def as_float(value) -> float:
    return math.inf if value is INF else float(value)
