"""The value ``INF``: the resistance of a disconnected selection.

``INF`` is a singleton that compares strictly greater than every finite
number, equals float ``inf``, hashes, prints and converts to float like it,
and survives pickling and copying as itself.  It takes part in no
arithmetic: each route that meets an open branch handles it explicitly.  The
resistance fold carries an open branch as the pair ``(1, 0)``, the cut fold
as ``math.inf``, and the alternating-tree resistance table tests for ``INF``
in its own series and parallel steps.
"""

from __future__ import annotations

import math
from numbers import Rational


class Infinity:
    """Positive infinity as a plain, ordered value."""

    _singleton = None
    __slots__ = ()

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "inf"

    def __float__(self):
        return math.inf

    def __hash__(self):
        return hash(math.inf)

    def __eq__(self, other):
        return other is INF or (isinstance(other, float) and math.isinf(other) and other > 0)

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


def is_inf(value) -> bool:
    return value is INF or (isinstance(value, float) and math.isinf(value))


def as_float(value) -> float:
    return math.inf if value is INF else float(value)
