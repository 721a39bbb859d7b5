"""Exact integer primitives: factorials, rising blocks, digit sums; and
``Record``, the immutable base of the records that check their fields.

Every function here is pure and exact, and the module holds no state.
Integers are plain Python ints (arbitrary precision), and they stay ints
through the rest of the package: a ``fractions.Fraction`` (reduced,
positive denominator) appears only where an input is fractional or a
division happens.
"""

from __future__ import annotations

import math

_setattr = object.__setattr__  # the one way past Record.__setattr__


def factorial(n: int) -> int:
    """n!, by ``math.factorial``; ValueError for n < 0.

    Partial sums take their weights from a running product, so nothing
    here is worth remembering between calls.
    """
    if n < 0:
        raise ValueError(f"factorial undefined for n = {n}")
    return math.factorial(n)


def rising_block(base: int, width: int, power: int) -> int:
    """[(base+1)(base+2)...(base+width)]**power.

    With base = m*n + v, width = m, power = l this is exactly the factor
    turning ((m*n + v)!)**l into ((m*(n+1) + v)!)**l, i.e. the step a
    factorial product telescopes over.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    prod = 1
    for s in range(1, width + 1):
        prod *= base + s
    return prod**power


def digit_sum(n: int, base: int) -> int:
    """Sum of the digits of n written in the given base (>= 2)."""
    if n < 0:
        raise ValueError(f"digit_sum needs n >= 0, got {n}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    total = 0
    while n:
        n, d = divmod(n, base)
        total += d
    return total


class Record:
    """An immutable value with named fields, its ``__slots__``.

    A subclass's ``__init__`` checks its arguments and sets every field
    once, through :meth:`_set`.  After that the record refuses assignment
    and deletion (``AttributeError``), and it compares, hashes and prints
    as its fields in order; records of different classes are never equal.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} has {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setstate__(self, state) -> None:  # copy and pickle restore the slots here
        self._set(*(state[1][name] for name in self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__
