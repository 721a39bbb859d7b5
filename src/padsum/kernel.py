"""Exact integer primitives: factorials, rising blocks, digit sums; the
one home of the coefficient-list primitives, ``_horner`` (Horner's rule),
``_add_shifted`` (shifted accumulation), ``_add_product`` and
``_derivative``, which ``poly``, ``fps`` and every table and sum run on;
``_sign``, the gate on eps; ``Record``, the immutable base of the records
that check their fields; what ``series`` and ``telescope`` both report,
without loading each other: ``PartialSumResult``, a checked instance of a
finite identity, and ``VerificationError``, raised by ``_failure`` when
its residual is nonzero; and two things the command line reads without
loading ``tables``: ``_dumps``, the JSON style of every file padsum
writes, and ``SEQUENCE_IDS``, the ids of the named sequences.

``factorial`` is ``math.factorial`` itself (ValueError for n < 0), named
here so that ``fps`` and ``telescope`` resolve it through one module.
``_at_least`` is the package's one floor check: ``{name} must be >= {floor}, got {value}``.

It is also the home of the exact scalars: ``_exact_scalar``, the gate
that admits an int or a ``fractions.Fraction`` and refuses floats and
``bool``; ``_exact``, which normalises a value to an int when its
denominator is 1; and ``_quotient``, the one division of two ints.

Every function here is pure and exact, and the module holds no state
but the class that ``_fraction_class`` imports once.  Integers are plain
Python ints (arbitrary precision), and they stay ints through the rest of
the package: a ``fractions.Fraction`` (reduced, positive denominator)
appears only where an input is fractional or a division leaves a
denominator.  This module imports no padsum module, nor ``json``, and
imports ``fractions`` only when a scalar helper is given a non-integer or
divides with a remainder: a process of integer code (a cold ``tables
--format json``, ``seq``, ``verify ode``, ``verify padic`` at integer
points and claims) loads neither.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # annotations only: the class itself comes from _fraction_class
    from fractions import Fraction

_setattr = object.__setattr__  # the one way past Record.__setattr__

# The twelve named evaluations: generating polynomials and corrections at
# n in {0, 1}, x in {+1, -1}, both signs.  Several overlap known OEIS
# entries up to sign (A014619, A040027, A007114, A032347 for the A-families;
# A000587 and A000110, the complementary Bell and Bell numbers, for U).
SEQUENCE_IDS: dict[str, tuple[str, int, int | None, int]] = {
    "A+0,1": ("A", 1, 0, 1),
    "A+0,-1": ("A", 1, 0, -1),
    "A+1,1": ("A", 1, 1, 1),
    "A+1,-1": ("A", 1, 1, -1),
    "A-0,1": ("A", -1, 0, 1),
    "A-0,-1": ("A", -1, 0, -1),
    "A-1,1": ("A", -1, 1, 1),
    "A-1,-1": ("A", -1, 1, -1),
    "U+1": ("U", 1, None, 1),
    "U+-1": ("U", 1, None, -1),
    "U-1": ("U", -1, None, 1),
    "U--1": ("U", -1, None, -1),
}


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, byte for
    byte: the JSON style of every file padsum writes.

    ``json`` encodes in pure Python whenever ``indent`` is set, so the
    values padsum writes are encoded here instead (:func:`_encode`), and
    ``json`` is imported only for a value it does not cover.
    """
    return _encode(obj, "\n") + "\n"


def _plain(text: str) -> bool:
    """Whether ``json`` writes ``text`` as itself between quotes: printable
    ASCII with no quote and no backslash."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _encode(obj, newline: str) -> str:
    """``obj`` as :func:`_dumps` writes it (without the last newline), where
    ``newline`` is a line break and the indentation of ``obj``'s own level.

    Lists and tuples, dicts with plain string keys (sorted), plain strings,
    ints (``Prime`` included), ``bool`` and ``None`` are written here; a
    list of plain ints is a single join.  Anything else is ``json.dumps``
    of that value with its lines indented to this level; ``json`` writes
    no line break inside a string, so this is the bytes it would write in
    place.
    """
    if type(obj) is list or type(obj) is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_encode(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(obj) is dict and set(map(type, obj)) <= {str} and all(map(_plain, obj)):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [f'"{key}": {_encode(value, inner)}' for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is str and _plain(obj):
        return f'"{obj}"'
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    import json  # the leaves padsum does not write: floats, escaped strings, ...

    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline)


def _at_least(name: str, value: int, floor: int) -> None:
    """ValueError ``{name} must be >= {floor}, got {value}`` when value < floor."""
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")


def _sign(eps) -> int:
    """``eps`` if it is the int +1 or -1 (not ``True``, ``1.0``, ...); else ValueError."""
    if type(eps) is not int or eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps!r}")
    return eps


@cache
def _fraction_class() -> type[Fraction]:
    """``fractions.Fraction``, imported at the first call only: the scalar
    helpers call this only for a non-integer or a division with a remainder."""
    from fractions import Fraction

    return Fraction


def _exact_scalar(c) -> int | Fraction:
    """``c`` unchanged when it is exact (an int or a Fraction, not a ``bool``);
    else TypeError."""
    if isinstance(c, int) and type(c) is not bool or isinstance(c, _fraction_class()):
        return c
    raise TypeError(f"exact coefficient required, got {type(c).__name__}")


def _exact(value) -> int | Fraction:
    """``value`` as an int when its denominator is 1.  The only place that
    normalises; ``_exact_scalar`` is the type gate that rejects floats."""
    value = _exact_scalar(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(num: int, den: int) -> int | Fraction:
    """num / den exactly: an int when den is 1, else a Fraction."""
    return num if den == 1 else _fraction_class()(num, den)


def _add_shifted(acc: list, coeffs, scale, shift: int = 0) -> None:
    """acc += scale * t^shift * coeffs on coefficient lists; acc grows as needed."""
    acc.extend([0] * (shift + len(coeffs) - len(acc)))
    for i, c in enumerate(coeffs, shift):
        acc[i] += scale * c


def _add_product(acc: list, coeffs, other) -> None:
    """acc += coeffs * other, the product of two polynomials, on coefficient lists."""
    for i, c in enumerate(coeffs):
        if c != 0:
            _add_shifted(acc, other, c, i)


def _derivative(coeffs) -> tuple:
    """The coefficients of the derivative of the polynomial with ``coeffs``."""
    return tuple(i * c for i, c in enumerate(coeffs[1:], 1))


def _horner(coeffs, t, total=0):
    """The polynomial with ``coeffs`` (lowest degree first) at t, by Horner's
    rule; ``total`` is the value of an empty list (``RatPoly.zero()`` for a polynomial)."""
    for c in reversed(coeffs):
        total = total * t + c
    return total


def rising_block(base: int, width: int, power: int) -> int:
    """[(base+1)(base+2)...(base+width)]**power.

    With base = m*n + v, width = m, power = l this is exactly the factor
    turning ((m*n + v)!)**l into ((m*(n+1) + v)!)**l, i.e. the step a
    factorial product telescopes over.
    """
    _at_least("width", width, 1)
    _at_least("power", power, 0)
    prod = 1
    for s in range(1, width + 1):
        prod *= base + s
    return prod**power


def digit_sum(n: int, base: int) -> int:
    """Sum of the digits of n written in the given base (>= 2)."""
    if n < 0:
        raise ValueError(f"digit_sum needs n >= 0, got {n}")
    _at_least("base", base, 2)
    total = 0
    while n:
        n, d = divmod(n, base)
        total += d
    return total


class Record:
    """An immutable value with named fields, its ``__slots__``.

    A subclass's ``__init__`` checks its arguments and sets every field
    once, through :meth:`_set` (``RatPoly``, built by the thousand, sets
    its one slot through ``_setattr`` itself).  After that the record
    refuses assignment and deletion (``AttributeError``), and it compares,
    hashes and prints as its fields in order; records of different classes
    are never equal.
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


class VerificationError(RuntimeError):
    """A check that must hold exactly failed; ``tables.CrossCheckError`` is one kind."""
    label: str | None = None  # the failed check's name in its FAIL line, if not its suite's

    def __init__(self, message: str, result: "PartialSumResult | None" = None):
        super().__init__(message)
        self.result = result


class PartialSumResult(NamedTuple):
    """One checked instance of a finite summation identity.

    The invariant under test is value = rhs_constant + boundary, exactly;
    ``residual`` is the difference and must be zero.
    """

    n_terms: int
    value: Fraction
    rhs_constant: Fraction
    boundary: Fraction

    @property
    def residual(self) -> Fraction:
        return self.value - self.rhs_constant - self.boundary


def _failure(result: PartialSumResult, what: str, where: str) -> VerificationError:
    """The error for a record whose residual is nonzero, naming its operands."""
    return VerificationError(f"{what} residual {result.residual} != 0 at {where}", result)
