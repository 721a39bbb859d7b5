"""p-adic valuations, truncated expansions, and the convergence-domain gate.

The valuation of zero is a genuine infinite value (``Valuation.INFINITE``),
kept distinct from every finite exponent so that ultrametric comparisons
can never be fooled by an integer sentinel.  The p-adic verdict takes no
valuation per term (``series.padic_sum_verify`` tests p against the
denominator of V - claimed over the remainder, and only for a claim other
than V).  ``expand`` takes one valuation and ``require_convergence``
none, since it tests p against x's denominator; neither builds a
``Fraction`` on its way to a result.  This module names ``Fraction`` in
annotations only; ``kernel._fraction_class`` gives the class for the
refusal's threshold and for a comparison of a :class:`Valuation` with a
non-int, so a run on integers never imports ``fractions``.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import TYPE_CHECKING

from .kernel import Record, _at_least, _exact_scalar, _fraction_class, digit_sum

if TYPE_CHECKING:  # annotations only: the class itself comes from _fraction_class
    from fractions import Fraction

    RationalLike = int | Fraction


class Prime(int):
    """A prime modulus: an ``int`` whose primality is checked, by trial
    division, at construction.  Anything but an int (a bool, a float, a
    Fraction) is refused.

    Trial division is plenty: ``--primes`` caps a prime at 10^12, whose
    10^6 trial divisors take about 0.1 s, and in practice primes are tiny.
    """

    __slots__ = ()

    def __new__(cls, p: int) -> "Prime":
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"not a prime: {p!r}")
        for d in range(2, math.isqrt(p) + 1):
            if p % d == 0:
                raise ValueError(f"not a prime: {p} = {d} * {p // d}")
        return super().__new__(cls, p)


@total_ordering
class Valuation:
    """Exponent of the largest power of p dividing a value; infinite for 0.

    A value only: it is ordered against other valuations and against exact
    numbers (int or Fraction), and read through ``exponent``.  It has no
    arithmetic, since no verdict adds valuations.
    """

    __slots__ = ("exponent",)

    INFINITE: "Valuation"

    def __init__(self, exponent: int | None = None):
        if exponent is not None and not isinstance(exponent, int):
            raise TypeError(f"finite valuation must be an int, got {exponent!r}")
        self.exponent = exponent

    @property
    def is_infinite(self) -> bool:
        return self.exponent is None

    def _key(self) -> float | int:
        return math.inf if self.exponent is None else self.exponent

    def __eq__(self, other) -> bool:
        if isinstance(other, Valuation):
            other = other._key()
        elif not _exact_number(other):
            return NotImplemented
        return self._key() == other

    def __lt__(self, other) -> bool:
        if isinstance(other, Valuation):
            other = other._key()
        elif not _exact_number(other):
            return NotImplemented
        return self._key() < other

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Valuation({self.exponent!r})"

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.exponent)


Valuation.INFINITE = Valuation(None)


def _exact_number(value) -> bool:
    """Whether a :class:`Valuation` compares with ``value``: an int or a
    Fraction, the class looked up only for a non-int."""
    return isinstance(value, int) or isinstance(value, _fraction_class())


def _require_prime(p) -> None:
    """``TypeError`` unless p is a :class:`Prime`, first in every function here
    that takes p: a composite p gives no valuation, and p = 1 never returns."""
    if not isinstance(p, Prime):
        raise TypeError(f"p must be a padic.Prime, got {p!r}")


def val_int(n: int, p: Prime) -> Valuation:
    """Largest e with p**e dividing n; infinite for n = 0."""
    _require_prime(p)
    if n == 0:
        return Valuation.INFINITE
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return Valuation(e)


def val_factorial(n: int, p: Prime) -> Valuation:
    """v_p(n!) via the digit-sum form (n - s_n)/(p - 1) of Legendre's formula."""
    _require_prime(p)
    if n < 0:
        raise ValueError(f"factorial valuation needs n >= 0, got {n}")
    return Valuation((n - digit_sum(n, p)) // (p - 1))


def val_rat(q: RationalLike, p: Prime) -> Valuation:
    """v_p of an exact rational: v_p(numerator) - v_p(denominator).
    Floats raise TypeError."""
    _require_prime(p)
    q = _exact_scalar(q)
    if q == 0:
        return Valuation.INFINITE
    num = val_int(q.numerator, p)
    den = val_int(q.denominator, p)
    return Valuation(num.exponent - den.exponent)


class PadicApprox(Record):
    """Truncated base-p expansion of a rational.

    Represents p**offset * sum(digits[i] * p**i), which agrees with the
    expanded value modulo p**(offset + len(digits)).  The leading digit is
    nonzero unless the value is exactly zero (offset 0, all-zero digits).
    """

    __slots__ = ("prime", "offset", "digits")

    def __init__(self, prime: Prime, offset: int, digits: tuple[int, ...]):
        if not digits:
            raise ValueError("at least one digit is required")
        if any(not (0 <= d < prime) for d in digits):
            raise ValueError(f"digits must lie in [0, {prime})")
        if digits[0] == 0 and any(digits):
            raise ValueError("leading digit must be nonzero for a nonzero value")
        self._set(prime, offset, digits)

    def render(self) -> str:
        body = ",".join(str(d) for d in self.digits)
        return f"p={self.prime} val={self.offset} digits=[{body}]"


def expand(q: RationalLike, p: Prime, m: int) -> PadicApprox:
    """First m base-p digits of a rational, starting at its valuation.

    A denominator divisible by p is absorbed by the (then negative) offset;
    every rational has such an expansion.  The unit's residue mod p**m is
    found in integers: with v = v_p(q), q = p**v num / den where p**v is
    divided out of the reduced numerator (v >= 0) or denominator (v < 0),
    and the residue is num times the inverse of den mod p**m.
    """
    _require_prime(p)
    _at_least("precision", m, 1)
    q = _exact_scalar(q)
    if q == 0:
        return PadicApprox(p, 0, (0,) * m)
    v = val_rat(q, p).exponent
    num, den = q.numerator, q.denominator
    if v >= 0:
        num //= p**v
    else:
        den //= p**-v
    mod = p**m
    x = num * pow(den, -1, mod) % mod
    digits = []
    for _ in range(m):
        x, d = divmod(x, p)
        digits.append(d)
    return PadicApprox(p, v, tuple(digits))


class ConvergenceDomainError(ValueError):
    """An evaluation point lies outside the p-adic convergence domain."""

    def __init__(self, x: RationalLike, prime: Prime, threshold: Fraction):
        super().__init__(
            f"x = {x} is outside the convergence domain for p = {prime}:"
            f" v_p(x) must exceed {threshold}"
        )
        self.x = x
        self.prime = prime
        self.threshold = threshold


def require_convergence(x: RationalLike, p: Prime) -> None:
    """Raise :class:`ConvergenceDomainError` when p divides the denominator
    of x, which puts x outside the p-adic convergence domain |x|_p <= 1 of
    sum n! x^n.

    The terms tend to 0 p-adically iff v_p(x) > -1/(p-1), since v_p(n!)
    grows as n/(p-1); a rational's valuation is an integer, so that is
    v_p(x) >= 0, which no valuation is needed to test.  The threshold
    -1/(p-1) is built only for the refusal's message.
    """
    _require_prime(p)
    if _exact_scalar(x).denominator % p == 0:
        raise ConvergenceDomainError(x, p, _fraction_class()(-1, p - 1))
