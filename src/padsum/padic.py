"""p-adic valuations, truncated expansions, and the convergence-domain gate.

The valuation of zero is a genuine infinite value (``Valuation.INFINITE``),
kept distinct from every finite exponent so that ultrametric comparisons
can never be fooled by an integer sentinel.  The p-adic verdict takes no
valuation per term (``series.padic_sum_verify`` tests p against the
denominator of error over remainder, and only where the two differ).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from .kernel import Record, digit_sum
from .poly import _exact_scalar

DEFAULT_EXPANSION_DIGITS = 64

RationalLike = int | Fraction


class Prime(int):
    """A prime modulus: an ``int`` whose primality is checked, by trial
    division, at construction.  Anything but an int (a bool, a float, a
    Fraction) is refused.

    Trial division is plenty: primes used here are small (single or double
    digits in practice, a few thousand at most).
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
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._key() == other

    def __lt__(self, other) -> bool:
        if isinstance(other, Valuation):
            other = other._key()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._key() < other

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Valuation({self.exponent!r})"

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.exponent)


Valuation.INFINITE = Valuation(None)


def val_int(n: int, p: Prime) -> Valuation:
    """Largest e with p**e dividing n; infinite for n = 0."""
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
    if n < 0:
        raise ValueError(f"factorial valuation needs n >= 0, got {n}")
    return Valuation((n - digit_sum(n, p)) // (p - 1))


def val_rat(q: RationalLike, p: Prime) -> Valuation:
    """v_p of an exact rational: v_p(numerator) - v_p(denominator).
    Floats raise TypeError."""
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


def expand(q: RationalLike, p: Prime, m: int = DEFAULT_EXPANSION_DIGITS) -> PadicApprox:
    """First m base-p digits of a rational, starting at its valuation.

    A denominator divisible by p is absorbed by the (then negative) offset;
    every rational has such an expansion.
    """
    if m < 1:
        raise ValueError(f"precision must be >= 1, got {m}")
    q = _exact_scalar(q)
    if q == 0:
        return PadicApprox(p, 0, (0,) * m)
    v = val_rat(q, p).exponent
    unit = q / Fraction(p) ** v
    mod = p**m
    x = unit.numerator * pow(unit.denominator, -1, mod) % mod
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


def require_convergence(x: RationalLike, p: Prime, alpha: int, mu_lambda_sum: int) -> None:
    """Raise :class:`ConvergenceDomainError` unless x lies in the p-adic
    convergence domain of a factorial series.

    A series whose n-th term carries prod((mu_i*n + nu_i)!)**lambda_i and
    x**(alpha*n + beta) converges p-adically iff v_p(x) > -S/((p-1)*alpha)
    with S = ``mu_lambda_sum`` = sum(mu_i * lambda_i).  The threshold is
    exclusive, and it is <= 0, so every integer x (valuation >= 0) lies in
    the domain whenever S >= 1.
    """
    threshold = Fraction(-mu_lambda_sum, (p - 1) * alpha)
    if not val_rat(x, p) > threshold:
        raise ConvergenceDomainError(x, p, threshold)
