"""p-adic valuations, truncated expansions, and convergence-domain tests.

The valuation of zero is a genuine infinite value (``Valuation.INFINITE``),
kept distinct from every finite exponent so that ultrametric comparisons
can never be fooled by an integer sentinel.  The p-adic verdict takes no
valuation per term (``series.padic_sum_verify`` divides by the remainder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Callable

from .kernel import digit_sum
from .poly import _exact_scalar

DEFAULT_EXPANSION_DIGITS = 64

RationalLike = int | Fraction


@dataclass(frozen=True)
class Prime:
    """A prime modulus, checked deterministically at construction.

    Trial division is plenty: primes used here are small (single or double
    digits in practice, a few thousand at most).
    """

    value: int

    def __post_init__(self) -> None:
        p = self.value
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"not a prime: {p!r}")
        for d in range(2, math.isqrt(p) + 1):
            if p % d == 0:
                raise ValueError(f"not a prime: {p} = {d} * {p // d}")

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


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
    q = p.value
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return Valuation(e)


def val_factorial(n: int, p: Prime) -> Valuation:
    """v_p(n!) via the digit-sum form (n - s_n)/(p - 1) of Legendre's formula."""
    if n < 0:
        raise ValueError(f"factorial valuation needs n >= 0, got {n}")
    return Valuation((n - digit_sum(n, p.value)) // (p.value - 1))


def val_rat(q: RationalLike, p: Prime) -> Valuation:
    """v_p of an exact rational: v_p(numerator) - v_p(denominator).
    Floats raise TypeError."""
    q = _exact_scalar(q)
    if q == 0:
        return Valuation.INFINITE
    num = val_int(q.numerator, p)
    den = val_int(q.denominator, p)
    return Valuation(num.exponent - den.exponent)


def padic_norm(q: RationalLike, p: Prime) -> Fraction:
    """|q|_p = p**(-v_p(q)); zero for q = 0."""
    v = val_rat(q, p)
    if v.is_infinite:
        return Fraction(0)
    return Fraction(p.value) ** (-v.exponent)


@dataclass(frozen=True)
class PadicApprox:
    """Truncated base-p expansion of a rational.

    Represents p**offset * sum(digits[i] * p**i), which agrees with the
    expanded value modulo p**(offset + len(digits)).  The leading digit is
    nonzero unless the value is exactly zero (offset 0, all-zero digits).
    """

    prime: Prime
    offset: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("at least one digit is required")
        p = self.prime.value
        if any(not (0 <= d < p) for d in self.digits):
            raise ValueError(f"digits must lie in [0, {p})")
        if self.digits[0] == 0 and any(self.digits):
            raise ValueError("leading digit must be nonzero for a nonzero value")

    @property
    def precision(self) -> int:
        return len(self.digits)

    @property
    def is_zero(self) -> bool:
        return not any(self.digits)

    def reconstruct(self) -> Fraction:
        """The rational p**offset * sum(digits[i] * p**i)."""
        p = self.prime.value
        unit = 0
        for d in reversed(self.digits):
            unit = unit * p + d
        return Fraction(p) ** self.offset * unit

    def render(self) -> str:
        body = ",".join(str(d) for d in self.digits)
        return f"p={self.prime.value} val={self.offset} digits=[{body}]"

    def to_json_dict(self) -> dict:
        return {"p": self.prime.value, "val": self.offset, "digits": list(self.digits)}


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
    unit = q / Fraction(p.value) ** v
    mod = p.value**m
    x = unit.numerator * pow(unit.denominator, -1, mod) % mod
    digits = []
    for _ in range(m):
        x, d = divmod(x, p.value)
        digits.append(d)
    return PadicApprox(p, v, tuple(digits))


@dataclass(frozen=True)
class ConvergenceParams:
    """Exponent data of the factorial-series convergence domain.

    A series whose n-th term carries prod((mu_i*n + nu_i)!)**lambda_i and
    x**(alpha*n + beta) converges p-adically iff
    |x|_p < p**(S / ((p-1)*alpha)) with S = sum(mu_i * lambda_i).
    """

    alpha: int
    mu_lambda_sum: int

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.mu_lambda_sum < 0:
            raise ValueError(f"mu-lambda sum must be >= 0, got {self.mu_lambda_sum}")


def convergence_threshold(params: ConvergenceParams, p: Prime) -> Fraction:
    """Strict lower bound on v_p(x) for convergence: v_p(x) > -S/((p-1)*alpha).

    The threshold is exclusive, and it is <= 0, so every integer x (valuation
    >= 0) lies in the domain whenever S >= 1.
    """
    return Fraction(-params.mu_lambda_sum, (p.value - 1) * params.alpha)


def in_convergence_domain(x: RationalLike, p: Prime, params: ConvergenceParams) -> bool:
    """Whether v_p(x) clears the (strict) convergence threshold."""
    return val_rat(x, p) > convergence_threshold(params, p)


@dataclass(frozen=True)
class ValuationProfile:
    """Per-term valuations of a series plus an empirical convergence verdict."""

    valuations: tuple[Valuation, ...]
    converges: bool


def term_val_profile(
    term: Callable[[int], RationalLike], p: Prime, n_max: int, start: int = 1
) -> ValuationProfile:
    """Valuations of term(n) for n = start..n_max, with a trend verdict.

    ``term`` is any callable n -> exact rational; series and telescoping
    specs expose such callables.  The verdict is empirical: the worst
    (minimum) valuation over the second half of the window must exceed the
    worst over the first half, since terms of a convergent series must push
    the valuation floor upward.  Non-convergence is a verdict, never an
    exception; a window of fewer than two terms has no halves to compare
    and raises ``ValueError``.
    """
    if n_max - start + 1 < 2:
        raise ValueError(f"a trend needs at least two terms, got n = {start}..{n_max}")
    vals = tuple(val_rat(term(n), p) for n in range(start, n_max + 1))
    half = len(vals) // 2
    lo_head = min(vals[:half])
    lo_tail = min(vals[half:])
    converges = lo_tail > lo_head or lo_head == lo_tail == Valuation.INFINITE
    return ValuationProfile(vals, converges)
