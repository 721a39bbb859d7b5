"""Dense exact polynomial arithmetic.

Two layers: ``RatPoly`` is an ordinary univariate polynomial over the
rationals; ``GenPoly`` is a read-only polynomial in x whose coefficients
are ``RatPoly`` values in n, carrying a fixed sign eps in {+1, -1}.  The
sign is data, not a symbol: quantities that are usually written with a
symbolic sign are obtained by running both concrete signs and recombining
at the reporting layer.

Coefficients and values are exact: a plain ``int`` or a
``fractions.Fraction``, whichever the arithmetic produces.  Python's
numeric tower mixes the two exactly, so integral tables stay ``int`` end
to end and a ``Fraction`` appears only where an input is fractional or a
division happens.  Floats and ``bool`` values are refused.

Storage is dense, as degrees stay small (a few hundred at most).  Horner
evaluation and shifted accumulation, ``_horner`` and ``_add_shifted``, are
written once, here, for both layers and for the integer rows of ``tables``
and ``series``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .kernel import Record, _at_least

Scalar = Union[int, Fraction]


def _exact_scalar(c) -> Scalar:
    """``c`` unchanged when it is exact (an int or a Fraction, not a ``bool``);
    else TypeError."""
    if isinstance(c, (int, Fraction)) and type(c) is not bool:
        return c
    raise TypeError(f"exact coefficient required, got {type(c).__name__}")


def _sign(eps) -> int:
    """``eps`` if it is the int +1 or -1 (not ``True``, ``1.0``, ...); else ValueError."""
    if type(eps) is not int or eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps!r}")
    return eps


def _add_shifted(acc: list, coeffs, scale: Scalar, shift: int = 0) -> None:
    """acc += scale * t^shift * coeffs on coefficient lists; acc grows as needed."""
    acc.extend([0] * (shift + len(coeffs) - len(acc)))
    for i, c in enumerate(coeffs, shift):
        acc[i] += scale * c


def _horner(coeffs, t, total=0):
    """The polynomial with ``coeffs`` (lowest degree first) at t, by Horner's
    rule; ``total`` is the value of an empty list (``RatPoly.zero()`` for a polynomial)."""
    for c in reversed(coeffs):
        total = total * t + c
    return total


def _power(var: str, i: int) -> str:
    """``var^i`` as printed: empty for i = 0 and bare ``var`` for i = 1."""
    return "" if i == 0 else var if i == 1 else f"{var}^{i}"


def _signed_term(coeff: Scalar | RatPoly, power: str) -> tuple[bool, str]:
    """(negative, magnitude text) of the nonzero term ``coeff * power``.

    A unit coefficient is dropped before a nonempty power; a coefficient
    polynomial in n of degree >= 1 is parenthesised and carries its own
    signs.
    """
    if isinstance(coeff, RatPoly):
        if coeff.degree > 0:
            return False, f"({coeff.render('n')}){power}"
        coeff = coeff.coeffs[0]
    mag = abs(coeff)
    return coeff < 0, power if mag == 1 and power else f"{mag}{power}"


def _join_signed(terms: Iterable[tuple[bool, str]]) -> str:
    """Signed terms joined as ``-a + b - c``; ``0`` when there are none."""
    parts: list[str] = []
    for negative, body in terms:
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


class RatPoly(Record):
    """Univariate polynomial over exact rationals, lowest degree first.

    Canonical form: no trailing zero coefficients; the zero polynomial
    stores the empty tuple.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_exact_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._set(tuple(cs))

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> "RatPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int) -> "RatPoly":
        _at_least("power", power, 0)
        return cls((0,) * power + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        out = list(self.coeffs)
        _add_shifted(out, other.coeffs, 1)
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            c = _exact_scalar(other)
            return RatPoly(tuple(a * c for a in self.coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        out: list = []
        for i, a in enumerate(self.coeffs):
            if a != 0:
                _add_shifted(out, other.coeffs, a, i)
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "RatPoly":
        _at_least("exponent", e, 0)
        result = RatPoly.one()
        for _ in range(e):
            result = result * self
        return result

    def __call__(self, t: Scalar) -> Scalar:
        """Exact Horner evaluation."""
        return _horner(self.coeffs, _exact_scalar(t))

    def shift(self, delta: int = 1) -> "RatPoly":
        """The polynomial q with q(n) = p(n + delta), exactly."""
        return _horner(self.coeffs, RatPoly((delta, 1)), RatPoly.zero())

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])))

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    def render(self, var: str = "x") -> str:
        """Human formatting, highest degree first, e.g. ``n^2 - 3n + 3``."""
        return _join_signed(
            _signed_term(self.coeffs[i], _power(var, i))
            for i in range(self.degree, -1, -1) if self.coeffs[i]
        )

    def __repr__(self) -> str:
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        return self.render()


class GenPoly(Record):
    """Polynomial in x whose x^j coefficient is a polynomial in n.

    The sign eps is fixed per instance, so identities like eps**2 = 1 hold
    numerically and never need symbolic simplification.  A ``GenPoly`` is a
    read-only value: it is built from its coefficients, compared, evaluated
    and rendered, but has no arithmetic of its own.
    """

    __slots__ = ("eps", "coeffs")

    def __init__(self, eps: int, coeffs: Iterable[Union[RatPoly, Scalar]] = ()):
        cs = [c if isinstance(c, RatPoly) else RatPoly.constant(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._set(_sign(eps), tuple(cs))

    @property
    def degree_x(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> RatPoly:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return RatPoly.zero()

    def eval(self, n: Scalar, x: Scalar) -> Scalar:
        """Substitute both variables, exactly (Horner in x)."""
        n = _exact_scalar(n)
        return _horner([c(n) for c in self.coeffs], _exact_scalar(x))

    def at_x(self, x: Scalar) -> RatPoly:
        """Evaluate the x-variable, leaving a polynomial in n."""
        return _horner(self.coeffs, _exact_scalar(x), RatPoly.zero())

    def render(self) -> str:
        """Human formatting, e.g. ``(n^2 - 3n + 3)x^2 + (n - 5)x + 1``."""
        return _join_signed(
            _signed_term(self.coeffs[j], _power("x", j))
            for j in range(self.degree_x, -1, -1) if self.coeffs[j]
        )

    def __repr__(self) -> str:
        return f"GenPoly(eps={self.eps:+d}, {self.render()!r})"

    def __str__(self) -> str:
        return self.render()
