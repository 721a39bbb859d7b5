"""Truncated formal power series with exact coefficients, and residual
checks for the differential equations satisfied by the factorial series
F(x) = sum_n n! P(n) x^n.

Truncation artifacts are whitelisted by explicit degree, never by
magnitude: with exact arithmetic any unexpected nonzero coefficient is a
bug, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .kernel import factorial
from .poly import RatPoly, Scalar, _exact_scalar


class TruncatedPS:
    """Coefficients c_0..c_N of a power series, order N fixed at creation.

    Binary operations truncate to the smaller operand order; nothing ever
    claims accuracy beyond the stored degree.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        self.coeffs: tuple[Scalar, ...] = tuple(_exact_scalar(c) for c in coeffs)

    @classmethod
    def from_poly(cls, poly: RatPoly, order: int) -> "TruncatedPS":
        """Coefficients 0..order of a polynomial (higher degrees dropped)."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return cls(tuple(poly.coeff(i) for i in range(order + 1)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        raise IndexError(f"degree {i} beyond truncation order {self.order}")

    def as_poly(self) -> RatPoly:
        """The stored coefficients as an exact polynomial."""
        return RatPoly(self.coeffs)

    def diff(self) -> "TruncatedPS":
        """Termwise derivative; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate below order 1")
        return TruncatedPS(tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])))

    def mul_xpow(self, m: int) -> "TruncatedPS":
        """Multiply by x**m, truncating at the original order."""
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        shifted = (0,) * m + self.coeffs
        return TruncatedPS(shifted[: self.order + 1])

    def mul_poly(self, poly: RatPoly) -> "TruncatedPS":
        """Multiply by a polynomial in x, truncating at the original order."""
        out = [0] * (self.order + 1)
        for j, b in enumerate(poly.coeffs):
            if b == 0:
                continue
            for i in range(self.order + 1 - j):
                out[i + j] += self.coeffs[i] * b
        return TruncatedPS(out)

    def __add__(self, other) -> "TruncatedPS":
        if not isinstance(other, TruncatedPS):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedPS(tuple(self.coeffs[i] + other.coeffs[i] for i in range(order + 1)))

    def __sub__(self, other) -> "TruncatedPS":
        if not isinstance(other, TruncatedPS):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedPS(tuple(self.coeffs[i] - other.coeffs[i] for i in range(order + 1)))

    def __neg__(self) -> "TruncatedPS":
        return TruncatedPS(tuple(-c for c in self.coeffs))

    def scale(self, c: Scalar) -> "TruncatedPS":
        c = _exact_scalar(c)
        return TruncatedPS(tuple(a * c for a in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPS):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedPS({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        poly = self.as_poly().render("x")
        return f"{poly} + O(x^{self.order + 1})"


def factorial_series(poly: RatPoly, order: int) -> TruncatedPS:
    """The truncation of F(x) = sum_n n! P(n) x^n: c_n = n! * P(n)."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return TruncatedPS(tuple(factorial(n) * poly(n) for n in range(order + 1)))


def apply_diff_operator(
    series: TruncatedPS,
    terms: Sequence[tuple[RatPoly, int]],
    out_order: int | None = None,
) -> TruncatedPS:
    """Apply sum_i q_i(x) * d^(d_i)/dx^(d_i) to the stored coefficients.

    The stored coefficients are treated as an exact polynomial (which a
    truncation is), so the result is exact through ``out_order``; callers
    decide which degrees are genuine and which are truncation artifacts.
    """
    poly = series.as_poly()
    max_deriv = max((d for _, d in terms), default=0)
    derivatives = [poly]
    for _ in range(max_deriv):
        derivatives.append(derivatives[-1].derivative())
    total = RatPoly.zero()
    for q, d in terms:
        total = total + q * derivatives[d]
    if out_order is None:
        out_order = max(total.degree, 0)
    return TruncatedPS.from_poly(total, out_order)


def first_order_residual(order: int) -> TruncatedPS:
    """Residual of x^2 F' + (x - 1) F + 1 for F = sum_{n<=order} n! x^n.

    For the full series the left side is identically zero; for the
    truncation everything cancels except the boundary coefficient
    (order+1)! at degree order+1.  Requires order >= 2.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    series = factorial_series(RatPoly.one(), order)
    residual = apply_diff_operator(
        series,
        [(RatPoly.monomial(2), 1), (RatPoly((-1, 1)), 0)],
        out_order=order + 1,
    )
    return residual + TruncatedPS.from_poly(RatPoly.one(), order + 1)


def second_order_residual(order: int) -> TruncatedPS:
    """Residual of x^2 F'' + (3x - 1) F' + F for F = sum_{n<=order} n! x^n.

    Degrees 0..order-1 cancel; the truncation may leave artifacts at
    degrees order and order+1 only.  Requires order >= 3.
    """
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    series = factorial_series(RatPoly.one(), order)
    return apply_diff_operator(
        series,
        [(RatPoly.monomial(2), 2), (RatPoly((-1, 3)), 1), (RatPoly.one(), 0)],
        out_order=order + 1,
    )


@dataclass(frozen=True)
class OdeCheck:
    """Verdict of an ODE residual check: which degrees had to vanish, which
    were whitelisted as truncation artifacts, and what the artifacts were."""

    ok: bool
    residual: TruncatedPS
    bad_degree: int | None
    artifacts: dict[int, Scalar]

    def report(self, check: str, params: dict) -> dict:
        return {
            "check": check,
            "params": params,
            "bad_degree": self.bad_degree,
            "artifacts": {str(d): str(v) for d, v in self.artifacts.items()},
            "verdict": "PASS" if self.ok else "FAIL",
        }


def check_first_order_ode(order: int) -> OdeCheck:
    """Degrees 0..order of the first-order residual must vanish and the
    artifact at degree order+1 must equal (order+1)!, exactly."""
    residual = first_order_residual(order)
    bad = next((i for i in range(order + 1) if residual.coeff(i) != 0), None)
    artifact = residual.coeff(order + 1)
    ok = bad is None and artifact == factorial(order + 1)
    if bad is None and artifact != factorial(order + 1):
        bad = order + 1
    return OdeCheck(ok, residual, bad, {order + 1: artifact})


def check_second_order_ode(order: int) -> OdeCheck:
    """Degrees 0..order-1 of the second-order residual must vanish; degrees
    order and order+1 are truncation artifacts and only get recorded."""
    residual = second_order_residual(order)
    bad = next((i for i in range(order) if residual.coeff(i) != 0), None)
    artifacts = {order: residual.coeff(order), order + 1: residual.coeff(order + 1)}
    return OdeCheck(bad is None, residual, bad, artifacts)
