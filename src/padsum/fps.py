"""The factorial series F(x) = sum_n n! P(n) x^n and residual checks for
the differential equations it satisfies.

A truncation of F is an exact polynomial, so it is a ``RatPoly`` and every
operator applies to it exactly.  The checks then decide which degrees of a
residual are genuine and which are truncation artifacts.  Artifacts are
whitelisted by explicit degree and pinned to their exact values, never
judged by magnitude: with exact arithmetic any unexpected nonzero
coefficient is a bug, not noise.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .kernel import _at_least, factorial
from .poly import RatPoly, Scalar


def factorial_series(poly: RatPoly, order: int) -> RatPoly:
    """The truncation sum_{n<=order} n! P(n) x^n of F: c_n = n! * P(n)."""
    _at_least("order", order, 0)
    return RatPoly(factorial(n) * poly(n) for n in range(order + 1))


def apply_diff_operator(series: RatPoly, terms: Sequence[tuple[RatPoly, int]]) -> RatPoly:
    """Apply sum_i q_i(x) * d^(d_i)/dx^(d_i) to a polynomial, exactly."""
    derivatives = [series]
    for _ in range(max((d for _, d in terms), default=0)):
        derivatives.append(derivatives[-1].derivative())
    total = RatPoly.zero()
    for q, d in terms:
        total = total + q * derivatives[d]
    return total


def first_order_residual(order: int) -> RatPoly:
    """Residual of x^2 F' + (x - 1) F + 1 for F = sum_{n<=order} n! x^n.

    For the full series the left side is identically zero; for the
    truncation everything cancels except the boundary coefficient
    (order+1)! at degree order+1.  Requires order >= 2.
    """
    _at_least("order", order, 2)
    series = factorial_series(RatPoly.one(), order)
    return apply_diff_operator(series, [(RatPoly.monomial(2), 1), (RatPoly((-1, 1)), 0)]) + 1


def second_order_residual(order: int) -> RatPoly:
    """Residual of x^2 F'' + (3x - 1) F' + F for F = sum_{n<=order} n! x^n.

    Its x^m coefficient is (m+1)^2 c_m - (m+1) c_(m+1) with c_m = m! up to
    the order and 0 beyond, so degrees 0..order-1 cancel and the truncation
    leaves (order+1) * (order+1)! at degree order and 0 at order+1.
    Requires order >= 3.
    """
    _at_least("order", order, 3)
    series = factorial_series(RatPoly.one(), order)
    return apply_diff_operator(
        series, [(RatPoly.monomial(2), 2), (RatPoly((-1, 3)), 1), (RatPoly.one(), 0)]
    )


class OdeCheck(NamedTuple):
    """Verdict of an ODE residual check: the first degree whose coefficient
    is wrong (if any), and the coefficients at the artifact degrees."""

    ok: bool
    bad_degree: int | None
    artifacts: dict[int, Scalar]


def _verdict(residual: RatPoly, expected: dict[int, Scalar]) -> OdeCheck:
    """Every coefficient must vanish except at the artifact degrees in
    ``expected``, which must equal their expected values."""
    degrees = range(max(residual.degree, *expected) + 1)
    bad = next((d for d in degrees if residual.coeff(d) != expected.get(d, 0)), None)
    return OdeCheck(bad is None, bad, {d: residual.coeff(d) for d in expected})


def check_first_order_ode(order: int) -> OdeCheck:
    """Degrees 0..order of the first-order residual must vanish and the
    artifact at degree order+1 must equal (order+1)!, exactly."""
    return _verdict(first_order_residual(order), {order + 1: factorial(order + 1)})


def check_second_order_ode(order: int) -> OdeCheck:
    """Degrees 0..order-1 of the second-order residual must vanish, and the
    artifacts must equal (order+1) * (order+1)! at degree order and 0 at
    degree order+1, exactly."""
    expected = {order: (order + 1) * factorial(order + 1), order + 1: 0}
    return _verdict(second_order_residual(order), expected)
