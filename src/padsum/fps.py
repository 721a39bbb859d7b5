"""The factorial series F(x) = sum_n n! x^n and residual checks for the
two differential equations it satisfies.

A truncation of F is an exact polynomial, and its coefficients are the
factorials themselves.  Each residual applies its operator to them on
integer coefficient lists, through ``kernel._derivative`` and
``kernel._add_product``, and is returned as the tuple of its coefficients,
lowest degree first: this module builds no polynomial object and runs on
``kernel`` alone.  The checks then decide which degrees of a residual are
genuine and which are truncation artifacts.  Artifacts are whitelisted by
explicit degree and pinned to their exact values, never judged by
magnitude: with exact arithmetic any unexpected nonzero coefficient is a
bug, not noise.
"""

from __future__ import annotations

from typing import NamedTuple

from .kernel import _add_product, _at_least, _derivative, factorial


def _apply(coeffs, terms) -> list:
    """sum_i q_i * d^(d_i) f on coefficient lists: ``coeffs`` are f's, and
    ``terms`` holds (q_i's coefficients, d_i)."""
    derivatives = [coeffs]
    for _ in range(max((d for _, d in terms), default=0)):
        derivatives.append(_derivative(derivatives[-1]))
    total: list = []
    for q, d in terms:
        _add_product(total, q, derivatives[d])
    return total


def first_order_residual(order: int) -> tuple[int, ...]:
    """Residual of x^2 F' + (x - 1) F + 1 for F = sum_{n<=order} n! x^n.

    For the full series the left side is identically zero; for the
    truncation everything cancels except the boundary coefficient
    (order+1)! at degree order+1.  Requires order >= 2.
    """
    _at_least("order", order, 2)
    residual = _apply([factorial(n) for n in range(order + 1)], [((0, 0, 1), 1), ((-1, 1), 0)])
    residual[0] += 1
    return tuple(residual)


def second_order_residual(order: int) -> tuple[int, ...]:
    """Residual of x^2 F'' + (3x - 1) F' + F for F = sum_{n<=order} n! x^n.

    Its x^m coefficient is (m+1)^2 c_m - (m+1) c_(m+1) with c_m = m! up to
    the order and 0 beyond, so degrees 0..order-1 cancel and the truncation
    leaves (order+1) * (order+1)! at degree order and 0 at order+1.
    Requires order >= 3.
    """
    _at_least("order", order, 3)
    operator = [((0, 0, 1), 2), ((-1, 3), 1), ((1,), 0)]
    return tuple(_apply([factorial(n) for n in range(order + 1)], operator))


class OdeCheck(NamedTuple):
    """Verdict of an ODE residual check: the first degree whose coefficient
    is wrong (if any), and the coefficients at the artifact degrees."""

    ok: bool
    bad_degree: int | None
    artifacts: dict[int, int]


def _verdict(residual: tuple[int, ...], expected: dict[int, int]) -> OdeCheck:
    """Every coefficient of ``residual`` must vanish except at the artifact
    degrees in ``expected``, which must equal their expected values."""
    coeffs = residual + (0,) * (max(expected) + 1 - len(residual))
    bad = next((d for d, c in enumerate(coeffs) if c != expected.get(d, 0)), None)
    return OdeCheck(bad is None, bad, {d: coeffs[d] for d in expected})


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
