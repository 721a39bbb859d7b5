"""The truncated factorial series and its ODE residuals."""

import pytest
from hypothesis import given, strategies as st

import padsum.fps
from padsum.fps import (
    apply_diff_operator,
    check_first_order_ode,
    check_second_order_ode,
    factorial_series,
    first_order_residual,
    second_order_residual,
)
from padsum.kernel import factorial
from padsum.poly import RatPoly


def test_factorial_series_coefficients():
    assert factorial_series(RatPoly.one(), 3).coeffs == (1, 1, 2, 6)
    assert factorial_series(RatPoly.monomial(1), 3).coeffs == (0, 1, 4, 18)
    # termwise oracle: n! * (n^2 + 1) for n = 0, 1, 2
    assert factorial_series(RatPoly((1, 0, 1)), 2).coeffs == (1, 2, 10)


def test_series_ratio_invariant():
    poly = RatPoly((1, -3, 1))  # n^2 - 3n + 1, nonzero away from its roots
    series = factorial_series(poly, 12)
    for n in range(12):
        if poly(n) != 0 and poly(n + 1) != 0:
            assert series.coeff(n + 1) / series.coeff(n) == (n + 1) * poly(n + 1) / poly(n)


def test_derivative_of_plain_factorial_series():
    # (n+1)! shifted down: 1, 4, 18, 96
    derivative = factorial_series(RatPoly.one(), 5).derivative()
    assert derivative.coeffs[:4] == (1, 4, 18, 96)


def test_first_order_residual_structure():
    residual = first_order_residual(10)
    assert all(residual.coeff(i) == 0 for i in range(11))
    assert residual.coeff(11) == factorial(11)


def test_first_order_residual_detects_corruption():
    # corrupt c_2 from 2 to 3; the residual coefficient m*c_{m-1} - c_m at
    # degree 2 becomes 2*1 - 3 = -1
    coeffs = [factorial(n) for n in range(6)]
    coeffs[2] = 3
    terms = [(RatPoly.monomial(2), 1), (RatPoly((-1, 1)), 0)]
    residual = apply_diff_operator(RatPoly(coeffs), terms) + 1
    assert residual.coeff(2) == -1


def test_second_order_residual_structure():
    residual = second_order_residual(10)
    assert all(residual.coeff(i) == 0 for i in range(10))
    minimal = second_order_residual(3)
    assert all(minimal.coeff(i) == 0 for i in range(3))


def test_second_order_rejects_wrong_series():
    # F = sum n! n x^n does not satisfy the homogeneous equation
    wrong = factorial_series(RatPoly.monomial(1), 6)
    residual = apply_diff_operator(
        wrong,
        [(RatPoly.monomial(2), 2), (RatPoly((-1, 3)), 1), (RatPoly.one(), 0)],
    )
    assert residual.coeff(0) != 0 or residual.coeff(1) != 0


def test_ode_checks_over_a_range():
    for order in range(3, 21):
        assert check_first_order_ode(order).ok
        assert check_second_order_ode(order).ok


@pytest.mark.parametrize("offset", (0, 1))
def test_second_order_artifacts_are_pinned(monkeypatch, offset):
    # x^m coefficient (m+1)^2 m! - (m+1) c_(m+1): the truncation leaves
    # (N+1) * (N+1)! at degree N and 0 at degree N+1
    order = 7
    assert check_second_order_ode(order).artifacts == {order: 8 * factorial(8), order + 1: 0}
    spoiled = second_order_residual(order) + RatPoly.monomial(order + offset)
    monkeypatch.setattr(padsum.fps, "second_order_residual", lambda n: spoiled)
    check = check_second_order_ode(order)
    assert (check.ok, check.bad_degree) == (False, order + offset)


def test_operator_linearity():
    terms = [(RatPoly.monomial(2), 1), (RatPoly((-1, 1)), 0)]
    f = factorial_series(RatPoly.one(), 8)
    g = factorial_series(RatPoly.monomial(1), 8)
    lhs = apply_diff_operator(3 * f + 2 * g, terms)
    assert lhs == 3 * apply_diff_operator(f, terms) + 2 * apply_diff_operator(g, terms)


def test_order_bookkeeping():
    with pytest.raises(ValueError):
        first_order_residual(1)
    with pytest.raises(ValueError):
        second_order_residual(2)


def _reference_operator(series, terms):
    """sum_i q_i * d^(d_i) series in RatPoly arithmetic, the reference for
    the coefficient-list version."""
    derivatives = [series]
    for _ in range(max((d for _, d in terms), default=0)):
        derivatives.append(derivatives[-1].derivative())
    total = RatPoly.zero()
    for q, d in terms:
        total = total + q * derivatives[d]
    return total


_SCALARS = st.one_of(st.integers(-50, 50), st.fractions(-5, 5, max_denominator=7))
_POLYS = st.lists(_SCALARS, max_size=8).map(RatPoly)


@given(series=_POLYS, terms=st.lists(st.tuples(_POLYS, st.integers(0, 3)), max_size=4))
def test_apply_diff_operator_matches_ratpoly_arithmetic(series, terms):
    assert apply_diff_operator(series, terms) == _reference_operator(series, terms)

