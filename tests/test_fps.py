"""The truncated factorial series and its ODE residuals."""

import pytest
from hypothesis import given, strategies as st

import padsum.fps
from padsum.fps import (
    _apply,
    check_first_order_ode,
    check_second_order_ode,
    first_order_residual,
    second_order_residual,
)
from padsum.kernel import factorial
from padsum.poly import RatPoly


FIRST_ORDER = [((0, 0, 1), 1), ((-1, 1), 0)]  # x^2 d/dx + (x - 1), on coefficient lists
SECOND_ORDER = [((0, 0, 1), 2), ((-1, 3), 1), ((1,), 0)]  # x^2 d^2/dx^2 + (3x - 1) d/dx + 1


def _factorials(order):
    return [factorial(n) for n in range(order + 1)]


def test_derivative_of_plain_factorial_series():
    # (n+1)! shifted down: 1, 4, 18, 96
    assert _apply(_factorials(5), [((1,), 1)])[:4] == [1, 4, 18, 96]


def test_first_order_residual_structure():
    residual = first_order_residual(10)
    assert type(residual) is tuple and set(map(type, residual)) == {int}
    assert residual == (0,) * 11 + (factorial(11),)


def test_first_order_residual_detects_corruption():
    # corrupt c_2 from 2 to 3; the residual coefficient m*c_{m-1} - c_m at
    # degree 2 becomes 2*1 - 3 = -1
    coeffs = _factorials(5)
    coeffs[2] = 3
    assert _apply(coeffs, FIRST_ORDER)[2] == -1


def test_second_order_residual_structure():
    residual = second_order_residual(10)
    assert type(residual) is tuple and set(map(type, residual)) == {int}
    assert residual == (0,) * 10 + (11 * factorial(11),)
    assert second_order_residual(3) == (0, 0, 0, 4 * factorial(4))


def test_second_order_rejects_wrong_series():
    # F = sum n! n x^n does not satisfy the homogeneous equation
    residual = _apply([n * c for n, c in enumerate(_factorials(6))], SECOND_ORDER)
    assert residual[0] != 0 or residual[1] != 0


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
    spoiled = [*second_order_residual(order), 0]
    spoiled[order + offset] += 1
    monkeypatch.setattr(padsum.fps, "second_order_residual", lambda n: tuple(spoiled))
    check = check_second_order_ode(order)
    assert (check.ok, check.bad_degree) == (False, order + offset)


def test_operator_linearity():
    f = _factorials(8)
    g = [n * c for n, c in enumerate(f)]
    lhs = _apply([3 * a + 2 * b for a, b in zip(f, g)], FIRST_ORDER)
    assert lhs == [3 * a + 2 * b for a, b in zip(_apply(f, FIRST_ORDER), _apply(g, FIRST_ORDER))]


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
    applied = _apply(series.coeffs, [(q.coeffs, d) for q, d in terms])
    assert RatPoly(applied) == _reference_operator(series, terms)

