"""Exact polynomial arithmetic, both layers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padsum.poly import GenPoly, RatPoly

coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(coeff, min_size=0, max_size=5).map(RatPoly)


def test_eval_examples():
    assert RatPoly((-2, 1))(0) == -2  # x - 2 at 0
    assert RatPoly.zero()(Fraction(7, 3)) == 0
    # the quadratic coefficient polynomial n^2 - 3n + 3 at n = 2, by hand
    assert RatPoly((3, -3, 1))(2) == 1


def test_canonical_form():
    assert RatPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert RatPoly((0, 0)).is_zero()
    assert RatPoly(()).degree == -1
    difference = RatPoly((1, 1)) - RatPoly((0, 1))
    assert difference.coeffs == (Fraction(1),)


def test_rejects_floats():
    with pytest.raises(TypeError):
        RatPoly((0.5,))
    with pytest.raises(TypeError):
        RatPoly((1, 2))(0.5)
    with pytest.raises(TypeError):
        GenPoly(1, (1, RatPoly((0, 1)))).eval(1, 0.5)


def test_rejects_bools():
    # bool subclasses int, but True is no exact coefficient or argument
    for call in (
        lambda: RatPoly([True, 2]),
        lambda: GenPoly(1, (True,)),
        lambda: RatPoly((1, 2))(False),
    ):
        with pytest.raises(TypeError):
            call()


def test_integer_data_stays_int():
    assert type(RatPoly((1, 2, 3))(5)) is int
    assert RatPoly((1, 2, 3))(5) == 86
    assert type(RatPoly((1, 2)).coeff(7)) is int
    assert all(type(c) is int for c in (RatPoly((1, 2)) * RatPoly((3, 4))).coeffs)
    a = GenPoly(-1, (RatPoly((-1,)), RatPoly((-2, 1))))  # A_1 at eps = -1
    assert [type(a.eval(n, x)) for n in (0, 3) for x in (-1, 2)] == [int] * 4
    assert a.eval(3, Fraction(1, 2)) == Fraction(-1, 2)


@given(
    st.lists(st.one_of(st.integers(-9, 9), coeff), max_size=5),
    st.one_of(st.integers(-5, 5), coeff),
)
def test_mixed_int_fraction_eval_matches_fraction_reference(cs, t):
    # all-int lists included: RatPoly(ints) is the same key as its Fraction twin
    mixed = RatPoly(cs)
    reference = RatPoly([Fraction(c) for c in cs])
    assert mixed == reference
    assert hash(mixed) == hash(reference)
    expected = sum((Fraction(c) * Fraction(t) ** i for i, c in enumerate(cs)), Fraction(0))
    assert mixed(t) == reference(Fraction(t)) == expected


def test_shift_examples():
    n = RatPoly.monomial(1)
    assert n.shift() == RatPoly((1, 1))
    assert RatPoly.constant(9).shift() == RatPoly.constant(9)
    # (n+1)^2 - n^2 = 2n + 1, by hand expansion
    assert RatPoly((0, 0, 1)).shift() - RatPoly((0, 0, 1)) == RatPoly((1, 2))
    assert RatPoly((0, 0, 1)).shift(-2) == RatPoly((4, -4, 1))
    assert type(RatPoly().shift(3)) is RatPoly


def test_arithmetic_identities():
    p = RatPoly((1, -2, 3))
    assert (p + (-p)).is_zero()
    assert p * RatPoly.one() == p
    assert p * 0 == RatPoly.zero()
    assert (p**2) == p * p
    assert p.derivative() == RatPoly((-2, 6))
    assert RatPoly((1,)) + RatPoly((0, 0, 5)) == RatPoly((1, 0, 5))  # shorter first
    assert RatPoly((1, 0, 2)) * RatPoly((0, 3)) == RatPoly((0, 3, 0, 6))  # zero inside


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(polys, polys)
def test_degree_of_product_adds(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).degree == a.degree + b.degree


@given(polys, polys)
def test_shift_is_ring_homomorphism(a, b):
    assert (a * b).shift() == a.shift() * b.shift()
    assert (a + b).shift() == a.shift() + b.shift()


def test_render():
    assert RatPoly((3, -3, 1)).render("n") == "n^2 - 3n + 3"
    assert RatPoly((-1, 3, -1)).render("x") == "-x^2 + 3x - 1"
    assert RatPoly.zero().render() == "0"
    assert RatPoly((Fraction(1, 2),)).render() == "1/2"


def test_genpoly_eval_and_slices():
    # (n - 2)x + eps for both signs
    for eps in (1, -1):
        a1 = GenPoly(eps, (RatPoly.constant(eps), RatPoly((-2, 1))))
        assert a1.eval(0, 1) == -2 + eps
        assert a1.at_x(1) == RatPoly((eps - 2, 1))
        assert a1.coeff(1) == RatPoly((-2, 1))
        assert a1.coeff(5).is_zero()
    empty = GenPoly(1, ()).at_x(Fraction(1, 2))
    assert type(empty) is RatPoly and empty == RatPoly.zero()


def test_genpoly_canonical_and_xpow():
    g = GenPoly(1, (RatPoly.one(), RatPoly.zero(), RatPoly.zero()))
    assert g.degree_x == 0


def test_genpoly_render():
    a2 = GenPoly(1, (RatPoly.one(), RatPoly((-5, 1)), RatPoly((3, -3, 1))))
    assert a2.render() == "(n^2 - 3n + 3)x^2 + (n - 5)x + 1"
    a1_minus = GenPoly(-1, (RatPoly.constant(-1), RatPoly((-2, 1))))
    assert a1_minus.render() == "(n - 2)x - 1"
