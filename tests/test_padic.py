"""Valuations, expansions, convergence domain."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padsum.kernel import factorial
from padsum.padic import (
    ConvergenceDomainError,
    PadicApprox,
    Prime,
    Valuation,
    expand,
    require_convergence,
    val_factorial,
    val_int,
    val_rat,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def val_oracle(n: int, p: int) -> int:
    """Direct factor-out-p reference valuation."""
    assert n != 0
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def test_prime_validation():
    assert Prime(2) == 2
    assert isinstance(Prime(9973), int)
    assert Prime(9973) == 9973
    # only an int is checked: a bool, a float or a Fraction is refused, never converted
    for bad in (1, 0, -3, 9, 10000, True, 5.0, Fraction(5)):
        with pytest.raises(ValueError):
            Prime(bad)


def test_valuation_ordering_and_infinity():
    assert Valuation(3) > Valuation(1)
    assert Valuation.INFINITE > Valuation(10**9)
    assert Valuation.INFINITE == Valuation.INFINITE
    assert Valuation.INFINITE >= Valuation.INFINITE
    assert Valuation(2) > Fraction(-1, 2)
    assert not Valuation(-1) > Fraction(-1, 2)


def test_val_int_examples():
    assert val_int(12, P2) == Valuation(2)
    assert val_int(0, P5).is_infinite
    assert val_int(7, P5) == Valuation(0)
    assert val_int(-12, P2) == Valuation(2)


def test_val_factorial_examples():
    # 10! = 3628800 = 2^8 * ..., frozen via val_oracle
    assert val_factorial(10, P2) == Valuation(8)
    assert val_oracle(factorial(10), 2) == 8
    # among 1..25 there are 5 multiples of 5 and one extra factor from 25
    assert val_factorial(25, P5) == Valuation(6)
    assert val_factorial(0, P3) == Valuation(0)


@given(st.integers(min_value=0, max_value=300), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_val_factorial_matches_direct_factorization(n, p):
    assert val_factorial(n, Prime(p)) == val_int(factorial(n), Prime(p))


def test_val_rat_examples():
    assert val_rat(Fraction(1, 4), P2) == Valuation(-2)
    assert val_rat(Fraction(9, 2), P3) == Valuation(2)
    assert val_rat(0, P3).is_infinite


small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@given(small_fractions, small_fractions, st.sampled_from([2, 3, 5]))
def test_ultrametric_inequality(a, b, p):
    prime = Prime(p)
    va, vb, vs = val_rat(a, prime), val_rat(b, prime), val_rat(a + b, prime)
    assert vs >= min(va, vb, key=lambda v: v._key())
    if va != vb:
        assert vs == min(va, vb, key=lambda v: v._key())


@given(small_fractions, small_fractions, st.sampled_from([2, 3, 5]))
def test_valuation_multiplicativity(a, b, p):
    prime = Prime(p)
    product = val_rat(a * b, prime)
    if a != 0 and b != 0:
        assert product.exponent == val_rat(a, prime).exponent + val_rat(b, prime).exponent
    else:
        assert product.is_infinite


def test_expand_examples():
    minus_one = expand(Fraction(-1), P5, 3)
    assert minus_one.offset == 0 and minus_one.digits == (4, 4, 4)
    # modular-inverse oracle: 3 * 17 = 51 = 1 mod 25, and 17 = 2 + 3*5
    third = expand(Fraction(1, 3), P5, 2)
    assert third.digits == (2, 3)
    zero = expand(0, P3, 4)
    assert (zero.offset, zero.digits) == (0, (0, 0, 0, 0))


def test_expand_rendering():
    approx = expand(Fraction(1, 3), P5, 2)
    assert approx.render() == "p=5 val=0 digits=[2,3]"


def test_padic_approx_invariants():
    with pytest.raises(ValueError):
        PadicApprox(P5, 0, (0, 1))  # leading zero digit on a nonzero value
    with pytest.raises(ValueError):
        PadicApprox(P5, 0, (5,))  # digit out of range


@given(small_fractions, st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=12))
def test_expand_reconstruct_round_trip(q, p, m):
    prime = Prime(p)
    approx = expand(q, prime, m)
    unit = sum(d * p**i for i, d in enumerate(approx.digits))
    difference = Fraction(q) - Fraction(p) ** approx.offset * unit
    assert difference == 0 or val_rat(difference, prime) >= approx.offset + m


def test_convergence_threshold_examples():
    # outside: the error names the threshold, -1 for (alpha, S) = (1, 1) at
    # p = 2 and 0 for S = 0; v_2(1/2) = -1 shows the threshold is exclusive
    for x, alpha, s, threshold in ((Fraction(1, 2), 1, 1, Fraction(-1)), (1, 1, 0, 0)):
        with pytest.raises(ConvergenceDomainError) as err:
            require_convergence(x, P2, alpha, s)
        assert (err.value.x, err.value.prime, err.value.threshold) == (x, P2, threshold)
    # inside: the gate returns
    assert require_convergence(7, P2, 1, 1) is None
    assert require_convergence(7, P5, 2, 3) is None
    assert require_convergence(0, P2, 1, 0) is None


def test_padic_functions_refuse_floats():
    calls = (
        lambda: val_rat(0.5, P2),
        lambda: expand(0.5, P2, 4),
        lambda: require_convergence(0.5, P2, 1, 1),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_valuation_order_is_one_key():
    values = (Valuation(-1), Valuation(0), Valuation(3), Valuation.INFINITE, -2, 0, Fraction(5, 2))
    key = lambda v: v._key() if isinstance(v, Valuation) else v
    for a in values[:4]:
        for b in values:
            assert (a < b, a <= b, a == b, a != b, a > b, a >= b) == (
                key(a) < key(b), key(a) <= key(b), key(a) == key(b),
                key(a) != key(b), key(a) > key(b), key(a) >= key(b),
            )
    # a foreign type is not comparable: equality is False, ordering raises
    assert (Valuation(1) == "a") is False
    with pytest.raises(TypeError):
        Valuation(1) < "a"
    with pytest.raises(TypeError):
        Valuation(1) >= 0.5
