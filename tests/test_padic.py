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


def expand_reference(q, p, m):
    """The reference expansion: the unit q / p**v as a ``Fraction``, and its
    numerator times the inverse of its denominator mod p**m."""
    q = Fraction(q)
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


@given(
    num=st.integers(min_value=-10**30, max_value=10**30),
    den=st.integers(min_value=1, max_value=10**12),
    p=st.sampled_from([2, 3, 5, 7, 11, 1000003]),
    e=st.integers(min_value=-40, max_value=40),
    m=st.integers(min_value=1, max_value=40),
)
def test_expand_matches_the_fraction_formula(num, den, p, e, m):
    # p**e moves the valuation far from 0 on either side
    prime = Prime(p)
    q = Fraction(num, den) * Fraction(p) ** e
    approx = expand(q, prime, m)
    assert approx == expand_reference(q, prime, m)
    assert approx.render() == expand_reference(q, prime, m).render()


def test_convergence_gate_builds_its_threshold_only_to_refuse(monkeypatch):
    def refuse(*args):
        raise AssertionError("require_convergence built a Fraction")

    # padic names Fraction in annotations only and looks the class up here
    monkeypatch.setattr("padsum.padic._fraction_class", refuse)
    for x in (7, Fraction(2, 3), Fraction(1, 3), 0):
        assert require_convergence(x, P2) is None
    monkeypatch.undo()
    with pytest.raises(ConvergenceDomainError) as err:
        require_convergence(Fraction(1, 9), P3)
    assert err.value.threshold == Fraction(-1, 2)
    assert str(err.value) == (
        "x = 1/9 is outside the convergence domain for p = 3: v_p(x) must exceed -1/2")


def test_convergence_threshold_examples():
    # outside: the error names the threshold -1/(p-1); v_2(1/2) = -1 shows
    # that it is exclusive
    for x, p, threshold in ((Fraction(1, 2), P2, Fraction(-1)),
                            (Fraction(7, 15), P5, Fraction(-1, 4))):
        with pytest.raises(ConvergenceDomainError) as err:
            require_convergence(x, p)
        assert (err.value.x, err.value.prime, err.value.threshold) == (x, p, threshold)
    # inside: the gate returns
    assert require_convergence(7, P2) is None
    assert require_convergence(Fraction(7, 3), P5) is None
    assert require_convergence(0, P2) is None


def gate_reference(x, p):
    """The general family's convergence test v_p(x) (p-1) alpha > -S, taken
    through a valuation, at the series' alpha = S = 1."""
    alpha = s = 1
    v = val_rat(x, p)
    return v.is_infinite or v.exponent * (p - 1) * alpha > -s


@given(
    num=st.integers(min_value=-10**6, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    e=st.integers(min_value=-6, max_value=6),
)
def test_convergence_gate_agrees_with_the_valuation_inequality(num, den, p, e):
    # x = 0 and negative x are in range; p**e moves the power of p into the
    # numerator (e > 0) or the denominator (e < 0)
    prime = Prime(p)
    x = Fraction(num, den) * Fraction(p) ** e
    try:
        require_convergence(x, prime)
        inside = True
    except ConvergenceDomainError as err:
        inside = False
        assert (err.x, err.prime, err.threshold) == (x, prime, Fraction(-1, p - 1))
    assert inside == gate_reference(x, prime)


def test_padic_functions_refuse_floats():
    calls = (
        lambda: val_rat(0.5, P2),
        lambda: expand(0.5, P2, 4),
        lambda: require_convergence(0.5, P2),
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
