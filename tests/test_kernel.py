"""Exact integer primitives."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from padsum.kernel import _dumps, digit_sum, factorial, rising_block
from padsum.padic import Prime


def product_block_oracle(base: int, width: int, power: int) -> int:
    """Direct-product reference for rising_block."""
    result = 1
    for _ in range(power):
        for s in range(1, width + 1):
            result *= base + s
    return result


def digit_sum_oracle(n: int, base: int) -> int:
    """Repeated-division reference for digit_sum."""
    total = 0
    while n:
        total += n % base
        n //= base
    return total


def test_factorial_small_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


@given(st.integers(min_value=1, max_value=300))
def test_factorial_recurrence(n):
    assert factorial(n) == n * factorial(n - 1)


def test_rising_block_examples():
    assert rising_block(2, 3, 1) == 3 * 4 * 5
    assert rising_block(17, 4, 0) == 1
    # frozen via product_block_oracle(1, 1, 2) == (1+1)^2
    assert rising_block(1, 1, 2) == 4
    assert rising_block(1, 1, 2) == product_block_oracle(1, 1, 2)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=6),
)
def test_rising_block_extends_factorial_powers(mu, nu, lam, n):
    # the block is exactly the factor between consecutive factorial powers
    if mu + nu < 1:
        nu = 1 - mu
    assert (
        rising_block(mu * n + nu, mu, lam) * factorial(mu * n + nu) ** lam
        == factorial(mu * (n + 1) + nu) ** lam
    )


def test_rising_block_validates_width_and_power():
    with pytest.raises(ValueError):
        rising_block(2, 0, 1)
    with pytest.raises(ValueError):
        rising_block(2, 1, -1)


def test_digit_sum_examples():
    # 10 = 1010 in base 2, frozen via digit_sum_oracle
    assert digit_sum(10, 2) == 2
    assert digit_sum(10, 2) == digit_sum_oracle(10, 2)
    for p in (2, 3, 5, 7):
        assert digit_sum(0, p) == 0
        assert digit_sum(p - 1, p) == p - 1


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([3, 5, 7, 11]))
def test_digit_sum_congruence(n, p):
    assert digit_sum(n, p) % (p - 1) == n % (p - 1)


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
)
def test_fraction_arithmetic_stays_reduced(a, b):
    for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
        assert gcd(value.numerator, value.denominator) == 1
        assert value.denominator > 0


def test_fraction_zero_division_is_hard_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


# JSON-shaped values: every leaf json writes, strings that need escaping
# (quotes, backslashes, control characters, non-ASCII and non-BMP text),
# and the containers padsum writes, nested and empty
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.sampled_from([2, 3, 5, 7, 11, 997]).map(Prime)
    | st.floats()
    | st.text()
    | st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7e))  # " and \ too
    | st.text(alphabet='"\\\n\t\x00\x1f\x7f é€😀 az')
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.lists(st.integers())
        | st.dictionaries(
            st.text() | st.text(alphabet='"\\\x01é😀 k') | st.sampled_from('"\\k'), inner
        )
    ),
    max_leaves=30,
)


@given(_JSON_VALUES)
def test_dumps_writes_the_bytes_of_json(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    [], (), {}, [[]], {"a": {}}, [{}, [()]], "", True, None, -0.0, float("nan"),
    '"', "a\\b", "\x7f", "é", {'"': 1, "a\\": ["\n"]},
    {"b": 1, "a": [True, False, None], "c": (Prime(3), -(10**80))},
    {1: "int keys", 2: [1.5]}, {None: 0}, [1, True, 2], [Prime(5), 7],
])
def test_dumps_writes_the_bytes_of_json_on_edge_values(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_dumps_refuses_what_json_refuses():
    for value in ([Fraction(1, 2)], {"a": {1j}}, {(1,): 0}):
        with pytest.raises(TypeError):
            _dumps(value)
