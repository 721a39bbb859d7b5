"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact; there are no tolerances anywhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
from fractions import Fraction

import pytest

from padsum.fps import check_first_order_ode, check_second_order_ode
from padsum.kernel import factorial
from padsum.padic import Prime, val_factorial, val_int
from padsum.poly import RatPoly
from padsum.series import (
    SeriesSpec,
    TelescopeSpec,
    finite_identity_sweep,
    padic_sum_verify,
    random_telescope_spec,
    series_error_profile,
    telescope_check,
    telescope_sweep,
)
from padsum.tables import (
    TableSet,
    aux_poly,
    bell_numbers,
    closed_forms,
    corrections_by_recurrence,
    eps_split,
    int_pairs,
    sequence_slice,
)

ACCEPTANCE_PRIMES = (Prime(2), Prime(3), Prime(5), Prime(7), Prime(11))


@pytest.fixture(scope="module")
def tables_plus():
    return TableSet.build(24, 1)


@pytest.fixture(scope="module")
def tables_minus():
    return TableSet.build(15, -1)


def announce(number: int, label: str):
    print(f"ACCEPTANCE {number:2d} PASS: {label}", flush=True)


def test_criterion_01_integer_pair_table():
    pairs = int_pairs(11)
    assert pairs.us == (0, 1, -1, -2, 9, -9, -50, 267, -413, -2180, 17731)
    assert pairs.vs == (-1, 1, 1, -5, 5, 21, -105, 141, 777, -5513, 13209)
    announce(1, "first eleven integer pairs (u_k, v_k) reproduced exactly")


# The closed-form coefficient polynomials through k = 5, transcribed by
# hand: CLOSED[k][j] = (ascending n-coefficients, sign parity k+j).  A sign
# parity of 1 means the whole coefficient carries one factor of the sign.
CLOSED = {
    0: {0: [1]},
    1: {0: [1], 1: [-2, 1]},
    2: {0: [1], 1: [-5, 1], 2: [3, -3, 1]},
    3: {0: [1], 1: [-9, 1], 2: [17, -7, 1], 3: [-4, 6, -4, 1]},
    4: {
        0: [1],
        1: [-14, 1],
        2: [52, -12, 1],
        3: [-49, 31, -9, 1],
        4: [5, -10, 10, -5, 1],
    },
    5: {
        0: [1],
        1: [-20, 1],
        2: [121, -18, 1],
        3: [-246, 88, -15, 1],
        4: [129, -111, 49, -11, 1],
        5: [-6, 15, -20, 15, -6, 1],
    },
}


def test_criterion_02_generating_polys_both_signs(tables_plus, tables_minus):
    for k, row in CLOSED.items():
        plus = tables_plus.gen.poly(k)
        minus = tables_minus.gen.poly(k)
        split = eps_split(plus, minus)
        for j, coeffs in row.items():
            expected = RatPoly(coeffs)
            even, odd = split[j]
            if (k + j) % 2 == 0:
                assert even == expected and odd.is_zero(), (k, j)
            else:
                assert odd == expected and even.is_zero(), (k, j)
    announce(2, "generating polynomials A_0..A_5 match the closed forms, both signs")


SEQUENCES = {
    "A+0,1": [1, -1, -1, 5, -5, -21],
    "A-0,1": [1, -3, 9, -31, 121, -523],
    "A+1,1": [1, 0, -2, 3, 4, -30],
    "A-1,1": [1, -2, 6, -21, 82, -354],
    "A+0,-1": [1, 3, 9, 31, 121, 523],
    "A-0,-1": [1, 1, -1, -5, -5, 21],
    "A+1,-1": [1, 2, 6, 21, 82, 354],
    "A-1,-1": [1, 0, -2, -3, 4, 30],
    "U+1": [0, 1, -1, -2, 9, -9],
    "U-1": [2, -5, 15, -52, 203, -877],
    "U+-1": [-2, -5, -15, -52, -203, -877],
    "U--1": [0, 1, 1, -2, -9, -9],
}


def test_criterion_03_named_sequences():
    for which, expected in SEQUENCES.items():
        kmax = 5 if which.startswith("A") else 6
        assert sequence_slice(which, kmax) == expected, which
    announce(3, "all twelve named sequence slices match their first six terms")


def test_criterion_04_bell_identity(tables_plus):
    bells = bell_numbers(26)
    for k in range(1, 26):
        assert -tables_plus.corr.u_poly(k)(-1) == bells[k + 1], k
    announce(4, "-U_k(-1) at eps=+1 equals the Bell number B_{k+1} for k = 1..25")


def test_criterion_05_route_independence(tables_plus, tables_minus):
    # route A: corrections read off the generating polynomials
    # route B: the self-contained correction recurrences
    for tables in (tables_plus, tables_minus):
        direct = corrections_by_recurrence(16, tables.eps)
        for k in range(1, 16):
            assert tables.corr.u_poly(k) == direct.u_poly(k), (tables.eps, k)
            assert tables.corr.v_poly(k) == direct.v_poly(k), (tables.eps, k)
    # route C: the integer recurrences, evaluated at x = 1, eps = +1
    pairs = int_pairs(15)
    for k in range(1, 16):
        assert pairs.u(k) == tables_plus.corr.u_poly(k)(1), k
        assert pairs.v(k) == tables_plus.corr.v_poly(k)(1), k
    # route D: the linear systems of the weight-(n+1) telescoping step
    for k in range(1, 16):
        solution = aux_poly(k)
        assert solution.poly == tables_plus.gen.poly(k - 1).at_x(1), k
        assert solution.u == pairs.u(k) and solution.v == pairs.v(k), k
    announce(5, "four independent routes agree for k <= 15")


FINITE_X_SET = (
    Fraction(-3), Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(3),
    Fraction(1, 2), Fraction(-2, 3),
)


def test_criterion_06_finite_identity_grid(tables_plus, tables_minus):
    checks = 0
    for tables in (tables_plus, tables_minus):
        for k in range(1, 16):
            for x in FINITE_X_SET:
                finite_identity_sweep(k, tables.eps, x, 25, tables)
                checks += 25
    assert checks == 2 * 15 * len(FINITE_X_SET) * 25
    announce(6, f"finite identity grid: zero residual on {checks} checks")


def test_criterion_07_telescoping():
    rng = random.Random(20260808)
    for index in range(20):
        spec = random_telescope_spec(rng)
        telescope_sweep(spec, 15)

    plain = TelescopeSpec(
        mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1), aux=RatPoly.one()
    )
    result = telescope_check(plain, 5)
    assert (result.value, result.rhs_constant, result.boundary) == (119, -1, 120)

    weighted = TelescopeSpec(
        mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1),
        aux=RatPoly.monomial(1),
    )
    result = telescope_check(weighted, 4)
    assert (result.value, result.rhs_constant, result.boundary) == (95, -1, 96)
    announce(7, "telescoping identity exact for 20 random specs + 2 named instances")


def test_criterion_08_padic_verification(tables_plus, tables_minus):
    cells = violations = 0
    for tables in (tables_plus, tables_minus):
        for k in range(1, 9):
            for x in (Fraction(1), Fraction(-1), Fraction(2)):
                spec = SeriesSpec(eps=tables.eps, x=x, k=k)
                claimed = spec.claimed_sum(tables)
                profile = series_error_profile(spec, claimed, 200, tables)
                perturbed = profile.shifted_claim(1)
                for p in ACCEPTANCE_PRIMES:
                    cells += 1
                    verdict = padic_sum_verify(profile, p)
                    if not verdict.passed:
                        violations += 1
                    wrong = padic_sum_verify(perturbed, p)
                    if wrong.passed:
                        violations += 1
    assert violations == 0
    assert cells == 2 * 8 * 3 * len(ACCEPTANCE_PRIMES)
    announce(8, f"valuation bound met and perturbations rejected on {cells} cells, N <= 200")


def test_criterion_09_structural_closed_forms(tables_plus, tables_minus):
    for tables in (tables_plus, tables_minus):
        for k in range(1, 16):
            diagonal, linear = closed_forms(k, tables.eps)
            assert tables.gen.poly(k).coeff(k) == diagonal, k
            assert tables.gen.poly(k).coeff(1) == linear, k
    announce(9, "diagonal and linear closed forms match the tables for k <= 15")


def test_criterion_10_ode_residuals():
    for order in range(3, 51):
        first = check_first_order_ode(order)
        assert first.ok, order
        assert first.artifacts[order + 1] == factorial(order + 1)
        assert check_second_order_ode(order).ok, order
    announce(10, "both ODE residuals vanish for truncation orders 3..50")


def test_criterion_11_nonvanishing_evidence():
    pairs = int_pairs(200)
    assert pairs.u(1) == 0
    for k in range(2, 201):
        assert pairs.u(k) != 0, k
    announce(11, "u_k != 0 for 2 <= k <= 200")


def test_criterion_12_legendre_consistency():
    primes = [Prime(p) for p in (2, 3, 5, 7, 11, 13)]
    for p in primes:
        for n in range(501):
            assert val_factorial(n, p) == val_int(factorial(n), p), (n, p)
    announce(12, "digit-sum valuation equals direct factorization for n <= 500")
