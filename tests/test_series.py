"""Partial sums, telescoping, and p-adic verification."""

import random
import re
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

import padsum.telescope
from padsum.kernel import PartialSumResult, factorial
from padsum.padic import ConvergenceDomainError, Prime, val_rat
from padsum.poly import GenPoly, RatPoly
from padsum.series import (
    SeriesSpec,
    TelescopeSpec,
    VerificationError,
    _scaled,
    finite_identity_sweep,
    general_sum_check,
    padic_sum_verify,
    partial_sums,
    random_telescope_spec,
    series_error_profile,
    telescope_check,
    telescope_sweep,
)
from padsum.tables import TableSet, corrections_by_recurrence, gen_poly_table, linear_closed_form


@pytest.fixture(scope="module")
def tables_plus():
    return TableSet.build(8, 1)


@pytest.fixture(scope="module")
def tables_minus():
    return TableSet.build(8, -1)


def reference_partial_sums(spec, n_max, tables):
    """(N, S_N, B_N) for N = 1..n_max without the engine: S_N summed term
    by term from factorial(i), x**i and U_j(x), and
    B_N = eps^(N-1) N! x^N sum_j C_j A_{j-1}(N; x) from GenPoly.eval."""
    eps, x = spec.eps, Fraction(spec.x)
    terms = [(j, c) for j, c in enumerate(spec.coeffs, 1) if c]
    rows, partial = [], 0
    for n in range(1, n_max + 1):
        i = n - 1
        summand = sum(c * (i**j * x**j + tables.corr.u_poly(j)(x)) for j, c in terms)
        partial += eps**i * factorial(i) * x**i * summand
        factor = sum(c * tables.gen.poly(j - 1).eval(n, x) for j, c in terms)
        rows.append((n, partial, eps ** (n - 1) * factorial(n) * x**n * factor))
    return rows


def test_finite_identity_factorial_times_n(tables_plus):
    # sum_{i<n} i! * i = -1 + n! with a trivial boundary polynomial
    for n in range(1, 8):
        assert finite_identity_sweep(1, 1, 1, n, tables_plus) == n
        result = general_sum_check(SeriesSpec(1, 1, k=1), n, tables_plus)
        assert result.value == factorial(n) - 1
        assert result.rhs_constant == -1
        assert result.boundary == factorial(n)


def test_finite_identity_hand_case(tables_minus):
    # k=1, eps=-1, x=1, n=2: 2 - 3 = 1 + (-2), by enumeration
    assert finite_identity_sweep(1, -1, 1, 2, tables_minus) == 2
    result = general_sum_check(SeriesSpec(-1, 1, k=1), 2, tables_minus)
    assert result.value == -1
    assert result.rhs_constant == 1
    assert result.boundary == -2


def test_finite_identity_sweep_matches_single(tables_plus):
    # the sweep counts every n it compared; the record at each n is the reference's
    x = Fraction(1, 2)
    assert finite_identity_sweep(2, 1, x, 10, tables_plus) == 10
    assert finite_identity_sweep(2, 1, 2, 10, tables_plus) == 10
    spec, v2 = SeriesSpec(1, x, k=2), tables_plus.corr.v_poly(2)(x)
    for n, value, boundary in reference_partial_sums(spec, 10, tables_plus):
        assert general_sum_check(spec, n, tables_plus) == (n, value, v2, boundary)


def test_finite_checks_raise_on_tampered_table(tables_plus, tamper_v1):
    tampered = tamper_v1(tables_plus)
    spec = SeriesSpec(eps=1, x=Fraction(2), coeffs=(Fraction(1), Fraction(1, 2)))
    checks = (
        lambda: finite_identity_sweep(1, 1, 2, 5, tampered),
        lambda: general_sum_check(spec, 5, tampered),
    )
    for check in checks:
        with pytest.raises(VerificationError) as err:
            check()
        assert err.value.result.residual == -1


def test_finite_sweep_reads_A_from_the_table(tables_plus, tamper_a1):
    tampered = tamper_a1(tables_plus)
    for x in (Fraction(1, 2), 2):
        with pytest.raises(VerificationError) as err:
            finite_identity_sweep(2, 1, x, 5, tampered)
        assert (err.value.result.n_terms, err.value.result.residual) == (1, -x)


@given(
    eps=st.sampled_from([1, -1]),
    coeffs=st.lists(
        st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        min_size=1,
        max_size=3,
    ).filter(lambda cs: cs[-1] != 0),
    a=st.integers(min_value=-6, max_value=6),
    b=st.sampled_from([1, 2, 3, 4, 7]),
    n_max=st.integers(min_value=1, max_value=30),
)
def test_partial_sums_match_reference(tables_plus, tables_minus, eps, coeffs, a, b, n_max):
    tables = tables_plus if eps == 1 else tables_minus
    spec = SeriesSpec(eps=eps, x=Fraction(a, b), coeffs=tuple(coeffs))
    sums = list(partial_sums(spec, n_max, tables))
    assert sums == reference_partial_sums(spec, n_max, tables)
    if type(spec.x) is int and all(type(c) is int for c in spec.coeffs):
        assert all(type(s) is int and type(r) is int for _, s, r in sums)


def test_partial_sums_build_the_remainder_without_at_x(tables_plus, monkeypatch):
    # the summand and the remainder both come from the tables' integer rows
    # under one scale, not from a RatPoly Horner in Fractions over x
    spec = SeriesSpec(eps=1, x=Fraction(-2, 3), coeffs=(Fraction(1, 2), 0, 3))
    expected = reference_partial_sums(spec, 12, tables_plus)

    def refuse(name):
        def refused(self, x):
            raise AssertionError(f"partial_sums called {name}")
        return refused

    monkeypatch.setattr(GenPoly, "at_x", refuse("GenPoly.at_x"))
    monkeypatch.setattr(RatPoly, "__call__", refuse("RatPoly.__call__"))
    assert list(partial_sums(spec, 12, tables_plus)) == expected

def _tampered(tables, tamper):
    """``tables`` with V_j shifted by delta (("v", j, delta)) or with the
    n^i coefficient at x^l of A_{j-1} raised by delta (("a", j, l, i, delta))."""
    if tamper is None:
        return tables
    if tamper[0] == "v":
        _, j, delta = tamper
        vs = list(tables.corr.vs)
        vs[j - 1] = (vs[j - 1][0] + delta, *vs[j - 1][1:])
        return tables._replace(corr=tables.corr._replace(vs=tuple(vs)))
    _, j, l, i, delta = tamper
    rows = [list(row) for row in tables.gen.rows]
    col = list(rows[j - 1][l % len(rows[j - 1])]) + [0] * (i + 1)
    col[i] += delta
    rows[j - 1][l % len(rows[j - 1])] = tuple(col)
    return tables._replace(gen=tables.gen._replace(rows=tuple(map(tuple, rows))))


_DELTAS = st.sampled_from([-2, -1, 1, 3])


@given(
    eps=st.sampled_from([1, -1]),
    coeffs=st.lists(
        st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        min_size=1,
        max_size=3,
    ).filter(lambda cs: cs[-1] != 0),
    a=st.integers(min_value=-6, max_value=6),
    b=st.sampled_from([1, 2, 3, 4, 7]),
    n_max=st.integers(min_value=1, max_value=30),
    tamper=st.one_of(
        st.none(),
        st.tuples(st.just("v"), st.integers(1, 3), _DELTAS),
        st.tuples(st.just("a"), st.integers(1, 3), st.integers(0, 2), st.integers(0, 3),
                  _DELTAS),
    ),
)
def test_general_sum_verdict_is_the_exact_residual(
    tables_plus, tables_minus, eps, coeffs, a, b, n_max, tamper
):
    # the integer check raises exactly at the first N whose exact residual
    # S_N - sum_j C_j V_j(x) - B_N, summed without the engine, is nonzero
    tables = _tampered(tables_plus if eps == 1 else tables_minus, tamper)
    spec = SeriesSpec(eps=eps, x=Fraction(a, b), coeffs=tuple(coeffs))
    claimed = sum(c * tables.corr.v_poly(j)(spec.x) for j, c in enumerate(spec.coeffs, 1))
    rows = reference_partial_sums(spec, n_max, tables)
    residuals = [(n, s - claimed - r) for n, s, r in rows]
    failing = [(n, res) for n, res in residuals if res != 0]
    if failing:
        with pytest.raises(VerificationError) as err:
            general_sum_check(spec, n_max, tables)
        assert (err.value.result.n_terms, err.value.result.residual) == failing[0]
    else:
        result = general_sum_check(spec, n_max, tables)
        assert (result.n_terms, result.value, result.rhs_constant, result.boundary) == (
            n_max, rows[-1][1], claimed, rows[-1][2]
        )


@given(
    eps=st.sampled_from([1, -1]),
    coeffs=st.lists(
        st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        min_size=1,
        max_size=6,
    ).filter(lambda cs: cs[-1] != 0),
    x=st.one_of(
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
    ),
)
@example(eps=-1, coeffs=[Fraction(1, 2), 0, 0, Fraction(-2, 3)], x=Fraction(-3, 4))
@example(eps=1, coeffs=[3, 0, Fraction(5, 6)], x=Fraction(-7, 2))
@example(eps=-1, coeffs=[0, 0, 0, 1], x=-5)
@example(eps=1, coeffs=[Fraction(1, 4), 0, 2], x=0)
def test_scaled_integers_are_the_polynomials_times_d(tables_plus, tables_minus, eps, coeffs, x):
    # d = m b^K, dP = d P(n; x), dR = d R(n; x) and dV = d sum_j C_j V_j(x),
    # against RatPoly and Fraction arithmetic on the same tables
    tables = tables_plus if eps == 1 else tables_minus
    spec = SeriesSpec(eps=eps, x=x, coeffs=tuple(coeffs))
    d, dp, dr, dv = _scaled(spec, tables)
    x = Fraction(x)
    terms = [(j, Fraction(c)) for j, c in enumerate(coeffs, 1) if c]
    p = sum((c * (x**j * RatPoly.monomial(j) + tables.corr.u_poly(j)(x)) for j, c in terms),
            RatPoly.zero())
    r = sum((c * x**l * RatPoly(col) for j, c in terms
             for l, col in enumerate(tables.gen.rows[j - 1])), RatPoly.zero())
    v = sum(c * tables.corr.v_poly(j)(x) for j, c in terms)
    assert d == lcm(*(c.denominator for _, c in terms)) * x.denominator ** len(coeffs)
    assert all(type(c) is int for c in (d, *dp, *dr, dv))
    assert (RatPoly(dp), RatPoly(dr), dv) == (d * p, d * r, d * v)


def test_general_sum_single_power_reduction(tables_plus):
    spec = SeriesSpec(eps=1, x=Fraction(1), coeffs=(Fraction(1),))
    combined = general_sum_check(spec, 6, tables_plus)
    _, value, boundary = reference_partial_sums(SeriesSpec(1, 1, k=1), 6, tables_plus)[-1]
    assert combined.value == value
    assert combined.rhs_constant == tables_plus.corr.v_poly(1)(1)
    assert combined.boundary == boundary


def test_general_sum_square_plus_one(tables_plus):
    # sum i!(i^2 + 1): 1 + 2 + 10 + 60 = 73 = 1 + 4! * 3
    spec = SeriesSpec(eps=1, x=Fraction(1), coeffs=(Fraction(0), Fraction(1)))
    result = general_sum_check(spec, 4, tables_plus)
    assert result.value == 73
    assert result.rhs_constant == 1
    assert result.boundary == 72


def test_general_sum_rational_mix_is_average(tables_plus):
    spec = SeriesSpec(eps=1, x=Fraction(2), coeffs=(Fraction(1, 2), Fraction(1, 2)))
    mixed = general_sum_check(spec, 7, tables_plus)
    first, second = (reference_partial_sums(SeriesSpec(1, 2, k=k), 7, tables_plus)[-1]
                     for k in (1, 2))
    assert mixed.value == (first[1] + second[1]) / 2
    assert mixed.boundary == (first[2] + second[2]) / 2


def test_tables_too_small_for_spec():
    small = TableSet.build(1, 1)  # U/V through k = 2
    spec = SeriesSpec(eps=1, x=Fraction(1), k=3)
    for check in (
        lambda: general_sum_check(spec, 4, small),
        lambda: series_error_profile(spec, 0, 4, small),
    ):
        with pytest.raises(ValueError, match="tables cover k <= 2, need 3"):
            check()


def test_tables_of_the_other_sign_are_refused(tables_plus):
    # the eps = -1 sum at x = 1, k = 1 is 1; the eps = +1 tables would claim -1
    spec = SeriesSpec(eps=-1, x=1, k=1)
    for check in (
        lambda: spec.claimed_sum(tables_plus),
        lambda: series_error_profile(spec, 1, 5, tables_plus),
        lambda: finite_identity_sweep(1, -1, 1, 5, tables_plus),
    ):
        with pytest.raises(ValueError, match="tables are for eps=\\+1, the series has eps=-1"):
            check()


@pytest.mark.parametrize("eps", [True, 1.0, Fraction(1)], ids=["True", "1.0", "Fraction(1)"])
@pytest.mark.parametrize(
    "make",
    [
        lambda eps: GenPoly(eps, (1,)),
        lambda eps: gen_poly_table(2, eps),
        lambda eps: TableSet.build(2, eps),
        lambda eps: corrections_by_recurrence(2, eps),
        lambda eps: linear_closed_form(2, eps),
        lambda eps: SeriesSpec(eps=eps, x=1, k=1),
        lambda eps: TelescopeSpec(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=eps,
                                  x=1, aux=RatPoly.one()),
    ],
    ids=["GenPoly", "gen_poly_table", "TableSet.build", "corrections_by_recurrence",
         "linear_closed_form", "SeriesSpec", "TelescopeSpec"],
)
def test_sign_equal_to_1_but_not_the_int_is_refused(make, eps):
    # each equals 1, so a gate of `eps in (1, -1)` lets it through
    with pytest.raises(ValueError, match="eps must be \\+1 or -1"):
        make(eps)


def test_series_spec_stores_integral_values_as_int(tables_plus):
    spec = SeriesSpec(eps=1, x=Fraction(2), k=1)
    assert type(spec.x) is int and spec.x == 2
    assert all(type(c) is int for c in spec.coeffs)
    assert type(spec.claimed_sum(tables_plus)) is int
    assert [type(s) for _, s, _ in partial_sums(spec, 4, tables_plus)] == [int] * 4
    mixed = SeriesSpec(eps=-1, x=Fraction(-4, 2), coeffs=(Fraction(3), Fraction(1, 2)))
    assert (type(mixed.x), [type(c) for c in mixed.coeffs]) == (int, [int, Fraction])
    assert SeriesSpec(eps=1, x=Fraction(1, 2), k=1).x == Fraction(1, 2)
    with pytest.raises(TypeError):
        SeriesSpec(eps=1, x=0.1, k=1)  # would silently become 3602879701896397/2**55


def test_series_spec_refuses_bool_x():
    with pytest.raises(TypeError):
        SeriesSpec(eps=1, x=True, k=1)


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(eps=1, x=Fraction(1))  # neither form
    with pytest.raises(ValueError):
        SeriesSpec(eps=1, x=Fraction(1), k=2, coeffs=(Fraction(1),))  # both
    with pytest.raises(ValueError):
        SeriesSpec(eps=1, x=Fraction(1), coeffs=(Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        SeriesSpec(eps=2, x=Fraction(1), k=1)


def test_telescope_named_instances():
    # sum n! * n collapses onto -1 + N!
    plain = TelescopeSpec(
        mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1), aux=RatPoly.one()
    )
    result = telescope_check(plain, 5)
    assert (result.value, result.rhs_constant, result.boundary) == (119, -1, 120)

    # aux = n gives the summand n! * ((n+1)^2 - n): 3 + 14 + 78 = 95 = -1 + 96
    weighted = TelescopeSpec(
        mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1),
        aux=RatPoly.monomial(1),
    )
    result = telescope_check(weighted, 4)
    assert (result.value, result.rhs_constant, result.boundary) == (95, -1, 96)

    empty = telescope_check(plain, 1)
    assert empty.value == 0
    assert empty.rhs_constant + empty.boundary == 0


def test_telescope_randomized_specs():
    rng = random.Random(1234)
    for _ in range(12):
        spec = random_telescope_spec(rng)
        telescope_sweep(spec, 10)


def test_telescope_spec_validation():
    good = dict(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1),
                aux=RatPoly.one())
    TelescopeSpec(**good)
    with pytest.raises(ValueError):
        TelescopeSpec(**{**good, "mu": (0,)})
    with pytest.raises(ValueError):
        TelescopeSpec(**{**good, "nu": (-1,)})  # mu + nu < 1
    with pytest.raises(ValueError):
        TelescopeSpec(**{**good, "lam": (0,)})
    with pytest.raises(ValueError):
        TelescopeSpec(**{**good, "alpha": 0})
    with pytest.raises(ValueError):
        TelescopeSpec(**{**good, "aux": RatPoly((Fraction(1, 2),))})
    with pytest.raises(TypeError):
        TelescopeSpec(**{**good, "x": 0.1})


def test_telescope_spec_stores_integral_x_as_int():
    base = dict(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, aux=RatPoly.one())
    spec = TelescopeSpec(**base, x=Fraction(2))
    assert type(spec.x) is int and spec.x == 2
    assert TelescopeSpec(**base, x=Fraction(1, 2)).x == Fraction(1, 2)


def test_telescope_checks_raise_on_perturbed_term():
    class OffByOne(TelescopeSpec):
        def term(self, n):
            return super().term(n) + 1

    spec = OffByOne(
        mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1), aux=RatPoly.one()
    )
    for check in (telescope_sweep, telescope_check):
        with pytest.raises(VerificationError) as err:
            check(spec, 4)
        assert err.value.result.n_terms == 2  # N = 1 is the empty sum
        assert err.value.result.residual == 1


@pytest.mark.parametrize("n_max", [1, 2, 7])
def test_telescope_sweep_computes_no_term_past_its_last_n(n_max, monkeypatch):
    # N = n_max reads the terms 1..n_max-1, and one record is built, at N = n_max
    terms, built = [], []

    class Counted(TelescopeSpec):
        def term(self, n):
            terms.append(n)
            return super().term(n)

    def record(*args):
        built.append(args)
        return PartialSumResult(*args)

    monkeypatch.setattr(padsum.telescope, "PartialSumResult", record)
    spec = Counted(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1, 2),
                   aux=RatPoly.monomial(1))
    result = telescope_sweep(spec, n_max)
    assert terms == list(range(1, n_max))
    assert built == [tuple(result)] and result.n_terms == n_max
    assert telescope_check is telescope_sweep


def reference_term(spec, n):
    """The n-th term in Fraction arithmetic, the reference for the integer one."""
    bracket = spec.block_product(n) * spec.aux(n + 1) * spec.x**spec.alpha - spec.eps * spec.aux(n)
    return spec.eps**n * spec.factorial_product(n) * bracket * spec.x ** (spec.alpha * n + spec.beta)


def reference_boundary(spec, n):
    power = spec.x ** (spec.alpha * n + spec.beta)
    return spec.eps ** (n - 1) * spec.factorial_product(n) * spec.aux(n) * power


@st.composite
def telescope_specs(draw):
    factors = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
    nu = tuple(draw(st.integers(min_value=max(1 - m, -2), max_value=2)) for m in factors)
    lam = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=len(factors),
                        max_size=len(factors)).filter(any))
    aux = draw(st.lists(st.integers(min_value=-4, max_value=4), max_size=4))
    x = Fraction(draw(st.integers(min_value=-5, max_value=5)),
                 draw(st.sampled_from([1, 2, 3, 4, 7])))
    return TelescopeSpec(mu=tuple(factors), nu=nu, lam=tuple(lam),
                         alpha=draw(st.integers(min_value=1, max_value=3)),
                         beta=draw(st.integers(min_value=0, max_value=2)),
                         eps=draw(st.sampled_from([1, -1])), x=x, aux=RatPoly(aux))


@given(spec=telescope_specs(), n=st.integers(min_value=1, max_value=12))
def test_telescope_values_match_fraction_formulas(spec, n):
    for value, expected in ((spec.term(n), reference_term(spec, n)),
                            (spec.boundary(n), reference_boundary(spec, n))):
        assert value == expected
        if type(spec.x) is int:  # an integer x keeps every value an int
            assert type(value) is int


def test_padic_sum_verify_true_and_false_claims(tables_plus):
    spec = SeriesSpec(eps=1, x=Fraction(1), k=1)
    verdict = padic_sum_verify(series_error_profile(spec, Fraction(-1), 80, tables_plus), Prime(2))
    assert verdict.passed
    # wrong claim: the error N! - 1 is odd for N >= 2, so p = 2 rejects fast
    wrong = padic_sum_verify(series_error_profile(spec, Fraction(0), 80, tables_plus), Prime(2))
    assert not wrong.passed
    assert wrong.first_violation == 2
    spec2 = SeriesSpec(eps=1, x=Fraction(1), k=2)
    profile2 = series_error_profile(spec2, Fraction(1), 80, tables_plus)
    for p in (3, 5):
        assert padic_sum_verify(profile2, Prime(p)).passed


def test_padic_sum_verify_refuses_divergent_point(tables_plus):
    # at x = 1/2 the bound v_2(N!) + N v_2(x) = -s_2(N) never grows, so
    # 2-adically no claim could be rejected; 3-adically the series converges
    spec = SeriesSpec(eps=1, x=Fraction(1, 2), k=1)
    wrong = series_error_profile(spec, Fraction(5), 60, tables_plus)
    with pytest.raises(ConvergenceDomainError) as err:
        padic_sum_verify(wrong, Prime(2))
    assert err.value.prime == Prime(2)
    right = series_error_profile(spec, Fraction(-1), 60, tables_plus)
    assert padic_sum_verify(right, Prime(3)).passed
    assert padic_sum_verify(wrong, Prime(3)).first_violation == 6


def test_padic_profile_reuse_and_shift(tables_plus):
    spec = SeriesSpec(eps=1, x=Fraction(2), k=3)
    claimed = spec.claimed_sum(tables_plus)
    profile = series_error_profile(spec, claimed, 60, tables_plus)
    shifted = profile.shifted_claim(1)
    assert shifted.claimed == claimed + 1
    for p in (2, 3, 7):
        assert padic_sum_verify(profile, Prime(p)).passed
        assert not padic_sum_verify(shifted, Prime(p)).passed


def test_padic_sum_verify_zero_remainder(tables_plus):
    # A_1(1; 1) = 0, so B_1 = 0: only an exact error of 0 passes at N = 1
    spec = SeriesSpec(eps=1, x=1, k=2)
    profile = series_error_profile(spec, spec.claimed_sum(tables_plus), 10, tables_plus)
    assert profile.remainders[0] == 0 and profile.errors[0] == 0
    assert padic_sum_verify(profile, Prime(2)).passed
    wrong = padic_sum_verify(profile.shifted_claim(2**40), Prime(2))
    assert (wrong.passed, wrong.first_violation) == (False, 1)


def _profiles(tables_plus, tables_minus):
    """The B_1 = 0 profile of test_padic_sum_verify_zero_remainder and a
    rational combination at eps = -1, each at its true sum."""
    zero = SeriesSpec(eps=1, x=1, k=2)
    mix = SeriesSpec(eps=-1, x=2, coeffs=(Fraction(1, 2), 0, 3))
    return [
        series_error_profile(spec, spec.claimed_sum(tables), 30, tables)
        for spec, tables in ((zero, tables_plus), (mix, tables_minus))
    ]


def test_padic_sum_verify_builds_no_fraction(tables_plus, tables_minus, monkeypatch):
    # a verdict divides integer cross products where the error is not the
    # remainder, and builds no Fraction
    runs = [
        (profile.shifted_claim(delta), Prime(p))
        for profile in _profiles(tables_plus, tables_minus)
        for delta in (0, 1)
        for p in (2, 3, 5, 7)
    ]
    expected = [padic_sum_verify(profile, p) for profile, p in runs]
    assert any(v.passed for v in expected) and not all(v.passed for v in expected)

    def refuse(*args):
        raise AssertionError("padic_sum_verify built a Fraction")

    monkeypatch.setattr("padsum.kernel._fraction_class", refuse)  # the class _quotient builds
    assert [padic_sum_verify(profile, p) for profile, p in runs] == expected


@pytest.mark.parametrize("which", [0, 1], ids=["zero-remainder", "rational-mix"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_shifted_claim_carries_its_own_denominators(tables_plus, tables_minus, which, p):
    # a shifted profile equals, error by error, a profile built afresh at the
    # shifted claim, and so does every verdict on it
    profile = _profiles(tables_plus, tables_minus)[which]
    tables = tables_plus if profile.spec.eps == 1 else tables_minus
    for delta in (1, Fraction(1, 3), p**5):
        fresh = series_error_profile(profile.spec, profile.claimed + delta, 30, tables)
        shifted = profile.shifted_claim(delta)
        assert shifted == fresh
        assert padic_sum_verify(shifted, Prime(p)) == padic_sum_verify(fresh, Prime(p))


def test_padic_verdict_takes_a_gcd_only_up_to_its_first_violation(tables_plus, monkeypatch):
    # building a profile or shifting its claim takes no gcd; a true claim's
    # error equals B_N at every N, so its verdict takes none; a wrong claim's
    # verdict stops at its first violation
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr("padsum.series.gcd", counting_gcd)
    spec = SeriesSpec(eps=1, x=2, k=3)
    profile = series_error_profile(spec, spec.claimed_sum(tables_plus), 200, tables_plus)
    perturbed = profile.shifted_claim(1)
    assert calls == []
    for p in (2, 3, 5, 7, 11):
        assert padic_sum_verify(profile, Prime(p)) == (True, None)
        assert calls == []
    for p, first in ((2, 1), (3, 1), (5, 5), (7, 7), (11, 11)):
        calls.clear()
        assert padic_sum_verify(perturbed, Prime(p)) == (False, first)
        assert len(calls) <= first


@given(
    eps=st.sampled_from([1, -1]),
    k=st.integers(min_value=1, max_value=6),
    mix=st.one_of(st.none(), st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=6)),
    a=st.integers(min_value=-12, max_value=12),
    b=st.sampled_from([1, 3, 5, 7]),
    p=st.sampled_from([2, 3, 5, 7]),
    e=st.one_of(st.none(), st.integers(min_value=-3, max_value=30)),
    n_max=st.integers(min_value=1, max_value=40),
)
def test_padic_sum_verify_matches_valuation_oracle(
    tables_plus, tables_minus, eps, k, mix, a, b, p, e, n_max
):
    # oracle: the first N with v_p(S_N - claim) < v_p(B_N), with S_N and
    # B_N from the engine-free reference_partial_sums; the series is the
    # power k, or a rational combination of powers when one is drawn, and a
    # claim off its sum by p^e with e < 0 has p in its denominator
    tables = tables_plus if eps == 1 else tables_minus
    prime, x = Prime(p), Fraction(a, b)
    if mix and mix[-1]:
        spec = SeriesSpec(eps=eps, x=x, coeffs=tuple(mix))
    else:
        spec = SeriesSpec(eps=eps, x=x, k=k)
    claim = spec.claimed_sum(tables) + (0 if e is None else Fraction(p) ** e)
    try:
        verdict = padic_sum_verify(series_error_profile(spec, claim, n_max, tables), prime)
    except ConvergenceDomainError:
        return
    expected = None
    for n, partial, remainder in reference_partial_sums(spec, n_max, tables):
        if val_rat(partial - claim, prime) < val_rat(remainder, prime):
            expected = n
            break
    assert verdict.first_violation == expected
    assert verdict.passed == (expected is None)


def test_series_error_profile_proves_the_step_identity(tables_plus, tamper_a1):
    # A_1's constant raised by 1 adds (n+1) x - eps = x n + x - eps to the step
    # identity at k = 2, zero at n = 0 for x = eps = 1: the profile refuses the
    # tables, naming the least n where the residual is nonzero
    bumped = tamper_a1(tables_plus)
    message = r"^step identity residual 1 != 0 at coeffs=\(0, 1\) eps=\+1 x=1 n=1$"
    with pytest.raises(VerificationError, match=message):
        series_error_profile(SeriesSpec(1, 1, k=2), 0, 10, bumped)
    with pytest.raises(VerificationError, match=r"^step identity residual -1/3 != 0 .* n=0$"):
        series_error_profile(SeriesSpec(1, Fraction(2, 3), k=2), 0, 10, bumped)
    # the power k = 1 reads A_0 alone, and its profile still builds
    assert series_error_profile(SeriesSpec(1, 1, k=1), 0, 10, bumped).value == -1


def _falling_residual(tables, k):
    """A copy of ``tables`` whose step identity at the power k, x = 1 and
    eps = +1 has the residual Q(n) = n (n-1) ... (n-k+1): zero at
    n = 0..k-1 and k! at n = k.  dR, added to A_{k-1}'s x^0 column, and dU,
    added to U_k's constant term, add (n+1) dR(n+1) - dR(n) - dU to Q; dR
    is solved by back-substitution, as ``tables.aux_poly`` solves its
    system."""
    falling = [1]  # the coefficients of n (n-1) ... (n-k+1), lowest first
    for i in range(k):
        falling = [a - i * b for a, b in zip([0, *falling], [*falling, 0])]
    dr = [0] * k
    for j in range(k, 0, -1):
        # the n^j coefficient of r_i [(n+1)^(i+1) - n^i] is C(i+1, j) - [i == j]
        dr[j - 1] = falling[j] - sum(dr[i] * (comb(i + 1, j) - (i == j)) for i in range(j, k))
    du = sum(dr[1:])  # Q(0) = dr_1 + ... + dr_{k-1} - dU = 0
    gen, corr = tables.gen, tables.corr
    col, *cols = gen.rows[k - 1]
    row = (tuple(map(sum, zip_longest(col, dr, fillvalue=0))), *cols)
    u0, *u = corr.us[k - 1]
    return tables._replace(
        gen=gen._replace(rows=(*gen.rows[:k - 1], row, *gen.rows[k:])),
        corr=corr._replace(us=(*corr.us[:k - 1], (u0 + du, *u), *corr.us[k:])))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_series_error_profile_proves_at_deg_q_plus_one_points(tables_plus, k):
    # Q has degree k and vanishes at its first k points: a proof that evaluates
    # one point fewer than deg Q + 1 accepts these tables
    coeffs = re.escape(str((0,) * (k - 1) + (1,)))
    message = rf"^step identity residual {factorial(k)} != 0 at coeffs={coeffs} eps=\+1 x=1 n={k}$"
    with pytest.raises(VerificationError, match=message):
        series_error_profile(SeriesSpec(1, 1, k=k), 0, 10, _falling_residual(tables_plus, k))


def test_series_error_profile_needs_a_term(tables_plus):
    spec = SeriesSpec(eps=1, x=Fraction(1), k=1)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        series_error_profile(spec, -1, 0, tables_plus)


def test_padic_error_equals_boundary(tables_plus):
    # the profile errors are exactly the remainder: eps^(N-1) N! A_{k-1}(N;x) x^N
    spec = SeriesSpec(eps=-1, x=Fraction(1), k=2)
    tables = TableSet.build(2, -1)
    claimed = spec.claimed_sum(tables)
    profile = series_error_profile(spec, claimed, 20, tables)
    a = tables.gen.poly(1)
    for idx, err in enumerate(profile.errors):
        n = idx + 1
        assert err == Fraction((-1) ** (n - 1)) * factorial(n) * a.eval(n, 1)
