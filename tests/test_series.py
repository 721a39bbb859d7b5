"""Partial sums, telescoping, and p-adic verification."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from padsum.kernel import factorial
from padsum.padic import Prime, val_rat
from padsum.poly import GenPoly, RatPoly
from padsum.series import (
    ConvergenceDomainError,
    SeriesSpec,
    TelescopeSpec,
    VerificationError,
    construct_telescope_poly,
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
        result = finite_identity_sweep(1, 1, 1, n, tables_plus)[-1]
        assert result.value == factorial(n) - 1
        assert result.rhs_constant == -1
        assert result.boundary == factorial(n)


def test_finite_identity_hand_case(tables_minus):
    # k=1, eps=-1, x=1, n=2: 2 - 3 = 1 + (-2), by enumeration
    result = finite_identity_sweep(1, -1, 1, 2, tables_minus)[-1]
    assert result.value == -1
    assert result.rhs_constant == 1
    assert result.boundary == -2


def test_finite_identity_sweep_matches_single(tables_plus):
    swept = finite_identity_sweep(2, 1, Fraction(1, 2), 10, tables_plus)
    assert len(swept) == 10
    assert swept.checked == finite_identity_sweep(2, 1, 2, 10, tables_plus, keep=()).checked == 10
    single = finite_identity_sweep(2, 1, Fraction(1, 2), 7, tables_plus)[-1]
    assert swept[6] == single


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


def test_general_sum_single_power_reduction(tables_plus):
    spec = SeriesSpec(eps=1, x=Fraction(1), coeffs=(Fraction(1),))
    combined = general_sum_check(spec, 6, tables_plus)
    single = finite_identity_sweep(1, 1, 1, 6, tables_plus)[-1]
    assert combined.value == single.value
    assert combined.rhs_constant == single.rhs_constant
    assert combined.boundary == single.boundary


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
    first = finite_identity_sweep(1, 1, 2, 7, tables_plus)[-1]
    second = finite_identity_sweep(2, 1, 2, 7, tables_plus)[-1]
    assert mixed.value == (first.value + second.value) / 2
    assert mixed.boundary == (first.boundary + second.boundary) / 2


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
    assert all(type(c) is int for c in construct_telescope_poly(spec, Fraction(2)).coeffs)


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


def test_construct_telescope_poly():
    plain = TelescopeSpec(
        mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=Fraction(1), aux=RatPoly.one()
    )
    assert construct_telescope_poly(plain, 1) == RatPoly.monomial(1)
    assert construct_telescope_poly(plain, 0) == RatPoly.constant(-1)
    with pytest.raises(TypeError):
        construct_telescope_poly(plain, 0.5)
    # degree = deg(aux) + sum(mu_i * lam_i) for a nonzero argument
    wide = TelescopeSpec(
        mu=(1, 2), nu=(0, 0), lam=(1, 1), alpha=1, beta=0, eps=1, x=Fraction(1),
        aux=RatPoly.monomial(1),
    )
    assert construct_telescope_poly(wide, 1).degree == 4
    with pytest.raises(ConvergenceDomainError) as err:
        construct_telescope_poly(plain, Fraction(1, 2), primes=(Prime(3), Prime(2)))
    assert err.value.prime == Prime(2)


def test_construct_telescope_poly_generates_matching_summand():
    # the generated polynomial is exactly the bracket of each term at x = t
    rng = random.Random(7)
    for _ in range(6):
        spec = random_telescope_spec(rng)
        poly = construct_telescope_poly(spec, spec.x)
        for n in range(1, 6):
            bracket = (
                spec.block_product(n) * spec.aux(n + 1) * spec.x**spec.alpha
                - spec.eps * spec.aux(n)
            )
            assert poly(n) == bracket


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

    monkeypatch.setattr("padsum.series.Fraction", refuse)
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
    a=st.integers(min_value=-12, max_value=12),
    b=st.sampled_from([1, 3, 5, 7]),
    p=st.sampled_from([2, 3, 5, 7]),
    e=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    n_max=st.integers(min_value=1, max_value=40),
)
def test_padic_sum_verify_matches_valuation_oracle(
    tables_plus, tables_minus, eps, k, a, b, p, e, n_max
):
    # oracle: the first N with v_p(S_N - claim) < v_p(B_N), with S_N and
    # B_N from the engine-free reference_partial_sums
    tables = tables_plus if eps == 1 else tables_minus
    prime, x = Prime(p), Fraction(a, b)
    spec = SeriesSpec(eps=eps, x=x, k=k)
    claim = spec.claimed_sum(tables) + (0 if e is None else p**e)
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
