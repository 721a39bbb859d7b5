"""Recurrence-generated tables and their cross-checks."""

import json
from fractions import Fraction

import pytest

import padsum.tables
from padsum.poly import GenPoly, RatPoly
from padsum.tables import (
    CrossCheckError,
    GenPolyTable,
    IntPairTable,
    TableSet,
    aux_poly,
    bell_numbers,
    _dumps,
    bundle_from_text,
    bundle_text,
    closed_forms,
    corrections_by_recurrence,
    derive_corrections,
    diagonal_closed_form,
    eps_split,
    gen_poly_table,
    int_pairs,
    linear_closed_form,
    recurrence_residuals,
    sequence_slice,
)


def enumerate_set_partitions(items):
    """Brute-force partitions of a list, the oracle for small Bell numbers."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in enumerate_set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [head]] + partition[i + 1 :]
        yield partition + [[head]]


@pytest.mark.parametrize("eps", (1, -1))
def test_integral_tables_store_ints(eps):
    tables = TableSet.build(12, eps)
    polys = [c for a in tables.gen.polys for c in a.coeffs]
    polys += tables.corr.u_polys + tables.corr.v_polys
    assert len(polys) == 91 + 2 * 13
    assert all(type(c) is int for p in polys for c in p.coeffs)


def test_first_generating_polys():
    table = gen_poly_table(3, 1)
    assert table.poly(0) == GenPoly(1, (RatPoly.one(),))
    assert table.poly(1) == GenPoly(1, (RatPoly.constant(1), RatPoly((-2, 1))))
    assert table.poly(3).coeff(3) == RatPoly((-4, 6, -4, 1))
    assert table.poly(3).coeff(2) == RatPoly((17, -7, 1))
    minus = gen_poly_table(1, -1)
    assert minus.poly(1) == GenPoly(-1, (RatPoly.constant(-1), RatPoly((-2, 1))))


@pytest.mark.parametrize("eps", (1, -1))
def test_generator_does_no_polynomial_arithmetic(monkeypatch, eps):
    # the recurrence steps on integer coefficient lists; RatPoly only wraps rows
    expected = gen_poly_table(8, eps)

    def refuse(*args):
        raise AssertionError("gen_poly_table did RatPoly arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RatPoly, name, refuse)
    assert gen_poly_table(8, eps) == expected


def test_structural_shape():
    # coefficient of x^j has degree exactly j with leading coefficient eps^(k+j)
    for eps in (1, -1):
        table = gen_poly_table(10, eps)
        for k in range(table.kmax + 1):
            poly = table.poly(k)
            assert poly.degree_x == k
            for j in range(k + 1):
                coefficient = poly.coeff(j)
                assert coefficient.degree == j
                assert coefficient.leading() == eps ** (k + j)


def test_recurrence_residuals_pass_and_fault_injection():
    table = gen_poly_table(5, 1)
    assert recurrence_residuals(table) is None

    corrupted_entry = GenPoly(1, (RatPoly.constant(1), RatPoly((-1, 1))))  # (n-1)x + 1
    corrupted = GenPolyTable(1, (table.poly(0), corrupted_entry) + table.polys[2:])
    assert recurrence_residuals(corrupted) == 1

    assert recurrence_residuals(gen_poly_table(0, 1)) is None  # no k to check


def test_corrections_first_values():
    corr = derive_corrections(gen_poly_table(5, 1))
    assert corr.u_poly(1) == RatPoly((-1, 1))  # x - 1
    assert corr.u_poly(2) == RatPoly((-1, 3, -1))  # -x^2 + 3x - 1, hand-expanded
    assert corr.u_poly(2)(1) == 1
    assert corr.v_poly(2)(1) == 1
    assert [corr.u_poly(k)(-1) for k in range(1, 7)] == [-2, -5, -15, -52, -203, -877]


def test_corrections_cross_check_detects_corruption():
    corr = derive_corrections(gen_poly_table(4, -1))
    direct = corrections_by_recurrence(5, -1)
    assert corr.u_polys == direct.u_polys
    assert corr.v_polys == direct.v_polys

    table = gen_poly_table(3, 1)
    corrupted_entry = GenPoly(1, (RatPoly.constant(1), RatPoly((-1, 1))))
    corrupted = GenPolyTable(1, (table.poly(0), corrupted_entry) + table.polys[2:])
    with pytest.raises(CrossCheckError):
        derive_corrections(corrupted)


def test_int_pairs_first_values():
    pairs = int_pairs(5)
    assert pairs.us == (0, 1, -1, -2, 9)
    assert pairs.vs == (-1, 1, 1, -5, 5)
    # one recurrence step by hand: u_4 = -3*u_3 - (C(4,1)u_1 + C(4,2)u_2) + 1
    assert pairs.u(4) == -3 * pairs.u(3) - (4 * pairs.u(1) + 6 * pairs.u(2)) + 1


def test_aux_poly_small_systems():
    first = aux_poly(1)
    assert first.poly == RatPoly.one()
    assert (first.u, first.v) == (0, -1)
    # 3x3 system solved by hand: A(n) = n - 1, u = 1, v = 1
    second = aux_poly(2)
    assert second.poly == RatPoly((-1, 1))
    assert (second.u, second.v) == (1, 1)


def test_aux_poly_matches_table_route():
    table = gen_poly_table(7, 1)
    pairs = int_pairs(8)
    for k in range(1, 9):
        solution = aux_poly(k)
        assert solution.poly == table.poly(k - 1).at_x(1)
        assert solution.u == pairs.u(k)
        assert solution.v == pairs.v(k)
        assert -solution.poly(0) == solution.v


def test_bell_numbers():
    assert bell_numbers(3) == (1, 1, 2, 5)
    # oracle: enumerate the partitions of a 3-element set
    assert len(list(enumerate_set_partitions([1, 2, 3]))) == 5
    assert bell_numbers(7)[7] == 877
    bells = bell_numbers(10)
    assert all(bells[i] < bells[i + 1] for i in range(1, 10))


def test_bell_identity_with_corrections():
    corr = derive_corrections(gen_poly_table(5, 1))
    bells = bell_numbers(7)
    assert [-corr.u_poly(k)(-1) for k in range(1, 7)] == list(bells[2:8])


def test_closed_forms():
    assert linear_closed_form(1, 1) == RatPoly((-2, 1))
    assert linear_closed_form(5, 1) == RatPoly((-20, 1))
    assert linear_closed_form(2, -1) == RatPoly((5, -1))  # eps^3 = -1 flips it
    assert diagonal_closed_form(4) == RatPoly((5, -10, 10, -5, 1))
    for eps in (1, -1):
        table = gen_poly_table(8, eps)
        for k in range(1, 9):
            diagonal, linear = closed_forms(k, eps)
            assert table.poly(k).coeff(k) == diagonal
            assert table.poly(k).coeff(1) == linear


def test_sequence_slices():
    assert sequence_slice("A+0,1", 5) == [1, -1, -1, 5, -5, -21]
    assert sequence_slice("A-1,-1", 5) == [1, 0, -2, -3, 4, 30]
    assert sequence_slice("U-1", 6) == [2, -5, 15, -52, 203, -877]
    with pytest.raises(ValueError):
        sequence_slice("A+2,1", 5)


def test_sequence_slice_checks_its_table(monkeypatch):
    honest = padsum.tables.gen_poly_table

    def corrupted(kmax, eps):  # A_1 replaced by (n - 1)x + 1
        table = honest(kmax, eps)
        bad = GenPoly(eps, (RatPoly.constant(1), RatPoly((-1, 1))))
        return GenPolyTable(eps, (table.poly(0), bad) + table.polys[2:])

    monkeypatch.setattr(padsum.tables, "gen_poly_table", corrupted)
    with pytest.raises(CrossCheckError):
        sequence_slice("U-1", 6)
    with pytest.raises(CrossCheckError):
        sequence_slice("A+0,1", 5)


@pytest.mark.parametrize("eps", [1, -1])
def test_build_checks_integer_pairs(monkeypatch, eps):
    honest = padsum.tables.int_pairs

    def shifted(kmax):
        pairs = honest(kmax)
        return IntPairTable(pairs.us[:2] + (pairs.us[2] + 1,) + pairs.us[3:], pairs.vs)

    TableSet.build(4, eps)  # the pairs agree with eps^k (U_k(eps), V_k(eps)) for both signs
    monkeypatch.setattr(padsum.tables, "int_pairs", shifted)
    with pytest.raises(CrossCheckError, match=r"^\(u_3, v_3\) = "):
        TableSet.build(4, eps)


def test_sequence_sign_symmetry():
    # the (eps, x) -> (-eps, -x) flip at n = 0 preserves absolute values
    kmax = 10
    plus = sequence_slice("A+0,1", kmax)
    minus = sequence_slice("A-0,-1", kmax)
    assert [abs(a) for a in plus] == [abs(b) for b in minus]
    assert [abs(a) for a in sequence_slice("A-0,1", kmax)] == [
        abs(b) for b in sequence_slice("A+0,-1", kmax)
    ]


def test_eps_split_and_symbolic_rendering():
    plus = gen_poly_table(2, 1)
    minus = gen_poly_table(2, -1)
    split = eps_split(plus.poly(2), minus.poly(2))
    # A_2 = (n^2 - 3n + 3)x^2 + (n - 5)eps x + 1 and A_1 = (n - 2)x + eps
    zero, one = RatPoly.zero(), RatPoly.one()
    assert split == [(one, zero), (zero, RatPoly((-5, 1))), (RatPoly((3, -3, 1)), zero)]
    assert eps_split(plus.poly(1), minus.poly(1)) == [(zero, one), (RatPoly((-2, 1)), zero)]


def test_bundle_round_trip():
    # a warm read returns exactly what a cold build returns, U/V through kmax+1 included
    for eps in (1, -1):
        for kmax in (0, 4):
            tables = TableSet.build(kmax, eps)
            assert bundle_from_text(bundle_text(tables)) == tables


def test_bundle_with_A_off_its_recurrence_is_refused():
    # A_2's x^1 coefficient n - 5 -> n^2 - 5: same at n = 0 and 1, so U and V agree
    bundle = json.loads(bundle_text(TableSet.build(3, 1)))
    assert bundle["A"][2][1] == [-5, 1]
    bundle["A"][2][1] = [-5, 0, 1]
    with pytest.raises(ValueError, match="residual nonzero at k=2"):
        bundle_from_text(_dumps(bundle))


def test_bundle_with_another_seed_A_0_is_refused():
    # the recurrence fixes A_1.. only once A_0 = 1 is fixed; kmax 0 has no residuals at all
    bundle = json.loads(bundle_text(TableSet.build(0, 1)))
    assert bundle["A"] == [[[1]]]
    bundle["A"] = [[[1, -1, 1]]]  # A_0 = n^2 - n + 1, still 1 at n = 0 and 1
    with pytest.raises(ValueError, match="A_0 is not 1"):
        bundle_from_text(_dumps(bundle))
