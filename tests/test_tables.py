"""Recurrence-generated tables and their cross-checks."""

import inspect
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

import padsum.tables
from padsum.cli import main
from padsum.kernel import SEQUENCE_IDS
from padsum.poly import GenPoly, RatPoly, _add_shifted
from padsum.tables import (
    _coefficient_bounds,
    _pack,
    _unpack,
    _width,
    CrossCheckError,
    GenPolyTable,
    IntPairTable,
    TableSet,
    aux_poly,
    bell_numbers,
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
    sign_flip,
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
    gen, corr = tables.gen.rows, tables.corr
    coefficient_lists = [*(col for row in gen for col in row), *corr.us, *corr.vs]
    assert len(coefficient_lists) == 91 + 2 * 13
    assert all(type(t) is tuple for t in (gen, *gen, corr.us, corr.vs, *coefficient_lists))
    assert all(type(c) is int for coeffs in coefficient_lists for c in coeffs)


@pytest.mark.parametrize("eps", (1, -1))
def test_build_and_bundle_construct_no_polynomial(monkeypatch, eps):
    # the tables are built, checked and written as integer rows;
    # only poly(k), u_poly(k) and v_poly(k) make a GenPoly or RatPoly
    def refuse(self, *args):
        raise AssertionError(f"a {type(self).__name__} was constructed")

    monkeypatch.setattr(RatPoly, "__init__", refuse)
    monkeypatch.setattr(GenPoly, "__init__", refuse)
    tables = TableSet.build(12, eps)
    bundle_text(tables)


def test_first_generating_polys():
    table = gen_poly_table(3, 1)
    assert table.poly(0) == GenPoly(1, (RatPoly.one(),))
    assert table.poly(1) == GenPoly(1, (RatPoly.constant(1), RatPoly((-2, 1))))
    assert table.poly(3).coeff(3) == RatPoly((-4, 6, -4, 1))
    assert table.poly(3).coeff(2) == RatPoly((17, -7, 1))
    minus = gen_poly_table(1, -1)
    assert minus.poly(1) == GenPoly(-1, (RatPoly.constant(-1), RatPoly((-2, 1))))


def list_route(kmax, eps):
    """A_0..A_kmax solved for on coefficient lists, the reference for the packed generator."""
    rows = [[[1]]]
    for k in range(1, kmax + 1):
        row = []
        for j in range(k + 1):
            coeffs = [eps * c for c in rows[k - 1][j]] if j < k else [0] * k + [1]
            for m in range(1, j + 1):
                _add_shifted(coeffs, rows[k - m][j - m], -comb(k + 1, m))
            row.append(coeffs)
        rows.append(row)
    return tuple(tuple(map(tuple, row)) for row in rows)


@pytest.mark.parametrize("eps", (1, -1))
def test_packed_generator_matches_the_list_route(eps):
    # each kmax packs at its own width, so every kmax up to 60 is generated afresh
    reference = list_route(60, eps)
    for kmax in range(61):
        assert gen_poly_table(kmax, eps).rows == reference[: kmax + 1]


def test_sign_flip_of_the_plus_table_is_the_minus_table():
    # A^-_kj = (-1)^(k+j) A^+_kj; each kmax packs at its own width, so each is generated afresh
    for kmax in range(31):
        plus, minus = gen_poly_table(kmax, 1), gen_poly_table(kmax, -1)
        assert sign_flip(plus) == minus
        assert sign_flip(minus) == plus


@st.composite
def generating_tables(draw):
    """A GenPolyTable of the stored shape (row k has k+1 columns) with any integer columns."""
    column = st.lists(st.integers(), max_size=4).map(tuple)
    rows = tuple(tuple(draw(st.lists(column, min_size=k + 1, max_size=k + 1)))
                 for k in range(draw(st.integers(0, 6)) + 1))
    return GenPolyTable(draw(st.sampled_from([1, -1])), rows)


@given(gen=generating_tables())
def test_sign_flip_is_its_own_inverse(gen):
    flipped = sign_flip(gen)
    assert flipped.eps == -gen.eps
    assert [len(row) for row in flipped.rows] == [len(row) for row in gen.rows]
    assert sign_flip(flipped) == gen


def test_coefficient_bounds_cover_the_table():
    bounds = _coefficient_bounds(100)
    assert (bounds[30].bit_length(), bounds[100].bit_length()) == (131, 587)
    for eps in (1, -1):
        rows = gen_poly_table(30, eps).rows
        assert all(abs(c) <= bound for row, bound in zip(rows, bounds) for col in row for c in col)


@st.composite
def bounded_columns(draw):
    """(coefficients, width) with every |c| < 2^(width-1), extremes and negatives included."""
    width = draw(st.integers(1, 80))
    top = (1 << (width - 1)) - 1
    coefficient = st.one_of(st.sampled_from([0, top, -top]), st.integers(-top, top))
    return draw(st.lists(coefficient, max_size=12)), width


@given(bounded_columns())
def test_unpack_inverts_pack_under_the_bound(column):
    coeffs, width = column
    trimmed = list(coeffs)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert _unpack(_pack(coeffs, width), width) == tuple(trimmed)
    assert (_pack(coeffs, width) == 0) == (not any(coeffs))  # the packed zero test


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=8),
       st.integers(), st.integers(1, 64))
def test_pack_is_linear(a, b, scale, width):
    # packing evaluates at 2^width, so it commutes with linear combinations, unbounded
    combined = [scale * x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))]
    assert _pack(combined, width) == scale * _pack(a, width) + _pack(b, width)


@pytest.mark.parametrize("eps", (1, -1))
def test_residuals_flag_a_column_change_at_its_k(eps):
    # + 2(n^2 - n) keeps each row's n = 0 value and coefficient sum, so U, V and
    # the pairs cannot see it; within B_k, only the packed residual at k can
    rows, bounds = gen_poly_table(12, eps).rows, _coefficient_bounds(12)
    for k in range(1, 13):
        j = k // 2
        col = list(rows[k][j]) + [0] * 2
        col[1] -= 2
        col[2] += 2
        col = tuple(col[: max(3, len(rows[k][j]))])
        assert col[-1] and max(map(abs, col)) <= bounds[k]
        changed = rows[k][:j] + (col,) + rows[k][j + 1:]
        table = GenPolyTable(eps, rows[:k] + (changed,) + rows[k + 1:])
        assert recurrence_residuals(table) == (k, k)
        with pytest.raises(CrossCheckError, match=f"residual nonzero at k={k}$"):
            TableSet.checked(table)


def test_residuals_refuse_a_change_the_packed_value_cannot_see():
    # c_0 + 2^w and c_1 - 1 pack to the same integer at width w; the bound
    # check, which runs before any packing, reports the row
    rows = gen_poly_table(6, 1).rows
    width = _width(2 * _coefficient_bounds(6)[-1] + 1)
    col = list(rows[4][2])
    col[0] += 1 << width
    col[1] -= 1
    assert _pack(col, width) == _pack(rows[4][2], width)
    changed = rows[4][:2] + (tuple(col),) + rows[4][3:]
    assert recurrence_residuals(GenPolyTable(1, rows[:4] + (changed,) + rows[5:])) == (4, 3)


def _with_cubic_change(rows, k, j, root):
    """``rows`` with 2n(n-1)(n-root) added to column j of A_k: zero at n = 0 and
    n = 1, so U, V and the pairs cannot see it, and within B_k for k >= 3 and
    root <= 32, so only the packed residual check can."""
    col = list(rows[k][j])
    _add_shifted(col, (0, 2 * root, -2 * (1 + root), 2), 1)
    while col and not col[-1]:
        col.pop()
    assert max(map(abs, col), default=0) <= _coefficient_bounds(k)[-1]
    return rows[:k] + (rows[k][:j] + (tuple(col),) + rows[k][j + 1:],) + rows[k + 1:]


def test_residuals_refuse_a_change_that_vanishes_at_n_4():
    # columns packed at 2 bits would be tested only at n = 4, where this change is 0
    rows = _with_cubic_change(gen_poly_table(10, 1).rows, 10, 3, 4)
    with pytest.raises(CrossCheckError, match="^generating-polynomial residual nonzero at k=10$"):
        TableSet.checked(GenPolyTable(1, rows))


@given(st.sampled_from([1, -1]), st.integers(3, 12), st.data(), st.integers(1, 5))
def test_residuals_refuse_a_change_that_vanishes_at_a_power_of_two(eps, k, data, w):
    # at a width of w bits the packed zero test would read only n = 2^w
    j = data.draw(st.integers(0, k))
    rows = _with_cubic_change(gen_poly_table(12, eps).rows, k, j, 1 << w)
    with pytest.raises(CrossCheckError, match=f"^generating-polynomial residual nonzero at k={k}$"):
        TableSet.checked(GenPolyTable(eps, rows))


def test_residuals_report_a_huge_coefficient_at_once():
    rows = gen_poly_table(30, 1).rows
    start = time.perf_counter()
    huge = GenPolyTable(1, (rows[0], ((10**1000,), rows[1][1]), *rows[2:]))
    assert recurrence_residuals(huge) == (1, 0)  # refused before any residual is compared
    bad_seed = GenPolyTable(1, (((2,),), *rows[1:]))  # A_0 has no residual of its own
    assert recurrence_residuals(bad_seed) == (1, 0)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("eps", (1, -1))
def test_generator_does_no_polynomial_arithmetic(monkeypatch, eps):
    # the recurrence steps on packed integers; RatPoly only wraps rows
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
                assert coefficient.coeff(j) == eps ** (k + j)


def test_recurrence_residuals_pass_and_fault_injection():
    table = gen_poly_table(5, 1)
    assert recurrence_residuals(table) == (None, 5)  # every k = 1..kmax compared

    corrupted_entry = ((1,), (-1, 1))  # (n-1)x + 1
    corrupted = GenPolyTable(1, (table.rows[0], corrupted_entry) + table.rows[2:])
    assert recurrence_residuals(corrupted) == (1, 1)

    assert recurrence_residuals(gen_poly_table(0, 1)) == (None, 0)  # no k to check


def test_a_residual_loop_that_skips_k_1_fails_every_build(monkeypatch, capsys):
    # the mutant compares k = 2..kmax: every residual it sees vanishes, so only
    # the count of compared k, which TableSet.checked holds against kmax, catches it
    source = inspect.getsource(padsum.tables.recurrence_residuals)
    assert source.count("range(1, first)") == 1
    namespace = dict(vars(padsum.tables))
    exec(source.replace("range(1, first)", "range(2, first)"), namespace)
    mutant = namespace["recurrence_residuals"]
    assert mutant(gen_poly_table(8, 1)) == (None, 7)
    monkeypatch.setattr(padsum.tables, "recurrence_residuals", mutant)
    for eps in (1, -1):
        with pytest.raises(CrossCheckError, match=r"residuals compared at 7 of k = 1\.\.8$"):
            TableSet.build(8, eps)
    assert main(["verify", "all"]) == 1
    out = capsys.readouterr().out
    assert "FAIL finite: generating-polynomial residuals compared at 14 of k = 1..15" in out
    assert "FAIL padic: generating-polynomial residuals compared at 7 of k = 1..8" in out


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
    assert corr.us == direct.us
    assert corr.vs == direct.vs

    table = gen_poly_table(3, 1)
    corrupted_entry = ((1,), (-1, 1))  # (n-1)x + 1
    corrupted = GenPolyTable(1, (table.rows[0], corrupted_entry) + table.rows[2:])
    # derive_corrections only derives; the routes disagree, and checked refuses the table
    assert derive_corrections(corrupted).us != corrections_by_recurrence(4, 1).us
    with pytest.raises(CrossCheckError):
        TableSet.checked(corrupted)


def test_a_short_correction_route_fails_the_check(monkeypatch, capsys, tmp_path):
    honest = padsum.tables.corrections_by_recurrence
    monkeypatch.setattr(padsum.tables, "corrections_by_recurrence",
                        lambda kmax, eps: honest(kmax - 2, eps))
    assert main(["tables", "--kmax", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: U has 9 rows by the table route and 7 by")


def test_a_short_pair_route_fails_the_check(monkeypatch, capsys, tmp_path):
    honest = padsum.tables.int_pairs
    monkeypatch.setattr(padsum.tables, "int_pairs", lambda kmax: honest(kmax - 1))
    assert main(["tables", "--kmax", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "verification failure: u has 9 rows by the table route and 8 by the recurrence route"
    )


# each derived table's name in the messages, with its independent route and field
ROUTES = {
    "U": ("corrections_by_recurrence", "us"),
    "V": ("corrections_by_recurrence", "vs"),
    "u": ("int_pairs", "us"),
    "v": ("int_pairs", "vs"),
}


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("name", list(ROUTES))
@pytest.mark.parametrize("short", [True, False], ids=["short", "changed"])
def test_checked_compares_every_route_by_one_rule(monkeypatch, eps, name, short):
    function, field = ROUTES[name]
    honest = getattr(padsum.tables, function)

    def corrupted(*args):  # the route one row short, or with row 3 changed
        route = honest(*args)
        rows = getattr(route, field)
        if short:
            rows = rows[:-1]
        else:
            changed = rows[2] + ((1,) if name in "UV" else 1)
            rows = rows[:2] + (changed,) + rows[3:]
        return route._replace(**{field: rows})

    TableSet.build(6, eps)
    monkeypatch.setattr(padsum.tables, function, corrupted)
    with pytest.raises(CrossCheckError) as exc:
        TableSet.build(6, eps)
    if short:
        expected = f"{name} has 7 rows by the table route and 6 by the recurrence route (eps={eps:+d})"
    else:
        expected = f"{name}_3 mismatch (eps={eps:+d}): table route"
    assert str(exc.value).startswith(expected)


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


@pytest.mark.parametrize("which", sorted(SEQUENCE_IDS))
def test_sequence_slice_matches_the_polynomial_route(which):
    # the object route sequence_slice once took: each row as a GenPoly or RatPoly, evaluated
    family, eps, n, x = SEQUENCE_IDS[which]
    tables = TableSet.build(30, eps)
    if family == "A":
        reference = [tables.gen.poly(k).eval(n, x) for k in range(31)]
    else:
        reference = [tables.corr.u_poly(k)(x) for k in range(1, 31)]
        with pytest.raises(ValueError, match="kmax >= 1"):
            sequence_slice(which, 0)
    for kmax in range(family == "U", 31):
        assert sequence_slice(which, kmax) == reference[:kmax + (family == "A")]


def test_sequence_slice_checks_its_table(monkeypatch):
    honest = padsum.tables.gen_poly_table

    def corrupted(kmax, eps):  # A_1 replaced by (n - 1)x + 1
        table = honest(kmax, eps)
        bad = ((1,), (-1, 1))
        return GenPolyTable(eps, (table.rows[0], bad) + table.rows[2:])

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
    with pytest.raises(CrossCheckError, match=r"^u_3 mismatch"):
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


def test_checked_refuses_A_off_its_recurrence():
    # A_2's x^1 coefficient n - 5 -> n^2 - 5: same at n = 0 and 1, so U and V agree
    rows = gen_poly_table(3, 1).rows
    assert rows[2][1] == (-5, 1)
    a2 = (rows[2][0], (-5, 0, 1), rows[2][2])
    with pytest.raises(CrossCheckError, match="^generating-polynomial residual nonzero at k=2$"):
        TableSet.checked(GenPolyTable(1, (*rows[:2], a2, *rows[3:])))


@pytest.mark.parametrize(
    "a1",
    [
        ((1,), (-2, 1), ()),  # an empty x^2 column
        ((1,), (-2, 1, 0)),  # n - 2 with a trailing zero
        ((True,), (-2, 1)),
        ((1.0,), (-2, 1)),
        ([1], (-2, 1)),
    ],
)
def test_checked_refuses_a_row_off_the_stored_shape(a1):
    rows = gen_poly_table(3, 1).rows
    with pytest.raises(CrossCheckError, match=r"^A_1 is not 2 trimmed columns"):
        TableSet.checked(GenPolyTable(1, (rows[0], a1, *rows[2:])))


def test_checked_refuses_another_seed_A_0():
    # the recurrence fixes A_1.. only once A_0 = 1 is fixed; kmax 0 has no residuals at all
    assert gen_poly_table(0, 1).rows == (((1,),),)
    with pytest.raises(CrossCheckError, match="^A_0 is not 1$"):
        TableSet.checked(GenPolyTable(1, (((1, -1, 1),),)))  # A_0 = n^2 - n + 1, 1 at n = 0 and 1
