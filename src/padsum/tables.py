"""Recurrence-generated tables: generating polynomials, correction
polynomials, integer pairs, Bell numbers, closed forms, and the named
integer sequences they evaluate to.

The table of generating polynomials A_0, A_1, ... (one per sign eps) is the
single source of truth.  The two signs are one table up to sign,
A^-_kj = (-1)^(k+j) A^+_kj (:func:`sign_flip`), so a run that needs both
(``cli._grid``) generates A^+ once and checks its flip as the -1 table.
Everything else is derived from the table of each sign:

    U_k(x) = x * A_{k-1}(1; x) - eps * A_{k-1}(0; x)
    V_k(x) = -eps * A_{k-1}(0; x)
    u_k = U_k(1),  v_k = V_k(1)       (at eps = +1)

U_k is the correction completing n^k x^k so the factorial series
sum eps^n n! [n^k x^k + U_k(x)] x^n telescopes; V_k is its closed-form sum.
Independent recurrences for U, V, u, v are cross-checks, never definitions:
:meth:`TableSet.checked` compares each derived table with its own route.

Every table is stored as integer rows, lowest power first, never as
polynomial objects: ``GenPolyTable.rows[k][j]`` holds the coefficients in n
of A_kj(n), the x^j coefficient of A_k, so row k has exactly k+1 columns,
and ``CorrectionPolys.us[k-1]`` / ``.vs[k-1]`` hold the coefficients in x
of U_k / V_k.  Each coefficient list is a tuple of ints with no trailing
zero.  ``poly(k)``, ``u_poly(k)`` and ``v_poly(k)`` build a fresh
``GenPoly`` or ``RatPoly`` for the callers that want one.

The generator and the residual check work on one integer per column, its
coefficient list evaluated at 2^w (``_pack`` and ``_unpack``).  The width
w is set by a proved bound on the coefficients, so unpacking and the
packed zero test are exact.  Rows are summed by ``kernel._add_shifted``
(packed in the residual check, as stored in the correction recurrence)
and evaluated by ``kernel._horner`` (the pairs and the named sequences);
the correction and pair routes share no packing code with the generator.

Building, checking, evaluating and writing a table runs on ints alone.
``poly``, with its ``GenPoly``, ``RatPoly`` and ``Fraction``, is reached
through the module (``polymod``), which loads at its first use: in
``poly(k)``, ``u_poly``/``v_poly``, ``aux_poly``, the closed forms and
``eps_split``.  So ``tables --format json`` and ``--format csv``, ``seq``
and ``seq-compare`` load neither ``poly`` nor ``fractions``.  No table is
ever read back: every run generates its tables by the recurrence.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import mul
from typing import NamedTuple

from . import poly as polymod  # loads at its first attribute access
from .kernel import SEQUENCE_IDS, _add_shifted, _at_least, _dumps, _horner, _sign
from .kernel import VerificationError


class CrossCheckError(VerificationError):
    """Two independent routes to the same table disagreed."""


class GenPolyTable(NamedTuple):
    """Generating polynomials A_0..A_kmax for one fixed sign eps.

    A_0 = 1 and, writing A_k(n; x) = sum_j A_kj(n) x^j, each coefficient
    polynomial is pinned column by column by

        sum_{m=0}^{j} C(k+1, m) * A_{k-m, j-m}(n)
            = eps * A_{k-1, j}(n)   for j < k
            = n^k                   for j = k.
    """

    eps: int
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def kmax(self) -> int:
        return len(self.rows) - 1

    def poly(self, k: int) -> polymod.GenPoly:
        """A_k, built afresh from its row."""
        return polymod.GenPoly(self.eps, map(polymod.RatPoly, self.rows[k]))


def _coefficient_bounds(kmax: int) -> list[int]:
    """B_0..B_kmax, where B_0 = 1 and B_k = B_{k-1} + sum_{m=1}^{k} C(k+1, m) B_{k-m}.

    By the triangle inequality on the recurrence of :class:`GenPolyTable`,
    every coefficient of A_k is at most B_k in absolute value.
    """
    bounds = [1]
    for k in range(1, kmax + 1):
        bounds.append(bounds[k - 1] + sum(comb(k + 1, m) * bounds[k - m] for m in range(1, k + 1)))
    return bounds


def _width(bound: int) -> int:
    """The least slot width w with bound < 2^(w-1)."""
    return bound.bit_length() + 1


def _pack(coeffs, width: int) -> int:
    """The polynomial with ``coeffs`` (lowest degree first) at 2^width, by
    Horner's rule with shifts (``kernel._horner``'s multiplications by
    2^width cost over twice as much).

    Packing is the evaluation map Z[n] -> Z at 2^width, so a packed linear
    combination of columns equals the combination of their packed values.
    When every coefficient has |c| < 2^(width-1), :func:`_unpack` recovers
    the coefficients exactly, and a packed value is 0 only for the zero
    polynomial.
    """
    total = 0
    for c in reversed(coeffs):
        total = (total << width) + c
    return total


def _unpack(value: int, width: int) -> tuple[int, ...]:
    """The balanced base-2^width digits of ``value``, each in
    [-2^(width-1), 2^(width-1)), lowest first and with no trailing zero."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    while value:
        value += half
        digits.append((value & mask) - half)
        value >>= width
    return tuple(digits)


def gen_poly_table(kmax: int, eps: int) -> GenPolyTable:
    """Generate A_0..A_kmax by the column-by-column recurrence.

    Each A_kj is solved for as one integer, its column packed at 2^w
    (:func:`_pack`): eps * A_{k-1,j} (n^k for j = k) minus the
    C(k+1, m) A_{k-m,j-m} terms.  The width w fits B_kmax, which bounds
    every coefficient of the table, so each column is unpacked once, exactly,
    into its stored tuple.
    """
    _at_least("kmax", kmax, 0)
    _sign(eps)
    width = _width(_coefficient_bounds(kmax)[-1])
    diagonals: list[list[int]] = [[1]]  # diagonals[d][j] is A_{d+j, j}, packed
    for k in range(1, kmax + 1):
        binom = [comb(k + 1, m) for m in range(1, k + 1)]
        diagonals.append([])
        for j in range(k + 1):
            line = diagonals[k - j]  # A_{k-m, j-m} for m = j..1
            value = eps * diagonals[k - j - 1][j] if j < k else 1 << (k * width)
            line.append(value - sum(map(mul, binom, reversed(line))))
    return GenPolyTable(eps, tuple(
        tuple(_unpack(diagonals[k - j][j], width) for j in range(k + 1)) for k in range(kmax + 1)
    ))


def sign_flip(gen: GenPolyTable) -> GenPolyTable:
    """The table of the other sign, A^(-eps)_kj = (-1)^(k+j) A^eps_kj, with
    no generator run: the -eps series at x is the eps series at -x.

    Substituted into equation (k, j) of the -eps family (see
    :class:`GenPolyTable`), the flipped rows make each term
    C(k+1, m) A_{k-m, j-m} carry (-1)^(k+j), the right side -eps A_{k-1, j}
    become (-1)^(k+j) eps A_{k-1, j}, and n^k at j = k is n^k (-1)^(2k), so
    what is left is equation (k, j) of the eps family.  The flip is its own
    inverse.  It only negates columns; :meth:`TableSet.checked` checks the
    result like any other table.
    """
    return GenPolyTable(-gen.eps, tuple(
        tuple(tuple(-c for c in col) if (k + j) % 2 else col for j, col in enumerate(row))
        for k, row in enumerate(gen.rows)
    ))


def recurrence_residuals(table: GenPolyTable) -> tuple[int | None, int]:
    """Re-substitute the whole family into its defining recurrence: the
    first k = 1..kmax whose residual, the two-variable polynomial

        sum_{l=1}^{k+1} C(k+1, l) x^(k+1-l) A_{l-1}(n; x)
            - eps * A_{k-1}(n; x) - n^k x^k,

    is not identically zero, or None when every residual vanishes; and
    the number of k whose residual was compared, which is kmax when every
    residual vanishes.

    This is an independent route from the generator: it sums whole
    two-variable polynomials, one packed integer per power of x, rather
    than solving column by column.  A row with a coefficient above B_k
    (:func:`_coefficient_bounds`) is reported at its k before anything is
    packed, and a bad A_0, which has no residual, at k = 1: for rows of
    the stored shape, what the recurrence makes of rows within their
    bounds is within B_k, so such a row cannot satisfy it.  The rows before
    it are within their bounds, so every residual coefficient is within
    2 B_kmax + 1; the width fits that, and each packed zero test is exact.
    """
    eps, rows = table.eps, table.rows
    bounds = _coefficient_bounds(table.kmax)
    over = (
        k for k, (row, bound) in enumerate(zip(rows, bounds))
        if any(col and (max(col) > bound or min(col) < -bound) for col in row)
    )
    first = max(next(over, len(rows)), 1)
    width = _width(2 * bounds[-1] + 1)
    packed = [[_pack(col, width) for col in row] for row in rows[:first]]
    compared = 0
    for k in range(1, first):
        terms = [(packed[k - m], comb(k + 1, m), m) for m in range(k + 1)]
        terms.append((packed[k - 1], -eps, 0))
        acc = [0] * k + [-1 << (k * width)]  # - n^k x^k
        for row, scale, shift in terms:
            _add_shifted(acc, row, scale, shift)
        compared += 1
        if any(acc):
            return k, compared
    return (first if first < len(rows) else None), compared


def _kth(items: tuple, k: int):
    """items[k - 1], the k-th of a family indexed from 1; IndexError outside 1..len."""
    if not 1 <= k <= len(items):
        raise IndexError(f"k must be in 1..{len(items)}, got {k}")
    return items[k - 1]


class CorrectionPolys(NamedTuple):
    """Correction polynomials U_k and closed-form sums V_k, k = 1..kmax.

    Index convention: us[0] holds U_1.  Both families have integer
    coefficients; V_k is constant in x only for k = 1.
    """

    us: tuple[tuple[int, ...], ...]
    vs: tuple[tuple[int, ...], ...]

    @property
    def kmax(self) -> int:
        return len(self.us)

    def u_poly(self, k: int) -> polymod.RatPoly:
        return polymod.RatPoly(_kth(self.us, k))

    def v_poly(self, k: int) -> polymod.RatPoly:
        return polymod.RatPoly(_kth(self.vs, k))


def derive_corrections(table: GenPolyTable) -> CorrectionPolys:
    """U_k and V_k for k = 1..kmax+1, read off the rows of A_{k-1}: its
    n = 0 value is each column's constant term, its n = 1 value each
    column's coefficient sum.

    This only derives; :meth:`TableSet.checked` compares the result with
    its independent route.
    """
    eps = table.eps
    us: list[tuple] = []
    vs: list[tuple] = []
    for row in table.rows:  # A_{k-1} for k = 1..kmax+1
        v = [-eps * col[0] if col else 0 for col in row]  # -eps A_{k-1}(0; x)
        x_at_one = [0, *map(sum, row)]  # x A_{k-1}(1; x)
        vs.append(tuple(v))
        us.append(tuple(a + b for a, b in zip(x_at_one, v + [0])))
    return CorrectionPolys(tuple(us), tuple(vs))


def corrections_by_recurrence(kmax: int, eps: int) -> CorrectionPolys:
    """U_k and V_k from their own binomial recurrences, independent of the
    generating-polynomial table.

    Seeds: U_1 = x - eps and V_1 = -eps.  For k >= 1,

        U_{k+1} = x^(k+1) + eps*U_k - sum_{l=1}^{k} C(k+1, l) x^(k+1-l) U_l
        V_{k+1} =           eps*V_k - sum_{l=1}^{k} C(k+1, l) x^(k+1-l) V_l

    Both recurrences run on integer coefficient lists.
    """
    _at_least("kmax", kmax, 1)
    _sign(eps)
    u: list[list] = [[-eps, 1]]
    v: list[list] = [[-eps]]
    for k in range(1, kmax):
        next_u = [0] * (k + 1) + [1]
        next_v: list = []
        _add_shifted(next_u, u[k - 1], eps)
        _add_shifted(next_v, v[k - 1], eps)
        for l in range(1, k + 1):
            scale = -comb(k + 1, l)
            _add_shifted(next_u, u[l - 1], scale, k + 1 - l)
            _add_shifted(next_v, v[l - 1], scale, k + 1 - l)
        u.append(next_u)
        v.append(next_v)
    return CorrectionPolys(tuple(map(tuple, u)), tuple(map(tuple, v)))


class IntPairTable(NamedTuple):
    """Integer pairs (u_k, v_k) with sum_{n>=0} n! (n^k + u_k) = v_k p-adically.

    us[0] is u_1 = 0, vs[0] is v_1 = -1.
    """

    us: tuple[int, ...]
    vs: tuple[int, ...]

    def u(self, k: int) -> int:
        return _kth(self.us, k)

    def v(self, k: int) -> int:
        return _kth(self.vs, k)


def int_pairs(kmax: int) -> IntPairTable:
    """(u_k, v_k) for k = 1..kmax by their binomial recurrences.

        u_{k+1} = -k*u_k - sum_{l=1}^{k-1} C(k+1, l) u_l + 1,   u_1 = 0
        v_{k+1} = -k*v_k - sum_{l=1}^{k-1} C(k+1, l) v_l,       v_1 = -1

    Every :meth:`TableSet.checked` compares its pairs with these integers.
    """
    _at_least("kmax", kmax, 1)
    u, v = [0], [-1]  # u[k - 1] is u_k
    for k in range(1, kmax):
        binom = [comb(k + 1, l) for l in range(1, k)]
        u.append(-k * u[k - 1] - sum(map(mul, binom, u)) + 1)
        v.append(-k * v[k - 1] - sum(map(mul, binom, v)))
    return IntPairTable(tuple(u), tuple(v))


class AuxSolution(NamedTuple):
    """Solution of the telescoping linear system for one k: the auxiliary
    polynomial A(n) and the integers (u, v) with

        (n+1) A(n+1) - A(n) = n^k + u,    v = -A(0).
    """

    poly: polymod.RatPoly
    u: int
    v: int


def aux_poly(k: int) -> AuxSolution:
    """Solve the (k+1) x (k+1) linear system behind the weight-(n+1)
    telescoping step.

    Unknowns are the coefficients a_0..a_{k-1} of A(n) plus u; equating the
    coefficient of n^j in (n+1) A(n+1) - A(n) - u with that of n^k gives one
    equation per j = 0..k.  For j >= 1 the system is unit upper-triangular:
    equation j pins a_{j-1}, whose coefficient is C(j, j) = 1, given the
    a_i with i >= j, so back-substitution from j = k solves it over the
    integers; equation 0 then gives u = a_1 + ... + a_{k-1}, and
    v = -A(0) = -a_0.  Integrality is structural, not asserted.
    """
    _at_least("k", k, 1)
    a = [0] * k
    for j in range(k, 0, -1):
        # the n^j coefficient of a_i [(n+1)^(i+1) - n^i] is C(i+1, j) - [i == j]
        a[j - 1] = (j == k) - sum(a[i] * (comb(i + 1, j) - (i == j)) for i in range(j, k))
    return AuxSolution(polymod.RatPoly(a), sum(a[1:]), -a[0])


def bell_numbers(kmax: int) -> tuple[int, ...]:
    """Bell numbers B_0..B_kmax via B_{k+1} = sum_l C(k, l) B_l, B_0 = 1."""
    _at_least("kmax", kmax, 0)
    b = [1]
    for k in range(kmax):
        b.append(sum(comb(k, l) * b[l] for l in range(k + 1)))
    return tuple(b)


def diagonal_closed_form(k: int) -> polymod.RatPoly:
    """Closed form of the top x-coefficient A_kk(n): the n^i coefficient is
    (-1)^(k+i) C(k+1, i+1), independent of the sign eps."""
    _at_least("k", k, 1)
    return polymod.RatPoly([(-1) ** (k + i) * comb(k + 1, i + 1) for i in range(k + 1)])


def linear_closed_form(k: int, eps: int) -> polymod.RatPoly:
    """Closed form of the x^1 coefficient: (n - k(k+3)/2) * eps^(k+1).

    The constant k(k+3)/2 is the sum 2 + 3 + ... + (k+1).
    """
    _at_least("k", k, 1)
    _sign(eps)
    sign = eps ** (k + 1)
    return polymod.RatPoly([-k * (k + 3) // 2 * sign, sign])


def closed_forms(k: int, eps: int) -> tuple[polymod.RatPoly, polymod.RatPoly]:
    """The pair (A_kk, A_k1) of closed-form coefficient polynomials."""
    return diagonal_closed_form(k), linear_closed_form(k, eps)


# The named evaluations are ``kernel.SEQUENCE_IDS``, so that the ``seq``
# parsers list them without loading this module.


def sequence_start_index(which: str) -> int:
    """First index of the named sequence: 0 for A-families, 1 for U-families."""
    family = _sequence_params(which)[0]
    return 0 if family == "A" else 1


def _sequence_params(which: str) -> tuple[str, int, int | None, int]:
    try:
        return SEQUENCE_IDS[which]
    except KeyError:
        valid = ", ".join(sorted(SEQUENCE_IDS))
        raise ValueError(f"unknown sequence id {which!r}; valid ids: {valid}") from None


def sequence_slice(which: str, kmax: int) -> list[int]:
    """Evaluate a named family at its fixed point.

    A-families run over k = 0..kmax, U-families over k = 1..kmax.  All
    values are integers, read off tables checked by :meth:`TableSet.build`.
    """
    family, eps, n, x = _sequence_params(which)
    if family == "A":
        rows = TableSet.build(kmax, eps).gen.rows
        return [_horner([_horner(col, n) for col in row], x) for row in rows]
    if kmax < 1:
        raise ValueError(f"U-sequences need kmax >= 1, got {kmax}")
    return [_horner(u, x) for u in TableSet.build(kmax - 1, eps).corr.us]


def eps_split(
    plus: polymod.GenPoly, minus: polymod.GenPoly
) -> list[tuple[polymod.RatPoly, polymod.RatPoly]]:
    """Recombine the two concrete-sign runs into (even, odd) parts per x^j.

    ``even + sign * odd`` reproduces either run, so the pairs are the
    symbolic-sign form, obtained without any symbolic algebra.
    """
    if plus.eps != 1 or minus.eps != -1:
        raise ValueError("expected a (+1)-run and a (-1)-run, in that order")
    half = polymod.Fraction(1, 2)
    deg = max(plus.degree_x, minus.degree_x)
    return [
        ((plus.coeff(j) + minus.coeff(j)) * half, (plus.coeff(j) - minus.coeff(j)) * half)
        for j in range(deg + 1)
    ]


class TableSet(NamedTuple):
    """A generating-polynomial table with its derived corrections.

    Build one with :meth:`checked` (or :meth:`build`, which generates the
    table first), so that every table in use has passed the same checks.
    """

    gen: GenPolyTable
    corr: CorrectionPolys

    @property
    def eps(self) -> int:
        return self.gen.eps

    @property
    def kmax(self) -> int:
        return self.gen.kmax

    @property
    def pairs(self) -> IntPairTable:
        """(u_k, v_k) = eps^k (U_k(eps), V_k(eps)) for k = 1..kmax+1.

        The eps = -1 series at x is the eps = +1 series at -x, which is
        also why the -1 table is the :func:`sign_flip` of the +1 table, so
        both signs give the same integer pairs.
        """
        eps = self.eps
        return IntPairTable(
            tuple(eps**k * _horner(u, eps) for k, u in enumerate(self.corr.us, 1)),
            tuple(eps**k * _horner(v, eps) for k, v in enumerate(self.corr.vs, 1)),
        )

    @classmethod
    def checked(cls, gen: GenPolyTable) -> "TableSet":
        """A_0..A_kmax plus U/V through kmax+1, after every table check.

        First eps must be the int +1 or -1 (``ValueError``), and row k must
        be k+1 columns of plain ints (no ``bool``, no ``float``) with no
        trailing zero, the stored form that ``bundle_text`` writes as it is.
        Then A is re-substituted into its recurrence, and the residual check
        must have compared every k = 1..kmax; the residuals start at k = 1,
        so the seed A_0 = 1 is pinned separately, and with it fixed the
        recurrence fixes every later row.  Last, U and V are
        compared with :func:`corrections_by_recurrence`, and the pairs u, v
        with :func:`int_pairs`, by one rule: the lengths, then the first row
        that differs.  Any disagreement raises :class:`CrossCheckError`.
        """
        eps = _sign(gen.eps)
        for k, row in enumerate(gen.rows):
            if (len(row) != k + 1 or set(map(type, row)) != {tuple}
                    or not set(map(type, chain.from_iterable(row))) <= {int}
                    or any(col[-1:] == (0,) for col in row)):
                raise CrossCheckError(f"A_{k} is not {k + 1} trimmed columns of plain ints")
        if gen.rows[:1] != (((1,),),):
            raise CrossCheckError("A_0 is not 1")
        bad_k, compared = recurrence_residuals(gen)
        if bad_k is not None:
            raise CrossCheckError(f"generating-polynomial residual nonzero at k={bad_k}")
        if compared != gen.kmax:
            raise CrossCheckError(
                f"generating-polynomial residuals compared at {compared} of k = 1..{gen.kmax}")
        tables = cls(gen, derive_corrections(gen))
        corr, pairs = tables.corr, tables.pairs
        direct, integers = corrections_by_recurrence(gen.kmax + 1, eps), int_pairs(gen.kmax + 1)
        for name, ours, theirs in (
            ("U", corr.us, direct.us),
            ("V", corr.vs, direct.vs),
            ("u", pairs.us, integers.us),
            ("v", pairs.vs, integers.vs),
        ):
            if len(ours) != len(theirs):
                raise CrossCheckError(
                    f"{name} has {len(ours)} rows by the table route and {len(theirs)}"
                    f" by the recurrence route (eps={eps:+d})"
                )
            for k, (a, b) in enumerate(zip(ours, theirs), 1):
                if a != b:
                    raise CrossCheckError(
                        f"{name}_{k} mismatch (eps={eps:+d}): table route {a!r}"
                        f" vs recurrence route {b!r}"
                    )
        return tables

    @classmethod
    def build(cls, kmax: int, eps: int) -> "TableSet":
        """Generate A_0..A_kmax and return them :meth:`checked`."""
        return cls.checked(gen_poly_table(kmax, eps))


def bundle_to_json(tables: TableSet) -> dict:
    """JSON-ready dict for a table bundle.

    Layout: A[k][j][i] is the n^i coefficient of the x^j coefficient of
    A_k; U[k-1] / V[k-1] are the x-coefficients of U_k / V_k and u/v the
    integer pairs, all trimmed to k <= kmax so that kmax = 0 carries A_0
    alone.  All coefficients are exact integers; the rows are the stored
    tuples, which ``json`` writes as lists.
    """
    kmax = tables.kmax
    pairs = tables.pairs
    return {
        "eps": tables.eps,
        "kmax": kmax,
        "A": tables.gen.rows,
        "U": tables.corr.us[:kmax],
        "V": tables.corr.vs[:kmax],
        "u": list(pairs.us[:kmax]),
        "v": list(pairs.vs[:kmax]),
    }


def bundle_text(tables: TableSet) -> str:
    """The bundle's one serialisation: ``tables --format json`` and the cache."""
    return _dumps(bundle_to_json(tables))
