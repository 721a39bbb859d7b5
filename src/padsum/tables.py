"""Recurrence-generated tables: generating polynomials, correction
polynomials, integer pairs, Bell numbers, closed forms, and the named
integer sequences they evaluate to.

The table of generating polynomials A_0, A_1, ... (one per sign eps) is the
single source of truth.  Everything else is derived from it:

    U_k(x) = x * A_{k-1}(1; x) - eps * A_{k-1}(0; x)
    V_k(x) = -eps * A_{k-1}(0; x)
    u_k = U_k(1),  v_k = V_k(1)       (at eps = +1)

U_k is the correction completing n^k x^k so the factorial series
sum eps^n n! [n^k x^k + U_k(x)] x^n telescopes; V_k is its closed-form sum.
Independent recurrences for U, V, u, v exist and are run as cross-checks,
never as definitions.

Every table is stored as integer rows, lowest power first, never as
polynomial objects: ``GenPolyTable.rows[k][j]`` holds the coefficients in n
of A_kj(n), the x^j coefficient of A_k, so row k has exactly k+1 columns,
and ``CorrectionPolys.us[k-1]`` / ``.vs[k-1]`` hold the coefficients in x
of U_k / V_k.  Each coefficient list is a tuple of ints with no trailing
zero.  ``poly(k)``, ``u_poly(k)`` and ``v_poly(k)`` build a fresh
``GenPoly`` or ``RatPoly`` for the callers that want one.  Rows are summed
and evaluated by ``poly._add_shifted`` and ``poly._horner``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .poly import GenPoly, RatPoly, _add_shifted, _horner, _sign


class CrossCheckError(RuntimeError):
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

    def poly(self, k: int) -> GenPoly:
        """A_k, built afresh from its row."""
        return GenPoly(self.eps, map(RatPoly, self.rows[k]))


def gen_poly_table(kmax: int, eps: int) -> GenPolyTable:
    """Generate A_0..A_kmax by the column-by-column recurrence.

    Each A_kj is solved for on its integer coefficient list in n, as
    eps * A_{k-1,j} (n^k for j = k) minus the C(k+1, m) A_{k-m,j-m} terms,
    and the lists become tuples once, at the end.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    _sign(eps)
    rows: list[list[list]] = [[[1]]]
    for k in range(1, kmax + 1):
        row: list[list] = []
        for j in range(k + 1):
            coeffs = [eps * c for c in rows[k - 1][j]] if j < k else [0] * k + [1]
            for m in range(1, j + 1):
                _add_shifted(coeffs, rows[k - m][j - m], -comb(k + 1, m))
            row.append(coeffs)
        rows.append(row)
    return GenPolyTable(eps, tuple(tuple(map(tuple, row)) for row in rows))


def recurrence_residuals(table: GenPolyTable) -> int | None:
    """Re-substitute the whole family into its defining recurrence: the
    first k = 1..kmax whose residual, the two-variable polynomial

        sum_{l=1}^{k+1} C(k+1, l) x^(k+1-l) A_{l-1}(n; x)
            - eps * A_{k-1}(n; x) - n^k x^k,

    is not identically zero, or None when every residual vanishes.

    This is an independent route from the generator: it sums whole
    two-variable polynomials, as exact coefficient arrays acc[j][i] of
    n^i x^j, rather than solving coefficient by coefficient.
    """
    eps, rows = table.eps, table.rows
    for k in range(1, table.kmax + 1):
        terms = [(rows[l - 1], comb(k + 1, l), k + 1 - l) for l in range(1, k + 2)]
        terms += [(rows[k - 1], -eps, 0), ([(0,) * k + (-1,)], 1, k)]  # - eps A_{k-1} - n^k x^k
        acc: list[list] = []
        for row, scale, shift in terms:
            acc.extend([] for _ in range(shift + len(row) - len(acc)))
            for j, coeffs in enumerate(row, shift):
                _add_shifted(acc[j], coeffs, scale)
        if any(any(coeffs) for coeffs in acc):
            return k
    return None


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

    def u_poly(self, k: int) -> RatPoly:
        return RatPoly(_kth(self.us, k))

    def v_poly(self, k: int) -> RatPoly:
        return RatPoly(_kth(self.vs, k))


def derive_corrections(table: GenPolyTable) -> CorrectionPolys:
    """U_k and V_k for k = 1..kmax+1, read off the rows of A_{k-1}: its
    n = 0 value is each column's constant term, its n = 1 value each
    column's coefficient sum.

    The result is compared, row for row, against the self-contained
    recurrence route; disagreement is a hard failure.
    """
    eps = table.eps
    us: list[tuple] = []
    vs: list[tuple] = []
    for row in table.rows:  # A_{k-1} for k = 1..kmax+1
        v = [-eps * col[0] if col else 0 for col in row]  # -eps A_{k-1}(0; x)
        x_at_one = [0, *map(sum, row)]  # x A_{k-1}(1; x)
        vs.append(tuple(v))
        us.append(tuple(a + b for a, b in zip(x_at_one, v + [0])))
    direct = corrections_by_recurrence(table.kmax + 1, eps)
    for name, ours, theirs in (("U", us, direct.us), ("V", vs, direct.vs)):
        for k, (a, b) in enumerate(zip(ours, theirs), 1):
            if a != b:
                raise CrossCheckError(
                    f"{name}_{k} mismatch (eps={eps:+d}): table route {a!r}"
                    f" vs recurrence route {b!r}"
                )
    return CorrectionPolys(tuple(us), tuple(vs))


def corrections_by_recurrence(kmax: int, eps: int) -> CorrectionPolys:
    """U_k and V_k from their own binomial recurrences, independent of the
    generating-polynomial table.

    Seeds: U_1 = x - eps and V_1 = -eps.  For k >= 1,

        U_{k+1} = x^(k+1) + eps*U_k - sum_{l=1}^{k} C(k+1, l) x^(k+1-l) U_l
        V_{k+1} =           eps*V_k - sum_{l=1}^{k} C(k+1, l) x^(k+1-l) V_l

    Both recurrences run on integer coefficient lists.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
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

    Every :meth:`TableSet.checked` compares its U/V with these integers.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    u: dict[int, int] = {1: 0}
    v: dict[int, int] = {1: -1}
    for k in range(1, kmax):
        su = sum(comb(k + 1, l) * u[l] for l in range(1, k))
        sv = sum(comb(k + 1, l) * v[l] for l in range(1, k))
        u[k + 1] = -k * u[k] - su + 1
        v[k + 1] = -k * v[k] - sv
    return IntPairTable(
        tuple(u[k] for k in range(1, kmax + 1)),
        tuple(v[k] for k in range(1, kmax + 1)),
    )


class AuxSolution(NamedTuple):
    """Solution of the telescoping linear system for one k: the auxiliary
    polynomial A(n) and the integers (u, v) with

        (n+1) A(n+1) - A(n) = n^k + u,    v = -A(0).
    """

    poly: RatPoly
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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a = [0] * k
    for j in range(k, 0, -1):
        # the n^j coefficient of a_i [(n+1)^(i+1) - n^i] is C(i+1, j) - [i == j]
        a[j - 1] = (j == k) - sum(a[i] * (comb(i + 1, j) - (i == j)) for i in range(j, k))
    return AuxSolution(RatPoly(a), sum(a[1:]), -a[0])


def bell_numbers(kmax: int) -> tuple[int, ...]:
    """Bell numbers B_0..B_kmax via B_{k+1} = sum_l C(k, l) B_l, B_0 = 1."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    b = [1]
    for k in range(kmax):
        b.append(sum(comb(k, l) * b[l] for l in range(k + 1)))
    return tuple(b)


def diagonal_closed_form(k: int) -> RatPoly:
    """Closed form of the top x-coefficient A_kk(n): the n^i coefficient is
    (-1)^(k+i) C(k+1, i+1), independent of the sign eps."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return RatPoly([(-1) ** (k + i) * comb(k + 1, i + 1) for i in range(k + 1)])


def linear_closed_form(k: int, eps: int) -> RatPoly:
    """Closed form of the x^1 coefficient: (n - k(k+3)/2) * eps^(k+1).

    The constant k(k+3)/2 is the sum 2 + 3 + ... + (k+1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _sign(eps)
    sign = eps ** (k + 1)
    return RatPoly([-k * (k + 3) // 2 * sign, sign])


def closed_forms(k: int, eps: int) -> tuple[RatPoly, RatPoly]:
    """The pair (A_kk, A_k1) of closed-form coefficient polynomials."""
    return diagonal_closed_form(k), linear_closed_form(k, eps)


# The twelve named evaluations: generating polynomials and corrections at
# n in {0, 1}, x in {+1, -1}, both signs.  Several overlap known OEIS
# entries up to sign (A014619, A040027, A007114, A032347 for the A-families;
# A000587 and A000110, the complementary Bell and Bell numbers, for U).
SEQUENCE_IDS: dict[str, tuple[str, int, int | None, int]] = {
    "A+0,1": ("A", 1, 0, 1),
    "A+0,-1": ("A", 1, 0, -1),
    "A+1,1": ("A", 1, 1, 1),
    "A+1,-1": ("A", 1, 1, -1),
    "A-0,1": ("A", -1, 0, 1),
    "A-0,-1": ("A", -1, 0, -1),
    "A-1,1": ("A", -1, 1, 1),
    "A-1,-1": ("A", -1, 1, -1),
    "U+1": ("U", 1, None, 1),
    "U+-1": ("U", 1, None, -1),
    "U-1": ("U", -1, None, 1),
    "U--1": ("U", -1, None, -1),
}


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
        table = TableSet.build(kmax, eps).gen
        return [table.poly(k).eval(n, x) for k in range(kmax + 1)]
    if kmax < 1:
        raise ValueError(f"U-sequences need kmax >= 1, got {kmax}")
    corr = TableSet.build(kmax - 1, eps).corr
    return [corr.u_poly(k)(x) for k in range(1, kmax + 1)]


def eps_split(plus: GenPoly, minus: GenPoly) -> list[tuple[RatPoly, RatPoly]]:
    """Recombine the two concrete-sign runs into (even, odd) parts per x^j.

    ``even + sign * odd`` reproduces either run, so the pairs are the
    symbolic-sign form, obtained without any symbolic algebra.
    """
    if plus.eps != 1 or minus.eps != -1:
        raise ValueError("expected a (+1)-run and a (-1)-run, in that order")
    half = Fraction(1, 2)
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

        The eps = -1 series at x is the eps = +1 series at -x, so both signs
        give the same integer pairs.
        """
        eps = self.eps
        return IntPairTable(
            tuple(eps**k * _horner(u, eps) for k, u in enumerate(self.corr.us, 1)),
            tuple(eps**k * _horner(v, eps) for k, v in enumerate(self.corr.vs, 1)),
        )

    @classmethod
    def checked(cls, gen: GenPolyTable) -> "TableSet":
        """A_0..A_kmax plus U/V through kmax+1, after checking them.

        First the shape: row k must be k+1 columns of plain ints (no
        ``bool``, no ``float``) with no trailing zero, the stored form of
        the module docstring, which ``bundle_text`` writes as it is.  Then
        the table is re-substituted into its recurrence, the corrections are
        compared against their independent route, and the pairs against the
        integer recurrence (u_k, v_k), k = 1..kmax+1.  The residuals start at
        k = 1, so the seed A_0 = 1 is pinned separately; with it fixed, the
        recurrence fixes every later row.  Any disagreement raises
        :class:`CrossCheckError`.
        """
        for k, row in enumerate(gen.rows):
            trimmed_ints = all(
                type(col) is tuple and col[-1:] != (0,) and all(type(c) is int for c in col)
                for col in row
            )
            if len(row) != k + 1 or not trimmed_ints:
                raise CrossCheckError(f"A_{k} is not {k + 1} trimmed columns of plain ints")
        if gen.rows[:1] != (((1,),),):
            raise CrossCheckError("A_0 is not 1")
        bad_k = recurrence_residuals(gen)
        if bad_k is not None:
            raise CrossCheckError(f"generating-polynomial residual nonzero at k={bad_k}")
        tables = cls(gen, derive_corrections(gen))
        pairs, derived = int_pairs(gen.kmax + 1), tables.pairs
        for k in range(1, gen.kmax + 2):
            if (pairs.u(k), pairs.v(k)) != (derived.u(k), derived.v(k)):
                raise CrossCheckError(
                    f"(u_{k}, v_{k}) = ({pairs.u(k)}, {pairs.v(k)}) disagrees with"
                    f" eps^{k} (U_{k}(eps), V_{k}(eps)) = ({derived.u(k)}, {derived.v(k)})"
                    f" at eps={gen.eps:+d}"
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


def _dumps(obj) -> str:  # the JSON style of every file padsum writes
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def bundle_text(tables: TableSet) -> str:
    """The bundle's one serialisation: ``tables --format json`` and the cache."""
    return _dumps(bundle_to_json(tables))


def bundle_from_text(text: str) -> TableSet:
    """Decode a bundle written by :func:`bundle_text`.

    Only ``eps`` and A are decoded, and A goes through :meth:`TableSet.checked`,
    so the result is exactly what a cold build returns.  Anything else
    raises ``ValueError``: text that does not parse (or nests too deep), a
    table that fails a check (named by it), or text that differs, byte for
    byte, from ``bundle_text`` of the checked tables (a ``1.0`` or ``true``
    for 1, another layout of the same data).
    """
    try:
        data = json.loads(text)
        rows = tuple(tuple(map(tuple, row)) for row in data["A"])
        tables = TableSet.checked(GenPolyTable(data["eps"], rows))
        if bundle_text(tables) != text:
            raise ValueError("it is not the encoding of its own tables")
    except (LookupError, TypeError, ValueError, RecursionError, CrossCheckError) as exc:
        raise ValueError(f"not a table bundle: {exc}") from None
    return tables
