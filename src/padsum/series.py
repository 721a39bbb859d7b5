"""Exact partial sums of factorial series, and p-adic verification of
claimed infinite sums.  The telescoping identities are in ``telescope``.

Every check here is exact: partial sums, boundary terms and closed-form
constants are all exact rationals, and an identity either has a zero
residual or the check fails loudly.  The only graded outcome is the p-adic
verdict, which asks whether the partial-sum error over the exact remainder
is a p-adic integer.  A spec's polynomials are built once at x = a/b as
integer coefficient lists (:func:`_scaled`).  The finite checks and their
sweeps read one step loop over them, :func:`_steps`, which takes each
step in integers, carrying the power of b beside them; each N is one
comparison, and a :class:`PartialSumResult` is built only at a failure
or for the one record a caller reads: a sweep returns how far it checked,
and the check of a rational combination the record at its n.
:func:`partial_sums` maps the same steps to exact S_N and B_N.

A p-adic profile sums no series.  It proves the step identity
(n+1) x R(n+1) - eps R(n) = P(n) once, as a polynomial identity in n at
its x, which gives S_N = V + B_N at every N with V = -eps R(0).  So a
verdict needs only delta = V - claimed: delta = 0 passes at once, and
otherwise the verdict generates B_N in integers and stops at the first N
where p divides the denominator of delta / B_N.  Before either, a
verdict refuses a point outside the convergence domain |x|_p <= 1, where
p divides the denominator of x (:func:`padic.require_convergence`).
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from . import padic
from .kernel import (
    PartialSumResult,
    Record,
    VerificationError,
    _at_least,
    _exact,
    _exact_scalar,
    _failure,
    _horner,
    _quotient,
    _sign,
)

# read through series by the benchmark's tracer (telescope_sweep) and by the
# acceptance suite (TelescopeSpec, random_telescope_spec, telescope_check, telescope_sweep)
from .telescope import (  # noqa: F401
    TelescopeSpec,
    random_telescope_spec,
    telescope_check,
    telescope_sweep,
)

if TYPE_CHECKING:  # annotations only: series loads neither module, nor calls these
    from fractions import Fraction
    from typing import Iterator

    from .padic import Prime
    from .tables import TableSet


class SeriesSpec(Record):
    """The factorial power series sum_n eps^n n! P(n; x) x^n with the
    rational combination P(n; x) = sum_j C_j [n^j x^j + U_j(x)]
    (``coeffs`` = C_1..C_k, top coefficient nonzero).

    ``k`` is a constructor-only shorthand for the single power
    P(n; x) = n^k x^k + U_k(x): it sets C_k = 1 and every lower C_j = 0.
    x and the C_j are stored exactly, as ints when their denominator is 1,
    so integer data keeps all later arithmetic in ints.
    """

    __slots__ = ("eps", "x", "coeffs")

    def __init__(self, eps: int, x: Fraction | int, k: int | None = None,
                 coeffs: tuple[Fraction | int, ...] | None = None):
        _sign(eps)
        x = _exact(x)
        if (k is None) == (coeffs is None):
            raise ValueError("exactly one of k and coeffs must be given")
        if k is None:
            coeffs = tuple(map(_exact, coeffs))
        else:
            _at_least("k", k, 1)
            coeffs = (0,) * (k - 1) + (1,)
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("coeffs must be nonempty with nonzero top coefficient")
        self._set(eps, x, coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def as_coeffs(self) -> tuple[Fraction | int, ...]:
        return self.coeffs

    def claimed_sum(self, tables: TableSet) -> Fraction | int:
        """The closed-form value sum_j C_j V_j(x)."""
        _check_tables(self, tables)
        return sum(c * _horner(v, self.x) for c, v in zip(self.coeffs, tables.corr.vs) if c)


def _check_tables(spec: SeriesSpec, tables: TableSet) -> None:
    """ValueError unless ``tables`` have the spec's sign (U, V depend on it) and order."""
    if tables.eps != spec.eps:
        raise ValueError(f"tables are for eps={tables.eps:+d}, the series has eps={spec.eps:+d}")
    if tables.corr.kmax < spec.order:
        raise ValueError(f"tables cover k <= {tables.corr.kmax}, need {spec.order}")


def _scaled(spec: SeriesSpec, tables: TableSet) -> tuple[int, tuple, tuple, int]:
    """(d, dP, dR, dV) for :func:`_steps` and :func:`series_error_profile`:
    the scale d = m b^K, the integer coefficient lists in n of d P(n; x)
    and d R(n; x), and the integer d sum_j C_j V_j(x).  Each is read off
    the tables through the weights a^l b^(K-l), l = 0..K, computed once.
    Tables that do not fit the spec raise here."""
    _check_tables(spec, tables)
    a, b, coeffs = spec.x.numerator, spec.x.denominator, spec.coeffs
    m, order = lcm(*[c.denominator for c in coeffs]), len(coeffs)
    weights = [a**l * b ** (order - l) for l in range(order + 1)]
    us, vs, rows = tables.corr.us, tables.corr.vs, tables.gen.rows
    p_int, dv = [0] * (order + 1), 0
    columns, scales = [], []  # the columns in n of each R_j = A_{j-1}, and their scales
    for j, c in enumerate(coeffs, 1):
        if c:
            mc = int(m * c)
            # P_j(i; x) = i^j x^j + U_j(x): U_j(x) is a constant in i
            p_int[0] += mc * sum(map(mul, us[j - 1], weights))
            p_int[j] += mc * weights[j]
            dv += mc * sum(map(mul, vs[j - 1], weights))
            columns += rows[j - 1]  # one column per power x^l, l < j
            scales += [mc * w for w in weights[:j]]
    r_int = [sum(map(mul, ith, scales)) for ith in zip_longest(*columns, fillvalue=0)]
    return weights[0] * m, tuple(p_int), tuple(r_int), dv


def _steps(spec: SeriesSpec, n_max: int, tables: TableSet) -> Iterator[tuple[int, ...]]:
    """The integers of the identity

        S_N = sum_j C_j V_j(x) + B_N,  B_N = eps^(N-1) N! x^N R(N),

    for N = 1..n_max, with S_N = sum_{i<N} eps^i i! P(i; x) x^i and
    R(n) = sum_j C_j A_{j-1}(n; x).  At x = a/b both P and R are scaled by
    one d = m b^K, where K is the spec's order and m the least common
    denominator of the C_j, and summed straight from the tables' integer
    rows: a row is the coefficient list of one power x^l (l <= K), so
    d f = sum_j (m C_j) sum_l a^l b^(K-l) row_l for each f = sum_j C_j f_j.
    U_j and V_j have one row each, in x alone, and so give one integer
    each; P_j(i; x) = i^j x^j + U_j(x) adds i^j at x^j, and the rows of
    R_j are those of A_{j-1}.  With the integer weights W_n = eps^n n! a^n
    each step is

        T_N = b T_{N-1} + W_{N-1} (d P)(N-1),   W_N = eps N a W_{N-1},

    so that S_N = T_N / (b^(N-1) d) and B_N = eps W_N (d R)(N) / (b^N d).
    Each step yields (N, T_N, eps W_N (d R)(N), b^N (d V), b^(N-1) d),
    the last two carried beside T_N and W_N.  n_max < 1 and tables that
    do not fit the spec raise here, before the first step.
    """
    _at_least("n", n_max, 1)
    d, p_int, r_int, dv = _scaled(spec, tables)
    eps, ea, b = spec.eps, spec.eps * spec.x.numerator, spec.x.denominator

    def steps() -> Iterator[tuple[int, ...]]:
        t, w, den, rhs = 0, 1, d, dv  # T_{N-1}, W_{N-1}, b^(N-1) d, b^(N-1) d V
        for n in range(1, n_max + 1):
            t = b * t + w * _horner(p_int, n - 1)
            w *= ea * n
            rhs *= b
            yield n, t, eps * w * _horner(r_int, n), rhs, den
            den *= b

    return steps()


def partial_sums(
    spec: SeriesSpec, n_max: int, tables: TableSet
) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(N, S_N, B_N) for N = 1..n_max, one step of :func:`_steps` each:
    S_N = T_N / (b^(N-1) d) is the partial sum and
    B_N = eps W_N (d R)(N) / (b^N d) the exact remainder.  They are built
    as ``Fraction``s only where the denominator is not 1, so an integer x
    with integer C_j yields ints.  n_max < 1 and tables that do not fit
    the spec raise here, before the first step.
    """
    b = spec.x.denominator
    return ((n, _quotient(t, den), _quotient(r, b * den))
            for n, t, r, _, den in _steps(spec, n_max, tables))


def _result(b: int, n: int, t: int, r: int, rhs: int, den: int) -> PartialSumResult:
    """The record, with its ``Fraction``s, of a step of :func:`_steps` at x = a/b."""
    return PartialSumResult(n, _quotient(t, den), _quotient(rhs, b * den), _quotient(r, b * den))


def _checked_sweep(
    spec: SeriesSpec, n_max: int, tables: TableSet, what: str, where: str
) -> tuple[int, ...]:
    """The identity of :func:`_steps` at every N = 1..n_max, each checked
    exactly by one comparison of the integers of its step: times b^N d it
    reads

        b T_N - eps W_N (d R)(N) = b^N (d V).

    Raises on the first N where the two sides differ, with the one record
    it builds (:func:`_result`) and the label ``where.format(spec)``, both
    made only then; otherwise returns the integers of the last step,
    (n_max, T, eps W (d R), b^N (d V), b^(N-1) d), and builds no record."""
    b = spec.x.denominator
    for n, t, r, rhs, den in _steps(spec, n_max, tables):
        if b * t - r != rhs:
            raise _failure(_result(b, n, t, r, rhs, den), what, f"{where.format(spec)} n={n}")
    return n, t, r, rhs, den


def finite_identity_sweep(
    k: int, eps: int, x: Fraction | int, n_max: int, tables: TableSet
) -> int:
    """Check sum_{i<n} eps^i i! [i^k x^k + U_k(x)] x^i
    = V_k(x) + eps^(n-1) n! A_{k-1}(n; x) x^n exactly, for every
    n = 1..n_max, one integer comparison per n (see :func:`_checked_sweep`);
    raises on the first nonzero residual.  Returns the number of n it
    compared, and builds no record, so no ``Fraction``, while it holds."""
    spec = SeriesSpec(eps=eps, x=x, k=k)
    where = "k={0.order} eps={0.eps:+d} x={0.x}"
    return _checked_sweep(spec, n_max, tables, "finite identity", where)[0]


def general_sum_check(spec: SeriesSpec, n: int, tables: TableSet) -> PartialSumResult:
    """Check the rational-combination identity

        sum_{i<n} eps^i i! P(i; x) x^i
            = sum_j C_j V_j(x) + eps^(n-1) n! x^n sum_j C_j A_{j-1}(n; x)

    exactly, by linearity of the single-power identity, at n and every
    smaller number of terms, on the steps that :func:`partial_sums` reads
    (see :func:`_checked_sweep`).  One record is built: the one at n, or
    at the first N that fails."""
    where = "coeffs={0.coeffs} eps={0.eps:+d} x={0.x}"
    return _result(spec.x.denominator, *_checked_sweep(spec, n, tables, "general sum", where))


class SeriesErrorProfile(NamedTuple):
    """A claimed sum against the sum that a series' proved step identity gives.

    :func:`series_error_profile` proves the step identity at the spec's x,
    so that S_N = V + B_N at every N, with V = ``value``, the sum the A rows
    give.  The profile keeps the claim, V, ``n_max``, and the scale d and
    the integer coefficient list ``dr`` of d R(n; x), from which
    :meth:`boundaries` generates the exact remainders

        B_N = eps W_N (d R)(N) / (b^N d),  W_N = eps^N N! a^N,  x = a/b,

    on demand; it stores nothing per N.  ``remainders`` (B_N) and
    ``errors`` (S_N - claimed = V - claimed + B_N), for N = 1..n_max, are
    derived tuples.  A profile does not depend on a prime, so one profile
    serves every prime's verdict, and a shifted claim changes only
    ``claimed``.
    """

    spec: SeriesSpec
    claimed: Fraction | int
    value: Fraction | int
    n_max: int
    scale: int
    dr: tuple[int, ...]

    def shifted_claim(self, delta: Fraction | int) -> "SeriesErrorProfile":
        return self._replace(claimed=self.claimed + _exact_scalar(delta))

    def boundaries(self) -> Iterator[tuple[int, int, int]]:
        """(N, num, den) with B_N = num / den, in integers, for N = 1..n_max."""
        eps, a, b = self.spec.eps, self.spec.x.numerator, self.spec.x.denominator
        w, den = 1, self.scale
        for n in range(1, self.n_max + 1):
            w *= eps * n * a
            den *= b
            yield n, eps * w * _horner(self.dr, n), den

    @property
    def remainders(self) -> tuple[Fraction | int, ...]:
        return tuple(_quotient(num, den) for _, num, den in self.boundaries())

    @property
    def errors(self) -> tuple[Fraction | int, ...]:
        gap = self.value - self.claimed
        return tuple(gap + remainder for remainder in self.remainders)


def series_error_profile(
    spec: SeriesSpec, claimed: Fraction | int, n_max: int, tables: TableSet
) -> SeriesErrorProfile:
    """The profile of ``claimed`` for N = 1..n_max, once the step identity

        (n+1) x R(n+1; x) - eps R(n; x) = P(n; x)

    holds as a polynomial identity in n at the spec's x = a/b.  On the
    integer lists of :func:`_scaled` it reads Q(n) = 0, with

        Q(n) = (n+1) a (d R)(n+1) - eps b (d R)(n) - b (d P)(n),

    a polynomial of degree at most max(len(dR), len(dP) - 1), so it is zero
    once it is zero at that many consecutive n plus one.  Summed over
    i < N it gives S_N - B_N = -B_0, so S_N = V + B_N at every N with
    V = -eps R(0; x).  A nonzero Q raises :class:`VerificationError` at the
    least n where it is nonzero; n_max < 1 and tables that do not fit the
    spec raise ``ValueError``.
    """
    claimed = _exact_scalar(claimed)
    _at_least("n", n_max, 1)
    d, p_int, r_int, _ = _scaled(spec, tables)
    eps, a, b = spec.eps, spec.x.numerator, spec.x.denominator
    for n in range(max(len(r_int) + 1, len(p_int))):  # deg Q + 1 points
        residual = ((n + 1) * a * _horner(r_int, n + 1) - eps * b * _horner(r_int, n)
                    - b * _horner(p_int, n))
        if residual:
            raise VerificationError(
                f"step identity residual {_quotient(residual, b * d)} != 0"
                f" at coeffs={spec.coeffs} eps={eps:+d} x={spec.x} n={n}")
    value = _quotient(-eps * r_int[0], d)
    return SeriesErrorProfile(spec, claimed, value, n_max, d, tuple(r_int))


class PadicVerdict(NamedTuple):
    """Outcome of the p-adic check of a claimed sum at one prime, for
    every N of its profile.

    PASS means (S_N - claimed) / B_N was a p-adic integer, that is
    v_p(S_N - claimed) >= v_p(B_N), at every N = 1..n_max.  Inside the
    convergence domain v_p(B_N) grows without bound, so a wrong claim must
    eventually fail.
    """

    passed: bool
    first_violation: int | None


def padic_sum_verify(profile: SeriesErrorProfile, p: Prime) -> PadicVerdict:
    """Verify the profile's claimed sum p-adically: at every N = 1..n_max
    of the profile, the error S_N - claimed over the exact remainder B_N
    must have no p in its denominator, and where B_N = 0 the error must be
    0.

    The profile's step identity gives S_N - claimed = B_N + delta at every
    N, with delta = V - claimed, so the quotient is 1 + delta / B_N:

    - delta = 0: every quotient is 1, a p-adic unit, and the verdict is
      PASS at once;
    - otherwise the verdict walks N = 1..n_max over the profile's
      :meth:`~SeriesErrorProfile.boundaries`, in integers, and stops at
      the first violation, its ``first_violation``: B_N = 0, or p dividing
      the denominator of delta / B_N, den // gcd(num, den) on the integer
      cross products num and den.  No ``Fraction`` is built.  A walk that
      ends anywhere but at n_max with no violation raises
      :class:`VerificationError` ``checked <got> of <n_max>``.

    A profile is prime-independent, so one profile serves every prime.

    Outside the series' convergence domain |x|_p <= 1, where p divides the
    denominator of x, v_p(B_N) stops growing and no claim could be
    rejected, so the check refuses to run there:
    :func:`padic.require_convergence` raises
    :class:`padic.ConvergenceDomainError`.
    """
    padic.require_convergence(profile.spec.x, p)
    value, claimed = profile.value, profile.claimed
    top = value.numerator * claimed.denominator - claimed.numerator * value.denominator
    if top == 0:
        return PadicVerdict(True, None)
    bottom = value.denominator * claimed.denominator  # delta = top / bottom
    n = 0
    for n, num, den in profile.boundaries():
        if num == 0:
            return PadicVerdict(False, n)
        q = bottom * num  # delta / B_N = top den / q
        if q // gcd(top * den, q) % p == 0:
            return PadicVerdict(False, n)
    if n != profile.n_max:
        raise VerificationError(f"checked {n} of {profile.n_max}")
    return PadicVerdict(True, None)
