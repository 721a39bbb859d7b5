"""Exact partial sums of factorial series, telescoping identities, and
p-adic verification of claimed infinite sums.

Every check here is exact: partial sums, boundary terms and closed-form
constants are all exact rationals, and an identity either has a zero
residual or the check fails loudly.  The only graded outcome is the p-adic
verdict, which asks whether the partial-sum error over the exact remainder
is a p-adic integer.  The finite checks, their sweeps and the p-adic error
profiles all read one step loop, :func:`_steps`, which builds a spec's
polynomials once at x = a/b as integer coefficient lists and takes each
step in integers, carrying the power of b beside them.  The p-adic
profiles map each step to its exact S_N and B_N through
:func:`partial_sums`.  The finite checks compare the step's integers
directly, so each N is one comparison, and a :class:`PartialSumResult`
is built only at a failure or for the records a caller asks for.  A
p-adic verdict walks a profile's errors and remainders in order and
stops at the first N that violates; where the error equals the
remainder, as at every N of a true claim, the quotient is 1 and that N
costs no gcd.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Container, Iterator, NamedTuple, Sequence

from .kernel import Record, _at_least, factorial, rising_block
# ConvergenceDomainError is re-exported: the checks below raise it
from .padic import ConvergenceDomainError, Prime, require_convergence
from .poly import RatPoly, _add_shifted, _exact_scalar, _horner, _sign
from .tables import TableSet


def _exact(value) -> Fraction | int:
    """``value`` as an int when its denominator is 1.  The only place that
    normalises; ``poly._exact_scalar`` is the type gate that rejects floats."""
    value = _exact_scalar(value)
    return value.numerator if value.denominator == 1 else value


class VerificationError(RuntimeError):
    """An identity that must hold exactly has a nonzero residual."""

    def __init__(self, message: str, result: "PartialSumResult | None" = None):
        super().__init__(message)
        self.result = result


class PartialSumResult(NamedTuple):
    """One checked instance of a finite summation identity.

    The invariant under test is value = rhs_constant + boundary, exactly;
    ``residual`` is the difference and must be zero.
    """

    n_terms: int
    value: Fraction
    rhs_constant: Fraction
    boundary: Fraction

    @property
    def residual(self) -> Fraction:
        return self.value - self.rhs_constant - self.boundary


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
        if k is not None:
            _at_least("k", k, 1)
        coeffs = tuple(_exact(c) for c in (coeffs if k is None else (0,) * (k - 1) + (1,)))
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


def _quotient(num: int, den: int) -> Fraction | int:
    """num / den exactly: an int when den is 1, else a Fraction."""
    return num if den == 1 else Fraction(num, den)


def _scaled(spec: SeriesSpec, tables: TableSet) -> tuple[int, tuple, tuple, int]:
    """(d, dP, dR, dV) for :func:`_steps`: the scale d = m b^K, the integer
    coefficient lists in n of d P(n; x) and d R(n; x), and the integer
    d sum_j C_j V_j(x).  Tables that do not fit the spec raise here."""
    _check_tables(spec, tables)
    a, b, order = spec.x.numerator, spec.x.denominator, spec.order
    m = lcm(*(c.denominator for c in spec.coeffs))
    terms = [(j, int(m * c)) for j, c in enumerate(spec.coeffs, 1) if c]

    def scaled_at_x(rows_of) -> int:
        # d sum_j C_j f_j(x), where rows_of(j) lists f_j's coefficients in x
        return sum(mc * c * a**l * b ** (order - l)
                   for j, mc in terms for l, c in enumerate(rows_of(j)) if c)

    # P_j(i; x) = i^j x^j + U_j(x): U_j(x) is a constant in i
    p_int = [scaled_at_x(lambda j: tables.corr.us[j - 1])] + [0] * order
    for j, mc in terms:
        p_int[j] += mc * a**j * b ** (order - j)
    # R_j = A_{j-1}: each of its rows, the coefficients in n of one power x^l
    r_int: list = []
    for j, mc in terms:
        for l, row in enumerate(tables.gen.rows[j - 1]):
            _add_shifted(r_int, row, mc * a**l * b ** (order - l))
    return m * b**order, tuple(p_int), tuple(r_int), scaled_at_x(lambda j: tables.corr.vs[j - 1])


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
    eps, a, b = spec.eps, spec.x.numerator, spec.x.denominator

    def steps() -> Iterator[tuple[int, ...]]:
        t, w, den, rhs = 0, 1, d, dv  # T_{N-1}, W_{N-1}, b^(N-1) d, b^(N-1) d V
        for n in range(1, n_max + 1):
            t = b * t + w * _horner(p_int, n - 1)
            w *= eps * n * a
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


class SweepRecords(list):
    """The :class:`PartialSumResult` records a sweep keeps, and in
    ``checked`` the last N it compared: it checked every N up to that one."""

    checked = 0


def _failure(result: PartialSumResult, what: str, where: str) -> VerificationError:
    """The error for a record whose residual is nonzero, naming its operands."""
    return VerificationError(f"{what} residual {result.residual} != 0 at {where}", result)


def _checked_sweep(
    spec: SeriesSpec, n_max: int, tables: TableSet, keep: Container[int], what: str, where: str
) -> SweepRecords:
    """The identity of :func:`_steps` at every N = 1..n_max, each checked
    exactly by one comparison of the integers of its step: times b^N d it
    reads

        b T_N - eps W_N (d R)(N) = b^N (d V).

    Raises on the first N where the two sides differ.  Only there, and at
    the N in ``keep``, whose records are returned, is a
    :class:`PartialSumResult` built, with its ``Fraction``s."""
    b = spec.x.denominator
    records, n = SweepRecords(), 0
    for n, t, r, rhs, den in _steps(spec, n_max, tables):
        failed = b * t - r != rhs
        if failed or n in keep:
            result = PartialSumResult(n, _quotient(t, den), _quotient(rhs, b * den),
                                      _quotient(r, b * den))
            if failed:
                raise _failure(result, what, f"{where} n={n}")
            records.append(result)
    records.checked = n
    return records


def finite_identity_sweep(
    k: int, eps: int, x: Fraction | int, n_max: int, tables: TableSet,
    keep: Container[int] | None = None,
) -> SweepRecords:
    """Check sum_{i<n} eps^i i! [i^k x^k + U_k(x)] x^i
    = V_k(x) + eps^(n-1) n! A_{k-1}(n; x) x^n exactly, for every
    n = 1..n_max, one integer comparison per n (see :func:`_checked_sweep`);
    raises on the first nonzero residual.  Returns the records of the n in
    ``keep``, by default every n, with ``checked``, the number of n it
    compared: ``keep=()`` checks every n and builds no record, and so no
    ``Fraction``, while the identity holds."""
    spec = SeriesSpec(eps=eps, x=x, k=k)
    return _checked_sweep(
        spec, n_max, tables, range(1, n_max + 1) if keep is None else keep,
        "finite identity", f"k={k} eps={eps:+d} x={spec.x}",
    )


def general_sum_check(spec: SeriesSpec, n: int, tables: TableSet) -> PartialSumResult:
    """Check the rational-combination identity

        sum_{i<n} eps^i i! P(i; x) x^i
            = sum_j C_j V_j(x) + eps^(n-1) n! x^n sum_j C_j A_{j-1}(n; x)

    exactly, by linearity of the single-power identity, at n and every
    smaller number of terms, on the steps that :func:`partial_sums` reads
    (see :func:`_checked_sweep`).  One record is built: the one at n, or
    at the first N that fails."""
    where = f"coeffs={spec.coeffs} eps={spec.eps:+d} x={spec.x}"
    return _checked_sweep(spec, n, tables, (n,), "general sum", where)[0]


class TelescopeSpec(Record):
    """Parameters of the general factorial telescoping identity.

    The n-th term is

        eps^n * prod_i ((mu_i n + nu_i)!)^lam_i
              * [prod_i block_i(n) * aux(n+1) * x^alpha - eps * aux(n)]
              * x^(alpha n + beta)

    where block_i(n) = ((mu_i n + nu_i + 1) ... (mu_i n + nu_i + mu_i))^lam_i,
    so the term equals G(n+1) - G(n) for the boundary function

        G(n) = eps^(n-1) * prod_i ((mu_i n + nu_i)!)^lam_i * aux(n)
               * x^(alpha n + beta)

    and partial sums collapse to boundary values.  Constraints: mu_i >= 1,
    mu_i + nu_i >= 1, lam_i >= 0 with at least one lam_i >= 1, alpha >= 1,
    beta >= 0, and aux has integer coefficients.  x is stored like
    ``SeriesSpec.x``: an int when its denominator is 1.
    """

    __slots__ = ("mu", "nu", "lam", "alpha", "beta", "eps", "x", "aux")

    def __init__(self, mu: tuple[int, ...], nu: tuple[int, ...], lam: tuple[int, ...],
                 alpha: int, beta: int, eps: int, x: Fraction | int, aux: RatPoly):
        self._set(tuple(mu), tuple(nu), tuple(lam), alpha, beta, eps, _exact(x), aux)
        if not (len(self.mu) == len(self.nu) == len(self.lam)) or not self.mu:
            raise ValueError("mu, nu, lam must be equal-length, nonempty")
        if any(m < 1 for m in self.mu):
            raise ValueError(f"every mu_i must be >= 1, got {self.mu}")
        if any(m + v < 1 for m, v in zip(self.mu, self.nu)):
            raise ValueError(f"every mu_i + nu_i must be >= 1, got {list(zip(self.mu, self.nu))}")
        if any(l < 0 for l in self.lam) or not any(self.lam):
            raise ValueError(f"lam_i >= 0 with at least one >= 1 required, got {self.lam}")
        _at_least("alpha", self.alpha, 1)
        _at_least("beta", self.beta, 0)
        _sign(self.eps)
        if not isinstance(self.aux, RatPoly):
            raise TypeError("aux must be a RatPoly")
        if not self.aux.is_integral():
            raise ValueError(f"aux must have integer coefficients, got {self.aux!r}")

    def factorial_product(self, n: int) -> int:
        prod = 1
        for m, v, l in zip(self.mu, self.nu, self.lam):
            prod *= factorial(m * n + v) ** l
        return prod

    def block_product(self, n: int) -> int:
        prod = 1
        for m, v, l in zip(self.mu, self.nu, self.lam):
            prod *= rising_block(m * n + v, m, l)
        return prod

    def term(self, n: int) -> Fraction | int:
        bracket = (
            self.block_product(n) * self.aux(n + 1) * self.x**self.alpha
            - self.eps * self.aux(n)
        )
        power = self.x ** (self.alpha * n + self.beta)
        return self.eps**n * self.factorial_product(n) * bracket * power

    def boundary(self, n: int) -> Fraction | int:
        """G(n): the value partial sums telescope to."""
        power = self.x ** (self.alpha * n + self.beta)
        return self.eps ** (n - 1) * self.factorial_product(n) * self.aux(n) * power

    def rhs_constant(self) -> Fraction:
        return -self.boundary(1)


def telescope_sweep(spec: TelescopeSpec, n_max: int) -> list[PartialSumResult]:
    """Check sum_{n=1}^{N-1} term(n) = -G(1) + G(N) exactly at every
    N = 1..n_max with one incremental sum.

    N = 1 is the empty sum, which the boundary values must already balance.
    """
    _at_least("n_max", n_max, 1)
    rhs = spec.rhs_constant()
    results: list[PartialSumResult] = []
    partial = 0
    for n in range(1, n_max + 1):
        result = PartialSumResult(n, partial, rhs, spec.boundary(n))
        if result.residual != 0:
            raise _failure(result, "telescoping", f"N={n} for {spec}")
        results.append(result)
        partial += spec.term(n)
    return results


def telescope_check(spec: TelescopeSpec, n_terms: int) -> PartialSumResult:
    """The telescoping identity at N = n_terms: the last entry of its sweep."""
    return telescope_sweep(spec, n_terms)[-1]


def random_telescope_spec(rng: random.Random) -> TelescopeSpec:
    """Sample a valid spec within the documented verification bounds:
    at most two factorial factors, mu <= 3, |nu| <= 2, lam <= 2, alpha <= 2,
    beta <= 1, deg aux <= 2 with small integer coefficients, |x| <= 2."""
    count = rng.randint(1, 2)
    mu, nu, lam = [], [], []
    for _ in range(count):
        m = rng.randint(1, 3)
        mu.append(m)
        nu.append(rng.randint(max(1 - m, -2), 2))
        lam.append(rng.randint(0, 2))
    if not any(lam):
        lam[rng.randrange(count)] = rng.randint(1, 2)
    degree = rng.randint(0, 2)
    coeffs = [rng.randint(-3, 3) for _ in range(degree + 1)]
    coeffs[-1] = rng.choice([c for c in range(-3, 4) if c != 0])
    x = rng.choice(
        [Fraction(v) for v in (-2, -1, 1, 2)]
        + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]
    )
    return TelescopeSpec(
        mu=tuple(mu),
        nu=tuple(nu),
        lam=tuple(lam),
        alpha=rng.randint(1, 2),
        beta=rng.randint(0, 1),
        eps=rng.choice((1, -1)),
        x=x,
        aux=RatPoly(coeffs),
    )


def construct_telescope_poly(
    spec: TelescopeSpec, t: Fraction | int, primes: Sequence[Prime] = ()
) -> RatPoly:
    """The summand polynomial P(n; t) the telescoping family generates:

        P(n; t) = prod_i block_i(n) * aux(n+1) * t^alpha - eps * aux(n)

    as a polynomial in n.  For t != 0 its degree is
    deg(aux) + sum_i mu_i * lam_i.  Any supplied primes gate t against the
    convergence domain; the first failing prime raises.
    """
    t = _exact(t)
    mu_lambda_sum = sum(m * l for m, l in zip(spec.mu, spec.lam))
    for p in primes:
        require_convergence(t, p, spec.alpha, mu_lambda_sum)
    block = RatPoly.one()
    for m, v, l in zip(spec.mu, spec.nu, spec.lam):
        for s in range(1, m + 1):
            block = block * RatPoly((v + s, m)) ** l
    return block * spec.aux.shift(1) * t**spec.alpha - spec.eps * spec.aux


class SeriesErrorProfile(NamedTuple):
    """Exact partial-sum errors of a series against a claimed sum.

    errors[N-1] = S_N - claimed and remainders[N-1] = B_N, the exact
    remainder, for N = 1..n_max, both read from :func:`partial_sums`, on
    the steps the finite checks compare.  The profile derives nothing from
    them: it does not depend on a prime, so one profile serves every
    prime's verdict, and a shifted claim only subtracts its delta from the
    errors.
    """

    spec: SeriesSpec
    claimed: Fraction | int
    errors: tuple[Fraction | int, ...]
    remainders: tuple[Fraction | int, ...]

    def shifted_claim(self, delta: Fraction | int) -> "SeriesErrorProfile":
        delta = _exact_scalar(delta)
        return self._replace(claimed=self.claimed + delta,
                             errors=tuple(e - delta for e in self.errors))


def series_error_profile(
    spec: SeriesSpec, claimed: Fraction | int, n_max: int, tables: TableSet
) -> SeriesErrorProfile:
    """Partial-sum errors and remainders for N = 1..n_max, in one pass over
    :func:`partial_sums`; raises for n_max < 1, where there would be nothing
    to check."""
    claimed = _exact_scalar(claimed)
    errors, remainders = [], []
    for _, s, b in partial_sums(spec, n_max, tables):
        errors.append(s - claimed)
        remainders.append(b)
    return SeriesErrorProfile(spec, claimed, tuple(errors), tuple(remainders))


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
    0.  The verdict walks the pairs (err, B) = (S_N - claimed, B_N) in
    order and stops at the first violation, its ``first_violation``:

    - err == B: the quotient is 1, a p-adic unit, so N passes with no gcd
      (this holds at every N of a true claim);
    - B == 0 and err != 0: a violation;
    - otherwise: q_N = den // gcd(num, den) on the cross products
      num = err's numerator times B's denominator and den = err's
      denominator times B's numerator, the denominator of err / B up to
      sign; N is a violation when p divides q_N.

    A profile is prime-independent, so one profile serves every prime.

    Outside the series' convergence domain, v_p(x) <= -1/(p-1), v_p(B_N)
    stops growing and no claim could be rejected, so the check refuses to
    run there: :func:`require_convergence` raises :class:`ConvergenceDomainError`.
    """
    require_convergence(profile.spec.x, p, alpha=1, mu_lambda_sum=1)  # n! x^n
    for n, (err, b) in enumerate(zip(profile.errors, profile.remainders), 1):
        if err == b:
            continue
        if b == 0:
            return PadicVerdict(False, n)
        num, den = err.numerator * b.denominator, err.denominator * b.numerator
        if den // gcd(num, den) % p == 0:
            return PadicVerdict(False, n)
    return PadicVerdict(True, None)
