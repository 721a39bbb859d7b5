"""Factorial telescoping identities: sums that collapse to boundary values
and read no table.

A :class:`TelescopeSpec` fixes a boundary function G, and its n-th term is
G(n+1) - G(n), so every partial sum from n = 1 telescopes to G(N) - G(1).
The sweep's steps are one step loop, :func:`_partials`, which yields each
partial sum beside its boundary value; :func:`telescope_sweep` checks each
step exactly, one comparison each, and returns the record of the last
step alone.  At x = a/b each term and boundary value is built in integers
(the powers of a and b, the factorial and block products, and ``aux``
through ``kernel._horner``) and divided once, by ``kernel._quotient``, so
a sweep at an integer x handles only ints.  ``RatPoly`` and ``Fraction``
are reached through the ``poly`` module, which loads at its first use, so
``series``, which binds this module's names, does not execute ``poly``.
The module takes no valuation and gates no point: each identity it checks
is a finite one, exact at every x.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import poly as polymod  # loads at its first attribute access
from .kernel import (
    PartialSumResult,
    Record,
    _at_least,
    _exact,
    _failure,
    _horner,
    _quotient,
    _sign,
    factorial,
    rising_block,
)

if TYPE_CHECKING:  # annotations only
    import random
    from fractions import Fraction
    from typing import Iterator

    from .poly import RatPoly


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
        if not isinstance(self.aux, polymod.RatPoly):
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
        """G(n+1) - G(n): at x = a/b, one integer over b^(alpha (n+1) + beta)."""
        a, b, alpha, aux = self.x.numerator, self.x.denominator, self.alpha, self.aux.coeffs
        power = alpha * n + self.beta
        bracket = (self.block_product(n) * _horner(aux, n + 1) * a**alpha
                   - self.eps * _horner(aux, n) * b**alpha)
        # eps^n as eps^(n % 2), an int for every n since eps^2 = 1
        return _quotient(self.eps ** (n % 2) * self.factorial_product(n) * bracket * a**power,
                         b ** (power + alpha))

    def boundary(self, n: int) -> Fraction | int:
        """G(n), the value partial sums telescope to: at x = a/b, one integer
        over b^(alpha n + beta)."""
        power = self.alpha * n + self.beta
        value = self.factorial_product(n) * _horner(self.aux.coeffs, n) * self.x.numerator**power
        return _quotient(self.eps ** ((n - 1) % 2) * value, self.x.denominator**power)

    def rhs_constant(self) -> Fraction | int:
        return -self.boundary(1)


def _partials(
    spec: TelescopeSpec, n_max: int
) -> Iterator[tuple[int, Fraction | int, Fraction | int]]:
    """(N, sum_{n=1}^{N-1} term(n), G(N)) for N = 1..n_max, with one
    incremental sum: N = 1 is the empty sum, and no term past N = n_max is
    computed."""
    partial = 0
    for n in range(1, n_max + 1):
        if n > 1:
            partial += spec.term(n - 1)
        yield n, partial, spec.boundary(n)


def telescope_sweep(spec: TelescopeSpec, n_max: int) -> PartialSumResult:
    """Check sum_{n=1}^{N-1} term(n) = -G(1) + G(N) exactly at each step
    of :func:`_partials`, N = 1..n_max, one subtraction per N (at N = 1
    the boundary values must already balance).  The one record built is
    the one at the last step, or at the first N that fails."""
    _at_least("n_max", n_max, 1)
    rhs = spec.rhs_constant()
    for n, partial, boundary in _partials(spec, n_max):
        if partial - boundary != rhs:
            raise _failure(PartialSumResult(n, partial, rhs, boundary),
                           "telescoping", f"N={n} for {spec}")
    return PartialSumResult(n, partial, rhs, boundary)


telescope_check = telescope_sweep  # the name the acceptance criteria read


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
    fraction = polymod.Fraction
    x = rng.choice(
        [fraction(v) for v in (-2, -1, 1, 2)]
        + [fraction(1, 2), fraction(-1, 2), fraction(3, 2), fraction(-3, 2)]
    )
    return TelescopeSpec(
        mu=tuple(mu),
        nu=tuple(nu),
        lam=tuple(lam),
        alpha=rng.randint(1, 2),
        beta=rng.randint(0, 1),
        eps=rng.choice((1, -1)),
        x=x,
        aux=polymod.RatPoly(coeffs),
    )

