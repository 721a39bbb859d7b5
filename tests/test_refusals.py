"""Every refusal of the library, pinned to its exception type and full message.

The floor refusals share one wording, ``{name} must be >= {floor}, got
{value}``; the others keep wordings of their own.
"""

import pytest

from padsum.fps import factorial_series, first_order_residual, second_order_residual
from padsum.kernel import digit_sum, rising_block
from padsum.padic import PadicApprox, Prime, Valuation, expand, val_factorial
from padsum.poly import RatPoly
from padsum.series import (
    SeriesSpec,
    TelescopeSpec,
    finite_identity_sweep,
    general_sum_check,
    partial_sums,
    telescope_sweep,
)
from padsum.tables import (
    TableSet,
    aux_poly,
    bell_numbers,
    corrections_by_recurrence,
    diagonal_closed_form,
    eps_split,
    gen_poly_table,
    int_pairs,
    linear_closed_form,
)


def telescope(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, aux=RatPoly.one()):
    return TelescopeSpec(mu, nu, lam, alpha, beta, 1, 1, aux)


REFUSALS = {
    # the floors
    "rising_block width": (lambda: rising_block(0, 0, 1), ValueError, "width must be >= 1, got 0"),
    "rising_block power": (lambda: rising_block(0, 1, -1), ValueError, "power must be >= 0, got -1"),
    "digit_sum base": (lambda: digit_sum(5, 1), ValueError, "base must be >= 2, got 1"),
    "monomial": (lambda: RatPoly.monomial(-1), ValueError, "power must be >= 0, got -1"),
    "pow": (lambda: RatPoly.one() ** -2, ValueError, "exponent must be >= 0, got -2"),
    "expand": (lambda: expand(3, Prime(5), 0), ValueError, "precision must be >= 1, got 0"),
    "partial_sums": (lambda: partial_sums(SeriesSpec(1, 1, k=1), 0, TableSet.build(1, 1)),
                     ValueError, "n must be >= 1, got 0"),
    "finite_identity_sweep": (lambda: finite_identity_sweep(1, 1, 1, 0, TableSet.build(1, 1)),
                              ValueError, "n must be >= 1, got 0"),
    "general_sum_check": (lambda: general_sum_check(SeriesSpec(1, 1, k=1), 0,
                                                    TableSet.build(1, 1)),
                          ValueError, "n must be >= 1, got 0"),
    "SeriesSpec k": (lambda: SeriesSpec(1, 1, k=0), ValueError, "k must be >= 1, got 0"),
    "TelescopeSpec alpha": (lambda: telescope(alpha=0), ValueError, "alpha must be >= 1, got 0"),
    "TelescopeSpec beta": (lambda: telescope(beta=-1), ValueError, "beta must be >= 0, got -1"),
    "telescope_sweep": (lambda: telescope_sweep(telescope(), 0),
                        ValueError, "n_max must be >= 1, got 0"),
    "gen_poly_table": (lambda: gen_poly_table(-1, 1), ValueError, "kmax must be >= 0, got -1"),
    "corrections_by_recurrence": (lambda: corrections_by_recurrence(0, 1),
                                  ValueError, "kmax must be >= 1, got 0"),
    "int_pairs": (lambda: int_pairs(0), ValueError, "kmax must be >= 1, got 0"),
    "aux_poly": (lambda: aux_poly(0), ValueError, "k must be >= 1, got 0"),
    "bell_numbers": (lambda: bell_numbers(-1), ValueError, "kmax must be >= 0, got -1"),
    "diagonal_closed_form": (lambda: diagonal_closed_form(0), ValueError, "k must be >= 1, got 0"),
    "linear_closed_form": (lambda: linear_closed_form(0, 1), ValueError, "k must be >= 1, got 0"),
    "factorial_series": (lambda: factorial_series(RatPoly.one(), -1),
                         ValueError, "order must be >= 0, got -1"),
    "first_order_residual": (lambda: first_order_residual(1), ValueError, "order must be >= 2, got 1"),
    "second_order_residual": (lambda: second_order_residual(2),
                              ValueError, "order must be >= 3, got 2"),
    # the refusals worded otherwise
    "digit_sum n": (lambda: digit_sum(-1, 2), ValueError, "digit_sum needs n >= 0, got -1"),
    "val_factorial": (lambda: val_factorial(-1, Prime(5)),
                      ValueError, "factorial valuation needs n >= 0, got -1"),
    "Valuation": (lambda: Valuation(1.5), TypeError, "finite valuation must be an int, got 1.5"),
    "PadicApprox": (lambda: PadicApprox(Prime(5), 0, ()), ValueError, "at least one digit is required"),
    "TelescopeSpec lengths": (lambda: telescope(nu=(0, 0)),
                              ValueError, "mu, nu, lam must be equal-length, nonempty"),
    "TelescopeSpec aux": (lambda: telescope(aux=1), TypeError, "aux must be a RatPoly"),
    "IntPairTable.u": (lambda: int_pairs(3).u(4), IndexError, "k must be in 1..3, got 4"),
    "eps_split": (lambda: eps_split(gen_poly_table(2, -1).poly(2), gen_poly_table(2, 1).poly(2)),
                  ValueError, "expected a (+1)-run and a (-1)-run, in that order"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_type_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
