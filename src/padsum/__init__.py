"""Exact arithmetic for p-adic factorial series.

Generates the generating-polynomial, correction-polynomial and
integer-pair tables of the summation identity

    sum_{n>=0} eps^n n! [n^k x^k + U_k(x)] x^n = V_k(x)

by recurrence, cross-checks every table along an independent route, and
verifies the identities three ways: exact finite residuals, telescoping
boundary identities, and p-adic checks of partial-sum errors against the
exact remainder.
"""

from .fps import (
    OdeCheck,
    apply_diff_operator,
    check_first_order_ode,
    check_second_order_ode,
    factorial_series,
    first_order_residual,
    second_order_residual,
)
from .kernel import binomial, digit_sum, factorial, rising_block
from .padic import (
    ConvergenceParams,
    PadicApprox,
    Prime,
    Valuation,
    ValuationProfile,
    convergence_threshold,
    expand,
    in_convergence_domain,
    padic_norm,
    term_val_profile,
    val_factorial,
    val_int,
    val_rat,
)
from .poly import GenPoly, RatPoly
from .series import (
    ConvergenceDomainError,
    PadicVerdict,
    PartialSumResult,
    SeriesErrorProfile,
    SeriesSpec,
    TelescopeSpec,
    VerificationError,
    construct_telescope_poly,
    finite_identity_check,
    finite_identity_sweep,
    general_sum_check,
    padic_sum_verify,
    partial_sums,
    power_sum,
    power_sum_via_recurrence,
    random_telescope_spec,
    series_error_profile,
    telescope_check,
    telescope_sweep,
)
from .tables import (
    AuxSolution,
    CorrectionPolys,
    CrossCheckError,
    GenPolyTable,
    IntPairTable,
    RecurrenceReport,
    TableSet,
    aux_poly,
    bell_numbers,
    closed_forms,
    corrections_by_recurrence,
    derive_corrections,
    diagonal_closed_form,
    eps_split,
    gen_poly_table,
    int_pairs,
    linear_closed_form,
    recurrence_residuals,
    render_symbolic,
    sequence_slice,
)

__version__ = "0.1.0"
