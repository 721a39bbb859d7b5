"""Exact arithmetic for p-adic factorial series.

Generates the generating-polynomial, correction-polynomial and
integer-pair tables of the summation identity

    sum_{n>=0} eps^n n! [n^k x^k + U_k(x)] x^n = V_k(x)

by recurrence, cross-checks every table along an independent route, and
verifies the identities three ways: exact finite residuals, telescoping
boundary identities, and p-adic checks of partial-sum errors against the
exact remainder.

``import padsum`` exports only the names of the README's quick tour;
everything else is imported from its module (``padsum.tables``,
``padsum.series``, ...).
"""

from .padic import Prime
from .series import SeriesSpec, finite_identity_sweep, padic_sum_verify, series_error_profile
from .tables import TableSet, bell_numbers, int_pairs

__version__ = "0.1.0"
