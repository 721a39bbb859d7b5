"""``verify finite``: the finite identities, with zero residuals, on the
grid of k, both signs and ``FINITE_X_SET``."""

from __future__ import annotations

from fractions import Fraction

from .. import cli, series

FINITE_X_SET = (
    Fraction(-3),
    Fraction(-2),
    Fraction(-1),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-2, 3),
)


def run(args) -> tuple[bool, list[str], list[dict]]:
    checks = sum(series.finite_identity_sweep(k, eps, x, args.nmax, tables)
                 for eps, tables, k, x in cli._grid(args.kmax, FINITE_X_SET))
    cli._expect(checks, 2 * args.kmax * len(FINITE_X_SET) * args.nmax)  # a check per N of a sweep
    line = (
        f"PASS finite: zero residual on {checks} identity checks"
        f" (k<={args.kmax}, eps=+-1, {len(FINITE_X_SET)} x values, n<={args.nmax})"
    )
    return True, [line], [{"check": "finite", "verdict": "PASS", "checks": checks}]
