"""``verify finite``: the finite identities, with zero residuals, on the
grid of k, both signs and ``cli.FINITE_X_SET``."""

from __future__ import annotations

from .. import cli, series
from ..kernel import VerificationError


def run(args) -> tuple[bool, list[str], list[dict]]:
    checks = 0
    for eps, tables, k, x in cli._grid(args.kmax, cli.FINITE_X_SET):
        try:
            checks += series.finite_identity_sweep(k, eps, x, args.nmax, tables, keep=()).checked
        except VerificationError as exc:
            return cli._failed("finite", "finite", exc)
    line = (
        f"PASS finite: zero residual on {checks} identity checks"
        f" (k<={args.kmax}, eps=+-1, {len(cli.FINITE_X_SET)} x values, n<={args.nmax})"
    )
    return True, [line], [{"check": "finite", "verdict": "PASS", "checks": checks}]
