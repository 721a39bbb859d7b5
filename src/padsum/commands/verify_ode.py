"""``verify ode``: the residuals of the two ODEs of sum n! x^n, with the
report of the first that fails."""

from __future__ import annotations

from .. import fps


def _ode_report(check: str, order: int, result: fps.OdeCheck) -> dict:
    return {
        "check": check,
        "params": {"order": order},
        "bad_degree": result.bad_degree,
        "artifacts": {str(d): str(v) for d, v in result.artifacts.items()},
        "verdict": "PASS" if result.ok else "FAIL",
    }


def run(args) -> tuple[bool, list[str], list[dict]]:
    nmin, nmax = 3, args.nmax  # argparse holds nmax >= nmin
    for order in range(nmin, nmax + 1):
        for which, check in (("first", fps.check_first_order_ode),
                             ("second", fps.check_second_order_ode)):
            result = check(order)
            if not result.ok:
                line = (f"FAIL ode: {which}-order residual at order {order},"
                        f" degree {result.bad_degree}")
                return False, [line], [_ode_report(f"ode-{which}", order, result)]
    line = (
        f"PASS ode: both residuals vanish through the stated degrees for"
        f" orders {nmin}..{nmax}; first-order artifact equals (N+1)!"
    )
    return True, [line], [{"check": "ode", "verdict": "PASS", "orders": [nmin, nmax]}]
