"""``verify padic``: claimed sums against their exact p-adic remainders,
on the grid of closed-form claims or for one ``--claim``, with the report
of each verdict."""

from __future__ import annotations

from .. import cli, padic, series
from .. import tables as tablemod


def _padic_report(
    verdict: series.PadicVerdict,
    profile: series.SeriesErrorProfile,
    p: padic.Prime,
    precision: int,
) -> dict:
    """``verdict`` at p on ``profile``'s claim, with ``precision`` digits of its expansion."""
    return {
        "check": "padic-sum",
        "params": {"k": profile.spec.order, "eps": profile.spec.eps, "x": str(profile.spec.x)},
        "p": p,
        "n_max": profile.n_max,
        "first_violation": verdict.first_violation,
        "verdict": "PASS" if verdict.passed else "FAIL",
        "claimed": str(profile.claimed),
        "claimed_expansion": padic.expand(profile.claimed, p, precision).render(),
    }


def _require_domain(x_values, primes) -> None:
    """Refuse the first point outside a prime's convergence domain, before
    any table or profile is built, in the grid's order: x outer, p inner.
    ``series.padic_sum_verify`` gates each verdict the same way."""
    for x in x_values:
        for p in primes:
            padic.require_convergence(x, p)


def run(args) -> tuple[bool, list[str], list[dict]]:
    """The grid of closed-form claims, or with ``--claim`` the one claimed
    sum at ``--k``/``--eps``/``--x``; each mode refuses the other's flags."""
    if args.claim is not None:
        if args.kmax is not None:
            raise ValueError("--kmax does not apply to verify padic --claim; --k sizes its tables")
        if args.x_values is not None:
            raise ValueError("--x-values does not apply to verify padic --claim; --x is its point")
        return _padic_claim(args)
    stray = next((flag for flag in ("k", "eps", "x") if getattr(args, flag) is not None), None)
    if stray:
        raise ValueError(f"--{stray} applies only to verify padic --claim")
    if args.format == "csv":
        raise ValueError("--format csv applies only to verify padic --claim")
    kmax = 8 if args.kmax is None else args.kmax
    x_values = (1, -1, 2) if args.x_values is None else args.x_values
    _require_domain(x_values, args.primes)
    reports: list[dict] = []
    failures: list[str] = []
    for eps, tables, k, x in cli._grid(kmax, x_values):
        spec = series.SeriesSpec(eps=eps, x=x, k=k)
        claimed = spec.claimed_sum(tables)
        profile = series.series_error_profile(spec, claimed, args.nmax, tables)
        perturbed = profile.shifted_claim(1)
        for p in args.primes:
            verdict = series.padic_sum_verify(profile, p)
            wrong = series.padic_sum_verify(perturbed, p)
            report = _padic_report(verdict, profile, p, args.precision)
            report["perturbed_verdict"] = "PASS" if wrong.passed else "FAIL"
            reports.append(report)
            if not verdict.passed:
                failures.append(
                    f"FAIL padic: claim {claimed} for k={k} eps={eps:+d} x={x}"
                    f" p={p} violated at N={verdict.first_violation}"
                )
            if wrong.passed:
                # v_p(N!) = 0 for N < p: below p, only a point divisible by p shrinks B_N
                short = (f" (--nmax {args.nmax} < p = {p}: no N! up to N = {args.nmax}"
                         " is divisible by p)" if p > args.nmax else "")
                failures.append(
                    f"FAIL padic: perturbed claim {claimed + 1} for k={k}"
                    f" eps={eps:+d} x={x} p={p} was not rejected{short}"
                )
    total = 2 * kmax * len(x_values) * len(args.primes)  # a verdict per cell and prime
    cli._expect(len(reports), total)
    if failures:
        return False, failures, reports
    # no failure: every report's claim passed and its perturbation was rejected
    line = (
        f"PASS padic: {total}/{total} claims verified, {total}/{total}"
        f" perturbations rejected (k<={kmax}, x in {{{','.join(map(str, x_values))}}},"
        f" p in {{{','.join(str(p) for p in args.primes)}}}, N<={args.nmax})"
    )
    return True, [line], reports


def _padic_claim(args) -> tuple[bool, list[str], list[dict]]:
    """One verdict per prime on ``--claim``; under ``--format csv`` the lines
    are the ``N,partial,valuation`` profile instead of the verdicts, read
    from the summed series (:func:`series.partial_sums`), not from the
    step identity the verdicts rest on."""
    k, eps, x = (1 if given is None else given for given in (args.k, args.eps, args.x))
    spec = series.SeriesSpec(eps=eps, x=x, k=k)
    _require_domain((spec.x,), args.primes)
    tables = tablemod.TableSet.build(k, eps)
    profile = series.series_error_profile(spec, args.claim, args.nmax, tables)
    ok, lines, reports, rows = True, [], [], ["N,partial,valuation"]
    if args.format == "csv":
        sums = [s for _, s, _ in series.partial_sums(spec, args.nmax, tables)]
        cli._expect(len(sums), args.nmax)
    for p in args.primes:
        verdict = series.padic_sum_verify(profile, p)
        reports.append(_padic_report(verdict, profile, p, args.precision))
        ok &= verdict.passed
        if verdict.passed:
            lines.append(f"PASS padic: claim {args.claim} holds to N={profile.n_max} at p={p}")
        else:
            lines.append(
                f"FAIL padic: claim {args.claim} violated at N={verdict.first_violation} (p={p})"
            )
        if args.format == "csv":  # the only exact valuations, taken where printed
            for n, s in enumerate(sums, 1):
                rows.append(f"{n}/p={p},{s},{padic.val_rat(s - args.claim, p)}")
    return ok, rows if args.format == "csv" else lines, reports
