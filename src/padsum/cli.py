"""Batch command-line front end.

Commands: tables, verify {finite|telescope|padic|ode|all}, seq and
seq-compare.  All numbers are exact (integers or p/q); output is
deterministic for a fixed configuration and seed, so repeated runs are
byte-identical.  Nothing is written outside ``--out``, except the table
cache that ``tables --cache-dir DIR`` names.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

# Modules, not names, so that each loads when a command first uses it;
# ``tables`` is also the name of this module's table sets.
from . import fps, padic, series
from . import tables as tablemod
from .kernel import SEQUENCE_IDS, _dumps
from .poly import RatPoly

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

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class BFileError(ValueError):
    """A reference b-file could not be parsed; the message names the line."""


def parse_rational(text: str) -> Fraction:
    """Exact rational literal: 'p' or 'p/q' with q != 0.  Decimal floats
    are refused."""
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"exact rational 'p' or 'p/q' required, got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def parse_eps(text: str) -> int:
    if text in ("1", "+1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"eps must be +1 or -1, got {text!r}")


def _in_range(floor: int, cap: int):
    """An argparse ``type=``: an int from ``floor`` to ``cap``.  Every flag that
    sizes a run's work has one: the floor is the least value that runs a check,
    and the cap is sized so that the flag at its cap (the others at their
    defaults) runs in seconds; outside, argparse exits 2 before any work."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"{value} is under the floor of {floor}")
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is over the cap of {cap}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    parse.floor_cap = (floor, cap)
    return parse


def _distinct(values: tuple, text: str) -> tuple:
    """``values`` unless two are equal (``1,2/2`` repeats): a repeat counts its checks twice."""
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def parse_prime_list(text: str) -> tuple[padic.Prime, ...]:
    capped = _in_range(2, 10**12)  # checked before Prime's trial division, 0.1 s at the cap
    try:
        return _distinct(tuple(padic.Prime(capped(part)) for part in text.split(",")), text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    return _distinct(tuple(parse_rational(part) for part in text.split(",")), text)


def load_or_build_bundle(
    kmax: int, eps: int, cache_dir: Path | None
) -> tuple[tablemod.TableSet, str]:
    """Checked tables for (kmax, eps) and their :func:`tables.bundle_text`; with no
    ``cache_dir``, a plain :meth:`tables.TableSet.build`.

    In ``cache_dir``, the entry ``tables_kmax{kmax}_eps{eps:+d}.json`` is a
    hit, served as is, when it equals byte for byte the bundle of its own
    checked A (:func:`tables.bundle_from_text`) and that A has this (kmax, eps).
    Anything else, an older layout included, is rebuilt: written to a
    temporary file and renamed into place, so a reader never sees half a file.
    """
    if cache_dir is None:
        tables = tablemod.TableSet.build(kmax, eps)
        return tables, tablemod.bundle_text(tables)
    cache_file = cache_dir / f"tables_kmax{kmax}_eps{eps:+d}.json"
    try:
        text = cache_file.read_text()
        tables = tablemod.bundle_from_text(text)
        if (tables.kmax, tables.eps) == (kmax, eps):
            return tables, text
    except (OSError, ValueError):
        pass
    tables = tablemod.TableSet.build(kmax, eps)
    text = tablemod.bundle_text(tables)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, cache_file)
    finally:
        tmp.unlink(missing_ok=True)
    return tables, text


def _render_tables_text(tables: tablemod.TableSet) -> str:
    lines = [f"# tables for eps = {tables.eps:+d}, kmax = {tables.kmax}"]
    # a TableSet also holds U/V and the pairs at kmax+1, which the tables omit
    ks = range(1, tables.kmax + 1)
    if ks:
        pairs = tables.pairs
        lines += ["", "k u_k v_k"]
        lines += [f"{k} {pairs.u(k)} {pairs.v(k)}" for k in ks]
        lines.append("")
        lines += [f"U_{k}(x) = {tables.corr.u_poly(k).render('x')}" for k in ks]
        lines += [f"V_{k}(x) = {tables.corr.v_poly(k).render('x')}" for k in ks]
    lines.append("")
    lines += [f"A_{k}(n;x) = {tables.gen.poly(k).render()}" for k in range(tables.kmax + 1)]
    return "\n".join(lines) + "\n"


def _render_tables_csv(tables: tablemod.TableSet) -> str:
    pairs = tables.pairs
    lines = ["k,u,v"]
    lines += [f"{k},{pairs.u(k)},{pairs.v(k)}" for k in range(1, tables.kmax + 1)]
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> int:
    tables, text = load_or_build_bundle(args.kmax, args.eps, args.cache_dir)
    if args.format == "json":
        content = text
        ext = "json"
    elif args.format == "csv":
        content = _render_tables_csv(tables)
        ext = "csv"
    else:
        content = _render_tables_text(tables)
        ext = "txt"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sign = "p1" if args.eps > 0 else "m1"
    path = out_dir / f"tables_k{args.kmax}_{sign}.{ext}"
    path.write_text(content)
    print(path)
    return 0


def _grid(kmax: int, x_values) -> Iterator[tuple[int, tablemod.TableSet, int, Fraction]]:
    """(eps, tables, k, x) over eps = +-1, k = 1..kmax and x_values; one build per sign."""
    for eps in (1, -1):
        tables = tablemod.TableSet.build(kmax, eps)
        for k in range(1, kmax + 1):
            for x in x_values:
                yield eps, tables, k, x


def _failed(
    check: str, label: str, exc: series.VerificationError
) -> tuple[bool, list[str], list[dict]]:
    """A suite's outcome at its first failure: one ``FAIL <label>`` line and its report."""
    report = {"check": check, "verdict": "FAIL", "detail": str(exc)}
    return False, [f"FAIL {label}: {exc}"], [report]


def _suite_finite(args) -> tuple[bool, list[str], list[dict]]:
    checks = 0
    for eps, tables, k, x in _grid(args.kmax, FINITE_X_SET):
        try:
            checks += series.finite_identity_sweep(k, eps, x, args.nmax, tables, keep=()).checked
        except series.VerificationError as exc:
            return _failed("finite", "finite", exc)
    line = (
        f"PASS finite: zero residual on {checks} identity checks"
        f" (k<={args.kmax}, eps=+-1, {len(FINITE_X_SET)} x values, n<={args.nmax})"
    )
    return True, [line], [{"check": "finite", "verdict": "PASS", "checks": checks}]


def _named_telescope_specs() -> list[tuple[str, series.TelescopeSpec]]:
    # sum n! * n (aux = 1) and sum n! * ((n+1)^2 - n) (aux = n), both at x = 1
    step = dict(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=1)
    return [("factorial-times-n", series.TelescopeSpec(**step, aux=RatPoly.one())),
            ("weighted-square-step", series.TelescopeSpec(**step, aux=RatPoly.monomial(1)))]


def _suite_telescope(args) -> tuple[bool, list[str], list[dict]]:
    count, seed, nmax = args.count, args.seed, args.nmax
    rng = random.Random(seed)
    named = _named_telescope_specs()
    specs = [(f"random-{i}", series.random_telescope_spec(rng)) for i in range(count)] + named
    reached = []  # the last N of each sweep
    for name, spec in specs:
        try:
            reached.append(series.telescope_sweep(spec, nmax)[-1].n_terms)
        except series.VerificationError as exc:
            return _failed("telescope", f"telescope[{name}]", exc)
    line = (
        f"PASS telescope: exact telescoping for {count} random specs"
        f" (seed {seed}) + {len(named)} named instances, N<={min(reached)}"
    )
    return True, [line], [{"check": "telescope", "verdict": "PASS", "specs": len(specs)}]


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
        "n_max": len(profile.errors),
        "first_violation": verdict.first_violation,
        "verdict": "PASS" if verdict.passed else "FAIL",
        "claimed": str(profile.claimed),
        "claimed_expansion": padic.expand(profile.claimed, p, precision).render(),
    }


def _suite_padic(args) -> tuple[bool, list[str], list[dict]]:
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
    reports: list[dict] = []
    failures: list[str] = []
    for eps, tables, k, x in _grid(kmax, x_values):
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
                failures.append(
                    f"FAIL padic: perturbed claim {claimed + 1} for k={k}"
                    f" eps={eps:+d} x={x} p={p} was not rejected"
                )
    if failures:
        return False, failures, reports
    # no failure: every report's claim passed and its perturbation was rejected
    total = len(reports)
    line = (
        f"PASS padic: {total}/{total} claims verified, {total}/{total}"
        f" perturbations rejected (k<={kmax}, x in {{{','.join(map(str, x_values))}}},"
        f" p in {{{','.join(str(p) for p in args.primes)}}},"
        f" N<={min(report['n_max'] for report in reports)})"
    )
    return True, [line], reports


def _padic_claim(args) -> tuple[bool, list[str], list[dict]]:
    """One verdict per prime on ``--claim``; under ``--format csv`` the lines
    are the ``N,partial,valuation`` profile instead of the verdicts."""
    k, eps, x = (1 if given is None else given for given in (args.k, args.eps, args.x))
    spec = series.SeriesSpec(eps=eps, x=x, k=k)
    tables = tablemod.TableSet.build(k, eps)
    profile = series.series_error_profile(spec, args.claim, args.nmax, tables)
    ok, lines, reports, rows = True, [], [], ["N,partial,valuation"]
    for p in args.primes:
        verdict = series.padic_sum_verify(profile, p)
        reports.append(_padic_report(verdict, profile, p, args.precision))
        ok &= verdict.passed
        if verdict.passed:
            lines.append(
                f"PASS padic: claim {args.claim} holds to N={len(profile.errors)} at p={p}"
            )
        else:
            lines.append(
                f"FAIL padic: claim {args.claim} violated at N={verdict.first_violation} (p={p})"
            )
        if args.format == "csv":  # the only exact valuations, taken where printed
            for n, err in enumerate(profile.errors, 1):
                rows.append(f"{n}/p={p},{err + args.claim},{padic.val_rat(err, p)}")
    return ok, rows if args.format == "csv" else lines, reports


def _ode_report(check: str, order: int, result: fps.OdeCheck) -> dict:
    return {
        "check": check,
        "params": {"order": order},
        "bad_degree": result.bad_degree,
        "artifacts": {str(d): str(v) for d, v in result.artifacts.items()},
        "verdict": "PASS" if result.ok else "FAIL",
    }


def _suite_ode(args) -> tuple[bool, list[str], list[dict]]:
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


def cmd_verify(args) -> int:
    runs = [args]
    if args.suite == "all":  # each suite on the namespace its own parser gives with no flags
        parser = build_parser()
        runs = [parser.parse_args(["verify", suite, "--format", args.format])
                for suite in ("finite", "telescope", "padic", "ode")]
    # exact results print in full, whatever their length; the arguments were parsed under
    # the interpreter's int-to-str digit limit, and no suite reads a file
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (CPython < 3.10.7)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        ok, lines, reports = True, [], []
        for suite_args in runs:
            sub_ok, sub_lines, sub_reports = suite_args.run(suite_args)
            ok &= sub_ok
            lines += sub_lines
            reports += sub_reports
        text = _dumps(reports) if args.format == "json" else "".join(f"{line}\n" for line in lines)
        print(text, end="")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0 if ok else 1


def cmd_seq(args) -> int:
    values = tablemod.sequence_slice(args.id, args.kmax)
    start = tablemod.sequence_start_index(args.id)
    if args.format == "json":
        content = _dumps({"id": args.id, "start": start, "values": values})
    elif args.format == "text":
        content = ", ".join(str(v) for v in values) + "\n"
    else:
        content = "".join(f"{start + i} {v}\n" for i, v in enumerate(values))
    if args.out and args.out != "-":
        Path(args.out).write_text(content)
        print(args.out)
    else:
        print(content, end="")
    return 0


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse 'index value' lines; blank lines and #-comments are skipped.

    Malformed lines and non-increasing indices are reported with their line
    number.
    """
    entries: list[tuple[int, int]] = []
    last_index: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(f"line {lineno}: non-integer entry in {raw!r}") from None
        if last_index is not None and index <= last_index:
            raise BFileError(f"line {lineno}: indices must be strictly increasing, got {index}")
        entries.append((index, value))
        last_index = index
    return entries


def cmd_seq_compare(args) -> int:
    try:
        reference = parse_bfile(Path(args.bfile).read_text())
    except (BFileError, UnicodeDecodeError) as exc:
        print(f"malformed b-file {args.bfile}: {exc}", file=sys.stderr)
        return 2
    start = tablemod.sequence_start_index(args.id)
    # pair on the b-file's own indices, so a gap or an offset cannot misalign terms
    ours = dict(enumerate(tablemod.sequence_slice(args.id, args.kmax), start))
    pairs = [(i, v) for i, v in reference if i in ours]
    if len(pairs) < len(reference):
        print(f"skipped {len(reference) - len(pairs)} b-file entries outside our indices",
              file=sys.stderr)
    if not pairs:
        print("nothing to compare (no b-file index within our sequence)", file=sys.stderr)
        return 2
    for index, value in pairs:
        if abs(ours[index]) != abs(value):
            print(
                f"MISMATCH at position {index - start} (b-file index {index}):"
                f" ours={ours[index]}, reference={value}"
            )
            return 1
    print(f"MATCH: {len(pairs)} terms agree up to sign with {args.bfile}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padsum",
        description=(
            "Exact tables and verification for p-adic factorial series:"
            " generating polynomials, correction/integer-pair tables,"
            " telescoping identities and valuation checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="generate and export the tables")
    p_tables.add_argument("--kmax", type=_in_range(0, 100), required=True)
    p_tables.add_argument("--eps", type=parse_eps, default=1)
    p_tables.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p_tables.add_argument("--out", default=".")
    p_tables.add_argument("--cache-dir", type=Path, help="table cache directory (none if omitted)")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    def add_suite(name: str, run, summary: str, formats=("text", "json")):
        # no abbreviations: another suite's --k must not pass as this suite's --kmax
        p_suite = suites.add_parser(name, help=summary, allow_abbrev=False)
        p_suite.add_argument("--format", choices=formats, default="text")
        p_suite.set_defaults(func=cmd_verify, run=run)
        return p_suite

    p_finite = add_suite("finite", _suite_finite, "finite identities with zero residuals")
    p_finite.add_argument("--kmax", type=_in_range(1, 100), default=15)
    p_finite.add_argument("--nmax", type=_in_range(1, 1000), default=25)
    p_telescope = add_suite("telescope", _suite_telescope, "exact telescoping identities")
    p_telescope.add_argument("--nmax", type=_in_range(1, 500), default=15)
    p_telescope.add_argument("--count", type=_in_range(0, 1000), default=20,
                             help="random telescoping specs")
    p_telescope.add_argument("--seed", type=int, default=0)
    p_padic = add_suite("padic", _suite_padic, "claimed sums against exact p-adic remainders",
                        formats=("text", "json", "csv"))
    p_padic.add_argument("--kmax", type=_in_range(1, 60), default=None,
                         help="grid size (default 8)")
    p_padic.add_argument("--nmax", type=_in_range(1, 2000), default=200)
    # a string default goes through ``type`` only when this suite is parsed
    p_padic.add_argument("--primes", type=parse_prime_list, default="2,3,5,7,11")
    p_padic.add_argument("--x-values", type=parse_rational_list, default=None)
    p_padic.add_argument("--claim", type=parse_rational, default=None,
                         help="verify a single claimed sum instead of the grid")
    p_padic.add_argument("--k", type=_in_range(1, 100), default=None,
                         help="series power for --claim mode")
    p_padic.add_argument("--eps", type=parse_eps, default=None)
    p_padic.add_argument("--x", type=parse_rational, default=None)
    p_padic.add_argument("--precision", type=_in_range(1, 1000), default=16,
                         help="digits shown for p-adic expansions in reports")
    p_ode = add_suite("ode", _suite_ode, "ODE residuals of sum n! x^n")
    p_ode.add_argument("--nmax", type=_in_range(3, 500), default=50)
    add_suite("all", None, "every suite on its defaults")

    p_seq = sub.add_parser("seq", help="emit a named integer sequence")
    p_seq.add_argument("id", choices=sorted(SEQUENCE_IDS))
    p_seq.add_argument("--kmax", type=_in_range(0, 100), default=10)
    p_seq.add_argument("--format", choices=("bfile", "text", "json"), default="bfile")
    p_seq.add_argument("--out", default="-")
    p_seq.set_defaults(func=cmd_seq)

    p_cmp = sub.add_parser("seq-compare", help="compare a sequence against a local b-file")
    p_cmp.add_argument("id", choices=sorted(SEQUENCE_IDS))
    p_cmp.add_argument("--kmax", type=_in_range(0, 100), default=10)
    p_cmp.add_argument("--bfile", required=True)
    p_cmp.set_defaults(func=cmd_seq_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (tablemod.CrossCheckError, series.VerificationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
