"""Batch command-line front end.

Commands: tables, verify {finite|telescope|padic|ode|all}, seq and
seq-compare.  All numbers are exact (integers or p/q); output is
deterministic for a fixed configuration and seed, so repeated runs are
byte-identical.  Nothing is written outside ``--out``, except the table
bundle that ``tables --cache-dir DIR`` writes there.  Nothing is read back
from DIR: the only file any command parses is ``seq-compare``'s b-file.

This module parses the arguments and holds what several commands share,
:func:`cmd_verify` among them: the one place where a ``VerificationError``
out of a ``verify`` suite becomes its FAIL.  Each command family runs from
its own module of ``padsum.commands``, which is loaded only then.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

# Modules, not names, so that each loads when a command first uses it;
# ``tables`` is also the name of this module's table sets.
from . import padic
from . import tables as tablemod
from .kernel import SEQUENCE_IDS, VerificationError, _dumps

if TYPE_CHECKING:  # annotations only: ``fractions`` loads with the first non-integer parsed
    from fractions import Fraction

# a number on the command line or in a b-file: ASCII digits after an optional
# sign; int() and Fraction() also read "1_0", " 5", "1\n" and other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"{_INTEGER.pattern}(?:/[0-9]+)?")


class BFileError(ValueError):
    """A reference b-file could not be parsed; the message names the line."""


def parse_rational(text: str, caps: tuple[int, ...] = ()) -> int | Fraction:
    """Exact rational literal: 'p' or 'p/q' with q != 0, with at most
    ``caps[0]`` digits in p and ``caps[1]`` in q when ``caps`` are given,
    counted before either is parsed.  Decimal floats are refused.  'p' gives
    an int, so integer arguments never load ``fractions``; 'p/q' gives a
    Fraction."""
    if not _RATIONAL.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"exact rational 'p' or 'p/q' required, got {text!r}"
        )
    for part, digits, cap in zip(("numerator", "denominator"), text.lstrip("+-").split("/"), caps):
        if len(digits) > cap:
            raise argparse.ArgumentTypeError(
                f"a {part} of {len(digits)} digits is over the cap of {cap}")
    if "/" not in text:
        return int(text)
    from fractions import Fraction

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


def _int(text: str) -> int:
    """An argparse ``type=``: ``text`` as an int, when it matches ``_INTEGER``."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid int value: {text!r}")  # argparse's own wording
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value"


def _in_range(floor: int, cap: int):
    """An argparse ``type=``: an int from ``floor`` to ``cap``.  Every flag that
    sizes a run's work has one: the floor is the least value that runs a check,
    and the cap is sized so that the flag at its cap (the others at their
    defaults) runs in seconds; outside, argparse exits 2 before any work."""
    def parse(text: str) -> int:
        value = _int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"{value} is under the floor of {floor}")
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is over the cap of {cap}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    parse.floor_cap = (floor, cap)
    return parse


def _rational(*caps: int):
    """An argparse ``type=``: :func:`parse_rational` with the digit caps of its
    numerator and denominator, sized like the caps of :func:`_in_range`."""
    def parse(text: str) -> int | Fraction:
        return parse_rational(text, caps)
    parse.__name__ = "parse_rational"  # argparse names the type in "invalid ... value"
    return parse


def _entries(text: str, cap: int) -> list[str]:
    """``text`` split at its commas, unless that gives over ``cap`` entries;
    counted before any entry is parsed."""
    parts = text.split(",")
    if len(parts) > cap:
        raise argparse.ArgumentTypeError(f"{len(parts)} entries is over the cap of {cap}")
    return parts


def _distinct(values: tuple, text: str) -> tuple:
    """``values`` unless two are equal (``1,2/2`` repeats): a repeat counts its checks twice."""
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def parse_prime_list(text: str) -> tuple[padic.Prime, ...]:
    capped = _in_range(2, 10**12)  # checked before Prime's trial division, 0.1 s at the cap
    try:
        return _distinct(tuple(padic.Prime(capped(part)) for part in _entries(text, 50)), text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_rational_list(text: str) -> tuple[int | Fraction, ...]:
    return _distinct(tuple(parse_rational(part, (120, 10)) for part in _entries(text, 200)), text)


def load_or_build_bundle(
    kmax: int, eps: int, cache_dir: Path | None
) -> tuple[tablemod.TableSet, str | None]:
    """Checked tables for (kmax, eps), built by :meth:`tables.TableSet.build`,
    and, when ``cache_dir`` is named, their :func:`tables.bundle_text`, which
    only ``tables --format json`` needs and otherwise encodes itself.

    The text is also written to ``cache_dir`` as
    ``tables_kmax{kmax}_eps{eps:+d}.json``, through a temporary file renamed
    into place, so that no one sees half a file.  Nothing is read from
    ``cache_dir``: every run builds its tables.
    """
    if cache_dir is None:
        return tablemod.TableSet.build(kmax, eps), None
    cache_file = cache_dir / f"tables_kmax{kmax}_eps{eps:+d}.json"
    cache_dir.mkdir(parents=True, exist_ok=True)  # a file in the way fails before the build
    tables = tablemod.TableSet.build(kmax, eps)
    text = tablemod.bundle_text(tables)
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, cache_file)
    finally:
        tmp.unlink(missing_ok=True)
    return tables, text


def _grid(kmax: int, x_values) -> Iterator[tuple[int, tablemod.TableSet, int, int | Fraction]]:
    """(eps, tables, k, x) over eps = +1 then -1, k = 1..kmax and x_values.

    The generator runs once, for +1; the -1 table is its
    :func:`tables.sign_flip`.  Each sign's table passes
    :meth:`tables.TableSet.checked` before its first cell, and the -1 table
    is flipped and checked only after the last +1 cell, so a failed check
    stops the grid where a build per sign would.
    """
    def cells(gen: tablemod.GenPolyTable):
        tables = tablemod.TableSet.checked(gen)
        return ((gen.eps, tables, k, x) for k in range(1, kmax + 1) for x in x_values)

    plus = tablemod.gen_poly_table(kmax, 1)
    yield from cells(plus)
    yield from cells(tablemod.sign_flip(plus))


def _expect(got: int, expected: int) -> None:
    """Fail a suite whose engine checked more or fewer than its arguments ask for."""
    if got != expected:
        raise VerificationError(f"checked {got} of {expected}")


def cmd_verify(args) -> int:
    """Run the suite, or each of ``verify all``; a ``VerificationError`` it raises is its FAIL."""
    runs = [args]
    if args.suite == "all":  # each suite on the namespace its own parser gives with no flags
        runs = [parser.parse_args(["--format", args.format]) for parser in args.suites]
    # exact results print in full, whatever their length; the arguments were parsed under
    # the interpreter's int-to-str digit limit, and no suite reads a file
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (CPython < 3.10.7)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        ok, lines, reports = True, [], []
        for suite_args in runs:
            try:
                sub_ok, sub_lines, sub_reports = suite_args.run(suite_args)
            except VerificationError as exc:  # the suite's first failed check
                sub_ok, sub_lines = False, [f"FAIL {exc.label or suite_args.check}: {exc}"]
                sub_reports = [{"check": suite_args.check, "verdict": "FAIL", "detail": str(exc)}]
            ok &= sub_ok
            lines += sub_lines
            reports += sub_reports
        text = _dumps(reports) if args.format == "json" else "".join(f"{line}\n" for line in lines)
        print(text, end="")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0 if ok else 1


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
            index, value = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise BFileError(f"line {lineno}: non-integer entry in {raw!r}") from None
        if last_index is not None and index <= last_index:
            raise BFileError(f"line {lineno}: indices must be strictly increasing, got {index}")
        entries.append((index, value))
        last_index = index
    return entries


def _runner(module: str, name: str):
    """A function that runs ``name`` of ``padsum.commands.<module>`` on its
    arguments, importing that module at its first call."""
    def run(args):
        return getattr(importlib.import_module(f"{__package__}.commands.{module}"), name)(args)
    return run


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
    p_tables.add_argument("--cache-dir", type=Path,
                          help="also write the JSON bundle here; nothing is read from it")
    p_tables.set_defaults(func=_runner("tables", "cmd_tables"))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    def add_suite(name: str, summary: str, formats=("text", "json")):
        # no abbreviations: another suite's --k must not pass as this suite's --kmax
        p_suite = suites.add_parser(name, help=summary, allow_abbrev=False)
        p_suite.add_argument("--format", choices=formats, default="text")
        # ``verify all`` runs the namespaces of the other suites
        run = None if name == "all" else _runner(f"verify_{name}", "run")
        p_suite.set_defaults(func=cmd_verify, run=run, check=name)
        return p_suite

    p_finite = add_suite("finite", "finite identities with zero residuals")
    p_finite.add_argument("--kmax", type=_in_range(1, 100), default=15)
    p_finite.add_argument("--nmax", type=_in_range(1, 1000), default=25)
    p_telescope = add_suite("telescope", "exact telescoping identities")
    p_telescope.add_argument("--nmax", type=_in_range(1, 500), default=15)
    p_telescope.add_argument("--count", type=_in_range(0, 1000), default=20,
                             help="random telescoping specs")
    p_telescope.add_argument("--seed", type=_int, default=0)
    p_padic = add_suite("padic", "claimed sums against exact p-adic remainders",
                        formats=("text", "json", "csv"))
    p_padic.add_argument("--kmax", type=_in_range(1, 60), default=None,
                         help="grid size (default 8)")
    p_padic.add_argument("--nmax", type=_in_range(1, 2000), default=200)
    # a string default goes through ``type`` only when this suite is parsed
    p_padic.add_argument("--primes", type=parse_prime_list, default="2,3,5,7,11")
    p_padic.add_argument("--x-values", type=parse_rational_list, default=None)
    p_padic.add_argument("--claim", type=_rational(4000, 4000), default=None,
                         help="verify a single claimed sum instead of the grid")
    p_padic.add_argument("--k", type=_in_range(1, 100), default=None,
                         help="series power for --claim mode")
    p_padic.add_argument("--eps", type=parse_eps, default=None)
    p_padic.add_argument("--x", type=_rational(100, 100), default=None)
    p_padic.add_argument("--precision", type=_in_range(1, 1000), default=16,
                         help="digits shown for p-adic expansions in reports")
    p_ode = add_suite("ode", "ODE residuals of sum n! x^n")
    p_ode.add_argument("--nmax", type=_in_range(3, 500), default=50)
    add_suite("all", "every suite on its defaults").set_defaults(
        suites=(p_finite, p_telescope, p_padic, p_ode))

    p_seq = sub.add_parser("seq", help="emit a named integer sequence")
    p_seq.add_argument("id", choices=sorted(SEQUENCE_IDS))
    p_seq.add_argument("--kmax", type=_in_range(0, 100), default=10)
    p_seq.add_argument("--format", choices=("bfile", "text", "json"), default="bfile")
    p_seq.add_argument("--out", default="-")
    p_seq.set_defaults(func=_runner("tables", "cmd_seq"))

    p_cmp = sub.add_parser("seq-compare", help="compare a sequence against a local b-file")
    p_cmp.add_argument("id", choices=sorted(SEQUENCE_IDS))
    p_cmp.add_argument("--kmax", type=_in_range(0, 100), default=10)
    p_cmp.add_argument("--bfile", required=True)
    p_cmp.set_defaults(func=_runner("tables", "cmd_seq_compare"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:  # a table cross-check outside ``verify``
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # under ``-m``, so that the command modules' ``from .. import cli`` finds
    # this module rather than running cli.py again
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
