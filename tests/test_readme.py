"""The README's library quick tour and command block run as printed."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

import padsum
from padsum.cli import build_parser, main, parse_prime_list, parse_rational_list

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    stated = []
    tree = ast.parse(block)
    for stmt in tree.body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip().lstrip("#").strip()
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):  # a comment in words states no value
            continue
        assert value == expected, comment
        stated.append(expected)
    assert stated == [17731, True, (1, 1, 2, 5, 15, 52, 203, 877)]
    # the tour imports exactly what ``import padsum`` exports
    imported = {
        alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "padsum"
        for alias in stmt.names
    }
    exported = set(padsum.__all__)
    assert imported == exported
    for name in exported:  # each resolves through the package's __getattr__
        assert getattr(padsum, name) is namespace[name]


def test_readme_commands_parse_and_verify_lines_pass(capsys):
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [
        shlex.split(line, comments=True)[1:] for line in block.splitlines()
        if line.startswith("padsum ")
    ]
    assert {argv[0] for argv in commands} == {"tables", "verify", "seq", "seq-compare"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error exits here
    for argv in commands:
        if argv[0] == "verify":
            assert main(argv) == 0, " ".join(argv)


def _capped_flags(parser) -> set:
    """(command, flag) for every flag of ``parser`` whose type is a floor..cap range."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= {((name,) + command, flag) for command, flag in _capped_flags(sub)}
        elif hasattr(action.type, "floor_cap") or action.type is parse_prime_list:
            found.add(((), action.option_strings[0]))
    return found


def test_readme_floor_cap_table_matches_the_parser():
    table = re.search(r"\| command \| floor\.\.cap \|\n.*?\n((?: *\|.*\n)+)", README.read_text()).group(1)
    base = {"seq": ["seq", "A+0,1"], "seq-compare": ["seq-compare", "A+0,1", "--bfile", "b"]}
    parser = build_parser()
    listed = set()
    for row in table.splitlines():
        commands, ranges = row.strip().strip("|").split("|")
        entries = re.findall(r"`(--[a-z-]+)`(?: entry)? (\d+)\.\.(\d+)(?:\^(\d+))?", ranges)
        assert len(entries) == ranges.count(".."), row
        for command in re.findall(r"`([a-z -]+)`", commands):
            for flag, floor, cap, power in entries:
                listed.add((tuple(command.split()), flag))
                floor, cap = int(floor), int(cap) ** int(power or 1)
                argv = base.get(command, command.split())
                probes = [(floor - 1, False), (floor, True), (cap + 1, False)]
                if flag != "--primes":  # the cap of a prime, 10^12, is not prime
                    probes.append((cap, True))
                for value, parses in probes:
                    if parses:
                        parser.parse_args([*argv, flag, str(value)])
                    else:
                        with pytest.raises(SystemExit) as exc:
                            parser.parse_args([*argv, flag, str(value)])
                        assert exc.value.code == 2, (command, flag, value)
    assert listed == _capped_flags(parser)



def _suite_parser(parser, *names):
    """The parser of the command ``names`` names under ``parser``."""
    for name in names:
        parser = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)).choices[name]
    return parser


def _refusal(parser, argv, capsys) -> str:
    """The usage error with which ``parser`` refuses ``argv`` (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2, argv[-1][:40]
    return capsys.readouterr().err


def test_readme_size_cap_table_matches_the_parser(capsys):
    table = re.search(r"\| `verify padic` flag \| cap \|\n.*?\n((?: *\|.*\n)+)",
                      README.read_text()).group(1)
    parser = build_parser()
    # every value is built from digit strings, so parsing it runs no check
    primes = [str(p) for p in range(2, 240) if all(p % q for q in range(2, p))]
    digits, entries = set(), set()
    for row in table.splitlines():
        flag, cap = row.strip().strip("|").split("|")
        (flag,) = re.findall(r"`(--[a-z-]+)`", flag)
        argv = ["verify", "padic", flag]
        sizes = re.fullmatch(r" ([\d,]+) digits in the numerator, ([\d,]+) in the denominator ",
                             cap)
        if sizes:
            digits.add(flag)
            top, bottom = (int(size.replace(",", "")) for size in sizes.groups())
            parser.parse_args([*argv, f"{'7' * top}/{'1' * bottom}"])
            for over, size in ((f"{'7' * (top + 1)}/1", top), (f"1/{'1' * (bottom + 1)}", bottom)):
                assert _refusal(parser, [*argv, over], capsys).endswith(
                    f"{size + 1} digits is over the cap of {size}\n"), (flag, size)
        else:
            entries.add(flag)
            cap = int(re.fullmatch(r" (\d+) entries ", cap).group(1))
            values = primes if flag == "--primes" else [str(x) for x in range(1, cap + 2)]
            parser.parse_args([*argv, ",".join(values[:cap])])
            assert _refusal(parser, [*argv, ",".join(values[:cap + 1])], capsys).endswith(
                f"{cap + 1} entries is over the cap of {cap}\n"), flag
    # the table lists every flag with a digit cap and every list with an entry cap
    types = {action.option_strings[0]: action.type
             for action in _suite_parser(parser, "verify", "padic")._actions}
    assert digits == {flag for flag, kind in types.items()
                      if kind is parse_rational_list
                      or getattr(kind, "__name__", None) == "parse_rational"}
    assert entries == {flag for flag, kind in types.items()
                       if kind in (parse_prime_list, parse_rational_list)}
