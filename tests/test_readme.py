"""The README's library quick tour and command block run as printed."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

import padsum
from padsum.cli import build_parser, main, parse_prime_list

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
