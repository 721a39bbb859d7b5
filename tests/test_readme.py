"""The README's library quick tour and command block run as printed."""

import ast
import re
import shlex
import types
from pathlib import Path

import padsum
from padsum.cli import build_parser, main

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
    exported = {
        name for name, value in vars(padsum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert imported == exported


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
