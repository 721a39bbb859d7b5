"""The README's library quick tour runs as printed."""

import ast
import re
import types
from pathlib import Path

import padsum

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
