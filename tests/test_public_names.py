"""Every public top-level function and class of ``src/padsum`` is named
somewhere besides its own definition: in the package, the README, the
acceptance suite or the benchmark tracer; a package import that re-exports
it does not count.  A routine that only other tests name either gains a
caller or leaves the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "padsum").rglob("*.py"))
READERS = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
           ROOT / "perfbench" / "tracer.py"]

UNREAD = {
    # kept until a default grid sums a rational combination of powers, its intended use
    "general_sum_check",
}


def _without_imports(text, tree):
    """``text`` with every line of each ``from ... import ...`` statement in
    ``tree`` blanked: a re-export names a function without reading it."""
    lines = text.splitlines(keepends=True)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = "\n"
    return "".join(lines)


def _unnamed():
    """(module file, name) of each public top-level definition that no text
    outside the lines of its own definition names as a word."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    texts = {path: path.read_text() for path in READERS}
    texts.update((path, _without_imports(path.read_text(), trees[path])) for path in SOURCES)
    for path in SOURCES:
        lines = texts[path].splitlines(keepends=True)
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            outside = [*lines[:start - 1], *lines[node.end_lineno:]]
            corpus = ["".join(outside), *(text for other, text in texts.items() if other != path)]
            if not any(re.search(rf"\b{node.name}\b", text) for text in corpus):
                yield path.relative_to(ROOT).as_posix(), node.name


def test_every_public_name_has_a_reader():
    assert {name for _, name in _unnamed()} == UNREAD, sorted(_unnamed())
