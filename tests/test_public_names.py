"""Every public top-level function and class of ``src/padsum`` is named
somewhere besides its own definition: in the package, the README, the
acceptance suite or the benchmark tracer.  A routine that only other tests
name either gains a caller or leaves the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "padsum").rglob("*.py"))
READERS = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
           ROOT / "perfbench" / "tracer.py"]

# kept until a default grid sums a rational combination of powers, its intended use
UNREAD = {"general_sum_check"}


def _unnamed():
    """(module file, name) of each public top-level definition that no text
    outside the lines of its own definition names as a word."""
    texts = {path: path.read_text() for path in [*SOURCES, *READERS]}
    for path in SOURCES:
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            outside = [*lines[:start - 1], *lines[node.end_lineno:]]
            corpus = ["".join(outside), *(text for other, text in texts.items() if other != path)]
            if not any(re.search(rf"\b{node.name}\b", text) for text in corpus):
                yield path.relative_to(ROOT).as_posix(), node.name


def test_every_public_name_has_a_reader():
    assert {name for _, name in _unnamed()} == UNREAD, sorted(_unnamed())
