"""The integer layer's imports, read from the source: ``kernel`` stands on
no padsum module, and ``fps`` runs on ``kernel`` without ``poly``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "padsum"


def _padsum_imports(source: str) -> set[str]:
    """The padsum modules that the source of a module of ``padsum`` imports,
    by name below the package ("poly", ...)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.startswith("padsum.")}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "padsum":
                    continue
                base = base.removeprefix("padsum").lstrip(".")
            # ``from . import poly`` imports the module poly; ``from .poly import x`` reads it
            found |= {base} if base else {alias.name for alias in node.names}
    return {name.removeprefix("padsum.") for name in found}


def _imports_of(module: str) -> set[str]:
    return _padsum_imports((SRC / f"{module}.py").read_text())


def test_kernel_imports_no_padsum_module():
    assert _imports_of("kernel") == set()


def test_fps_imports_nothing_from_poly():
    imports = _imports_of("fps")
    assert "kernel" in imports
    assert "poly" not in imports


@pytest.mark.parametrize("form", [
    "from .poly import RatPoly", "from . import poly", "import padsum.poly",
    "from padsum.poly import RatPoly", "from padsum import poly",
])
def test_the_guard_sees_each_import_form(form):
    # nested too, as a function-level import would be
    assert _padsum_imports(f"import os\ndef f():\n    {form}\n") == {"poly"}
