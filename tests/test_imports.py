"""The package runs on the standard library and numpy alone: every import in
``src/qgldpc`` names one of those or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import qgldpc

SOURCES = sorted(Path(qgldpc.__file__).resolve().parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qgldpc"}


def outside_imports(source: str) -> list[str]:
    """Top-level modules that ``source`` imports from outside ``ALLOWED``;
    relative imports are the package's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return sorted(roots - ALLOWED)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    outside = outside_imports(path.read_text())
    assert outside == [], f"{path.name} imports {outside}"


def test_outside_imports_are_found():
    source = ("import os.path\nimport scipy.linalg as la\nfrom hypothesis import given\n"
              "from . import gf2\nfrom numpy import linalg\nfrom qgldpc.codes import flatten\n"
              "def f():\n    import pandas\n")
    assert outside_imports(source) == ["hypothesis", "pandas", "scipy"]
