"""The package runs on the standard library and numpy alone: every import in
``src/qgldpc`` names one of those or the package itself.  And no import is
dead: a name a module imports is used there, listed in its ``__all__``, or
one that bench/spans.py wraps in that module (``spans.LAYERS``)."""

import ast
import sys
from pathlib import Path

import pytest

import qgldpc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

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


def unused_imports(source: str, exempt=frozenset()) -> list[str]:
    """Names that ``source`` imports and never reads, less its ``__all__`` and
    ``exempt``; ``from __future__`` binds nothing."""
    tree = ast.parse(source)
    bound, read, exported = set(), set(), set(exempt)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(bound - read - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used_exported_or_traced(path):
    traced = {attr for targets in spans.LAYERS.values() for owner, attr in targets
              if getattr(owner, "__name__", None) == f"qgldpc.{path.stem}"}
    unused = unused_imports(path.read_text(), traced)
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .gf2 import Syndrome, row_reduce as rr\nfrom .codes import flatten, vn_edges\n"
              "__all__ = ['flatten']\ndef f(x: Syndrome):\n    return np.sum(x)\n")
    assert unused_imports(source, {"vn_edges"}) == ["os", "rr"]
