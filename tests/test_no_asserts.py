"""The package checks its invariants with real errors: ``python -O`` strips asserts."""

import ast
from pathlib import Path

import pytest

import qgldpc

SOURCES = sorted(Path(qgldpc.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"
