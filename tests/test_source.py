"""Checks on the package source itself."""

import ast
from pathlib import Path

import fafft


def test_no_asserts_in_package():
    # python -O strips assert statements, so a check that guards
    # correctness has to raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(fafft.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
