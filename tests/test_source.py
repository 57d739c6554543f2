"""Guards on the package source itself."""

import ast
from pathlib import Path

import ringladder

SRC = Path(ringladder.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so invariants must raise explicit errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert statements in ringladder: {found}"
