"""Internal contracts are raised errors, never asserts, which python -O removes."""

import ast
from pathlib import Path

import serreq


def test_no_assert_statements_in_the_package():
    sources = sorted(Path(serreq.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
