"""Package-wide rules read from the source: internal contracts are raised
errors, never asserts (which python -O removes), and the Smith form of a
presentation is computed in one place."""

import ast
from pathlib import Path

import serreq

SOURCES = sorted(Path(serreq.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _calls(tree, names, scope=()):
    """(enclosing Class.function path, callee) for each call of a name in
    `names`, whether called bare or as an attribute."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(node, names, scope + (node.name,))
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                yield ".".join(scope), name
        yield from _calls(node, names, scope)


def test_smith_form_has_one_caller_outside_linalg():
    found = [(path.name, where, name)
             for path in SOURCES if path.name != "linalg.py"
             for where, name in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                       {"smith", "presentation_normal_form"})]
    assert found == [("zmodules.py", "ZObj.normal_form_data", "presentation_normal_form")]
