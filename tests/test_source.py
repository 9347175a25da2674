import ast
from pathlib import Path

import kanext

SOURCES = sorted(Path(kanext.__file__).parent.glob("*.py"))


def bare_small_floats(tree: ast.Module) -> list[tuple[int, float]]:
    """Float literals below 1e-3, other than the whole value of a
    module-level constant assignment, as (line, value)."""
    named = {
        id(node.value)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant)
    }
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0 < node.value < 1e-3
        and id(node) not in named
    ]


def test_sources_are_found():
    assert {"prob.py", "kan.py", "theories.py"} <= {path.name for path in SOURCES}


def test_tolerances_are_named_constants():
    found = {
        path.name: bare
        for path in SOURCES
        if (bare := bare_small_floats(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_guard_flags_a_bare_tolerance():
    tree = ast.parse("TOL = 1e-9\n\ndef f(x):\n    return x < 1e-9 or x == 0.5 or x == 0.0\n")
    assert bare_small_floats(tree) == [(4, 1e-9)]
