import ast
from collections import Counter
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


def unreferenced_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Public module-level functions and classes, as "module.name", that no
    top-level statement of the given modules other than their own
    definition names (as a bare name or an attribute)."""
    names_in = {
        id(stmt): {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        for tree in trees.values()
        for stmt in tree.body
    }
    return [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for key, names in names_in.items() if key != id(stmt))
    ]


def attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as an attribute within ``node``."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def unreferenced_public_members(trees: dict[str, ast.Module]) -> list[str]:
    """Public methods, properties and annotated fields of module-level
    classes, as "module.Class.name", whose name no statement of the given
    modules other than the member's own definition reads as an attribute."""
    total = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_") and total[name] == attribute_reads(node)[name]:
                    found.append(f"{module}.{cls.name}.{name}")
    return found


def package_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in SOURCES
        if path.name != "__init__.py"
    }


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


def test_every_public_name_is_used_in_the_package():
    assert unreferenced_public_names(package_trees()) == []


def test_guard_flags_an_unreferenced_public_name():
    used = ast.parse(
        "def f():\n    return g()\n\ndef g():\n    return 1\n\ndef _h():\n    return f\n"
    )
    unused = ast.parse("class C:\n    def g(self):\n        return C\n")
    assert unreferenced_public_names({"a": used, "b": unused}) == ["b.C"]


def test_every_public_member_is_read_in_the_package():
    assert unreferenced_public_members(package_trees()) == []


def test_guard_flags_an_unreferenced_public_member():
    tree = ast.parse(
        "class C:\n"
        "    used: int\n"
        "    unused: int\n"
        "    _private: int\n"
        "    def read(self):\n"
        "        return self.used\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "    def written(self):\n"
        "        pass\n"
        "\n"
        "def f(c):\n"
        "    c.written = 1\n"
        "    return c.read()\n"
    )
    assert unreferenced_public_members({"m": tree}) == [
        "m.C.unused", "m.C.recursive", "m.C.written"
    ]
