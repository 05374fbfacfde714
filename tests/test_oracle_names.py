"""Every public name of ``tests/oracles.py`` is a reference some test uses.

A name defined at the top level of ``oracles.py`` without a leading
underscore must be imported (``from oracles import ...``) or read as an
attribute of ``oracles`` by some ``tests/test_*.py``; a helper used only
inside ``oracles.py`` takes a ``_`` prefix.  So an unused reference cannot
linger.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def public_names(tree):
    """Names the module's top-level functions, classes and assignments bind,
    without a leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


def oracle_names_used(tree):
    """Names a test module imports from ``oracles`` or reads off it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "oracles":
            yield from (alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "oracles"
        ):
            yield node.attr


def test_every_public_oracle_is_used_by_a_test():
    defined = public_names(ast.parse((TESTS / "oracles.py").read_text()))
    used = {
        name
        for path in TESTS.glob("test_*.py")
        for name in oracle_names_used(ast.parse(path.read_text()))
    }
    assert sorted(name for name in defined if not name.startswith("_") and name not in used) == []
