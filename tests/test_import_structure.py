"""Package modules import each other at module level only, and the
package exports exactly what its ``__init__`` imports.

A function-level import of a ``tricarl`` module hides an import cycle
(``presets`` once reached back into ``sweep`` that way); this check keeps
such imports out of ``src/tricarl``.  A stale or missing ``__all__`` entry
would show only as an ``AttributeError`` on ``from tricarl import *`` or as
a public name nobody listed.
"""

import ast
from pathlib import Path

import tricarl

PACKAGE = Path(tricarl.__file__).resolve().parent


def package_imports_in_functions(tree):
    """(line, module) of each import of a tricarl module inside a function."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "tricarl"
            ):
                yield node.lineno, "." * node.level + (node.module or "")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "tricarl":
                        yield node.lineno, alias.name


def test_no_module_imports_the_package_inside_a_function():
    found = [
        f"{path.name}:{line} {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in package_imports_in_functions(ast.parse(path.read_text()))
    ]
    assert found == []


def init_imports(tree):
    """Names the package ``__init__`` imports from its own submodules."""
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }


def test_all_is_sorted_unique_and_equals_the_init_imports():
    exported = tricarl.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert set(exported) == init_imports(ast.parse((PACKAGE / "__init__.py").read_text()))
