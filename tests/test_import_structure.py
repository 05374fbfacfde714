"""Package modules import each other at module level only, the package
exports exactly what its ``__init__`` imports, no module imports from the
package a name it never reads, and no module defines a function or class
that the package neither exports nor reads, unless the benchmark's tracer
hooks it there, and no module imports scipy.

A function-level import of a ``tricarl`` module hides an import cycle
(``presets`` once reached back into ``sweep`` that way); this check keeps
such imports out of ``src/tricarl``.  Function-level imports of other
modules are allowed.  numpy is the one runtime dependency: the block
exponential of the oracle and the physical constants are the package's own,
so no module under ``src/tricarl`` names scipy, and a fresh interpreter
runs point reports (with their oracle, at exceptional points included),
sweeps, presets with and without an ``--out`` file, ``steady_state`` and
``from_lab`` with no scipy module loaded.  A stale or missing ``__all__``
entry would show only as an ``AttributeError`` on ``from tricarl import *``
or as a public name nobody listed.

An input check raises ``InvalidSpec``, which is a ValueError: no module
raises a bare ValueError but the JSON writer, which copies ``json.dumps``'s
error, and no module catches one but the parser of the ``--sweep`` text,
so the command line translates no library error.  Each error message is
written out in one function of the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tricarl
from test_bench_hooks import load_layers

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


def unread_package_imports(tree):
    """Names a module imports from the package at module level and never
    reads (a type annotation counts as a read)."""
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tricarl")
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read


def test_every_package_import_is_read_or_a_tracer_hook():
    # an import kept only so that the tracer finds the name to wrap has to
    # be one of its (module, name) sites; it goes once the hook moves
    hooks = {site for sites in load_layers().values() for site in sites}
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in sorted(unread_package_imports(ast.parse(path.read_text())))
        if (f"tricarl.{path.stem}", name) not in hooks
    ]
    assert found == []


def module_definitions(tree):
    """Names of the functions and classes a module defines at module level."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body if isinstance(node, kinds)}


def read_names(tree):
    """Names a module reads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_unexported_definition_is_read_or_a_tracer_hook():
    # a private function or class that nothing in the package reads is dead
    # code, unless the tracer wraps it there (it then reads 0 calls)
    hooks = {site for sites in load_layers().values() for site in sites}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    found = [
        f"{stem}.py: {name}"
        for stem, tree in trees.items()
        for name in sorted(module_definitions(tree) - set(tricarl.__all__) - read)
        if (f"tricarl.{stem}", name) not in hooks
    ]
    assert found == []


def scipy_imports(tree):
    """(line, module) of each import of scipy anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "scipy":
                yield node.lineno, name


def test_no_module_imports_scipy():
    found = [
        f"{path.name}:{line} {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in scipy_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def enclosing_functions(tree, predicate):
    """(innermost enclosing function, None at module level; node) of each
    node of a module for which ``predicate`` holds."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                yield function, child
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if inner else function)

    return visit(tree, None)


def names_value_error(node):
    """Whether an expression is ``ValueError``, a call of it, or a tuple
    that holds it."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return any(map(names_value_error, node.elts))
    return isinstance(node, ast.Name) and node.id == "ValueError"


def raises_value_error(node):
    return isinstance(node, ast.Raise) and node.exc is not None and names_value_error(node.exc)


def catches_value_error(node):
    return isinstance(node, ast.ExceptHandler) and node.type is not None and names_value_error(
        node.type
    )


def test_only_the_json_writer_raises_and_only_the_sweep_flag_parser_catches_value_error():
    # an input check raises InvalidSpec, the package's ValueError; the JSON
    # writer copies json.dumps's own error, and the --sweep parser turns the
    # float() and int() errors of the user's text into InvalidSpec
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

    def sites(predicate):
        return {
            (stem, function)
            for stem, tree in trees.items()
            for function, _ in enclosing_functions(tree, predicate)
        }

    assert sites(raises_value_error) == {("cli", "_json_text")}
    assert sites(catches_value_error) == {("cli", "_parse_sweep_flag")}


def error_classes(cls=tricarl.TricarlError):
    """The names of ``cls`` and of all its subclasses."""
    return {cls.__name__}.union(*map(error_classes, cls.__subclasses__()))


def message_template(node):
    """A message argument's template: a string literal as it is, an
    f-string's constant parts with "{}" for each formatted value, None for
    any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = node.values
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in parts)
    return None


def error_messages(tree, classes):
    """(innermost enclosing function, template) of each message template
    that a module passes to one of the exception classes ``classes``."""

    def raises_message(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in classes
            and bool(node.args)
            and message_template(node.args[0]) is not None
        )

    for function, call in enclosing_functions(tree, raises_message):
        yield function, message_template(call.args[0])


def test_each_error_message_is_written_in_one_function():
    # a message written out in two functions can drift apart; one helper
    # that every caller calls writes it once (raises of one message inside
    # one function, as in regimes._finite, are allowed)
    classes = error_classes()
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for function, template in error_messages(ast.parse(path.read_text()), classes):
            sites.setdefault(template, set()).add(f"{path.stem}.{function}")
    assert {template: sorted(found) for template, found in sites.items() if len(found) > 1} == {}


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


# A fresh interpreter (none of pytest's modules) runs point reports with the
# oracle on the edge delta* and on a detuning whose computed roots coincide
# (a row the block exponential once took), a tau sweep of every output and a preset
# to stdout, the preset again to an --out file with its sidecar, then
# steady_state and from_lab, and lists the scipy modules it then holds.
COLD_START_SCRIPT = """
import contextlib, io, json, math, os, sys, tempfile
from tricarl import LabParams, ModelParams, from_lab, steady_state
from tricarl.cli import main
from tricarl.sweep import OUTPUTS

folder = tempfile.TemporaryDirectory()

runs = [
    ["--rho", "100", "--delta", "1.8899212590353163", "--tau", "5", "--oracle"],
    ["--rho", "50", "--delta", "1.8900403016167855", "--tau", "5", "--oracle"],
    ["--rho", "100", "--delta", "3.5", "--gamma1", "0.5", "--gamma2", "0.5",
     "--kappa", "0.5", "--sweep", "tau:0:2:5", "--outputs", ",".join(OUTPUTS)],
    ["--preset", "fig3"],
    ["--preset", "fig3", "--out", os.path.join(folder.name, "fig3.csv")],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
steady_state(ModelParams(100.0, 3.5, 0.5, 0.5, 0.5))
from_lab(LabParams(
    rabi_frequency=2 * math.pi * 1e8, atomic_detuning=2 * math.pi * 2e10,
    pump_frequency=2.4e15, recoil_frequency=2 * math.pi * 3.8e3, atom_number=1e6,
    mode_volume=1e-12, dipole=2.5e-29, cavity_length=0.05, mirror_transmission=1e-4,
    probe_frequency=2.4e15 - 5 * 2 * math.pi * 3.8e3,
))
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
sidecar = os.path.exists(os.path.join(folder.name, "fig3.csv.run.json"))
folder.cleanup()
print(json.dumps({"codes": codes, "sidecar": sidecar, "scipy": scipy}))
"""


def test_cli_runs_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == {"codes": [0] * 5, "sidecar": True, "scipy": []}
