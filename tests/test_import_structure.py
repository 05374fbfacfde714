"""Package modules import each other at module level only, the package
exports exactly what its ``__init__`` imports, and the CLI starts without
scipy.

A function-level import of a ``tricarl`` module hides an import cycle
(``presets`` once reached back into ``sweep`` that way); this check keeps
such imports out of ``src/tricarl``.  Function-level imports of third-party
modules are allowed: they are how start-up cost is kept down.  scipy loads
on the first call of a path that uses it (Van Loan rows, ``steady_state``,
``from_lab``), not on import, so a CLI run of a point report, a sweep or a
preset, also with an ``--out`` file and its sidecar, loads numpy alone.  A
stale or missing ``__all__`` entry would show only as an ``AttributeError``
on ``from tricarl import *`` or as a public name nobody listed.
"""

import ast
import json
import os
import subprocess
import sys
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


# A fresh interpreter (none of pytest's modules) runs a point report on the
# edge delta* with the RK4 oracle, a tau sweep of every output and a preset
# to stdout, the preset again to an --out file with its sidecar, and lists
# the scipy modules it then holds.
COLD_START_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
from tricarl.cli import main
from tricarl.sweep import OUTPUTS

folder = tempfile.TemporaryDirectory()

runs = [
    ["--rho", "100", "--delta", "1.8899212590353163", "--tau", "5", "--oracle"],
    ["--rho", "100", "--delta", "3.5", "--gamma1", "0.5", "--gamma2", "0.5",
     "--kappa", "0.5", "--sweep", "tau:0:2:5", "--outputs", ",".join(OUTPUTS)],
    ["--preset", "fig3"],
    ["--preset", "fig3", "--out", os.path.join(folder.name, "fig3.csv")],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
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
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "sidecar": True, "scipy": []}
