"""The benchmark's traced run wraps names it looks up in the package.

``bench/tracing.py`` lists in ``LAYERS`` the (module, attribute) pairs it
wraps; a rename in ``src/`` that drops one of them only shows when the
traced benchmark raises ``AttributeError``.  This test loads the tracer's
table by path (read-only) and checks that every pair resolves.
"""

import importlib.util
import sys
from pathlib import Path

import tricarl.cli  # noqa: F401  (imports every module the tracer hooks)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_hook_resolves():
    missing = [
        (module_name, attr)
        for sites in load_layers().values()
        for module_name, attr in sites
        if not callable(getattr(sys.modules.get(module_name), attr, None))
    ]
    assert missing == []
