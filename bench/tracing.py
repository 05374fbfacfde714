"""Span tracing for the benchmark's traced run.

The tracer wraps the public names each calling module looks up (for example
``tricarl.sweep.separability_report``, which ``_evaluate_row`` calls) with
timing wrappers, and puts the originals back when it is switched off.  Spans
stay in memory until the run ends.

A span's parent is the innermost open span of its own thread.  A sweep's
thread pool runs rows on other threads, whose stacks start empty; their
outermost spans attach to the innermost open span of the thread running the
request in flight (``run_sweep``), since the client sends one request at a
time.  Self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns, thread_time_ns

# Layer metric name -> the (module, attribute) names its callers look up.
# ``tricarl.covariance`` as a package attribute is the re-exported function,
# so modules are always taken from sys.modules.
LAYERS = {
    "dynamics.cubic_roots": (
        ("tricarl.sweep", "cubic_roots"),
        ("tricarl.dynamics", "cubic_roots"),
        ("tricarl.covariance", "cubic_roots"),
    ),
    "dynamics.spectrum": (("tricarl.covariance", "spectrum"),),
    "covariance.covariance": (("tricarl.sweep", "covariance"),),
    "covariance.q_closed_form": (("tricarl.covariance", "q_closed_form"),),
    "covariance.q_quadrature": (("tricarl.covariance", "q_quadrature"),),
    "covariance.ode_oracle": (("tricarl.sweep", "ode_oracle"),),
    "observables.mode_observables": (("tricarl.sweep", "mode_observables"),),
    "entanglement.separability_report": (("tricarl.sweep", "separability_report"),),
    "entanglement.physicality": (("tricarl.sweep", "physicality"),),
    "sweep._evaluate_row": (("tricarl.sweep", "_evaluate_row"),),
    "sweep.run_sweep": (("tricarl.sweep", "run_sweep"), ("tricarl.cli", "run_sweep")),
    "sweep.run_preset": (("tricarl.cli", "run_preset"),),
    "sweep.evolve_point": (("tricarl.cli", "evolve_point"),),
    "cli.main": (("tricarl.cli", "main"),),
    "cli._rows_to_csv": (("tricarl.cli", "_rows_to_csv"),),
    "cli._json_dumps": (("tricarl.cli", "_json_dumps"),),
    "cli._emit": (("tricarl.cli", "_emit"),),
}


class Tracer:
    """Records (id, parent, request, name, thread, start_ns, end_ns, cpu_ns)
    spans; cpu_ns is the CPU time the span's own thread spent in it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack: list[int] = []
        self._sites = []
        for name, sites in LAYERS.items():
            for module_name, attr in sites:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._sites.append((module, attr, original, self._wrap(name, original)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._request_stack[-1]
                except IndexError:
                    parent = 0
            span_id = next(self._ids)
            stack.append(span_id)
            cpu_start = thread_time_ns()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                cpu = thread_time_ns() - cpu_start
                stack.pop()
                self.spans.append(
                    (span_id, parent, self.request_id, name, threading.get_ident(), start, end, cpu)
                )

        return traced

    @contextmanager
    def request(self):
        """Trace one request sent from the calling thread; the wrappers are
        installed only for its duration."""
        self.request_id += 1
        self._request_stack = self._stack()
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed self time and self CPU time (s), and the
        median call duration (us).

        Self CPU time subtracts only children on the span's own thread; the
        gap between self time and self CPU time is time the thread waited,
        mostly for the interpreter lock when the sweep pool runs.
        """
        children = defaultdict(list)
        child_cpu = defaultdict(int)
        for _, parent, _, _, thread, start, end, cpu in self.spans:
            children[parent].append((start, end))
            child_cpu[parent, thread] += cpu
        durations = defaultdict(list)
        self_ns = defaultdict(int)
        self_cpu_ns = defaultdict(int)
        for span_id, _, _, name, thread, start, end, cpu in self.spans:
            durations[name].append(end - start)
            self_ns[name] += end - start - _covered(children.get(span_id, ()), start, end)
            self_cpu_ns[name] += cpu - child_cpu.get((span_id, thread), 0)
        return {
            name: {
                "calls": len(durations[name]),
                "self_s": self_ns[name] * 1e-9,
                "self_cpu_s": self_cpu_ns[name] * 1e-9,
                "p50_us": statistics.median(durations[name]) * 1e-3 if durations[name] else 0.0,
            }
            for name in LAYERS
        }

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        keys = ("id", "parent", "request", "name", "thread", "start_ns", "end_ns", "cpu_ns")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
