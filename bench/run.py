"""CARL benchmark: one closed-loop client driving ``tricarl.cli.main(argv)``.

Run from the repository root:

    python3 bench/run.py --workload population_scan --seed 1 --seconds 15 --trace 0

The client sends one request (one ``main`` call, output captured from
stdout) at a time and the next only when it returns.  It passes no
``--workers`` flag, so the sweep thread pool the CLI starts by default is part
of what is measured.  Workloads are described in ``workloads.py``.

A run, in order:

1. set-up: ``SETUP_RUNS`` fresh interpreters each import the program and
   send the workload's first request; ``setup_s`` is the median time from
   starting one to that request's end (untraced runs only);
2. warm-up: every distinct request once, untimed; these outputs are the
   baselines that later outputs must match byte for byte;
3. the timed closed loop: whole passes over the distinct requests, each in a
   fresh seeded order, until ``--seconds`` have passed (so a run measures
   that long rounded up to a whole pass).  ``throughput_rows_per_s`` is the
   rows returned intact divided by the summed request latencies.
   ``request_p50_ms`` is the median over distinct requests of each one's
   median latency: every pass sends each request once, so this is the
   median of the mix, without the pooled median's jumps between the latency
   clusters of different requests.  ``request_tail_ms`` uses all the
   samples.  With ``--trace 1`` every request is sent twice, once traced
   and once not, and the per-layer numbers and the tracing overhead come
   from those pairs;
4. reference checks of every baseline row against ``reference.py``, outside
   the timed region.

Host-speed adjustment.  A shared host's CPU speed can change by up to a
factor of two, in states lasting from under a second to minutes (as on a
2-vCPU x86-64 VM), so raw wall-clock medians of the same code can differ by
a third between runs.  An untraced run therefore times a fixed calibration kernel (small complex
matrix products and 6x6 ``eigvalsh``, the two kinds of work the program
does most) between consecutive requests, outside the timed region.  The
throughput, median and tail use adjusted latencies: each request's latency
is scaled by ``REFERENCE_CALIBRATION_S`` over the median of the three
calibration times taken just before it and the three just after it, i.e.
to the time the request would take on a host where the kernel takes
``REFERENCE_CALIBRATION_S``.  The kernel does not call the program, so a
slower program still reads slower.  The unadjusted figures are in the
details line.  ``setup_s`` is not adjusted: it is mostly imports and
process start, whose time does not follow the kernel's.

A row fails if its status is not ``ok``, its reference check misses the
tolerance, or its bytes differ from the baseline.  The last stdout line is
the JSON result; the line before it holds the run's details (machine, tail
percentile and sample count, layer shares).  Both, and the spans of a traced
run, are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
READY = "ready"
# Fresh interpreters timed per untraced run; setup_s is their median.
SETUP_RUNS = 5
# Calibration kernel time that timings are scaled to.  The scale is
# arbitrary: the kernel takes 1.7 to 2.9 ms on the 2-vCPU x86-64 VM the
# bounds were set on, as the host's speed changes.
REFERENCE_CALIBRATION_S = 0.0025


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import ``tricarl.cli`` from this checkout's ``src``, or stop."""
    if not (SRC / "tricarl" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import tricarl.cli

    if Path(tricarl.cli.__file__).resolve().parent != (SRC / "tricarl").resolve():
        sys.exit(f"benchmark: imported tricarl from {tricarl.cli.__file__}, not {SRC}")
    return tricarl.cli


def _calibration_kernel():
    """The calibration kernel, warmed up: a function that does a fixed
    amount of work and returns the seconds it took."""
    import numpy as np

    rng = np.random.default_rng(0)
    drift = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    drift_dag = drift.conj().T
    hermitian = rng.standard_normal((6, 6))
    hermitian = hermitian + hermitian.T

    def kernel() -> float:
        """Seconds taken by a fixed amount of work that does not call the
        program: 100 moment-equation-like 3x3 complex updates and 90 6x6
        ``eigvalsh`` calls."""
        start = time.perf_counter()
        c = np.eye(3, dtype=complex)
        for _ in range(100):
            c = drift @ c + c @ drift_dag + np.eye(3)
            c /= np.abs(c).max()
        for _ in range(90):
            np.linalg.eigvalsh(hermitian)
        return time.perf_counter() - start

    kernel()
    return kernel


def _adjusted(latencies: list[float], calibrations: list[float]) -> list[float]:
    """Latencies scaled to the reference host speed.  ``calibrations[j]``
    was taken just before request ``j`` and ``calibrations[j + 1]`` just
    after it; the median of six around a request is used, since one reading
    is itself noisy and more would blur the host's changes of speed."""
    return [
        seconds * REFERENCE_CALIBRATION_S / statistics.median(calibrations[max(0, j - 2):j + 4])
        for j, seconds in enumerate(latencies)
    ]


def _send(cli, argv) -> tuple[int, float, str]:
    """One request: exit code, latency in seconds and captured stdout.  An
    exception escaping ``main`` is reported and counts as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:
            code = -1
            traceback.print_exc(file=sys.__stderr__)
        latency = time.perf_counter() - start
    return code, latency, out.getvalue()


def _data_lines(text: str) -> list[str]:
    """Output lines that are rows: CSV without metadata and header, or the
    whole JSON report of a point request."""
    if text.startswith("{"):
        return [text]
    return [line for line in text.splitlines() if not line.startswith("#")][1:]


def _machine() -> dict:
    """The machine as this process sees it; nothing here is set, only read."""
    import numpy
    import scipy

    uname = os.uname()
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_variables": {
            name: os.environ[name] for name in BLAS_THREAD_VARIABLES if name in os.environ
        },
    }


def _time_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter to the end of its first
    request, as seen from this process."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if line != READY or code != 0:
        sys.exit(f"benchmark: set-up probe failed with exit code {code}")
    return elapsed


def _tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it, and the
    latency there (nearest rank); the median when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    percentile = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, ordered[rank - 1]


class Client:
    """The closed-loop client: sends requests, keeps the warm-up baselines
    and tallies rows, (request index, latency) samples, calibration times
    and byte mismatches."""

    def __init__(self, cli, requests, calibrate) -> None:
        self.cli = cli
        self.calibrate = calibrate
        self.requests = requests
        self.baselines = [None] * len(requests)
        self.sent = [0] * len(requests)
        self.latencies: list[tuple[int, float]] = []
        self.calibrations: list[float] = []
        self.rows_done = 0
        self.rows_attempted = 0
        self.mismatches: list[tuple[int, set[int]]] = []
        self.traced_sent = [0] * len(requests)
        self.paired_s = [0.0, 0.0]

    def warm_up(self) -> None:
        for index, request in enumerate(self.requests):
            code, _, text = _send(self.cli, request.argv)
            self.baselines[index] = text if code == 0 else None

    def send(self, index: int) -> float:
        """Send one request and tally it; returns its latency in seconds."""
        request = self.requests[index]
        code, latency, text = _send(self.cli, request.argv)
        self.sent[index] += 1
        self.rows_attempted += request.rows
        baseline = self.baselines[index]
        if code == 0 and text == baseline:
            self.rows_done += request.rows
        else:
            self.mismatches.append((index, _differing_rows(baseline, text, code, request.rows)))
        return latency

    def run(self, rng: random.Random, seconds: float, tracer=None) -> None:
        """Closed loop of whole passes, each sending every distinct request
        once in a fresh seeded order, until ``seconds`` have passed.

        Without a tracer, the calibration kernel also runs before the first
        request and after each one, and its times are kept in
        ``calibrations``.  With a tracer, each request is sent twice in a
        row, once traced and once not, alternating which goes first;
        ``traced_sent`` counts the traced sends per request and ``paired_s``
        sums the untraced and the traced latencies.
        """
        deadline = time.perf_counter() + seconds
        pairs = 0
        if tracer is None:
            self.calibrations.append(self.calibrate())
        while True:
            order = list(range(len(self.requests)))
            rng.shuffle(order)
            for index in order:
                if tracer is None:
                    self.latencies.append((index, self.send(index)))
                    self.calibrations.append(self.calibrate())
                    continue
                for traced in (pairs % 2 == 0, pairs % 2 == 1):
                    if traced:
                        with tracer.request():
                            self.paired_s[1] += self.send(index)
                        self.traced_sent[index] += 1
                    else:
                        self.paired_s[0] += self.send(index)
                pairs += 1
            if time.perf_counter() >= deadline:
                return


def _differing_rows(baseline: str | None, text: str, code: int, rows: int) -> set[int]:
    if baseline is None or code != 0:
        return set(range(rows))
    old, new = _data_lines(baseline), _data_lines(text)
    return {i for i in range(max(len(old), len(new), rows)) if old[i:i + 1] != new[i:i + 1]}


def _parse_rows(text: str) -> list[dict]:
    """Sweep or preset CSV rows, with numbers as floats and empty cells None."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = []
    for record in csv.DictReader(io.StringIO(body)):
        row = {}
        for key, cell in record.items():
            if key in ("curve", "class", "status"):
                row[key] = cell
            else:
                row[key] = float(cell) if cell else None
        rows.append(row)
    return rows


def _check_request(request, text: str | None, reference) -> tuple[set[int], int, float]:
    """Failing row indices of one baseline output, how many of them carry a
    status other than ``ok``, and the fewest correct digits among its
    checked values."""
    if text is None:
        return set(range(request.rows)), request.rows, 0.0
    if text.startswith("{"):
        report = json.loads(text)
        curve = request.curves[""]
        counted, tolerance_only = reference.check_point_report(report, curve.params, curve.tau)
        ok = all(e <= reference.CHECK_RTOL for e in counted + tolerance_only)
        return (set() if ok else {0}), 0, min(map(reference.digits, counted))
    rows = _parse_rows(text)
    bad = set(range(len(rows), request.rows))
    status_failures = 0
    fewest = math.inf
    for i, row in enumerate(rows):
        curve = request.curves[row.pop("curve", "")]
        status = row.pop("status")
        row.pop("class", None)
        params, tau = curve.row_point(row.pop(curve.axis))
        if status != "ok":
            status_failures += 1
            bad.add(i)
            continue
        errors = reference.check_sweep_row(row, params, tau)
        if not all(e <= reference.CHECK_RTOL for e in errors):
            bad.add(i)
        fewest = min([fewest] + [reference.digits(e) for e in errors])
    return bad, status_failures, fewest


def _timings(latencies: list[tuple[int, float]]) -> dict:
    """Timing figures from (request index, seconds) samples: total busy
    time, the median over distinct requests of each one's median latency
    and the tail."""
    by_request = defaultdict(list)
    for index, seconds in latencies:
        by_request[index].append(seconds)
    percentile, tail = _tail([seconds for _, seconds in latencies])
    return {
        "busy_s": sum(seconds for _, seconds in latencies),
        "p50_ms": statistics.median(map(statistics.median, by_request.values())) * 1e3,
        "tail_percentile": percentile,
        "tail_ms": tail * 1e3,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}")
    rng = random.Random(args.seed)
    requests = workloads.build(args.workload, rng)

    if args.setup_probe:
        code, _, _ = _send(cli, requests[0].argv)
        print(READY if code == 0 else "failed", flush=True)
        return code

    calibrate = _calibration_kernel()
    setup_times = [] if args.trace else [_time_setup(args) for _ in range(SETUP_RUNS)]
    client = Client(cli, requests, calibrate)
    client.warm_up()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    client.run(rng, args.seconds, tracer)

    import reference

    failed_rows = [set() for _ in requests]
    status_failures = [0] * len(requests)
    fewest_digits = math.inf
    for index, request in enumerate(requests):
        failed_rows[index], status_failures[index], fewest = _check_request(
            request, client.baselines[index], reference
        )
        fewest_digits = min(fewest_digits, fewest)
    if not math.isfinite(fewest_digits):
        fewest_digits = 0.0
    failed = sum(len(bad) * client.sent[index] for index, bad in enumerate(failed_rows))
    failed += sum(len(diff - failed_rows[index]) for index, diff in client.mismatches)
    attempted = client.rows_attempted

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "requests_sent": sum(client.sent),
        "distinct_requests": len(requests),
        "rows_attempted": attempted,
        "rows_failed": failed,
        "byte_mismatches": len(client.mismatches),
    }
    if tracer is None:
        indices, latencies = zip(*client.latencies)
        raw = _timings(list(zip(indices, latencies)))
        adjusted = _timings(list(zip(indices, _adjusted(latencies, client.calibrations))))
        details["request_tail"] = {
            "percentile": adjusted["tail_percentile"],
            "samples": len(client.latencies),
        }
        details["raw_timings"] = {
            "throughput_rows_per_s": client.rows_done / raw["busy_s"],
            "request_p50_ms": raw["p50_ms"],
            "request_tail_ms": raw["tail_ms"],
        }
        details["setup_runs_s"] = setup_times
        details["reference_calibration_s"] = REFERENCE_CALIBRATION_S
        metrics = {
            "throughput_rows_per_s": _metric(client.rows_done / adjusted["busy_s"], "rows/s"),
            "request_p50_ms": _metric(adjusted["p50_ms"], "ms"),
            "request_tail_ms": _metric(adjusted["tail_ms"], "ms"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "ok_share": _metric(1.0 - failed / attempted, "share"),
            "accuracy_digits": _metric(fewest_digits, "digits"),
        }
    else:
        stats = tracer.layer_stats()
        for key in ("self_s", "self_cpu_s"):
            total = sum(s[key] for s in stats.values()) or 1.0
            details[f"{key}_share"] = {name: s[key] / total for name, s in stats.items()}
        metrics = {}
        for name, s in stats.items():
            metrics[f"{name}.calls"] = _metric(s["calls"], "count")
            metrics[f"{name}.self_s"] = _metric(s["self_s"], "s")
            metrics[f"{name}.p50_us"] = _metric(s["p50_us"], "us")
        covariance_calls = stats["covariance.covariance"]["calls"]
        metrics["covariance.fallback_share"] = _metric(
            stats["covariance.q_quadrature"]["calls"] / covariance_calls if covariance_calls else 0.0,
            "share",
        )
        traced = client.traced_sent
        metrics["sweep.failed_rows"] = _metric(
            sum(n * f for n, f in zip(traced, status_failures)), "count"
        )
        metrics["cli.emit.bytes"] = _metric(
            sum(n * len((b or "").encode("utf-8")) for n, b in zip(traced, client.baselines)),
            "bytes",
        )
        untraced_s, traced_s = client.paired_s
        metrics["trace.overhead_share"] = _metric(traced_s / untraced_s - 1.0, "share")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"details": details, "result": result}
    if tracer is None:
        record["latencies_s"] = client.latencies
        record["calibrations_s"] = client.calibrations
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl.gz"))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
