"""sha256 digests of what the command line writes, for a byte-identity check.

Prints one line per request, ``<sha256>  <label>``: the digest of the
request's (exit code, stdout, stderr) from ``tricarl.cli.main``, run in
this process, then one digest over all of them.  The requests are

- every figure preset, as CSV and as JSON;
- every request of the benchmark's workloads at seeds 1 and 7
  (``bench/workloads.py``, loaded read-only, not imported as a module);
- the failure grids of ``test_sweep_golden.py``, as CSV and as JSON, and
  as CSV asking for the observables alone and for the separability
  outputs alone, so that a change in which stages a pass runs cannot move
  a status unseen;
- error records and edge requests: overflow of the oracle's step, of the
  cubic and of the covariance, a steady-state sweep with rows that have
  none, and refused specifications.

A few library calls whose errors the command line cannot reach (among
them the one-state functions on the corrupted covariances of
``test_sweep_batched.py`` and at the ends of the float range, and
``covariance`` and ``steady_state`` where C overflows or has no steady
state) are digested alike, with exit code 1 and ``<class>: <message>`` as stderr
where they raise, the repr of their result as stdout where they return.
A numpy warning raised during a request is appended to its stderr.

Two checkouts write the same bytes where their digests agree:

    python tests/output_digests.py > change.txt
    python tests/output_digests.py --root path/to/parent > parent.txt
    diff parent.txt change.txt

``--root`` names the checkout whose ``src``, ``tests`` and ``bench`` are
used (by default the one holding this file).  pytest does not collect
this file.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import random
import sys
import warnings
from pathlib import Path

SEEDS = (1, 7)
OBSERVABLE_OUTPUTS = "n1,n2,n3,xi12,xi13,xi23,g2_12,g2_13,g2_23,bunching"
SEPARABILITY_OUTPUTS = (
    "mineig_gamma1,mineig_gamma2,mineig_gamma3,mineig_s12,mineig_s13,mineig_s23,class"
)
ALL_OUTPUTS = f"{OBSERVABLE_OUTPUTS},gain,{SEPARABILITY_OUTPUTS}"
FIG5 = ("--rho", "100", "--delta", "3.5", "--gamma1", ".5", "--gamma2", ".5", "--kappa", ".5")
EDGE_REQUESTS = (
    # the oracle's step tau / 2**k is no float: non_finite, exit 3
    ("--rho", "100", "--delta", "5", "--tau", "1e307", "--oracle"),
    # the characteristic cubic overflows
    ("--rho", "1e-200", "--tau", "1"),
    # the covariance overflows
    ("--rho", "100", "--tau", "1e6"),
    ("--rho", "100", "--tau", "400"),
    ("--rho", "100", "--sweep", "tau:0:2000:50", "--outputs", ALL_OUTPUTS),
    # a lossless tau sweep, without the noise integral, through C's overflow;
    # asked for every output, a row past xi's overflow hides what S_12 reads
    ("--rho", "100", "--sweep", "tau:400:412:49", "--outputs", ALL_OUTPUTS),
    ("--rho", "100", "--sweep", "tau:400:412:49", "--outputs", SEPARABILITY_OUTPUTS),
    # C's products sum past the largest float from tau = 406.25, C itself from 406.75
    ("--rho", "100", "--sweep", "tau:400:412:49", "--outputs", "n1"),
    # the band where C is finite but 2H = 2C overflows: the separability tests,
    # taken on H, read ok there as the occupation does
    ("--rho", "100", "--sweep", "tau:405.75:406.75:5", "--outputs", f"n1,{SEPARABILITY_OUTPUTS}"),
    (
        "--rho", "100", "--sweep", "tau:405.75:406.75:5", "--outputs", f"n1,{SEPARABILITY_OUTPUTS}",
        "--format", "json",
    ),
    # the lossless oracle's doublings overflow M: its noise matrix fails
    ("--rho", "0.2", "--delta", "-3", "--tau", "1e100", "--oracle"),
    # steady states, and rows without one
    (*FIG5, "--tau", "inf", "--sweep", "delta:-5:10:31", "--outputs", ALL_OUTPUTS),
    (*FIG5, "--tau", "inf", "--sweep", "delta:-5:10:31", "--format", "json"),
    ("--rho", "100", "--tau", "inf"),
    # a long seven-output sweep over several blocks, written block by block
    (
        "--rho", "100", "--gamma1", ".5", "--gamma2", ".5", "--tau", "2",
        "--sweep", "delta:-5:10:3000", "--outputs", "n1,n2,n3,xi12,xi13,xi23,gain",
    ),
    (
        "--rho", "100", "--gamma1", ".5", "--gamma2", ".5", "--tau", "2",
        "--sweep", "delta:-5:10:3000", "--outputs", "n1,n2,n3,xi12,xi13,xi23,gain",
        "--format", "json",
    ),
    # a grid that ends at -0.0, which prints unlike 0.0
    ("--rho", "100", "--tau", "2", "--sweep", "delta:-1:-0.0:5", "--outputs", "n1,gain"),
    (
        "--rho", "100", "--tau", "2", "--sweep", "delta:-1:-0.0:5", "--outputs", "n1,gain",
        "--format", "json",
    ),
    # point reports, with and without the oracle
    (*FIG5, "--tau", "2", "--oracle"),
    (*FIG5, "--tau", "0"),
    # refused specifications
    ("--rho", "-3", "--tau", "1"),
    ("--preset", "fig3é"),
    ("--preset", "fig3", "--rho", "1"),
    ("--rho", "100", "--tau", "1", "--format", "csv"),
    ("--rho", "100", "--sweep", "delta:0:1:5", "--oracle"),
    ("--rho", "100", "--tau", "1", "--atoms", "0"),
    ("--rho", "100", "--tau", "1", "--epsilon", "-1"),
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default = Path(__file__).resolve().parents[1]
    parser.add_argument("--root", type=Path, default=default, help="checkout to run")
    return parser.parse_args()


def load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench/workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


def requests(root: Path):
    """(label, argv) of every command-line request, in a fixed order."""
    from test_json_writer import grid_argv
    from test_sweep_golden import failure_grids
    from tricarl.presets import PRESETS

    argvs = []
    for preset_id in PRESETS:
        argvs += [("--preset", preset_id), ("--preset", preset_id, "--format", "json")]
    workloads = load_workloads(root)
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            rng = random.Random(seed)
            argvs += [request.argv for request in workloads.build(workload, rng)]
    for spec in failure_grids().values():
        as_json = tuple(grid_argv(spec))  # ends in "--format", "json"
        argvs += [as_json[:-2], as_json]
        for outputs in (OBSERVABLE_OUTPUTS, SEPARABILITY_OUTPUTS):
            one_stage = dataclasses.replace(spec, outputs=tuple(outputs.split(",")))
            argvs.append(tuple(grid_argv(one_stage))[:-2])
    argvs += EDGE_REQUESTS
    # a request that two sources share is run once
    unique = dict.fromkeys(tuple(argv) for argv in argvs)
    return [(" ".join(argv), argv) for argv in unique]


def library_calls():
    """(label, call) of the library calls whose errors the CLI cannot reach."""
    import numpy as np

    from test_sweep_batched import corrupted_covariances
    from tricarl import CovarianceState, ModelParams, covariance, mode_observables, ode_oracle
    from tricarl import physicality, separability_report, steady_state

    # a finite Hermitian C whose 2H = C + C^dag overflows
    overflowing = 0.5 * np.eye(3, dtype=complex)
    overflowing[0, 0] = 1.5e308
    facades = {
        "mode_observables": mode_observables,
        "separability_report": separability_report,
        "physicality": physicality,
    }
    states = [(f"corrupted {k}", c) for k, (c, _, _) in enumerate(corrupted_covariances())]
    states.append(("C_11=1.5e308", overflowing))
    # 2C_11 + 2C_22 overflows, though each is finite
    states.append(("C_11=C_22=5e307", np.diag([5e307, 5e307, 0.5])))
    calls = [
        (f"{name}({label})", lambda facade=facade, c=c: facade(c))
        for label, c in states
        for name, facade in facades.items()
    ]
    lossless = ModelParams(100, 0)
    calls += [
        (f"covariance(rho=100, delta=0, tau={tau})", lambda tau=tau: covariance(lossless, tau))
        for tau in (406.0, 406.25, 410.0)
    ]
    return calls + [
        ("steady_state(rho=100, delta=0)", lambda: steady_state(lossless)),
        ("CovarianceState(0, C_11=1.5e308)", lambda: CovarianceState(0.0, overflowing)),
        ("mode_observables(eye(2))", lambda: mode_observables(np.eye(2))),
        ("separability_report(eye(2))", lambda: separability_report(np.eye(2))),
        ("physicality(eye(2))", lambda: physicality(np.eye(2))),
        ("mode_observables(two vacua)", lambda: mode_observables(np.stack([0.5 * np.eye(3)] * 2))),
        ("mode_observables(1e308)", lambda: mode_observables(np.diag([1e308, 1e308, 0.5]))),
        ("ode_oracle(rho=100, delta=5, tau=1e307)", lambda: ode_oracle(ModelParams(100, 5), 1e307)),
        ("ode_oracle(rho=100, delta=0, tau=410)", lambda: ode_oracle(ModelParams(100, 0), 410.0)),
    ]


def run(call) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a call, numpy warnings appended to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call()
    for warning in caught:
        err.write(f"{warning.category.__name__}: {warning.message}\n")
    return code, out.getvalue(), err.getvalue()


def library_result(call):
    """A library call as a request: exit 0 and its result's repr, or exit 1
    and the exception it raises."""
    try:
        result = call()
    except Exception as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    sys.stdout.write(repr(result))
    return 0


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def main() -> None:
    root = parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from tricarl.cli import main as cli_main

    total = hashlib.sha256()
    lines = [(label, run(lambda: cli_main(list(argv)))) for label, argv in requests(root)]
    lines += [(label, run(lambda: library_result(call))) for label, call in library_calls()]
    for label, result in lines:
        line = f"{digest(result)}  {label}"
        total.update(line.encode())
        print(line)
    print(f"{total.hexdigest()}  all {len(lines)} requests")


if __name__ == "__main__":
    main()
