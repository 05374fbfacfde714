"""Command-line front end.

Three modes, selected by the flags:

  tricarl --rho 100 --delta 3.5 --gamma1 .5 --gamma2 .5 --kappa .5 --tau 10
      single-point evolution, JSON report on stdout
  tricarl --rho 100 --delta 3.5 ... --tau 2 --sweep delta:-5:10:301 --outputs n1,xi12
      one-axis sweep, CSV (or JSON) table
  tricarl --preset fig5 --out fig5.csv
      figure preset: one labeled sweep per curve

Data files are byte-identical across identical invocations; run metadata
(timestamp, versions, per-status row counts) goes to a separate
``<out>.run.json`` sidecar when --out is used.  Exit codes: 0 success, 2
invalid specification, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, TricarlError
from .model import ModelParams
from .sweep import (
    AXES,
    OUTPUTS,
    FigurePreset,
    SweepSpec,
    as_rows,
    evolve_point,
    figure_preset,
    run_preset,
    run_sweep,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
# glibc's mallopt settings: M_TRIM_THRESHOLD (-1), no trimming of the heap
# below 64 MiB of free memory, and M_MMAP_THRESHOLD (-3), no mmap for an
# allocation below 32 MiB (glibc's largest threshold)
_MALLOPT_SETTINGS = ((-1, 64 << 20), (-3, 32 << 20))
# a str as a JSON string, non-ASCII characters escaped
_JSON_STRING = json.encoder.encode_basestring_ascii
# flags that a preset sets itself, with their values outside preset mode
_RUN_DEFAULTS = dict(
    delta=0.0, gamma1=0.0, gamma2=0.0, kappa=0.0, outputs="n1,n2,n3", epsilon=1e-9, atoms=1e6
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tricarl",
        description="Closed-form three-mode collective-recoil simulator",
    )
    parser.add_argument("--rho", type=float, help="collective coupling parameter (> 0)")
    parser.add_argument("--delta", type=float, help="pump-probe detuning (default 0)")
    parser.add_argument("--gamma1", type=float, help="mode-1 decoherence rate (default 0)")
    parser.add_argument("--gamma2", type=float, help="mode-2 decoherence rate (default 0)")
    parser.add_argument("--kappa", type=float, help="cavity decay rate (default 0)")
    parser.add_argument("--tau", type=float, help="evolution time (scaled units)")
    parser.add_argument(
        "--sweep",
        metavar="AXIS:START:STOP:POINTS",
        help=f"sweep one axis ({', '.join(AXES)}) over a uniform grid",
    )
    parser.add_argument(
        "--outputs",
        help="comma-separated observables for sweeps (default n1,n2,n3): " + ",".join(OUTPUTS),
    )
    parser.add_argument("--preset", help="figure preset id (fig1 .. fig15, fig1a, ...)")
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        help="output of sweeps and presets (default csv); a point report is JSON",
    )
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="include the deviation from Van Loan's block exponential in point reports",
    )
    parser.add_argument(
        "--epsilon", type=float, help="separability sign tolerance (default 1e-9)"
    )
    parser.add_argument(
        "--atoms", type=float, help="atom number for the bunching observable (default 1e6)"
    )
    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Ask glibc, once per process, to keep the memory a block frees: a
    sweep's temporaries then come from the heap, and the next block reuses
    their pages instead of faulting fresh ones in.  Resident memory stays
    at the process's high-water mark.  Does nothing without glibc's
    ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for parameter, value in _MALLOPT_SETTINGS:
        mallopt(parameter, value)


def _format_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _csv_column(column: list) -> list[str]:
    # a str cell is written as it is: no cell can hold a comma, a quote or a line break
    return [cell if type(cell) is str else "" if cell is None else repr(cell) for cell in column]


def _rows_to_csv(table: dict, meta: list[str]) -> str:
    """The metadata lines, then the table as CSV: floats by repr, None empty."""
    lines = [f"# {line}" for line in meta]
    lines.append(",".join(table))
    lines += map(",".join, zip(*map(_csv_column, table.values())))
    return "\n".join(lines) + "\n"


def _sweep_meta(spec: SweepSpec) -> list[str]:
    fixed = spec.fixed.to_dict()
    return [
        "tricarl sweep",
        " ".join(f"{k}={_format_cell(v)}" for k, v in fixed.items()),
        f"axis={spec.axis} start={_format_cell(spec.start)} "
        f"stop={_format_cell(spec.stop)} points={spec.points} "
        f"tau={_format_cell(spec.tau)} atoms={_format_cell(spec.atom_number)} "
        f"epsilon={_format_cell(spec.epsilon)}",
        "outputs=" + ",".join(spec.outputs),
    ]


def _emit(text: str, out: str | None, argv: list[str], statuses: list[str] | None = None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text, encoding="utf-8")
    sidecar = {
        "argv": argv,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if statuses is not None:
        sidecar["row_status_counts"] = dict(sorted(Counter(statuses).items()))
    path.with_suffix(path.suffix + ".run.json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
    )


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes
    it when nested ``indent`` deep: floats by ``float.__repr__``, strings
    escaped to ASCII by the json module's own C function, tuples as lists.
    Mapping keys must be str.  The json module encodes in pure Python
    whenever it indents; this writer makes one call per container, and
    per item that is not a finite float, instead of its generator chains."""
    if isinstance(value, dict):
        items, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = value, "[]"
    elif isinstance(value, str):
        return _JSON_STRING(value)
    elif isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    elif value is None:
        return "null"
    elif isinstance(value, bool):
        return "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    inner = indent + "  "
    # a finite float, the commonest item, is written in place
    texts = [
        repr(item) if type(item) is float and math.isfinite(item) else _json_text(item, inner)
        for item in items
    ]
    if brackets == "{}":
        texts = [f"{_JSON_STRING(key)}: {text}" for key, text in zip(value, texts)]
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(texts) + f"\n{indent}{brackets[1]}"


def _json_dumps(payload) -> str:
    """The bytes of ``json.dumps(payload, indent=2, allow_nan=False) + "\\n"``."""
    return _json_text(payload, "") + "\n"


def _report_error(code: str, exc: Exception, exit_code: int) -> int:
    """Write the JSON error record to stderr and return the exit code."""
    sys.stderr.write(_json_dumps({"error": {"code": code, "message": str(exc)}}))
    return exit_code


def _run_point(args: argparse.Namespace, params: ModelParams) -> str:
    if args.format == "csv":
        raise InvalidSpec("a point report is JSON; drop --format csv")
    if args.tau is None:
        raise InvalidSpec("single-point evolution requires --tau")
    if args.tau == math.inf:
        raise InvalidSpec("tau=inf has no JSON encoding; a point report needs a finite tau")
    # overflow is reported as a non_finite error, not as numpy warnings
    with np.errstate(all="ignore"):
        try:
            report = evolve_point(
                params, args.tau, atom_number=args.atoms, epsilon=args.epsilon, oracle=args.oracle
            )
        except np.linalg.LinAlgError:
            raise  # a numerical failure (a ValueError subclass)
        except ValueError as exc:  # an argument the point report rejects
            raise InvalidSpec(str(exc)) from exc
    return _json_dumps(report)


def _parse_sweep_flag(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise InvalidSpec(f"--sweep wants AXIS:START:STOP:POINTS, got {text!r}")
    axis = parts[0]
    try:
        start, stop, points = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise InvalidSpec(f"bad --sweep numbers in {text!r}: {exc}") from exc
    return axis, start, stop, points


def _run_sweep_mode(args: argparse.Namespace, params: ModelParams) -> tuple[str, dict]:
    axis, start, stop, points = _parse_sweep_flag(args.sweep)
    spec = SweepSpec(
        axis=axis,
        start=start,
        stop=stop,
        points=points,
        fixed=params,
        outputs=tuple(name for name in args.outputs.split(",") if name),
        tau=args.tau,
        atom_number=args.atoms,
        epsilon=args.epsilon,
    )
    if args.format == "json" and spec.tau == math.inf:
        raise InvalidSpec("tau=inf has no JSON encoding; use --format csv")
    table = run_sweep(spec)
    if args.format == "json":
        payload = {"kind": "sweep", "spec": spec.to_dict(), "rows": as_rows(table)}
        return _json_dumps(payload), table
    return _rows_to_csv(table, _sweep_meta(spec)), table


def _run_preset_mode(args: argparse.Namespace) -> tuple[str, dict]:
    preset: FigurePreset = figure_preset(args.preset)
    table = run_preset(preset)
    if args.format == "json":
        payload = {
            "kind": "preset",
            "id": preset.id,
            "description": preset.description,
            "curves": [
                {"label": label, "spec": spec.to_dict()}
                for label, spec in preset.curves
            ],
            "rows": as_rows(table),
        }
        return _json_dumps(payload), table
    meta = [f"tricarl preset {preset.id}", preset.description]
    return _rows_to_csv(table, meta), table


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    effective_argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(effective_argv)
    table = None
    try:
        if args.oracle and (args.preset or args.sweep):
            raise InvalidSpec("--oracle applies to point reports only")
        if args.preset:
            names = ("rho", "tau", "sweep", *_RUN_DEFAULTS)
            given = ", ".join(f"--{name}" for name in names if getattr(args, name) is not None)
            if given:
                raise InvalidSpec(f"--preset sets its own parameters; drop {given}")
            text, table = _run_preset_mode(args)
        else:
            for name, default in _RUN_DEFAULTS.items():
                if getattr(args, name) is None:
                    setattr(args, name, default)
            if args.rho is None:
                raise InvalidSpec("--rho is required without --preset")
            try:
                params = ModelParams(
                    rho=args.rho,
                    delta=args.delta,
                    gamma1=args.gamma1,
                    gamma2=args.gamma2,
                    kappa=args.kappa,
                )
            except ValueError as exc:
                raise InvalidSpec(str(exc)) from exc
            if args.sweep:
                text, table = _run_sweep_mode(args, params)
            else:
                text = _run_point(args, params)
    except InvalidSpec as exc:
        return _report_error(exc.code, exc, EXIT_INVALID)
    except (TricarlError, np.linalg.LinAlgError) as exc:
        return _report_error(getattr(exc, "code", "error"), exc, EXIT_NUMERICAL)
    try:
        _emit(text, args.out, effective_argv, None if table is None else table["status"])
    except OSError as exc:  # --out into a missing directory, say
        return _report_error(InvalidSpec.code, exc, EXIT_INVALID)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
