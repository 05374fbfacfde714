"""Command-line front end.

Three modes, selected by the flags:

  tricarl --rho 100 --delta 3.5 --gamma1 .5 --gamma2 .5 --kappa .5 --tau 10
      single-point evolution, JSON report on stdout
  tricarl --rho 100 --delta 3.5 ... --tau 2 --sweep delta:-5:10:301 --outputs n1,xi12
      one-axis sweep, CSV (or JSON) table
  tricarl --preset fig5 --out fig5.csv
      figure preset: one labeled sweep per curve

A sweep or preset is written block by block: each (curves, points) block
of the sweep engine is formatted and written as soon as it is computed, so
the text of a long run never exists whole.  With --out the data file is
written under a temporary name beside it and renamed once complete; a
failed run leaves no data file.  Data files are byte-identical across
identical invocations; run metadata (timestamp, versions, per-status row
counts) goes to a separate ``<out>.run.json`` sidecar when --out is used.
Exit codes: 0 success, 2 invalid specification, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, TricarlError
from .model import ModelParams
# run_preset, run_sweep: the joined tables, which the command line does not
# build; imported for the benchmark tracer to hook
from .sweep import (
    ATOM_NUMBER,
    AXES,
    EPSILON,
    OUTPUTS,
    FigurePreset,
    SweepSpec,
    _run,
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
    delta=0.0, gamma1=0.0, gamma2=0.0, kappa=0.0, outputs="n1,n2,n3",
    epsilon=EPSILON, atoms=ATOM_NUMBER,
)


def _short(value: float) -> str:
    """A default as the help text writes it: 1e6, 1e-9."""
    return f"{value:.0e}".replace("e+0", "e").replace("e-0", "e-")


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
        "--epsilon", type=float, help=f"separability sign tolerance (default {_short(EPSILON)})"
    )
    parser.add_argument(
        "--atoms",
        type=float,
        help=f"atom number for the bunching observable (default {_short(ATOM_NUMBER)})",
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


def _json_column(column: list) -> list[str]:
    # a finite float by repr, the commonest cell; the rest as _json_text writes it
    return [
        repr(cell) if type(cell) is float and math.isfinite(cell) else _json_text(cell, "")
        for cell in column
    ]


def _grid_column(values: np.ndarray) -> list[str]:
    """The grid cells of a (curves, points) block as text: each curve's row
    formatted once, and reused by the next curve when its row has the same
    bytes (0.0 and -0.0 compare equal but print differently).  A grid value
    is finite (``SweepSpec``), so its CSV and JSON texts are both its repr."""
    texts, last, row_texts = [], None, []
    for row in values:
        key = row.tobytes()
        if key != last:
            last, row_texts = key, list(map(repr, row.tolist()))
        texts += row_texts
    return texts


def _rows_to_csv(table: dict, meta: list[str] | None, texts: dict | None = None) -> str:
    """The table's rows as CSV lines, floats by repr and None empty, after
    the metadata lines and the header where ``meta`` is given.  A column
    named in ``texts`` takes its cells' text from there."""
    texts = texts or {}
    columns = [texts.get(name) or _csv_column(column) for name, column in table.items()]
    lines = [] if meta is None else [*(f"# {line}" for line in meta), ",".join(table)]
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def _rows_to_json(table: dict, texts: dict) -> str:
    """The table's rows as the row objects of a payload's "rows" list, as
    ``json.dumps(payload, indent=2)`` writes them, joined by its separator.
    A column named in ``texts`` takes its cells' text from there."""
    keys = [_JSON_STRING(name).replace("{", "{{").replace("}", "}}") for name in table]
    row = "{{" + ",".join(f"\n      {key}: {{}}" for key in keys) + "\n    }}"
    columns = [texts.get(name) or _json_column(column) for name, column in table.items()]
    return ",\n    ".join(map(row.format, *columns))


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


def _csv_blocks(blocks, axis: str, meta: list[str], statuses: Counter | None):
    """The CSV text of a sweep or preset, one piece per block of ``_run``,
    formatted as the block arrives; the metadata lines and the header lead
    the first.  Adds each block's row statuses to ``statuses``, if given."""
    for values, table in blocks:
        if statuses is not None:
            statuses.update(table["status"])
        # the curve and status cells are str, written as they are
        texts = {name: table[name] for name in ("curve", "status") if name in table}
        yield _rows_to_csv(table, meta, {**texts, axis: _grid_column(values)})
        meta = None


def _json_blocks(blocks, axis: str, head: dict, statuses: Counter | None):
    """The bytes of ``json.dumps({**head, "rows": rows}, indent=2)`` and a
    newline, where ``rows`` holds the row dicts of every block of ``_run``,
    one piece per block, formatted as the block arrives.  Adds each block's
    row statuses to ``statuses``, if given."""
    # the text of head ends in "\n}\n"; "rows" is the payload's last key
    separator = _json_dumps(head)[:-3] + ',\n  "rows": [\n    '
    for values, table in blocks:
        if statuses is not None:
            statuses.update(table["status"])
        yield separator + _rows_to_json(table, {axis: _grid_column(values)})
        separator = ",\n    "
    yield "\n  ]\n}\n"


def _emit(pieces, out: str | None, argv: list[str], statuses: Counter | None) -> None:
    """Write the pieces of a data file, as each is made: to stdout, or to a
    temporary file beside ``out``, renamed to ``out`` once the last is
    written, and then the ``.run.json`` sidecar.  A failure removes the
    temporary file, so it leaves no data file and no sidecar."""
    if out is None:
        for piece in pieces:
            sys.stdout.write(piece)
        return
    path = Path(out)
    partial = Path(f"{out}.{os.getpid()}.tmp")
    file = open(partial, "x", encoding="utf-8")
    try:
        with file:
            file.writelines(pieces)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    sidecar = {
        "argv": argv,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if statuses is not None:
        sidecar["row_status_counts"] = dict(sorted(statuses.items()))
    path.with_suffix(path.suffix + ".run.json").write_text(_json_dumps(sidecar), encoding="utf-8")


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
        report = evolve_point(
            params, args.tau, atom_number=args.atoms, epsilon=args.epsilon, oracle=args.oracle
        )
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


def _run_sweep_mode(args: argparse.Namespace, params: ModelParams, statuses: Counter | None):
    axis, start, stop, points = _parse_sweep_flag(args.sweep)
    outputs = tuple(name for name in args.outputs.split(",") if name)
    spec = SweepSpec(axis, start, stop, points, params, outputs, args.tau, args.atoms, args.epsilon)
    if args.format == "json" and spec.tau == math.inf:
        raise InvalidSpec("tau=inf has no JSON encoding; use --format csv")
    blocks = _run((spec,))
    if args.format == "json":
        head = {"kind": "sweep", "spec": spec.to_dict()}
        return _json_blocks(blocks, axis, head, statuses)
    return _csv_blocks(blocks, axis, _sweep_meta(spec), statuses)


def _run_preset_mode(args: argparse.Namespace, statuses: Counter | None):
    preset: FigurePreset = figure_preset(args.preset)
    labels, specs = zip(*preset.curves)
    blocks, axis = _run(specs, labels), specs[0].axis
    if args.format == "json":
        head = {
            "kind": "preset",
            "id": preset.id,
            "description": preset.description,
            "curves": [{"label": label, "spec": spec.to_dict()} for label, spec in preset.curves],
        }
        return _json_blocks(blocks, axis, head, statuses)
    meta = [f"tricarl preset {preset.id}", preset.description]
    return _csv_blocks(blocks, axis, meta, statuses)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    effective_argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(effective_argv)
    # the rows per status of a sweep or preset, counted block by block for the sidecar
    statuses = None if args.out is None else Counter()
    try:
        if args.oracle and (args.preset or args.sweep):
            raise InvalidSpec("--oracle applies to point reports only")
        if args.preset:
            names = ("rho", "tau", "sweep", *_RUN_DEFAULTS)
            given = ", ".join(f"--{name}" for name in names if getattr(args, name) is not None)
            if given:
                raise InvalidSpec(f"--preset sets its own parameters; drop {given}")
            pieces = _run_preset_mode(args, statuses)
        else:
            for name, default in _RUN_DEFAULTS.items():
                if getattr(args, name) is None:
                    setattr(args, name, default)
            if args.rho is None:
                raise InvalidSpec("--rho is required without --preset")
            params = ModelParams(args.rho, args.delta, args.gamma1, args.gamma2, args.kappa)
            if args.sweep:
                pieces = _run_sweep_mode(args, params, statuses)
            else:
                pieces, statuses = [_run_point(args, params)], None
        # a sweep's or preset's blocks are evaluated as they are written
        _emit(pieces, args.out, effective_argv, statuses)
    except InvalidSpec as exc:
        return _report_error(exc.code, exc, EXIT_INVALID)
    except (TricarlError, np.linalg.LinAlgError) as exc:
        return _report_error(getattr(exc, "code", "error"), exc, EXIT_NUMERICAL)
    except OSError as exc:  # --out into a missing directory, say
        return _report_error(InvalidSpec.code, exc, EXIT_INVALID)
    return EXIT_OK

if __name__ == "__main__":
    sys.exit(main())
