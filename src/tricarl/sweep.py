"""Sweep engine behind the command line: grids, presets, row evaluation.

A sweep varies one axis (delta, tau, gamma = both atomic rates together,
or kappa) over a uniform grid at otherwise fixed parameters and evaluates
a requested set of scalar observables per grid point.  Rows never abort
the sweep: failures are recorded in a per-row status column and undefined
observables (vacuum 0/0) stay empty.

The grid is evaluated as array programs over stacks of rows: one stacked
cubic solve, eigensystem, covariance, observable and separability pass per
chunk of rows (one spectrum for a whole tau axis).  Rows whose roots are
too close for the closed form get Van Loan's block exponential inside the
stack.  Each kernel evaluates its guards as per-row masks, and a row's
status is the code of the first guard it fails, in pipeline order.  Every
row is evaluated once; only when a stacked LAPACK call raises is the chunk
evaluated again, bisected down to the row that fails, so the failure costs
only its own row.

Figure presets are data: ``presets.PRESETS`` maps each id to a description
and one (label, SweepSpec fields) pair per curve, and ``figure_preset``
turns only the requested entry into validated sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# covariance, mode_observables, physicality, separability_report: the one-state
# facade, which this module does not call; imported for the benchmark tracer to hook
from .covariance import _covariance_stack, covariance, ode_oracle
from .dynamics import cubic_coefficients, cubic_roots, gain, solve_cubic
from .entanglement import _physicality_floor, _separability_stack, physicality, separability_report
from .errors import InvalidSpec, NonFinite, first_failure, raise_failure
from .model import ModelParams, ParamStack, derive
from .observables import CROSS_PAIRS, _defined_cells, _observable_stack, mode_observables
from .presets import PRESETS

OUTPUTS = (
    "n1",
    "n2",
    "n3",
    "xi12",
    "xi13",
    "xi23",
    "g2_12",
    "g2_13",
    "g2_23",
    "bunching",
    "gain",
    "mineig_gamma1",
    "mineig_gamma2",
    "mineig_gamma3",
    "mineig_s12",
    "mineig_s13",
    "mineig_s23",
    "class",
)

AXES = ("delta", "tau", "gamma", "kappa")

_STATE_OUTPUTS = frozenset(OUTPUTS) - {"gain"}
_ENTANGLEMENT_OUTPUTS = frozenset(
    name for name in OUTPUTS if name.startswith("mineig_") or name == "class"
)
MAX_POINTS = 10**6
# Rows per batched evaluation; bounds the temporaries of a long sweep (about
# 8 MB at this size with every output requested; larger chunks cost no less
# per row).
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class SweepSpec:
    """One validated sweep: axis, grid, fixed parameters and outputs."""

    axis: str
    start: float
    stop: float
    points: int
    fixed: ModelParams
    outputs: tuple[str, ...]
    tau: float | None = None
    atom_number: float = 1e6
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise InvalidSpec(f"axis must be one of {AXES}, got {self.axis!r}")
        if not -math.inf < self.start < self.stop < math.inf:
            raise InvalidSpec(
                f"need finite start < stop, got start={self.start!r} stop={self.stop!r}"
            )
        if isinstance(self.points, bool) or not isinstance(self.points, (int, np.integer)):
            raise InvalidSpec(f"points must be an integer, got {self.points!r}")
        if not 2 <= self.points <= MAX_POINTS:
            raise InvalidSpec(f"points must be in [2, {MAX_POINTS}], got {self.points!r}")
        if not self.outputs:
            raise InvalidSpec("outputs must not be empty")
        unknown = [name for name in self.outputs if name not in OUTPUTS]
        if unknown:
            raise InvalidSpec(f"unknown outputs {unknown}; choose from {OUTPUTS}")
        repeated = sorted({name for name in self.outputs if self.outputs.count(name) > 1})
        if repeated:
            raise InvalidSpec(f"outputs repeat {repeated}; name each output once")
        if self.axis != "tau" and self.tau is None and self._needs_state():
            raise InvalidSpec("state observables on a non-tau axis require tau")
        if self.tau is not None and not self.tau >= 0:
            raise InvalidSpec(f"tau must be >= 0, got {self.tau!r}")
        if self.axis in ("gamma", "kappa") and self.start < 0:
            raise InvalidSpec(f"{self.axis} grid must be non-negative")
        if self.axis == "tau" and self.start < 0:
            raise InvalidSpec("tau grid must be non-negative")
        if not 0 < self.atom_number < math.inf:
            raise InvalidSpec(f"atom_number must be finite and > 0, got {self.atom_number!r}")
        if not 0 <= self.epsilon < math.inf:
            raise InvalidSpec(f"epsilon must be finite and >= 0, got {self.epsilon!r}")

    def _needs_state(self) -> bool:
        return any(name in _STATE_OUTPUTS for name in self.outputs)

    def grid(self) -> np.ndarray:
        # halving is exact for normal floats: linspace(start, stop) with no overflow of the span
        return 2.0 * np.linspace(0.5 * self.start, 0.5 * self.stop, self.points)

    def stack(self, values: np.ndarray) -> tuple[ParamStack, np.ndarray | float | None]:
        """Model parameters and evolution times at many grid values."""
        fields = self.fixed.to_dict()
        tau = self.tau
        if self.axis == "tau":
            tau = values
        elif self.axis == "gamma":
            fields.update(gamma1=values, gamma2=values)
        else:
            fields[self.axis] = values
        return ParamStack(**fields), tau

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "start": self.start,
            "stop": self.stop,
            "points": self.points,
            "fixed": self.fixed.to_dict(),
            "outputs": list(self.outputs),
            "tau": self.tau,
            "atom_number": self.atom_number,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SweepSpec":
        return cls(
            axis=record["axis"],
            start=float(record["start"]),
            stop=float(record["stop"]),
            points=record["points"],
            fixed=ModelParams.from_dict(record["fixed"]),
            outputs=tuple(record["outputs"]),
            tau=None if record.get("tau") is None else float(record["tau"]),
            atom_number=float(record.get("atom_number", 1e6)),
            epsilon=float(record.get("epsilon", 1e-9)),
        )


def _then(status, later):
    """Per-row status: ``status`` where it failed, ``later`` where it is "ok"."""
    if np.ndim(status) == 0 and status == "ok":
        return later
    return np.where(status == "ok", later, status)


def _split(columns: dict, prefix: str, field, suffixes) -> None:
    """Put the last-axis entries of a (values, defined) field in columns."""
    value, defined = field
    for k, suffix in enumerate(suffixes):
        columns[prefix + suffix] = (value[..., k], defined is True or defined[..., k])


def _batch_columns(spec: SweepSpec, values: np.ndarray) -> tuple[dict, np.ndarray]:
    """The requested columns of a chunk of grid values, as (values, defined)
    array pairs, and each row's status.

    The status is the first guard the row fails, "ok" if none: non-finite
    roots, then the guards of the covariance, observables and separability
    kernels, then a non-finite requested cell ("non_finite").  A failed
    row's cells are undefined, except that it keeps its gain when it failed
    after the roots.  Grid values are finite (see ``SweepSpec``).
    """
    params, tau = spec.stack(values)
    dp = derive(params)
    roots = solve_cubic(cubic_coefficients(dp, params.rho))
    status = first_failure(("non_finite", ~np.isfinite(roots).all(axis=-1)))
    columns: dict = {}
    if "gain" in spec.outputs:
        columns["gain"] = (gain(roots, dp.gamma_plus), status == "ok")
    if spec._needs_state():
        c, c_status = _covariance_stack(params, roots, tau, status == "ok")
        fields, obs_status = _observable_stack(c, spec.atom_number)
        status = _then(status, _then(c_status, obs_status))
        columns["bunching"] = fields["bunching"]
        _split(columns, "n", fields["n"], ("1", "2", "3"))
        pairs = [f"{i}{j}" for i, j in CROSS_PAIRS]
        _split(columns, "xi", fields["xi"], pairs)
        _split(columns, "g2_", fields["g2_cross"], pairs)
        if any(name in _ENTANGLEMENT_OUTPUTS for name in spec.outputs):
            gammas, pair_eigs, labels, sep_status = _separability_stack(c, spec.epsilon)
            status = _then(status, sep_status)
            columns["class"] = (labels, True)
            _split(columns, "mineig_gamma", (gammas, True), ("1", "2", "3"))
            _split(columns, "mineig_s", (pair_eigs, True), pairs)
        overflow = np.zeros(values.shape, dtype=bool)
        for name in spec.outputs:
            if name != "gain" and name != "class":
                value, defined = columns[name]
                overflow |= defined & ~np.isfinite(value)
        status = _then(status, first_failure(("non_finite", overflow)))
        ok = status == "ok"
        for name in spec.outputs:
            if name != "gain":
                value, defined = columns[name]
                columns[name] = (value, defined & ok)
    return columns, np.broadcast_to(status, values.shape)


def _table(spec: SweepSpec, values: np.ndarray) -> dict:
    """Columns of a chunk: grid values, outputs (None where undefined), status."""
    with np.errstate(all="ignore"):
        columns, status = _batch_columns(spec, values)
    table = {spec.axis: values.tolist()}
    for name in spec.outputs:
        value, defined = (np.broadcast_to(x, values.shape) for x in columns[name])
        table[name] = np.where(defined, value, None).tolist()
    table["status"] = status.tolist()
    return table


def _evaluate_row(spec: SweepSpec, value: float) -> dict:
    """The one-row table of a grid value whose own one-row pass raised a
    LAPACK error: status "error" and empty cells."""
    return {spec.axis: [value], **{name: [None] for name in spec.outputs}, "status": ["error"]}


def _concat(tables: list[dict]) -> dict:
    """One table of tables with the same columns, rows in order."""
    first, *rest = tables
    for table in rest:
        for name, column in first.items():
            column += table[name]
    return first


def _evaluate_chunk(spec: SweepSpec, values: np.ndarray) -> dict:
    """Table of a chunk.  A LAPACK failure on one row stops the whole stack,
    so a failing chunk is split in halves until the failure is down to its
    own row: one bad row of N costs about 2 log2(N) stacked passes."""
    try:
        return _table(spec, values)
    except np.linalg.LinAlgError:
        if len(values) == 1:
            return _evaluate_row(spec, values.item())
        half = len(values) // 2
        return _concat([_evaluate_chunk(spec, values[:half]), _evaluate_chunk(spec, values[half:])])


def run_sweep(spec: SweepSpec) -> dict:
    """Evaluate the sweep as a table: one list per column (the axis, each
    output, ``status``), rows in grid order.  ``as_rows`` gives row dicts.

    Rows are evaluated in stacks of ``_CHUNK_ROWS`` (see the module notes).
    """
    values = spec.grid()
    starts = range(0, len(values), _CHUNK_ROWS)
    return _concat([_evaluate_chunk(spec, values[i : i + _CHUNK_ROWS]) for i in starts])


def as_rows(table: dict) -> list[dict]:
    """The rows of a sweep or preset table, one dict per row."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def evolve_point(
    params: ModelParams,
    tau: float,
    atom_number: float = 1e6,
    epsilon: float = 1e-9,
    oracle: bool = False,
) -> dict:
    """Full single-point report: covariance, observables, separability.

    The sweep's stack kernels on one row, with one cubic solve for the
    covariance and the gain; raises at the first failed check of tau,
    roots, covariance, atom_number, observables, separability (whose
    guards cover physicality), oracle step count and non-finite fields.  With
    ``oracle=True`` the report also carries the maximum absolute
    difference between the closed-form covariance and the independent
    moment-ODE integration.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    roots = cubic_roots(params)
    stack = ParamStack(params.rho, params.delta, params.gamma1, params.gamma2, params.kappa)
    c, status = _covariance_stack(stack, roots, tau, True)
    raise_failure(status, "covariance")
    fields, status = _observable_stack(c, atom_number)
    raise_failure(status, "covariance")
    gammas, pairs, label, status = _separability_stack(c, epsilon)
    raise_failure(status, "separability tests")
    growth = gain(roots, derive(params).gamma_plus)
    floor = float(_physicality_floor(c))
    deviation = float(np.abs(c - ode_oracle(params, tau).c).max()) if oracle else 0.0
    numbers = {
        "tau": tau,
        "covariance": c,
        "gain": growth,
        "observables": np.hstack([value for value, _ in fields.values()]),
        "separability": (gammas, pairs),
        "physicality": floor,
        "oracle_max_abs_diff": deviation,
    }
    bad = [name for name, value in numbers.items() if not np.isfinite(value).all()]
    # undefined (vacuum 0/0) cells are reported as None, not checked
    if "observables" in bad and all(np.isfinite(v)[d].all() for v, d in fields.values()):
        bad.remove("observables")
    if bad:
        raise NonFinite(f"non-finite result in {', '.join(bad)}")
    out = {
        "params": params.to_dict(),
        "tau": tau,
        "atom_number": atom_number,
        "covariance": {"real": c.real.tolist(), "imag": c.imag.tolist()},
        "gain": growth,
        "observables": _defined_cells(fields, list),
        "separability": {
            "min_eig_gamma": gammas.tolist(),
            "min_eig_s": pairs.tolist(),
            "class": label,
            "epsilon": epsilon,
        },
        "physicality": floor,
    }
    if oracle:
        out["oracle_max_abs_diff"] = deviation
    return out


@dataclass(frozen=True)
class FigurePreset:
    """A figure's parameter sets: one labeled sweep per plotted curve."""

    id: str
    description: str
    curves: tuple[tuple[str, SweepSpec], ...] = field(default_factory=tuple)


def figure_preset(preset_id: str) -> FigurePreset:
    """Expand the table entry of a preset id (fig1 .. fig15, plus a/b panel
    forms) into validated sweeps."""
    try:
        description, curves = PRESETS[preset_id]
    except KeyError as exc:
        raise InvalidSpec(f"unknown preset {preset_id!r}") from exc
    return FigurePreset(
        preset_id, description, tuple((label, SweepSpec(**fields)) for label, fields in curves)
    )


def run_preset(preset: FigurePreset) -> dict:
    """Run every curve of a preset (they share one axis and output set) as
    one table, whose first column, ``curve``, holds each row's label."""
    tables = [run_sweep(spec) for _, spec in preset.curves]
    labels = [label for (label, _), table in zip(preset.curves, tables) for _ in table["status"]]
    return {"curve": labels, **_concat(tables)}
