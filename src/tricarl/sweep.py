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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import _covariance_stack, covariance, ode_oracle
from .dynamics import cubic_coefficients, cubic_roots, gain, solve_cubic
from .entanglement import (
    _separability_stack,
    physicality,
    quadrature_covariance,
    separability_report,
)
from .errors import InvalidSpec, NonFinite, first_failure
from .model import ModelParams, ParamStack, derive
from .observables import CROSS_PAIRS, _observable_stack, mode_observables
from . import presets as _presets

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
        if not self.start < self.stop:
            raise InvalidSpec(
                f"need start < stop, got start={self.start!r} stop={self.stop!r}"
            )
        if not 2 <= self.points <= MAX_POINTS:
            raise InvalidSpec(f"points must be in [2, {MAX_POINTS}], got {self.points!r}")
        if not self.outputs:
            raise InvalidSpec("outputs must not be empty")
        unknown = [name for name in self.outputs if name not in OUTPUTS]
        if unknown:
            raise InvalidSpec(f"unknown outputs {unknown}; choose from {OUTPUTS}")
        if self.axis != "tau" and self.tau is None and self._needs_state():
            raise InvalidSpec("state observables on a non-tau axis require tau")
        if self.tau is not None and self.tau < 0:
            raise InvalidSpec(f"tau must be >= 0, got {self.tau!r}")
        if self.axis in ("gamma", "kappa") and self.start < 0:
            raise InvalidSpec(f"{self.axis} grid must be non-negative")
        if self.axis == "tau" and self.start < 0:
            raise InvalidSpec("tau grid must be non-negative")
        if self.atom_number <= 0:
            raise InvalidSpec(f"atom_number must be > 0, got {self.atom_number!r}")

    def _needs_state(self) -> bool:
        return any(name in _STATE_OUTPUTS for name in self.outputs)

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

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
            points=int(record["points"]),
            fixed=ModelParams.from_dict(record["fixed"]),
            outputs=tuple(record["outputs"]),
            tau=None if record.get("tau") is None else float(record["tau"]),
            atom_number=float(record.get("atom_number", 1e6)),
            epsilon=float(record.get("epsilon", 1e-9)),
        )


def _non_finite_fields(value, path: str = ""):
    """Paths of the inf/NaN floats in a (nested) dict or list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite_fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _non_finite_fields(item, f"{path}[{index}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path


def _require_finite(record: dict) -> dict:
    """Return ``record``; raise NonFinite if any value in it overflowed."""
    bad = list(_non_finite_fields(record))
    if bad:
        raise NonFinite(f"non-finite result in {', '.join(bad)}")
    return record


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

    The status is the first guard the row fails, "ok" if none: a non-finite
    grid value off the tau axis ("error"), non-finite roots, then the
    guards of the covariance, observables and separability kernels, then a
    non-finite requested cell ("non_finite").  A failed row's cells are
    undefined, except that it keeps its gain when it failed after the roots.
    """
    params, tau = spec.stack(values)
    dp = derive(params)
    roots = solve_cubic(cubic_coefficients(dp, params.rho))
    status = first_failure(
        ("error", ~np.isfinite(values) & (spec.axis != "tau")),
        ("non_finite", ~np.isfinite(roots).all(axis=-1)),
    )
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


def _rows(spec: SweepSpec, values: np.ndarray) -> list[dict]:
    with np.errstate(all="ignore"):
        columns, status = _batch_columns(spec, values)
    cells = []
    for name in spec.outputs:
        value, defined = (np.broadcast_to(x, values.shape).tolist() for x in columns[name])
        cells.append([v if d else None for v, d in zip(value, defined)])
    keys = (spec.axis, *spec.outputs, "status")
    return [dict(zip(keys, row)) for row in zip(values.tolist(), *cells, status.tolist())]


def _evaluate_row(spec: SweepSpec, value: float) -> dict:
    """The row of a grid value whose own one-row pass raised a LAPACK
    error: status "error" and empty cells."""
    return {spec.axis: value, **dict.fromkeys(spec.outputs), "status": "error"}


def _evaluate_chunk(spec: SweepSpec, values: np.ndarray) -> list[dict]:
    """Rows of a chunk.  A LAPACK failure on one row stops the whole stack,
    so a failing chunk is split in halves until the failure is down to its
    own row: one bad row of N costs about 2 log2(N) stacked passes."""
    try:
        return _rows(spec, values)
    except np.linalg.LinAlgError:
        if len(values) == 1:
            return [_evaluate_row(spec, values.item())]
        half = len(values) // 2
        return _evaluate_chunk(spec, values[:half]) + _evaluate_chunk(spec, values[half:])


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep; rows come back in grid order.

    Rows are evaluated in stacks of ``_CHUNK_ROWS`` (see the module notes).
    """
    values = spec.grid()
    rows: list[dict] = []
    for start in range(0, len(values), _CHUNK_ROWS):
        rows += _evaluate_chunk(spec, values[start : start + _CHUNK_ROWS])
    return rows


def evolve_point(
    params: ModelParams,
    tau: float,
    atom_number: float = 1e6,
    epsilon: float = 1e-9,
    oracle: bool = False,
) -> dict:
    """Full single-point report: covariance, observables, separability.

    With ``oracle=True`` the report also carries the maximum absolute
    difference between the closed-form covariance and the independent
    moment-ODE integration.
    """
    state = covariance(params, tau)
    obs = mode_observables(state, atom_number)
    report = separability_report(state, epsilon)
    roots = cubic_roots(params)
    out = {
        "params": params.to_dict(),
        "tau": tau,
        "atom_number": atom_number,
        "covariance": {
            "real": state.c.real.tolist(),
            "imag": state.c.imag.tolist(),
        },
        "gain": gain(roots, derive(params).gamma_plus),
        "observables": {
            "n": list(obs.n),
            "var_n": list(obs.var_n),
            "g2_auto": list(obs.g2_auto),
            "g2_cross": list(obs.g2_cross),
            "xi": list(obs.xi),
            "bunching": obs.bunching,
        },
        "separability": {
            "min_eig_gamma": list(report.min_eig_gamma),
            "min_eig_s": list(report.min_eig_s),
            "class": report.class_label,
            "epsilon": report.epsilon,
        },
        "physicality": physicality(quadrature_covariance(state)),
    }
    if oracle:
        reference = ode_oracle(params, tau)
        out["oracle_max_abs_diff"] = float(np.abs(state.c - reference.c).max())
    return _require_finite(out)


@dataclass(frozen=True)
class FigurePreset:
    """A figure's parameter sets: one labeled sweep per plotted curve."""

    id: str
    description: str
    curves: tuple[tuple[str, SweepSpec], ...] = field(default_factory=tuple)


def figure_preset(preset_id: str) -> FigurePreset:
    """Look up a preset by id (fig1 .. fig15, plus a/b panel forms)."""
    try:
        return _presets.build(preset_id)
    except KeyError as exc:
        raise InvalidSpec(f"unknown preset {preset_id!r}") from exc


def run_preset(preset: FigurePreset) -> list[dict]:
    """Run every curve of a preset; rows gain a leading curve label."""
    rows: list[dict] = []
    for label, spec in preset.curves:
        for row in run_sweep(spec):
            rows.append({"curve": label, **row})
    return rows
