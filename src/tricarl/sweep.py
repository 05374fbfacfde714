"""Sweep engine behind the command line: grids, presets, row evaluation.

A sweep varies one axis (delta, tau, gamma = both atomic rates together,
or kappa) over a uniform grid at otherwise fixed parameters and evaluates
a requested set of scalar observables per grid point.  Rows never abort
the sweep: failures are recorded in a per-row status column and undefined
observables (vacuum 0/0) stay empty.

The grid is evaluated as array programs over stacks of rows: one stacked
cubic solve, eigensystem, closed-form covariance, observable and
separability pass per chunk of rows (one spectrum for a whole tau axis).
Every guard of the single-row path becomes a per-row mask there; a masked
row is evaluated again on its own by ``_evaluate_row``, so statuses, empty
cells and the degenerate-spectrum fallback are the single-row path's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import _closed_form_stack, covariance, ode_oracle
from .dynamics import _spectral_stack, cubic_coefficients, cubic_roots, gain, solve_cubic
from .entanglement import (
    _separability_stack,
    physicality,
    quadrature_covariance,
    separability_report,
)
from .errors import InvalidSpec, NonFinite, TricarlError
from .model import ModelParams, ParamStack, derive
from .observables import _observable_stack, mode_observables
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

    def point(self, value: float) -> tuple[ModelParams, float | None]:
        """Model parameters and evolution time at one grid value."""
        params, tau = self.stack(value)
        return ModelParams(**params._asdict()), tau

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


def _evaluate_row(spec: SweepSpec, value: float) -> dict:
    row: dict = {spec.axis: float(value)}
    for name in spec.outputs:
        row[name] = None
    status = "ok"
    try:
        params, tau = spec.point(float(value))
        if "gain" in spec.outputs:
            row["gain"] = gain(cubic_roots(params), derive(params).gamma_plus)
        if spec._needs_state():
            state = covariance(params, float(tau))
            obs = mode_observables(state, spec.atom_number)
            values = {
                "n1": obs.n[0],
                "n2": obs.n[1],
                "n3": obs.n[2],
                "xi12": obs.xi[0],
                "xi13": obs.xi[1],
                "xi23": obs.xi[2],
                "g2_12": obs.g2_cross[0],
                "g2_13": obs.g2_cross[1],
                "g2_23": obs.g2_cross[2],
                "bunching": obs.bunching,
            }
            if any(name in _ENTANGLEMENT_OUTPUTS for name in spec.outputs):
                report = separability_report(state, spec.epsilon)
                values.update(
                    {
                        "mineig_gamma1": report.min_eig_gamma[0],
                        "mineig_gamma2": report.min_eig_gamma[1],
                        "mineig_gamma3": report.min_eig_gamma[2],
                        "mineig_s12": report.min_eig_s[0],
                        "mineig_s13": report.min_eig_s[1],
                        "mineig_s23": report.min_eig_s[2],
                        "class": report.class_label,
                    }
                )
            requested = {name: values[name] for name in spec.outputs if name in values}
            row.update(_require_finite(requested))
    except (TricarlError, ValueError, np.linalg.LinAlgError) as exc:
        status = getattr(exc, "code", "error")
    row["status"] = status
    return row


def _batch_columns(spec: SweepSpec, values: np.ndarray) -> tuple[dict, np.ndarray]:
    """The requested columns of a chunk of grid values, as (values, defined)
    array pairs, and the mask of rows that passed every guard of
    ``_evaluate_row``; the cells of the other rows are meaningless."""
    params, tau = spec.stack(values)
    dp = derive(params)
    roots = solve_cubic(cubic_coefficients(dp, params.rho))
    ok = np.isfinite(values) & np.isfinite(roots).all(axis=-1)
    columns: dict = {}
    if "gain" in spec.outputs:
        columns["gain"] = (gain(roots, dp.gamma_plus), True)
    if spec._needs_state():
        spectra, regular = _spectral_stack(params, roots)
        c, c_ok = _closed_form_stack(spectra, tau)
        observables, obs_ok = _observable_stack(c, spec.atom_number)
        ok &= regular & c_ok & obs_ok
        columns.update(observables)
        if any(name in _ENTANGLEMENT_OUTPUTS for name in spec.outputs):
            gammas, pairs, labels, sep_ok = _separability_stack(c, spec.epsilon)
            ok &= sep_ok
            columns["class"] = (labels, True)
            for k, suffix in enumerate(("gamma1", "gamma2", "gamma3")):
                columns[f"mineig_{suffix}"] = (gammas[..., k], True)
            for k, suffix in enumerate(("s12", "s13", "s23")):
                columns[f"mineig_{suffix}"] = (pairs[..., k], True)
        for name in spec.outputs:
            if name != "gain" and name != "class":
                value, defined = columns[name]
                ok &= ~np.asarray(defined) | np.isfinite(value)
    return columns, ok


def _evaluate_chunk(spec: SweepSpec, values: np.ndarray) -> list[dict]:
    try:
        with np.errstate(all="ignore"):
            columns, ok = _batch_columns(spec, values)
    except np.linalg.LinAlgError:
        # a LAPACK failure on one row stops the whole stack: go row by row
        return [_evaluate_row(spec, value) for value in values]
    cells = []
    for name in spec.outputs:
        value, defined = (np.broadcast_to(x, values.shape).tolist() for x in columns[name])
        cells.append([v if d else None for v, d in zip(value, defined)])
    keys = (spec.axis, *spec.outputs, "status")
    return [
        dict(zip(keys, (value, *row, "ok"))) if row_ok else _evaluate_row(spec, value)
        for value, row_ok, *row in zip(
            values.tolist(), np.broadcast_to(ok, values.shape).tolist(), *cells
        )
    ]


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[dict]:
    """Evaluate the sweep; rows come back in grid order.

    Rows are evaluated in stacks of ``_CHUNK_ROWS`` (see the module notes).
    ``workers`` is deprecated and ignored: it sized a thread pool that the
    interpreter lock made slower than one thread.
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


def run_preset(preset: FigurePreset, workers: int | None = None) -> list[dict]:
    """Run every curve of a preset; rows gain a leading curve label.
    ``workers`` is deprecated and ignored, as in ``run_sweep``."""
    rows: list[dict] = []
    for label, spec in preset.curves:
        for row in run_sweep(spec):
            rows.append({"curve": label, **row})
    return rows
