"""Sweep engine behind the command line: grids, presets, row evaluation.

A sweep varies one axis (delta, tau, gamma = both atomic rates together,
or kappa) over a uniform grid at otherwise fixed parameters and evaluates
a requested set of scalar observables per grid point.  Rows never abort
the sweep: failures are recorded in a per-row status column and undefined
observables (vacuum 0/0) stay empty.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import covariance, ode_oracle
from .dynamics import cubic_roots, gain
from .entanglement import physicality, quadrature_covariance, separability_report
from .errors import InvalidSpec, NonFinite, TricarlError
from .model import ModelParams, derive
from .observables import mode_observables
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

    def point(self, value: float) -> tuple[ModelParams, float | None]:
        """Model parameters and evolution time at one grid value."""
        if self.axis == "delta":
            return self.fixed.replace(delta=value), self.tau
        if self.axis == "tau":
            return self.fixed, value
        if self.axis == "gamma":
            return self.fixed.replace(gamma1=value, gamma2=value), self.tau
        return self.fixed.replace(kappa=value), self.tau

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


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[dict]:
    """Evaluate the sweep; rows come back in grid order.

    ``workers`` defaults to the available parallelism; the grid points are
    independent, so they may be evaluated concurrently.
    """
    values = spec.grid()
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(values) < 4:
        return [_evaluate_row(spec, v) for v in values]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda v: _evaluate_row(spec, v), values))


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
    """Run every curve of a preset; rows gain a leading curve label."""
    rows: list[dict] = []
    for label, spec in preset.curves:
        for row in run_sweep(spec, workers):
            rows.append({"curve": label, **row})
    return rows
