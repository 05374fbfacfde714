"""Sweep engine behind the command line: grids, presets, row evaluation.

A sweep varies one axis (delta, tau, gamma = both atomic rates together,
or kappa) over a uniform grid at otherwise fixed parameters and evaluates
a requested set of scalar observables per grid point.  A row that fails a
guard does not abort the sweep: the failure is recorded in a per-row
status column, and undefined observables (vacuum 0/0) stay empty.

Every row, of a sweep, a preset or a point report (``evolve_point``, one
row), is one pass of stacked kernels (``_pass``): cubic roots, the gain
where asked, covariance, observables and separability tests, run only as
far along this pipeline as the requested outputs need (``_REGISTRY``).
Every row takes the same closed form, the exceptional points and tau = inf
included.  Each kernel returns its guards as per-row masks, not a status.
A row's status is the code of the first guard it fails in pipeline order:
non-finite roots, the covariance's ("not_stable" at tau = inf, where a
mode does not decay, first), the observables', the separability tests',
and last, in a sweep, a non-finite requested cell; one ``first_failure``
per block (``_table``) or ``raise_failure`` per point report
(``evolve_point``) decides it.  Sweeps are (curves, points) blocks of up
to ``_CHUNK_ROWS`` rows: a preset stacks consecutive curves that share
their points, tau, atom number and epsilon, a longer curve is split along
its points, and a tau axis solves one cubic per curve.  A block is one
pass and one table.  Its one LAPACK call, the batched ``eigvalsh`` of the
separability tests, sees only finite entries; should it raise all the
same, its error ends the whole run.

Figure presets are data: ``presets.PRESETS`` maps each id to a description
and one (label, SweepSpec fields) pair per curve, and ``figure_preset``
turns only the requested entry into validated sweeps.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

# covariance, mode_observables, physicality, separability_report: the one-state
# facade, which this module does not call; imported for the benchmark tracer to hook
from .covariance import _covariance_stack, covariance, ode_oracle
from .dynamics import _eigenvalues, cubic_coefficients, cubic_roots, gain, solve_cubic
from .entanglement import _physicality_floor, _separability_stack, physicality, separability_report
from .errors import InvalidSpec, NonFinite, first_failure, raise_failure
from .model import ModelParams, ParamStack, derive
from .observables import _FIELDS, CROSS_PAIRS, _defined_cells, _observable_stack, mode_observables
from .presets import PRESETS

# the stages of a pass, in pipeline order; a pass runs them up to the last
# one its outputs need (the covariance runs with its observables' guards)
_ROOTS, _OBSERVABLES, _SEPARABILITY = range(3)
_PAIR_NAMES = [f"{i}{j}" for i, j in CROSS_PAIRS]
# output name -> (stage, field, index): the stage that computes the output,
# the field of that stage's results and the output's position on the
# field's last axis (None for one value per row)
_REGISTRY = {
    **{f"n{k + 1}": (_OBSERVABLES, "n", k) for k in range(3)},
    **{f"xi{pair}": (_OBSERVABLES, "xi", k) for k, pair in enumerate(_PAIR_NAMES)},
    **{f"g2_{pair}": (_OBSERVABLES, "g2_cross", k) for k, pair in enumerate(_PAIR_NAMES)},
    "bunching": (_OBSERVABLES, "bunching", None),
    "gain": (_ROOTS, "gain", None),
    **{f"mineig_gamma{k + 1}": (_SEPARABILITY, "gammas", k) for k in range(3)},
    **{f"mineig_s{pair}": (_SEPARABILITY, "pairs", k) for k, pair in enumerate(_PAIR_NAMES)},
    "class": (_SEPARABILITY, "class", None),
}
OUTPUTS = tuple(_REGISTRY)

AXES = ("delta", "tau", "gamma", "kappa")

MAX_POINTS = 10**6
# Rows per batched evaluation; bounds the temporaries of a long sweep (about
# 8 MB at this size with every output requested; larger blocks cost no less
# per row).
_CHUNK_ROWS = 1024
# curves with equal keys can share a block
_BLOCK_KEY = operator.attrgetter("axis", "outputs", "points", "tau", "atom_number", "epsilon")


def _last_stage(outputs) -> int:
    return max(_REGISTRY[name][0] for name in outputs)


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
        object.__setattr__(self, "points", int(self.points))  # a numpy integer writes no JSON
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
        if self.axis != "tau" and self.tau is None and _last_stage(self.outputs) > _ROOTS:
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
        if self.axis == "tau" and self.tau is not None:
            raise InvalidSpec(f"a tau sweep takes no fixed tau, got tau={self.tau!r}")

    def grid(self) -> np.ndarray:
        # halving is exact for normal floats: linspace(start, stop) with no overflow of the span
        return 2.0 * np.linspace(0.5 * self.start, 0.5 * self.stop, self.points)

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


def _stack(specs, values: np.ndarray) -> tuple[ParamStack, np.ndarray | float | None]:
    """Model parameters and evolution times of a block of curves at their
    (curves, points) grid values: a fixed field that every curve shares
    stays a scalar, the others are (curves, 1) arrays."""
    fields = {}
    for name in ParamStack._fields:
        column = [getattr(spec.fixed, name) for spec in specs]
        shared = column.count(column[0]) == len(column)
        fields[name] = column[0] if shared else np.array(column)[:, np.newaxis]
    axis, tau = specs[0].axis, specs[0].tau
    if axis == "tau":
        tau = values
    elif axis == "gamma":
        fields.update(gamma1=values, gamma2=values)
    else:
        fields[axis] = values
    return ParamStack(**fields), tau


def _pass(
    params, roots, tau, outputs, atom_number: float, epsilon: float, observable_names=None
) -> tuple[dict, list]:
    """The pipeline on a stack of rows (or one), from their cubic roots
    (solved here where ``roots`` is None) as far as ``outputs`` need: the
    computed fields as (values, defined) pairs, C as "covariance", and the
    kernels' guards in pipeline order (roots, covariance, observables,
    separability; see the module notes), from which the caller decides
    each row's status in one call.  The eigenvalues are formed once, from
    the roots and ``derive``.  The observable fields computed are
    ``observable_names``, by default those that ``outputs`` read; their
    guards run whatever is asked.  Overflow reads inf or NaN, which the
    guards and the callers report, never a numpy warning.  A bad
    ``atom_number`` or ``epsilon`` raises ValueError, before any status is
    decided."""
    last = _last_stage(outputs)
    with np.errstate(all="ignore"):
        derived = derive(params)
        if roots is None:
            roots = solve_cubic(cubic_coefficients(derived, params.rho))
        finite = np.isfinite(roots).all(axis=-1)
        guards = [("non_finite", ~finite)]
        fields = {}
        if "gain" in outputs:
            fields["gain"] = (gain(roots, derived.gamma_plus), finite)
        if last >= _OBSERVABLES:
            if observable_names is None:
                observable_names = [_REGISTRY[name][1] for name in outputs]
            lambdas = _eigenvalues(params, derived, roots)
            c, c_guards = _covariance_stack(params, lambdas, tau)
            observables, obs_guards = _observable_stack(c, atom_number, observable_names)
            guards += c_guards + obs_guards
            fields.update(covariance=(c, True), **observables)
        if last == _SEPARABILITY:
            gammas, pairs, labels, sep_guards = _separability_stack(c, epsilon)
            guards += sep_guards
            fields |= {"gammas": (gammas, True), "pairs": (pairs, True), "class": (labels, True)}
    return fields, guards


def _table(specs, values: np.ndarray) -> dict:
    """Columns of a block of curves that share their axis, outputs, tau,
    atom number and epsilon, at their (curves, points) grid values: grid
    values, outputs (None where undefined), status, rows in curve order.

    The status is decided here, once: the first failed guard of the
    block's ``_pass``, then a non-finite requested cell ("non_finite").  A
    failed row's cells are undefined, except that it keeps its gain when it
    failed after the roots.  Grid values are finite (see ``SweepSpec``).
    """
    spec = specs[0]
    params, tau = _stack(specs, values)
    fields, guards = _pass(params, None, tau, spec.outputs, spec.atom_number, spec.epsilon)
    dtype = object if "class" in spec.outputs else float
    cells = np.empty((len(spec.outputs), *values.shape), dtype)
    defined = np.empty(cells.shape, dtype=bool)
    for k, name in enumerate(spec.outputs):
        _, source, index = _REGISTRY[name]
        value, ok = fields[source]
        if index is not None:
            value, ok = value[..., index], ok is True or ok[..., index]
        # as an array: an object cell then holds a float, not a numpy scalar
        cells[k], defined[k] = np.asarray(value), ok
    if _last_stage(spec.outputs) > _ROOTS:
        # the numbers of the state's stages: gain and class are not checked
        checked = [_REGISTRY[name][0] > _ROOTS and name != "class" for name in spec.outputs]
        overflow = defined[checked] & ~np.isfinite(cells[checked].astype(float))
        guards.append(("non_finite", overflow.any(axis=0)))
    status = first_failure(*guards)
    defined[[name != "gain" for name in spec.outputs]] &= status == "ok"
    columns = np.where(defined, cells, None).reshape(len(spec.outputs), -1).tolist()
    return {
        spec.axis: values.ravel().tolist(),
        **dict(zip(spec.outputs, columns)),
        "status": np.broadcast_to(status, values.shape).ravel().tolist(),
    }


def _evaluate_row(spec: SweepSpec, value: float) -> dict:
    """Not called: a LAPACK error ends the run.  The name stays because the
    benchmark's tracer hooks it."""
    return {spec.axis: [value], **{name: [None] for name in spec.outputs}, "status": ["error"]}


def _concat(tables: list[dict]) -> dict:
    """One table of tables with the same columns, rows in order."""
    first, *rest = tables
    for table in rest:
        for name, column in first.items():
            column += table[name]
    return first


def _blocks(specs):
    """(curves, grid values) blocks of at most ``_CHUNK_ROWS`` rows: runs of
    consecutive curves that share their axis, outputs, points, tau, atom
    number and epsilon, stacked (curves, points); a curve longer than a
    block is split along its points."""
    for _, run in itertools.groupby(specs, _BLOCK_KEY):
        run = tuple(run)
        points = run[0].points
        per = max(1, _CHUNK_ROWS // points)
        for i in range(0, len(run), per):
            grids = np.array([spec.grid() for spec in run[i : i + per]])
            for j in range(0, points, _CHUNK_ROWS):
                yield run[i : i + per], grids[:, j : j + _CHUNK_ROWS]


def _run(specs) -> dict:
    """The table of a run of curves, rows in curve and grid order."""
    return _concat([_table(*block) for block in _blocks(specs)])


def run_sweep(spec: SweepSpec) -> dict:
    """Evaluate the sweep as a table: one list per column (the axis, each
    output, ``status``), rows in grid order.  ``as_rows`` gives row dicts.

    The one-curve case of ``run_preset``: rows are evaluated in stacks of
    ``_CHUNK_ROWS`` (see the module notes).
    """
    return _run((spec,))


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

    The sweep's ``_pass`` on one row, asked for every output, with one
    cubic solve for the covariance and the gain; at tau = inf the steady
    state.  Raises at the first failed check of tau, roots, atom_number and
    epsilon, the row's status, the oracle's tau and the computed numbers'
    finiteness.  With ``oracle=True`` the report also carries the maximum
    absolute difference between the covariance and ``ode_oracle``'s, from
    Van Loan's block exponential alone.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    roots = cubic_roots(params)
    fields, guards = _pass(params, roots, tau, OUTPUTS, atom_number, epsilon, _FIELDS)
    raise_failure(guards, "point report")
    names = "covariance", "gain", "gammas", "pairs", "class"
    c, growth, gammas, pairs, label = (fields.pop(name)[0] for name in names)
    computed = {
        "covariance": {"real": c.real.tolist(), "imag": c.imag.tolist()},
        "gain": float(growth),
        "observables": _defined_cells(fields, list),
        "separability": {
            "min_eig_gamma": gammas.tolist(),
            "min_eig_s": pairs.tolist(),
            "class": label,
            "epsilon": epsilon,
        },
        # past the status, 2C is finite: the floor's blocks cannot overflow
        "physicality": float(_physicality_floor(c)),
    }
    if oracle:
        computed["oracle_max_abs_diff"] = float(np.abs(c - ode_oracle(params, tau).c).max())
    bad = [name for name, value in computed.items() if not _all_finite(value)]
    if bad:
        raise NonFinite(f"non-finite result in {', '.join(bad)}")
    return {"params": params.to_dict(), "tau": tau, "atom_number": atom_number, **computed}


def _all_finite(value) -> bool:
    """Whether every number in a report field (nested dicts and lists of
    numbers, strings and None, which marks an undefined cell) is finite."""
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        try:  # a list of numbers, checked in one call
            return all(map(math.isfinite, value))
        except TypeError:  # or one that holds None, str or lists
            return all(map(_all_finite, value))
    return value is None or isinstance(value, str) or math.isfinite(value)


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
    one table, whose first column, ``curve``, holds each row's label.

    The curves are stacked into (curves, points) blocks of up to
    ``_CHUNK_ROWS`` rows, each evaluated in one pass (see the module notes):
    fixed parameters as (curves, 1) arrays, or scalars where every curve of
    the block shares them, so a tau preset solves one cubic per curve.
    """
    labels = []
    for label, spec in preset.curves:
        labels += [label] * spec.points
    return {"curve": labels, **_run([spec for _, spec in preset.curves])}
