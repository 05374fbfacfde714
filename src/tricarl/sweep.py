"""Sweep engine behind the command line: grids, presets, row evaluation.

A sweep varies one axis (delta, tau, gamma = both atomic rates together,
or kappa) over a uniform grid at otherwise fixed parameters and evaluates
a requested set of scalar observables per grid point.  A row that fails a
guard does not abort the sweep: the failure is recorded in a per-row
status column, and undefined observables (vacuum 0/0) stay empty.

Every row, of a sweep, a preset or a point report (``evolve_point``, one
row), is one pass of stacked kernels (``_pass``): cubic roots, the gain
where asked, covariance, observables and separability tests, each stage
run only when a requested output belongs to it (``_REGISTRY``; the
covariance for any state output), so a separability-only pass computes
no observable.  Every row takes the same closed form, the exceptional
points and tau = inf included.  Each kernel returns its guards as per-row
masks, not a status.  A row's status is the code of the first guard it
fails in pipeline order: non-finite roots, the covariance kernel's
("not_stable" at tau = inf, where a mode does not decay, first, then
Q's), C's (from ``_hermitian_part``, the check ``CovarianceState`` makes),
the vacuum floor, the separability tests', and last, in a sweep, a
non-finite requested cell; one ``first_failure`` per block (``_table``)
or ``raise_failure`` per point report (``evolve_point``) decides it.  The
stages after the covariance take C as the exact Hermitian part that
``_hermitian_part`` returns with C's guards, so they measure no Hermitian
defect.  The one-state functions make the same check of a C from outside
the package (``_checked_covariance``), then run these kernels and guards.

Sweeps are (curves, points) blocks of up to ``_CHUNK_ROWS`` rows: a
preset stacks consecutive curves that share their points, tau, atom
number and epsilon, a longer curve is split along its points, and a tau
axis solves one cubic per curve.  A block is one pass and one table.
``_run`` evaluates the blocks one at a time, as its caller asks for them:
the command line writes each block's rows before the next is computed,
and ``run_sweep`` and ``run_preset`` join the tables.  A block's one
LAPACK call, the batched ``eigvalsh`` of the separability tests, sees only
finite entries; should it raise all the same, its error ends the whole
run.

Figure presets are data: ``presets.PRESETS`` maps each id to a description
and one (label, SweepSpec fields) pair per curve, and ``figure_preset``
turns only the requested entry into validated sweeps.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

# covariance, mode_observables, physicality, separability_report: the one-state
# facade, which this module does not call; imported for the benchmark tracer to hook
from .covariance import _check_tau, _covariance_stack, _hermitian_part, covariance, ode_oracle
from .dynamics import _eigenvalues, cubic_coefficients, cubic_roots, gain, solve_cubic
from .entanglement import EPSILON, _check_epsilon, _physicality_floor, _separability_stack
from .entanglement import physicality, separability_report
from .errors import InvalidSpec, _check, first_failure, raise_failure
from .model import ModelParams, ParamStack, derive
from .observables import (
    ATOM_NUMBER,
    CROSS_PAIRS,
    _check_atom_number,
    _check_finite,
    _defined_cells,
    _observable_stack,
    _vacuum_floor,
    mode_observables,
)
from .presets import PRESETS

# the stages of a pass, in pipeline order; a pass runs the covariance for any
# state output and each stage only for its own outputs (see ``_pass``)
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


@functools.lru_cache(maxsize=64)
def _layout(outputs: tuple) -> tuple[frozenset, tuple, int]:
    """The stages of a tuple of known output names; every output but class,
    the state's first, then gain; and how many lead: the state's, whose
    cells a table checks for overflow."""
    state = [name for name in outputs if _REGISTRY[name][0] > _ROOTS and name != "class"]
    numbers = (*state, *(name for name in outputs if name == "gain"))
    return frozenset(_REGISTRY[name][0] for name in outputs), numbers, len(state)


def _stages(outputs) -> frozenset:
    return _layout(tuple(outputs))[0]


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
    atom_number: float = ATOM_NUMBER
    epsilon: float = EPSILON

    def __post_init__(self) -> None:
        _check(self.axis in AXES, "axis", self.axis, f"one of {AXES}")
        if not -math.inf < self.start < self.stop < math.inf:
            raise InvalidSpec(
                f"need finite start < stop, got start={self.start!r} stop={self.stop!r}"
            )
        integer = isinstance(self.points, (int, np.integer)) and not isinstance(self.points, bool)
        _check(integer, "points", self.points, "an integer")
        object.__setattr__(self, "points", int(self.points))  # a numpy integer writes no JSON
        _check(2 <= self.points <= MAX_POINTS, "points", self.points, f"in [2, {MAX_POINTS}]")
        if not self.outputs:
            raise InvalidSpec("outputs must not be empty")
        unknown = [name for name in self.outputs if name not in OUTPUTS]
        if unknown:
            raise InvalidSpec(f"unknown outputs {unknown}; choose from {OUTPUTS}")
        repeated = sorted({name for name in self.outputs if self.outputs.count(name) > 1})
        if repeated:
            raise InvalidSpec(f"outputs repeat {repeated}; name each output once")
        if self.axis != "tau" and self.tau is None and _stages(self.outputs) != {_ROOTS}:
            raise InvalidSpec("state observables on a non-tau axis require tau")
        if self.tau is not None:
            _check_tau(self.tau)
        if self.axis != "delta" and self.start < 0:
            raise InvalidSpec(f"{self.axis} grid must be non-negative")
        _check_atom_number(self.atom_number)
        _check_epsilon(self.epsilon)
        if self.axis == "tau" and self.tau is not None:
            raise InvalidSpec(f"a tau sweep takes no fixed tau, got tau={self.tau!r}")

    def grid(self) -> np.ndarray:
        # halving is exact for normal floats: linspace(start, stop) with no overflow of the span
        return 2.0 * np.linspace(0.5 * self.start, 0.5 * self.stop, self.points)

    def to_dict(self) -> dict:
        return {**vars(self), "fixed": self.fixed.to_dict(), "outputs": list(self.outputs)}

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
            **{k: float(v) for k, v in record.items() if k in ("atom_number", "epsilon")},
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


def _pass(params, roots, tau, outputs, atom_number: float, epsilon: float) -> tuple[dict, list]:
    """The pipeline on a stack of rows (or one), from their cubic roots
    (solved here where ``roots`` is None), each stage run only for its own
    outputs (``_REGISTRY``), the covariance for any state output: the
    computed fields as (values, defined) pairs, C as "covariance" (the
    Hermitian part from ``_hermitian_part``), and the guards in pipeline
    order (roots, covariance kernel, C's, vacuum floor, separability; see
    the module notes), from which the caller decides each row's status in
    one call.  The eigenvalues are formed once, from the roots and
    ``derive``.  Overflow reads inf or NaN, which the guards and the
    callers report, never a numpy warning.  ``atom_number`` and ``epsilon``
    are checked once (``SweepSpec``, ``evolve_point``)."""
    stages = _stages(outputs)
    with np.errstate(all="ignore"):
        derived = derive(params)
        if roots is None:
            roots = solve_cubic(cubic_coefficients(derived, params.rho))
        finite = np.isfinite(roots).all(axis=-1)
        guards = [("non_finite", ~finite)]
        fields = {}
        if "gain" in outputs:
            fields["gain"] = (gain(roots, derived.gamma_plus), finite)
        if stages != {_ROOTS}:
            lambdas = _eigenvalues(params, derived, roots)
            c, kernel_guards = _covariance_stack(params, lambdas, tau)
            c, c_guards = _hermitian_part(c)
            guards += [*kernel_guards, *c_guards, _vacuum_floor(c)]
            fields["covariance"] = (c, True)
        if _OBSERVABLES in stages:
            fields |= _observable_stack(c, atom_number)
        if _SEPARABILITY in stages:
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
    The numbers stay one float64 array up to one ``tolist``, which gives
    Python floats; only a block with an undefined cell goes through an
    object array, to hold its None.
    """
    spec = specs[0]
    _, numbers, checked = _layout(tuple(spec.outputs))
    params, tau = _stack(specs, values)
    fields, guards = _pass(params, None, tau, spec.outputs, spec.atom_number, spec.epsilon)
    cells = np.empty((len(numbers), *values.shape))
    defined = np.empty(cells.shape, dtype=bool)
    for k, name in enumerate(numbers):
        _, source, index = _REGISTRY[name]
        value, ok = fields[source]
        if index is not None:
            value, ok = value[..., index], ok is True or ok[..., index]
        cells[k], defined[k] = value, ok
    state = slice(checked)  # gain and class are not checked
    if checked:
        overflow = defined[state] & ~np.isfinite(cells[state])
        guards.append(("non_finite", overflow.any(axis=0)))
    status = first_failure(*guards)
    labels = fields["class"][0] if "class" in spec.outputs else None
    if isinstance(status, str):
        statuses = [status] * values.size
    else:
        passed = status == "ok"
        defined[state] &= passed
        if labels is not None:
            labels = np.where(passed, labels, None)
        statuses = np.broadcast_to(status, values.shape).ravel().tolist()
    if not defined.all():
        cells = np.where(defined, cells, None)
    columns = dict(zip(numbers, cells.reshape(len(numbers), values.size).tolist()))
    if labels is not None:
        columns["class"] = labels.ravel().tolist()
    return {
        spec.axis: values.ravel().tolist(),
        **{name: columns[name] for name in spec.outputs},
        "status": statuses,
    }


def _evaluate_row(spec: SweepSpec, value: float) -> dict:
    """Not called: a LAPACK error ends the run.  The name stays because the
    benchmark's tracer hooks it."""
    return {spec.axis: [value], **{name: [None] for name in spec.outputs}, "status": ["error"]}


def _concat(tables) -> dict:
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
    block is split along its points.  ``curves`` is the slice of ``specs``
    that a block holds."""
    first = 0
    for _, run in itertools.groupby(specs, _BLOCK_KEY):
        run = tuple(run)
        points = run[0].points
        per = max(1, _CHUNK_ROWS // points)
        for i in range(0, len(run), per):
            curves = slice(first + i, first + min(i + per, len(run)))
            grids = np.array([spec.grid() for spec in specs[curves]])
            for j in range(0, points, _CHUNK_ROWS):
                yield curves, grids[:, j : j + _CHUNK_ROWS]
        first += len(run)


def _run(specs, labels=None):
    """The blocks of a run of curves (``_blocks``), each as its (curves,
    points) grid values and its table, rows in curve and grid order.  With
    one label per curve, each table starts with a ``curve`` column that
    holds each row's label.  Lazy: a block is evaluated when it is asked
    for, so a caller can write one block's rows before the next exists."""
    for curves, values in _blocks(specs):
        table = _table(specs[curves], values)
        if labels is not None:
            points = values.shape[1]
            table = {"curve": [label for label in labels[curves] for _ in range(points)], **table}
        yield values, table


def run_sweep(spec: SweepSpec) -> dict:
    """Evaluate the sweep as a table: one list per column (the axis, each
    output, ``status``), rows in grid order.  ``as_rows`` gives row dicts.

    The one-curve case of ``run_preset``: rows are evaluated in stacks of
    ``_CHUNK_ROWS`` (see the module notes).
    """
    return _concat(table for _, table in _run((spec,)))


def as_rows(table: dict) -> list[dict]:
    """The rows of a sweep or preset table, one dict per row."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def evolve_point(
    params: ModelParams,
    tau: float,
    atom_number: float = ATOM_NUMBER,
    epsilon: float = EPSILON,
    oracle: bool = False,
) -> dict:
    """Full single-point report: covariance, observables, separability.

    The sweep's ``_pass`` on one row, asked for every output, with one
    cubic solve for the covariance and the gain; at tau = inf the steady
    state.  Raises at the first failed check of tau, roots, atom_number and
    epsilon, the row's status and the oracle's tau, then NonFinite naming
    the sections that hold an inf or NaN, checked as arrays before any
    ``tolist`` by ``mode_observables``' rule (``_check_finite``).  With
    ``oracle=True`` the report also carries the maximum absolute difference
    between C and ``ode_oracle``'s, from Van Loan's block exponential alone.
    """
    _check_tau(tau)
    roots = cubic_roots(params)
    _check_atom_number(atom_number)
    _check_epsilon(epsilon)
    fields, guards = _pass(params, roots, tau, OUTPUTS, atom_number, epsilon)
    raise_failure(guards, "point report")
    names = "covariance", "gain", "gammas", "pairs", "class"
    c, growth, gammas, pairs, label = (fields.pop(name)[0] for name in names)
    floor = _physicality_floor(c)
    difference = [np.abs(c - ode_oracle(params, tau).c).max()] if oracle else []
    _check_finite(
        covariance=c,
        gain=growth,
        observables=np.concatenate([value[ok] for value, ok in fields.values()], axis=None),
        separability=(gammas, pairs),
        physicality=floor,
        oracle_max_abs_diff=difference,  # no number without the oracle
    )
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
        "physicality": float(floor),
    }
    if oracle:
        computed["oracle_max_abs_diff"] = float(difference[0])
    return {"params": params.to_dict(), "tau": tau, "atom_number": atom_number, **computed}


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
    labels, specs = zip(*preset.curves)
    return _concat(table for _, table in _run(specs, labels))
