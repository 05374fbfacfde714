"""Golden row layouts: keys, statuses and empty cells of sweep rows.

``golden_rows.json`` holds, for every figure preset and for grids that
trip the guards (tiny rho on each axis, covariance overflow at large tau)
or sit on an exceptional point (the delta* grid, named for the widened
degeneracy threshold it once ran under), the row keys and the run-length
encoded sequence of (status, empty-cell pattern) per row.
It was recorded from the row-by-row evaluator that the batched sweep
replaced, so it pins the statuses of that evaluator's guard order.  A
pattern has one character per output: "x" for a value, "." for an empty
cell.  To record it again after an intended change of statuses:

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import evaluate_row
from tricarl import (
    OUTPUTS,
    FigurePreset,
    ModelParams,
    SweepSpec,
    as_rows,
    figure_preset,
    run_preset,
    run_sweep,
)

GOLDEN = Path(__file__).with_name("golden_rows.json")
PRESET_IDS = ("fig1", "fig1a", "fig1b", "fig2", "fig2a", "fig2b") + tuple(
    f"fig{k}" for k in range(3, 16)
)
# gain threshold of rho=100, gamma=kappa=0: two cubic roots merge here
DELTA_STAR = 1.8899212590353163


def failure_grids():
    """name -> spec of the grids that trip guards, and of the delta* grid."""
    grids = {}
    for axis in ("delta", "tau", "gamma", "kappa"):
        # the characteristic cubic overflows below rho ~ 1e-150
        spec = SweepSpec(
            axis=axis,
            start=0.0,
            stop=1.0,
            points=3,
            fixed=ModelParams(rho=1e-160, delta=0.0),
            outputs=OUTPUTS,
            tau=None if axis == "tau" else 1.0,
        )
        grids[f"tiny_rho_{axis}"] = spec
    # the covariance overflows past tau ~ 400; failed rows keep their gain
    grids["tau_overflow"] = SweepSpec(
        axis="tau",
        start=0.0,
        stop=2000.0,
        points=41,
        fixed=ModelParams(rho=100.0, delta=0.0),
        outputs=OUTPUTS,
    )
    # two roots merge at delta*: every row is ok
    grids["delta_star_widened"] = SweepSpec(
        axis="delta",
        start=DELTA_STAR - 1e-5,
        stop=DELTA_STAR + 1e-5,
        points=9,
        fixed=ModelParams(rho=100.0, delta=0.0),
        outputs=OUTPUTS,
        tau=2.0,
    )
    return grids


def layout(rows):
    """Keys of the first row and the run-length encoded row patterns."""
    keys = list(rows[0])
    runs = []
    for row in rows:
        assert list(row) == keys
        cells = "".join("." if row[key] is None else "x" for key in keys[:-1] if key in OUTPUTS)
        if runs and runs[-1][:2] == [row["status"], cells]:
            runs[-1][2] += 1
        else:
            runs.append([row["status"], cells, 1])
    return {"keys": keys, "runs": runs}


def failure_grid_table(name, outputs=OUTPUTS, evaluate=run_sweep):
    """``evaluate`` of a failure grid's spec asking for ``outputs``."""
    spec = failure_grids()[name]
    with np.errstate(all="ignore"):
        return evaluate(dataclasses.replace(spec, outputs=outputs))


def record():
    tables = {f"preset:{pid}": run_preset(figure_preset(pid)) for pid in PRESET_IDS}
    tables.update({f"grid:{name}": failure_grid_table(name) for name in failure_grids()})
    return {key: layout(as_rows(table)) for key, table in tables.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("preset_id", PRESET_IDS)
def test_preset_rows_match_golden(golden, preset_id):
    assert layout(as_rows(run_preset(figure_preset(preset_id)))) == golden[f"preset:{preset_id}"]


@pytest.mark.parametrize("name", sorted(failure_grids()))
def test_failure_grids_match_golden(golden, name):
    assert layout(as_rows(failure_grid_table(name))) == golden[f"grid:{name}"]


def test_failure_grids_fail_where_expected(golden):
    # the failure layouts are not vacuous: tiny rho and large tau fail rows
    statuses = {
        name: {status for status, _, _ in golden[f"grid:{name}"]["runs"]}
        for name in failure_grids()
    }
    assert all(statuses[f"tiny_rho_{axis}"] == {"non_finite"} for axis in ("delta", "tau"))
    assert statuses["tau_overflow"] == {"ok", "non_finite"}
    # failed rows keep their gain cell and leave every state cell empty
    failed = [runs for runs in golden["grid:tau_overflow"]["runs"] if runs[0] != "ok"]
    gain_index = OUTPUTS.index("gain")
    assert all(
        cells == "".join("x" if k == gain_index else "." for k in range(len(OUTPUTS)))
        for _, cells, _ in failed
    )


def row_by_row_statuses(spec):
    return [evaluate_row(spec, value)["status"] for value in spec.grid()]


@pytest.mark.parametrize("name", sorted(failure_grids()))
def test_a_single_output_keeps_the_statuses_of_its_stages(name):
    # a pass runs the stages up to the last one its outputs need, each with
    # all its guards: a request for one output reads the statuses of the
    # row-by-row evaluator.  They are those of the all-OUTPUTS request except
    # where a row failed only on what the one output does not read: the
    # state, which a gain request skips, or a non-finite cell of another
    # output (tau_overflow)
    full = failure_grid_table(name)["status"]
    for output in OUTPUTS:
        statuses = failure_grid_table(name, (output,))["status"]
        assert statuses == failure_grid_table(name, (output,), row_by_row_statuses), output
        differ = {(a, b) for a, b in zip(full, statuses) if a != b}
        assert differ <= {("non_finite", "ok")}, output
        assert not differ or name == "tau_overflow", output


@pytest.mark.parametrize("preset_id", ["fig5", "fig7"])
def test_a_single_output_keeps_the_preset_statuses(preset_id):
    preset = figure_preset(preset_id)

    def statuses(outputs):
        curves = tuple(
            (label, dataclasses.replace(spec, outputs=outputs)) for label, spec in preset.curves
        )
        return run_preset(FigurePreset(preset.id, preset.description, curves))["status"]

    full = statuses(OUTPUTS)
    assert all(statuses((output,)) == full for output in OUTPUTS)


if __name__ == "__main__":
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in record().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
