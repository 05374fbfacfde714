"""The CSV writer against the csv module.

``cli._rows_to_csv`` joins each row's cells with commas and quotes nothing,
so it writes the bytes of ``csv.writer`` only while no cell or column name
holds a comma, a quote or a line break, and it writes one header for a
preset only while the curves of a preset share their columns.  These tests
pin all three on every figure preset, on the grids of
``test_sweep_golden.py`` that fail rows and leave cells empty, and on a
grid with an "error" row.
"""

import csv
import io

import numpy as np
import pytest

import tricarl.sweep as sweep_module
from test_sweep_golden import failure_grid_table, failure_grids
from tricarl import AXES, OUTPUTS, ModelParams, SweepSpec, figure_preset, run_preset, run_sweep
from tricarl.cli import _rows_to_csv
from tricarl.entanglement import _CLASS_LABELS
from tricarl.errors import _BY_CODE
from tricarl.presets import PRESETS

META = ["tricarl test", "a=1.0 b=2.0"]


def csv_module_text(table, meta):
    """The table written row by row by ``csv.writer``."""
    buffer = io.StringIO()
    for line in meta:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(table))
    writer.writerows(zip(*table.values()))
    return buffer.getvalue()


def assert_same_text(got, want):
    # compared as lists of lines: pytest reports the first differing line,
    # where its diff of two long strings takes minutes
    assert got.split("\n") == want.split("\n")


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_preset_csv_equals_the_csv_module(preset_id):
    table = run_preset(figure_preset(preset_id))
    assert_same_text(_rows_to_csv(table, META), csv_module_text(table, META))


@pytest.mark.parametrize("name", sorted(failure_grids()))
def test_failure_grid_csv_equals_the_csv_module(name):
    table = failure_grid_table(name)
    assert_same_text(_rows_to_csv(table, META), csv_module_text(table, META))


def test_error_row_csv_equals_the_csv_module(monkeypatch):
    # a LAPACK failure on one row gives it status "error" and empty cells
    spec = SweepSpec(
        axis="delta",
        start=-1.0,
        stop=4.0,
        points=6,
        fixed=ModelParams(100.0, 0.0, 0.5, 0.5, 0.5),
        outputs=("n1", "xi12", "gain", "class"),
        tau=1.0,
    )
    bad = spec.grid()[2]
    true_stack = sweep_module._covariance_stack

    def broken(params, *args):
        if np.any(params.delta == bad):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return true_stack(params, *args)

    monkeypatch.setattr(sweep_module, "_covariance_stack", broken)
    table = run_sweep(spec)
    assert table["status"] == ["ok", "ok", "error", "ok", "ok", "ok"]
    assert_same_text(_rows_to_csv(table, META), csv_module_text(table, META))


def test_no_cell_or_column_name_needs_quoting():
    labels = {label for _, curves in PRESETS.values() for label, _ in curves}
    statuses = {"ok", *_BY_CODE}
    names = {"curve", "status", *AXES, *OUTPUTS}
    for text in labels | set(_CLASS_LABELS.tolist()) | statuses | names:
        assert not set(text) & set(',"\r\n'), text


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_preset_curves_share_one_axis_and_one_output_set(preset_id):
    curves = figure_preset(preset_id).curves
    assert len({(spec.axis, spec.outputs) for _, spec in curves}) == 1
