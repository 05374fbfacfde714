"""The command line writes a sweep or preset block by block.

``cli.main`` formats each (curves, points) block of ``sweep._run`` as it
arrives: CSV lines, with the metadata and header ahead of the first block,
or the row objects of the JSON payload between its prefix and suffix.
Within a block each curve's grid row is formatted once and reused by the
next curve whose row has the same bytes.  These tests pin the bytes
against the writers of one joined table, what a failure in a later block
leaves behind, and the sidecar's status counts.
"""

import json
from collections import Counter

import numpy as np
import pytest

import tricarl.sweep as sweep_module
from tricarl import FigurePreset, ModelParams, SweepSpec, as_rows, figure_preset, run_preset
from tricarl import run_sweep
from tricarl.cli import _csv_blocks, _json_blocks, _json_dumps, _rows_to_csv, _sweep_meta, main

FIG5 = ModelParams(100.0, 3.5, 0.5, 0.5, 0.5)
# 2500 rows: blocks of 1024, 1024 and 452
LONG = SweepSpec("delta", -5.0, 10.0, 2500, FIG5, ("n1", "xi12", "gain"), tau=2.0)
# a grid that ends at -0.0, which prints unlike 0.0 (linspace turns a start
# of -0.0 into 0.0, but keeps the stop)
SIGNED_ZERO = SweepSpec("delta", -1.0, -0.0, 5, FIG5, ("n1", "gain"), tau=2.0)


def sweep_argv(spec, *extra):
    fixed = [x for name, value in spec.fixed.to_dict().items() for x in (f"--{name}", repr(value))]
    grid = f"{spec.axis}:{spec.start!r}:{spec.stop!r}:{spec.points}"
    tau = ["--tau", repr(spec.tau)]
    return [*fixed, *tau, "--sweep", grid, "--outputs", ",".join(spec.outputs), *extra]


def run_cli(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def joined_json(payload):
    text = _json_dumps(payload)
    assert text == json.dumps(payload, indent=2, allow_nan=False) + "\n"
    return text


def preset_head(preset):
    return {
        "kind": "preset",
        "id": preset.id,
        "description": preset.description,
        "curves": [{"label": label, "spec": spec.to_dict()} for label, spec in preset.curves],
    }


def block_texts(preset):
    """The CSV and JSON text of a preset from the block writers."""
    labels, specs = zip(*preset.curves)
    meta = [f"tricarl preset {preset.id}", preset.description]
    axis = specs[0].axis
    csv = "".join(_csv_blocks(sweep_module._run(specs, labels), axis, meta, Counter()))
    head = preset_head(preset)
    text = "".join(_json_blocks(sweep_module._run(specs, labels), axis, head, Counter()))
    return csv, text


def assert_same_text(got, want):
    # compared as lists of lines: pytest reports the first differing line
    assert got.split("\n") == want.split("\n")


@pytest.mark.parametrize("spec", [LONG, SIGNED_ZERO], ids=["2500_rows", "signed_zero"])
def test_sweep_text_equals_the_joined_table_writers(capsys, spec):
    table = run_sweep(spec)
    code, out, err = run_cli(capsys, sweep_argv(spec))
    assert code == 0 and err == ""
    assert_same_text(out, _rows_to_csv(table, _sweep_meta(spec)))
    code, out, err = run_cli(capsys, sweep_argv(spec, "--format", "json"))
    assert code == 0 and err == ""
    payload = {"kind": "sweep", "spec": spec.to_dict(), "rows": as_rows(table)}
    assert_same_text(out, joined_json(payload))
    if spec is SIGNED_ZERO:
        assert out.count('"delta": -0.0,') == 1 and '"delta": 0.0,' not in out
        assert run_cli(capsys, sweep_argv(spec))[1].splitlines()[-1].startswith("-0.0,")


def test_fig1_text_equals_the_joined_table_writers(capsys, monkeypatch):
    passes = []
    true_table = sweep_module._table

    def counted(specs, values):
        passes.append(values.shape)
        return true_table(specs, values)

    monkeypatch.setattr(sweep_module, "_table", counted)
    preset = figure_preset("fig1")
    code, out, err = run_cli(capsys, ["--preset", "fig1"])
    assert code == 0 and err == ""
    assert passes == [(3, 301), (3, 301), (1, 301)]
    table = run_preset(preset)
    meta = [f"tricarl preset {preset.id}", preset.description]
    assert_same_text(out, _rows_to_csv(table, meta))
    code, out, err = run_cli(capsys, ["--preset", "fig1", "--format", "json"])
    assert code == 0 and err == ""
    assert_same_text(out, joined_json({**preset_head(preset), "rows": as_rows(table)}))


def test_a_block_of_curves_on_different_grids(monkeypatch):
    # one block of five curves: equal grids reuse their text, a grid that
    # differs from the last only in the sign of its zero does not
    def curve(start, stop):
        return SweepSpec("delta", start, stop, 6, FIG5, ("n1", "gain"), tau=2.0)

    grids = [(-1.0, -0.0), (-1.0, 0.0), (-1.0, 0.0), (-2.0, 1.0), (-1.0, -0.0)]
    curves = tuple((f"c{k}", curve(*grid)) for k, grid in enumerate(grids))
    preset = FigurePreset("mixed", "curves on different grids", curves)
    passes = []
    true_table = sweep_module._table

    def counted(specs, values):
        passes.append(values.shape)
        return true_table(specs, values)

    monkeypatch.setattr(sweep_module, "_table", counted)
    csv, text = block_texts(preset)
    assert passes == [(5, 6)] * 2  # CSV, then JSON
    monkeypatch.undo()
    table = run_preset(preset)
    assert_same_text(csv, _rows_to_csv(table, [f"tricarl preset {preset.id}", preset.description]))
    assert_same_text(text, joined_json({**preset_head(preset), "rows": as_rows(table)}))
    rows = [line.split(",")[:2] for line in csv.splitlines() if line.endswith(",ok")]
    last = [["c0", "-0.0"], ["c1", "0.0"], ["c2", "0.0"], ["c3", "1.0"], ["c4", "-0.0"]]
    assert rows[5::6] == last


def test_a_grid_row_is_formatted_once_for_a_run_of_curves_on_it(monkeypatch):
    import tricarl.cli as cli_module

    formatted = []

    def counted(value):
        formatted.append(value)
        return float.__repr__(value)

    monkeypatch.setattr(cli_module, "repr", counted, raising=False)
    grid = figure_preset("fig3").curves[0][1].grid()
    texts = cli_module._grid_column(np.array([grid, grid, grid, -grid[::-1], grid]))
    assert len(formatted) == 3 * len(grid)
    assert texts == [float.__repr__(x) for x in np.concatenate([grid] * 3 + [-grid[::-1], grid])]


def fail_in_block(monkeypatch, block):
    """Make the pass of the given block (1-based) raise a LinAlgError."""
    true_stack = sweep_module._covariance_stack
    calls = []

    def broken(params, lambdas, tau):
        calls.append(None)
        if len(calls) == block:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return true_stack(params, lambdas, tau)

    monkeypatch.setattr(sweep_module, "_covariance_stack", broken)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failure_in_block_2_keeps_the_rows_written_to_stdout(capsys, monkeypatch, fmt):
    full = run_cli(capsys, sweep_argv(LONG, "--format", fmt))[1]
    fail_in_block(monkeypatch, 2)
    code, out, err = run_cli(capsys, sweep_argv(LONG, "--format", fmt))
    assert code == 3
    error = {"code": "error", "message": "eigenvalues did not converge"}
    assert json.loads(err) == {"error": error}
    # the first block's rows stay: for CSV the metadata, the header and
    # 1024 lines; for JSON the payload up to the first block's last row
    assert full.startswith(out)
    if fmt == "csv":
        assert len(out.splitlines()) == 4 + 1 + 1024 and out.endswith("\n")
    else:
        assert out.count('"status":') == 1024 and out.endswith("\n    }")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block", [1, 2])
def test_a_failure_with_out_leaves_no_file(capsys, monkeypatch, tmp_path, fmt, block):
    fail_in_block(monkeypatch, block)
    target = tmp_path / f"rows.{fmt}"
    code, out, err = run_cli(capsys, sweep_argv(LONG, "--format", fmt, "--out", str(target)))
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"] == "eigenvalues did not converge"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_writes_the_stdout_bytes_and_counts_statuses_over_every_block(
    capsys, tmp_path, fmt
):
    # a lossless tau sweep of 2500 rows through C's overflow: ok rows, then
    # non_finite ones, spread over three blocks
    spec = SweepSpec("tau", 0.0, 2000.0, 2500, ModelParams(100.0, 0.0), ("n1", "gain"))
    argv = ["--rho", "100.0", "--sweep", "tau:0.0:2000.0:2500", "--outputs", "n1,gain"]
    stdout = run_cli(capsys, [*argv, "--format", fmt])[1]
    target = tmp_path / f"rows.{fmt}"
    code, out, err = run_cli(capsys, [*argv, "--format", fmt, "--out", str(target)])
    assert code == 0 and out == "" and err == ""
    sidecar = tmp_path / f"{target.name}.run.json"
    assert sorted(tmp_path.iterdir()) == [target, sidecar]
    assert target.read_text() == stdout
    counts = json.loads(sidecar.read_text())["row_status_counts"]
    statuses = run_sweep(spec)["status"]
    assert counts == dict(sorted(Counter(statuses).items()))
    assert set(counts) == {"ok", "non_finite"}
