import json

import numpy as np
import pytest

from tricarl import (
    InvalidSpec,
    ModelParams,
    SweepSpec,
    evolve_point,
    figure_preset,
    run_preset,
    run_sweep,
)
from tricarl.cli import main

FIG5 = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)


def make_spec(**overrides):
    fields = dict(
        axis="tau",
        start=0.0,
        stop=2.0,
        points=5,
        fixed=FIG5,
        outputs=("n1", "xi12"),
        tau=None,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


# ----------------------------------------------------------------- spec checks


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        make_spec(start=0.0, stop=0.0)  # degenerate grid
    with pytest.raises(InvalidSpec):
        make_spec(points=1)
    with pytest.raises(InvalidSpec):
        make_spec(points=10**6 + 1)
    with pytest.raises(InvalidSpec):
        make_spec(outputs=("n1", "bogus"))
    with pytest.raises(InvalidSpec):
        make_spec(outputs=())
    with pytest.raises(InvalidSpec):
        make_spec(axis="delta", start=-1.0, stop=1.0, tau=None)
    with pytest.raises(InvalidSpec):
        make_spec(axis="sigma")
    with pytest.raises(InvalidSpec):
        make_spec(atom_number=0.0)


def test_gain_only_sweep_needs_no_tau():
    spec = make_spec(axis="delta", start=-1.0, stop=1.0, outputs=("gain",), tau=None)
    rows = run_sweep(spec)
    assert len(rows) == 5
    assert all(row["status"] == "ok" for row in rows)


# ------------------------------------------------------------------ sweep rows


def test_tau_sweep_rows_and_vacuum_handling():
    rows = run_sweep(make_spec())
    assert [row["tau"] for row in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert rows[0]["n1"] == 0.0
    assert rows[0]["xi12"] is None  # undefined at vacuum, not an error
    assert rows[0]["status"] == "ok"
    assert all(row["status"] == "ok" for row in rows)


def test_gamma_axis_sets_both_atomic_rates():
    spec = make_spec(
        axis="gamma", start=0.0, stop=1.0, points=3, outputs=("n1",), tau=1.0
    )
    rows = run_sweep(spec)
    reference = [
        evolve_point(FIG5.replace(gamma1=g, gamma2=g), 1.0)["observables"]["n"][0]
        for g in (0.0, 0.5, 1.0)
    ]
    assert [row["n1"] for row in rows] == pytest.approx(reference)


def test_row_errors_do_not_abort_sweep(monkeypatch):
    # the batched pass flags the tau = 1 row, as a failed guard would, and
    # the single-row evaluation it is sent back to raises
    import tricarl.sweep as sweep_module
    from tricarl.errors import NotHermitian

    true_covariance = sweep_module.covariance
    true_stack = sweep_module._closed_form_stack

    def flaky(params, tau, *args, **kwargs):
        if tau == 1.0:
            raise NotHermitian("relative defect 1e-3")
        return true_covariance(params, tau, *args, **kwargs)

    def flagging(spectra, tau):
        c, ok = true_stack(spectra, tau)
        return c, ok & (np.asarray(tau) != 1.0)

    monkeypatch.setattr(sweep_module, "covariance", flaky)
    monkeypatch.setattr(sweep_module, "_closed_form_stack", flagging)
    rows = run_sweep(make_spec())
    statuses = [row["status"] for row in rows]
    assert statuses == ["ok", "ok", "not_hermitian", "ok", "ok"]
    failed = rows[2]
    assert failed["n1"] is None and failed["xi12"] is None


def test_sweep_spec_json_round_trip():
    spec = make_spec(points=4)
    clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert run_sweep(clone) == run_sweep(spec)


# --------------------------------------------------------------------- presets


def test_fig5_preset_reaches_steady_squeezing():
    preset = figure_preset("fig5")
    label, spec = preset.curves[-1]
    assert label == "gamma=0.5;kappa=0.5"
    rows = run_sweep(spec)
    assert abs(rows[-1]["xi12"] - 0.7) < 0.05


def test_fig1a_preset_ideal_gain_maximum():
    preset = figure_preset("fig1a")
    label, spec = preset.curves[0]
    assert label == "gamma=0;kappa=0"
    rows = run_sweep(spec)
    best = max(row["gain"] for row in rows)
    assert abs(best - np.sqrt(3.0) / 2.0) < 1e-3


def test_unknown_preset():
    with pytest.raises(InvalidSpec):
        figure_preset("fig99")


def test_preset_rows_carry_curve_labels():
    preset = figure_preset("fig12")
    rows = run_preset(preset)
    labels = {row["curve"] for row in rows}
    assert len(labels) == len(preset.curves)


# ---------------------------------------------------------------- point reports


def test_evolve_point_vacuum_report():
    report = evolve_point(FIG5, 0.0)
    assert report["separability"]["class"] == "biseparable_or_separable"
    assert report["observables"]["n"] == [0.0, 0.0, 0.0]
    assert report["observables"]["xi"] == [None, None, None]
    assert abs(report["physicality"]) < 1e-10


def test_evolve_point_oracle_field():
    report = evolve_point(FIG5, 2.0, oracle=True)
    assert report["oracle_max_abs_diff"] < 1e-6 * max(
        abs(v) for row in report["covariance"]["real"] for v in row
    )


# ------------------------------------------------------------------------- CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_point_mode_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "--rho", "100", "--delta", "3.5", "--gamma1", "0.5", "--gamma2", "0.5",
        "--kappa", "0.5", "--tau", "2",
    )
    assert code == 0
    assert json.loads(out) == evolve_point(FIG5, 2.0)


def test_cli_sweep_csv_deterministic(capsys, tmp_path):
    argv = [
        "--rho", "100", "--delta", "3.5", "--gamma1", "0.5", "--gamma2", "0.5",
        "--kappa", "0.5", "--sweep", "tau:0:2:5", "--outputs", "n1,xi12,class",
    ]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    lines = first.splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    assert meta and meta[0] == "# tricarl sweep"
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "tau,n1,xi12,class,status"
    vacuum_row = lines[lines.index(header) + 1]
    assert vacuum_row == "0.0,0.0,,biseparable_or_separable,ok"


def test_cli_json_round_trip(capsys):
    argv = [
        "--rho", "100", "--delta", "3.5", "--gamma1", "0.5", "--gamma2", "0.5",
        "--kappa", "0.5", "--sweep", "tau:0:2:5", "--outputs", "n1",
        "--format", "json",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    spec = SweepSpec.from_dict(payload["spec"])
    assert run_sweep(spec) == payload["rows"]


def test_cli_out_file_and_sidecar(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    argv = [
        "--rho", "100", "--tau", "1", "--sweep", "tau:0:1:3", "--outputs", "n1",
        "--out", str(target),
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == ""
    text = target.read_text()
    assert "timestamp" not in text and "written_at" not in text
    sidecar = json.loads((tmp_path / "rows.csv.run.json").read_text())
    assert "written_at" in sidecar and sidecar["argv"] == argv


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "--rho", "100", "--sweep", "tau:0:0:2", "--tau", "1")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "invalid_spec"
    code, _, err = run_cli(capsys, "--rho", "100")  # point mode without tau
    assert code == 2
    code, _, err = run_cli(capsys, "--rho", "-3", "--tau", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "--preset", "fig99")
    assert code == 2


def test_cli_numerical_failure_exit_code(capsys, monkeypatch):
    import tricarl.sweep as sweep_module
    from tricarl.errors import NotHermitian

    def boom(*args, **kwargs):
        raise NotHermitian("relative defect 1e-3")

    monkeypatch.setattr(sweep_module, "covariance", boom)
    code, _, err = run_cli(capsys, "--rho", "100", "--tau", "1")
    assert code == 3
    assert json.loads(err)["error"]["code"] == "not_hermitian"


def test_overflowed_rows_carry_non_finite_status():
    # the covariance overflows past tau = 400; the number variances behind
    # xi12 overflow first, while C is still finite
    spec = make_spec(
        fixed=ModelParams(rho=100.0, delta=0.0),
        stop=800.0,
        outputs=("n1", "xi12", "mineig_gamma1", "class"),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run_sweep(spec)
    assert [row["status"] for row in rows] == ["ok", "ok"] + ["non_finite"] * 3
    for row in rows[2:]:
        assert all(row[name] is None for name in spec.outputs)


def test_cli_point_mode_non_finite_exit_code(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "--rho", "100", "--tau", "300")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "non_finite"


def test_cli_linalg_failure_exit_code(capsys, monkeypatch):
    import tricarl.sweep as sweep_module

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(sweep_module, "covariance", boom)
    code, _, err = run_cli(capsys, "--rho", "100", "--tau", "1")
    assert code == 3
    assert "did not converge" in json.loads(err)["error"]["message"]


def test_cli_preset_csv(capsys):
    code, out, _ = run_cli(capsys, "--preset", "fig1a")
    assert code == 0
    lines = out.splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "curve,delta,gain,status"
    assert len([line for line in lines if line.startswith("gamma=")]) == 4 * 301


def test_cli_tiny_rho_point_mode_is_non_finite(capsys):
    # the characteristic cubic overflows (beta^2 ~ 1/rho^2) below rho ~ 1e-150
    code, out, err = run_cli(capsys, "--rho", "1e-160", "--tau", "1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "non_finite"


def test_cli_tiny_rho_sweep_rows_are_non_finite(capsys):
    code, out, err = run_cli(
        capsys, "--rho", "1e-160", "--tau", "1", "--sweep", "delta:0:1:3",
        "--outputs", "gain,n1", "--format", "json",
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert [row["status"] for row in rows] == ["non_finite"] * 3
    assert all(row["gain"] is None and row["n1"] is None for row in rows)


def test_cli_sidecar_versions_and_status_counts(capsys, tmp_path):
    import scipy

    with np.errstate(over="ignore", invalid="ignore"):
        for argv, counts in (
            (["--rho", "100", "--sweep", "tau:0:800:5", "--outputs", "n1"],
             {"non_finite": 2, "ok": 3}),
            (["--preset", "fig1a"], {"ok": 4 * 301}),
        ):
            target = tmp_path / "rows.csv"
            code, _, _ = run_cli(capsys, *argv, "--out", str(target))
            assert code == 0
            data = target.read_bytes()
            sidecar = json.loads((tmp_path / "rows.csv.run.json").read_text())
            assert sidecar["scipy"] == scipy.__version__
            assert sidecar["numpy"] == np.__version__
            assert sidecar["row_status_counts"] == counts
            # the sidecar takes the diagnostics; the data file stays as it was
            code, out, _ = run_cli(capsys, *argv)
            assert out.encode() == data
    run_cli(capsys, "--rho", "100", "--tau", "1", "--out", str(target))
    assert "row_status_counts" not in json.loads((tmp_path / "rows.csv.run.json").read_text())


def test_cli_rejects_the_removed_workers_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--rho", "100", "--sweep", "tau:0:2:5", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err
