import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tricarl
import tricarl.sweep as sweep_module
from oracles import mixed_basis_bound, mp_covariance, point_report
from tricarl import (
    InvalidSpec,
    ModelParams,
    NonFinite,
    SweepSpec,
    as_rows,
    covariance,
    evolve_point,
    figure_preset,
    mode_observables,
    run_preset,
    run_sweep,
    separability_report,
)
from tricarl.cli import _build_parser, _json_dumps, main

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
        make_spec(points=2.7)
    with pytest.raises(InvalidSpec):
        make_spec(outputs=("n1", "bogus"))
    with pytest.raises(InvalidSpec):
        make_spec(outputs=())
    with pytest.raises(InvalidSpec, match=r"outputs repeat \['n1'\]"):
        make_spec(outputs=("n1", "n1", "xi12"))
    with pytest.raises(InvalidSpec):
        make_spec(axis="delta", start=-1.0, stop=1.0, tau=None)
    with pytest.raises(InvalidSpec):
        make_spec(axis="sigma")
    with pytest.raises(InvalidSpec):
        make_spec(atom_number=0.0)
    for field, value in (
        ("atom_number", math.nan),
        ("atom_number", math.inf),
        ("epsilon", -1.0),
        ("epsilon", math.nan),
        ("epsilon", math.inf),
        ("tau", math.nan),
    ):
        with pytest.raises(InvalidSpec, match=field):
            make_spec(**{"axis": "delta", "start": 0.0, "stop": 1.0, "tau": 1.0, field: value})
    for axis, start, stop in (
        ("delta", 0.0, math.inf),
        ("delta", -math.inf, 0.0),
        ("delta", math.nan, 1.0),
        ("tau", 0.0, math.inf),
        ("kappa", 0.0, math.nan),
    ):
        with pytest.raises(InvalidSpec, match="need finite start < stop"):
            make_spec(axis=axis, start=start, stop=stop, tau=None if axis == "tau" else 1.0)


def test_gain_only_sweep_needs_no_tau():
    spec = make_spec(axis="delta", start=-1.0, stop=1.0, outputs=("gain",), tau=None)
    rows = as_rows(run_sweep(spec))
    assert len(rows) == 5
    assert all(row["status"] == "ok" for row in rows)


# ------------------------------------------------------------------ sweep rows


def test_tau_sweep_rows_and_vacuum_handling():
    rows = as_rows(run_sweep(make_spec()))
    assert [row["tau"] for row in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert rows[0]["n1"] == 0.0
    assert rows[0]["xi12"] is None  # undefined at vacuum, not an error
    assert rows[0]["status"] == "ok"
    assert all(row["status"] == "ok" for row in rows)


def test_gamma_axis_sets_both_atomic_rates():
    spec = make_spec(
        axis="gamma", start=0.0, stop=1.0, points=3, outputs=("n1",), tau=1.0
    )
    rows = as_rows(run_sweep(spec))
    reference = [
        evolve_point(dataclasses.replace(FIG5, gamma1=g, gamma2=g), 1.0)["observables"]["n"][0]
        for g in (0.0, 0.5, 1.0)
    ]
    assert [row["n1"] for row in rows] == pytest.approx(reference)


def test_row_errors_do_not_abort_sweep(monkeypatch):
    # the covariance kernel fails the Hermiticity guard on the tau = 1 row
    import tricarl.sweep as sweep_module

    true_stack = sweep_module._covariance_stack

    def flagging(params, lambdas, tau):
        c, guards = true_stack(params, lambdas, tau)
        return c, [*guards, ("not_hermitian", np.asarray(tau) == 1.0)]

    monkeypatch.setattr(sweep_module, "_covariance_stack", flagging)
    rows = as_rows(run_sweep(make_spec()))
    statuses = [row["status"] for row in rows]
    assert statuses == ["ok", "ok", "not_hermitian", "ok", "ok"]
    failed = rows[2]
    assert failed["n1"] is None and failed["xi12"] is None


def test_sweep_spec_json_round_trip():
    spec = make_spec(points=4)
    clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert as_rows(run_sweep(clone)) == as_rows(run_sweep(spec))
    # a malformed point count reaches the spec's own check, not int()
    for points in (2.7, True, "4"):
        with pytest.raises(InvalidSpec, match="points must be an integer"):
            SweepSpec.from_dict({**spec.to_dict(), "points": points})


def test_sweep_spec_with_a_numpy_point_count_writes_json():
    spec = SweepSpec("delta", 0.0, 1.0, np.int64(3), ModelParams(100.0, 0.0), ("n1",), tau=1.0)
    assert SweepSpec.from_dict(json.loads(_json_dumps(spec.to_dict()))) == spec
    assert json.loads(json.dumps(spec.to_dict()))["points"] == 3


# --------------------------------------------------------------------- presets


def test_fig5_preset_reaches_steady_squeezing():
    preset = figure_preset("fig5")
    label, spec = preset.curves[-1]
    assert label == "gamma=0.5;kappa=0.5"
    rows = as_rows(run_sweep(spec))
    assert abs(rows[-1]["xi12"] - 0.7) < 0.05


def test_fig1a_preset_ideal_gain_maximum():
    preset = figure_preset("fig1a")
    label, spec = preset.curves[0]
    assert label == "gamma=0;kappa=0"
    rows = as_rows(run_sweep(spec))
    best = max(row["gain"] for row in rows)
    assert abs(best - np.sqrt(3.0) / 2.0) < 1e-3


def test_unknown_preset():
    with pytest.raises(InvalidSpec):
        figure_preset("fig99")


def test_preset_rows_carry_curve_labels():
    preset = figure_preset("fig12")
    rows = as_rows(run_preset(preset))
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


# gain threshold of rho=100, gamma=kappa=0: two cubic roots merge here
DELTA_STAR = 1.8899212590353163


@pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13, 1e-8, -1e-8, 1e-1, -1e-1])
def test_oracle_deviation_at_the_gain_threshold(offset):
    # lossless rho=100 at tau=5, where two cubic roots merge at delta*
    params = ModelParams(rho=100.0, delta=DELTA_STAR + offset)
    report = evolve_point(params, 5.0, oracle=True)
    cov = report["covariance"]
    scale = max(abs(v) for part in (cov["real"], cov["imag"]) for row in part for v in row)
    assert report["oracle_max_abs_diff"] <= 1e-6 * scale


def lossy_points(count, seed=8):
    """Lossy parameter sets near delta* and the semi-classical coupling."""
    rng = np.random.default_rng(seed)
    return [
        ModelParams(
            10.0 ** rng.uniform(np.log10(50.0), np.log10(200.0)),
            rng.uniform(1.5, 2.3),
            *rng.uniform(0.05, 0.5, 3),
        )
        for _ in range(count)
    ]


# the benchmark's edge ladder (delta* + {0, +-1e-1 .. +-1e-13}, tau=5),
# lossy points, and FIG5 evolved and at vacuum
REPORT_POINTS = (
    [(ModelParams(100.0, DELTA_STAR), 5.0)]
    + [
        (ModelParams(100.0, DELTA_STAR + sign * 10.0**-k), 5.0)
        for k in range(1, 14)
        for sign in (1.0, -1.0)
    ]
    + [(params, 5.0) for params in lossy_points(8)]
    + [(FIG5, 2.0), (FIG5, 0.0)]
)


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("params, tau", REPORT_POINTS)
def test_point_report_equals_the_one_state_composition(params, tau, oracle):
    # the composed report takes physicality from the whole 6x6 V - iJ, the
    # point report from its 3x3 mixed-basis blocks: the separability and
    # physicality values agree to a few roundings, every other field exactly
    report = evolve_point(params, tau, oracle=oracle)
    reference = point_report(params, tau, oracle=oracle)
    bound = mixed_basis_bound(covariance(params, tau).c)
    for name in ("min_eig_gamma", "min_eig_s"):
        got, want = report["separability"].pop(name), reference["separability"].pop(name)
        assert np.abs(np.subtract(got, want)).max() <= bound, name
    assert abs(report.pop("physicality") - reference.pop("physicality")) <= bound
    assert report == reference


def test_point_report_names_the_non_finite_fields(monkeypatch):
    # past tau ~ 250 at rho=100 the number variances overflow while C is finite
    # (the composed report stops at mode_observables, which names its fields)
    lossless = ModelParams(100.0, 0.0)
    with pytest.raises(NonFinite) as reference:
        point_report(lossless, 300.0)
    with pytest.raises(NonFinite) as report:
        evolve_point(lossless, 300.0)
    fields = str(reference.value).removeprefix("non-finite result in ").split(", ")
    assert str(report.value) == "non-finite result in observables"
    assert fields == ["var_n", "g2_auto", "g2_cross", "xi"]
    # cells left undefined (None) are not checked, even where they overflowed
    c = np.diag([0.5, 0.5, 0.5]).astype(complex)
    c[0, 1] = c[1, 0] = 1e155
    monkeypatch.setattr(sweep_module, "_covariance_stack", lambda *args: (c, []))
    assert evolve_point(FIG5, 1.0)["observables"]["xi"] == [None, None, None]
    monkeypatch.undo()
    # every other number of the report is checked too
    monkeypatch.setattr(sweep_module, "gain", lambda roots, gamma_plus: math.inf)
    monkeypatch.setattr(sweep_module, "_physicality_floor", lambda c: math.nan)
    nan_state = SimpleNamespace(c=np.full((3, 3), np.nan))
    monkeypatch.setattr(sweep_module, "ode_oracle", lambda params, tau: nan_state)
    with pytest.raises(NonFinite) as report:
        evolve_point(FIG5, 1.0, oracle=True)
    fields = "gain, physicality, oracle_max_abs_diff"
    assert str(report.value) == f"non-finite result in {fields}"
    separability = sweep_module._separability_stack

    def infinite_pairs(c, epsilon):
        gammas, pairs, label, guards = separability(c, epsilon)
        return gammas, pairs + math.inf, label, guards

    monkeypatch.setattr(sweep_module, "_separability_stack", infinite_pairs)
    with pytest.raises(NonFinite, match="in gain, separability, physicality$"):
        evolve_point(FIG5, 1.0)


def report_leaves(value):
    """Every leaf of a point report's nested dicts and lists."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in report_leaves(item)]
    return [value]


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_point_report_numbers_are_floats(tau, oracle):
    # gain included: the report holds no numpy scalar, whatever it is asked
    leaves = report_leaves(evolve_point(FIG5, tau, oracle=oracle))
    numbers = [leaf for leaf in leaves if leaf is not None and not isinstance(leaf, str)]
    assert len(numbers) >= 40  # not vacuous: 41 at the vacuum, where 9 cells are None
    assert [type(x) for x in numbers if type(x) is not float] == []


# blocks whose tables take each path to their cells, and the statuses and
# cells that show each path was taken
CELL_BLOCKS = {
    "all ok": (make_spec(start=0.5, outputs=("n1", "xi12", "mineig_s12")), {"ok"}, False),
    # the vacuum at tau = 0 leaves xi and bunching undefined; C overflows past 406.75
    "non_finite and undefined": (
        make_spec(
            stop=412.0, points=104, fixed=ModelParams(100.0, 0.0),
            outputs=("n1", "xi12", "bunching", "gain"),
        ),
        {"ok", "non_finite"},
        True,
    ),
    "class with gain": (
        make_spec(axis="delta", start=-5.0, stop=10.0, tau=2.0, outputs=("gain", "class")),
        {"ok"},
        False,
    ),
    "class alone": (make_spec(outputs=("class",)), {"ok"}, False),
}


@pytest.mark.parametrize("case", CELL_BLOCKS)
def test_table_cells_are_floats_strs_or_none(case):
    # a numpy scalar would print as np.float64(...) in the CSV
    spec, statuses, undefined = CELL_BLOCKS[case]
    preset = sweep_module.FigurePreset("cells", "", (("a", spec), ("b", spec)))
    tables = [
        run_sweep(spec),
        run_preset(preset),
        *(table for _, table in sweep_module._run((spec, spec), ("a", "b"))),
    ]
    for table in tables:
        assert set(table["status"]) == statuses
        cells = [cell for name in spec.outputs for cell in table[name]]
        assert (None in cells) == undefined
        types = {type(cell) for column in table.values() for cell in column}
        assert types <= {float, str, type(None)}


def test_point_report_overflow_raises_non_finite_not_numpy_warnings():
    # the pass runs under np.errstate; the physicality floor after it sees
    # only states whose Gamma_j minima are finite, so up to C's own overflow
    # (past tau ~ 406 here) the report raises NonFinite and never a
    # RuntimeWarning
    lossless = ModelParams(100.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^non-finite result in observables$"):
            evolve_point(lossless, 400.0)
        for tau in np.arange(400.0, 410.0, 0.25):
            with pytest.raises(NonFinite):
                evolve_point(lossless, float(tau))


@pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
def test_every_classifier_rejects_a_bad_epsilon(epsilon):
    for call in (
        lambda: separability_report(covariance(FIG5, 1.0), epsilon),
        lambda: evolve_point(FIG5, 1.0, epsilon=epsilon),
    ):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            call()


@pytest.mark.parametrize("atom_number", [0.0, math.nan, math.inf])
def test_observables_reject_a_bad_atom_number(atom_number):
    for call in (
        lambda: mode_observables(covariance(FIG5, 1.0), atom_number),
        lambda: evolve_point(FIG5, 1.0, atom_number=atom_number),
    ):
        with pytest.raises(ValueError, match="atom_number must be finite and > 0"):
            call()


@pytest.mark.parametrize("params", [FIG5, ModelParams(100.0, DELTA_STAR)])
def test_point_report_solves_the_cubic_once(params, monkeypatch):
    import tricarl.dynamics as dynamics

    calls = []
    solve = dynamics.solve_cubic

    def counted(coeffs):
        calls.append(coeffs)
        return solve(coeffs)

    monkeypatch.setattr(dynamics, "solve_cubic", counted)
    evolve_point(params, 5.0, oracle=True)
    assert len(calls) == 1


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
    assert as_rows(run_sweep(spec)) == payload["rows"]


def test_cli_out_file_and_sidecar(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    argv = [
        "--rho", "100", "--sweep", "tau:0:1:3", "--outputs", "n1", "--out", str(target),
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == ""
    text = target.read_text()
    assert "timestamp" not in text and "written_at" not in text
    sidecar = json.loads((tmp_path / "rows.csv.run.json").read_text())
    assert "written_at" in sidecar and sidecar["argv"] == argv


def test_cli_out_into_a_missing_directory_is_an_invalid_spec(capsys, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, "--rho", "100", "--tau", "1", "--out", str(target))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_spec" and str(target) in error["message"]
    assert list(tmp_path.iterdir()) == []


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "--rho", "100", "--sweep", "tau:0:0:2")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "invalid_spec"
    code, _, err = run_cli(capsys, "--rho", "100")  # point mode without tau
    assert code == 2
    code, _, err = run_cli(capsys, "--rho", "-3", "--tau", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "--rho", "100", "--tau", "-1")
    assert code == 2
    error = json.loads(err)["error"]
    assert error == {"code": "invalid_spec", "message": "tau must be >= 0, got -1.0"}
    code, _, err = run_cli(capsys, "--preset", "fig99")
    assert code == 2


def test_cli_numerical_failure_exit_code(capsys, monkeypatch):
    import tricarl.sweep as sweep_module
    from tricarl.errors import NotHermitian

    def boom(*args, **kwargs):
        raise NotHermitian("relative defect 1e-3")

    monkeypatch.setattr(sweep_module, "_covariance_stack", boom)
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
        rows = as_rows(run_sweep(spec))
    assert [row["status"] for row in rows] == ["ok", "ok"] + ["non_finite"] * 3
    for row in rows[2:]:
        assert all(row[name] is None for name in spec.outputs)


def test_cli_point_mode_non_finite_exit_code(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "--rho", "100", "--tau", "300")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "non_finite"


def test_cli_oracle_without_a_float_step_exits_non_finite(capsys):
    # |A|_1 tau >= 2**1022: the oracle's step tau / 2**k is no float
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "--rho", "100", "--delta", "5", "--tau", "1e307", "--oracle"
        )
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {
        "code": "non_finite",
        "message": "noise matrix failed the non_finite guard",
    }


def test_cli_linalg_failure_exit_code(capsys, monkeypatch):
    import tricarl.sweep as sweep_module

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(sweep_module, "_covariance_stack", boom)
    code, _, err = run_cli(capsys, "--rho", "100", "--tau", "1")
    assert code == 3
    assert "did not converge" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize(
    "argv, bad_tau",
    [
        (("--rho", "100", "--sweep", "tau:0:2:5", "--outputs", "n1,xi12"), 1.0),
        (("--preset", "fig5"), figure_preset("fig5").curves[0][1].grid()[2]),
    ],
)
def test_cli_linalg_failure_on_one_row_fails_the_request(
    capsys, monkeypatch, tmp_path, argv, bad_tau, out
):
    # a block has no per-row path around a raised LinAlgError: the request
    # ends in the JSON error record, with no rows and no data file or sidecar
    true_stack = sweep_module._covariance_stack

    def broken(params, lambdas, tau):
        if np.any(np.asarray(tau) == bad_tau):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return true_stack(params, lambdas, tau)

    monkeypatch.setattr(sweep_module, "_covariance_stack", broken)
    target = ("--out", str(tmp_path / "rows.csv")) if out else ()
    code, stdout, err = run_cli(capsys, *argv, *target)
    assert code == 3 and stdout == ""
    assert json.loads(err) == {
        "error": {"code": "error", "message": "eigenvalues did not converge"}
    }
    assert list(tmp_path.iterdir()) == []


def run_cli_process(*argv):
    """The command line in a fresh interpreter, whose numpy warnings reach
    stderr (pytest would capture them in-process)."""
    src = str(Path(tricarl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "tricarl.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_cli_point_overflow_stderr_is_json():
    proc = run_cli_process("--rho", "100", "--tau", "1000")
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["code"] == "non_finite"


def test_cli_point_report_deterministic():
    argv = ("--rho", "100", "--delta", repr(DELTA_STAR), "--tau", "5", "--oracle")
    first, second = run_cli_process(*argv), run_cli_process(*argv)
    assert first.returncode == 0 and first.stderr == ""
    assert json.loads(first.stdout)["oracle_max_abs_diff"] > 0
    assert first.stdout == second.stdout


def test_cli_sweep_overflow_leaves_stderr_empty():
    proc = run_cli_process("--rho", "100", "--sweep", "tau:0:2000:3", "--outputs", "gain,n1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert [line.rsplit(",", 1)[1] for line in proc.stdout.splitlines()[-3:]] == [
        "ok",
        "non_finite",
        "non_finite",
    ]


def test_cli_runs_the_oracle_over_a_long_time(capsys):
    # rho=1, rates 5, tau=1e6: about 5.6e8 steps of the RK4 integrator the
    # oracle once was, which refused it; the block exponential doubles its
    # step about 25 times
    code, out, err = run_cli(
        capsys, "--rho", "1", "--gamma1", "5", "--gamma2", "5", "--kappa", "5",
        "--tau", "1e6", "--oracle",
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["oracle_max_abs_diff"] <= 1e-12 * max(map(max, report["covariance"]["real"]))


def test_cli_oracle_reads_zero_on_a_routed_row(capsys):
    # two computed roots coincide at this detuning; the covariance was once
    # routed to the block exponential there and read a deviation of 0.  It
    # now takes the closed form, 1.9e-15 of max|C| from 40 digits, and the
    # deviation is the oracle's own rounding (2.6e-13 measured)
    params = ModelParams(rho=50.0, delta=1.8900403016167855)
    code, out, err = run_cli(
        capsys, "--rho", "50", "--delta", repr(params.delta), "--tau", "5", "--oracle"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    scale = np.abs(mp_covariance(params, 5.0, 40)).max()
    assert 0.0 < report["oracle_max_abs_diff"] <= 1e-11 * scale


def test_cli_point_mode_rejects_a_non_positive_atom_number(capsys):
    code, out, err = run_cli(capsys, "--rho", "100", "--tau", "1", "--atoms", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "invalid_spec"


SWEEP_FLAGS = ("--rho", "100", "--sweep", "tau:0:1:2", "--outputs", "class,mineig_gamma1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (SWEEP_FLAGS + ("--epsilon", "-1"), "epsilon must be finite and >= 0, got -1.0"),
        (SWEEP_FLAGS + ("--epsilon", "nan"), "epsilon must be finite and >= 0, got nan"),
        (SWEEP_FLAGS + ("--epsilon", "nan", "--format", "json"), "epsilon must be"),
        (SWEEP_FLAGS + ("--atoms", "nan", "--format", "json"), "atom_number must be finite"),
        (
            ("--rho", "100", "--tau", "nan", "--sweep", "delta:0:1:2", "--format", "json"),
            "tau must be >= 0, got nan",
        ),
        (("--rho", "100", "--tau", "1", "--epsilon", "-1"), "epsilon must be finite and >= 0"),
        (("--rho", "100", "--tau", "1", "--epsilon", "nan"), "epsilon must be finite and >= 0"),
        (("--rho", "100", "--tau", "1", "--atoms", "nan"), "atom_number must be finite"),
        (("--rho", "100", "--tau", "1", "--atoms", "inf"), "atom_number must be finite"),
        (("--rho", "100", "--tau", "nan"), "tau must be >= 0, got nan"),
        (
            ("--rho", "100", "--tau", "1", "--sweep", "delta:0:inf:3", "--outputs", "n1,gain",
             "--format", "json"),
            "need finite start < stop, got start=0.0 stop=inf",
        ),
        (
            ("--rho", "100", "--tau", "1", "--sweep", "delta:0:inf:3", "--outputs", "n1,gain"),
            "need finite start < stop",
        ),
        (
            ("--rho", "100", "--tau", "1", "--sweep", "delta:-inf:0:3", "--outputs", "n1"),
            "need finite start < stop",
        ),
        (("--rho", "100", "--sweep", "tau:0:inf:3", "--outputs", "n1"), "need finite start < stop"),
        (
            ("--rho", "10", "--tau", "1", "--sweep", "delta:0:1:2", "--outputs", "n1,n1,xi12"),
            "outputs repeat ['n1']",
        ),
        (
            ("--rho", "2", "--delta", "-4", "--tau", "inf", "--sweep", "kappa:0.1:2:3",
             "--outputs", "n1", "--format", "json"),
            "tau=inf has no JSON encoding",
        ),
        (
            ("--rho", "100", "--sweep", "tau:0:1:3", "--oracle"),
            "--oracle applies to point reports only",
        ),
        (("--preset", "fig3", "--oracle"), "--oracle applies to point reports only"),
        # flags a run would otherwise drop without a word, even at their defaults
        *[
            (("--preset", "fig7", *flags), f"--preset sets its own parameters; drop {flags[0]}")
            for flags in (
                ("--rho", "3"),
                ("--tau", "1"),
                ("--sweep", "tau:0:1:3"),
                ("--delta", "0"),
                ("--gamma1", "0.1"),
                ("--gamma2", "0.1"),
                ("--kappa", "3"),
                ("--outputs", "gain"),
                ("--epsilon", "0.5"),
                ("--atoms", "5"),
            )
        ],
        (
            ("--preset", "fig7", "--kappa", "3", "--rho", "2", "--atoms", "5"),
            "--preset sets its own parameters; drop --rho, --kappa, --atoms",
        ),
        (
            ("--rho", "100", "--sweep", "tau:0:1:3", "--tau", "2"),
            "a tau sweep takes no fixed tau, got tau=2.0",
        ),
        (
            ("--rho", "100", "--tau", "1", "--format", "csv"),
            "a point report is JSON; drop --format csv",
        ),
    ],
)
def test_cli_rejects_an_invalid_spec(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_spec" and error["message"].startswith(message)


@pytest.mark.parametrize(
    "flag, default, other",
    [
        ("--delta", "0", "0.5"),
        ("--gamma1", "0", "0.3"),
        ("--gamma2", "0", "0.3"),
        ("--kappa", "0", "0.3"),
        ("--outputs", "n1,n2,n3", "n2"),
        ("--epsilon", "1e-9", "1e3"),
        ("--atoms", "1e6", "10"),
        ("--format", "csv", "json"),
    ],
)
def test_cli_omitted_flag_takes_its_documented_default(capsys, flag, default, other):
    # outside preset mode an omitted flag reads as its help text's default,
    # and the flag is live: another value changes the output (its header at least)
    base = ("--rho", "2", "--sweep", "tau:0:2:3")
    omitted = run_cli(capsys, *base)
    assert omitted[0] == 0
    assert run_cli(capsys, *base, flag, default) == omitted
    assert f"(default {default})" in " ".join(_build_parser().format_help().split())
    changed = run_cli(capsys, *base, flag, other)
    assert changed[0] == 0 and changed[1] != omitted[1]


def test_cli_infinite_tau_sweep_is_written_as_csv(capsys):
    # a stable row reads its steady state; a row with gain >= 0 has none and
    # reads not_stable, keeping its gain cell
    code, out, err = run_cli(
        capsys, "--rho", "2", "--delta", "-4", "--gamma1", ".1", "--gamma2", ".1", "--tau",
        "inf", "--sweep", "kappa:0.1:2:3", "--outputs", "n1,gain,mineig_s12",
    )
    assert code == 0 and err == ""
    assert "tau=inf" in out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "kappa,n1,gain,mineig_s12,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[-1] for row in rows] == ["ok", "not_stable", "not_stable"]
    assert float(rows[0][2]) < 0 and float(rows[0][3]) == pytest.approx(-0.30748, abs=1e-5)
    assert [float(row[2]) for row in rows[1:]] == pytest.approx([0.0344, 0.0559], abs=1e-4)
    assert all(row[1] == row[3] == "" for row in rows[1:])


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["no_oracle", "oracle"])
@pytest.mark.parametrize(
    "params",
    [
        ("--rho", "2", "--delta", "-4", "--gamma1", ".1", "--gamma2", ".1", "--kappa", ".5"),
        ("--rho", "100"),
    ],
    ids=["stable", "unstable"],
)
def test_cli_point_rejects_infinite_tau_before_evaluating(capsys, monkeypatch, params, oracle):
    # a point report is JSON, which cannot hold tau=inf: stable or not, with
    # or without the oracle, the request is refused before any evaluation
    import tricarl.cli as cli_module

    monkeypatch.setattr(cli_module, "evolve_point", None)
    code, out, err = run_cli(capsys, *params, "--tau", "inf", *oracle)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "invalid_spec",
        "message": "tau=inf has no JSON encoding; a point report needs a finite tau",
    }


def test_cli_csv_runs_call_the_traced_names(capsys, monkeypatch):
    # the benchmark tracer times these three names of tricarl.cli.  The
    # command line formats each block as it arrives, once per block (fig1a's
    # four 301-point curves are blocks of 3 and 1), and calls neither
    # run_preset nor run_sweep, which join every block into one table
    import tricarl.cli as cli_module

    calls = []
    for name in ("run_sweep", "run_preset", "_rows_to_csv"):

        def counted(*args, _name=name, _true=getattr(cli_module, name)):
            calls.append(_name)
            return _true(*args)

        monkeypatch.setattr(cli_module, name, counted)
    assert run_cli(capsys, "--preset", "fig1a")[0] == 0
    assert run_cli(capsys, "--rho", "100", "--sweep", "tau:0:1:3")[0] == 0
    assert calls == ["_rows_to_csv"] * 3


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_sweep_rows_beyond_the_block_exponential_are_non_finite(capsys, fmt):
    # |A|_1 tau ~ 1e308 leaves no representable step tau / 2^k for Van
    # Loan's block exponential; the grid's span overflows a float too
    code, out, err = run_cli(
        capsys, "--rho", "100", "--tau", "1", "--sweep", "delta:-1e308:1e308:3",
        "--outputs", "n1", "--format", fmt,
    )
    assert code == 0 and err == ""
    if fmt == "json":
        rows = json.loads(out)["rows"]
    else:
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [row["status"] for row in rows] == ["non_finite", "ok", "non_finite"]
    assert [float(row["delta"]) for row in rows] == [-1e308, 0.0, 1e308]


def test_cli_point_beyond_the_block_exponential_is_non_finite(capsys):
    code, out, err = run_cli(capsys, "--rho", "100", "--delta", "1e308", "--tau", "1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "non_finite"


def test_cli_sidecar_versions_and_status_counts(capsys, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        for argv, counts in (
            (["--rho", "100", "--sweep", "tau:0:800:5", "--outputs", "n1"],
             {"non_finite": 2, "ok": 3}),
            (["--preset", "fig1a"], {"ok": 4 * 301}),
            (["--rho", "100", "--sweep", "tau:0:2000:3", "--outputs", "gain,n1"],
             {"non_finite": 2, "ok": 1}),
        ):
            target = tmp_path / "rows.csv"
            code, _, _ = run_cli(capsys, *argv, "--out", str(target))
            assert code == 0
            data = target.read_bytes()
            sidecar = json.loads((tmp_path / "rows.csv.run.json").read_text())
            assert "scipy" not in sidecar
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


def test_cli_parser_is_built_once_and_keeps_no_flags(capsys):
    point = [
        "--rho", "100", "--delta", "3.5", "--gamma1", "0.5", "--gamma2", "0.5",
        "--kappa", "0.5", "--tau", "2",
    ]
    sweep = ["--rho", "100", "--sweep", "tau:0:1:3", "--outputs", "n1"]
    calls = [point + ["--oracle"], point, sweep + ["--format", "json"], sweep]
    separate = []
    for argv in calls:
        _build_parser.cache_clear()  # a fresh parser, as in a new process
        separate.append(run_cli(capsys, *argv))
    _build_parser.cache_clear()
    consecutive = [run_cli(capsys, *argv) for argv in calls]
    assert consecutive == separate
    assert _build_parser.cache_info().misses == 1
    assert "oracle_max_abs_diff" in json.loads(consecutive[0][1])
    assert "oracle_max_abs_diff" not in json.loads(consecutive[1][1])
    assert consecutive[3][1].startswith("# tricarl sweep")
    with pytest.raises(SystemExit) as exit_info:
        main(point + ["--no-such-flag"])
    assert exit_info.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert _build_parser.cache_info().misses == 1
