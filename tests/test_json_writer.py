"""The JSON writer against the json module.

``cli._json_dumps`` writes the bytes of ``json.dumps(payload, indent=2,
allow_nan=False) + "\\n"`` without the json module's pure-Python indenting
encoder.  These tests pin that on drawn payloads, on the errors a
non-finite float or an unknown type raises, and on what the command line
writes: point reports, sweep and preset JSON for every figure preset and
every grid of ``test_sweep_golden.py``, the error record on stderr and
the ``.run.json`` sidecar of ``--out``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sweep_golden import failure_grids
from tricarl import OUTPUTS, ModelParams, evolve_point
from tricarl.cli import _json_dumps, main
from tricarl.presets import PRESETS


def stdlib_text(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def assert_same_text(got, want):
    # compared as lists of lines: pytest reports the first differing line
    assert got.split("\n") == want.split("\n")


SPECIAL_STRINGS = ["", 'a "quoted" \\ path', "tab\tnew\nline\r\x00\x1f\x7f", "é ü ℏ ρ", "😀 \ud800"]
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e-4, 1.5e300, -1e22]
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.text(),
    st.sampled_from(SPECIAL_STRINGS),
    finite_floats,
    st.sampled_from(SPECIAL_FLOATS),
    # a float subclass: json writes it by float.__repr__
    st.one_of(finite_floats, st.sampled_from(SPECIAL_FLOATS)).map(np.float64),
    st.integers(),
    st.sampled_from([-(2**70), 2**64, 10**30]),
    st.booleans(),
    st.none(),
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(SPECIAL_STRINGS)), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(payloads)
def test_writer_equals_json_dumps_on_drawn_payloads(payload):
    assert _json_dumps(payload) == stdlib_text(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("nest", [lambda x: x, lambda x: [1.0, x], lambda x: {"a": {"b": [x]}}])
def test_writer_rejects_non_finite_floats_as_json_dumps_does(bad, nest):
    payload = nest(bad)
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        stdlib_text(payload)
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        _json_dumps(payload)


@pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), np.array([1.0]), {1.0}])
def test_writer_rejects_what_json_dumps_cannot_encode(bad):
    with pytest.raises(TypeError):
        stdlib_text([bad])
    with pytest.raises(TypeError):
        _json_dumps([bad])


FIG5 = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("tau", [0.0, 2.0])
def test_point_report_text_equals_json_dumps(tau, oracle):
    # tau=0 is the vacuum, whose ratio cells are None
    report = evolve_point(FIG5, tau, oracle=oracle)
    assert (report["observables"]["xi"] == [None] * 3) == (tau == 0.0)
    assert _json_dumps(report) == stdlib_text(report)


def cli_stdout(capsys, argv, code=0):
    assert main(argv) == code
    captured = capsys.readouterr()
    return captured.out, captured.err


def assert_stdlib_rendering(text):
    # json.loads keeps floats, ints, strings and nesting as written, so the
    # text is the json module's rendering of what it encodes only if this holds
    assert_same_text(text, stdlib_text(json.loads(text)))


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_preset_json_equals_json_dumps(capsys, preset_id):
    out, _ = cli_stdout(capsys, ["--preset", preset_id, "--format", "json"])
    assert_stdlib_rendering(out)


def grid_argv(spec):
    fixed = [x for name, value in spec.fixed.to_dict().items() for x in (f"--{name}", repr(value))]
    tau = [] if spec.tau is None else ["--tau", repr(spec.tau)]
    grid = f"{spec.axis}:{spec.start!r}:{spec.stop!r}:{spec.points}"
    return [*fixed, *tau, "--sweep", grid, "--outputs", ",".join(spec.outputs), "--format", "json"]


@pytest.mark.parametrize("name", sorted(failure_grids()))
def test_failure_grid_json_equals_json_dumps(capsys, name):
    spec = failure_grids()[name]
    assert spec.outputs == OUTPUTS
    out, _ = cli_stdout(capsys, grid_argv(spec))
    rows = json.loads(out)["rows"]
    assert len(rows) == spec.points
    assert_stdlib_rendering(out)


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_cli_point_report_equals_json_dumps(capsys, oracle):
    for tau in ("0", "2"):
        out, _ = cli_stdout(capsys, ["--rho", "100", "--delta", "3.5", "--tau", tau, *oracle])
        assert_stdlib_rendering(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["--rho", "100", "--sweep", "tau:0:800:5", "--outputs", "n1,gain"],
        ["--preset", "fig3"],
        ["--rho", "100", "--tau", "1"],
    ],
)
def test_sidecar_equals_json_dumps(capsys, tmp_path, argv):
    # a non-ASCII path, which the sidecar's argv holds escaped
    out = tmp_path / "rows é.txt"
    assert cli_stdout(capsys, [*argv, "--out", str(out)]) == ("", "")
    sidecar = out.with_name(out.name + ".run.json").read_text(encoding="utf-8")
    assert json.loads(sidecar)["argv"][-1] == str(out)
    assert_stdlib_rendering(sidecar)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--rho", "-3", "--tau", "1"], 2),
        (["--preset", "fig3é"], 2),  # a non-ASCII message
        (["--rho", "1e-160", "--delta", "0", "--tau", "1"], 3),
    ],
)
def test_error_record_equals_json_dumps(capsys, argv, code):
    out, err = cli_stdout(capsys, argv, code)
    assert out == ""
    assert "error" in json.loads(err)
    assert_stdlib_rendering(err)
