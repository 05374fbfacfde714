"""The batched sweep against the single-row path it replaces.

``run_sweep`` evaluates a grid as stacked array programs and sends every
row that a guard flags back through ``_evaluate_row``.  Its rows must be
those of ``_evaluate_row`` at every grid value: the same statuses, the same
empty cells and floats within 1e-12 on the scale each value is accurate on
(n relative to C_ii, xi relative to the terms whose difference it is,
minimum eigenvalues relative to the test-matrix norm, gain relative to the
spectral radius).  Both paths run the same kernels; elementwise numpy loops
may round the last bit differently for different array lengths, and near
vacuum xi and g2 amplify that by C_ii / n_i, which the scales include.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricarl.sweep as sweep_module
from tricarl import (
    OUTPUTS,
    ModelParams,
    SweepSpec,
    TricarlError,
    covariance,
    cubic_roots,
    mode_observables,
    run_sweep,
    separability_report,
)
from tricarl.entanglement import _separability_stack, quadrature_covariance
from tricarl.observables import _observable_stack
from tricarl.sweep import _evaluate_row

RTOL = 1e-12
# gain threshold of rho=100, gamma=kappa=0: two cubic roots merge here
DELTA_STAR = 1.8899212590353163

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def value_scale(name, spec, row):
    """Scale on which the per-row value of ``name`` is accurate."""
    params, tau = spec.point(row[spec.axis])
    if name == "gain":
        lam = 1j * (cubic_roots(params) - params.delta) - 0.5 * (params.gamma1 + params.gamma2)
        return float(np.abs(lam).max())
    c = covariance(params, tau).c
    if name[0] == "n":
        return c[int(name[1]) - 1, int(name[1]) - 1].real
    if name == "bunching":
        return (c[0, 0].real + c[1, 1].real + 2.0 * abs(c[0, 1])) / spec.atom_number
    if name.startswith("mineig"):
        return np.linalg.norm(quadrature_covariance(c), 2) + 1.0
    i, j = (int(k) - 1 for k in name[-2:])
    cii, cjj, cross_sq = c[i, i].real, c[j, j].real, abs(c[i, j]) ** 2
    ni, nj = max(cii - 0.5, 1e-300), max(cjj - 0.5, 1e-300)
    if name.startswith("xi"):
        # var_i = n_i (n_i + 1), n_i rounded on the scale of C_ii:
        # d var_i = (2 n_i + 1) C_ii eps = 2 C_ii^2 eps
        terms = sum(2.0 * cc**2 for cc in (cii, cjj))
        return (terms + 2.0 * cross_sq) / (ni + nj)
    # g2 = 1 + |C_ij|^2 / (n_i n_j), n_i rounded on the scale of C_ii
    return 1.0 + cross_sq / (ni * nj) * (cii / ni + cjj / nj + 2.0)


def assert_rows_match(spec, rows):
    expected = [_evaluate_row(spec, value) for value in spec.grid()]
    assert len(rows) == len(expected)
    for row, reference in zip(rows, expected):
        assert list(row) == list(reference)
        assert row["status"] == reference["status"]
        for name in spec.outputs:
            got, want = row[name], reference[name]
            assert (got is None) == (want is None), (name, row, reference)
            if isinstance(want, str) or want is None:
                assert got == want
            elif got != want:
                assert abs(got - want) <= RTOL * value_scale(name, spec, reference), name


AXIS_RANGES = {
    "delta": st.floats(-5.0, 5.0),
    "tau": st.floats(0.0, 5.0),
    "gamma": st.floats(0.0, 2.0),
    "kappa": st.floats(0.0, 2.0),
}


@st.composite
def sweep_specs(draw):
    axis = draw(st.sampled_from(sorted(AXIS_RANGES)))
    lo, hi = sorted(draw(st.lists(AXIS_RANGES[axis], min_size=2, max_size=2, unique=True)))
    fixed = ModelParams(
        rho=draw(st.floats(0.1, 200.0)),
        delta=draw(st.floats(-5.0, 5.0)),
        gamma1=draw(st.floats(0.0, 2.0)),
        gamma2=draw(st.floats(0.0, 2.0)),
        kappa=draw(st.floats(0.0, 2.0)),
    )
    outputs = tuple(draw(st.lists(st.sampled_from(OUTPUTS), min_size=1, unique=True)))
    return SweepSpec(
        axis=axis,
        start=lo,
        stop=hi,
        points=draw(st.integers(2, 9)),
        fixed=fixed,
        outputs=outputs,
        tau=None if axis == "tau" else draw(st.floats(0.0, 5.0)),
        atom_number=draw(st.floats(1.0, 1e7)),
    )


@PROPERTY_SETTINGS
@given(sweep_specs())
def test_batched_rows_equal_single_row_rows(spec):
    assert_rows_match(spec, run_sweep(spec))


def count_rerouted_rows(monkeypatch):
    calls = []

    def counted(spec, value):
        calls.append(value)
        return _evaluate_row(spec, value)

    monkeypatch.setattr(sweep_module, "_evaluate_row", counted)
    return calls


def test_rows_across_the_gain_threshold_match():
    # two roots merge at delta*, where the closed form keeps the fewest digits
    for tau in (0.5, 5.0):
        spec = SweepSpec(
            axis="delta",
            start=DELTA_STAR - 2e-8,
            stop=DELTA_STAR + 2e-8,
            points=9,
            fixed=ModelParams(rho=100.0, delta=0.0),
            outputs=OUTPUTS,
            tau=tau,
        )
        assert DELTA_STAR in spec.grid()
        assert_rows_match(spec, run_sweep(spec))


def test_degenerate_rows_take_the_single_row_path(monkeypatch):
    # rounding keeps the roots at delta* about 2e-8 apart, above the default
    # threshold; a wider one flags the rows next to delta*, which are then
    # rerouted and get the block-exponential fallback
    import tricarl.dynamics as dynamics

    monkeypatch.setattr(
        dynamics, "degeneracy_threshold", lambda w: 1e-3 * np.maximum(1.0, np.abs(w).max(axis=-1))
    )
    spec = SweepSpec(
        axis="delta",
        start=DELTA_STAR - 1e-5,
        stop=DELTA_STAR + 1e-5,
        points=5,
        fixed=ModelParams(rho=100.0, delta=0.0),
        outputs=("n1", "xi12", "gain", "mineig_gamma1", "class"),
        tau=2.0,
    )
    rerouted = count_rerouted_rows(monkeypatch)
    rows = run_sweep(spec)
    assert rerouted == [DELTA_STAR]
    assert all(row["status"] == "ok" for row in rows)
    assert_rows_match(spec, rows)


def test_regular_grid_needs_no_single_row_evaluation(monkeypatch):
    rerouted = count_rerouted_rows(monkeypatch)
    spec = SweepSpec(
        axis="tau",
        start=0.0,
        stop=5.0,
        points=11,
        fixed=ModelParams(100.0, 3.5, 0.5, 0.5, 0.5),
        outputs=OUTPUTS,
    )
    rows = run_sweep(spec)
    assert rerouted == []
    assert_rows_match(spec, rows)


@pytest.mark.parametrize("outputs", [("gain",), ("gain", "n1", "xi12", "class")])
@pytest.mark.parametrize("axis", ["delta", "tau", "gamma", "kappa"])
def test_tiny_rho_rows_are_non_finite(axis, outputs):
    # the characteristic cubic overflows below rho ~ 1e-150
    spec = SweepSpec(
        axis=axis,
        start=0.0,
        stop=1.0,
        points=3,
        fixed=ModelParams(rho=1e-160, delta=0.0),
        outputs=outputs,
        tau=None if axis == "tau" else 1.0,
    )
    rows = run_sweep(spec)
    assert [row["status"] for row in rows] == ["non_finite"] * 3
    for row in rows:
        assert all(row[name] is None for name in spec.outputs)
    assert_rows_match(spec, rows)


def test_batch_failure_falls_back_to_single_rows(monkeypatch):
    # a LAPACK error anywhere in a stacked call stops the whole chunk; its
    # rows are then evaluated one by one
    spec = SweepSpec(
        axis="delta",
        start=-1.0,
        stop=4.0,
        points=6,
        fixed=ModelParams(100.0, 0.0, 0.5, 0.5, 0.5),
        outputs=("n1", "xi12", "gain", "mineig_s12"),
        tau=1.0,
    )

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(sweep_module, "_closed_form_stack", broken)
    rerouted = count_rerouted_rows(monkeypatch)
    rows = run_sweep(spec)
    assert len(rerouted) == spec.points
    assert rows == [_evaluate_row(spec, value) for value in spec.grid()]


def test_long_grid_is_evaluated_in_chunks(monkeypatch):
    monkeypatch.setattr(sweep_module, "_CHUNK_ROWS", 7)
    spec = SweepSpec(
        axis="tau",
        start=0.0,
        stop=3.0,
        points=30,
        fixed=ModelParams(100.0, 3.5, 0.5, 0.5, 0.5),
        outputs=("n1", "xi12", "class"),
    )
    chunked = run_sweep(spec)
    monkeypatch.undo()
    assert chunked == run_sweep(spec)
    assert [row["tau"] for row in chunked] == spec.grid().tolist()


def corrupted_covariances():
    """Covariances that trip each guard of the observables and separability
    tests, next to a valid evolved state."""
    good = covariance(ModelParams(100.0, 3.5, 0.5, 0.5, 0.5), 2.0).c
    vacuum = 0.5 * np.eye(3, dtype=complex)
    stack = [good, vacuum]
    for base, entry, shift in (
        (vacuum, (0, 0), -1e-5),  # below the vacuum floor
        (vacuum, (2, 2), -1e-7),  # below zero, above the floor
        (good, (1, 1), 1e-3j),  # imaginary residue on the diagonal
        (good, (0, 1), 1e-3j),  # not Hermitian (bunching residue, test matrices)
        (good, (1, 2), np.inf),
        (good, (0, 0), np.nan),
    ):
        c = base.copy()
        c[entry] += shift
        stack.append(c)
    return np.array(stack)


def raises(fn, *args):
    try:
        fn(*args)
    except (TricarlError, ValueError):
        return True
    return False


def test_batched_guards_flag_what_the_single_state_path_rejects():
    stack = corrupted_covariances()
    with np.errstate(all="ignore"):
        _, obs_ok = _observable_stack(stack, 1e6)
        *_, sep_ok = _separability_stack(stack, 1e-9)
    assert obs_ok.tolist() == [not raises(mode_observables, c, 1e6) for c in stack]
    assert sep_ok.tolist() == [not raises(separability_report, c) for c in stack]
    assert not obs_ok.all() and not sep_ok.all()
