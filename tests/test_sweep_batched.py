"""The batched sweep against the row-by-row evaluator it replaced.

``run_sweep`` evaluates a grid as stacked array programs, each row once,
with its status taken from the kernels' guard masks.  Its rows must be
those of ``oracles.evaluate_row``, which runs each grid value through the
raising one-state functions: the same statuses, the same empty cells and
floats within 1e-12 on the scale each value is accurate on (n relative to
C_ii, xi relative to the terms whose difference it is, minimum eigenvalues
relative to the test-matrix norm, gain relative to the spectral radius).
The one-state functions are the one-state case of the same kernels;
elementwise numpy loops may round the last bit differently for different
array lengths, and near vacuum xi and g2 amplify that by C_ii / n_i, which
the scales include.  The kernels' statuses themselves are pinned by
hard-coded cases and a property test over random corruptions here, and by
the golden layouts of test_sweep_golden.py.
"""

import dataclasses
import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricarl.sweep as sweep_module
from test_sweep_golden import failure_grids
from oracles import (
    evaluate_row,
    mixed_basis_bound,
    mp_covariance,
    mp_min_eigs,
    mp_steady_state,
    quadrature_covariance,
    spec_point,
)
from tricarl import (
    OUTPUTS,
    CovarianceState,
    ModelParams,
    SweepSpec,
    TricarlError,
    as_rows,
    covariance,
    cubic_roots,
    figure_preset,
    mode_observables,
    physicality,
    run_preset,
    run_sweep,
    separability_report,
    steady_state,
)
from tricarl.covariance import HERMITIZE_TOL, _hermitian_part
from tricarl.entanglement import _physicality_floor, _separability_stack
from tricarl.errors import NonFinite, NotHermitian, NotStable, first_failure
from tricarl.observables import _defined_cells, _observable_stack, _vacuum_floor
from tricarl.cli import main
from tricarl.presets import PRESETS

RTOL = 1e-12
# gain threshold of rho=100, gamma=kappa=0: two cubic roots merge here
DELTA_STAR = 1.8899212590353163
FIG5 = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)

# the package attribute tricarl.covariance is the function of that name
covariance_module = importlib.import_module("tricarl.covariance")

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def value_scale(name, spec, row):
    """Scale on which the per-row value of ``name`` is accurate."""
    params, tau = spec_point(spec, row[spec.axis])
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
    assert_rows_close(spec, rows, [evaluate_row(spec, value) for value in spec.grid()])


def assert_rows_close(spec, rows, expected):
    """Same keys, statuses, empty cells and labels; floats within RTOL of
    their scales."""
    assert len(rows) == len(expected)
    for row, reference in zip(rows, expected):
        assert list(row) == list(reference)
        assert row["status"] == reference["status"]
        for name in spec.outputs:
            got, want = row[name], reference[name]
            assert (got is None) == (want is None), (name, row, reference)
            if isinstance(want, str) or want is None:
                assert got == want
            elif abs(got - want) > RTOL * abs(want):  # every scale is at least |value|
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
    assert_rows_match(spec, as_rows(run_sweep(spec)))


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
        assert_rows_match(spec, as_rows(run_sweep(spec)))


def test_degenerate_rows_stay_in_the_batch(monkeypatch):
    # two roots merge at delta*: the rows around it take the closed form of
    # every other row, inside the stack, and none reaches the block exponential
    def refused(*args):
        raise AssertionError("a sweep row reached the block exponential")

    monkeypatch.setattr(covariance_module, "_van_loan_noise", refused)
    spec = SweepSpec(
        axis="delta",
        start=DELTA_STAR - 1e-5,
        stop=DELTA_STAR + 1e-5,
        points=5,
        fixed=ModelParams(rho=100.0, delta=0.0),
        outputs=("n1", "xi12", "gain", "mineig_gamma1", "class"),
        tau=2.0,
    )
    rows = as_rows(run_sweep(spec))
    assert all(row["status"] == "ok" for row in rows)
    assert_rows_match(spec, rows)


def test_routed_steady_state_rows_read_the_steady_state():
    # a tau=inf sweep evaluates the closed form at tau=inf, the kernel of
    # steady_state: a stable row reads the steady state, an unstable one
    # not_stable
    spec = SweepSpec(
        axis="kappa",
        start=0.4,
        stop=0.6,
        points=3,
        fixed=ModelParams(rho=2.0, delta=-4.0, gamma1=0.1, gamma2=0.1),
        outputs=("n1", "xi12", "mineig_s12", "class"),
        tau=math.inf,
    )
    rows = as_rows(run_sweep(spec))
    assert [row["status"] for row in rows] == ["ok", "ok", "not_stable"]
    for row in rows[:2]:
        state = steady_state(spec_point(spec, row["kappa"])[0])
        obs, report = mode_observables(state), separability_report(state)
        assert row["n1"] == pytest.approx(obs.n[0], rel=RTOL)
        assert row["xi12"] == pytest.approx(obs.xi[0], rel=RTOL)
        assert row["mineig_s12"] == pytest.approx(report.min_eig_s[0], rel=RTOL, abs=RTOL)
        assert row["class"] == report.class_label


# the paper's headline: steady-state entanglement between the atoms of
# opposite momenta (S12) and between atoms and photons (S13), with the
# expected S12, S13 and class of each stable point
HEADLINE_POINTS = [
    (ModelParams(2.0, -4.0, 0.1, 0.1, 0.5), -0.18108, -0.19950, "fully_inseparable"),
    (ModelParams(100.0, 3.5, 0.5, 0.5, 2.0), -0.41610, None, "one_mode_biseparable(3)"),
]


@pytest.mark.parametrize("params, s12, s13, label", HEADLINE_POINTS)
def test_steady_state_entanglement_reads_alike_on_every_path(params, s12, s13, label):
    # steady_state with separability_report, the tau=inf sweep row and the
    # point report at tau=inf, each against the 30-digit block minima
    state = steady_state(params)
    reference = mp_min_eigs(mp_steady_state(params, 40), 30)[3:5]
    bound = mixed_basis_bound(state.c)
    assert reference[0] == pytest.approx(s12, abs=1e-5)
    if s13 is not None:
        assert reference[1] == pytest.approx(s13, abs=1e-5)
    report = separability_report(state)
    spec = SweepSpec(
        axis="kappa",
        start=params.kappa,
        stop=params.kappa + 1.0,
        points=2,
        fixed=params,
        outputs=("mineig_s12", "mineig_s13", "class"),
        tau=math.inf,
    )
    row = as_rows(run_sweep(spec))[0]
    point = sweep_module.evolve_point(params, math.inf)
    paths = {
        "steady_state": (report.min_eig_s[:2], report.class_label),
        "sweep": ((row["mineig_s12"], row["mineig_s13"]), row["class"]),
        "evolve_point": (point["separability"]["min_eig_s"][:2], point["separability"]["class"]),
    }
    for path, (pairs, got_label) in paths.items():
        assert np.abs(np.subtract(pairs, reference)).max() <= bound, path
        assert got_label == label, path
    assert row["status"] == "ok"
    # the point report at tau=inf is the steady state, bit for bit
    c = np.array(point["covariance"]["real"]) + 1j * np.array(point["covariance"]["imag"])
    assert np.array_equal(c, state.c)
    assert point["tau"] == math.inf


def test_unstable_steady_state_reads_not_stable_on_every_path():
    # kappa=2 makes rho=2, delta=-4, gamma=0.1 grow (gain +0.056): no steady
    # state on any path; the sweep row keeps its gain cell
    params = ModelParams(2.0, -4.0, 0.1, 0.1, 2.0)
    for call in (steady_state, lambda p: covariance(p, math.inf)):
        with pytest.raises(NotStable):
            call(params)
    with pytest.raises(NotStable):
        sweep_module.evolve_point(params, math.inf)
    spec = SweepSpec(
        axis="kappa",
        start=2.0,
        stop=3.0,
        points=2,
        fixed=params,
        outputs=("gain", "mineig_s12", "mineig_s13", "class"),
        tau=math.inf,
    )
    row = as_rows(run_sweep(spec))[0]
    assert row["status"] == "not_stable"
    assert row["gain"] == pytest.approx(0.05593, abs=1e-5)
    assert [row[name] for name in spec.outputs[1:]] == [None, None, None]


def test_regular_tau_grid_rows_match():
    spec = SweepSpec(
        axis="tau",
        start=0.0,
        stop=5.0,
        points=11,
        fixed=ModelParams(100.0, 3.5, 0.5, 0.5, 0.5),
        outputs=OUTPUTS,
    )
    assert_rows_match(spec, as_rows(run_sweep(spec)))


def joined_run(specs):
    """The table of a run of curves, its blocks joined."""
    return sweep_module._concat(table for _, table in sweep_module._run(specs))


@pytest.mark.parametrize(
    "axis, start, stop, tau, lossless, other",
    [
        # through the overflow of C near tau = 406
        ("tau", 0.0, 450.0, None, ModelParams(100.0, 0.0), ModelParams(100.0, 3.5)),
        ("tau", 0.0, 20.0, None, ModelParams(0.3, 1.2), ModelParams(0.3, 3.5)),
        ("delta", -3.0, 8.0, 5.0, ModelParams(100.0, 0.0), ModelParams(50.0, 0.0)),
    ],
)
def test_lossless_rows_read_alike_without_and_with_the_noise_integral(
    axis, start, stop, tau, lossless, other, monkeypatch
):
    # a block with no diffusion skips Phi (Q = 0); beside a lossy curve on
    # the same grid the lossless rows take the full path, Q = Phi times
    # D = 0.  Each block holds two curves, so that both solve a stack of
    # cubics (one cubic may round the last bit unlike a stack of them)
    phi_passes = []
    true_phi = covariance_module._phi

    def counted(*args):
        phi_passes.append(args[0].shape)
        return true_phi(*args)

    monkeypatch.setattr(covariance_module, "_phi", counted)
    lossy = ModelParams(lossless.rho, lossless.delta, 0.5, 0.5, 0.5)
    specs = [
        SweepSpec(axis, start, stop, 40, fixed, OUTPUTS, tau=tau)
        for fixed in (lossless, other, lossy)
    ]
    without = as_rows(joined_run(specs[:2]))[:40]
    assert phi_passes == []
    with_noise = as_rows(joined_run(specs[::2]))[:40]
    assert len(phi_passes) == 1
    assert repr(without) == repr(with_noise)


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
    rows = as_rows(run_sweep(spec))
    assert [row["status"] for row in rows] == ["non_finite"] * 3
    for row in rows:
        assert all(row[name] is None for name in spec.outputs)
    assert_rows_match(spec, rows)


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
    chunked = as_rows(run_sweep(spec))
    monkeypatch.undo()
    assert chunked == as_rows(run_sweep(spec))
    assert [row["tau"] for row in chunked] == spec.grid().tolist()


def count_passes(monkeypatch):
    passes = []
    true_table = sweep_module._table

    def counted(specs, values):
        passes.append(values.shape)
        return true_table(specs, values)

    monkeypatch.setattr(sweep_module, "_table", counted)
    return passes


# presets of at most _CHUNK_ROWS rows
ONE_PASS_PRESETS = {f"fig{k}" for k in range(3, 16)}


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_preset_block_equals_its_curves_swept_one_by_one(preset_id, monkeypatch):
    # a preset stacks its curves into (curves, points) blocks of up to
    # _CHUNK_ROWS rows; each curve on its own is a one-curve sweep.  On a
    # delta or gain axis only the swept field is an array either way, and
    # every float is bit-equal; a tau preset solves a (curves, 1, 4) stack
    # of cubics, not one cubic, which may round the last bit differently.
    preset = figure_preset(preset_id)
    passes = count_passes(monkeypatch)
    rows = as_rows(run_preset(preset))
    if preset_id == "fig1":
        assert passes == [(3, 301), (3, 301), (1, 301)]
    elif preset_id in ONE_PASS_PRESETS:
        assert passes == [(len(preset.curves), preset.curves[0][1].points)]
    monkeypatch.undo()
    start = 0
    for label, spec in preset.curves:
        block, start = rows[start : start + spec.points], start + spec.points
        assert [row.pop("curve") for row in block] == [label] * spec.points
        single = as_rows(run_sweep(spec))
        if spec.axis == "tau":
            assert_rows_close(spec, block, single)
        else:
            assert repr(block) == repr(single)
    assert start == len(rows)


# entries over four orders of magnitude: C_33 sets the scale that C's
# Hermitian defect is measured on, far above that of the (1, 2) block
SPREAD = np.diag([0.6, 0.7, 1e4]).astype(complex)
SPREAD[0, 1], SPREAD[1, 0] = 0.05 + 0.02j, 0.05 - 0.02j


def corrupted_covariances():
    """Covariances that trip C's check and the guards of the observables
    and separability tests, next to a valid evolved state, with the status
    that ``mode_observables`` and ``separability_report`` must give them:
    the first guard they fail, C's check first."""
    good = covariance(ModelParams(100.0, 3.5, 0.5, 0.5, 0.5), 2.0).c
    vacuum = 0.5 * np.eye(3, dtype=complex)
    cases = [(good, "ok", "ok"), (vacuum, "ok", "ok"), (SPREAD, "ok", "ok")]
    for base, entry, shift, observables_status, separability_status in (
        # below the vacuum floor
        (vacuum, (0, 0), -1e-5, "negative_occupation", "ok"),
        # below zero, above the floor
        (vacuum, (2, 2), -1e-7, "ok", "ok"),
        # an imaginary residue on the diagonal: C is not Hermitian
        (good, (1, 1), 1e-3j, "not_hermitian", "not_hermitian"),
        # C's check comes before the floor
        (vacuum, (0, 0), -1e-5 + 1e-3j, "not_hermitian", "not_hermitian"),
        # a defect of 1.8e-9, above C's tolerance of 1e-10
        (vacuum, (0, 0), 0.9e-9j, "not_hermitian", "not_hermitian"),
        (vacuum, (0, 0), -1e-5 + 0.9e-9j, "not_hermitian", "not_hermitian"),
        # not Hermitian off the diagonal
        (good, (0, 1), 1e-3j, "not_hermitian", "not_hermitian"),
        # an inf C_23 or a NaN C_11 fails C's check
        (good, (1, 2), np.inf, "non_finite", "non_finite"),
        (good, (0, 0), np.nan, "non_finite", "non_finite"),
        # a defect of 1e-5 against C_33 = 1e4: 1e-9, above C's tolerance
        (SPREAD, (0, 1), 1e-5, "not_hermitian", "not_hermitian"),
    ):
        c = base.copy()
        c[entry] += shift
        cases.append((c, observables_status, separability_status))
    return cases


def raised_code(fn, *args):
    try:
        fn(*args)
    except (TricarlError, ValueError) as exc:
        return getattr(exc, "code", "error")
    return "ok"


def pass_guards(stack):
    """The guards of a stack of C from outside the package, by kernel: C's
    check (``_hermitian_part``, which ``CovarianceState`` makes), then the
    guards that a pass runs on C's Hermitian part.  The caller runs it
    under np.errstate."""
    h, c_guards = _hermitian_part(stack)
    return {
        "covariance": list(c_guards),
        "observables": [_vacuum_floor(h)],
        "separability": _separability_stack(h, 1e-9)[-1],
    }


def test_batched_guards_flag_what_the_single_state_path_rejects():
    cases = corrupted_covariances()
    stack = np.array([c for c, _, _ in cases])
    with np.errstate(all="ignore"):
        guards = pass_guards(stack)
    obs_status = first_failure(*guards["covariance"], *guards["observables"]).tolist()
    sep_status = first_failure(*guards["covariance"], *guards["separability"]).tolist()
    assert obs_status == [status for _, status, _ in cases]
    assert sep_status == [status for _, _, status in cases]
    # the one-state functions raise the error class of that status; no case
    # fails a separability guard past C's check, so physicality raises what
    # separability_report raises
    assert [raised_code(mode_observables, c, 1e6) for c, _, _ in cases] == obs_status
    assert [raised_code(separability_report, c) for c, _, _ in cases] == sep_status
    assert [raised_code(physicality, c) for c, _, _ in cases] == sep_status


# valid covariances to corrupt: vacuum, lossy evolved states, and a lossless
# one whose C_ii differ by orders of magnitude
GUARD_BASES = (
    0.5 * np.eye(3, dtype=complex),
    covariance(ModelParams(100.0, 3.5, 0.5, 0.5, 0.5), 2.0).c,
    covariance(ModelParams(2.0, -4.0, 0.1, 0.1, 0.5), 1.0).c,
    covariance(ModelParams(100.0, 0.0), 3.0).c,
)
MODES = st.integers(0, 2)


@st.composite
def random_corruptions(draw):
    """A valid covariance with a random combination of corruptions: an
    occupation below zero (above or below the vacuum floor), an imaginary
    residue on C_ii, a non-Hermitian off-diagonal entry, inf and NaN."""
    c = GUARD_BASES[draw(st.integers(0, len(GUARD_BASES) - 1))].copy()
    if draw(st.booleans()):
        i = draw(MODES)
        c[i, i] = 0.5 + draw(st.sampled_from((-1e-7, -1e-5, -0.25))) + 1j * c[i, i].imag
    if draw(st.booleans()):
        i = draw(MODES)
        residue = draw(st.sampled_from((0.7e-9, 3e-9, 1e-3)))
        c[i, i] += 1j * residue * max(1.0, abs(c[i, i].real))
    if draw(st.booleans()):
        i, j = draw(st.tuples(MODES, MODES).filter(lambda ij: ij[0] != ij[1]))
        size = draw(st.sampled_from((1e-12, 1e-9, 1e-6, 1e-2))) * max(1.0, np.abs(c).max())
        c[i, j] += size * draw(st.sampled_from((1.0, 1j)))
    for value in (np.inf, np.nan):
        if draw(st.booleans()):
            c[draw(st.tuples(MODES, MODES))] = value
    return c


def relative_defect(m):
    """max|M - M^dag| / max(1, max|M|) of one matrix; NaN if not finite."""
    if not np.isfinite(m).all():
        return math.nan
    return float(np.abs(m - m.conj().T).max() / max(1.0, np.abs(m).max()))


def guard_predicates(c):
    """One predicate per guard, per kernel, in the documented order: C's
    check (CovarianceState), then the observables' and the separability
    tests' guards on C's Hermitian part, whose diagonal has C's real parts
    and which is finite where C is."""
    defect = relative_defect(c)
    return {
        "covariance": [("non_finite", math.isnan(defect)), ("not_hermitian", defect > HERMITIZE_TOL)],
        "observables": [("negative_occupation", any(c[i, i].real - 0.5 < -1e-6 for i in range(3)))],
        "separability": [
            ("non_finite", not np.isfinite(c).all()),
            # a non-finite minimum eigenvalue needs finite Hermitian test
            # matrices that overflow eigvalsh; entries here stay below 1e4
            ("non_finite", False),
        ],
    }


def overflowed_cell(c):
    """Whether a cell that the observables kernel leaves defined (not None)
    for c is inf or NaN; the caller runs it under np.errstate."""
    cells = _defined_cells(_observable_stack(c, 1e6), list).values()
    flat = [x for cell in cells for x in (cell if isinstance(cell, list) else [cell])]
    return not all(math.isfinite(x) for x in flat if x is not None)


def first_code(predicates):
    return next((code for code, failed in predicates if failed), "ok")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(random_corruptions(), min_size=1, max_size=4))
def test_guard_order_over_random_corruptions(cs):
    predicates = [guard_predicates(c) for c in cs]
    predicted = {
        kernel: [first_code(p[kernel]) for p in predicates]
        for kernel in ("covariance", "observables", "separability")
    }
    stack = np.array(cs)
    with np.errstate(all="ignore"):
        guards = pass_guards(stack)
        for kernel, kernel_guards in guards.items():
            status = first_failure(*kernel_guards)
            assert np.broadcast_to(status, len(cs)).tolist() == predicted[kernel], kernel
        # a sweep row reports the first failure along the pipeline: one
        # first_failure over the kernels' guards in pipeline order
        pipeline = first_failure(
            *guards["covariance"], *guards["observables"], *guards["separability"]
        )
        want = [first_code(p["covariance"] + p["observables"] + p["separability"]) for p in predicates]
        assert np.broadcast_to(pipeline, len(cs)).tolist() == want
        # the one-state functions raise the error class of C's check, then of
        # their kernel's guards (physicality's floor stays finite on entries
        # below 1e4); past them, mode_observables raises non_finite on an
        # inf or NaN cell
        for c, p in zip(cs, predicates):
            overflow = ("non_finite", overflowed_cell(_hermitian_part(c)[0]))
            expected = {
                "covariance": p["covariance"],
                "observables": p["covariance"] + p["observables"] + [overflow],
                "separability": p["covariance"] + p["separability"],
                "physicality": p["covariance"],
            }
            got = {
                "covariance": raised_code(CovarianceState, 0.0, c),
                "observables": raised_code(mode_observables, c, 1e6),
                "separability": raised_code(separability_report, c),
                "physicality": raised_code(physicality, c),
            }
            assert got == {kernel: first_code(checks) for kernel, checks in expected.items()}
        # a point report handed each C by _covariance_stack, past that
        # kernel's own guards, raises the class of the pipeline's status
        for c, status in zip(cs, want):
            with mock.patch.object(sweep_module, "_covariance_stack", return_value=(c, [])):
                assert raised_code(sweep_module.evolve_point, FIG5, 1.0) == status


def test_a_finite_c_whose_2h_overflows_reads_as_its_sweep_row_through_the_facades():
    # C is finite and Hermitian, but C_11 = 1.5e308 overflows 2H = C + C^dag:
    # the kernel computes on H = C and passes the row; an inf entry of H
    # reads non_finite, and eigvalsh sees that entry zeroed
    good = covariance(FIG5, 2.0).c
    big = 0.5 * np.eye(3, dtype=complex)
    big[0, 0] = 1.5e308
    poisoned = good.copy()
    poisoned[1, 1] = np.inf
    with np.errstate(all="ignore"):
        gammas, pairs, labels, guards = _separability_stack(np.array([good, big, poisoned]), 1e-9)
        alone = _separability_stack(good, 1e-9)
    assert first_failure(*guards).tolist() == ["ok", "ok", "non_finite"]
    assert gammas[0].tobytes() == alone[0].tobytes()
    assert pairs[0].tobytes() == alone[1].tobytes()
    assert labels[0] == alone[2]
    # 2H = diag(3e308, 1, 1): every block has a zero eigenvalue, and each pair
    # block a - d cancels to the last bit
    assert gammas[1].tolist() == [0.0] * 3 and pairs[1].tolist() == [0.0] * 3
    # the one-state functions make C's check and run the same kernels
    report = separability_report(big)
    assert report.min_eig_gamma == report.min_eig_s == (0.0,) * 3 and physicality(big) == 0.0
    # covariance's C_11 = 1.0755e308 at tau = 406.25, where the sweep row reads
    # ok: the report and the floor are that row's, bit for bit
    params, tau = ModelParams(100.0, 0.0), 406.25
    spec = SweepSpec("tau", 405.75, 406.75, 5, params, SEPARABILITY_OUTPUTS)
    table = run_sweep(spec)
    k = table["tau"].index(tau)
    assert table["status"][k] == "ok"
    state = covariance(params, tau)
    for cov in (state, state.c):
        report = separability_report(cov)
        got = (*report.min_eig_gamma, *report.min_eig_s, report.class_label)
        assert repr(got) == repr(tuple(table[name][k] for name in SEPARABILITY_OUTPUTS))
    # the floor of the pass's C on that row, which covariance returns bit for bit
    stack, times = sweep_module._stack((spec,), spec.grid()[np.newaxis])
    fields, _ = sweep_module._pass(stack, None, times, spec.outputs, 1e6, 1e-9)
    c = fields["covariance"][0][0, k]
    assert c.tobytes() == state.c.tobytes() and np.abs(c).max() > 1e308
    with np.errstate(over="ignore"):
        floor = float(_physicality_floor(c))
    assert physicality(state) == physicality(state.c) == floor


def test_a_facade_measures_the_hermitian_defect_of_an_array_once(monkeypatch):
    # a one-state function checks a C from outside the package once, with
    # the check that CovarianceState makes, and a CovarianceState, which
    # passed that check when it was made, not again.  A pass measures Q's
    # defect in the stack kernel and C's, and no stage after them measures one
    measured = []
    true_defect = covariance_module._hermitian_defect

    def recording(matrix, m_dag, axes=(-2, -1)):
        measured.append(np.moveaxis(matrix, axes, (-2, -1)))
        return true_defect(matrix, m_dag, axes)

    state = covariance(FIG5, 2.0)
    monkeypatch.setattr(covariance_module, "_hermitian_defect", recording)
    for facade in (mode_observables, separability_report, physicality):
        measured.clear()
        facade(state)
        assert measured == [], facade.__name__
        facade(state.c)
        assert len(measured) == 1 and np.array_equal(measured[0], state.c), facade.__name__
    measured.clear()
    run_sweep(SweepSpec("tau", 0.0, 5.0, 11, FIG5, OUTPUTS))
    assert len(measured) == 2


def test_covariance_measures_the_hermitian_defect_of_c_once(monkeypatch):
    # the stack kernel measures Q's defect; C's is measured by the one
    # check that CovarianceState and the pass share, not again
    measured = []
    true_defect = covariance_module._hermitian_defect

    def recording(matrix, m_dag, axes=(-2, -1)):
        measured.append(np.moveaxis(matrix, axes, (-2, -1)))
        return true_defect(matrix, m_dag, axes)

    monkeypatch.setattr(covariance_module, "_hermitian_defect", recording)
    for call in (lambda: covariance(FIG5, 1.5), lambda: steady_state(FIG5)):
        measured.clear()
        c = call().c
        # Q's defect in the stack kernel, then C's (at tau = inf C = Q)
        assert len(measured) == 2
        assert np.abs(measured[1] - c).max() <= 1e-12 * np.abs(c).max()


def test_a_sweep_row_keeps_the_occupations_of_covariance_near_the_largest_float():
    # the pass takes C's Hermitian part from the helper CovarianceState uses,
    # halved first: where C_11 passes 9e307 a row keeps the finite occupations
    # that covariance returns (the last two rows' C_11, 1.03e308 and 1.07e308,
    # overflowed before the kernel halved M M^dag's products)
    params = ModelParams(100.0, 0.0, 0.1, 0.1, 0.1)
    table = run_sweep(SweepSpec("tau", 459.05, 459.2, 7, params, ("n1", "n2", "n3")))
    assert table["status"] == ["ok"] * 7
    for k, tau in enumerate(table["tau"]):
        expected = covariance(params, tau).c.diagonal().real - 0.5
        got = [table[name][k] for name in ("n1", "n2", "n3")]
        np.testing.assert_allclose(got, expected, rtol=RTOL)


def test_c_overflows_only_where_its_value_does():
    # C = Q + M M^dag / 2 halves each product |M_1k|^2 before the sum: at
    # tau = 406.25 and 406.5 the unhalved sum passes the largest float while
    # C_11 (1.0755e308, 1.658e308) does not.  The 40-digit reference, rounded
    # only at the end, overflows from tau = 406.75, and so do the rows
    params = ModelParams(100.0, 0.0)
    table = run_sweep(SweepSpec("tau", 405.5, 407.0, 7, params, ("n1",)))
    assert table["status"] == ["ok"] * 5 + ["non_finite"] * 2
    for k, tau in enumerate(table["tau"]):
        with np.errstate(over="ignore"):
            reference = mp_covariance(params, tau, 40)
        if k >= 5:
            assert np.isinf(reference[0, 0])
            continue
        got = covariance(params, tau).c
        # measured 6.7e-14 at tau = 406.25 and 1.0e-13 at 406.5
        assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()
        assert table["n1"][k] == got[0, 0].real - 0.5


SEPARABILITY_OUTPUTS = tuple(name for name in OUTPUTS if name.startswith(("mineig", "class")))


def with_n1(spec):
    return dataclasses.replace(spec, outputs=spec.outputs + ("n1",))


def below_the_floor(params, lambdas, tau):
    """A ``_covariance_stack`` whose every row is the vacuum with C_11 dipped
    1e-5 below it, and no covariance guard."""
    c = 0.5 * np.eye(3, dtype=complex)
    c[0, 0] -= 1e-5
    shape = np.broadcast(lambdas[..., 0], tau).shape
    return np.broadcast_to(c, (*shape, 3, 3)).copy(), []


def test_a_separability_only_pass_runs_no_observables_and_keeps_every_status(
    monkeypatch, capsys
):
    # fig7, an entanglement_scan request (a 6-point tau sweep of a ladder
    # curve), a steady-state sweep with unstable rows and each golden
    # failure grid, asking for the separability outputs alone
    fig7 = figure_preset("fig7")
    fig7_n1 = dataclasses.replace(
        fig7, curves=tuple((label, with_n1(spec)) for label, spec in fig7.curves)
    )
    grids = [
        SweepSpec("tau", 0.0, 5.0, 6, fig7.curves[-1][1].fixed, SEPARABILITY_OUTPUTS),
        SweepSpec("delta", -5.0, 10.0, 31, FIG5, SEPARABILITY_OUTPUTS, tau=math.inf),
        *(
            dataclasses.replace(spec, outputs=SEPARABILITY_OUTPUTS)
            for spec in failure_grids().values()
        ),
    ]
    want_fig7 = run_preset(fig7_n1)["status"]
    want = [run_sweep(with_n1(spec))["status"] for spec in grids]
    with mock.patch.object(sweep_module, "_covariance_stack", side_effect=below_the_floor):
        floor = run_sweep(with_n1(grids[0]))["status"]
    assert floor == ["negative_occupation"] * 6 and "not_stable" in want[1]
    assert {"non_finite", "ok"} <= {status for column in want for status in column}

    def refuse(*args):
        raise AssertionError("the observables kernel ran")

    monkeypatch.setattr(sweep_module, "_observable_stack", refuse)
    assert main(["--preset", "fig7"]) == 0
    capsys.readouterr()
    assert run_preset(fig7)["status"] == want_fig7
    assert [run_sweep(spec)["status"] for spec in grids] == want
    with mock.patch.object(sweep_module, "_covariance_stack", side_effect=below_the_floor):
        assert run_sweep(grids[0])["status"] == floor
    with pytest.raises(AssertionError, match="observables kernel"):
        run_sweep(with_n1(grids[0]))


def test_point_report_failure_order():
    tiny = ModelParams(1e-200, 1.0)  # the characteristic cubic overflows
    with pytest.raises(NonFinite):
        sweep_module.evolve_point(tiny, 1.0)
    # the roots come before the atom number and epsilon, which come before
    # every guard of the pass, as a SweepSpec checks them before its rows
    with pytest.raises(NonFinite):
        sweep_module.evolve_point(tiny, 1.0, atom_number=0.0)
    failing = (0.5 * np.eye(3, dtype=complex), [("not_hermitian", np.True_)])
    with mock.patch.object(sweep_module, "_covariance_stack", return_value=failing):
        with pytest.raises(NotHermitian):
            sweep_module.evolve_point(FIG5, 1.0)
        with pytest.raises(ValueError, match="atom_number"):
            sweep_module.evolve_point(FIG5, 1.0, atom_number=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            sweep_module.evolve_point(FIG5, 1.0, epsilon=-1.0)
    with pytest.raises(ValueError, match="atom_number"):
        sweep_module.evolve_point(FIG5, 1.0, atom_number=0.0)
    with pytest.raises(ValueError, match="tau"):
        sweep_module.evolve_point(tiny, -1.0)
