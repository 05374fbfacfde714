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

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricarl.sweep as sweep_module
from oracles import (
    SYMPLECTIC_FORM,
    _test_matrices,
    evaluate_row,
    gamma_matrix,
    mixed_basis_bound,
    mp_min_eigs,
    mp_steady_state,
    quadrature_covariance,
    spec_point,
    two_mode_matrix,
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
from tricarl.covariance import HERMITIZE_TOL, _hermitian_guards, _hermitian_part
from tricarl.entanglement import HERMITICITY_TOL, _separability_stack, _test_defects
from tricarl.errors import NonFinite, NotHermitian, NotStable, first_failure
from tricarl.observables import _defined_cells, _observable_stack
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


# C_33 sets the scale of the Gamma_j test matrices, far above the scale of
# the (1, 2) block that S_12 is measured on
SPREAD = np.diag([0.6, 0.7, 1e4]).astype(complex)
SPREAD[0, 1], SPREAD[1, 0] = 0.05 + 0.02j, 0.05 - 0.02j


def corrupted_covariances():
    """Covariances that trip each guard of the observables and separability
    tests, next to a valid evolved state, with the status each kernel must
    give them: the first guard they fail."""
    good = covariance(ModelParams(100.0, 3.5, 0.5, 0.5, 0.5), 2.0).c
    vacuum = 0.5 * np.eye(3, dtype=complex)
    cases = [(good, "ok", "ok"), (vacuum, "ok", "ok"), (SPREAD, "ok", "ok")]
    for base, entry, shift, observables_status, separability_status in (
        # below the vacuum floor
        (vacuum, (0, 0), -1e-5, "negative_occupation", "ok"),
        # below zero, above the floor
        (vacuum, (2, 2), -1e-7, "ok", "ok"),
        # imaginary residue on the diagonal, also on G_iiii
        (good, (1, 1), 1e-3j, "error", "not_hermitian"),
        # a residue on C_ii comes before the floor
        (vacuum, (0, 0), -1e-5 + 1e-3j, "error", "not_hermitian"),
        # a residue on G_iiii = 2 C_ii^2 only
        (vacuum, (0, 0), 0.9e-9j, "error", "ok"),
        # the floor comes before the G_iiii residue
        (vacuum, (0, 0), -1e-5 + 0.9e-9j, "negative_occupation", "ok"),
        # not Hermitian: bunching residue, test matrices
        (good, (0, 1), 1e-3j, "error", "not_hermitian"),
        # no observables guard reads C_23 or a NaN C_11
        (good, (1, 2), np.inf, "ok", "non_finite"),
        (good, (0, 0), np.nan, "ok", "non_finite"),
        # a defect above tolerance on S_12's own scale, below it on Gamma's
        (SPREAD, (0, 1), 1e-5, "ok", "not_hermitian"),
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


def test_batched_guards_flag_what_the_single_state_path_rejects():
    cases = corrupted_covariances()
    stack = np.array([c for c, _, _ in cases])
    with np.errstate(all="ignore"):
        obs_status = first_failure(*_observable_stack(stack, 1e6)[1])
        sep_status = first_failure(*_separability_stack(stack, 1e-9)[-1])
        assert obs_status.tolist() == [status for _, status, _ in cases]
        assert sep_status.tolist() == [status for _, _, status in cases]
        # the one-state functions raise the error class of that status;
        # past it, mode_observables raises non_finite on an inf or NaN cell
        assert [raised_code(mode_observables, c, 1e6) for c, _, _ in cases] == [
            "non_finite" if status == "ok" and not np.isfinite(c).all() else status
            for c, status in zip(stack, obs_status.tolist())
        ]
        assert [raised_code(separability_report, c) for c, _, _ in cases] == sep_status.tolist()
    # physicality raises what the Gamma_j guards of the separability tests
    # raise: all but the last case, which fails on S_12's scale alone
    gamma_status = sep_status.tolist()[:-1] + ["ok"]
    assert [raised_code(physicality, c) for c, _, _ in cases] == gamma_status


def test_a_failing_pair_reads_zero_alone():
    # a defect of 1e-5 on C_12 is 1e-9 of the Gamma_j scale 2 C_33 but 1e-5
    # of S_12's: only S_12 reads 0, and the state reports not_hermitian
    c = SPREAD.copy()
    c[0, 1] += 1e-5
    gammas, pairs, _, guards = _separability_stack(c, 1e-9)
    assert first_failure(*guards) == "not_hermitian"
    assert gammas == pytest.approx([0.15302381, 0.15302381, 0.19473894], abs=1e-8)
    assert pairs == pytest.approx([0.0, 0.2, 0.4], abs=1e-10)
    assert pairs[0] == 0.0


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


def hermitian_predicates(matrices, tol):
    defects = [relative_defect(m) for m in matrices]
    return [
        ("non_finite", any(math.isnan(d) for d in defects)),
        ("not_hermitian", any(d > tol for d in defects)),
    ]


def residue(z):
    """A should-be-real value with an imaginary part above 1e-9 of its
    scale; False for NaN parts, as every comparison with NaN is."""
    return abs(z.imag) > 1e-9 * max(1.0, abs(z.real))


def guard_predicates(c):
    """One predicate per guard, per kernel, in the documented order:
    covariance (CovarianceState), observables, separability tests, and the
    physicality test of a point report."""
    v = quadrature_covariance(c)
    diag = [complex(c[i, i]) for i in range(3)]
    moment = complex(c[0, 0] + c[1, 1] + c[0, 1] + c[1, 0])
    return {
        "covariance": hermitian_predicates([c], HERMITIZE_TOL),
        "observables": [
            ("error", any(residue(z) for z in diag)),
            ("negative_occupation", any(z.real - 0.5 < -1e-6 for z in diag)),
            ("error", any(residue(2.0 * (z * z)) for z in diag)),
            ("error", residue(moment)),
        ],
        "separability": [
            *hermitian_predicates([gamma_matrix(v, j) for j in (1, 2, 3)], HERMITICITY_TOL),
            *hermitian_predicates(
                [two_mode_matrix(v, i, j) for i, j in ((1, 2), (1, 3), (2, 3))],
                HERMITICITY_TOL,
            ),
            # a non-finite minimum eigenvalue needs finite Hermitian test
            # matrices that overflow eigvalsh; entries here stay below 1e4
            ("non_finite", False),
        ],
        "physicality": hermitian_predicates([v - 1j * SYMPLECTIC_FORM], HERMITICITY_TOL),
    }


def overflowed_cell(c):
    """Whether a cell that the observables kernel leaves defined (not None)
    for c is inf or NaN; the caller runs it under np.errstate."""
    cells = _defined_cells(_observable_stack(c, 1e6)[0], list).values()
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
        _, defect = _hermitian_part(stack)
        guards = {
            "covariance": [*_hermitian_guards(defect, HERMITIZE_TOL)],
            "observables": _observable_stack(stack, 1e6)[1],
            "separability": _separability_stack(stack, 1e-9)[-1],
        }
        for kernel, kernel_guards in guards.items():
            status = first_failure(*kernel_guards)
            assert np.broadcast_to(status, len(cs)).tolist() == predicted[kernel], kernel
        # a sweep row reports the first failure along the pipeline: one
        # first_failure over the kernels' guards in pipeline order
        pipeline = first_failure(
            *guards["covariance"], *guards["observables"], *guards["separability"]
        )
        assert np.broadcast_to(pipeline, len(cs)).tolist() == [
            first_code(p["covariance"] + p["observables"] + p["separability"])
            for p in predicates
        ]
        # the one-state functions raise the error class of that status
        one_state = {
            "covariance": lambda c: CovarianceState(0.0, c),
            "observables": lambda c: mode_observables(c, 1e6),
            "separability": separability_report,
            "physicality": physicality,
        }
        # past its guards, mode_observables raises non_finite on an inf or NaN cell
        for kernel, fn in one_state.items():
            want = []
            for c, p in zip(cs, predicates):
                overflow = [("non_finite", overflowed_cell(c))] if kernel == "observables" else []
                want.append(first_code(p[kernel] + overflow))
            assert [raised_code(fn, c) for c in cs] == want, kernel
        # a point report handed each C past the covariance guards raises the
        # class of its first failure along the remaining checks
        for c, p in zip(cs, predicates):
            with mock.patch.object(sweep_module, "_covariance_stack", return_value=(c, [])):
                got = raised_code(sweep_module.evolve_point, FIG5, 1.0)
            assert got == first_code(p["observables"] + p["separability"] + p["physicality"])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(random_corruptions(), min_size=1, max_size=4))
def test_guard_defects_equal_those_of_the_test_matrices(cs):
    # the defects measured on C alone are those of the 6x6 and 4x4 matrices
    stack = np.array(cs)
    with np.errstate(all="ignore"):
        gammas, pairs = (_hermitian_part(m)[1] for m in _test_matrices(stack))
        gamma_defect, pair_defect = _test_defects(stack)
    gamma_defect = np.broadcast_to(gamma_defect[:, np.newaxis], gammas.shape)
    np.testing.assert_array_equal(gamma_defect, gammas)
    np.testing.assert_array_equal(pair_defect, pairs)


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
