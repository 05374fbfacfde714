"""Property tests of the batched separability eigenvalues over the model
parameter space (rho, delta, gamma1, gamma2, kappa, tau), and of the
stacked kernels on arbitrary 3x3 stacks at the ends of the float range.

The parameter box keeps every covariance finite: at rho = 200 and tau = 5
the test matrices reach about 1e16, far below overflow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    gamma_matrix,
    min_eig,
    mixed_basis_bound,
    mp_min_eigs,
    physicality_6x6,
    quadrature_covariance,
    two_mode_matrix,
)
from tricarl import ModelParams, SweepSpec, covariance, physicality, run_sweep, separability_report
from tricarl.entanglement import _physicality_floor, _separability_stack

PAIRS = ((1, 2), (1, 3), (2, 3))

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

params_and_tau = st.tuples(
    st.floats(0.1, 200.0),  # rho
    st.floats(-5.0, 5.0),  # delta
    st.floats(0.0, 2.0),  # gamma1
    st.floats(0.0, 2.0),  # gamma2
    st.floats(0.0, 2.0),  # kappa
    st.floats(0.0, 5.0),  # tau
)


def separability_matrices(point):
    """The three Gamma_j and the three S_ij of one evolved state."""
    *values, tau = point
    v = quadrature_covariance(covariance(ModelParams(*values), tau))
    gammas = np.stack([gamma_matrix(v, j) for j in (1, 2, 3)])
    pairs = np.stack([two_mode_matrix(v, i, j) for i, j in PAIRS])
    return gammas, pairs


@PROPERTY_SETTINGS
@given(params_and_tau)
def test_separability_minima_match_the_30_digit_reference(point):
    # the Gamma_j and S_ij minima and the physicality floor against the same
    # mixed-basis blocks at 30 digits, to a few roundings on the scale of 2C
    *values, tau = point
    state = covariance(ModelParams(*values), tau)
    report = separability_report(state)
    got = (*report.min_eig_gamma, *report.min_eig_s, physicality(state))
    assert np.abs(np.subtract(got, mp_min_eigs(state, 30))).max() <= mixed_basis_bound(state.c)


def assert_report_matches_the_test_matrices(point):
    """The report's 3x3 and 2x2 mixed-basis blocks, and the physicality
    floor from them, agree with the whole 6x6 and 4x4 test matrices to a
    few roundings, not bit for bit."""
    *values, tau = point
    state = covariance(ModelParams(*values), tau)
    report = separability_report(state)
    gammas, pairs = separability_matrices(point)
    bound = mixed_basis_bound(state.c)
    for got, matrices in ((report.min_eig_gamma, gammas), (report.min_eig_s, pairs)):
        want = [min_eig(h) for h in matrices]
        assert np.abs(np.subtract(got, want)).max() <= bound
    assert abs(physicality(state) - physicality_6x6(state)) <= bound


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(params_and_tau)
def test_separability_report_equals_per_matrix_values(point):
    assert_report_matches_the_test_matrices(point)


# the benchmark's edge ladder: rho=100, no losses, delta* + {0, +-1e-1 ..
# +-1e-13}, where two cubic roots merge, at tau=5
DELTA_STAR = 1.8899212590353163
EDGE_LADDER = [DELTA_STAR] + [DELTA_STAR + s * 10.0**-k for k in range(1, 14) for s in (1, -1)]


@pytest.mark.parametrize("delta", EDGE_LADDER)
def test_separability_report_matches_the_test_matrices_on_the_edge_ladder(delta):
    assert_report_matches_the_test_matrices((100.0, delta, 0.0, 0.0, 0.0, 5.0))



# entries sign * m * 10^e, m in [1, 10), e in [-320, 306] (subnormal to
# about 1e307, where 2C is still finite), or exactly 0
_EXTREME_ENTRIES = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-320, 306),
    ),
)
_NON_FINITE = [np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)]


@st.composite
def extreme_stacks(draw):
    """An (N, 3, 3) complex stack of extreme entries, Hermitian or not, with
    up to three entries made NaN or inf."""
    n = draw(st.integers(1, 8))
    c = draw(arrays(np.float64, (n, 3, 3, 2), elements=_EXTREME_ENTRIES)).view(complex)[..., 0]
    if draw(st.booleans()):  # a Hermitian stack reaches eigvalsh
        c = 0.5 * c + 0.5 * np.conj(np.swapaxes(c, -1, -2))
    poisoned = st.tuples(st.integers(0, n - 1), st.integers(0, 8), st.sampled_from(_NON_FINITE))
    for row, entry, value in draw(st.lists(poisoned, max_size=3)):
        c[row].flat[entry] = value
    return c


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(extreme_stacks())
def test_stacked_kernels_keep_lapack_off_non_finite_input(c):
    # batched eigvalsh raises LinAlgError on most NaN or inf entries, for the
    # whole stack: _separability_stack zeroes those entries of H before its
    # one LAPACK call, and a sweep has no per-row path around a raise
    with np.errstate(all="ignore"):
        h = 0.5 * c + 0.5 * np.conj(np.swapaxes(c, -1, -2))
        gammas, _, _, _ = _separability_stack(h, 1e-9)
        assert np.isfinite(gammas).all()
        # a point report asks for the floor only where H is finite
        finite = np.isfinite(h).all(axis=(-2, -1))
        assert np.isfinite(_physicality_floor(h[finite])).all()


def test_the_pair_minima_hold_where_two_diagonal_entries_sum_past_overflow():
    # each 2C_kk is finite, but 2C_11 + 2C_22 is not: the closed-form S_12
    # minimum halves first, so it stays finite and matches 30 digits
    c = np.diag([5e307, 5e307, 0.5]).astype(complex)
    report = separability_report(c)
    assert np.abs(np.subtract(report.min_eig_s, mp_min_eigs(c, 30)[3:6])).max() <= (
        mixed_basis_bound(c)
    )
    # a lossless tau sweep through that edge: each row's status is the same
    # whichever output is asked for.  The tests take their minima on H = C,
    # so they stay finite at tau = 406.25 and 406.5 where 2H = 2C overflows,
    # and read non_finite from 406.75, as C and the occupation do
    lossless = ModelParams(100.0, 0.0)
    outputs = "mineig_s12", "mineig_s13", "mineig_s23", "mineig_gamma1", "class", "n1"
    statuses = [
        run_sweep(SweepSpec("tau", 405.75, 406.75, 5, lossless, (name,)))["status"]
        for name in outputs
    ]
    assert statuses == [["ok"] * 4 + ["non_finite"]] * len(outputs)
