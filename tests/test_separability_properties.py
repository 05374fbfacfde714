"""Property tests of the batched separability eigenvalues over the model
parameter space (rho, delta, gamma1, gamma2, kappa, tau).

The parameter box keeps every covariance finite: at rho = 200 and tau = 5
the test matrices reach about 1e16, far below overflow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    gamma_matrix,
    min_eig,
    min_eig_hermitian_bisection,
    min_eig_hermitian_charpoly,
    mixed_basis_bound,
    physicality_6x6,
    quadrature_covariance,
    two_mode_matrix,
)
from tricarl import ModelParams, covariance, physicality, separability_report

PAIRS = ((1, 2), (1, 3), (2, 3))
TOL = 1e-9  # relative to max(1, max|h|)
EPS = np.finfo(float).eps

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


def scale(h):
    return max(1.0, float(np.abs(h).max()))


def charpoly_error_estimate(h):
    """First-order forward error of the char-poly oracle's smallest root:
    coefficient errors of about eps n^k ||h||^k over |p'(lambda_min)|.  It
    blows up when lambda_min is close to another eigenvalue, relative to
    ||h||, where the polynomial roots lose their digits."""
    w = np.linalg.eigvalsh(h)
    n, lam, norm = len(w), abs(w[0]), scale(h)
    slope = abs(np.prod(w[1:] - w[0]))
    coefficient_error = EPS * sum((n * norm) ** k * lam ** (n - k) for k in range(n + 1))
    return coefficient_error / slope if slope > 0 else np.inf


@PROPERTY_SETTINGS
@given(params_and_tau)
def test_batched_min_eigenvalues_match_bisection_oracle(point):
    for stack in separability_matrices(point):
        batched = min_eig(stack)
        for h, ours in zip(stack, batched):
            assert ours == pytest.approx(min_eig_hermitian_bisection(h), abs=TOL * scale(h))


@PROPERTY_SETTINGS
@given(params_and_tau)
def test_batched_min_eigenvalues_match_charpoly_oracle(point):
    # the char-poly roots carry their own error, charpoly_error_estimate;
    # the oracle decides only where that error is below the tolerance
    for stack in separability_matrices(point):
        batched = min_eig(stack)
        for h, ours in zip(stack, batched):
            if charpoly_error_estimate(h) <= 0.1 * TOL * scale(h):
                assert ours == pytest.approx(
                    min_eig_hermitian_charpoly(h), abs=TOL * scale(h)
                )


def test_charpoly_oracle_decides_on_most_states():
    # keeps the filter above from silently skipping the comparison
    rng = np.random.RandomState(97)
    decided = total = 0
    for _ in range(40):
        point = (
            10 ** rng.uniform(-1, np.log10(200.0)),
            rng.uniform(-5, 5),
            rng.uniform(0, 2),
            rng.uniform(0, 2),
            rng.uniform(0, 2),
            rng.uniform(0, 5),
        )
        for stack in separability_matrices(point):
            for h in stack:
                total += 1
                decided += charpoly_error_estimate(h) <= 0.1 * TOL * scale(h)
    assert decided >= 0.5 * total


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

