import math
import warnings

import numpy as np
import pytest

from oracles import (
    SYMPLECTIC_FORM,
    covariance_from_quadratures,
    exact_eta,
    gamma_matrix,
    min_eig,
    mixed_basis_bound,
    mp_min_eig,
    physicality_6x6,
    quadrature_covariance,
    two_mode_matrix,
)
from tricarl import (
    ModelParams,
    NonFinite,
    NotHermitian,
    RegimeMismatch,
    asymptotic_eta,
    covariance,
    evolve_point,
    mode_observables,
    physicality,
    separability_report,
)
from tricarl.entanglement import _classes

IDEAL_SC = ModelParams(rho=100.0, delta=0.0)
IDEAL_Q = ModelParams(rho=0.2, delta=5.0)
VACUUM = 0.5 * np.eye(3, dtype=complex)
PAIRS = ((1, 2), (1, 3), (2, 3))


def random_hermitian(rng, n):
    z = rng.randn(n, n) + 1j * rng.randn(n, n)
    return z + z.conj().T


# -------------------------------------------------------- quadrature covariance


def test_vacuum_quadrature_covariance_is_identity():
    v = quadrature_covariance(VACUUM)
    assert np.array_equal(v, np.eye(6))


def test_quadrature_covariance_explicit_pattern():
    rng = np.random.RandomState(73)
    c = random_hermitian(rng, 3) + 10.0 * np.eye(3)
    v = quadrature_covariance(c)
    a12, a13, a23 = 2 * c[0, 1].real, 2 * c[0, 2].real, 2 * c[1, 2].real
    b12, b13, b23 = 2 * c[0, 1].imag, 2 * c[0, 2].imag, 2 * c[1, 2].imag
    d1, d2, d3 = 2 * c[0, 0].real, 2 * c[1, 1].real, 2 * c[2, 2].real
    expected = np.array(
        [
            [d1, -a12, -a13, 0.0, b12, b13],
            [-a12, d2, a23, b12, 0.0, -b23],
            [-a13, a23, d3, b13, b23, 0.0],
            [0.0, b12, b13, d1, a12, a13],
            [b12, 0.0, b23, a12, d2, a23],
            [b13, -b23, 0.0, a13, a23, d3],
        ]
    )
    assert np.abs(v - expected).max() < 1e-12
    assert np.abs(v - v.T).max() == 0.0


def test_quadrature_covariance_round_trip():
    rng = np.random.RandomState(79)
    for _ in range(10):
        c = random_hermitian(rng, 3) + 10.0 * np.eye(3)
        v = quadrature_covariance(c)
        assert np.abs(covariance_from_quadratures(v) - c).max() < 1e-12


def test_lossless_covariance_magnitudes_match_pure_state_relations():
    # evolved from vacuum with no losses: |C12|^2 = n2 (1 + n1),
    # |C13|^2 = n3 (1 + n1), |C23|^2 = n2 n3
    for params, tau in ((IDEAL_SC, 1.5), (IDEAL_Q, 4.0)):
        state = covariance(params, tau)
        n = mode_observables(state).n
        c = state.c
        assert abs(c[0, 1]) ** 2 == pytest.approx(n[1] * (1 + n[0]), rel=1e-9)
        assert abs(c[0, 2]) ** 2 == pytest.approx(n[2] * (1 + n[0]), rel=1e-9)
        assert abs(c[1, 2]) ** 2 == pytest.approx(n[1] * n[2], rel=1e-9)


# ------------------------------------------------------------- gamma matrices


def test_vacuum_gamma_matrices_marginal():
    v = quadrature_covariance(VACUUM)
    for j in (1, 2, 3):
        g = gamma_matrix(v, j)
        assert np.abs(g - g.conj().T).max() < 1e-12
        assert abs(min_eig(g)) < 1e-10


def test_ideal_case_fully_inseparable():
    for params in (IDEAL_SC, IDEAL_Q):
        for tau in (0.5, 2.0, 5.0):
            v = quadrature_covariance(covariance(params, tau))
            for j in (1, 2, 3):
                assert min_eig(gamma_matrix(v, j)) < 0.0


def test_photon_mode_separates_under_strong_decoherence():
    params = ModelParams(rho=100.0, delta=0.01, gamma1=1.0, gamma2=1.0)
    values = [
        min_eig(
            gamma_matrix(quadrature_covariance(covariance(params, tau)), 3)
        )
        for tau in np.linspace(0.5, 5.0, 10)
    ]
    assert max(values) > 0.0


def test_gamma_matrix_index_validation():
    with pytest.raises(ValueError):
        gamma_matrix(np.eye(6), 0)


# ------------------------------------------------------ minimum eigenvalue oracle


def test_min_eigenvalue_diagonal():
    assert min_eig(np.diag([3.0, -2.0, 7.0])) == pytest.approx(-2.0)


def test_min_eigenvalue_marginal_pair():
    h = np.eye(6) - 1j * SYMPLECTIC_FORM
    assert abs(min_eig(h)) < 1e-12


def test_min_eigenvalue_matches_mp_oracle():
    rng = np.random.RandomState(83)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        ours = min_eig(h)
        reference = mp_min_eig(h, 30)
        assert ours == pytest.approx(reference, abs=1e-13 * max(1, np.abs(h).max()))
        assert ours == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-10)


def test_physicality_rejects_non_hermitian():
    c = VACUUM.copy()
    c[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        physicality(c)


# ------------------------------------------------------------- two-mode tests


def test_vacuum_two_mode_matrices_marginal():
    v = quadrature_covariance(VACUUM)
    for i, j in PAIRS:
        assert abs(min_eig(two_mode_matrix(v, i, j))) < 1e-10


def test_ideal_two_mode_entanglement_pattern():
    for params in (IDEAL_SC, IDEAL_Q):
        for tau in (0.5, 2.0, 5.0):
            v = quadrature_covariance(covariance(params, tau))
            assert min_eig(two_mode_matrix(v, 1, 2)) < 0.0
            assert min_eig(two_mode_matrix(v, 1, 3)) < 0.0
            assert min_eig(two_mode_matrix(v, 2, 3)) > 0.0


def test_ideal_two_mode_minimum_matches_closed_form():
    state = covariance(IDEAL_SC, 2.0)
    n = mode_observables(state).n
    v = quadrature_covariance(state)
    for k in (2, 3):
        expected = n[0] + n[k - 1] - np.sqrt(4 * n[k - 1] + (n[0] + n[k - 1]) ** 2)
        numeric = min_eig(two_mode_matrix(v, 1, k))
        assert numeric == pytest.approx(expected, rel=1e-8, abs=1e-9)


def test_two_mode_deletion_from_either_parent_same_spectrum():
    state = covariance(IDEAL_SC, 1.2)
    v = quadrature_covariance(state)
    for i, j in PAIRS:
        k = ({1, 2, 3} - {i, j}).pop()
        keep = [m for m in range(6) if m not in (k - 1, k + 2)]
        from_gamma_j = gamma_matrix(v, j)[np.ix_(keep, keep)]
        ours = np.sort(np.linalg.eigvalsh(two_mode_matrix(v, i, j)))
        other = np.sort(np.linalg.eigvalsh(from_gamma_j))
        assert np.abs(ours - other).max() < 1e-9 * max(1.0, np.abs(ours).max())


def test_two_mode_matrix_index_validation():
    with pytest.raises(ValueError):
        two_mode_matrix(np.eye(6), 2, 1)


def test_loss_robustness_sign_patterns():
    # three-mode test for mode 1 stays negative across the cavity-loss
    # ladder; the atom-photon two-mode test flips sign with decoherence
    for kappa in (0.0, 1.0, 5.0):
        params = ModelParams(rho=100.0, delta=0.01, kappa=kappa)
        v = quadrature_covariance(covariance(params, 3.0))
        assert min_eig(gamma_matrix(v, 1)) < 0.0
    s13 = {}
    for gamma in (0.0, 1.0):
        params = ModelParams(rho=100.0, delta=0.0, gamma1=gamma, gamma2=gamma)
        v = quadrature_covariance(covariance(params, 3.0))
        s13[gamma] = min_eig(two_mode_matrix(v, 1, 3))
    assert s13[0.0] < 0.0
    assert s13[1.0] > 0.0


# ------------------------------------------------------------- classification


def classify(gamma_min_eigs, epsilon=1e-9):
    """The class label of one set of three Gamma_j minimum eigenvalues."""
    labels, _ = _classes(np.array(gamma_min_eigs, dtype=float), epsilon)
    return labels


def test_classify_rules():
    assert classify([-0.3, -0.2, -0.1]) == "fully_inseparable"
    assert classify([-0.3, -0.2, +0.1]) == "one_mode_biseparable(3)"
    assert classify([+0.2, -0.2, +0.1]) == "two_mode_biseparable"
    assert classify([0.0, 0.0, 0.0]) == "biseparable_or_separable"
    # epsilon moves the negative/positive boundary
    assert classify([-1e-12, -1e-12, -1e-12], epsilon=1e-9) == (
        "biseparable_or_separable"
    )
    assert classify([-1e-12, -1e-12, -1e-12], epsilon=1e-15) == "fully_inseparable"


def test_classify_flags_non_finite():
    _, (code, failed) = _classes(np.array([[np.nan, -0.2, -0.1], [-0.3, -0.2, -0.1]]), 1e-9)
    assert code == "non_finite"
    assert failed.tolist() == [True, False]


def test_physicality_rejects_non_finite():
    c = VACUUM.copy()
    c[1, 1] = np.nan
    with pytest.raises(NonFinite):
        physicality(c)
    # a finite Hermitian C whose floor, about -3e308, overflows
    c = VACUUM.copy()
    c[0, 1] = c[1, 0] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^physicality test failed the non_finite guard$"):
            physicality(c)


def test_separability_report_vacuum():
    report = separability_report(VACUUM)
    assert report.class_label == "biseparable_or_separable"
    assert max(abs(e) for e in report.min_eig_gamma) < 1e-10
    assert max(abs(e) for e in report.min_eig_s) < 1e-10


def test_separability_report_ideal():
    report = separability_report(covariance(IDEAL_SC, 2.0))
    assert report.class_label == "fully_inseparable"
    assert all(e < 0 for e in report.min_eig_gamma)
    assert report.min_eig_s[0] < 0 and report.min_eig_s[1] < 0
    assert report.min_eig_s[2] > 0


# --------------------------------------------------------------- asymptotic eta


def test_asymptotic_eta_semiclassical():
    eta12, eta13 = asymptotic_eta(ModelParams(rho=100.0, delta=0.0), "semiclassical")
    assert eta12 == pytest.approx(-100.0 / 101.0)
    assert eta13 == pytest.approx(-4.0 / 104.0)


def test_asymptotic_eta_quantum():
    eta12, eta13 = asymptotic_eta(ModelParams(rho=0.2, delta=5.0), "quantum")
    assert eta12 == pytest.approx(-0.008 / 4.008)
    assert eta13 == pytest.approx(-16.0 / 16.008)


def test_asymptotic_eta_regime_mismatch():
    with pytest.raises(RegimeMismatch):
        asymptotic_eta(ModelParams(rho=0.2, delta=5.0), "semiclassical")
    with pytest.raises(RegimeMismatch):
        asymptotic_eta(ModelParams(rho=100.0, delta=0.0), "quantum")
    with pytest.raises(ValueError):
        asymptotic_eta(ModelParams(rho=100.0, delta=0.0), "other")


def test_numerical_eta_converges_to_asymptote():
    v = quadrature_covariance(covariance(IDEAL_SC, 6.0))
    eta12 = min_eig(two_mode_matrix(v, 1, 2))
    target = asymptotic_eta(IDEAL_SC, "semiclassical")[0]
    assert abs(eta12 - target) < 0.01 * abs(target)


def relative_gaps(params, regime):
    """The relative gaps of ``asymptotic_eta``'s (eta_12, eta_13) to the
    exact long-time limits."""
    exact = np.array(exact_eta(params))
    return np.abs(np.array(asymptotic_eta(params, regime)) - exact) / np.abs(exact)


def test_exact_eta_is_the_limit_the_lossless_state_reaches():
    # rho=100, delta=0: the 200-digit minima at tau=60; at tau=10 the point
    # report is within 1e-4 of the limit, off resonance too, where the
    # paper's eta_13 is 0.0125 off
    assert exact_eta(IDEAL_SC) == pytest.approx((-0.9900003, -0.03883369), rel=1e-6)
    for delta in (0.0, 1.0):
        params = ModelParams(rho=100.0, delta=delta)
        reached = evolve_point(params, 10.0)["separability"]["min_eig_s"][:2]
        assert np.abs(np.subtract(reached, exact_eta(params))).max() < 1e-4
    off_resonance = ModelParams(rho=100.0, delta=1.0)
    assert exact_eta(off_resonance) == pytest.approx((-0.98675378, -0.05095982), rel=1e-6)
    assert relative_gaps(off_resonance, "semiclassical")[1] == pytest.approx(0.245, abs=1e-3)


# (rho, delta) ladders of the two regimes, the relative gaps of (eta_12,
# eta_13) at each rung, and the orders in rho at which the gaps shrink
ETA_LADDERS = [
    pytest.param(
        "semiclassical", [(10.0, 0.0), (100.0, 0.0), (1000.0, 0.0)],
        [(9.7e-3, 6.9e-2), (1.0e-4, 9.6e-3), (1.0e-6, 1.0e-3)], (-2, -1),
        id="semiclassical",
    ),
    pytest.param(
        "quantum", [(0.5, 2.0), (0.1, 10.0)], [(3.0e-2, 2.3e-4), (2.5e-4, 1.6e-8)], (3, 6),
        id="quantum",
    ),
]


@pytest.mark.parametrize("regime, points, gaps, orders", ETA_LADDERS)
def test_asymptotic_eta_approaches_the_exact_limit_at_its_order(regime, points, gaps, orders):
    # the paper's formulas are the leading order: the gap falls as 1/rho^2
    # (eta_12) and 1/rho (eta_13) for rho >> 1, at delta = 0, and as rho^3
    # and rho^6 for rho < 1, at delta = 1/rho; the last rung of each ladder
    # shows the order to within 0.05
    measured = np.array([relative_gaps(ModelParams(rho, delta), regime) for rho, delta in points])
    np.testing.assert_allclose(measured, gaps, rtol=0.05)
    (rho_a, _), (rho_b, _) = points[-2:]
    slopes = np.log(measured[-1] / measured[-2]) / math.log(rho_b / rho_a)
    np.testing.assert_allclose(slopes, orders, atol=0.05)


# ----------------------------------------------------------------- physicality


def test_physicality_vacuum_exactly_marginal():
    assert abs(physicality(VACUUM)) < 1e-10
    assert abs(physicality_6x6(VACUUM)) < 1e-10


def test_physicality_evolved_states():
    rng = np.random.RandomState(89)
    for _ in range(10):
        params = ModelParams(
            rho=10 ** rng.uniform(-1, 2.0),
            delta=rng.uniform(-5, 5),
            gamma1=rng.uniform(0, 2),
            gamma2=rng.uniform(0, 2),
            kappa=rng.uniform(0, 2),
        )
        state = covariance(params, rng.uniform(0.0, 4.0))
        floor = physicality(state)
        assert floor >= -1e-8
        assert abs(floor - physicality_6x6(state)) <= mixed_basis_bound(state.c)


def test_separability_report_overflow_raises_non_finite_not_numpy_warnings():
    # entries near 1e308 overflow 2C and C + C^dag: the guards report it,
    # never a RuntimeWarning
    c = np.diag([1e308, 1e308, 0.5]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^separability tests failed the non_finite guard$"):
            separability_report(c)
