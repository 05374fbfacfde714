import numpy as np
import pytest

from oracles import effective_generator, eigensystem, expm_taylor
from tricarl import (
    DegenerateSpectrum,
    ModelParams,
    cubic_coefficients,
    cubic_roots,
    derive,
    drift_generator,
    gain,
    solve_cubic,
    spectrum,
    unstable_root,
)
from tricarl.dynamics import _propagator_matrix

FIG5 = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)
IDEAL_SC = ModelParams(rho=100.0, delta=0.0)
IDEAL_Q = ModelParams(rho=0.2, delta=5.0)

CUBE_ROOTS_OF_MINUS_ONE = np.array(
    [-1.0, 0.5 + 0.5j * np.sqrt(3.0), 0.5 - 0.5j * np.sqrt(3.0)]
)


def residual(params, roots):
    c = cubic_coefficients(derive(params), params.rho)
    return np.abs(((roots + c[1]) * roots + c[2]) * roots + c[3])


def random_params(rng, rates=5.0):
    return ModelParams(
        rho=10 ** rng.uniform(-1, np.log10(200.0)),
        delta=rng.uniform(-10, 10),
        gamma1=rng.uniform(0, rates),
        gamma2=rng.uniform(0, rates),
        kappa=rng.uniform(0, rates),
    )


# ---------------------------------------------------------------- cubic roots


def test_cubic_large_rho_limit_is_cube_roots_of_minus_one():
    roots = cubic_roots(ModelParams(rho=1e9, delta=0.0))
    for target in CUBE_ROOTS_OF_MINUS_ONE:
        assert np.min(np.abs(roots - target)) < 1e-9


def test_cubic_rho_100_near_ideal_set_with_small_residual():
    roots = cubic_roots(IDEAL_SC)
    for target in CUBE_ROOTS_OF_MINUS_ONE:
        assert np.min(np.abs(roots - target)) < 1e-2
    scale = 1e-10 * np.maximum(1.0, np.abs(roots) ** 3)
    assert np.all(residual(IDEAL_SC, roots) < scale)


def test_factored_polynomial_recovers_its_roots():
    # coupling-free cubic (w - alpha)(w^2 - beta^2) with known roots
    dp = derive(ModelParams(rho=0.2, delta=5.0, gamma1=0.2, gamma2=0.4, kappa=1.0))
    coeffs = np.array([1.0, -dp.alpha, -dp.beta**2, dp.alpha * dp.beta**2])
    roots = solve_cubic(coeffs)
    for target in (dp.alpha, dp.beta, -dp.beta):
        assert np.min(np.abs(roots - target)) < 1e-12


def test_root_ordering_and_determinism():
    rng = np.random.RandomState(3)
    for _ in range(50):
        params = random_params(rng)
        roots = cubic_roots(params)
        keys = [(w.imag, w.real) for w in roots]
        assert keys == sorted(keys)
        again = cubic_roots(params)
        assert np.array_equal(roots, again)


def test_cubic_residuals_and_vieta_over_random_grid():
    rng = np.random.RandomState(7)
    for _ in range(300):
        params = random_params(rng)
        dp = derive(params)
        roots = cubic_roots(params)
        scale = 1e-10 * max(1.0, float(np.max(np.abs(roots)) ** 3))
        assert np.all(residual(params, roots) < scale)
        c0 = dp.alpha * dp.beta**2 + 1 + 1j * params.rho * dp.gamma_minus
        assert abs(np.sum(roots) - dp.alpha) <= 1e-9 * max(1.0, abs(dp.alpha))
        pair_sum = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        assert abs(pair_sum + dp.beta**2) <= 1e-9 * max(1.0, abs(dp.beta) ** 2)
        assert abs(np.prod(roots) + c0) <= 1e-9 * max(1.0, abs(c0))


# ----------------------------------------------------------- unstable root / gain


def test_unstable_root_picks_minimum_imaginary_part():
    roots = CUBE_ROOTS_OF_MINUS_ONE
    assert unstable_root(roots) == 0.5 - 0.5j * np.sqrt(3.0)


def test_all_real_roots_mean_no_instability():
    params = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)
    roots = cubic_roots(params)
    assert np.max(np.abs(roots.imag)) < 1e-12
    assert gain(roots, derive(params).gamma_plus) == pytest.approx(-0.5, abs=1e-12)


def test_gain_ideal_semiclassical_matches_root_oracle():
    roots = cubic_roots(IDEAL_SC)
    oracle = np.roots([1.0, 0.0, -1e-4, 1.0])  # independent solver
    expected = -np.min(oracle.imag)
    g = gain(roots, 0.0)
    assert g == pytest.approx(expected, abs=1e-9)
    assert g == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-4)


def test_gain_shift_identity_when_gamma_equals_kappa():
    for delta in np.linspace(-5, 5, 11):
        base = gain(cubic_roots(ModelParams(100.0, delta)), 0.0)
        for g in (0.25, 0.5, 1.0):
            lossy = ModelParams(100.0, delta, gamma1=g, gamma2=g, kappa=g)
            assert gain(cubic_roots(lossy), g) == pytest.approx(base - g, abs=1e-9)


def test_gain_quantum_resonance_peak():
    roots = cubic_roots(IDEAL_Q)
    assert gain(roots, 0.0) == pytest.approx(np.sqrt(0.2 / 2.0), rel=0.10)


# ------------------------------------------------------------------ eigensystem


def test_eigensystem_columns_are_eigenvectors():
    rng = np.random.RandomState(11)
    for _ in range(30):
        params = random_params(rng)
        spec = spectrum(params)
        a_eff = drift_generator(params)
        for j in range(3):
            column = spec.s_inverse[:, j]
            defect = a_eff @ column - spec.lambdas[j] * column
            assert np.linalg.norm(defect) < 1e-9 * np.linalg.norm(column)


def test_eigensystem_inverse_identity_fig5():
    spec = spectrum(FIG5)
    assert np.abs(spec.s @ spec.s_inverse - np.eye(3)).max() < 1e-10
    assert np.linalg.det(spec.s_inverse) == pytest.approx(1.0, abs=1e-10)


def test_eigensystem_root_swap_permutes_columns():
    roots = cubic_roots(FIG5)
    _, sinv = eigensystem(roots, FIG5)
    swapped = roots[[1, 0, 2]]
    _, sinv_swapped = eigensystem(swapped, FIG5)
    # eigenvector for a given root is root-intrinsic up to the pair norm
    ratio01 = sinv_swapped[:, 0] / sinv[:, 1]
    ratio10 = sinv_swapped[:, 1] / sinv[:, 0]
    assert np.allclose(ratio01, ratio01[0])
    assert np.allclose(ratio10, ratio10[0])
    assert np.allclose(sinv_swapped[:, 2], -sinv[:, 2])


def test_degenerate_spectrum_raises(monkeypatch):
    roots = np.array([1.0 + 0.0j, 1.0 + 1e-12j, -2.0 + 0.0j])
    with pytest.raises(DegenerateSpectrum):
        eigensystem(roots, FIG5)
    # double-root detuning of the lossless rho=100 cubic, whose rounded roots
    # stay about 2e-8 apart: an absolute threshold of 1e-6 flags them
    import tricarl.dynamics as dynamics

    critical = ModelParams(rho=100.0, delta=1.8899212590353165)
    spectrum(critical)
    monkeypatch.setattr(dynamics, "degeneracy_threshold", lambda w: np.full(w.shape[:-1], 1e-6))
    with pytest.raises(DegenerateSpectrum):
        spectrum(critical)


# ------------------------------------------------------------------- propagator


def test_propagator_identity_at_zero():
    for params in (FIG5, IDEAL_SC, IDEAL_Q):
        m = _propagator_matrix(spectrum(params), 0.0)
        assert np.abs(m - np.eye(3)).max() < 1e-10


def test_propagator_sign_pattern():
    m = _propagator_matrix(spectrum(FIG5), 0.8)
    assert m[1, 0] == pytest.approx(-m[0, 1], rel=1e-12)
    assert m[2, 0] == pytest.approx(m[0, 2], rel=1e-12)
    assert m[2, 1] == pytest.approx(-m[1, 2], rel=1e-12)


def test_balanced_losses_rescale_the_ideal_propagator():
    ideal = spectrum(ModelParams(rho=100.0, delta=3.5))
    lossy = spectrum(FIG5)
    for tau in (0.4, 1.3, 2.7):
        expected = np.exp(-0.5 * tau) * _propagator_matrix(ideal, tau)
        actual = _propagator_matrix(lossy, tau)
        assert np.abs(actual - expected).max() < 1e-10 * np.abs(expected).max()


def test_propagator_matches_series_squaring_exponential():
    rng = np.random.RandomState(19)
    for _ in range(20):
        params = random_params(rng, rates=3.0)
        spec = spectrum(params)
        a_eff = effective_generator(spec)
        for tau in (0.1, 0.7, 2.0, 5.0):
            m = _propagator_matrix(spec, tau)
            reference = expm_taylor(a_eff * tau)
            assert np.abs(m - reference).max() <= 1e-8 * max(
                1.0, np.abs(reference).max()
            )


def test_propagator_semigroup_property():
    rng = np.random.RandomState(23)
    for _ in range(20):
        spec = spectrum(random_params(rng, rates=3.0))
        tau1, tau2 = rng.uniform(0.1, 2.5, 2)
        whole = _propagator_matrix(spec, tau1 + tau2)
        parts = _propagator_matrix(spec, tau1) @ _propagator_matrix(spec, tau2)
        assert np.abs(whole - parts).max() < 1e-8 * np.abs(whole).max()


def test_propagator_determinant_decay_law():
    # the identity holds for all parameters, but evaluating det(M) in
    # float64 needs the determinant not exponentially below entry scale,
    # so verify on moderate total decay
    rng = np.random.RandomState(29)
    for _ in range(30):
        params = random_params(rng, rates=0.5)
        spec = spectrum(params)
        for tau in (0.1, 0.5, 1.0, 2.0):
            det = abs(np.linalg.det(_propagator_matrix(spec, tau)))
            expected = np.exp(-(params.kappa + params.gamma1 + params.gamma2) * tau)
            assert det == pytest.approx(expected, rel=1e-8)
    spec = spectrum(FIG5)
    for tau in (0.5, 2.0, 5.0):
        det = abs(np.linalg.det(_propagator_matrix(spec, tau)))
        assert det == pytest.approx(np.exp(-1.5 * tau), rel=1e-8)


def test_lossless_unitarity_relations():
    # with no losses, |f11|^2 - 1 = |f12|^2 + |f13|^2 and its companions
    for params in (IDEAL_SC, IDEAL_Q):
        spec = spectrum(params)
        for tau in np.linspace(0.0, 5.0, 26):
            m = _propagator_matrix(spec, tau)
            f11, f12, f13 = m[0, :]
            f22, f23 = m[1, 1], m[1, 2]
            f33 = m[2, 2]
            checks = [
                abs(f13) ** 2 + 1 - abs(f23) ** 2 - abs(f33) ** 2,
                abs(f11) ** 2 - 1 - abs(f12) ** 2 - abs(f13) ** 2,
                abs(f12) ** 2 + 1 - abs(f22) ** 2 - abs(f23) ** 2,
                f11 * np.conj(f13) + f12 * np.conj(f23) - f13 * np.conj(f33),
                -f11 * np.conj(f12) - f12 * np.conj(f22) - f13 * np.conj(f23),
                -f12 * np.conj(f13) + f22 * np.conj(f23) - f23 * np.conj(f33),
            ]
            assert max(abs(np.asarray(checks))) < 1e-9


# ------------------------------------------------------------------- generators


def test_effective_generator_trace():
    rng = np.random.RandomState(31)
    for _ in range(20):
        params = random_params(rng)
        a_eff = effective_generator(spectrum(params))
        expected = -(params.kappa + params.gamma1 + params.gamma2) - 2j * params.delta
        assert np.trace(a_eff) == pytest.approx(expected, abs=1e-9)
    lossless = effective_generator(spectrum(ModelParams(rho=4.0, delta=0.0)))
    assert abs(np.trace(lossless)) < 1e-12


def test_effective_generator_eigenvalues():
    spec = spectrum(FIG5)
    eigs = np.linalg.eigvals(effective_generator(spec))
    for lam in spec.lambdas:
        assert np.min(np.abs(eigs - lam)) < 1e-9


def test_effective_generator_matches_parameter_form():
    rng = np.random.RandomState(37)
    for _ in range(30):
        params = random_params(rng)
        spec = spectrum(params)
        assert np.abs(effective_generator(spec) - drift_generator(params)).max() < 1e-8


def test_drift_generator_decoupled_decay_rates():
    # remove the coupling by hand: modes must decay at gamma1, gamma2, kappa
    params = ModelParams(rho=2.0, delta=1.3, gamma1=0.4, gamma2=0.9, kappa=1.7)
    a = drift_generator(params).copy()
    a[0, 2] = a[1, 2] = a[2, 0] = a[2, 1] = 0.0
    rates = -np.sort(np.linalg.eigvals(a).real)[::-1]
    assert np.allclose(np.sort(rates), [0.4, 0.9, 1.7], atol=1e-12)
