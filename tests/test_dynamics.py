import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import exact_roots, mp_unitarity_defect, newton_propagator, unstable_root
from tricarl import (
    ModelParams,
    NonFinite,
    cubic_coefficients,
    cubic_roots,
    derive,
    drift_generator,
    gain,
    solve_cubic,
    spectrum,
)
from tricarl.covariance import _covariance_stack
from tricarl.dynamics import _eigenvalues
from tricarl.errors import first_failure
from tricarl.model import ParamStack

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


# ------------------------------------------------- closed-form solver accuracy

EPS = np.finfo(float).eps
# one gain threshold of the lossless cubic per coupling: the detuning where
# two roots merge (100: the edge_points ladder's DELTA_STAR + 1 ulp)
LADDER_RHOS = (0.3, 50.0, 100.0, 200.0)
LADDER_OFFSETS = (0.0,) + tuple(s * 10.0**-k for k in range(1, 14) for s in (1.0, -1.0))


def merge_detuning(rho):
    """Detuning above 0.5 where the discriminant of the lossless cubic
    (w - delta)(w^2 - 1/rho^2) + 1 vanishes, to double precision."""

    def discriminant(d):
        b2 = 1 / mpmath.mpf(rho) ** 2
        c2, c1, c0 = -d, -b2, d * b2 + 1
        return 18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2 - 4 * c1**3 - 27 * c0**2

    with mpmath.workdps(40):
        grid = np.linspace(0.5, 5.0, 46)
        signs = [mpmath.sign(discriminant(mpmath.mpf(d))) for d in grid]
        k = next(i for i in range(len(grid) - 1) if signs[i] != signs[i + 1])
        return float(mpmath.findroot(discriminant, (grid[k], grid[k + 1]), solver="bisect"))


def coefficients_of(rho, delta, gamma1=0.0, gamma2=0.0, kappa=0.0):
    params = ModelParams(rho, delta, gamma1, gamma2, kappa)
    return cubic_coefficients(derive(params), params.rho)


def assert_roots_near_exact(roots, coeffs, exact, factor=16.0):
    """Each root within ``factor`` ulps times its condition number
    sum_k |c_k| |w|^k / |p'(w)| of the exact root, the roots matched as a
    set."""
    slopes = [(w - exact[(j + 1) % 3]) * (w - exact[(j + 2) % 3]) for j, w in enumerate(exact)]
    condition = np.array(
        [
            sum(abs(coeffs[3 - k]) * abs(w) ** k for k in range(4)) / abs(slope)
            for w, slope in zip(exact, slopes)
        ]
    )
    errors = min(
        (np.abs(roots[list(order)] - exact) for order in itertools.permutations(range(3))),
        key=lambda e: np.max(e / condition),
    )
    assert np.all(errors <= factor * EPS * condition)


def assert_vieta(roots, coeffs, factor=16.0):
    """The sum, pair-sum and product relations within ``factor`` ulps of the
    scale s = max(|c2|, |c1|^(1/2), |c0|^(1/3)) to the first, second and
    third power."""
    s = max(abs(coeffs[1]), abs(coeffs[2]) ** 0.5, abs(coeffs[3]) ** (1 / 3))
    pair_sum = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    assert abs(roots.sum() + coeffs[1]) <= factor * EPS * s
    assert abs(pair_sum - coeffs[2]) <= factor * EPS * s**2
    assert abs(roots.prod() + coeffs[3]) <= factor * EPS * s**3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    log_rho=st.floats(-2.0, 4.0),
    delta=st.floats(-10.0, 10.0),
    rates=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
)
def test_solve_cubic_matches_exact_roots(log_rho, delta, rates):
    coeffs = coefficients_of(10.0**log_rho, delta, *rates)
    roots, exact = solve_cubic(coeffs), exact_roots(coeffs)
    assert_roots_near_exact(roots, coeffs, exact)
    assert_vieta(roots, coeffs)


@pytest.mark.parametrize("rho", LADDER_RHOS)
def test_solve_cubic_on_merge_detuning_ladders(rho):
    star = merge_detuning(rho)
    exact = exact_roots(coefficients_of(rho, star))
    assert min(abs(a - b) for a, b in itertools.combinations(exact, 2)) < 1e-7
    for offset in LADDER_OFFSETS:
        coeffs = coefficients_of(rho, star + offset)
        roots = solve_cubic(coeffs)
        assert_roots_near_exact(roots, coeffs, exact_roots(coeffs))
        assert_vieta(roots, coeffs)


def test_edge_ladder_rows_stay_regular():
    # the edge_points ladder at rho = 100, where two roots merge: one stacked
    # pass of the closed form gives every row a finite, ok covariance
    star = 1.8899212590353163
    deltas = np.array([star + offset for offset in LADDER_OFFSETS])
    stack = ParamStack(100.0, deltas, 0.0, 0.0, 0.0)
    dp = derive(stack)
    roots = solve_cubic(cubic_coefficients(dp, stack.rho))
    c, guards = _covariance_stack(stack, _eigenvalues(stack, dp, roots), 5.0)
    assert first_failure(*guards) == "ok" and np.isfinite(c).all()


@pytest.mark.parametrize("rates", [(0.1, 0.3, 0.2), (0.3, 0.5, 0.1), (0.2, 0.7, 1.5)])
def test_small_rho_gain_is_the_decoupled_limit(rates):
    # the large roots are +-(1/rho + i gamma_minus) to within rho^2: their
    # imaginary parts survive though they are 1e-150 of the modulus
    for k in range(5, 141):
        params = ModelParams(10.0**-k, 2.0, *rates)
        growth = gain(cubic_roots(params), derive(params).gamma_plus)
        assert growth == pytest.approx(-min(rates), abs=1e-12), k


def test_non_finite_only_where_the_coefficients_overflow():
    for k in range(5, 200):
        params = ModelParams(10.0**-k, 2.0, 0.1, 0.3, 0.2)
        finite = np.isfinite(cubic_coefficients(derive(params), params.rho)).all()
        if finite:
            assert np.isfinite(cubic_roots(params)).all(), k
        else:
            with pytest.raises(NonFinite):
                cubic_roots(params)
    assert not np.isfinite(cubic_coefficients(derive(ModelParams(1e-160, 2.0)), 1e-160)).all()


def test_large_detuning_keeps_the_gain():
    for delta in (1e4, -1e6, 1e8):
        for rho in (0.01, 1.0, 100.0):
            coeffs = coefficients_of(rho, delta, 0.1, 0.3, 0.2)
            expected = gain(exact_roots(coeffs), 0.2)
            assert gain(solve_cubic(coeffs), 0.2) == pytest.approx(expected, abs=1e-12)


def test_multiple_zero_and_non_finite_roots():
    cases = {
        (1, 0, 0, 0): [0, 0, 0],
        (1, -3, 3, -1): [1, 1, 1],
        (1, 0, -3, 2): [-2, 1, 1],
        (1, 0, -1, 0): [-1, 0, 1],
        (1, -1, 0, 0): [0, 0, 1],
        (1, -3.001, 2.003, -0.002): [0.001, 1, 2],
    }
    coeffs = np.array(list(cases), dtype=complex)
    roots = solve_cubic(coeffs)
    assert np.allclose(roots, np.array(list(cases.values())), rtol=1e-14, atol=1e-15)
    assert np.isnan(solve_cubic(np.array([1, 0, np.inf, 0]))).all()
    assert np.isnan(solve_cubic(np.array([[1, 0, 0, 1], [1, np.nan, 0, 0]]))[1]).all()


def test_real_cubics_give_exactly_conjugate_pairs():
    # without losses the coefficients are real: a complex pair must come out
    # conjugate to the last bit, or the lossless unitarity relations drift
    rng = np.random.RandomState(13)
    pairs = 0
    for _ in range(200):
        roots = cubic_roots(ModelParams(10 ** rng.uniform(-2, 4), rng.uniform(-10, 10)))
        if abs(roots[0].imag) > 1e-8 * abs(roots[0]):
            pairs += 1
            assert roots[0] == np.conj(roots[2])
    assert pairs > 50


# ----------------------------------------------------------- unstable root / gain


def test_unstable_root_picks_minimum_imaginary_part():
    roots = CUBE_ROOTS_OF_MINUS_ONE
    assert unstable_root(roots) == 0.5 - 0.5j * np.sqrt(3.0)


def test_gain_takes_the_unstable_root_on_sorted_and_shuffled_roots():
    # gain reads the least root by (Im, Re) without sorting: the gain of
    # unstable_root's pick, bit for bit, the sign of a zero gain included
    rng = np.random.default_rng(3)
    rates = np.where(rng.random(5000) < 0.5, 0.0, rng.uniform(0.0, 2.0, 5000))
    deltas = np.round(rng.uniform(-10.0, 10.0, 5000), 2)
    stack = ParamStack(10 ** rng.uniform(-2.0, 3.0, 5000), deltas, rates, 0.7 * rates, 0.3 * rates)
    dp = derive(stack)
    roots = solve_cubic(cubic_coefficients(dp, stack.rho))
    assert (roots.imag == 0).any()
    for omegas in (roots, rng.permuted(roots, axis=-1)):
        expected = -unstable_root(omegas).imag - dp.gamma_plus
        got = gain(omegas, dp.gamma_plus)
        assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


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


# ------------------------------------------------------------------- propagator


def test_newton_propagator_at_a_double_root():
    # the Newton form of M needs no eigenvectors: at the double-root detuning
    # of the lossless rho=100 cubic (rounded roots about 2e-8 apart) it is
    # the exponential
    critical = ModelParams(rho=100.0, delta=1.8899212590353165)
    for tau in (0.5, 5.0):
        reference = expm(drift_generator(critical) * tau)
        m = newton_propagator(critical, tau)
        assert np.abs(m - reference).max() <= 1e-11 * np.abs(reference).max()


def test_propagator_identity_at_zero():
    for params in (FIG5, IDEAL_SC, IDEAL_Q):
        m = newton_propagator(params, 0.0)
        assert np.abs(m - np.eye(3)).max() < 1e-10


def test_propagator_sign_pattern():
    m = newton_propagator(FIG5, 0.8)
    assert m[1, 0] == pytest.approx(-m[0, 1], rel=1e-12)
    assert m[2, 0] == pytest.approx(m[0, 2], rel=1e-12)
    assert m[2, 1] == pytest.approx(-m[1, 2], rel=1e-12)


def test_balanced_losses_rescale_the_ideal_propagator():
    ideal, lossy = ModelParams(rho=100.0, delta=3.5), FIG5
    for tau in (0.4, 1.3, 2.7):
        expected = np.exp(-0.5 * tau) * newton_propagator(ideal, tau)
        actual = newton_propagator(lossy, tau)
        assert np.abs(actual - expected).max() < 1e-10 * np.abs(expected).max()


def test_propagator_matches_series_squaring_exponential():
    rng = np.random.RandomState(19)
    for _ in range(20):
        params = random_params(rng, rates=3.0)
        lambdas = spectrum(params)
        a_eff = drift_generator(params)
        # the cubic's lambda_j are the eigenvalues of A, so they sum to tr A
        # (measured 1.3e-14 and 1.8e-15 over this grid)
        distances = np.abs(np.linalg.eigvals(a_eff)[:, np.newaxis] - lambdas)
        scale = max(1.0, np.abs(lambdas).max())
        assert max(distances.min(axis=0).max(), distances.min(axis=1).max()) <= 1e-11 * scale
        trace = np.trace(a_eff)
        assert abs(lambdas.sum() - trace) <= 1e-12 * max(1.0, abs(trace))
        for tau in (0.1, 0.7, 2.0, 5.0):
            m = newton_propagator(params, tau)
            reference = expm(a_eff * tau)
            assert np.abs(m - reference).max() <= 1e-8 * max(
                1.0, np.abs(reference).max()
            )


def test_propagator_semigroup_property():
    rng = np.random.RandomState(23)
    for _ in range(20):
        params = random_params(rng, rates=3.0)
        tau1, tau2 = rng.uniform(0.1, 2.5, 2)
        whole = newton_propagator(params, tau1 + tau2)
        parts = newton_propagator(params, tau1) @ newton_propagator(params, tau2)
        assert np.abs(whole - parts).max() < 1e-8 * np.abs(whole).max()


def test_propagator_determinant_decay_law():
    # the identity holds for all parameters, but evaluating det(M) in
    # float64 needs the determinant not exponentially below entry scale,
    # so verify on moderate total decay
    rng = np.random.RandomState(29)
    for _ in range(30):
        params = random_params(rng, rates=0.5)
        for tau in (0.1, 0.5, 1.0, 2.0):
            det = abs(np.linalg.det(newton_propagator(params, tau)))
            expected = np.exp(-(params.kappa + params.gamma1 + params.gamma2) * tau)
            assert det == pytest.approx(expected, rel=1e-8)
    for tau in (0.5, 2.0, 5.0):
        det = abs(np.linalg.det(newton_propagator(FIG5, tau)))
        assert det == pytest.approx(np.exp(-1.5 * tau), rel=1e-8)


def test_lossless_unitarity_relations():
    # with no losses, |f11|^2 - 1 = |f12|^2 + |f13|^2 and its companions
    for params in (IDEAL_SC, IDEAL_Q):
        for tau in np.linspace(0.0, 5.0, 26):
            assert mp_unitarity_defect(newton_propagator(params, tau), 40) < 1e-9


# ------------------------------------------------------------------- generators


def test_drift_generator_trace():
    # tr A = -(kappa + gamma1 + gamma2) - 2i delta: the losses and the
    # detuning, with the coupling rho off the diagonal
    rng = np.random.RandomState(31)
    for _ in range(20):
        params = random_params(rng)
        expected = -(params.kappa + params.gamma1 + params.gamma2) - 2j * params.delta
        assert np.trace(drift_generator(params)) == pytest.approx(expected, abs=1e-12)
    assert np.trace(drift_generator(ModelParams(rho=4.0, delta=0.0))) == 0.0


def test_drift_generator_decoupled_decay_rates():
    # remove the coupling by hand: modes must decay at gamma1, gamma2, kappa
    params = ModelParams(rho=2.0, delta=1.3, gamma1=0.4, gamma2=0.9, kappa=1.7)
    a = drift_generator(params).copy()
    a[0, 2] = a[1, 2] = a[2, 0] = a[2, 1] = 0.0
    rates = -np.sort(np.linalg.eigvals(a).real)[::-1]
    assert np.allclose(np.sort(rates), [0.4, 0.9, 1.7], atol=1e-12)
