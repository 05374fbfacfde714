import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    covariance_closed,
    covariance_entrywise,
    covariance_van_loan,
    eigen_spectrum,
    expm_taylor,
    mixed_basis_bound,
    mp_covariance,
    mp_lyapunov,
    mp_steady_state,
    newton_propagator,
    physicality_6x6,
    rk4_lyapunov,
    rk4_oracle,
)
from tricarl import (
    CovarianceState,
    ModelParams,
    NonFinite,
    NotStable,
    covariance,
    diffusion_matrix,
    drift_generator,
    mode_observables,
    ode_oracle,
    physicality,
    q_closed_form,
    q_quadrature,
    spectrum,
    steady_state,
)
from tricarl.covariance import _covariance_stack, _phi, _van_loan_noise, expm
from tricarl.dynamics import cubic_roots
from tricarl.model import ParamStack

FIG5 = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)
IDEAL_SC = ModelParams(rho=100.0, delta=0.0)
# detuning at which the lossless rho=100 cubic has a double root
CRITICAL = ModelParams(rho=100.0, delta=1.8899212590353165)


def random_params(rng, rates=3.0):
    return ModelParams(
        rho=10 ** rng.uniform(-1, np.log10(200.0)),
        delta=rng.uniform(-10, 10),
        gamma1=rng.uniform(0, rates),
        gamma2=rng.uniform(0, rates),
        kappa=rng.uniform(0, rates),
    )


# -------------------------------------------------------------------- noise Q


def test_q_zero_at_tau_zero():
    spec = spectrum(FIG5)
    assert np.abs(q_closed_form(spec, 0.0).q).max() == 0.0
    assert np.abs(q_quadrature(FIG5, 0.0).q).max() == 0.0


def test_q_vanishes_without_losses():
    spec = spectrum(IDEAL_SC)
    for tau in (0.5, 2.0, 5.0):
        assert np.abs(q_closed_form(spec, tau).q).max() == 0.0


def test_q_closed_matches_quadrature_fig5():
    spec = spectrum(FIG5)
    closed = q_closed_form(spec, 2.0).q
    quad = q_quadrature(FIG5, 2.0).q
    assert np.abs(closed - quad).max() < 1e-8 * max(1.0, np.abs(closed).max())


def test_q_closed_matches_quadrature_random():
    rng = np.random.RandomState(41)
    for _ in range(10):
        params = random_params(rng, rates=2.0)
        spec = spectrum(params)
        tau = rng.uniform(0.2, 3.0)
        closed = q_closed_form(spec, tau).q
        quad = q_quadrature(params, tau).q
        assert np.abs(closed - quad).max() < 1e-8 * max(1.0, np.abs(closed).max())


def test_q_quadrature_scalar_decay_check():
    # coupling-suppressed generator: the photon mode is a pure decay
    # channel and its noise integral is (1 - exp(-2 kappa tau))/2
    kappa = 0.7
    generator = np.diag([-0.3, -0.2, -kappa]).astype(complex)
    diffusion = np.diag([0.0, 0.0, kappa]).astype(complex)
    for tau in (0.3, 1.3, 4.0):
        q, _ = _van_loan_noise(generator, diffusion, tau)
        expected = (1.0 - math.exp(-2.0 * kappa * tau)) / 2.0
        assert q[2, 2].real == pytest.approx(expected, rel=1e-10)
        assert np.abs(q - np.diag([0, 0, q[2, 2]])).max() < 1e-12


def test_q_positive_semidefinite():
    rng = np.random.RandomState(43)
    for _ in range(20):
        params = random_params(rng)
        q = q_closed_form(spectrum(params), rng.uniform(0.2, 5.0)).q
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-9 * max(np.trace(q).real, 1e-30)


def mp_phi(z, tau):
    """(exp(z tau) - 1)/z at 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        return complex(mpmath.expm1(z * tau) / z)


@pytest.mark.parametrize("zt", [1e-7, 5e-7, 1e-4, 0.3, 0.99, 1.01, 4.0])
@pytest.mark.parametrize("phase", [1.0, -1.0, 1j, np.exp(2j), -np.exp(1j)])
def test_phi_keeps_its_digits_on_both_sides_of_the_expm1_switch(zt, phase):
    # exp - 1 lost 5.7e-10 at z tau = 1e-7; expm1 below |z tau| = 1 keeps it
    tau = 5.0
    z = zt * phase / tau
    assert abs(_phi(z, tau) - mp_phi(z, tau)) <= 4 * np.finfo(float).eps * abs(mp_phi(z, tau))


def test_phi_series_and_infinite_tau():
    # |z tau| < 1e-5: the series; tau = inf with Re z < 0: exactly -1/z
    for z in (0.0, 3e-9, -2e-9j, 1e-300):
        assert abs(_phi(z, 2.0) - (mp_phi(z, 2.0) if z else 2.0)) <= 1e-15 * 2.0
    z = np.array([-0.5 + 2j, -1e-3, -7.0 - 1j])
    with np.errstate(invalid="ignore"):  # 0 * inf in the imaginary part of z tau
        assert np.array_equal(_phi(z, math.inf), -1.0 / z)


@pytest.mark.parametrize("z, tau", [(5e-9, 1e6), (-9e-9, 1e8), (2e-300, 1e-3)])
def test_phi_series_follows_z_tau_not_z(z, tau):
    # the series for |z| < 1e-8 whatever tau read 5.2e-9 and 3.9e-2 relative
    # at the first two points; expm1 keeps them to the last bits
    assert abs(_phi(z, tau) - mp_phi(z, tau)) <= 4 * np.finfo(float).eps * abs(mp_phi(z, tau))


@pytest.mark.parametrize("tau, bound", [(1e6, 1e-9), (1e8, 1e-8)])
def test_closed_form_over_long_times_at_tiny_losses(tau, bound):
    # losses 4.5e-9 put phi's z tau at 1e-2 to 1: the tau-blind series read
    # 3.5e-9 and 2.5e-2 of max|C| here, the closed form now 3.3e-10 and
    # 3.6e-9, the conditioning of exp(nu tau) to the rounding of nu tau
    params = ModelParams(100.0, 5.0, 4.5e-9, 4.5e-9, 4.5e-9)
    reference = mp_covariance(params, tau, 40)
    got = covariance(params, tau).c
    assert np.abs(got - reference).max() <= bound * max(1.0, np.abs(reference).max())


@pytest.mark.parametrize("offset", [-1e-8, 1e-8, 1e-7, 1e-6, 1e-5])
def test_closed_form_at_the_lossy_gain_threshold(offset):
    # equal losses 0.5 at rho=100: the gain crosses 0 at delta = 1.5605116...,
    # where the noise integral's phi sees z tau of order the gain times tau
    # (-6.8e-9 at offset 1e-8).  exp - 1 read 4.8e-10, 6.9e-11 and 3.2e-12
    # at offsets 1e-8, 1e-7 and 1e-6; 40-digit Van Loan is the reference
    params = ModelParams(100.0, 1.56051161624088 + offset, 0.5, 0.5, 0.5)
    reference = mp_covariance(params, 5.0, 40)
    got = covariance(params, 5.0).c
    assert np.abs(got - reference).max() <= 1e-13 * max(1.0, np.abs(reference).max())


# ----------------------------------------------------------------- covariance


def test_vacuum_initial_condition():
    for params in (FIG5, IDEAL_SC):
        state = covariance(params, 0.0)
        assert np.abs(state.c - 0.5 * np.eye(3)).max() < 1e-12


def test_covariance_hermitian_and_vacuum_floor():
    rng = np.random.RandomState(47)
    for _ in range(20):
        params = random_params(rng)
        state = covariance(params, rng.uniform(0, 4.0))
        assert np.abs(state.c - state.c.conj().T).max() == 0.0
        assert np.diag(state.c).real.min() >= 0.5 - 1e-9


def test_covariance_state_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    from tricarl import NotHermitian

    with pytest.raises(NotHermitian):
        CovarianceState(tau=0.0, c=bad)


def test_covariance_state_rejects_non_finite():
    from tricarl import NonFinite

    for value in (np.nan, np.inf):
        bad = 0.5 * np.eye(3, dtype=complex)
        bad[0, 0] = value
        with pytest.raises(NonFinite):
            CovarianceState(tau=0.0, c=bad)


def test_matrix_and_entrywise_paths_agree():
    rng = np.random.RandomState(53)
    for _ in range(20):
        params = random_params(rng)
        tau = rng.uniform(0.0, 5.0)
        a = covariance_closed(params, tau).c
        b = covariance_entrywise(eigen_spectrum(params), tau).c
        assert np.abs(a - b).max() < 1e-9 * max(1.0, np.abs(a).max())


def test_closed_form_matches_rk4_fig5():
    state = covariance(FIG5, 2.0)
    reference = rk4_oracle(FIG5, 2.0, steps=10_000)
    rel = np.abs(state.c - reference.c).max() / np.abs(state.c).max()
    assert rel < 1e-6
    state10 = covariance(FIG5, 10.0)
    reference10 = rk4_oracle(FIG5, 10.0)
    assert np.abs(state10.c - reference10.c).max() / np.abs(state10.c).max() < 1e-6


def test_closed_form_matches_independent_rk4():
    # same moment equation, integrated by the test-local RK4
    params = ModelParams(rho=5.0, delta=-2.0, gamma1=0.3, gamma2=0.8, kappa=1.1)
    reference = rk4_lyapunov(
        drift_generator(params),
        diffusion_matrix(params),
        0.5 * np.eye(3, dtype=complex),
        3.0,
        6000,
    )
    state = covariance(params, 3.0)
    assert np.abs(state.c - reference).max() < 1e-7 * max(1.0, np.abs(state.c).max())


def test_balanced_loss_population_rate_rescaling():
    # equal rates on all modes damp the lossless population growth rate
    # by exp(-2 gamma tau), checked with centered finite differences
    lossless = ModelParams(rho=100.0, delta=3.5)
    h = 1e-4
    for tau in (0.5, 1.5, 3.0):
        def rates(params):
            up = mode_observables(covariance(params, tau + h)).n
            down = mode_observables(covariance(params, tau - h)).n
            return np.subtract(up, down) / (2 * h)

        damped = rates(FIG5)
        ideal = rates(lossless)
        expected = math.exp(-2 * 0.5 * tau) * ideal
        assert np.abs(damped - expected).max() <= 1e-4 * np.abs(damped).max()


def test_population_constant_of_motion():
    # n1 = n2 + n3 for balanced losses (and for the ideal case)
    for params in (FIG5, ModelParams(rho=100.0, delta=3.5), IDEAL_SC):
        for tau in np.linspace(0.25, 5.0, 20):
            n = mode_observables(covariance(params, tau)).n
            assert abs(n[0] - n[1] - n[2]) <= 1e-8 * max(n[0], 1e-12)


# --------------------------------------------------------------- steady state


def test_steady_state_fig5():
    state = steady_state(FIG5)
    assert state.tau == math.inf
    a = drift_generator(FIG5)
    residual = a @ state.c + state.c @ a.conj().T + diffusion_matrix(FIG5)
    assert np.abs(residual).max() < 1e-9 * np.abs(state.c).max()
    # the same stationarity condition solved in the eigenbasis:
    # C~_ij = -D~_ij / (l_i + l_j*) with D~ = S D S^dag
    spec = eigen_spectrum(FIG5)
    d_tilde = spec.s @ diffusion_matrix(FIG5) @ spec.s.conj().T
    sums = spec.lambdas[:, np.newaxis] + spec.lambdas[np.newaxis, :].conj()
    reference = spec.s_inverse @ (-d_tilde / sums) @ spec.s_inverse.conj().T
    assert np.abs(state.c - reference).max() < 1e-8 * np.abs(state.c).max()


def test_steady_state_matches_high_precision():
    # fig5: within 1e-12 (measured 2.3e-14)
    reference = mp_steady_state(FIG5, 40)
    scale = max(1.0, np.abs(reference).max())
    assert np.abs(steady_state(FIG5).c - reference).max() <= 1e-12 * scale
    # rho=1, delta=1, gamma=0.01, kappa=50 decays at only 5e-7 (gain), so the
    # 9x9 operator's condition number is 1e8: rounding the generator's
    # entries to floats alone moves the exact solution by 2.7e-12 relative.
    # The solve is held to that floor plus 1e-12 (it reads 1.7e-12; the
    # Bartels-Stewart solver it replaces read 5.7e-9).
    params = ModelParams(1.0, 1.0, 0.01, 0.01, 50.0)
    reference = mp_steady_state(params, 40)
    scale = max(1.0, np.abs(reference).max())
    rounded = mp_lyapunov(drift_generator(params), diffusion_matrix(params), 40)
    floor = np.abs(rounded - reference).max()
    assert np.abs(steady_state(params).c - reference).max() <= floor + 1e-12 * scale


def test_steady_state_is_long_time_limit():
    rng = np.random.RandomState(59)
    found = 0
    while found < 5:
        params = random_params(rng)
        try:
            limit = steady_state(params)
        except NotStable:
            continue
        found += 1
        spec = spectrum(params)
        horizon = 40.0 / abs(float(np.max(spec.lambdas.real)))
        state = covariance(params, horizon)
        assert np.abs(state.c - limit.c).max() < 1e-4 * max(1.0, np.abs(limit.c).max())


def test_steady_state_unstable_raises():
    with pytest.raises(NotStable):
        steady_state(IDEAL_SC)


def test_steady_state_of_degenerate_stable_spectrum():
    # two roots nearly merge at delta*, and equal losses keep every mode
    # decaying: the closed form at tau=inf is the steady state and the long-
    # time limit; an unstable spectrum has no steady state and reads
    # non-finite
    params = ModelParams(100.0, 1.8899212590353163, 0.5, 0.5, 0.5)
    limit = steady_state(params).c
    reference = mp_steady_state(params, 40)
    assert np.abs(limit - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
    state = covariance(params, 60.0).c
    assert np.abs(state - limit).max() < 1e-9 * max(1.0, np.abs(limit).max())
    with np.errstate(all="ignore"):
        assert np.array_equal(covariance(params, math.inf).c, limit)
        with pytest.raises(NonFinite):
            covariance(ModelParams(100.0, 1.8899212590353163), math.inf)


# ----------------------------------------------------------------- ode oracle


def test_ode_oracle_vacuum_and_homogeneous():
    assert np.abs(ode_oracle(FIG5, 0.0).c - 0.5 * np.eye(3)).max() == 0.0
    # without diffusion the solution is the propagated vacuum M M^dag / 2
    params = IDEAL_SC
    spec = spectrum(params)
    for tau in (0.7, 2.0):
        m = newton_propagator(spec, tau)
        expected = 0.5 * m @ m.conj().T
        got = ode_oracle(params, tau).c
        assert np.abs(got - expected).max() < 1e-7 * np.abs(expected).max()


@pytest.mark.parametrize("tau", [-1.0, math.inf, math.nan])
def test_ode_oracle_rejects_a_negative_or_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        ode_oracle(FIG5, tau)


@pytest.mark.parametrize("tau", [-1.0, math.nan])
def test_covariance_rejects_a_negative_or_nan_tau(tau):
    with pytest.raises(ValueError, match="tau must be >= 0"):
        covariance(FIG5, tau)


def test_ode_oracle_is_the_hermitized_block_exponential():
    for params, tau in ((FIG5, 2.0), (CRITICAL, 3.0), (ModelParams(1.0, 0.0, 5.0, 5.0, 5.0), 1e6)):
        q, m = _van_loan_noise(drift_generator(params), diffusion_matrix(params), tau)
        q = 0.5 * (q + q.conj().T)
        c = q + 0.5 * m @ m.conj().T
        assert np.array_equal(ode_oracle(params, tau).c, 0.5 * (c + c.conj().T))


# lossless rho=100 gain threshold, as in the benchmark's edge ladder
DELTA_STAR = 1.8899212590353163
EDGE_OFFSETS = (0.0,) + tuple(s * 10.0**-k for k in range(1, 14) for s in (1.0, -1.0))


def edge_generic_points(seed):
    """The generic lossy points of the benchmark's edge_points workload at a
    seed: the first draws of random.Random(seed)."""
    rng = random.Random(seed)
    return [
        ModelParams(
            10.0 ** rng.uniform(math.log10(50.0), math.log10(200.0)),
            rng.uniform(1.5, 2.3),
            rng.uniform(0.05, 0.5),
            rng.uniform(0.05, 0.5),
            rng.uniform(0.05, 0.5),
        )
        for _ in range(8)
    ]


def test_ode_oracle_matches_high_precision_on_the_edge_points():
    # the delta* ladder (roots merging) and the generic points at tau=5,
    # against 40-digit Van Loan (60 digits agree at delta*); measured
    # at most 2.1e-12, where the RK4 reference reads 4.5e-11 to 1.8e-8
    ladder = [ModelParams(100.0, DELTA_STAR + offset) for offset in EDGE_OFFSETS]
    for params in ladder + edge_generic_points(7):
        reference = mp_covariance(params, 5.0, 40)
        got = ode_oracle(params, 5.0).c
        assert np.abs(got - reference).max() <= 1e-11 * max(1.0, np.abs(reference).max())


# ------------------------------------------------------------ the RK4 reference


def test_rk4_oracle_vacuum_and_step_validation():
    assert np.abs(rk4_oracle(FIG5, 0.0).c - 0.5 * np.eye(3)).max() == 0.0
    with pytest.raises(ValueError):
        rk4_oracle(FIG5, 1.0, steps=0)
    with pytest.raises(ValueError):
        rk4_oracle(FIG5, -1.0)


@pytest.mark.parametrize(
    "tau, steps, message",
    [
        (0.0, 0, "steps must be a positive integer"),  # checked before the vacuum
        (math.inf, None, "tau must be finite"),
        (math.nan, None, "tau must be finite"),
        (1.0, 2.5, "steps must be a positive integer"),
        (1.0, True, "steps must be a positive integer"),
    ],
)
def test_rk4_oracle_rejects_bad_input(tau, steps, message):
    with pytest.raises(ValueError, match=message):
        rk4_oracle(FIG5, tau, steps)


def default_oracle_steps(params, tau):
    """The RK4 reference's default step count, 100 tau max(1, |lambda|_max)
    over the eigenvalues of the drift generator."""
    lam = np.linalg.eigvals(drift_generator(params))
    return math.ceil(100.0 * tau * max(1.0, np.abs(lam).max()))


def assert_oracle_is_stepwise_rk4(params, tau, steps):
    got = rk4_oracle(params, tau, steps).c
    a, d = drift_generator(params), diffusion_matrix(params)
    expected = rk4_lyapunov(a, d, 0.5 * np.eye(3), tau, steps)
    assert np.abs(got - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("steps", [1, 15, 16, 17, 33])
def test_rk4_oracle_blocks_reproduce_stepwise_rk4(steps):
    # 16-step blocks plus single-step remainders: every split of the count
    assert_oracle_is_stepwise_rk4(FIG5, 2.0, steps)


@pytest.mark.parametrize(
    "params", [FIG5, CRITICAL, ModelParams(rho=100.0, delta=DELTA_STAR)]
)
def test_rk4_oracle_default_steps_reproduce_stepwise_rk4(params):
    steps = default_oracle_steps(params, 5.0)
    assert np.array_equal(rk4_oracle(params, 5.0).c, rk4_oracle(params, 5.0, steps).c)
    assert_oracle_is_stepwise_rk4(params, 5.0, steps)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(0.1, 200.0),
    delta=st.floats(-5.0, 5.0),
    rates=st.tuples(*[st.floats(0.0, 2.0)] * 3),
    tau=st.floats(0.0, 5.0, exclude_min=True),
    steps=st.integers(1, 400),
)
def test_rk4_oracle_is_stepwise_rk4_everywhere(rho, delta, rates, tau, steps):
    assert_oracle_is_stepwise_rk4(ModelParams(rho, delta, *rates), tau, steps)


# ------------------------------------------------- near-degenerate spectrum


def test_near_degenerate_routed_through_quadrature():
    # two roots nearly merge at CRITICAL: the closed form keeps its digits
    # there; Van Loan with a separate expm stays a reference
    state = covariance(CRITICAL, 3.0)
    reference = mp_covariance(CRITICAL, 3.0, 40)
    scale = np.abs(reference).max()
    assert np.abs(state.c - reference).max() <= 1e-13 * scale
    forced = covariance_van_loan(CRITICAL, 3.0)
    assert np.abs(forced.c - reference).max() / np.abs(forced.c).max() < 1e-6


def test_quadrature_method_matches_closed_on_regular_spectrum():
    state_closed = covariance_closed(FIG5, 1.5)
    state_quad = covariance_van_loan(FIG5, 1.5)
    # covariance is the one-row case of the stack kernel, operation for operation
    c, status = _covariance_stack(ParamStack(**FIG5.to_dict()), cubic_roots(FIG5), 1.5)
    assert status == "ok" and np.array_equal(covariance(FIG5, 1.5).c, c)
    for other in (state_closed.c, state_quad.c):
        assert np.abs(c - other).max() < 1e-11 * np.abs(c).max()
    assert np.abs(state_closed.c - state_quad.c).max() < 1e-11 * np.abs(
        state_closed.c
    ).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(0.1, 200.0),
    delta=st.floats(-5.0, 5.0),
    rates=st.tuples(*[st.floats(0.0, 2.0)] * 3),
    tau=st.floats(0.0, 5.0),
)
def test_block_exponential_matches_closed_form(rho, delta, rates, tau):
    # physicality rounds on the scale of C (about 1e-5 at |C| ~ 1e11), so
    # its floor is relative like the agreement bound
    params = ModelParams(rho, delta, *rates)
    closed = covariance(params, tau).c
    exact = covariance_van_loan(params, tau).c
    scale = max(1.0, np.abs(closed).max())
    assert np.abs(closed - exact).max() <= 1e-9 * scale
    for c in (closed, exact):
        assert np.array_equal(c, c.conj().T)
        floor = physicality(c)
        assert floor >= -1e-9 * scale
        assert abs(floor - physicality_6x6(c)) <= mixed_basis_bound(c)


def test_quadrature_propagator_consistency():
    # the propagators of the block exponential's doublings and of scipy's
    # expm (the Van Loan reference) agree with the independent Taylor oracle
    a, d = drift_generator(FIG5), diffusion_matrix(FIG5)
    from scipy.linalg import expm

    for tau in (0.5, 2.0):
        assert np.abs(expm(a * tau) - expm_taylor(a * tau)).max() < 1e-10
        assert np.abs(_van_loan_noise(a, d, tau)[1] - expm_taylor(a * tau)).max() < 1e-10


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.4, 3.0, 40.0, 900.0])
def test_expm_matches_scipy(norm):
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(int(norm) + 5)
    for n in (3, 6):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if norm:
            x *= norm / np.abs(x).sum(axis=0).max()
        # skew-Hermitian as well as generic: a unitary result tests the squaring
        for matrix in (x, x - x.conj().T):
            reference = scipy_expm(matrix)
            got = expm(matrix)
            assert np.abs(got - reference).max() <= 1e-13 * max(1.0, norm) * np.abs(reference).max()


def test_block_exponential_propagator_at_the_gain_threshold():
    # where two roots merge, M from the doublings keeps about 12 digits of
    # the exponential (7e-13 relative measured at delta*)
    for params in (CRITICAL, ModelParams(rho=100.0, delta=DELTA_STAR)):
        a, d = drift_generator(params), diffusion_matrix(params)
        for tau in (0.0, 0.5, 5.0):
            q, m = _van_loan_noise(a, d, tau)
            reference = expm_taylor(a * tau)
            assert np.abs(m - reference).max() <= 1e-11 * np.abs(reference).max()
            assert np.abs(q).max() == 0.0  # no losses, no noise
