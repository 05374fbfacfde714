import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    covariance_closed,
    covariance_entrywise,
    covariance_van_loan,
    expm_taylor,
    mixed_basis_bound,
    physicality_6x6,
    rk4_lyapunov,
)
from tricarl import (
    CovarianceState,
    DegenerateSpectrum,
    ModelParams,
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
from tricarl.covariance import _van_loan_noise
from tricarl.dynamics import _propagator_matrix

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
        b = covariance_entrywise(spectrum(params), tau).c
        assert np.abs(a - b).max() < 1e-9 * max(1.0, np.abs(a).max())


def test_closed_form_matches_rk4_fig5():
    state = covariance(FIG5, 2.0)
    reference = ode_oracle(FIG5, 2.0, steps=10_000)
    rel = np.abs(state.c - reference.c).max() / np.abs(state.c).max()
    assert rel < 1e-6
    state10 = covariance(FIG5, 10.0)
    reference10 = ode_oracle(FIG5, 10.0)
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
    spec = spectrum(FIG5)
    d_tilde = spec.s @ diffusion_matrix(FIG5) @ spec.s.conj().T
    sums = spec.lambdas[:, np.newaxis] + spec.lambdas[np.newaxis, :].conj()
    reference = spec.s_inverse @ (-d_tilde / sums) @ spec.s_inverse.conj().T
    assert np.abs(state.c - reference).max() < 1e-8 * np.abs(state.c).max()


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


def test_steady_state_of_degenerate_stable_spectrum(monkeypatch):
    # a threshold wide enough that the closed form refuses this spectrum;
    # the steady state needs no eigenbasis and is the long-time limit
    import tricarl.dynamics as dynamics

    monkeypatch.setattr(
        dynamics, "degeneracy_threshold", lambda w: 1e-3 * np.maximum(1.0, np.abs(w).max(axis=-1))
    )
    params = ModelParams(100.0, 1.8899212590353163, 0.5, 0.5, 0.5)
    with pytest.raises(DegenerateSpectrum):
        spectrum(params)
    limit = steady_state(params).c
    state = covariance(params, 60.0).c
    assert np.abs(state - limit).max() < 1e-9 * max(1.0, np.abs(limit).max())


# ----------------------------------------------------------------- ode oracle


def test_ode_oracle_vacuum_and_homogeneous():
    assert np.abs(ode_oracle(FIG5, 0.0).c - 0.5 * np.eye(3)).max() == 0.0
    # without diffusion the solution is the propagated vacuum M M^dag / 2
    params = IDEAL_SC
    spec = spectrum(params)
    for tau in (0.7, 2.0):
        m = _propagator_matrix(spec, tau)
        expected = 0.5 * m @ m.conj().T
        got = ode_oracle(params, tau).c
        assert np.abs(got - expected).max() < 1e-7 * np.abs(expected).max()


def test_ode_oracle_step_validation():
    with pytest.raises(ValueError):
        ode_oracle(FIG5, 1.0, steps=0)
    with pytest.raises(ValueError):
        ode_oracle(FIG5, -1.0)


@pytest.mark.parametrize("tau", [-1.0, math.nan])
def test_covariance_rejects_a_negative_or_nan_tau(tau):
    with pytest.raises(ValueError, match="tau must be >= 0"):
        covariance(FIG5, tau)


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
def test_ode_oracle_rejects_bad_input(tau, steps, message):
    with pytest.raises(ValueError, match=message):
        ode_oracle(FIG5, tau, steps)


def test_ode_oracle_caps_only_the_default_step_count(monkeypatch):
    import importlib

    covariance_module = importlib.import_module("tricarl.covariance")
    limit = covariance_module.MAX_ORACLE_STEPS
    # rho=1, rates 5, tau=1e6 would take about 5.6e8 steps; refused up front
    with pytest.raises(ValueError, match=f"exceeds the limit {limit}"):
        ode_oracle(ModelParams(1.0, 0.0, 5.0, 5.0, 5.0), 1e6)
    monkeypatch.setattr(covariance_module, "MAX_ORACLE_STEPS", 100)
    with pytest.raises(ValueError, match="exceeds the limit 100"):
        ode_oracle(FIG5, 2.0)
    ode_oracle(FIG5, 2.0, steps=1000)  # an explicit count is not capped


# lossless rho=100 gain threshold, as in the benchmark's edge ladder
DELTA_STAR = 1.8899212590353163


def default_oracle_steps(params, tau):
    """The oracle's default step count, 100 tau max(1, |lambda|_max) over
    the eigenvalues of the drift generator."""
    lam = np.linalg.eigvals(drift_generator(params))
    return math.ceil(100.0 * tau * max(1.0, np.abs(lam).max()))


def assert_oracle_is_stepwise_rk4(params, tau, steps):
    got = ode_oracle(params, tau, steps).c
    a, d = drift_generator(params), diffusion_matrix(params)
    expected = rk4_lyapunov(a, d, 0.5 * np.eye(3), tau, steps)
    assert np.abs(got - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("steps", [1, 15, 16, 17, 33])
def test_ode_oracle_blocks_reproduce_stepwise_rk4(steps):
    # 16-step blocks plus single-step remainders: every split of the count
    assert_oracle_is_stepwise_rk4(FIG5, 2.0, steps)


@pytest.mark.parametrize(
    "params", [FIG5, CRITICAL, ModelParams(rho=100.0, delta=DELTA_STAR)]
)
def test_ode_oracle_default_steps_reproduce_stepwise_rk4(params):
    steps = default_oracle_steps(params, 5.0)
    assert np.array_equal(ode_oracle(params, 5.0).c, ode_oracle(params, 5.0, steps).c)
    assert_oracle_is_stepwise_rk4(params, 5.0, steps)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(0.1, 200.0),
    delta=st.floats(-5.0, 5.0),
    rates=st.tuples(*[st.floats(0.0, 2.0)] * 3),
    tau=st.floats(0.0, 5.0, exclude_min=True),
    steps=st.integers(1, 400),
)
def test_ode_oracle_is_stepwise_rk4_everywhere(rho, delta, rates, tau, steps):
    assert_oracle_is_stepwise_rk4(ModelParams(rho, delta, *rates), tau, steps)


# ------------------------------------------------- degenerate spectrum routing


def test_near_degenerate_routed_through_quadrature(monkeypatch):
    # an absolute threshold of 1e-6 flags the roots at CRITICAL
    import tricarl.dynamics as dynamics

    monkeypatch.setattr(dynamics, "degeneracy_threshold", lambda w: np.full(w.shape[:-1], 1e-6))
    with pytest.raises(DegenerateSpectrum):
        spectrum(CRITICAL)
    state = covariance(CRITICAL, 3.0)  # routed to the block exponential
    reference = ode_oracle(CRITICAL, 3.0)
    rel = np.abs(state.c - reference.c).max() / np.abs(state.c).max()
    assert rel < 1e-6
    with pytest.raises(DegenerateSpectrum):
        covariance_closed(CRITICAL, 3.0)
    forced = covariance_van_loan(CRITICAL, 3.0)
    assert np.abs(forced.c - reference.c).max() / np.abs(forced.c).max() < 1e-6


def test_quadrature_method_matches_closed_on_regular_spectrum():
    state_closed = covariance_closed(FIG5, 1.5)
    state_quad = covariance_van_loan(FIG5, 1.5)
    # a regular spectrum takes the closed form, operation for operation
    assert np.array_equal(covariance(FIG5, 1.5).c, state_closed.c)
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
    closed = covariance_closed(params, tau).c
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
