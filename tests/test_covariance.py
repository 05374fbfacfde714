import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import covariance_entrywise, expm_taylor, rk4_lyapunov
from tricarl import (
    CovarianceState,
    DegenerateSpectrum,
    ModelParams,
    NotStable,
    covariance,
    covariance_closed,
    diffusion_matrix,
    drift_generator,
    occupations,
    ode_oracle,
    physicality,
    propagator,
    q_closed_form,
    q_quadrature,
    quadrature_covariance,
    spectrum,
    steady_state,
)
from tricarl.covariance import _van_loan_noise

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
        q = _van_loan_noise(generator, diffusion, tau)
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
        spec = spectrum(params)
        tau = rng.uniform(0.0, 5.0)
        a = covariance_closed(spec, tau).c
        b = covariance_entrywise(spec, tau).c
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
            up = occupations(covariance(params, tau + h))
            down = occupations(covariance(params, tau - h))
            return (up - down) / (2 * h)

        damped = rates(FIG5)
        ideal = rates(lossless)
        expected = math.exp(-2 * 0.5 * tau) * ideal
        assert np.abs(damped - expected).max() <= 1e-4 * np.abs(damped).max()


def test_population_constant_of_motion():
    # n1 = n2 + n3 for balanced losses (and for the ideal case)
    for params in (FIG5, ModelParams(rho=100.0, delta=3.5), IDEAL_SC):
        for tau in np.linspace(0.25, 5.0, 20):
            n = occupations(covariance(params, tau))
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
        m = propagator(spec, tau).m
        expected = 0.5 * m @ m.conj().T
        got = ode_oracle(params, tau).c
        assert np.abs(got - expected).max() < 1e-7 * np.abs(expected).max()


def test_ode_oracle_step_validation():
    with pytest.raises(ValueError):
        ode_oracle(FIG5, 1.0, steps=0)
    with pytest.raises(ValueError):
        ode_oracle(FIG5, -1.0)


# ------------------------------------------------- degenerate spectrum routing


def test_near_degenerate_routed_through_quadrature():
    with pytest.raises(DegenerateSpectrum):
        spectrum(CRITICAL, degeneracy_tol=1e-6)
    state = covariance(CRITICAL, 3.0, degeneracy_tol=1e-6)  # auto fallback
    reference = ode_oracle(CRITICAL, 3.0)
    rel = np.abs(state.c - reference.c).max() / np.abs(state.c).max()
    assert rel < 1e-6
    with pytest.raises(DegenerateSpectrum):
        covariance(CRITICAL, 3.0, method="closed", degeneracy_tol=1e-6)
    forced = covariance(CRITICAL, 3.0, method="quadrature")
    assert np.abs(forced.c - reference.c).max() / np.abs(forced.c).max() < 1e-6


def test_quadrature_method_matches_closed_on_regular_spectrum():
    state_closed = covariance(FIG5, 1.5, method="closed")
    state_quad = covariance(FIG5, 1.5, method="quadrature")
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
    closed = covariance(params, tau, method="closed").c
    exact = covariance(params, tau, method="quadrature").c
    scale = max(1.0, np.abs(closed).max())
    assert np.abs(closed - exact).max() <= 1e-9 * scale
    for c in (closed, exact):
        assert np.array_equal(c, c.conj().T)
        assert physicality(quadrature_covariance(c)) >= -1e-9 * scale


def test_quadrature_propagator_consistency():
    # the expm-based propagator agrees with the independent Taylor oracle
    a = drift_generator(FIG5)
    from scipy.linalg import expm

    for tau in (0.5, 2.0):
        assert np.abs(expm(a * tau) - expm_taylor(a * tau)).max() < 1e-10
