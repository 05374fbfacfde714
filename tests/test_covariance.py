import math
import random
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from oracles import (
    covariance_closed,
    covariance_van_loan,
    mixed_basis_bound,
    mp_covariance,
    mp_lyapunov,
    mp_steady_state,
    newton_propagator,
    physicality_6x6,
    rk4_lyapunov,
)
from tricarl import (
    CovarianceState,
    ModelParams,
    NonFinite,
    NotStable,
    covariance,
    cubic_roots,
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
from tricarl.covariance import (
    _covariance_stack,
    _hermitian_part,
    _newton_form,
    _phi,
    _van_loan_noise,
    expm,
)
from tricarl.dynamics import _eigenvalues
from tricarl.errors import first_failure
from tricarl.model import ParamStack, derive
from tricarl.observables import _vacuum_floor

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
    assert np.abs(q_closed_form(FIG5, 0.0)).max() == 0.0
    assert np.abs(q_quadrature(FIG5, 0.0)).max() == 0.0


def test_q_vanishes_without_losses():
    for tau in (0.5, 2.0, 5.0):
        assert np.abs(q_closed_form(IDEAL_SC, tau)).max() == 0.0


def test_q_closed_matches_quadrature_fig5():
    closed = q_closed_form(FIG5, 2.0)
    quad = q_quadrature(FIG5, 2.0)
    assert np.abs(closed - quad).max() < 1e-8 * max(1.0, np.abs(closed).max())


def test_q_closed_matches_quadrature_random():
    rng = np.random.RandomState(41)
    for _ in range(10):
        params = random_params(rng, rates=2.0)
        tau = rng.uniform(0.2, 3.0)
        closed = q_closed_form(params, tau)
        quad = q_quadrature(params, tau)
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
        q = q_closed_form(params, rng.uniform(0.2, 5.0))
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


@pytest.mark.parametrize("c", [np.eye(2), np.stack([0.5 * np.eye(3)] * 2)])
def test_covariance_state_refuses_a_matrix_that_is_not_3x3(c):
    # the one check of a C, which the one-state functions share, checks the
    # shape first: a 2x2 matrix and a stack of two vacua are refused
    message = f"^a covariance is a 3x3 matrix, got shape {re.escape(str(c.shape))}$"
    with pytest.raises(ValueError, match=message):
        CovarianceState(0.0, c)


def test_covariance_state_keeps_a_finite_entry_near_the_largest_float():
    # the Hermitian part halves before it sums: C_11 + C_11^* would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = CovarianceState(0.0, np.diag([1.5e308, 0.5, 0.5]))
    assert state.c[0, 0] == 1.5e308 and state.c[0, 0].imag == 0.0
    assert np.array_equal(state.c, np.diag([1.5e308, 0.5, 0.5]))


def test_closed_form_matches_high_precision_fig5():
    # within 1e-6 of 40 digits (measured 6.1e-16 at tau=2, 3.5e-16 at tau=10)
    for tau in (2.0, 10.0):
        state = covariance(FIG5, tau)
        reference = mp_covariance(FIG5, tau, 40)
        assert np.abs(state.c - reference).max() / np.abs(state.c).max() < 1e-6


@pytest.mark.parametrize(
    "params, tau",
    [
        (IDEAL_SC, 2.0),  # lossless amplifier
        (ModelParams(rho=0.2, delta=5.0), 10.0),  # lossless quantum regime
        (ModelParams(rho=5.0, delta=-2.0, gamma1=0.3, gamma2=0.8, kappa=1.1), 3.0),
        (ModelParams(rho=2.0, delta=-4.0, gamma1=0.1, gamma2=0.1, kappa=1.0), 20.0),  # stable
    ],
)
def test_closed_form_matches_high_precision_across_regimes(params, tau):
    # measured 5.3e-16, 1.2e-13, 3.8e-16 and 1.6e-15 of max(1, max|C|)
    reference = mp_covariance(params, tau, 40)
    got = covariance(params, tau).c
    assert np.abs(got - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())


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
        horizon = 40.0 / abs(float(np.max(spectrum(params).real)))
        state = covariance(params, horizon)
        assert np.abs(state.c - limit.c).max() < 1e-4 * max(1.0, np.abs(limit.c).max())


def test_steady_state_unstable_raises():
    with pytest.raises(NotStable):
        steady_state(IDEAL_SC)


LOSSY_AMPLIFIER = ModelParams(100.0, 0.0, 0.5, 0.5, 0.5)


@pytest.mark.parametrize(
    "function, params, tau, what",
    [
        (covariance, IDEAL_SC, 408.0, "covariance"),
        (covariance, LOSSY_AMPLIFIER, 3000.0, "covariance"),
        (q_closed_form, LOSSY_AMPLIFIER, 3000.0, "noise matrix"),
        (q_quadrature, LOSSY_AMPLIFIER, 3000.0, "noise matrix"),
        (ode_oracle, IDEAL_SC, 410.0, "covariance"),
        (ode_oracle, LOSSY_AMPLIFIER, 3000.0, "noise matrix"),
    ],
)
def test_covariance_overflow_raises_non_finite_not_numpy_warnings(function, params, tau, what):
    # past tau ~ 406 the lossless amplifier's C overflows, and the lossy
    # one's Q later: the closed form and Van Loan's block exponential report
    # it by their guards, never by a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=f"^{what} failed the non_finite guard$"):
            function(params, tau)


def test_lossless_noise_matrix_is_exactly_zero_where_phi_overflows():
    # at tau = 410 the lossless amplifier's M is finite (about 1e155) but
    # Phi and M M^dag overflow: Q = Phi D is still exactly 0, with D = 0
    assert np.isfinite(newton_propagator(IDEAL_SC, 410.0)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = q_closed_form(IDEAL_SC, 410.0)
    assert q.shape == (3, 3) and (q == 0).all()


@pytest.mark.parametrize("tau", [0.0, 5.0, 410.0, math.inf])
def test_newton_form_of_a_lossless_stack_has_an_exactly_zero_q(tau):
    # no row has diffusion, so Q is 0 without Phi; M is that of the full path
    # of a stack with a lossy row, whose lossless rows' Q is Phi times D = 0
    rho, delta = np.array([[0.3], [100.0]]), np.array([-3.0, 0.0, 1.8899212590353163, 8.0])
    lossless = ParamStack(rho, delta, 0.0, 0.0, 0.0)
    mixed = ParamStack(rho, delta, 0.0, 0.0, np.array([[0.0], [0.5]]))
    with np.errstate(all="ignore"):
        q, m = _newton_form(lossless, spectrum_of(lossless), tau)
        _, m_mixed = _newton_form(mixed, spectrum_of(mixed), tau)
    assert q.shape == m.shape == (3, 3, 2, 4) and (q == 0).all()
    assert m[..., 0, :].tobytes() == m_mixed[..., 0, :].tobytes()


def spectrum_of(stack):
    return _eigenvalues(stack, derive(stack), cubic_roots(stack))


@st.composite
def covariance_stacks(draw):
    """A (curves, 1) parameter stack, lossless, lossy or mixed, whose
    detunings include the delta* ladder, and a tau axis that includes 0,
    times past C's overflow and inf (a steady state on stable rows)."""
    kind = draw(st.sampled_from(("lossless", "lossy", "mixed")))
    ladder = st.sampled_from(EDGE_OFFSETS).map(lambda offset: DELTA_STAR + offset)
    rows = []
    for k in range(draw(st.integers(2 if kind == "mixed" else 1, 4))):
        lossy = kind == "lossy" or (kind == "mixed" and k % 2 == 1)
        rates = [draw(st.floats(0.01, 2.0)) if lossy else 0.0 for _ in range(3)]
        rows.append((draw(st.floats(0.05, 200.0)), draw(st.floats(-8.0, 8.0) | ladder), *rates))
    params = ParamStack(*(np.array(column)[:, np.newaxis] for column in zip(*rows)))
    times = st.just(0.0) | st.floats(0.0, 10.0) | st.floats(10.0, 5000.0) | st.just(math.inf)
    return params, np.array(draw(st.lists(times, min_size=1, max_size=6)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(covariance_stacks())
def test_the_pass_takes_an_exactly_hermitian_c(stack):
    # the separability kernel takes the pass's C, the Hermitian part of the
    # stack kernel's, as Hermitian and measures no defect
    params, tau = stack
    with np.errstate(all="ignore"):
        c, _ = _hermitian_part(_covariance_stack(params, spectrum_of(params), tau)[0])
        code, below_floor = _vacuum_floor(c)
        diag = c.diagonal(axis1=-2, axis2=-1)
        moment = c[..., 0, 0] + c[..., 1, 1] + c[..., 0, 1] + c[..., 1, 0]
        parts = diag.imag, (2.0 * (diag * diag)).imag, moment.imag
    finite = c[np.isfinite(c).all(axis=(-2, -1))]
    assert np.array_equal(finite, finite.conj().swapaxes(-1, -2))
    # so the observables need no residue guard: the imaginary parts of C_ii,
    # G_iiii = 2 C_ii^2 and the bunching moment are exactly 0, or NaN where
    # C overflowed, and their one guard, the vacuum floor, passes every state
    # evolved from vacuum
    assert code == "negative_occupation" and not below_floor.any()
    assert all(((part == 0) | np.isnan(part)).all() for part in parts)


def test_steady_state_overflow_raises_non_finite_not_numpy_warnings():
    # a cavity loss of 1e250 against detuning 1e100 overflows the closed
    # form's products at tau = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^covariance failed the non_finite guard$"):
            steady_state(ModelParams(1e-5, 1e100, 1e-200, 1e-200, 1e250))


def test_steady_state_of_degenerate_stable_spectrum():
    # two roots nearly merge at delta*, and equal losses keep every mode
    # decaying: the closed form at tau=inf is the steady state and the long-
    # time limit; an unstable spectrum has no steady state, and the
    # covariance at tau=inf raises NotStable as steady_state does
    params = ModelParams(100.0, 1.8899212590353163, 0.5, 0.5, 0.5)
    limit = steady_state(params).c
    reference = mp_steady_state(params, 40)
    assert np.abs(limit - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
    state = covariance(params, 60.0).c
    assert np.abs(state - limit).max() < 1e-9 * max(1.0, np.abs(limit).max())
    with np.errstate(all="ignore"):
        assert np.array_equal(covariance(params, math.inf).c, limit)
        with pytest.raises(NotStable):
            covariance(ModelParams(100.0, 1.8899212590353163), math.inf)
    # M is exactly 0 at tau=inf, so C is Q: the noise matrix's closed form
    # reads the steady state bit for bit, at delta* and away from it
    stable = (params, FIG5, ModelParams(0.2, 5.0, 0.2, 0.4, 1.0), ModelParams(1.0, 1.0, 0.01, 0.01, 50.0))
    for point in stable:
        assert np.array_equal(q_closed_form(point, math.inf), steady_state(point).c)


# ----------------------------------------------------------------- ode oracle


def test_ode_oracle_vacuum_and_homogeneous():
    assert np.abs(ode_oracle(FIG5, 0.0).c - 0.5 * np.eye(3)).max() == 0.0
    # without diffusion the solution is the propagated vacuum M M^dag / 2
    params = IDEAL_SC
    for tau in (0.7, 2.0):
        m = newton_propagator(params, tau)
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


def test_ode_oracle_without_a_float_step_raises_non_finite():
    # |A|_1 tau >= 2**1022: no float step tau / 2**k, so Q and M are NaN
    params = ModelParams(100.0, 5.0)
    generator = drift_generator(params)
    assert np.abs(generator).sum(axis=0).max() * 1e307 >= 2.0**1022
    q, m = _van_loan_noise(generator, diffusion_matrix(params), 1e307)
    assert np.isnan(q).all() and np.isnan(m).all()
    with pytest.raises(NonFinite, match="^noise matrix failed the non_finite guard$"):
        ode_oracle(params, 1e307)


@pytest.mark.parametrize("tau", [0.7, 5.0, 1e100])
def test_van_loan_without_diffusion_squares_m_alone(tau):
    # D = 0 keeps Q at 0 while M is finite; where the doublings overflow M
    # (at rho = 0.2, delta = -3 by tau = 1e100) Q's last update is NaN, so
    # the oracle fails on the noise matrix as the full recursion does
    params = ModelParams(0.2, -3.0)
    generator = drift_generator(params)
    with np.errstate(all="ignore"):
        q, m = _van_loan_noise(generator, diffusion_matrix(params), tau)
        q_full, m_full = _van_loan_noise(generator, np.full((3, 3), 1e-300), tau)
    assert m.tobytes() == m_full.tobytes()
    if np.isfinite(m).all():
        assert (q == 0).all()
        assert np.abs(ode_oracle(params, tau).c - covariance(params, tau).c).max() < 1e-9
    else:
        assert np.isnan(q).any() and not np.isfinite(q_full).all()
        with pytest.raises(NonFinite, match="^noise matrix failed the non_finite guard$"):
            ode_oracle(params, tau)


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
    # covariance is the one-row case of the pass's C, the stack kernel's
    # Hermitian part, operation for operation
    c, guards = _covariance_stack(ParamStack(**FIG5.to_dict()), spectrum(FIG5), 1.5)
    c, c_guards = _hermitian_part(c)
    assert first_failure(*guards, *c_guards) == "ok"
    assert np.array_equal(covariance(FIG5, 1.5).c, c)
    for other in (state_closed.c, state_quad.c):
        assert np.abs(c - other).max() < 1e-11 * np.abs(c).max()


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
    # the propagator of the block exponential's doublings agrees with scipy's
    # expm of A tau
    a, d = drift_generator(FIG5), diffusion_matrix(FIG5)
    for tau in (0.5, 2.0):
        assert np.abs(_van_loan_noise(a, d, tau)[1] - scipy_expm(a * tau)).max() < 1e-10


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.4, 3.0, 40.0, 900.0])
def test_expm_matches_scipy(norm):
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
            reference = scipy_expm(a * tau)
            assert np.abs(m - reference).max() <= 1e-11 * np.abs(reference).max()
            assert np.abs(q).max() == 0.0  # no losses, no noise
