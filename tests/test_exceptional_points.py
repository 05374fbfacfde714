"""The closed form through the exceptional points, where two roots of the
characteristic cubic merge (the edges of the gain curve).

Every covariance comes from the Newton form of ``tricarl.covariance``; the
references are 40-digit mpmath forms of Van Loan's block exponential
(``mp_covariance``) and of the stationary 9x9 system (``mp_steady_state``).
Errors are relative to max(1, max|C|).
"""

import mpmath
import numpy as np
import pytest

from oracles import mp_covariance, mp_steady_state
from tricarl import (
    ModelParams,
    SweepSpec,
    covariance,
    derive,
    diffusion_matrix,
    drift_generator,
    run_sweep,
    spectrum,
    steady_state,
)
from tricarl.covariance import _newton_form, _pair_noise
from tricarl.dynamics import Spectrum, _newton_nodes

# detunings where the equal-loss cubic has a double root (the loss shifts
# every eigenvalue alike, so these are the lossless ones)
MERGE_DETUNINGS = {
    0.3: 2.5348503092738137,
    50.0: 1.8900403016167857,
    100.0: 1.8899212590353165,
    200.0: 1.8898914960468018,
}
LADDER = (0.0, 1e-13, -1e-13, 1e-8, -1e-8, 1e-4, -1e-4, 1e-1, -1e-1)


def scaled_error(got, reference):
    return np.abs(got - reference).max() / max(1.0, np.abs(reference).max())


def nodes_of(params):
    """(nu0, nu1, nu2): the isolated eigenvalue, then the closest pair."""
    return _newton_nodes(spectrum(params).lambdas)


@pytest.mark.parametrize("rho", [0.3, 100.0])
@pytest.mark.parametrize("loss", [0.0, 1e-4, 0.5])
def test_closed_form_on_the_merge_detuning_ladders(rho, loss):
    # the eigenvector form lost up to 2.7e-8 here, and its Hermitian guard
    # failed lossy rows near the merge; the Newton form reads at most 3.2e-14.
    # At loss 1e-4, |2 Re nu1| tau = 1e-3: the split alone read 2.6e-11
    for offset in LADDER:
        params = ModelParams(rho, MERGE_DETUNINGS[rho] + offset, loss, loss, loss)
        error = scaled_error(covariance(params, 5.0).c, mp_covariance(params, 5.0, 40))
        assert error <= 1e-13, offset


@pytest.mark.parametrize("rho", sorted(MERGE_DETUNINGS))
@pytest.mark.parametrize("loss", [0.01, 0.5])
def test_equal_loss_windows_read_ok(rho, loss):
    star = MERGE_DETUNINGS[rho]
    spec = SweepSpec(
        axis="delta",
        start=star - 1e-7,
        stop=star + 1e-7,
        points=21,
        fixed=ModelParams(rho, 0.0, loss, loss, loss),
        outputs=("n1", "xi12", "mineig_s12"),
        tau=5.0,
    )
    table = run_sweep(spec)
    assert table["status"] == ["ok"] * 21
    assert None not in table["n1"] + table["xi12"] + table["mineig_s12"]


def mp_phi_derivative(x, tau, order):
    """d^order/dx^order of phi(x) = integral_0^tau exp(x s) ds, at 40 digits."""
    with mpmath.workdps(40):
        value = mpmath.quad(lambda s: s**order * mpmath.exp(mpmath.mpc(x) * s), [0, tau])
        return complex(value)


@pytest.mark.parametrize("nodes, tau", [((2.0j, -0.4 + 0.3j), 5.0), ((1.5j, 0.01j), 2.0)])
def test_pair_differences_at_equal_nodes_are_the_derivatives(nodes, tau):
    # eps = 0 exactly: r0 = phi'(x0), r1 = phi'(x1) and r2 = phi''(x1), by the
    # split where |x| tau >= 1 (first case) and by quadrature where it is not
    nu0, nu1 = nodes
    nu = np.array([[nu0], [nu1], [nu1]])
    e = np.exp(nu[:2] * tau)
    x0, x1 = nu1 + np.conj(nu0), 2.0 * nu1.real
    phi = np.array([[mp_phi_derivative(x, tau, 0)] for x in (x0, x1)])
    pair = e[1] * tau
    with np.errstate(all="ignore"):  # the split's 0/0 where quadrature takes over
        r, r2 = _pair_noise(nu, e, phi, pair, np.array([tau]))
    for got, x, order in ((r[0], x0, 1), (r[1], x1, 1), (r2, x1, 2)):
        expected = mp_phi_derivative(x, tau, order)
        assert abs(got[0] - expected) <= 1e-14 * abs(expected), order


@pytest.mark.parametrize("loss", [0.0, 0.01, 0.5])
def test_newton_form_at_an_exact_double_root(loss):
    # the pair forced to one node mu: M and Q are the confluent (Hermite)
    # Newton form, E1 = e[nu0, mu] and E2 = (tau exp(mu tau) - E1)/(mu - nu0),
    # with Phi_kl = integral_0^tau E_k E_l* ds by 30-digit quadrature.  The
    # pair's differences take quadrature at loss 0.01 (|2 Re mu| tau = 0.1)
    # and the split at 0.5; without losses Q is exactly 0
    tau = 5.0
    params = ModelParams(100.0, MERGE_DETUNINGS[100.0], loss, loss, loss)
    spec = spectrum(params)
    nu0, nu1, nu2 = _newton_nodes(spec.lambdas)
    mu = 0.5 * (nu1 + nu2)
    lambdas = np.array([nu0, mu, mu])
    omegas = (lambdas + derive(params).gamma_plus) / 1j + params.delta
    q, m = _newton_form(Spectrum(params, spec.derived, omegas, lambdas), tau)
    a = drift_generator(params)
    basis = [np.eye(3), a - nu0 * np.eye(3), (a - nu0 * np.eye(3)) @ (a - mu * np.eye(3))]
    with mpmath.workdps(30):
        n0, nm, gap = mpmath.mpc(nu0), mpmath.mpc(mu), mpmath.mpc(mu - nu0)

        def weights(s):
            first = (mpmath.exp(nm * s) - mpmath.exp(n0 * s)) / gap
            return [mpmath.exp(n0 * s), first, (s * mpmath.exp(nm * s) - first) / gap]

        def entry(k, l):
            integrand = lambda s: weights(s)[k] * mpmath.conj(weights(s)[l])  # noqa: E731
            return complex(mpmath.quad(integrand, [0, tau]))

        e = [complex(w) for w in weights(tau)]
        phi = np.array([[entry(k, l) for l in range(3)] for k in range(3)])
    d = diffusion_matrix(params)
    expected_q = sum(
        phi[k, l] * basis[k] @ d @ basis[l].conj().T for k in range(3) for l in range(3)
    )
    expected_m = sum(e[k] * basis[k] for k in range(3))
    assert scaled_error(m, expected_m) <= 1e-13
    assert scaled_error(q, expected_q) <= 1e-13


def switch_point(quantity, lo, hi, threshold):
    """The argument in [lo, hi] where ``quantity`` crosses ``threshold``,
    by bisection to the last bit."""
    below = quantity(lo) < threshold
    assert below != (quantity(hi) < threshold)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if (quantity(mid) < threshold) == below:
            lo = mid
        else:
            hi = mid


def assert_continuous(params_at, lo, hi, tau_at):
    """The covariances on both sides of a switch: each within 1e-13 of 40
    digits, and within 1e-13 of each other."""
    sides = [covariance(params_at(x), tau_at(x)).c for x in (lo, hi)]
    for x, side in zip((lo, hi), sides):
        assert scaled_error(side, mp_covariance(params_at(x), tau_at(x), 40)) <= 1e-13
    assert scaled_error(sides[0], sides[1]) <= 1e-13


def test_continuity_across_the_eps_tau_switch():
    # |eps| = 0.18 < 0.1 max|nu|: refined below tau = 2/|eps| = 10.9, plain above
    params = ModelParams(100.0, MERGE_DETUNINGS[100.0] - 0.01, 0.5, 0.5, 0.5)
    nu = nodes_of(params)
    assert abs(nu[2] - nu[1]) <= 0.1 * np.abs(nu).max()
    lo, hi = switch_point(lambda tau: abs(nu[2] - nu[1]) * tau, 5.0, 20.0, 2.0)
    assert_continuous(lambda tau: params, lo, hi, lambda tau: tau)


def test_continuity_across_the_closeness_switch():
    # at tau = 5, |eps| tau < 2 on both sides: refined where |eps| <= 0.1 max|nu|
    def ratio(offset):
        nu = nodes_of(ModelParams(100.0, MERGE_DETUNINGS[100.0] + offset, 0.5, 0.5, 0.5))
        return abs(nu[2] - nu[1]) / np.abs(nu).max()

    lo, hi = switch_point(ratio, -0.03, -0.01, 0.1)

    def params_at(offset):
        return ModelParams(100.0, MERGE_DETUNINGS[100.0] + offset, 0.5, 0.5, 0.5)

    assert_continuous(params_at, lo, hi, lambda offset: 5.0)


@pytest.mark.parametrize("which", ["x0", "x1"])
def test_continuity_across_the_quadrature_switch(which):
    # inside the refinement the split gives way to quadrature below
    # |x + eps| tau = 1: x0 = nu1 + nu0* near tau = 0.46, x1 = 2 Re nu1 near 1.06
    params = ModelParams(100.0, MERGE_DETUNINGS[100.0] + 1e-3, 0.5, 0.5, 0.5)
    nu0, nu1, nu2 = nodes_of(params)
    eps = nu2 - nu1
    if which == "x0":
        size = abs(nu1 + np.conj(nu0) + eps)
    else:
        x1 = 2.0 * nu1.real
        size = min(abs(x1 + eps), abs(x1 + 2.0 * eps.real))
    lo, hi = switch_point(lambda tau: size * tau, 0.1, 2.0, 1.0)
    assert abs(eps) * hi < 2.0
    assert_continuous(lambda tau: params, lo, hi, lambda tau: tau)


@pytest.mark.parametrize("rho", [0.3, 100.0])
@pytest.mark.parametrize("offset", [0.0, 1e-8, -1e-8, 1e-4, -1e-4])
def test_near_degenerate_stable_rows_at_infinite_tau(rho, offset):
    # equal losses 0.5 keep every mode decaying at the merge: the closed form
    # at tau = inf is the steady state (at most 3.1e-15 measured)
    params = ModelParams(rho, MERGE_DETUNINGS[rho] + offset, 0.5, 0.5, 0.5)
    assert scaled_error(steady_state(params).c, mp_steady_state(params, 40)) <= 1e-12


@pytest.mark.parametrize(
    "fields, tau",
    [
        ((1.0, 1.0, 0.01, 0.01, 25.0), 20.0),
        ((5.0, -2.0, 0.1, 0.3, 30.0), 15.0),
        ((50.0, 2.0, 0.5, 0.2, 35.0), 12.0),
        ((100.0, 0.0, 0.05, 0.05, 40.0), 20.0),
        ((0.5, 3.0, 1.0, 0.5, 45.0), 18.0),
    ],
)
def test_bad_cavity_long_times(fields, tau):
    # kappa = 25-45: the N1 and N2 terms reach about kappa and cancel down to
    # an O(1) M, so the isolated node leads (at most 1.2e-14 measured)
    params = ModelParams(*fields)
    assert scaled_error(covariance(params, tau).c, mp_covariance(params, tau, 40)) <= 2e-13
