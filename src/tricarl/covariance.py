"""Second moments of the three-mode state evolved from vacuum.

In the mixed basis u = (a1*, a2, a3) the (Weyl-symmetric) covariance
C_ij = <(u_i - <u_i>)(u_j - <u_j>)*> of the state evolved from vacuum is

    C(tau) = Q(tau) + (1/2) M(tau) M(tau)^dag,
    Q(tau) = integral_0^tau M(s) D M(s)^dag ds,

with D = diag(gamma1, gamma2, kappa).  In the Newton form of ``dynamics``,
M(s) = sum_k E_k(s) N_k, so

    Q(tau) = sum_kl Phi_kl N_k D N_l^dag,
    Phi_kl = integral_0^tau E_k(s) E_l(s)* ds,

and Phi_kl is the divided difference over (nu0 .. nu_k) in x and
(nu0* .. nu_l*) in y of phi(x + y) = integral_0^tau exp((x + y) s) ds,
built from the nine phi(nu_i + nu_j*).  This one closed form covers every
row, the exceptional points where two roots merge and tau = inf (the
steady state) included: ``_covariance_stack`` evaluates it over a stack,
and ``covariance`` and ``steady_state`` are its one-row cases.  The
kernels take the generator's eigenvalues and return C with its guards.
``ode_oracle`` takes the covariance from Van Loan's block exponential
(C. F. Van Loan, IEEE TAC 23, 395 (1978)) instead, a check that shares
none of the closed form's algebra.

Everything here is numpy: ``expm`` is a scaled and squared Taylor sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _eigenvalues, _newton_nodes, cubic_roots, drift_generator, spectrum
from .errors import InvalidSpec, _check, raise_failure
from .model import ModelParams, derive

_EYE = np.eye(3)
# the entries of Phi's last row and column
_PAIR_ROWS, _PAIR_COLUMNS = np.array([[2], [0], [2], [1], [2]]), np.array([[0], [2], [1], [2], [2]])
# Hermitian defect, relative to max(1, max|entry|), that Q and C may carry
HERMITIZE_TOL = 1e-10
# 16-point Gauss-Legendre nodes and weights on [0, 1] (Golub-Welsch), for the
# close pair's noise differences where their split form cancels
_JACOBI = np.arange(1.0, 16.0) / np.sqrt(4.0 * np.arange(1.0, 16.0) ** 2 - 1.0)
_GAUSS_NODES, _GAUSS_VECTORS = np.linalg.eigh(np.diag(_JACOBI, 1), UPLO="U")
_GAUSS_NODES, _GAUSS_WEIGHTS = 0.5 * (1.0 + _GAUSS_NODES), _GAUSS_VECTORS[0] ** 2
# _TAYLOR_BLOCKS[j, i] = 1/(4j + i)!, the Taylor coefficients up to degree 16
# in Paterson-Stockmeyer blocks of four
_TAYLOR_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(17)] + [0.0] * 3).reshape(5, 4)


def _dagger(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().swapaxes(-1, -2)


def _indices_first(array: np.ndarray, indices: int, ndim: int) -> np.ndarray:
    """An array of shape (*stack, *index), with ``indices`` index axes, as
    (*index, *stack) with the stack padded on the left to ``ndim`` axes."""
    array = array.reshape((1,) * (ndim + indices - array.ndim) + array.shape)
    return array.transpose(*range(ndim, ndim + indices), *range(ndim))


def _rates(params) -> np.ndarray:
    """Diffusion weights (gamma1, gamma2, kappa) on the leading axis."""
    rates = np.empty((3,) + np.broadcast(params.gamma1, params.gamma2, params.kappa).shape)
    rates[0], rates[1], rates[2] = params.gamma1, params.gamma2, params.kappa
    return rates


def diffusion_matrix(params: ModelParams) -> np.ndarray:
    """Diffusion matrix D = diag(gamma1, gamma2, kappa)."""
    return np.diag(_rates(params)).astype(complex)


def _hermitian_defect(matrix: np.ndarray, m_dag: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """max|M - M^dag| relative to max(1, max|M|) over the matrix ``axes``
    of a stack, given M^dag; NaN for non-finite M.

    A non-finite entry makes both maxima inf or NaN (M - M^dag is non-finite
    where M is, since max and maximum pass NaN on), and their ratio NaN.
    Its callers run it under np.errstate."""
    scale = np.maximum(1.0, np.abs(matrix).max(axis=axes))
    return np.abs(matrix - m_dag).max(axis=axes) / scale


def _hermitian_guards(defect) -> tuple:
    """Ordered guards (see ``first_failure``) of matrices with a Hermitian
    defect from ``_hermitian_defect`` (or the largest of several): non-finite
    entries (a NaN defect), then a defect above ``HERMITIZE_TOL``."""
    return ("non_finite", np.isnan(defect)), ("not_hermitian", defect > HERMITIZE_TOL)


def _hermitian_part(matrix: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(M + M^dag)/2 of each matrix in a (..., n, n) stack, halved first so
    that no finite entry overflows, and the guards of M's Hermitian defect
    at ``HERMITIZE_TOL``: the one check of a covariance, which the sweep's
    pass and ``CovarianceState`` share.  Its callers run it under
    np.errstate."""
    matrix = np.asarray(matrix, dtype=complex)
    m_dag = _dagger(matrix)
    defect = _hermitian_defect(matrix, m_dag)
    return 0.5 * matrix + 0.5 * m_dag, _hermitian_guards(defect)


def _hermitize(matrix: np.ndarray, what: str) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian, guards = _hermitian_part(matrix)
    raise_failure(guards, what)
    return hermitian


@dataclass(frozen=True)
class CovarianceState:
    """Hermitian 3x3 covariance of (a1*, a2, a3) at scaled time tau: the
    Hermitian part of the given C, past C's check (``_checked_covariance``)."""

    tau: float
    c: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _checked_covariance(self.c, "covariance"))


def _checked_covariance(cov: CovarianceState | np.ndarray, what: str) -> np.ndarray:
    """The Hermitian part of a C that passes the one check of a covariance,
    which ``CovarianceState`` makes and the one-state functions share:
    InvalidSpec unless C is one 3x3 matrix, then C's guards
    (``_hermitian_part``), raised under the label ``what``.  A
    ``CovarianceState`` passed it when it was made: its C is not checked
    again."""
    if isinstance(cov, CovarianceState):
        return cov.c
    c = np.asarray(cov, dtype=complex)
    if c.shape != (3, 3):
        raise InvalidSpec(f"a covariance is a 3x3 matrix, got shape {c.shape}")
    return _hermitize(c, what)


def _phi(z, tau, exp=None):
    """integral_0^tau exp(z s) ds = (exp(z tau) - 1)/z, given exp(z tau)
    where it is known.  Where |z tau| < 1, expm1 keeps the digits that
    exp - 1 cancels; elsewhere (tau = inf included, where expm1 gives NaN)
    exp - 1 is as accurate and cheaper.  Where |z tau| < 1e-300 (z = 0, or
    a product that is subnormal and has lost digits) it is tau, the series
    tau (1 + z tau/2 + ...) to the last bit."""
    z = np.asarray(z, dtype=complex)
    zt = z * tau
    size = np.abs(zt)
    growth = np.asarray((np.exp(zt) if exp is None else exp) - 1.0)
    np.expm1(zt, out=growth, where=size < 1.0)
    tiny = size < 1e-300
    value = np.divide(growth, z, out=growth, where=~tiny)
    np.copyto(value, tau, where=tiny)
    return value[()]


def _pair_noise(nu, e, phi, pair, tau):
    """The pair's differences of phi for nearly equal nu1, nu2 = nu1 + eps,
    r = (phi[x0, x0 + eps], phi[x1, x1 + eps]) for x0 = nu1 + nu0* and
    x1 = nu1 + nu1*, and r2 = (phi(x1 + 2 Re eps) - phi(x1 + eps)
    - phi(x1 + eps*) + phi(x1)) / |eps|^2, on 1-D stacks of the nodes nu,
    of e = exp((nu0, nu1) tau), phi = phi((x0, x1)) and pair = e[nu1, nu2].

    Exactly, phi[x, x + h] = (exp(x tau) expm1(h tau)/h - phi(x))/(x + h)
    and r2 = (exp(x1 tau) |expm1(eps tau)/eps|^2 - 2 Re r1)/(x1 + 2 Re eps),
    with exponential parts pair * conj(e) (0 at tau = inf, which leaves the
    exact differences of -1/x).  Where a denominator is below 1/tau this
    split cancels, and 16-point Gauss-Legendre in s of integral_0^tau
    exp(x s) (expm1(eps s)/eps)^(1 or 2) ds, whose exponents are then all
    below about 5/tau, takes over; where no row's split cancels, the
    quadrature is not formed.
    """
    nu0, nu1, nu2 = nu
    eps = nu2 - nu1
    x = np.array([nu1 + nu0.conj(), 2.0 * nu1.real])
    r = (e.conj() * pair - phi) / (x + eps)
    r2 = ((pair * pair.conj()).real - 2.0 * r[1].real) / (x[1] + 2.0 * eps.real)
    near = np.abs(x + eps) * tau < 1.0
    near2 = near[1] | (np.abs(x[1] + 2.0 * eps.real) * tau < 1.0)
    if not (near.any() or near2.any()):
        return r, r2
    s = tau[:, np.newaxis] * _GAUSS_NODES
    # expm1(eps s)/eps; a step of 1e-200 gives its limit s at eps = 0 to the last bit
    step = (eps + 1e-200 * (eps == 0))[:, np.newaxis]
    growth = np.expm1(step * s) / step
    weights = tau[:, np.newaxis] * _GAUSS_WEIGHTS * growth * np.exp(x[..., np.newaxis] * s)
    r = np.where(near, weights.sum(axis=-1), r)
    return r, np.where(near2, (weights[1] * growth.conj()).sum(axis=-1), r2)


def _newton_form(params, lambdas: np.ndarray, tau) -> tuple[np.ndarray, np.ndarray]:
    """Q(tau) and M(tau) from the Newton form, for a stack of parameter
    sets with their eigenvalues (..., 3) and/or times, with the matrix
    indices leading (axes (row, column, *stack)) so that each step is one
    elementwise pass over the stack.  The nodes and the generator are
    copied into that order, C-contiguous, first: N1, N2, M, Phi and Q then
    inherit one layout with the stack innermost, not the transposed
    strides of the (*stack, index) inputs.

    The differences of exp and phi divide by nu1 - nu0 and nu2 - nu0, which
    the node order keeps away from 0, and by the pair's eps = nu2 - nu1.
    e[nu1, nu2] = exp(nu1 tau) expm1(eps tau)/eps never cancels.  On rows
    with losses the pair's differences of phi are refined (``_pair_noise``)
    where the plain ones would lose digits, |eps| <= 0.1 max|nu| and
    |eps| tau < 2 (or tau = inf); elsewhere they lose at most a few ulps.
    The plain ones divide by eps + 1e-200 where eps = 0, like e[nu1, nu2],
    so that a lossless row's Q stays exactly 0.  A stack with no diffusion
    on any row (the ideal dynamics) returns Q = 0 with M at once, and
    builds no phi, Phi, refinement or contraction; a mixed stack takes the
    full path, its lossless rows' Phi times D = 0.  Overflow reads inf or
    NaN; the callers run it under np.errstate.
    """
    t = np.asarray(tau, dtype=float)
    ndim = max(lambdas.ndim - 1, t.ndim)
    nu = np.ascontiguousarray(_indices_first(_newton_nodes(lambdas), 1, ndim))
    generator = np.ascontiguousarray(_indices_first(drift_generator(params), 2, ndim))
    eye = _EYE.reshape((3, 3) + (1,) * ndim)
    n1 = generator - nu[0] * eye
    n2 = (n1[:, :, np.newaxis] * (generator - nu[1] * eye)).sum(axis=1)
    rates = _rates(params)
    rates = rates.reshape((3,) + (1,) * (ndim + 1 - rates.ndim) + rates.shape[1:])
    nu0, nu1, nu2 = nu
    first, eps, span = nu1 - nu0, nu2 - nu1, nu2 - nu0
    e = np.exp(nu * t)
    e0, e1, e2 = e
    size = np.abs(eps)
    near = size * t
    # e[nu1, nu2]: expm1(eps tau)/eps, whose limit tau at eps = 0 a step
    # of 1e-200 gives to the last bit, or exp - 1 where |eps tau| >= 1
    step = eps + 1e-200 * (eps == 0)
    pair = np.where(near < 1.0, e1 * np.expm1(step * t), e2 - e1) / step
    slope = (e1 - e0) / first
    m = e0 * eye + slope * n1 + (pair - slope) / span * n2
    if not rates.any():  # no diffusion: Q = 0 exactly, and Phi is not needed
        return np.zeros_like(m), m
    # exp((nu_i + nu_j*) tau) as products of the exp(nu tau)
    values = _phi(nu[:, np.newaxis] + nu.conj(), t, e[:, np.newaxis] * e.conj())
    # Phi = L values L^dag, L the Newton differences on the nodes
    newton = np.zeros((3, 3) + first.shape, dtype=complex)
    newton[0, 0], newton[1, 1], newton[2, 2] = 1.0, 1.0 / first, 1.0 / (step * span)
    newton[1, 0], newton[2, 0] = -newton[1, 1], newton[1, 1] / span
    newton[2, 1] = -newton[2, 0] - newton[2, 2]
    rows = (newton[:, :, np.newaxis] * values).sum(axis=1)
    phi = (rows[:, np.newaxis] * newton.conj()).sum(axis=2)
    # Phi enters Q only through D: rows without losses need no refinement
    close = (size <= 0.1 * np.abs(nu).max(axis=0)) & ((near < 2.0) | np.isinf(t))
    refine = rates.any(axis=0) & close
    if refine.any():
        # the pair's differences, refined, give Phi's last row and column
        nodes = np.broadcast_to(nu, (3,) + refine.shape)[:, refine]
        inputs = e[:2, refine], values[1][:2, refine], pair[refine]
        r, r2 = _pair_noise(nodes, *inputs, np.broadcast_to(t, refine.shape)[refine])
        width = nodes[2] - nodes[0]
        mixed = (r[1] - r[0]) / (nodes[1] - nodes[0]).conj()
        across, level = phi[1, 0][refine], phi[1, 1][refine].real
        row = (r[0] - across) / width, (mixed - level) / width
        corner = (r2 - 2.0 * mixed.real + level) / (width * width.conj()).real
        entries = [row[0], row[0].conj(), row[1], row[1].conj(), corner]
        phi[_PAIR_ROWS, _PAIR_COLUMNS, refine] = np.stack(entries)
    # z_l = sum_k Phi_kl N_k and Q = sum_l z_l D N_l^dag, with N_0 = I
    basis = np.stack([n1, n2])
    z = phi[0, :, np.newaxis, np.newaxis] * eye
    z += (phi[1:, :, np.newaxis, np.newaxis] * basis[:, np.newaxis]).sum(axis=0)
    noise = rates * basis.conj()
    q = z[0] * rates + (z[1:, :, np.newaxis] * noise[:, np.newaxis]).sum(axis=(0, 3))
    return q, m


def q_closed_form(params: ModelParams, tau: float) -> np.ndarray:
    """Hermitized noise matrix from the Newton closed form (``_newton_form``)."""
    with np.errstate(all="ignore"):
        q = _newton_form(params, spectrum(params), tau)[0]
    return _hermitize(q.transpose(*range(2, q.ndim), 0, 1), "noise matrix")


def _covariance_stack(params, lambdas: np.ndarray, tau) -> tuple[np.ndarray, list]:
    """Covariances C = Q + M M^dag / 2 for a stack of parameter sets (or
    one) with their eigenvalues and/or times from the Newton closed form,
    and their own guards: at tau = inf first "not_stable" where the largest
    Re(lambda), the gain to the last bit, is >= 0 (no steady state; the
    reduction is taken only when some row has tau = inf), then the
    Hermitian guards of Q, whose defect is taken with the matrix indices
    leading, as ``_newton_form`` returns them.  C is returned as formed;
    its Hermitian part and its own guards come from ``_hermitian_part``,
    which the sweep's pass calls next and ``CovarianceState`` calls in
    ``covariance``.  Overflow reads inf or NaN; its callers run it under
    np.errstate."""
    q, m = _newton_form(params, lambdas, tau)
    # each product halved before the sum, so C overflows only when its value does
    c = q + (0.5 * m[:, np.newaxis] * m.conj()).sum(axis=2)
    q_defect = _hermitian_defect(q, q.conj().swapaxes(0, 1), (0, 1))
    growing = np.isinf(tau)
    if growing.any():
        growing = growing & (lambdas.real.max(axis=-1) >= 0)
    return c.transpose(*range(2, c.ndim), 0, 1), [
        ("not_stable", growing),
        *_hermitian_guards(q_defect),
    ]


def expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential: the degree-16 Taylor sum of X = matrix / 2^s with
    |matrix|_1 / 2^s < 1/2, squared s times.  The sum's truncation error is
    below 1e-18 relative there.  It is evaluated Paterson-Stockmeyer style:
    X^2, X^3 and X^4, one product for the blocks sum_i X^i / (4j + i)!, and
    four Horner steps in X^4."""
    n = len(matrix)
    squarings = max(0, math.frexp(np.abs(matrix).sum(axis=0).max())[1] + 1)
    x = matrix * 0.5**squarings
    x2 = x @ x
    powers = np.array([np.eye(n), x, x2, x2 @ x]).reshape(4, n * n)
    blocks = (_TAYLOR_BLOCKS @ powers).reshape(5, n, n)
    x4 = x2 @ x2
    result = blocks[4]
    for block in blocks[3::-1]:
        result = result @ x4 + block
    for _ in range(squarings):
        result = result @ result
    return result


def _van_loan_noise(
    generator: np.ndarray, diffusion: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Noise integral Q(tau) and propagator M(tau) = exp(A tau) for an
    arbitrary generator A, with no spectral algebra.

    One expm of the block [[A, D], [0, -A^dag]] t over a step t = tau/2^k
    with |A|_1 t <= 1/2 gives M(t) in its upper-left block and
    Q(t) = F12 M(t)^dag from its upper-right block F12.  The step is then
    doubled k times, M(2t) = M(t)^2 and Q(2t) = Q(t) + M(t) Q(t) M(t)^dag,
    so the decaying block exp(-A^dag t) never spans a long time.  Without
    diffusion (D = 0) Q stays 0 and the doublings square M alone: only the
    last one updates Q, which is then non-finite exactly when the full
    recursion's would be, since an M that overflowed stays non-finite when
    squared.  Q and M are NaN where tau has no float step (tau = inf
    included).
    """
    n = len(generator)
    if tau == 0:
        return np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)
    scaled = np.abs(generator).sum(axis=0).max() * tau
    if not scaled < 2.0**1022:  # no float step tau / 2**doublings: NaN Q and M
        return np.full((n, n), np.nan, dtype=complex), np.full((n, n), np.nan, dtype=complex)
    # |A|_1 tau < 2**exponent, so |A|_1 step < 1/2
    doublings = max(0, math.frexp(scaled)[1] + 1)
    step = tau / 2**doublings
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = generator * step
    block[:n, n:] = diffusion * step
    block[n:, n:] = -_dagger(generator) * step
    exp_block = expm(block)
    m = exp_block[:n, :n]
    q = exp_block[:n, n:] @ _dagger(m)
    lossy = diffusion.any()
    for left in range(doublings, 0, -1):
        if lossy or left == 1:
            q = q + m @ q @ _dagger(m)
        m = m @ m
    return q, m


def q_quadrature(params: ModelParams, tau: float) -> np.ndarray:
    """Hermitized noise matrix from Van Loan's block exponential; spectrum-agnostic.

    The package itself does not call it (``ode_oracle`` calls
    ``_van_loan_noise``); the name stays because the benchmark's tracer
    hooks it.
    """
    with np.errstate(all="ignore"):  # overflow reads inf or NaN, which the guards report
        q, _ = _van_loan_noise(drift_generator(params), diffusion_matrix(params), tau)
    return _hermitize(q, "noise matrix")


def _check_tau(tau: float) -> None:
    """Raise InvalidSpec for a tau that is not >= 0; tau = inf is the steady state."""
    if not tau >= 0:
        raise InvalidSpec(f"tau must be >= 0, got {tau!r}")


def covariance(params: ModelParams, tau: float) -> CovarianceState:
    """Covariance of the state evolved from vacuum for a time tau.

    The one-row case of ``_covariance_stack``: C = Q + M M^dag / 2 from the
    Newton closed form; at tau = inf the steady state.  Raises the error of
    the first guard that it fails: those of ``_covariance_stack``
    (NotStable at tau = inf where a mode does not decay, then Q's), then
    C's own, which ``CovarianceState`` checks once (``_hermitian_part``).
    """
    _check_tau(tau)
    lambdas = _eigenvalues(params, derive(params), cubic_roots(params))
    with np.errstate(all="ignore"):  # overflow reads inf or NaN, which the guards report
        c, guards = _covariance_stack(params, lambdas, tau)
    raise_failure(guards, "covariance")
    return CovarianceState(tau=tau, c=c)


def steady_state(params: ModelParams) -> CovarianceState:
    """Stationary covariance C(inf) = Q(inf): ``covariance`` at tau = inf,
    where exp(nu tau) = 0 and phi(x) = -1/x.  Raises NotStable if the gain
    (the largest Re(lambda_j)) is >= 0."""
    return covariance(params, math.inf)


def ode_oracle(params: ModelParams, tau: float) -> CovarianceState:
    """Covariance from Van Loan's block exponential alone.

    The Hermitized Q + M M^dag / 2 of ``_van_loan_noise``: the solution of
    the moment equation dC/dtau = A C + C A^dag + D from C(0) = I/2, built
    from the parameter-form generator A without its spectrum, so it checks
    the closed form independently.  Raises InvalidSpec unless tau is finite
    and >= 0.

    Its doublings lose digits with the number of oscillation periods: at
    rho=100, delta=5, rates 4.5e-9 it is about 1e-12, 1e-6 and 1e-5 of
    max|C| off 40 digits at tau=5, 1e6 and 1e8, where a point report's
    ``oracle_max_abs_diff`` measures the oracle's own error.
    """
    _check(math.isfinite(tau) and tau >= 0, "tau", tau, "finite and >= 0")
    with np.errstate(all="ignore"):  # overflow reads inf or NaN, which the guards report
        q, m = _van_loan_noise(drift_generator(params), diffusion_matrix(params), tau)
        c = _hermitize(q, "noise matrix") + 0.5 * m @ _dagger(m)
    return CovarianceState(tau=tau, c=c)
