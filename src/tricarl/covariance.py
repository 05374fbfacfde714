"""Second moments of the three-mode state evolved from vacuum.

In the mixed basis u = (a1*, a2, a3) the (Weyl-symmetric) covariance
C_ij = <(u_i - <u_i>)(u_j - <u_j>)*> of the state evolved from vacuum is

    C(tau) = Q(tau) + (1/2) M(tau) M(tau)^dag,
    Q(tau) = integral_0^tau M(s) D M(s)^dag ds,

with D = diag(gamma1, gamma2, kappa).  M and Q have closed forms in the
eigenbasis of the generator.  Where two roots are too close for them,
M and Q both come from Van Loan's block exponential (C. F. Van Loan,
IEEE TAC 23, 395 (1978)), which needs no diagonalization.  That choice is
made per row in one place, ``_covariance_stack``; ``covariance`` is its
one-row case.  C also satisfies the moment equation

    dC/dtau = A C + C A^dag + D,       C(0) = I/2,

which an independent fixed-step RK4 integrator (``ode_oracle``) uses for
verification.

``expm`` is scipy.linalg's, imported on its first call (a Van Loan row), as
is the Lyapunov solver of ``steady_state``: closed-form rows load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    Spectrum,
    _propagator_matrix,
    _spectral_stack,
    cubic_roots,
    drift_generator,
    gain,
)
from .dynamics import spectrum  # noqa: F401  (the benchmark tracer hooks this name here)
from .errors import NotStable, first_failure, raise_failure
from .model import ModelParams, ParamStack, derive

VACUUM = 0.5 * np.eye(3, dtype=complex)
# Hermitian defect, relative to max(1, max|entry|), that Q and C may carry
HERMITIZE_TOL = 1e-10
# Largest default step count of ode_oracle, about 1.2 s of RK4 blocks on a
# 2-vCPU x86-64 VM; an explicit ``steps`` is not capped.
MAX_ORACLE_STEPS = 10**7


def _dagger(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().swapaxes(-1, -2)


def _rates(params) -> np.ndarray:
    """Diffusion weights (gamma1, gamma2, kappa) on the last axis."""
    return np.stack(np.broadcast_arrays(params.gamma1, params.gamma2, params.kappa), -1)


def diffusion_matrix(params: ModelParams) -> np.ndarray:
    """Diffusion matrix D = diag(gamma1, gamma2, kappa)."""
    return np.diag(_rates(params)).astype(complex)


def _hermitian_part(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M + M^dag)/2 of each matrix in a (..., n, n) stack, and its defect
    max|M - M^dag| relative to max(1, max|M|); NaN for non-finite M."""
    matrix = np.asarray(matrix, dtype=complex)
    m_dag = _dagger(matrix)
    finite = np.isfinite(matrix).all(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.abs(matrix).max(axis=(-2, -1)))
        defect = np.where(finite, np.abs(matrix - m_dag).max(axis=(-2, -1)) / scale, np.nan)
        return 0.5 * (matrix + m_dag), defect


def _hermitian_guards(defect, tol: float) -> tuple:
    """Ordered guards (see ``first_failure``) of matrices with a Hermitian
    defect from ``_hermitian_part`` (or the largest of several): non-finite
    entries (a NaN defect), then a defect above ``tol``."""
    return ("non_finite", np.isnan(defect)), ("not_hermitian", defect > tol)


def _hermitize(matrix: np.ndarray, tol: float, what: str) -> np.ndarray:
    hermitian, defect = _hermitian_part(matrix)
    raise_failure(first_failure(*_hermitian_guards(defect, tol)), what)
    return hermitian


@dataclass(frozen=True)
class CovarianceState:
    """Hermitian 3x3 covariance of (a1*, a2, a3) at scaled time tau."""

    tau: float
    c: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _hermitize(self.c, HERMITIZE_TOL, "covariance"))


@dataclass(frozen=True)
class NoiseMatrix:
    """Hermitian positive-semidefinite noise accumulated up to tau."""

    tau: float
    q: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _hermitize(self.q, HERMITIZE_TOL, "noise matrix"))


def _phi(z, tau):
    """integral_0^tau exp(z s) ds, series-stabilized near z = 0."""
    z = np.asarray(z, dtype=complex)
    zt = z * tau
    small = np.abs(z) < 1e-8
    series = tau * (1.0 + zt / 2.0 + zt * zt / 6.0)
    return np.where(small, series, (np.exp(zt) - 1.0) / np.where(small, 1.0, z))


def _noise(spec: Spectrum, tau) -> np.ndarray:
    """Unsymmetrized closed-form Q for a stack of spectra and/or times."""
    d_tilde = (spec.s * _rates(spec.params)[..., np.newaxis, :]) @ _dagger(spec.s)
    lam = spec.lambdas
    sums = lam[..., :, np.newaxis] + lam[..., np.newaxis, :].conj()
    q_tilde = d_tilde * _phi(sums, np.asarray(tau)[..., np.newaxis, np.newaxis])
    return spec.s_inverse @ q_tilde @ _dagger(spec.s_inverse)


def q_closed_form(spec: Spectrum, tau: float) -> NoiseMatrix:
    """Noise matrix from the eigenbasis closed form.

    With D~ = S D S^dag, the transformed noise is
    Q~_ij = D~_ij (exp((l_i + l_j*) tau) - 1)/(l_i + l_j*) and
    Q = S^-1 Q~ (S^-1)^dag.
    """
    return NoiseMatrix(tau=tau, q=_noise(spec, tau))


def _with_coherent_part(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """C = Q + M M^dag / 2, the vacuum's propagated half plus the noise."""
    return q + 0.5 * m @ _dagger(m)


def _covariance_stack(
    params: ParamStack, roots: np.ndarray, tau, usable
) -> tuple[np.ndarray, np.ndarray]:
    """Covariances for a stack of parameter sets (with their cubic roots)
    and/or times, and each row's status under the guards of NoiseMatrix and
    CovarianceState (see ``_hermitian_guards``).

    Rows are computed in closed form, except the ``usable`` rows whose
    roots are too close for it: those take M and Q from Van Loan's block
    exponential.
    """
    spec, regular = _spectral_stack(params, roots)
    q, m = _noise(spec, tau), _propagator_matrix(spec, tau)
    fallback = ~regular & usable
    if fallback.any():
        shape = q.shape[:-2]
        for row in map(tuple, np.argwhere(np.broadcast_to(fallback, shape))):
            *fields, row_tau = (float(np.broadcast_to(x, shape)[row]) for x in (*params, tau))
            row_params = ModelParams(*fields)
            q[row], m[row] = _van_loan_noise(
                drift_generator(row_params), diffusion_matrix(row_params), row_tau
            )
    q, q_defect = _hermitian_part(q)
    c, c_defect = _hermitian_part(_with_coherent_part(q, m))
    return c, first_failure(
        *_hermitian_guards(q_defect, HERMITIZE_TOL), *_hermitian_guards(c_defect, HERMITIZE_TOL)
    )


def expm(matrix: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(matrix)


def _van_loan_noise(
    generator: np.ndarray, diffusion: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Noise integral Q(tau) and propagator M(tau) = exp(A tau) for an
    arbitrary generator A, degenerate or not.

    One expm of the block [[A, D], [0, -A^dag]] t over a step t = tau/2^k
    with |A|_1 t <= 1/2 gives M(t) in its upper-left block and
    Q(t) = F12 M(t)^dag from its upper-right block F12.  The step is then
    doubled k times, M(2t) = M(t)^2 and Q(2t) = Q(t) + M(t) Q(t) M(t)^dag,
    so the decaying block exp(-A^dag t) never spans a long time.
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
    for _ in range(doublings):
        q = q + m @ q @ _dagger(m)
        m = m @ m
    return q, m


def q_quadrature(params: ModelParams, tau: float) -> NoiseMatrix:
    """Noise matrix from Van Loan's block exponential; spectrum-agnostic.

    The name stays because the benchmark's tracer hooks
    ``tricarl.covariance.q_quadrature`` to count fallback calls.
    """
    q, _ = _van_loan_noise(drift_generator(params), diffusion_matrix(params), tau)
    return NoiseMatrix(tau=tau, q=q)


def covariance(params: ModelParams, tau: float) -> CovarianceState:
    """Covariance of the state evolved from vacuum for a time tau.

    The one-row case of ``_covariance_stack``: C = Q + M M^dag / 2 from the
    spectral closed form, or from Van Loan's block exponential where two
    roots are closer than ``degeneracy_threshold``.  Raises the error of
    the first guard of NoiseMatrix, then of CovarianceState, that it fails.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    stack = ParamStack(params.rho, params.delta, params.gamma1, params.gamma2, params.kappa)
    c, status = _covariance_stack(stack, cubic_roots(params), tau, True)
    raise_failure(status, "covariance")
    return CovarianceState(tau=tau, c=c)


def steady_state(params: ModelParams) -> CovarianceState:
    """Stationary covariance C(inf) = Q(inf), defined when every mode decays.

    Solves the stationarity condition A C + C A^dag + D = 0 by
    Bartels-Stewart, which needs no eigenbasis, so degenerate spectra are
    fine; raises NotStable if the gain (the largest Re(lambda_j)) is >= 0.
    """
    worst = gain(cubic_roots(params), derive(params).gamma_plus)
    if worst >= 0:
        raise NotStable(f"largest mode gain is {worst:.6g} >= 0")
    from scipy.linalg import solve_continuous_lyapunov

    c = solve_continuous_lyapunov(drift_generator(params), -diffusion_matrix(params))
    return CovarianceState(tau=math.inf, c=c)


def ode_oracle(
    params: ModelParams, tau: float, steps: int | None = None
) -> CovarianceState:
    """Classical fixed-step RK4 integration of the moment equation.

    Independent of the spectral decomposition: uses only the parameter-form
    generator A, and the eigenvalues of A from LAPACK for the default step
    count 100 * tau * max(1, |lambda|_max), whose O(h^4) global error is
    well below 1e-6 relative; a default count above MAX_ORACLE_STEPS
    raises ValueError.

    The equation is linear in z = (vec C, 1), dz/dtau = G z, with
    kron(A, I) + kron(I, A*) on the row-major vec C and vec D in the last
    column of G.  RK4 on it is exactly z -> z + E z with x = h G and
    E = x + x^2/2 + x^3/6 + x^4/24.  The loop applies 16-step blocks
    E16 = (I + E)^16 - I (four doublings E -> 2E + E^2, in increment form
    so E never rounds against I), then the steps % 16 single steps.  It
    does not power the step matrix by squaring: near the gain threshold
    that matrix is non-normal and its squares lose about 2.5 digits.
    """
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    if steps is not None and not (
        isinstance(steps, (int, np.integer)) and not isinstance(steps, bool) and steps > 0
    ):
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if tau == 0:
        return CovarianceState(tau=0.0, c=VACUUM.copy())
    a = drift_generator(params)
    if steps is None:
        lam_max = float(np.abs(np.linalg.eigvals(a)).max())
        steps = int(math.ceil(100.0 * tau * max(1.0, lam_max)))
        if steps > MAX_ORACLE_STEPS:
            raise ValueError(
                f"the default oracle step count {steps} exceeds the limit {MAX_ORACLE_STEPS}"
            )
    eye3 = np.eye(3)
    kron = a[:, None, :, None] * eye3[:, None, :] + eye3[:, None, :, None] * a.conj()[:, None, :]
    x = np.zeros((10, 10), dtype=complex)
    x[:9, :9] = kron.reshape(9, 9)
    x[:9, 9] = diffusion_matrix(params).ravel()
    x *= tau / steps
    eye = np.eye(10)
    step = x @ (eye + x @ (eye / 2 + x @ (eye / 6 + x / 24)))
    block = step
    for _ in range(4):
        block = 2.0 * block + block @ block
    z = np.append(VACUUM.ravel(), 1.0)
    for _ in range(steps // 16):
        z = z + block @ z
    for _ in range(steps % 16):
        z = z + step @ z
    return CovarianceState(tau=tau, c=z[:9].reshape(3, 3))
