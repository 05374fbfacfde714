"""Second moments of the three-mode state evolved from vacuum.

In the mixed basis u = (a1*, a2, a3) the (Weyl-symmetric) covariance
C_ij = <(u_i - <u_i>)(u_j - <u_j>)*> of the state evolved from vacuum is

    C(tau) = Q(tau) + (1/2) M(tau) M(tau)^dag,
    Q(tau) = integral_0^tau M(s) D M(s)^dag ds,

with D = diag(gamma1, gamma2, kappa).  Q has a closed form in the
eigenbasis of the generator; a quadrature fallback covers degenerate
spectra.  C also satisfies the moment equation

    dC/dtau = A C + C A^dag + D,       C(0) = I/2,

which an independent fixed-step RK4 integrator (``ode_oracle``) uses for
verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dynamics import (
    Spectrum,
    _propagator_matrix,
    cubic_roots,
    drift_generator,
    propagator,
    spectrum,
)
from .errors import DegenerateSpectrum, NonFinite, NotHermitian, NotStable, ToleranceNotMet
from .model import ModelParams, derive

VACUUM = 0.5 * np.eye(3, dtype=complex)
# Hermitian defect, relative to max(1, max|entry|), that Q and C may carry
HERMITIZE_TOL = 1e-10


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


def _hermitize(matrix: np.ndarray, tol: float, what: str) -> np.ndarray:
    hermitian, defect = _hermitian_part(matrix)
    if np.isnan(defect):
        raise NonFinite(f"{what} has non-finite entries")
    if defect > tol:
        raise NotHermitian(f"{what} is not Hermitian: relative defect {defect:.3e}")
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


def _eigenbasis_diffusion(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """D~ = S D S^dag and the rate sums lambda_i + lambda_j* it decays with."""
    d_tilde = (spec.s * _rates(spec.params)[..., np.newaxis, :]) @ _dagger(spec.s)
    lam = spec.lambdas
    return d_tilde, lam[..., :, np.newaxis] + lam[..., np.newaxis, :].conj()


def _noise(spec: Spectrum, tau) -> np.ndarray:
    """Unsymmetrized closed-form Q for a stack of spectra and/or times."""
    d_tilde, sums = _eigenbasis_diffusion(spec)
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


def _closed_form_stack(spec: Spectrum, tau) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form covariances for a stack of spectra and/or times, and a
    mask of the rows that pass the guards CovarianceState and NoiseMatrix
    raise on (finite, Hermitian within HERMITIZE_TOL)."""
    q, q_defect = _hermitian_part(_noise(spec, tau))
    c, c_defect = _hermitian_part(_with_coherent_part(q, _propagator_matrix(spec, tau)))
    return c, (q_defect <= HERMITIZE_TOL) & (c_defect <= HERMITIZE_TOL)


def _q_quadrature_generator(
    generator: np.ndarray,
    diffusion: np.ndarray,
    tau: float,
    tol: float = 1e-10,
    max_panels: int = 2**14,
) -> np.ndarray:
    """Adaptive composite Simpson evaluation of the noise integral for an
    arbitrary generator; the integrand propagator is a matrix exponential,
    so degenerate spectra are fine."""
    if tau == 0:
        return np.zeros((3, 3), dtype=complex)

    def integrand(t: float) -> np.ndarray:
        m = expm(generator * t)
        return m @ diffusion @ m.conj().T

    panels = 8
    values = np.array([integrand(t) for t in np.linspace(0.0, tau, panels + 1)])
    previous = None
    while panels <= max_panels:
        h = tau / panels
        estimate = (h / 3.0) * (
            values[0]
            + values[-1]
            + 4.0 * values[1:-1:2].sum(axis=0)
            + 2.0 * values[2:-1:2].sum(axis=0)
        )
        if previous is not None:
            err = np.abs(estimate - previous)
            if np.all(err < tol * np.maximum(1.0, np.abs(estimate))):
                return estimate
        previous = estimate
        panels *= 2
        refined = np.empty((panels + 1, 3, 3), dtype=complex)
        refined[::2] = values
        refined[1::2] = [
            integrand(t) for t in np.linspace(0.0, tau, panels + 1)[1::2]
        ]
        values = refined
    raise ToleranceNotMet(
        f"Simpson refinement hit {max_panels} panels without reaching {tol:g}"
    )


def q_quadrature(
    params: ModelParams,
    tau: float,
    tol: float = 1e-10,
    max_panels: int = 2**14,
) -> NoiseMatrix:
    """Noise matrix by direct numerical integration; spectrum-agnostic."""
    q = _q_quadrature_generator(
        drift_generator(params), diffusion_matrix(params), tau, tol, max_panels
    )
    return NoiseMatrix(tau=tau, q=q)


def covariance_closed(spec: Spectrum, tau: float) -> CovarianceState:
    """Covariance from the matrix-form closed expression Q + M M^dag / 2."""
    m = propagator(spec, tau).m
    q = q_closed_form(spec, tau).q
    return CovarianceState(tau=tau, c=_with_coherent_part(q, m))


def covariance(
    params: ModelParams,
    tau: float,
    method: str = "auto",
    degeneracy_tol: float | None = None,
    quadrature_tol: float = 1e-10,
) -> CovarianceState:
    """Covariance of the state evolved from vacuum for a time tau.

    method "closed" uses the spectral closed form (raises
    DegenerateSpectrum near root collisions), "quadrature" integrates the
    noise term numerically with an exponential-map propagator, and "auto"
    tries the closed form and falls back to quadrature.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed"):
        try:
            return covariance_closed(spectrum(params, degeneracy_tol), tau)
        except DegenerateSpectrum:
            if method == "closed":
                raise
    m = expm(drift_generator(params) * tau)
    q = q_quadrature(params, tau, tol=quadrature_tol).q
    return CovarianceState(tau=tau, c=_with_coherent_part(q, m))


def steady_state(
    params: ModelParams, degeneracy_tol: float | None = None
) -> CovarianceState:
    """Stationary covariance C(inf) = Q(inf), defined when every mode decays.

    Solves the stationarity condition A C + C A^dag + D = 0 in the
    eigenbasis; raises NotStable if any Re(lambda_j) >= 0.
    """
    spec = spectrum(params, degeneracy_tol)
    worst = float(np.max(spec.lambdas.real))
    if worst >= 0:
        raise NotStable(f"largest mode gain is {worst:.6g} >= 0")
    d_tilde, sums = _eigenbasis_diffusion(spec)
    c = spec.s_inverse @ (-d_tilde / sums) @ _dagger(spec.s_inverse)
    return CovarianceState(tau=math.inf, c=c)


def ode_oracle(
    params: ModelParams, tau: float, steps: int | None = None
) -> CovarianceState:
    """Classical fixed-step RK4 integration of the moment equation.

    Independent of the spectral decomposition: uses only the parameter-form
    generator.  Default step count is 100 * tau * max(1, |lambda|_max),
    giving O(h^4) global error well below 1e-6 relative.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    if tau == 0:
        return CovarianceState(tau=0.0, c=VACUUM.copy())
    if steps is None:
        dp = derive(params)
        lam_max = float(
            np.max(np.abs(1j * (cubic_roots(params) - params.delta) - dp.gamma_plus))
        )
        steps = int(math.ceil(100.0 * tau * max(1.0, lam_max)))
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    a = drift_generator(params)
    a_dag = a.conj().T
    d = diffusion_matrix(params)
    h = tau / steps

    def flow(c: np.ndarray) -> np.ndarray:
        return a @ c + c @ a_dag + d

    c = VACUUM.copy()
    for _ in range(steps):
        k1 = flow(c)
        k2 = flow(c + 0.5 * h * k1)
        k3 = flow(c + 0.5 * h * k2)
        k4 = flow(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return CovarianceState(tau=tau, c=c)
