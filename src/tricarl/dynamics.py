"""Spectral decomposition of the three-mode drift and the closed-form
propagator.

The first moments of the three coupled modes, arranged in the mixed vector
u = (a1*, a2, a3), evolve as u(tau) = M(tau) u(0) with M(tau) = exp(A tau).
The eigenvalues of the generator A are lambda_j = i(omega_j - delta) -
gamma_plus, where omega_j are the three roots of the characteristic cubic

    [w - alpha] [w^2 - beta^2] + 1 + i rho gamma_minus = 0,

with alpha = delta + i(kappa - gamma_plus) and beta = 1/rho + i gamma_minus.
Each entry of M is a three-term exponential sum over the roots; the six
independent entries f11, f22, f33, f12, f13, f23 fill M with the sign
pattern

    M = [[ f11,  f12, f13],
         [-f12,  f22, f23],
         [ f13, -f23, f33]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NonFinite
from .model import DerivedParams, ModelParams, ParamStack, derive

# order of the independent propagator entries in coefficient tables
F_ORDER = ("f11", "f22", "f33", "f12", "f13", "f23")


@dataclass(frozen=True)
class Spectrum:
    """Roots of the characteristic cubic and the eigensystem built on them.

    Columns of ``s_inverse`` are the right eigenvectors of the generator;
    ``s`` is its inverse (det(s) = 1 with the normalization used here).
    ``deltas[j]`` is the product of root differences (w_j - w_k)(w_j - w_m),
    the partial-fraction denominator of the closed-form propagator.  For a
    ``ParamStack`` every array carries the stack's leading axes.
    """

    params: ModelParams | ParamStack
    derived: DerivedParams
    omegas: np.ndarray
    lambdas: np.ndarray
    s: np.ndarray
    s_inverse: np.ndarray
    deltas: np.ndarray


@dataclass(frozen=True)
class Propagator:
    """First-moment propagator M(tau) for the mixed vector (a1*, a2, a3)."""

    tau: float
    m: np.ndarray


def _axis(value) -> np.ndarray:
    """A per-parameter-set value with a trailing axis, to broadcast against
    the (..., 3) root arrays."""
    return np.asarray(value)[..., np.newaxis]


def cubic_coefficients(dp: DerivedParams, rho) -> np.ndarray:
    """Monic coefficients [1, c2, c1, c0] of the characteristic cubic, on
    the last axis.  Coefficients that overflow (tiny rho) come out inf or
    NaN."""
    alpha = np.asarray(dp.alpha, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        beta2 = np.asarray(dp.beta, dtype=complex) ** 2
        c0 = alpha * beta2 + 1.0 + 1j * np.asarray(rho) * dp.gamma_minus
    return np.stack(np.broadcast_arrays(np.ones_like(c0), -alpha, -beta2, c0), axis=-1)


def solve_cubic(coeffs: np.ndarray) -> np.ndarray:
    """Roots of monic complex cubics, given [1, c2, c1, c0] on the last axis
    of a (..., 4) array.

    Solved as eigenvalues of the companion matrices, then polished with one
    Newton step per root.  Returned sorted by ascending imaginary part,
    ties broken by ascending real part; NaN for non-finite coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    finite = np.isfinite(coeffs).all(axis=-1, keepdims=True)
    coeffs = np.where(finite, coeffs, (1.0, 0.0, 0.0, 0.0))
    companion = np.zeros(coeffs.shape[:-1] + (3, 3), dtype=complex)
    companion[..., 0, :] = -coeffs[..., 1:]
    companion[..., 1, 0] = 1.0
    companion[..., 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)

    c2, c1, c0 = (coeffs[..., k, np.newaxis] for k in (1, 2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        value = ((roots + c2) * roots + c1) * roots + c0
        slope = (3.0 * roots + 2.0 * c2) * roots + c1
        safe = np.abs(slope) > 0
        roots = roots - np.where(safe, value / np.where(safe, slope, 1.0), 0.0)

    order = np.lexsort((roots.real, roots.imag), axis=-1)
    return np.where(finite, np.take_along_axis(roots, order, axis=-1), np.nan)


def cubic_roots(params: ModelParams) -> np.ndarray:
    """Three complex roots of the characteristic cubic, sorted by ascending
    imaginary part with ties broken by ascending real part.

    Raises NonFinite when the cubic overflows (rho below about 1e-150)."""
    roots = solve_cubic(cubic_coefficients(derive(params), params.rho))
    if not np.isfinite(roots).all():
        raise NonFinite(f"characteristic cubic overflows at rho={params.rho!r}")
    return roots


def unstable_root(omegas: np.ndarray) -> complex:
    """Root with the minimum imaginary part (the growing one when gain > 0),
    per set of roots on the last axis."""
    omegas = np.asarray(omegas)
    first = np.lexsort((omegas.real, omegas.imag), axis=-1)[..., :1]
    return np.take_along_axis(omegas, first, axis=-1)[..., 0]


def gain(omegas: np.ndarray, gamma_plus: float) -> float:
    """Exponential growth rate g = -Im(unstable root) - gamma_plus."""
    return -unstable_root(omegas).imag - gamma_plus


def degeneracy_threshold(omegas: np.ndarray) -> np.ndarray:
    """Minimum root separation below which the closed forms are
    numerically unusable."""
    return 1e-8 * np.maximum(1.0, np.abs(omegas).max(axis=-1))


def _min_separation(omegas: np.ndarray) -> np.ndarray:
    w0, w1, w2 = omegas[..., 0], omegas[..., 1], omegas[..., 2]
    return np.minimum(np.minimum(np.abs(w0 - w1), np.abs(w0 - w2)), np.abs(w1 - w2))


def _spectral_stack(
    params: ModelParams | ParamStack, omegas: np.ndarray
) -> tuple[Spectrum, np.ndarray]:
    """Spectral data built on given roots, and a mask of the parameter sets
    whose roots are separated by more than ``degeneracy_threshold``.  The S
    of a masked-out set is meaningless.

    Column j of S^-1 is the eigenvector

        a_j = N_j ( i sqrt(rho/2) (w_j + beta),
                   -i sqrt(rho/2) (w_j - beta),
                    beta^2 - w_j^2 ),

    with N_1 = 1/(w_2 - w_3) and cyclic; this normalization gives
    det(S) = 1.
    """
    w = np.asarray(omegas, dtype=complex)
    dp = derive(params)
    beta = _axis(dp.beta)
    coupling = np.sqrt(_axis(params.rho) / 2.0)
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        norms = 1.0 / np.stack([w1 - w2, w0 - w2, w0 - w1], axis=-1)
        s_inverse = norms[..., np.newaxis, :] * np.stack(
            [1j * coupling * (w + beta), -1j * coupling * (w - beta), beta**2 - w**2], axis=-2
        )
    regular = _min_separation(w) > degeneracy_threshold(w)
    s = np.linalg.inv(np.where(regular[..., np.newaxis, np.newaxis], s_inverse, np.eye(3)))
    deltas = np.stack([(w0 - w1) * (w0 - w2), (w1 - w0) * (w1 - w2), (w2 - w0) * (w2 - w1)], -1)
    lambdas = 1j * (w - _axis(params.delta)) - _axis(dp.gamma_plus)
    return Spectrum(params, dp, w, lambdas, s, s_inverse, deltas), regular


def _require_regular(spec: Spectrum, regular) -> Spectrum:
    """Return ``spec``; raise DegenerateSpectrum if two of its roots are
    closer than ``degeneracy_threshold``."""
    if not regular:
        raise DegenerateSpectrum(
            f"root separation {_min_separation(spec.omegas):.3e} below threshold "
            f"{degeneracy_threshold(spec.omegas):.3e}"
        )
    return spec


def spectrum(params: ModelParams) -> Spectrum:
    """Solve the cubic and assemble the full spectral data."""
    return _require_regular(*_spectral_stack(params, cubic_roots(params)))


def propagator_coefficients(spec: Spectrum) -> np.ndarray:
    """Exponential-sum coefficients F of the six propagator entries.

    Row k (ordered as F_ORDER) satisfies
    f_k(tau) = sum_j F[..., k, j] * exp(lambda_j * tau).
    """
    w = spec.omegas
    alpha, beta = _axis(spec.derived.alpha), _axis(spec.derived.beta)
    rho = _axis(spec.params.rho)
    coupling = np.sqrt(rho / 2.0)
    numerators = np.stack(
        [
            (w - alpha) * (w + beta) - rho / 2.0,  # f11
            (w - alpha) * (w - beta) + rho / 2.0,  # f22
            w**2 - beta**2,  # f33
            np.broadcast_to(-rho / 2.0 + 0j, w.shape),  # f12
            -1j * coupling * (w + beta),  # f13
            1j * coupling * (w - beta),  # f23
        ],
        axis=-2,
    )
    return numerators / spec.deltas[..., np.newaxis, :]


# M[r, c] = sign * f_k with k = _M_ENTRY[r, c] indexing F_ORDER
_M_ENTRY = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_M_SIGN = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])


def _propagator_matrix(spec: Spectrum, tau) -> np.ndarray:
    """Closed-form M(tau) for a stack of spectra and/or times."""
    exps = np.exp(spec.lambdas * _axis(tau))
    entries = (propagator_coefficients(spec) @ exps[..., np.newaxis])[..., 0]
    return entries[..., _M_ENTRY] * _M_SIGN


def propagator(spec: Spectrum, tau: float) -> Propagator:
    """Closed-form M(tau); M(0) is the identity."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    return Propagator(tau=tau, m=_propagator_matrix(spec, tau))


def drift_generator(params: ModelParams) -> np.ndarray:
    """Generator of the first-moment flow, directly from the parameters.

    Equals S^-1 diag(lambda) S of the spectrum whenever the spectrum is
    non-degenerate, but needs no diagonalization, so it also covers
    degenerate spectra (used by the block-exponential fallback, the
    steady state and the moment-ODE integrator).  With the coupling
    removed the modes decay at exactly gamma1, gamma2 and kappa.
    """
    dp = derive(params)
    coupling = np.sqrt(params.rho / 2.0)
    return np.array(
        [
            [-params.gamma1 - 1j * dp.delta_minus, 0.0, coupling],
            [0.0, -params.gamma2 - 1j * dp.delta_plus, -coupling],
            [coupling, coupling, -params.kappa],
        ],
        dtype=complex,
    )
