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

# Cardano's roots of y^3 + 3 p y + 2 h = 0 are y_k = _CARDANO_W[k] w + _CARDANO_V[k] p / w
# for a cube root w of h +- sqrt(h^2 + p^3)
_CARDANO_W = -np.exp(2j * np.pi / 3 * np.arange(3))
_CARDANO_V = np.exp(-2j * np.pi / 3 * np.arange(3))
# the scale of [1, c2, c1, c0] is the largest of |c2|, |c1|^(1/2) and |c0|^(1/3)
_SCALE_ROOTS = np.array([1.0, 0.5, 1.0 / 3.0])
# the power of the scale each float of [1, c2, c1, c0] is divided by
_SCALE_POWERS = -np.array([0, 0, 1, 1, 2, 2, 3, 3])
# divisors x + (x == _ZERO) turn an exact zero, which occurs only at exact
# multiple or zero roots, into 1
_ZERO = np.array(0j)

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


def _axis(value) -> np.ndarray:
    """A per-parameter-set value with a trailing axis, to broadcast against
    the (..., 3) root arrays."""
    return np.asarray(value)[..., np.newaxis]


def cubic_coefficients(dp: DerivedParams, rho) -> np.ndarray:
    """Monic coefficients [1, c2, c1, c0] of the characteristic cubic, on
    the last axis.  Coefficients that overflow (tiny rho) come out inf or
    NaN."""
    alpha = np.asarray(dp.alpha, dtype=complex)
    beta = np.asarray(dp.beta, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        beta2 = beta * beta
        c0 = alpha * beta2 + 1.0 + 1j * np.asarray(rho) * dp.gamma_minus
    coeffs = np.empty(c0.shape + (4,), dtype=complex)
    coeffs[..., 0] = 1.0
    coeffs[..., 1] = -alpha
    coeffs[..., 2] = -beta2
    coeffs[..., 3] = c0
    return coeffs


def _select(mask, chosen, other):
    """np.where(mask, chosen, other), kept as a plain choice for the numpy
    scalars of a single cubic, where np.where costs more than the arithmetic
    around it."""
    if np.ndim(mask):
        return np.where(mask, chosen, other)
    return chosen if mask else other


def solve_cubic(coeffs: np.ndarray) -> np.ndarray:
    """Roots of monic complex cubics, given [1, c2, c1, c0] on the last axis
    of a (..., 4) array, in one closed-form pass over the stack.

    Per cubic:

    1. Scale: omega = s z, with s the power of two at or above
       max(|c2|, |c1|^(1/2), |c0|^(1/3)).  The scaled coefficients a2, a1,
       a0 are at most 1 in modulus, the roots z at most 2; the scaling is
       exact and nothing overflows for finite coefficients.
    2. Cardano: y = z + a2/3 solves y^3 + 3 p y + 2 h = 0; take the cube
       root of the larger-modulus branch h +- sqrt(h^2 + p^3).
    3. Pick one root z1.  Normally it is the root farthest from the
       centroid -a2/3, which is the simple root when two roots nearly merge;
       its Cardano value has no cancellation and one Newton step on the
       scaled cubic settles it to the last bit.  When one root lies near the
       centroid (|y|^2 <= |p|, as at small rho, where the other two are
       about +-sqrt(-3p)), z1 is that root instead, refined by one step of
       y = -2h / (y^2 + 3p), which converges fast there and Newton does not.
    4. Deflate: the other two roots solve the quadratic with product
       -a0/z1 and sum -a2 - z1.  If z1 is large against them (large
       detuning) the sum is (a1 - product)/z1 instead, and if it is small
       against them (small rho) the product is a1 - z1 sum; either way the
       pair keeps imaginary parts far below its modulus.  The quadratic is
       solved stably: (sum + d)/2 with the sign of d that avoids
       cancellation, then (sum - d)/2, or product over the first root where
       that difference cancels.  So a real cubic's complex pair comes out
       exactly conjugate.

    Accuracy, as tested against 50-digit roots (rho from 0.01 to 1e4,
    |delta| up to 10, rates up to 5, and detunings closing in on the gain
    threshold): each root is within 16 ulps times its condition number
    sum_k |c_k| |omega|^k / |p'(omega)| of the exact one, and the three
    satisfy the sum, pair-sum and product relations to 16 ulps of s, s^2
    and s^3, so a nearly merged pair stays consistent with the third root.
    Imaginary parts far below the modulus survive: the gain is exact to
    1e-12 from rho = 1e-5 down to 1e-140 and up to |delta| = 1e8.

    Returned sorted by ascending imaginary part, ties broken by ascending
    real part; NaN for non-finite coefficients.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    with np.errstate(all="ignore"):
        size = (np.abs(coeffs[..., 1:]) ** _SCALE_ROOTS).max(axis=-1)
        exponent = np.frexp(size)[1][..., np.newaxis]
        scaled = np.ldexp(coeffs.view(float), exponent * _SCALE_POWERS).view(complex)
        a2, a1, a0 = scaled[..., 1], scaled[..., 2], scaled[..., 3]
        shift = a2 / 3.0
        shift2 = shift * shift
        p = a1 / 3.0 - shift2
        h = 0.5 * a0 - shift * (0.5 * a1 - shift2)
        r = np.sqrt(h * h + p * p * p)
        w = (h + np.copysign(1.0, (h.conj() * r).real) * r) ** (1.0 / 3.0)
        v = p / (w + (w == _ZERO))
        distances = np.abs(np.multiply.outer(w, _CARDANO_W) + np.multiply.outer(v, _CARDANO_V))
        size_p = np.abs(p)
        pick = (distances + size_p[..., np.newaxis] / distances).argmax(axis=-1)
        y1 = _CARDANO_W[pick] * w + _CARDANO_V[pick] * v
        y1sq = y1 * y1
        near = np.abs(y1sq) <= size_p
        denominator = 3.0 * p + y1sq
        refined = -2.0 * h / (denominator + (denominator == _ZERO)) - shift
        z1 = y1 - shift
        slope = (3.0 * z1 + 2.0 * a2) * z1 + a1
        z1 = z1 - (((z1 + a2) * z1 + a1) * z1 + a0) / (slope + (slope == _ZERO))
        z1 = _select(near, refined, z1)
        product = -a0 / (z1 + (z1 == _ZERO))
        z1_size = (z1 * z1.conj()).real
        product_size = np.abs(product)
        total = _select(z1_size > 4.0 * product_size, (a1 - product) / z1, -a2 - z1)
        product = _select(16.0 * z1_size <= product_size, a1 - z1 * total, product)
        d = np.sqrt(total * total - 4.0 * product)
        d = np.copysign(1.0, (total.conj() * d).real) * d
        big = 0.5 * (total + d)
        other = 0.5 * (total - d)
        z = np.empty(z1.shape + (3,), dtype=complex)
        z[..., 0] = z1
        z[..., 1] = big
        # (total - d) / 2 unless it cancels: a pair of real coefficients stays conjugate
        cancels = np.abs(other) < 0.5 * np.abs(big)
        z[..., 2] = _select(cancels, product / (big + (big == _ZERO)), other)
        # i conj(z) orders as complex numbers do by (Im z, Re z)
        order = np.sort((z * -1j).conj(), axis=-1)
        roots = np.ldexp((order.conj() * 1j).view(float), exponent).view(complex)
    finite = np.isfinite(size)
    if not finite.all():
        roots = np.where(finite[..., np.newaxis], roots, np.nan)
    return roots


def cubic_roots(params: ModelParams) -> np.ndarray:
    """Three complex roots of the characteristic cubic, sorted by ascending
    imaginary part with ties broken by ascending real part.

    Raises NonFinite when the cubic's coefficients overflow (rho below
    about 1e-154)."""
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
