"""Spectrum of the three-mode drift and the closed-form propagator.

The first moments of the three coupled modes, arranged in the mixed vector
u = (a1*, a2, a3), evolve as u(tau) = M(tau) u(0) with M(tau) = exp(A tau).
The eigenvalues of the generator A are lambda_j = i(omega_j - delta) -
gamma_plus, where omega_j are the three roots of the characteristic cubic

    [w - alpha] [w^2 - beta^2] + 1 + i rho gamma_minus = 0,

with alpha = delta + i(kappa - gamma_plus) and beta = 1/rho + i gamma_minus.
M is the Newton form of exp(x tau) on the eigenvalues (Cayley-Hamilton),

    M(tau) = e[nu0] I + e[nu0, nu1] N1 + e[nu0, nu1, nu2] N2,
    N1 = A - nu0,  N2 = N1 (A - nu1),

with e[...] the divided differences of exp(x tau) and the eigenvalues
ordered as the closest pair (nu1, nu2) last.  It needs no eigenvectors,
so it holds through the exceptional points where two roots merge: only
e[nu1, nu2] = exp(nu1 tau) expm1(eps tau)/eps, eps = nu2 - nu1, divides
by the pair's separation (McCurdy, Ng & Parlett, Math. Comp. 43, 501
(1984)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
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
# the eigenvalue orders (isolated, pair, pair) for the closest pair (0, 1),
# (0, 2) and (1, 2)
_NEWTON_ORDER = np.array([[2, 0, 1], [1, 0, 2], [0, 1, 2]])
_PAIRS = np.array([0, 0, 1]), np.array([1, 2, 2])


@dataclass(frozen=True)
class Spectrum:
    """Roots of the characteristic cubic and the generator's eigenvalues
    lambda_j = i(omega_j - delta) - gamma_plus built on them.  For a
    ``ParamStack`` every array carries the stack's leading axes."""

    params: ModelParams | ParamStack
    derived: DerivedParams
    omegas: np.ndarray
    lambdas: np.ndarray


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


def _spectrum(params: ModelParams | ParamStack, omegas: np.ndarray) -> Spectrum:
    """Spectrum built on given roots."""
    dp = derive(params)
    lambdas = 1j * (omegas - _axis(params.delta)) - _axis(dp.gamma_plus)
    return Spectrum(params, dp, omegas, lambdas)


def spectrum(params: ModelParams) -> Spectrum:
    """Solve the cubic and assemble the spectrum.  Raises NonFinite only
    where the cubic overflows (see ``cubic_roots``)."""
    return _spectrum(params, cubic_roots(params))


def _newton_nodes(lambdas: np.ndarray) -> np.ndarray:
    """Eigenvalues on the last axis reordered as (nu0, nu1, nu2): the
    closest pair last, the isolated one first."""
    gaps = np.abs(lambdas[..., _PAIRS[0]] - lambdas[..., _PAIRS[1]])
    return np.take_along_axis(lambdas, _NEWTON_ORDER[gaps.argmin(axis=-1)], -1)


def drift_generator(params: ModelParams | ParamStack) -> np.ndarray:
    """Generator of the first-moment flow, directly from the parameters,
    with the stack's leading axes for a ``ParamStack``.  With the coupling
    removed the modes decay at exactly gamma1, gamma2 and kappa."""
    rho = np.asarray(params.rho)
    coupling = np.sqrt(rho / 2.0)
    # the detunings delta -+ 1/rho of ``derive``
    diagonal = (
        -params.gamma1 - 1j * (params.delta - 1.0 / rho),
        -params.gamma2 - 1j * (params.delta + 1.0 / rho),
        -params.kappa,
    )
    shape = np.broadcast_shapes(coupling.shape, *map(np.shape, diagonal))
    generator = np.zeros(shape + (3, 3), dtype=complex)
    generator[..., 0, 0], generator[..., 1, 1], generator[..., 2, 2] = diagonal
    generator[..., 0, 2] = generator[..., 2, 0] = generator[..., 2, 1] = coupling
    generator[..., 1, 2] = -coupling
    return generator
