"""Independent reference implementations used only for verification.

These deliberately avoid the code paths they check: the matrix exponential
is a plain scaling-and-squaring Taylor series (no spectral decomposition),
the Hermitian eigenvalue oracle goes through characteristic-polynomial
coefficients obtained from power-sum traces, and the quadrature-covariance
round trip inverts the block construction directly.  The entrywise
covariance assembles C element by element from the propagator entries, and
the effective generator rebuilds A from the spectral data.
"""

import numpy as np

from tricarl.covariance import CovarianceState, _phi
from tricarl.dynamics import propagator_coefficients


def expm_taylor(a, tol=1e-16):
    """Scaling-and-squaring Taylor-series matrix exponential."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    norm = np.linalg.norm(a, np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    b = a / 2.0**squarings
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 60):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term, np.inf) <= tol * np.linalg.norm(result, np.inf):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def charpoly_coefficients(h):
    """Monic characteristic-polynomial coefficients via Newton's identities
    on the power sums p_k = tr(H^k)."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ h)
    p = [np.trace(powers[k]) for k in range(n + 1)]
    coeffs = [1.0 + 0.0j]
    for k in range(1, n + 1):
        s = p[k]
        for i in range(1, k):
            s += coeffs[i] * p[k - i]
        coeffs.append(-s / k)
    return np.array(coeffs)


def eigenvalues_charpoly(h):
    """Eigenvalues as roots of the characteristic polynomial."""
    return np.roots(charpoly_coefficients(h))


def min_eig_hermitian_charpoly(h):
    """Minimum eigenvalue of a Hermitian matrix via the char-poly roots."""
    return float(np.min(eigenvalues_charpoly(h).real))


def covariance_from_quadratures(v):
    """Invert the quadrature-covariance construction: V -> complex C."""
    lambda0 = np.diag([-1.0, 1, 1, 1, 1, 1])
    w = lambda0 @ np.asarray(v, dtype=float) @ lambda0 / 2.0
    re = w[:3, :3]
    im = w[3:, :3]
    return re + 1j * im


def rk4_lyapunov(a, d, c0, tau, steps):
    """Reference fixed-step RK4 for dC/dt = A C + C A^dag + D."""
    a = np.asarray(a, dtype=complex)
    d = np.asarray(d, dtype=complex)
    c = np.asarray(c0, dtype=complex).copy()
    h = tau / steps
    a_dag = a.conj().T

    def f(x):
        return a @ x + x @ a_dag + d

    for _ in range(steps):
        k1 = f(c)
        k2 = f(c + 0.5 * h * k1)
        k3 = f(c + 0.5 * h * k2)
        k4 = f(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


def min_eig_hermitian_bisection(h):
    """Minimum eigenvalue of a Hermitian matrix by bisection on positive
    definiteness: H - s I has a Cholesky factor exactly when s < lambda_min.

    Uses no eigensolver.  Unlike the char-poly roots, its error (a few
    n eps ||H||) does not grow when eigenvalues cluster or repeat.
    """
    h = np.asarray(h, dtype=complex)
    h = 0.5 * (h + h.conj().T)
    eye = np.eye(h.shape[0])
    radius = float(np.abs(h).sum(axis=1).max())  # Gershgorin bound
    lo, hi = -radius - 1.0, radius + 1.0
    while hi - lo > 1e-14 * (radius + 1.0):
        mid = 0.5 * (lo + hi)
        try:
            np.linalg.cholesky(h - mid * eye)
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return 0.5 * (lo + hi)


# (row, column, [(sign, left entry, right entry), ...]) for each independent
# covariance element; entries index F_ORDER = (f11, f22, f33, f12, f13, f23)
# and the three terms carry the diffusion weights (gamma1, gamma2, kappa).
_ENTRYWISE_TERMS = (
    (0, 0, ((1.0, 0, 0), (1.0, 3, 3), (1.0, 4, 4))),
    (1, 1, ((1.0, 3, 3), (1.0, 1, 1), (1.0, 5, 5))),
    (2, 2, ((1.0, 4, 4), (1.0, 5, 5), (1.0, 2, 2))),
    (0, 1, ((-1.0, 0, 3), (1.0, 3, 1), (1.0, 4, 5))),
    (0, 2, ((1.0, 0, 4), (-1.0, 3, 5), (1.0, 4, 2))),
    (1, 2, ((-1.0, 3, 4), (-1.0, 1, 5), (1.0, 5, 2))),
)


def covariance_entrywise(spec, tau):
    """Covariance assembled element by element from the propagator entries.

    Each element is a weighted sum of products f_a(tau) f_b(tau)* and of
    their exact time integrals; an independent code path from
    ``covariance_closed`` sharing only the exponential-sum coefficients.
    """
    coeffs = propagator_coefficients(spec)
    lam = spec.lambdas
    exps = np.exp(lam * tau)
    weights = (spec.params.gamma1, spec.params.gamma2, spec.params.kappa)
    # cross-term kernels: products of exp(lambda_a tau) exp(lambda_b tau)*
    prod_kernel = np.outer(exps, exps.conj())
    int_kernel = np.array(
        [[_phi(lam[a] + lam[b].conjugate(), tau) for b in range(3)] for a in range(3)]
    )
    c = np.zeros((3, 3), dtype=complex)
    for row, col, terms in _ENTRYWISE_TERMS:
        value = 0.0 + 0.0j
        for weight, (sign, left, right) in zip(weights, terms):
            pair = np.outer(coeffs[left], coeffs[right].conj())
            value += sign * (
                weight * np.sum(pair * int_kernel) + 0.5 * np.sum(pair * prod_kernel)
            )
        c[row, col] = value
        c[col, row] = value.conjugate()
    return CovarianceState(tau=tau, c=c)


def effective_generator(spec):
    """Generator reconstructed from the spectral data: S^-1 diag(lambda) S.

    Its exponential reproduces the closed-form propagator; its trace is
    -(kappa + gamma1 + gamma2) - 2 i delta.
    """
    return spec.s_inverse @ np.diag(spec.lambdas) @ spec.s
