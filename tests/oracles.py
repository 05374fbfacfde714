"""Independent reference implementations used only for verification.

Each quantity the tests check has one reference, and it avoids the code
path it checks.  The matrix exponential is scipy's Pade ``expm``, where the
package sums a Taylor series.  The cubic's roots come from mpmath at 50
digits (``exact_roots``), where the package solves the cubic in closed
form.  The quadrature-covariance round trip inverts the block construction
directly.

The separability and physicality tests are checked against the quadrature
basis (Simon, PRL 84, 2726 (2000)): the real 6x6 covariance V, the
symplectic form J, and from them V - iJ, the 6x6 partial-transpose matrices
Gamma_j and the 4x4 two-mode matrices S_ij, each sent whole to LAPACK by
``min_eig``, where the package reduces them to 3x3 and 2x2 blocks in the
mixed basis.  The minima of those blocks come from ``mpmath.eighe`` at a
chosen number of digits (``mp_min_eigs``; ``mp_min_eig`` for one matrix).

The moment equation has two kinds of reference.  ``rk4_lyapunov``
integrates dC/dtau = A C + C A^dag + D step by step with fixed-step RK4,
the one reference that does not use Van Loan's block.  mpmath forms of Van
Loan's block (``mp_covariance``) and of the stationary 9x9 system
(``mp_steady_state``, ``mp_lyapunov``) work at a chosen number of digits.
The lossless propagator's unitarity relations are evaluated at high
precision on its float entries (``mp_unitarity_defect``).

Further down are the eigenvector closed form the package computed before
its Newton form (``covariance_closed``: the eigensystem S, S^-1 of the
drift generator, the exponential-sum coefficients of the propagator and the
noise integral in the eigenbasis, which need separated roots), Van Loan's
noise integral with M from a separate ``scipy.linalg.expm``, and the
single-state forms the package computes only inside its array kernels: the
gain over a detuning grid, fourth-order moments, squeezing from explicit
moments, and the row-by-row sweep evaluator and single-point report, which
run one grid value or one point through the raising one-state functions and
walk every nested float of the result for inf/NaN.
"""

import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import expm

from tricarl import (
    ModelParams,
    covariance,
    cubic_coefficients,
    cubic_roots,
    derive,
    diffusion_matrix,
    drift_generator,
    gain,
    mode_observables,
    ode_oracle,
    separability_report,
    solve_cubic,
    spectrum,
)
from tricarl.covariance import (
    CovarianceState,
    _newton_form,
    _phi,
    _with_coherent_part,
    q_quadrature,
)
from tricarl.entanglement import HERMITICITY_TOL
from tricarl.errors import NonFinite, NotHermitian, TricarlError, raise_failure
from tricarl.model import ParamStack
from tricarl.observables import (
    ZERO_OCCUPATION,
    ModeObservables,
    _defined_cells,
    _observable_stack,
)
from tricarl.sweep import _OBSERVABLES, _REGISTRY, _SEPARABILITY


# sign flip of x1, undoing the conjugation of mode 1
_FLIP_X1 = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
SYMPLECTIC_FORM = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]])


def quadrature_covariance(cov):
    """Real 6x6 quadrature covariance V = 2 L0 [[Re C, -Im C], [Im C, Re C]] L0
    in the ordering (x1, x2, x3, y1, y2, y3), L0 = diag(-1, 1, 1, 1, 1, 1),
    of a covariance (one per covariance of a stack)."""
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    re, im = c.real, c.imag
    block = np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)
    return 2.0 * block * _FLIP_X1[:, np.newaxis] * _FLIP_X1


def min_eig(h):
    """Smallest eigenvalue of a Hermitian matrix, or of each of a (..., n, n)
    stack, from LAPACK ``eigvalsh`` on the Hermitian part (h + h^dag)/2.

    Raises NonFinite for inf or NaN entries and NotHermitian where
    max|h - h^dag| exceeds HERMITICITY_TOL * max(1, max|h|), the checks the
    package applies to its test matrices.
    """
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
        raise NonFinite("test matrix has non-finite entries")
    h_dag = h.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    if (np.abs(h - h_dag).max(axis=(-2, -1)) > HERMITICITY_TOL * scale).any():
        raise NotHermitian("test matrix is not Hermitian")
    return np.linalg.eigvalsh(0.5 * (h + h_dag))[..., 0]


def physicality_6x6(cov):
    """Minimum eigenvalue of the whole 6x6 V - iJ of a covariance."""
    return float(min_eig(quadrature_covariance(cov) - 1j * SYMPLECTIC_FORM))


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


def _mp_generator(params):
    """Drift generator A and diffusion matrix D as mpmath matrices, built from
    the parameters at the working precision."""
    rho, delta, gamma1, gamma2, kappa = map(mpmath.mpf, params.to_dict().values())
    coupling = mpmath.sqrt(rho / 2)
    a = mpmath.matrix(
        [
            [-gamma1 - 1j * (delta - 1 / rho), 0, coupling],
            [0, -gamma2 - 1j * (delta + 1 / rho), -coupling],
            [coupling, coupling, -kappa],
        ]
    )
    return a, mpmath.diag([gamma1, gamma2, kappa])


def mp_covariance(params, tau, dps):
    """Covariance C = Q + M M^dag / 2 evolved from vacuum for a finite tau,
    at ``dps`` digits, rounded to complex.

    Van Loan's block [[A, D], [0, -A^dag]] t through ``mpmath.expm`` over the
    package's step t = tau / 2^k (|A|_1 t <= 1/2, |A|_1 from the float
    generator) gives M(t) and Q(t) = F12 M(t)^dag; k doublings
    M(2t) = M(t)^2, Q(2t) = Q(t) + M(t) Q(t) M(t)^dag then reach tau.  The
    decaying and growing halves cancel digits, so pick ``dps`` by raising it
    until two settings agree to the digits a test asserts.
    """
    scaled = float(np.abs(drift_generator(params)).sum(axis=0).max()) * tau
    doublings = max(0, math.frexp(scaled)[1] + 1) if tau > 0 else 0
    with mpmath.workdps(dps):
        a, d = _mp_generator(params)
        step = mpmath.mpf(tau) / 2**doublings
        block = mpmath.zeros(6)
        block[0:3, 0:3] = a * step
        block[0:3, 3:6] = d * step
        block[3:6, 3:6] = -a.H * step
        exp_block = mpmath.expm(block)
        m = exp_block[0:3, 0:3]
        q = exp_block[0:3, 3:6] * m.H
        for _ in range(doublings):
            q = q + m * q * m.H
            m = m * m
        c = q + m * m.H / 2
        return np.array([[complex(c[i, j]) for j in range(3)] for i in range(3)])


def mp_lyapunov(a, d, dps):
    """Solution C of A C + C A^dag + D = 0 for 3x3 A and D (numpy arrays,
    taken exactly, or mpmath matrices) at ``dps`` digits, rounded to complex:
    the 9x9 system (kron(A, I) + kron(I, A*)) vec C = -vec D on the row-major
    vec C, solved with ``mpmath.lu_solve``."""
    with mpmath.workdps(dps):
        lyapunov = mpmath.zeros(9)
        for i, j, k in itertools.product(range(3), repeat=3):
            lyapunov[3 * i + j, 3 * k + j] += a[i, k]
            lyapunov[3 * i + j, 3 * i + k] += mpmath.conj(a[j, k])
        vec = mpmath.lu_solve(lyapunov, -mpmath.matrix([d[k // 3, k % 3] for k in range(9)]))
        return np.array([complex(vec[k]) for k in range(9)]).reshape(3, 3)


def mp_steady_state(params, dps):
    """Stationary covariance at ``dps`` digits, rounded to complex:
    ``mp_lyapunov`` of the generator and diffusion matrix built from the
    parameters at that precision.  Meaningful only where every mode decays."""
    with mpmath.workdps(dps):
        return mp_lyapunov(*_mp_generator(params), dps)


def mp_min_eig(h, dps):
    """Smallest eigenvalue of the Hermitian part (h + h^dag)/2 of a square
    matrix (an array, taken exactly, or nested lists of mpmath numbers) from
    ``mpmath.eighe`` at ``dps`` digits, rounded to float."""
    with mpmath.workdps(dps):
        h = mpmath.matrix(np.asarray(h).tolist() if isinstance(h, np.ndarray) else h)
        return float(min(mpmath.eighe((h + h.H) / 2, eigvals_only=True)))


# Sigma of the blocks 2H +- Sigma of Gamma_1, Gamma_2, Gamma_3 and V - iJ
_BLOCK_SIGMAS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (-1, 1, 1))
# modes of S_12, S_13, S_23 and the Gamma_j whose blocks they cut
_PAIR_BLOCKS = (((0, 1), 0), ((0, 2), 0), ((1, 2), 1))


def mp_min_eigs(cov, dps):
    """Minimum eigenvalues of Gamma_1..3, S_12, S_13, S_23 and the V - iJ
    floor of a covariance, at ``dps`` digits, rounded to float: the 3x3
    blocks 2H +- Sigma and their 2x2 pair sub-blocks (the mixed-basis
    reduction of ``tricarl.entanglement``), with H = (C + C^dag)/2 formed
    from C taken exactly."""
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    with mpmath.workdps(dps):
        c = mpmath.matrix(c.tolist())
        h2 = c + c.H

        def block_min(sigma, keep):
            return min(
                mp_min_eig([[h2[i, j] + sign * sigma[i] * (i == j) for j in keep] for i in keep], dps)
                for sign in (1, -1)
            )

        blocks = [block_min(sigma, range(3)) for sigma in _BLOCK_SIGMAS]
        pairs = [block_min(_BLOCK_SIGMAS[parent], keep) for keep, parent in _PAIR_BLOCKS]
    return (*blocks[:3], *pairs, blocks[3])


def mp_unitarity_defect(m, dps):
    """Largest defect of the six lossless unitarity relations of a
    propagator M (|f11|^2 - 1 = |f12|^2 + |f13|^2 and its companions),
    evaluated at ``dps`` digits on M's float entries taken exactly, so the
    reading is M's own rounding, not the check's."""
    with mpmath.workdps(dps):
        (f11, f12, f13), (_, f22, f23), (_, _, f33) = (map(mpmath.mpc, row) for row in m.tolist())
        checks = [
            abs(f13) ** 2 + 1 - abs(f23) ** 2 - abs(f33) ** 2,
            abs(f11) ** 2 - 1 - abs(f12) ** 2 - abs(f13) ** 2,
            abs(f12) ** 2 + 1 - abs(f22) ** 2 - abs(f23) ** 2,
            f11 * mpmath.conj(f13) + f12 * mpmath.conj(f23) - f13 * mpmath.conj(f33),
            -f11 * mpmath.conj(f12) - f12 * mpmath.conj(f22) - f13 * mpmath.conj(f23),
            -f12 * mpmath.conj(f13) + f22 * mpmath.conj(f23) - f23 * mpmath.conj(f33),
        ]
        return float(max(map(abs, checks)))


# per row j, the sign flip of the momentum quadrature y_j that the partial
# transpose of mode j flips
_FLIP_Y = 1.0 - 2.0 * np.eye(3, 6, 3)
# rows and columns of Gamma_i kept by S_12, S_13, S_23 (i = 1, 1, 2)
_PAIR_PARENT = np.array([0, 0, 1])[:, np.newaxis, np.newaxis]
_PAIR_KEEP = np.array([[0, 1, 3, 4], [0, 2, 3, 5], [1, 2, 4, 5]])


def _gammas(v, modes):
    """Partial-transpose test matrices Gamma_j, j in ``modes``, stacked on
    the axis before the matrix axes."""
    flips = _FLIP_Y[np.asarray(modes) - 1]
    return flips[:, :, np.newaxis] * v[..., np.newaxis, :, :] * flips[:, np.newaxis, :] - (
        1j * SYMPLECTIC_FORM
    )


def gamma_matrix(v, j):
    """Partial-transpose test matrix for factoring out mode j (1..3)."""
    if j not in (1, 2, 3):
        raise ValueError(f"mode index must be in 1..3, got {j!r}")
    return _gammas(v, [j])[..., 0, :, :]


def _test_matrices(cov):
    """Gamma_1..3 (..., 3, 6, 6) and S_12, S_13, S_23 (..., 3, 4, 4) of a
    covariance or a stack of them."""
    gammas = _gammas(quadrature_covariance(cov), [1, 2, 3])
    keep = _PAIR_KEEP[:, :, np.newaxis], _PAIR_KEEP[:, np.newaxis, :]
    return gammas, gammas[..., _PAIR_PARENT, keep[0], keep[1]]


def two_mode_matrix(v, i, j):
    """Separability test matrix of the partial trace over the mode not in
    (i, j): Gamma_i with the traced-out mode's rows and columns deleted."""
    if not (i in (1, 2, 3) and j in (1, 2, 3) and i < j):
        raise ValueError(f"need mode indices 1 <= i < j <= 3, got ({i!r}, {j!r})")
    keep = _PAIR_KEEP[((1, 2), (1, 3), (2, 3)).index((i, j))]
    return gamma_matrix(v, i)[np.ix_(keep, keep)]


def mixed_basis_bound(c):
    """How far the package's mixed-basis minimum eigenvalues may lie from
    those of the whole 6x6 and 4x4 test matrices, or from the blocks' own
    at high precision (``mp_min_eigs``): 16 eps (1 + 2 max|C|), a few
    roundings on the scale of the test matrices' entries."""
    return 16.0 * np.finfo(float).eps * (1.0 + 2.0 * np.abs(c).max())


def exact_roots(coeffs):
    """Roots of one monic cubic [1, c2, c1, c0] from mpmath at 50 digits,
    rounded to complex and sorted by (Im, Re)."""
    with mpmath.workdps(50):
        coefficients = [mpmath.mpc(complex(c)) for c in coeffs]
        found = mpmath.polyroots(coefficients, maxsteps=200, extraprec=400)
    roots = np.array([complex(root) for root in found])
    return roots[np.lexsort((roots.real, roots.imag))]


# M[r, c] = sign * f_k with k = _M_ENTRY[r, c] indexing the propagator
# entries f11, f22, f33, f12, f13, f23
_M_ENTRY = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_M_SIGN = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])


@dataclass(frozen=True)
class _EigenSpectrum:
    """Roots of the characteristic cubic and the eigensystem built on them.

    Columns of ``s_inverse`` are the right eigenvectors of the generator;
    ``s`` is its inverse (det(s) = 1 with the normalization used here).
    ``deltas[j]`` is the product of root differences (w_j - w_k)(w_j - w_m),
    the partial-fraction denominator of the eigenvector closed form.
    """

    params: ModelParams
    omegas: np.ndarray
    lambdas: np.ndarray
    s: np.ndarray
    s_inverse: np.ndarray
    deltas: np.ndarray


def _eigen_spectrum(params):
    """The eigensystem of the drift generator on the package's roots: the
    spectral data of the eigenvector closed form, which the package computed
    before the Newton form replaced it.

    Column j of S^-1 is the eigenvector

        a_j = N_j ( i sqrt(rho/2) (w_j + beta),
                   -i sqrt(rho/2) (w_j - beta),
                    beta^2 - w_j^2 ),

    with N_1 = 1/(w_2 - w_3) and cyclic; this normalization gives
    det(S) = 1.  Raises ZeroDivisionError where two roots coincide; near
    such a point S^-1 is ill-conditioned and the form loses digits.
    """
    w = cubic_roots(params)
    w0, w1, w2 = w
    if min(abs(w0 - w1), abs(w0 - w2), abs(w1 - w2)) == 0:
        raise ZeroDivisionError("two roots coincide: the eigenvectors are not a basis")
    dp = derive(params)
    coupling = math.sqrt(params.rho / 2.0)
    norms = 1.0 / np.array([w1 - w2, w0 - w2, w0 - w1])
    s_inverse = norms * np.array(
        [1j * coupling * (w + dp.beta), -1j * coupling * (w - dp.beta), dp.beta**2 - w**2]
    )
    deltas = np.array([(w0 - w1) * (w0 - w2), (w1 - w0) * (w1 - w2), (w2 - w0) * (w2 - w1)])
    lambdas = 1j * (w - params.delta) - dp.gamma_plus
    return _EigenSpectrum(params, w, lambdas, np.linalg.inv(s_inverse), s_inverse, deltas)


def _propagator_coefficients(spec):
    """Exponential-sum coefficients F of the six propagator entries.

    Row k (f11, f22, f33, f12, f13, f23) satisfies
    f_k(tau) = sum_j F[k, j] * exp(lambda_j * tau).
    """
    w = spec.omegas
    dp = derive(spec.params)
    alpha, beta, rho = dp.alpha, dp.beta, spec.params.rho
    coupling = math.sqrt(rho / 2.0)
    numerators = np.array(
        [
            (w - alpha) * (w + beta) - rho / 2.0,  # f11
            (w - alpha) * (w - beta) + rho / 2.0,  # f22
            w**2 - beta**2,  # f33
            np.full(3, -rho / 2.0 + 0j),  # f12
            -1j * coupling * (w + beta),  # f13
            1j * coupling * (w - beta),  # f23
        ]
    )
    return numerators / spec.deltas


def _eigen_propagator(spec, tau):
    """The eigenvector closed form of M(tau): each entry a three-term
    exponential sum over the roots, with the sign pattern

        M = [[ f11,  f12, f13],
             [-f12,  f22, f23],
             [ f13, -f23, f33]]."""
    entries = _propagator_coefficients(spec) @ np.exp(spec.lambdas * tau)
    return entries[_M_ENTRY] * _M_SIGN


def _eigen_noise(spec, tau):
    """Noise matrix of the eigenvector closed form: with D~ = S D S^dag,
    Q~_ij = D~_ij (exp((l_i + l_j*) tau) - 1)/(l_i + l_j*) and
    Q = S^-1 Q~ (S^-1)^dag."""
    d_tilde = spec.s @ diffusion_matrix(spec.params) @ spec.s.conj().T
    sums = spec.lambdas[:, np.newaxis] + spec.lambdas[np.newaxis, :].conj()
    return spec.s_inverse @ (d_tilde * _phi(sums, tau)) @ spec.s_inverse.conj().T


def covariance_closed(params, tau):
    """Covariance from the eigenvector closed form Q + M M^dag / 2
    (``_eigen_noise`` and ``_eigen_propagator``), which needs separated
    roots."""
    spec = _eigen_spectrum(params)
    q = _eigen_noise(spec, tau)
    return CovarianceState(tau=tau, c=_with_coherent_part(q, _eigen_propagator(spec, tau)))


def newton_propagator(params, tau):
    """The package's M(tau), the Newton form on ``spectrum(params)``."""
    return _newton_form(params, spectrum(params), tau)[1]


def covariance_van_loan(params, tau):
    """Covariance from Van Loan's noise integral (``q_quadrature``) and
    M = expm(A tau) from scipy, not the M of the block exponential's own
    doublings that ``ode_oracle`` uses."""
    m = expm(drift_generator(params) * tau)
    return CovarianceState(tau=tau, c=_with_coherent_part(q_quadrature(params, tau), m))


def gains_over_delta(params, deltas):
    """Gain at each detuning of a grid from one stacked cubic solve, as the
    gain column of a delta sweep computes it."""
    stack = ParamStack(**{**params.to_dict(), "delta": np.asarray(deltas, dtype=float)})
    dp = derive(stack)
    return gain(solve_cubic(cubic_coefficients(dp, stack.rho)), dp.gamma_plus)


def fourth_order(cov, i, j, k, l):
    """Gaussian fourth-order moment G_ijkl = C_ki C_lj + C_li C_kj (one per
    covariance of a stack)."""
    for index in (i, j, k, l):
        if index not in (1, 2, 3):
            raise ValueError(f"mode index must be in 1..3, got {index!r}")
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    # [()] makes scalars of a single covariance's entries: scalar products
    # commute exactly, which the index symmetries of G rely on
    pairs = ((k, i), (l, j), (l, i), (k, j))
    c_ki, c_lj, c_li, c_kj = (c[..., row - 1, col - 1][()] for row, col in pairs)
    return c_ki * c_lj + c_li * c_kj


def squeezing_from_moments(n_i, n_j, var_i, var_j, cross_sq):
    """Two-mode number squeezing from explicit moments.

    xi = [var_i + var_j - 2 |C_ij|^2] / (n_i + n_j); None (undefined, the
    vacuum 0/0) when the occupations vanish.  Independent coherent modes
    (var = n, no cross correlation) give exactly 1.
    """
    total = n_i + n_j
    if total <= ZERO_OCCUPATION:
        return None
    return (var_i + var_j - 2.0 * cross_sq) / total


def spec_point(spec, value):
    """Model parameters and evolution time at one grid value of a sweep."""
    fields, tau = spec.fixed.to_dict(), spec.tau
    if spec.axis == "tau":
        tau = float(value)
    elif spec.axis == "gamma":
        fields.update(gamma1=float(value), gamma2=float(value))
    else:
        fields[spec.axis] = float(value)
    return ModelParams(**fields), tau


def _non_finite_fields(value, path=""):
    """Paths of the inf/NaN floats in a (nested) dict or list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite_fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _non_finite_fields(item, f"{path}[{index}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path


def _require_finite(record):
    """Return ``record``; raise NonFinite naming the path of every inf/NaN
    float in it."""
    bad = list(_non_finite_fields(record))
    if bad:
        raise NonFinite(f"non-finite result in {', '.join(bad)}")
    return record


def _requested_observables(state, atom_number):
    """``mode_observables`` without its final check that every defined cell
    is finite: a sweep row checks only the cells it asks for."""
    with np.errstate(all="ignore"):
        fields, guards = _observable_stack(state.c, atom_number)
    raise_failure(guards, "covariance")
    return ModeObservables(**_defined_cells(fields, tuple))


def evaluate_row(spec, value):
    """One sweep row through the one-state functions, each raising on the
    first guard it fails (the observables without ``mode_observables``'
    check of the cells the row does not ask for): the row-by-row evaluator
    the batched sweep replaced.  A LAPACK error propagates: it ends the
    package's sweep too."""
    row = {spec.axis: float(value)}
    for name in spec.outputs:
        row[name] = None
    status = "ok"
    try:
        params, tau = spec_point(spec, value)
        if "gain" in spec.outputs:
            row["gain"] = gain(cubic_roots(params), derive(params).gamma_plus)
        last = max(_REGISTRY[name][0] for name in spec.outputs)
        if last >= _OBSERVABLES:
            state = covariance(params, float(tau))
            obs = _requested_observables(state, spec.atom_number)
            values = {
                "n1": obs.n[0],
                "n2": obs.n[1],
                "n3": obs.n[2],
                "xi12": obs.xi[0],
                "xi13": obs.xi[1],
                "xi23": obs.xi[2],
                "g2_12": obs.g2_cross[0],
                "g2_13": obs.g2_cross[1],
                "g2_23": obs.g2_cross[2],
                "bunching": obs.bunching,
            }
            if last == _SEPARABILITY:
                report = separability_report(state, spec.epsilon)
                values.update(
                    {
                        "mineig_gamma1": report.min_eig_gamma[0],
                        "mineig_gamma2": report.min_eig_gamma[1],
                        "mineig_gamma3": report.min_eig_gamma[2],
                        "mineig_s12": report.min_eig_s[0],
                        "mineig_s13": report.min_eig_s[1],
                        "mineig_s23": report.min_eig_s[2],
                        "class": report.class_label,
                    }
                )
            requested = {name: values[name] for name in spec.outputs if name in values}
            row.update(_require_finite(requested))
    except np.linalg.LinAlgError:
        raise  # a ValueError, but not a row status
    except (TricarlError, ValueError) as exc:
        status = getattr(exc, "code", "error")
    row["status"] = status
    return row


def point_report(params, tau, atom_number=1e6, epsilon=1e-9, oracle=False):
    """The single-point report of ``evolve_point`` composed from the raising
    one-state functions (``covariance``, ``mode_observables``,
    ``separability_report``), with the cubic solved again for the gain and
    physicality from the whole 6x6 V - iJ."""
    state = covariance(params, tau)
    obs = mode_observables(state, atom_number)
    report = separability_report(state, epsilon)
    roots = cubic_roots(params)
    out = {
        "params": params.to_dict(),
        "tau": tau,
        "atom_number": atom_number,
        "covariance": {
            "real": state.c.real.tolist(),
            "imag": state.c.imag.tolist(),
        },
        "gain": gain(roots, derive(params).gamma_plus),
        "observables": {
            "n": list(obs.n),
            "var_n": list(obs.var_n),
            "g2_auto": list(obs.g2_auto),
            "g2_cross": list(obs.g2_cross),
            "xi": list(obs.xi),
            "bunching": obs.bunching,
        },
        "separability": {
            "min_eig_gamma": list(report.min_eig_gamma),
            "min_eig_s": list(report.min_eig_s),
            "class": report.class_label,
            "epsilon": report.epsilon,
        },
        "physicality": physicality_6x6(state),
    }
    if oracle:
        reference = ode_oracle(params, tau)
        out["oracle_max_abs_diff"] = float(np.abs(state.c - reference.c).max())
    return _require_finite(out)
