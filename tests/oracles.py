"""Independent reference implementations used only for verification.

These deliberately avoid the code paths they check: the matrix exponential
is a plain scaling-and-squaring Taylor series (no spectral decomposition),
the Hermitian eigenvalue oracles go through characteristic-polynomial
coefficients obtained from power-sum traces or bisection on Cholesky
factorizations, and the quadrature-covariance round trip inverts the block
construction directly.  The entrywise covariance assembles C element by
element from the propagator entries, and the effective generator rebuilds A
from the spectral data.  The characteristic cubic's roots come from LAPACK
as eigenvalues of companion matrices (``companion_roots``), where the package
solves the cubic in closed form, and from mpmath at 50 digits
(``exact_roots``).

The separability and physicality tests are checked against the quadrature
basis (Simon, PRL 84, 2726 (2000)): the real 6x6 covariance V, the
symplectic form J, and from them V - iJ, the 6x6 partial-transpose matrices
Gamma_j and the 4x4 two-mode matrices S_ij, each sent whole to LAPACK by
``min_eig``, where the package reduces them to 3x3 and 2x2 blocks in the
mixed basis.

Further down are the single-state forms the package itself computes only
inside its array kernels: the eigensystem, the two covariance paths that
``covariance`` chooses between per row (the spectral closed form, and Van
Loan's noise integral with M from a separate ``scipy.linalg.expm``), the
gain over a detuning grid, fourth-order moments, squeezing from explicit
moments, and the row-by-row sweep evaluator and single-point report, which
run one grid value or one point through the raising one-state functions and
walk every nested float of the result for inf/NaN.
"""

import math

import mpmath
import numpy as np
from scipy.linalg import expm

from tricarl import (
    ModelParams,
    covariance,
    cubic_coefficients,
    cubic_roots,
    derive,
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
    _phi,
    _with_coherent_part,
    q_closed_form,
    q_quadrature,
)
from tricarl.dynamics import (
    _propagator_matrix,
    _require_regular,
    _spectral_stack,
    propagator_coefficients,
)
from tricarl.entanglement import HERMITICITY_TOL
from tricarl.errors import NonFinite, NotHermitian, TricarlError
from tricarl.model import ParamStack
from tricarl.observables import ZERO_OCCUPATION
from tricarl.sweep import _OBSERVABLES, _REGISTRY, _SEPARABILITY


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
    those of the whole 6x6 and 4x4 test matrices: 16 eps (1 + 2 max|C|), a
    few roundings on the scale of the test matrices' entries."""
    return 16.0 * np.finfo(float).eps * (1.0 + 2.0 * np.abs(c).max())


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


def companion_roots(coeffs):
    """Roots of monic cubics [1, c2, c1, c0] (last axis) as eigenvalues of
    their companion matrices, each polished by one Newton step, sorted by
    (Im, Re); NaN for non-finite coefficients."""
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


def exact_roots(coeffs):
    """Roots of one monic cubic [1, c2, c1, c0] from mpmath at 50 digits,
    rounded to complex and sorted by (Im, Re)."""
    with mpmath.workdps(50):
        coefficients = [mpmath.mpc(complex(c)) for c in coeffs]
        found = mpmath.polyroots(coefficients, maxsteps=200, extraprec=400)
    roots = np.array([complex(root) for root in found])
    return roots[np.lexsort((roots.real, roots.imag))]


def effective_generator(spec):
    """Generator reconstructed from the spectral data: S^-1 diag(lambda) S.

    Its exponential reproduces the closed-form propagator; its trace is
    -(kappa + gamma1 + gamma2) - 2 i delta.
    """
    return spec.s_inverse @ np.diag(spec.lambdas) @ spec.s


def eigensystem(omegas, params):
    """Similarity transform (S, S^-1) diagonalizing the drift generator,
    built on given roots.  Raises DegenerateSpectrum when two roots are
    closer than the threshold."""
    spec = _require_regular(*_spectral_stack(params, omegas))
    return spec.s, spec.s_inverse


def covariance_closed(params, tau):
    """Covariance from the matrix-form closed expression Q + M M^dag / 2,
    with Q from ``q_closed_form`` and the closed-form M.  Raises
    DegenerateSpectrum where two roots are too close for it."""
    spec = spectrum(params)
    q = q_closed_form(spec, tau).q
    return CovarianceState(tau=tau, c=_with_coherent_part(q, _propagator_matrix(spec, tau)))


def covariance_van_loan(params, tau):
    """Covariance from Van Loan's noise integral (``q_quadrature``) and
    M = expm(A tau) from scipy, not the M of the block exponential's own
    doublings that ``covariance`` uses on the rows it routes there."""
    m = expm(drift_generator(params) * tau)
    return CovarianceState(tau=tau, c=_with_coherent_part(q_quadrature(params, tau).q, m))


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


def evaluate_row(spec, value):
    """One sweep row through the one-state functions, each raising on the
    first guard it fails: the row-by-row evaluator the batched sweep
    replaced."""
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
            obs = mode_observables(state, spec.atom_number)
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
    except (TricarlError, ValueError, np.linalg.LinAlgError) as exc:
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
