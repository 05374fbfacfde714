"""Three- and two-mode separability tests on the quadrature covariance.

The complex covariance C of (a1*, a2, a3) maps to a real symmetric 6x6
matrix V in the quadrature ordering (x1, x2, x3, y1, y2, y3):

    V = 2 L0 [[Re C, -Im C], [Im C, Re C]] L0,   L0 = diag(-1,1,1,1,1,1),

the sign flip undoing the conjugation of the first mode.  A physical state
satisfies V - iJ >= 0 with J the symplectic block form.  Mode j can be
factored out of the three-mode state only if the partial-transpose test
matrix

    Gamma_j = L_j V L_j - iJ      (L_j flips the j-th momentum quadrature)

is positive semidefinite; the pattern of negative minimum eigenvalues
classifies the state.  Two-mode tests on partial traces delete the rows
and columns of the traced-out mode from Gamma_i, which for Gaussian states
is necessary and sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceState, _hermitian_guards, _hermitian_part
from .errors import RegimeMismatch, first_failure, raise_failure
from .model import ModelParams

# sign flips of x1 (undoing the conjugation of mode 1) and, per row j, of
# the momentum quadrature y_j that the partial transpose of mode j flips
_FLIP_X1 = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
_FLIP_Y = 1.0 - 2.0 * np.eye(3, 6, 3)
# rows and columns of Gamma_i kept by S_12, S_13, S_23 (i = 1, 1, 2)
_PAIR_PARENT = np.array([0, 0, 1])[:, np.newaxis, np.newaxis]
_PAIR_KEEP = np.array([[0, 1, 3, 4], [0, 2, 3, 5], [1, 2, 4, 5]])

SYMPLECTIC_FORM = np.block(
    [[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
)
# Hermitian defect, relative to max(1, max|entry|), a test matrix may carry
HERMITICITY_TOL = 1e-8

CLASS_FULLY_INSEPARABLE = "fully_inseparable"
CLASS_TWO_MODE_BISEPARABLE = "two_mode_biseparable"
CLASS_BISEPARABLE_OR_SEPARABLE = "biseparable_or_separable"
# class label by the bit pattern of factorizable modes (bit j: mode j + 1)
_CLASS_LABELS = np.array(
    [
        CLASS_FULLY_INSEPARABLE,
        "one_mode_biseparable(1)",
        "one_mode_biseparable(2)",
        CLASS_TWO_MODE_BISEPARABLE,
        "one_mode_biseparable(3)",
        CLASS_TWO_MODE_BISEPARABLE,
        CLASS_TWO_MODE_BISEPARABLE,
        CLASS_BISEPARABLE_OR_SEPARABLE,
    ],
    dtype=object,
)


def quadrature_covariance(cov: CovarianceState | np.ndarray) -> np.ndarray:
    """Real 6x6 quadrature covariance V built from the complex covariance
    (one per covariance of a stack)."""
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    re, im = c.real, c.imag
    block = np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)
    return 2.0 * block * _FLIP_X1[:, np.newaxis] * _FLIP_X1


def _gammas(v: np.ndarray, modes) -> np.ndarray:
    """Partial-transpose test matrices Gamma_j, j in ``modes``, stacked on
    the axis before the matrix axes."""
    flips = _FLIP_Y[np.asarray(modes) - 1]
    return flips[:, :, np.newaxis] * v[..., np.newaxis, :, :] * flips[:, np.newaxis, :] - (
        1j * SYMPLECTIC_FORM
    )


def gamma_matrix(v: np.ndarray, j: int) -> np.ndarray:
    """Partial-transpose test matrix for factoring out mode j (1..3)."""
    if j not in (1, 2, 3):
        raise ValueError(f"mode index must be in 1..3, got {j!r}")
    return _gammas(v, [j])[..., 0, :, :]


def _test_matrices(cov) -> tuple[np.ndarray, np.ndarray]:
    """Gamma_1..3 (..., 3, 6, 6) and S_12, S_13, S_23 (..., 3, 4, 4) of a
    covariance or a stack of them."""
    gammas = _gammas(quadrature_covariance(cov), [1, 2, 3])
    keep = _PAIR_KEEP[:, :, np.newaxis], _PAIR_KEEP[:, np.newaxis, :]
    return gammas, gammas[..., _PAIR_PARENT, keep[0], keep[1]]


def two_mode_matrix(v: np.ndarray, i: int, j: int) -> np.ndarray:
    """Separability test matrix of the partial trace over the mode not in
    (i, j): Gamma_i with the traced-out mode's rows and columns deleted."""
    if not (i in (1, 2, 3) and j in (1, 2, 3) and i < j):
        raise ValueError(f"need mode indices 1 <= i < j <= 3, got ({i!r}, {j!r})")
    keep = _PAIR_KEEP[((1, 2), (1, 3), (2, 3)).index((i, j))]
    return gamma_matrix(v, i)[np.ix_(keep, keep)]


def _min_eigenvalue_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of the Hermitian part of each matrix in a
    (..., n, n) stack, from one batched LAPACK ``eigvalsh`` call, and each
    matrix's Hermitian defect relative to max(1, max|h|) (NaN for inf or
    NaN entries).  A matrix whose defect exceeds HERMITICITY_TOL reads 0."""
    hermitian, defect = _hermitian_part(stack)
    usable = (defect <= HERMITICITY_TOL)[..., np.newaxis, np.newaxis]
    return np.linalg.eigvalsh(np.where(usable, hermitian, 0.0))[..., 0], defect


def _min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a (..., n, n) stack.

    Raises NonFinite for inf or NaN entries and NotHermitian if any matrix
    has a Hermitian defect above ``HERMITICITY_TOL * max(1, max|h|)``.
    """
    eigs, defect = _min_eigenvalue_stack(stack)
    raise_failure(first_failure(*_hermitian_guards(defect.max(), HERMITICITY_TOL)), "test matrix")
    return eigs


def min_eigenvalue_hermitian(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(_min_eigenvalues(h))


def physicality(v: np.ndarray) -> float:
    """Minimum eigenvalue of V - iJ; >= 0 (to rounding) for physical
    states, exactly 0 at vacuum."""
    return min_eigenvalue_hermitian(v - 1j * SYMPLECTIC_FORM)


def _classes(gamma_min_eigs: np.ndarray, epsilon: float):
    """Class label of each set of three Gamma minimum eigenvalues on the last
    axis, and the guard against non-finite ones (see ``first_failure``).
    Raises ValueError for an ``epsilon`` that is not finite and >= 0."""
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    labels = _CLASS_LABELS[(gamma_min_eigs >= -epsilon) @ np.array([1, 2, 4])]
    return labels, ("non_finite", ~np.isfinite(gamma_min_eigs).all(axis=-1))


def classify(gamma_min_eigs: np.ndarray, epsilon: float = 1e-9) -> str:
    """Separability class label from the three Gamma_j minimum eigenvalues.

    "negative" means < -epsilon; mode j counts as factorizable otherwise.
    All negative: fully inseparable.  One factorizable: that mode is
    biseparable (label carries its index).  Two: two-mode biseparable.
    All three: biseparable or separable (the Gamma tests cannot tell the
    two apart).
    """
    eigs = np.asarray(gamma_min_eigs, dtype=float)
    if eigs.shape != (3,):
        raise ValueError("expected three minimum eigenvalues")
    label, finite = _classes(eigs, epsilon)
    raise_failure(first_failure(finite), "minimum eigenvalues")
    return label


@dataclass(frozen=True)
class SeparabilityReport:
    """Minimum eigenvalues of the three-mode and two-mode test matrices
    and the resulting class label."""

    min_eig_gamma: tuple[float, float, float]
    min_eig_s: tuple[float, float, float]  # pairs (1,2), (1,3), (2,3)
    class_label: str
    epsilon: float


def separability_report(
    cov: CovarianceState | np.ndarray, epsilon: float = 1e-9
) -> SeparabilityReport:
    """Run all separability tests on one covariance state."""
    gammas, pairs, label, status = _separability_stack(cov, epsilon)
    raise_failure(status, "separability tests")
    return SeparabilityReport(
        min_eig_gamma=tuple(gammas.tolist()),
        min_eig_s=tuple(pairs.tolist()),
        class_label=label,
        epsilon=epsilon,
    )


def _separability_stack(cov, epsilon: float):
    """The separability tests of a covariance or a (..., 3, 3) stack of them.

    Returns the Gamma_j and S_ij minimum eigenvalues (..., 3) each, the
    class labels (an object array) and each state's status: the first of
    the Gamma_j guards, the S_ij guards (see ``_hermitian_guards``) and the
    guard against non-finite Gamma_j minimum eigenvalues that it fails.
    """
    gamma_stack, pair_stack = _test_matrices(cov)
    gammas, gamma_defect = _min_eigenvalue_stack(gamma_stack)
    pairs, pair_defect = _min_eigenvalue_stack(pair_stack)
    labels, finite = _classes(gammas, epsilon)
    status = first_failure(
        *_hermitian_guards(gamma_defect.max(axis=-1), HERMITICITY_TOL),
        *_hermitian_guards(pair_defect.max(axis=-1), HERMITICITY_TOL),
        finite,
    )
    return gammas, pairs, labels, status


def asymptotic_eta(params: ModelParams, regime: str) -> tuple[float, float]:
    """Long-time minimum eigenvalues (eta_12, eta_13) of the two-mode tests
    in the ideal lossless dynamics.

    In the high-gain semi-classical limit (rho >> 1):
    eta_12 = -rho/(1 + rho), eta_13 = -4/(4 + rho); in the quantum limit
    (rho < 1): eta_12 = -rho^3/(4 + rho^3), eta_13 = -16/(16 + rho^3).
    """
    rho = params.rho
    if regime == "semiclassical":
        if rho < 10.0:
            raise RegimeMismatch(f"semiclassical asymptotics need rho >> 1, got {rho!r}")
        return -rho / (1.0 + rho), -4.0 / (4.0 + rho)
    if regime == "quantum":
        if rho >= 1.0:
            raise RegimeMismatch(f"quantum asymptotics need rho < 1, got {rho!r}")
        return -(rho**3) / (4.0 + rho**3), -16.0 / (16.0 + rho**3)
    raise ValueError(f"regime must be 'semiclassical' or 'quantum', got {regime!r}")
