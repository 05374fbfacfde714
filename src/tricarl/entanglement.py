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

from .covariance import CovarianceState
from .errors import NonFinite, NotHermitian, RegimeMismatch
from .model import ModelParams

_LAMBDA0 = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])

SYMPLECTIC_FORM = np.block(
    [[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
)

CLASS_FULLY_INSEPARABLE = "fully_inseparable"
CLASS_TWO_MODE_BISEPARABLE = "two_mode_biseparable"
CLASS_BISEPARABLE_OR_SEPARABLE = "biseparable_or_separable"


def quadrature_covariance(cov: CovarianceState | np.ndarray) -> np.ndarray:
    """Real 6x6 quadrature covariance V built from the complex covariance."""
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    re, im = c.real, c.imag
    block = np.block([[re, -im], [im, re]])
    return 2.0 * _LAMBDA0 @ block @ _LAMBDA0


def gamma_matrix(v: np.ndarray, j: int) -> np.ndarray:
    """Partial-transpose test matrix for factoring out mode j (1..3)."""
    if j not in (1, 2, 3):
        raise ValueError(f"mode index must be in 1..3, got {j!r}")
    flip = np.eye(6)
    flip[2 + j, 2 + j] = -1.0
    return flip @ v @ flip - 1j * SYMPLECTIC_FORM


def two_mode_matrix(v: np.ndarray, i: int, j: int) -> np.ndarray:
    """Separability test matrix of the partial trace over the mode not in
    (i, j): Gamma_i with the traced-out mode's rows and columns deleted."""
    if not (i in (1, 2, 3) and j in (1, 2, 3) and i < j):
        raise ValueError(f"need mode indices 1 <= i < j <= 3, got ({i!r}, {j!r})")
    k = ({1, 2, 3} - {i, j}).pop()
    keep = [m for m in range(6) if m not in (k - 1, k + 2)]
    return gamma_matrix(v, i)[np.ix_(keep, keep)]


def _min_eigenvalues(stack: np.ndarray, hermiticity_tol: float = 1e-8) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a (..., n, n) stack,
    from one batched LAPACK ``eigvalsh`` call.

    Raises NonFinite for inf or NaN entries and NotHermitian if any matrix
    has a Hermitian defect above ``hermiticity_tol * max(1, max|h|)``.
    """
    h = np.asarray(stack, dtype=complex)
    if not np.isfinite(h).all():
        raise NonFinite("test matrix has non-finite entries")
    h_dag = h.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    defect = np.abs(h - h_dag).max(axis=(-2, -1))
    if np.any(defect > hermiticity_tol * scale):
        raise NotHermitian(f"Hermitian defect {defect.max():.3e} exceeds tolerance")
    return np.linalg.eigvalsh(0.5 * (h + h_dag))[..., 0]


def min_eigenvalue_hermitian(
    h: np.ndarray, hermiticity_tol: float = 1e-8
) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(_min_eigenvalues(h, hermiticity_tol))


def physicality(v: np.ndarray) -> float:
    """Minimum eigenvalue of V - iJ; >= 0 (to rounding) for physical
    states, exactly 0 at vacuum."""
    return min_eigenvalue_hermitian(v - 1j * SYMPLECTIC_FORM)


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
    if not np.isfinite(eigs).all():
        raise NonFinite(f"minimum eigenvalues {eigs} are not finite")
    positive = [j for j in range(3) if eigs[j] >= -epsilon]
    if len(positive) == 0:
        return CLASS_FULLY_INSEPARABLE
    if len(positive) == 1:
        return f"one_mode_biseparable({positive[0] + 1})"
    if len(positive) == 2:
        return CLASS_TWO_MODE_BISEPARABLE
    return CLASS_BISEPARABLE_OR_SEPARABLE


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
    v = quadrature_covariance(cov)
    gammas = _min_eigenvalues(np.stack([gamma_matrix(v, j) for j in (1, 2, 3)]))
    pairs = _min_eigenvalues(
        np.stack([two_mode_matrix(v, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
    )
    return SeparabilityReport(
        min_eig_gamma=tuple(map(float, gammas)),
        min_eig_s=tuple(map(float, pairs)),
        class_label=classify(gammas, epsilon),
        epsilon=epsilon,
    )


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
