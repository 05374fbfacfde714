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

The state has no anomalous moments <u_i u_j>, so the fixed unitary
(x, y) -> (x +- iy)/sqrt(2) splits each 6x6 matrix into two 3x3 blocks
2H + Sigma and 2H - Sigma, H = (C + C^dag)/2: Sigma = I for Gamma_1,
diag(-1, -1, 1) for Gamma_2, diag(-1, 1, -1) for Gamma_3 and diag(-1, 1, 1)
for V - iJ.  S_12, S_13 (S_23) are 2x2 blocks of Gamma_1's (Gamma_2's)
blocks, whose minimum is (a + d)/2 - hypot((a - d)/2, |b|).  The 6x6
construction is the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceState, _dagger, _hermitian_guards
from .errors import RegimeMismatch, first_failure, raise_failure
from .model import ModelParams

# Sigma of the blocks 2H +- Sigma of Gamma_1, Gamma_2, Gamma_3 and V - iJ, and
# the shifts diag(Sigma), then diag(-Sigma), of the Gamma_j and V - iJ blocks
_SIGMA = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])
_GAMMA_SHIFTS, _PHYSICAL_SHIFTS = (
    np.concatenate([s, -s])[:, :, np.newaxis] * np.eye(3) for s in (_SIGMA[:3], _SIGMA[3:])
)
# modes (i, j) of S_12, S_13, S_23 and their 2x2 blocks of C; |s + t|/2 and
# |s - t|/2 of each pair's Sigma = (s, t): (1, 1), (1, 1), (-1, 1)
_PAIRS = np.array([[0, 1], [0, 2], [1, 2]])
_BLOCK_ROWS, _BLOCK_COLS = _PAIRS[:, [0, 0, 1, 1]], _PAIRS[:, [0, 1, 0, 1]]
_PAIR_MEAN_SHIFT, _PAIR_SPLIT = np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])

# Hermitian defect, relative to max(1, max|entry|), a test matrix may carry
HERMITICITY_TOL = 1e-8

CLASS_FULLY_INSEPARABLE = "fully_inseparable"
CLASS_TWO_MODE_BISEPARABLE = "two_mode_biseparable"
CLASS_BISEPARABLE_OR_SEPARABLE = "biseparable_or_separable"
# class label by the bit pattern of factorizable modes (bit j: mode j + 1)
_CLASS_LABELS = np.array(
    [
        CLASS_FULLY_INSEPARABLE, "one_mode_biseparable(1)", "one_mode_biseparable(2)",
        CLASS_TWO_MODE_BISEPARABLE, "one_mode_biseparable(3)", CLASS_TWO_MODE_BISEPARABLE,
        CLASS_TWO_MODE_BISEPARABLE, CLASS_BISEPARABLE_OR_SEPARABLE,
    ],
    dtype=object,
)


def _block_minima(h2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue (..., k) of each 6x6 test matrix whose blocks are
    h2 + shifts[m] and h2 + shifts[k + m], from one batched 3x3 ``eigvalsh``."""
    eigs = np.linalg.eigvalsh(h2[..., np.newaxis, :, :] + shifts)[..., 0]
    return np.minimum(eigs[..., : len(shifts) // 2], eigs[..., len(shifts) // 2 :])


def _pair_minima(h2: np.ndarray) -> np.ndarray:
    """S_12, S_13, S_23 minimum eigenvalues (..., 3) of each 2H in a stack:
    of a pair's blocks [[a +- s, b], [b*, d +- t]], one of s + t and s - t
    is 0, so the smaller closed-form minimum is
    (a + d)/2 - |s + t|/2 - hypot(|a - d|/2 + |s - t|/2, |b|)."""
    diagonal = h2.diagonal(axis1=-2, axis2=-1).real
    a, d = diagonal[..., _PAIRS[:, 0]], diagonal[..., _PAIRS[:, 1]]
    coupling = np.abs(h2[..., _PAIRS[:, 0], _PAIRS[:, 1]])
    return 0.5 * (a + d) - _PAIR_MEAN_SHIFT - np.hypot(0.5 * np.abs(a - d) + _PAIR_SPLIT, coupling)


def _physicality_floor(c: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of V - iJ of each covariance of a (..., 3, 3)
    stack, from its two 3x3 mixed-basis blocks; its guards are Gamma_j's."""
    return _block_minima(c + _dagger(c), _PHYSICAL_SHIFTS)[..., 0]


def physicality(cov: CovarianceState | np.ndarray) -> float:
    """Minimum eigenvalue of V - iJ; >= 0 (to rounding) for physical
    states, exactly 0 at vacuum.  Raises the error of the first Gamma_j
    guard of ``separability_report`` that the covariance fails."""
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    guards = _hermitian_guards(_test_defects(c)[0], HERMITICITY_TOL)
    raise_failure(first_failure(*guards), "physicality test")
    return float(_physicality_floor(c))


def _test_defects(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian defects (see ``_hermitian_part``) of the Gamma_j (..., all
    three alike) and S_12, S_13, S_23 (..., 3) test matrices, from C alone:
    max(|Re D|, |Im D|), D = 2C - (2C)^dag, over the largest |Re 2C_kl|,
    |Im 2C_kl| (k != l) and |Im 2C_kk + i|, for k, l in all modes or the
    pair's own.  A non-finite entry makes that largest size inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = 2.0 * c
        d = c2 - _dagger(c2)
        excess = np.maximum(np.abs(d.real), np.abs(d.imag))[..., _BLOCK_ROWS, _BLOCK_COLS]
        size = np.maximum(np.abs(c2.real), np.abs(c2.imag + 1j * np.eye(3)))
        excess, size = excess.max(-1), size[..., _BLOCK_ROWS, _BLOCK_COLS].max(-1)
        gamma = np.where(np.isfinite(size).all(-1), excess.max(-1) / size.max(-1), np.nan)
        return gamma, np.where(np.isfinite(size), excess / size, np.nan)


def _classes(gamma_min_eigs: np.ndarray, epsilon: float):
    """Class label of each set of three Gamma minimum eigenvalues on the last
    axis, and the guard against non-finite ones (see ``first_failure``).
    Raises ValueError for an ``epsilon`` that is not finite and >= 0.

    Mode j counts as factorizable unless its minimum is below -epsilon.
    None factorizable: fully inseparable; one: that mode is biseparable (the
    label carries its index); two: two-mode biseparable; all three:
    biseparable or separable, which the Gamma tests cannot tell apart.
    """
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    labels = _CLASS_LABELS[(gamma_min_eigs >= -epsilon) @ np.array([1, 2, 4])]
    return labels, ("non_finite", ~np.isfinite(gamma_min_eigs).all(axis=-1))


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
    return SeparabilityReport(tuple(gammas.tolist()), tuple(pairs.tolist()), label, epsilon)


def _separability_stack(cov, epsilon: float):
    """The separability tests of a covariance or a (..., 3, 3) stack of them.

    Returns the Gamma_j and S_ij minimum eigenvalues (..., 3) each, the
    class labels (an object array) and each state's status: the first of
    the Gamma_j guards, the S_ij guards (see ``_hermitian_guards``) and the
    guard against non-finite Gamma_j minimum eigenvalues that it fails.
    Where a guard fails, the Gamma_j of the state or that S_ij alone read 0.
    """
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    gamma_defect, pair_defect = _test_defects(c)
    h2 = c + _dagger(c)
    h2 = np.where(np.isfinite(h2), h2, 0.0)  # kept from eigvalsh; such tests read 0
    usable = (gamma_defect <= HERMITICITY_TOL)[..., np.newaxis]
    gammas = np.where(usable, _block_minima(h2, _GAMMA_SHIFTS), 0.0)
    pairs = np.where(pair_defect <= HERMITICITY_TOL, _pair_minima(h2), 0.0)
    labels, finite = _classes(gammas, epsilon)
    status = first_failure(
        *_hermitian_guards(gamma_defect, HERMITICITY_TOL),
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
