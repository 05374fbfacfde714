"""Physical quantities extracted from a covariance state.

With C_ii = 1/2 + <n_i>, the evolved modes carry chaotic (thermal)
statistics: the number variance is <n_i>(<n_i> + 1) and the normalized
autocorrelation g2 equals 2.  Cross correlations, two-mode number
squeezing and the density-grating contrast all reduce to second moments
through the Gaussian factorization of fourth-order moments,

    G_ijkl = C_ki C_lj + C_li C_kj.

Mode indices are one-based throughout (1, 2: atomic side modes; 3: cavity
field).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceState
from .dynamics import cubic_roots, gain
from .errors import NegativeOccupation, TricarlError, UndefinedCorrelation
from .model import ModelParams, derive

# occupations below this are treated as numerically zero in 0/0 ratios
ZERO_OCCUPATION = 1e-12
# covariance corruption thresholds
_IMAG_RESIDUE = 1e-9
_NEGATIVE_FLOOR = -1e-6

CROSS_PAIRS = ((1, 2), (1, 3), (2, 3))


def _matrix(cov: CovarianceState | np.ndarray) -> np.ndarray:
    if isinstance(cov, CovarianceState):
        return cov.c
    return np.asarray(cov, dtype=complex)


def _real(value: complex, what: str) -> float:
    """Drop a small imaginary residue; a large one means corrupted input."""
    if abs(value.imag) > _IMAG_RESIDUE * max(1.0, abs(value.real)):
        raise TricarlError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def occupations(cov: CovarianceState | np.ndarray) -> np.ndarray:
    """Mean occupations <n_i> = C_ii - 1/2 of the three modes.

    Small negative values (rounding below the vacuum floor) are clamped to
    zero; values below -1e-6 raise NegativeOccupation.
    """
    return _occupations(_matrix(cov))


def _occupations(c: np.ndarray) -> np.ndarray:
    n = np.array([_real(c[i, i], f"C[{i+1},{i+1}]") - 0.5 for i in range(3)])
    if np.any(n < _NEGATIVE_FLOOR):
        raise NegativeOccupation(f"occupations {n} below the vacuum floor")
    return np.maximum(n, 0.0)


def fourth_order(
    cov: CovarianceState | np.ndarray, i: int, j: int, k: int, l: int
) -> complex:
    """Gaussian fourth-order moment G_ijkl = C_ki C_lj + C_li C_kj."""
    for index in (i, j, k, l):
        if index not in (1, 2, 3):
            raise ValueError(f"mode index must be in 1..3, got {index!r}")
    c = _matrix(cov)
    i, j, k, l = i - 1, j - 1, k - 1, l - 1
    return c[k, i] * c[l, j] + c[l, i] * c[k, j]


def variances(cov: CovarianceState | np.ndarray) -> np.ndarray:
    """Number variances sigma^2(n_i), via the fourth-order moment
    <n_i^2> = G_iiii - <n_i> - 1/2; thermal states give n(n + 1)."""
    c = _matrix(cov)
    return _variances(c, _occupations(c))


def _variances(c: np.ndarray, n: np.ndarray) -> np.ndarray:
    out = np.empty(3)
    for i in range(3):
        second = _real(fourth_order(c, i + 1, i + 1, i + 1, i + 1), "G_iiii")
        out[i] = second - n[i] - 0.5 - n[i] ** 2
    return out


def g2_auto(cov: CovarianceState | np.ndarray, i: int) -> float:
    """Normalized autocorrelation <a+ a+ a a>/<n>^2 of mode i.

    The numerator G_iiii - 2 C_ii + 1/2 is evaluated in its factored form
    2 (C_ii - 1/2)^2 to avoid cancellation at small occupation.
    """
    c = _matrix(cov)
    n = _real(c[i - 1, i - 1], f"C[{i},{i}]") - 0.5
    if n <= ZERO_OCCUPATION:
        raise UndefinedCorrelation(f"mode {i} occupation {n:.3e} is zero")
    fourth = 2.0 * n * n  # G_iiii - 2 C_ii + 1/2, factored
    return fourth / (n * n)


def g2_cross(cov: CovarianceState | np.ndarray, i: int, j: int) -> float:
    """Cross correlation <n_i n_j>/(<n_i><n_j>) = 1 + |C_ij|^2/(<n_i><n_j>)."""
    if i == j:
        raise ValueError("use g2_auto for equal modes")
    c = _matrix(cov)
    return _g2_cross(c, _occupations(c), i, j)


def _g2_cross(c: np.ndarray, n: np.ndarray, i: int, j: int) -> float:
    if n[i - 1] <= ZERO_OCCUPATION or n[j - 1] <= ZERO_OCCUPATION:
        raise UndefinedCorrelation(
            f"modes ({i}, {j}) have occupations ({n[i - 1]:.3e}, {n[j - 1]:.3e})"
        )
    return 1.0 + abs(c[i - 1, j - 1]) ** 2 / (n[i - 1] * n[j - 1])


def squeezing_from_moments(
    n_i: float, n_j: float, var_i: float, var_j: float, cross_sq: float
) -> float | None:
    """Two-mode number squeezing from explicit moments.

    xi = [var_i + var_j - 2 |C_ij|^2] / (n_i + n_j); None (undefined, the
    vacuum 0/0) when the occupations vanish.  Independent coherent modes
    (var = n, no cross correlation) give exactly 1.
    """
    total = n_i + n_j
    if total <= ZERO_OCCUPATION:
        return None
    return (var_i + var_j - 2.0 * cross_sq) / total


def number_squeezing(cov: CovarianceState | np.ndarray, i: int, j: int) -> float | None:
    """Two-mode number squeezing xi_{i,j} of the evolved state; values
    below 1 mean occupation-difference fluctuations beat independent
    coherent beams.  None at vacuum."""
    c = _matrix(cov)
    n = _occupations(c)
    return _number_squeezing(c, n, _variances(c, n), i, j)


def _number_squeezing(
    c: np.ndarray, n: np.ndarray, var: np.ndarray, i: int, j: int
) -> float | None:
    return squeezing_from_moments(
        n[i - 1], n[j - 1], var[i - 1], var[j - 1], abs(c[i - 1, j - 1]) ** 2
    )


def bunching(cov: CovarianceState | np.ndarray, atom_number: float) -> float:
    """Density-grating contrast <B+ B> = (C11 + C22 + C12 + C21)/N."""
    if atom_number <= 0:
        raise ValueError(f"atom_number must be > 0, got {atom_number!r}")
    c = _matrix(cov)
    total = c[0, 0] + c[1, 1] + c[0, 1] + c[1, 0]
    return _real(total, "bunching moment") / atom_number


@dataclass(frozen=True)
class ModeObservables:
    """All scalar observables of one covariance state.

    ``g2_cross``, ``xi`` are ordered over the pairs (1,2), (1,3), (2,3);
    entries are None where the vacuum makes them undefined.
    """

    n: tuple[float, float, float]
    var_n: tuple[float, float, float]
    g2_auto: tuple[float | None, float | None, float | None]
    g2_cross: tuple[float | None, float | None, float | None]
    xi: tuple[float | None, float | None, float | None]
    bunching: float


def mode_observables(
    cov: CovarianceState | np.ndarray, atom_number: float = 1e6
) -> ModeObservables:
    """Evaluate every scalar observable, mapping undefined ones to None."""
    c = _matrix(cov)
    n = _occupations(c)
    var = _variances(c, n)
    autos = []
    for i in (1, 2, 3):
        try:
            autos.append(g2_auto(c, i))
        except UndefinedCorrelation:
            autos.append(None)
    crosses = []
    for i, j in CROSS_PAIRS:
        try:
            crosses.append(_g2_cross(c, n, i, j))
        except UndefinedCorrelation:
            crosses.append(None)
    xis = [_number_squeezing(c, n, var, i, j) for i, j in CROSS_PAIRS]
    return ModeObservables(
        n=tuple(n),
        var_n=tuple(var),
        g2_auto=tuple(autos),
        g2_cross=tuple(crosses),
        xi=tuple(xis),
        bunching=bunching(c, atom_number),
    )


def gain_curve(
    params: ModelParams, delta_grid: np.ndarray
) -> list[tuple[float, float]]:
    """Exponential gain versus detuning, one independent cubic solve per
    grid point."""
    gamma_plus = derive(params).gamma_plus
    out = []
    for delta in np.asarray(delta_grid, dtype=float):
        roots = cubic_roots(params.replace(delta=float(delta)))
        out.append((float(delta), gain(roots, gamma_plus)))
    return out
