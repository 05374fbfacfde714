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
_FIRST = np.array([0, 0, 1])  # zero-based modes of CROSS_PAIRS
_SECOND = np.array([1, 2, 2])


def _matrix(cov: CovarianceState | np.ndarray) -> np.ndarray:
    if isinstance(cov, CovarianceState):
        return cov.c
    return np.asarray(cov, dtype=complex)


def _residue(value) -> np.ndarray:
    """Where a should-be-real value carries an imaginary residue large
    enough to mean corrupted input."""
    value = np.asarray(value)
    return np.abs(value.imag) > _IMAG_RESIDUE * np.fmax(1.0, np.abs(value.real))


def _reject_residue(residue, what: str) -> None:
    if np.any(residue):
        raise TricarlError(f"{what} has an imaginary residue above {_IMAG_RESIDUE:g}")


def _occupation_parts(c: np.ndarray):
    """Occupations C_ii - 1/2 of a (..., 3, 3) stack, clamped at zero, with
    the C_ii residue flags and the flags of values below the vacuum floor."""
    diag = np.diagonal(c, axis1=-2, axis2=-1)
    n = diag.real - 0.5
    return np.maximum(n, 0.0), _residue(diag), n < _NEGATIVE_FLOOR


def occupations(cov: CovarianceState | np.ndarray) -> np.ndarray:
    """Mean occupations <n_i> = C_ii - 1/2 of the three modes.

    Small negative values (rounding below the vacuum floor) are clamped to
    zero; values below -1e-6 raise NegativeOccupation.
    """
    return _occupations(_matrix(cov))


def _occupations(c: np.ndarray) -> np.ndarray:
    n, residue, below_floor = _occupation_parts(c)
    _reject_residue(residue, "covariance diagonal")
    if np.any(below_floor):
        raise NegativeOccupation(f"occupations {c.diagonal().real - 0.5} below the vacuum floor")
    return n


def fourth_order(
    cov: CovarianceState | np.ndarray, i: int, j: int, k: int, l: int
) -> complex:
    """Gaussian fourth-order moment G_ijkl = C_ki C_lj + C_li C_kj (one per
    covariance of a stack)."""
    for index in (i, j, k, l):
        if index not in (1, 2, 3):
            raise ValueError(f"mode index must be in 1..3, got {index!r}")
    c = _matrix(cov)
    # [()] makes scalars of a single covariance's entries: scalar products
    # commute exactly, which the index symmetries of G rely on
    pairs = ((k, i), (l, j), (l, i), (k, j))
    c_ki, c_lj, c_li, c_kj = (c[..., row - 1, col - 1][()] for row, col in pairs)
    return c_ki * c_lj + c_li * c_kj


def _variance_parts(c: np.ndarray, n: np.ndarray):
    """Number variances of a (..., 3, 3) stack from the clamped occupations,
    with the residue flags of G_iiii."""
    second = np.stack([fourth_order(c, i, i, i, i) for i in (1, 2, 3)], axis=-1)
    return second.real - n - 0.5 - n**2, _residue(second)


def variances(cov: CovarianceState | np.ndarray) -> np.ndarray:
    """Number variances sigma^2(n_i), via the fourth-order moment
    <n_i^2> = G_iiii - <n_i> - 1/2; thermal states give n(n + 1)."""
    c = _matrix(cov)
    return _variances(c, _occupations(c))


def _variances(c: np.ndarray, n: np.ndarray) -> np.ndarray:
    var, residue = _variance_parts(c, n)
    _reject_residue(residue, "G_iiii")
    return var


def g2_auto(cov: CovarianceState | np.ndarray, i: int) -> float:
    """Normalized autocorrelation <a+ a+ a a>/<n>^2 of mode i.

    The numerator G_iiii - 2 C_ii + 1/2 is evaluated in its factored form
    2 (C_ii - 1/2)^2 to avoid cancellation at small occupation.
    """
    c = _matrix(cov)
    _reject_residue(_residue(c[i - 1, i - 1]), f"C[{i},{i}]")
    n = c[i - 1, i - 1].real - 0.5
    if n <= ZERO_OCCUPATION:
        raise UndefinedCorrelation(f"mode {i} occupation {n:.3e} is zero")
    fourth = 2.0 * n * n  # G_iiii - 2 C_ii + 1/2, factored
    return fourth / (n * n)


def _cross_parts(c: np.ndarray, n: np.ndarray):
    """Cross correlations over CROSS_PAIRS for a (..., 3, 3) stack, the
    mask of where they are defined, and the |C_ij|^2 they are built on."""
    cross_sq = np.abs(c[..., _FIRST, _SECOND]) ** 2
    n_i, n_j = n[..., _FIRST], n[..., _SECOND]
    defined = ~((n_i <= ZERO_OCCUPATION) | (n_j <= ZERO_OCCUPATION))
    return 1.0 + cross_sq / np.where(defined, n_i * n_j, 1.0), defined, cross_sq


def _xi_parts(n: np.ndarray, var: np.ndarray, cross_sq: np.ndarray):
    """Number squeezing over CROSS_PAIRS and the mask of where it is defined."""
    n_i, n_j = n[..., _FIRST], n[..., _SECOND]
    return _squeezing(n_i, n_j, var[..., _FIRST], var[..., _SECOND], cross_sq)


def _pair_index(i: int, j: int) -> int:
    if i == j:
        raise ValueError("use g2_auto for equal modes")
    return CROSS_PAIRS.index((min(i, j), max(i, j)))


def g2_cross(cov: CovarianceState | np.ndarray, i: int, j: int) -> float:
    """Cross correlation <n_i n_j>/(<n_i><n_j>) = 1 + |C_ij|^2/(<n_i><n_j>)."""
    pair = _pair_index(i, j)
    c = _matrix(cov)
    n = _occupations(c)
    g2, defined, _ = _cross_parts(c, n)
    if not defined[pair]:
        raise UndefinedCorrelation(
            f"modes ({i}, {j}) have occupations ({n[i - 1]:.3e}, {n[j - 1]:.3e})"
        )
    return g2[pair]


def _squeezing(n_i, n_j, var_i, var_j, cross_sq):
    total = n_i + n_j
    defined = np.logical_not(total <= ZERO_OCCUPATION)
    return (var_i + var_j - 2.0 * cross_sq) / np.where(defined, total, 1.0), defined


def squeezing_from_moments(
    n_i: float, n_j: float, var_i: float, var_j: float, cross_sq: float
) -> float | None:
    """Two-mode number squeezing from explicit moments.

    xi = [var_i + var_j - 2 |C_ij|^2] / (n_i + n_j); None (undefined, the
    vacuum 0/0) when the occupations vanish.  Independent coherent modes
    (var = n, no cross correlation) give exactly 1.
    """
    xi, defined = _squeezing(n_i, n_j, var_i, var_j, cross_sq)
    return float(xi) if defined else None


def number_squeezing(cov: CovarianceState | np.ndarray, i: int, j: int) -> float | None:
    """Two-mode number squeezing xi_{i,j} of the evolved state; values
    below 1 mean occupation-difference fluctuations beat independent
    coherent beams.  None at vacuum."""
    pair = _pair_index(i, j)
    c = _matrix(cov)
    n = _occupations(c)
    _, _, cross_sq = _cross_parts(c, n)
    xi, defined = _xi_parts(n, _variances(c, n), cross_sq)
    return xi[pair] if defined[pair] else None


def _bunching_parts(c: np.ndarray, atom_number: float):
    total = c[..., 0, 0] + c[..., 1, 1] + c[..., 0, 1] + c[..., 1, 0]
    return total.real / atom_number, _residue(total)


def bunching(cov: CovarianceState | np.ndarray, atom_number: float) -> float:
    """Density-grating contrast <B+ B> = (C11 + C22 + C12 + C21)/N."""
    if atom_number <= 0:
        raise ValueError(f"atom_number must be > 0, got {atom_number!r}")
    value, residue = _bunching_parts(_matrix(cov), atom_number)
    _reject_residue(residue, "bunching moment")
    return float(value)


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
    g2, g2_defined, cross_sq = _cross_parts(c, n)
    xi, xi_defined = _xi_parts(n, var, cross_sq)
    return ModeObservables(
        n=tuple(n),
        var_n=tuple(var),
        g2_auto=tuple(autos),
        g2_cross=tuple(v if d else None for v, d in zip(g2, g2_defined)),
        xi=tuple(v if d else None for v, d in zip(xi, xi_defined)),
        bunching=bunching(c, atom_number),
    )


def _observable_stack(c: np.ndarray, atom_number: float):
    """The ``mode_observables`` of a (..., 3, 3) stack of covariances.

    Returns ``(columns, ok)``: ``columns`` maps the sweep names n1..n3,
    xi12.., g2_12.. and bunching to ``(values, defined)`` arrays, and ``ok``
    masks the states for which ``mode_observables`` raises nothing.
    """
    n, residue, below_floor = _occupation_parts(c)
    var, second_residue = _variance_parts(c, n)
    g2, g2_defined, cross_sq = _cross_parts(c, n)
    xi, xi_defined = _xi_parts(n, var, cross_sq)
    value, bunching_residue = _bunching_parts(c, atom_number)
    ok = ~(residue | below_floor | second_residue).any(axis=-1) & ~bunching_residue
    columns = {"bunching": (value, True)}
    for k in range(3):
        columns[f"n{k + 1}"] = (n[..., k], True)
        i, j = CROSS_PAIRS[k]
        columns[f"xi{i}{j}"] = (xi[..., k], xi_defined[..., k])
        columns[f"g2_{i}{j}"] = (g2[..., k], g2_defined[..., k])
    return columns, ok


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
