"""Physical quantities extracted from a covariance state.

With C_ii = 1/2 + <n_i>, the evolved modes carry chaotic (thermal)
statistics: the number variance is <n_i>(<n_i> + 1) and the normalized
autocorrelation g2 equals 2.  Cross correlations, two-mode number
squeezing and the density-grating contrast all reduce to second moments
through the Gaussian factorization of fourth-order moments,

    G_ijkl = C_ki C_lj + C_li C_kj.

Mode indices are one-based throughout (1, 2: atomic side modes; 3: cavity
field).

Every observable is taken on the Hermitian part that C's one check
returns (``covariance._hermitian_part``), past C's guards: a sweep's pass
makes that check on its stack, and ``mode_observables`` on a C from
outside the package (``_checked_covariance``).  An exact Hermitian part
has real C_ii and a real bunching moment, so the one guard of the
observables is the vacuum floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceState, _checked_covariance
from .errors import NonFinite, _check, raise_failure

# occupations below this are treated as numerically zero in 0/0 ratios
ZERO_OCCUPATION = 1e-12
# the vacuum floor: the occupation below which a covariance is corrupted
_NEGATIVE_FLOOR = -1e-6
# the atom number that the bunching observable is divided by, by default
ATOM_NUMBER = 1e6

CROSS_PAIRS = ((1, 2), (1, 3), (2, 3))
_FIRST, _SECOND = np.array(CROSS_PAIRS).T - 1  # zero-based modes of CROSS_PAIRS


def _vacuum_floor(c: np.ndarray) -> tuple:
    """The guard of a (..., 3, 3) stack of covariances against occupations
    C_ii - 1/2 below the vacuum floor; every pass with a state output and
    ``mode_observables`` run it."""
    raw = np.diagonal(c, axis1=-2, axis2=-1).real - 0.5
    return "negative_occupation", (raw < _NEGATIVE_FLOOR).any(axis=-1)


def _check_atom_number(atom_number: float) -> None:
    """The one check of an atom number, made where a user passes it in."""
    _check(0 < atom_number < np.inf, "atom_number", atom_number, "finite and > 0")


def _observable_stack(c: np.ndarray, atom_number: float) -> dict:
    """Every observable of a (..., 3, 3) stack of Hermitian covariances,
    whose guard is ``_vacuum_floor``; ``atom_number`` is a checked one
    (``_check_atom_number``).

    Maps the ModeObservables field names, in their order, to
    ``(values, defined)`` pairs: modes or CROSS_PAIRS run along the last
    axis, and ``defined`` is False where the vacuum makes a ratio 0/0.

    Occupations C_ii - 1/2 are clamped at zero.  The number variance
    G_iiii - n - 1/2 - n^2 equals n (n + 1) exactly; the factored form keeps
    the digits the difference loses near vacuum, where G_iiii is about 1/2.
    The g2_auto numerator G_iiii - 2 C_ii + 1/2 is likewise taken as 2 n^2.
    """
    n = np.maximum(np.diagonal(c, axis1=-2, axis2=-1).real - 0.5, 0.0)
    moment = c[..., 0, 0] + c[..., 1, 1] + c[..., 0, 1] + c[..., 1, 0]
    var = n * (n + 1.0)
    auto_defined = ~(n <= ZERO_OCCUPATION)
    n_i, n_j = n[..., _FIRST], n[..., _SECOND]
    cross_sq = np.abs(c[..., _FIRST, _SECOND]) ** 2
    cross_defined = ~((n_i <= ZERO_OCCUPATION) | (n_j <= ZERO_OCCUPATION))
    xi_defined = ~(n_i + n_j <= ZERO_OCCUPATION)
    xi = (var[..., _FIRST] + var[..., _SECOND] - 2.0 * cross_sq) / np.where(
        xi_defined, n_i + n_j, 1.0
    )
    return {
        "n": (n, True),
        "var_n": (var, True),
        "g2_auto": (2.0 * n * n / np.where(auto_defined, n * n, 1.0), auto_defined),
        "g2_cross": (1.0 + cross_sq / np.where(cross_defined, n_i * n_j, 1.0), cross_defined),
        "xi": (xi, xi_defined),
        "bunching": (moment.real / atom_number, True),
    }


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
    cov: CovarianceState | np.ndarray, atom_number: float = ATOM_NUMBER
) -> ModeObservables:
    """Evaluate every scalar observable of one covariance, mapping undefined
    ones to None.  Raises InvalidSpec for a bad ``atom_number``, the error of
    C's check (``_checked_covariance``), then NegativeOccupation below the
    vacuum floor, then NonFinite where a defined observable is inf or NaN:
    a sweep row's checks, in its order."""
    _check_atom_number(atom_number)
    c = _checked_covariance(cov, "covariance")
    raise_failure([_vacuum_floor(c)], "covariance")
    with np.errstate(all="ignore"):  # overflow reads inf or NaN, which the check below reports
        fields = _observable_stack(c, atom_number)
    _check_finite(**{name: value[ok] for name, (value, ok) in fields.items()})
    return ModeObservables(**_defined_cells(fields, tuple))


def _check_finite(**sections) -> None:
    """Raise NonFinite naming, in order, the sections that hold an inf or NaN."""
    bad = [name for name, numbers in sections.items() if not np.isfinite(numbers).all()]
    if bad:
        raise NonFinite(f"non-finite result in {', '.join(bad)}")


def _defined_cells(fields: dict, sequence) -> dict:
    """One state's ``_observable_stack`` fields, each a ``sequence`` with
    None where undefined, except bunching, a float."""
    cells = {}
    for name, (value, defined) in fields.items():
        cell = value.tolist()
        if defined is not True:
            cell = [v if d else None for v, d in zip(cell, defined.tolist())]
        cells[name] = cell if name == "bunching" else sequence(cell)
    return cells

