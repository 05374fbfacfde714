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

from .covariance import CovarianceState, _covariance_matrix
from .errors import NonFinite, raise_failure

# occupations below this are treated as numerically zero in 0/0 ratios
ZERO_OCCUPATION = 1e-12
# covariance corruption thresholds
_IMAG_RESIDUE = 1e-9
_NEGATIVE_FLOOR = -1e-6
# the atom number that the bunching observable is divided by, by default
ATOM_NUMBER = 1e6

CROSS_PAIRS = ((1, 2), (1, 3), (2, 3))
_FIRST = np.array([0, 0, 1])  # zero-based modes of CROSS_PAIRS
_SECOND = np.array([1, 2, 2])


def _residue(value) -> np.ndarray:
    """Where a should-be-real value carries an imaginary residue large
    enough to mean corrupted input."""
    value = np.asarray(value)
    return np.abs(value.imag) > _IMAG_RESIDUE * np.fmax(1.0, np.abs(value.real))


def _vacuum_floor(c: np.ndarray) -> tuple:
    """The guard of a (..., 3, 3) stack of covariances against occupations
    C_ii - 1/2 below the vacuum floor; every pass with a state output runs it."""
    raw = np.diagonal(c, axis1=-2, axis2=-1).real - 0.5
    return "negative_occupation", (raw < _NEGATIVE_FLOOR).any(axis=-1)


def _observable_guards(c: np.ndarray) -> list:
    """Ordered guards of the observables of a C from outside the package: an
    imaginary residue on C_ii ("error"), the vacuum floor, then a residue on
    G_iiii = 2 C_ii^2 or on the bunching moment ("error").  A pass's C, an
    exact Hermitian part, has no residue: those parts are 0, or NaN."""
    diag = np.diagonal(c, axis1=-2, axis2=-1)
    return [
        ("error", _residue(diag).any(axis=-1)),
        _vacuum_floor(c),
        ("error", _residue(2.0 * (diag * diag)).any(axis=-1)),
        ("error", _residue(c[..., 0, 0] + c[..., 1, 1] + c[..., 0, 1] + c[..., 1, 0])),
    ]


def _check_atom_number(atom_number: float, error: type = ValueError) -> None:
    """Raise ``error`` for an atom number that is not finite and > 0: the one
    check of the value, made where a user passes it in."""
    if not 0 < atom_number < np.inf:
        raise error(f"atom_number must be finite and > 0, got {atom_number!r}")


def _observable_stack(c: np.ndarray, atom_number: float) -> dict:
    """Every observable of a (..., 3, 3) stack of covariances, whose guards
    are ``_observable_guards``; ``atom_number`` is a checked one
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
    ones to None.  Raises ValueError for a bad ``atom_number``, the error of
    the first guard of ``_observable_guards`` that the covariance fails,
    then NonFinite where a defined observable is inf or NaN."""
    c = _covariance_matrix(cov)
    _check_atom_number(atom_number)
    with np.errstate(all="ignore"):  # overflow reads inf or NaN, which the guards report
        fields = _observable_stack(c, atom_number)
        guards = _observable_guards(c)
    raise_failure(guards, "covariance")
    bad = [name for name, (value, ok) in fields.items() if not np.isfinite(value[ok]).all()]
    if bad:
        raise NonFinite(f"non-finite result in {', '.join(bad)}")
    return ModeObservables(**_defined_cells(fields, tuple))


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

