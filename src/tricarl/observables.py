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
from .errors import NonFinite, first_failure, raise_failure

# occupations below this are treated as numerically zero in 0/0 ratios
ZERO_OCCUPATION = 1e-12
# covariance corruption thresholds
_IMAG_RESIDUE = 1e-9
_NEGATIVE_FLOOR = -1e-6

CROSS_PAIRS = ((1, 2), (1, 3), (2, 3))
_FIRST = np.array([0, 0, 1])  # zero-based modes of CROSS_PAIRS
_SECOND = np.array([1, 2, 2])
# the ModeObservables fields, in their order
_FIELDS = ("n", "var_n", "g2_auto", "g2_cross", "xi", "bunching")


def _residue(value) -> np.ndarray:
    """Where a should-be-real value carries an imaginary residue large
    enough to mean corrupted input."""
    value = np.asarray(value)
    return np.abs(value.imag) > _IMAG_RESIDUE * np.fmax(1.0, np.abs(value.real))


def _observable_stack(c: np.ndarray, atom_number: float, names=_FIELDS):
    """The observables ``names`` (all by default) of a (..., 3, 3) stack of
    covariances, and each state's status.

    Returns ``(fields, status)``.  ``fields`` maps ModeObservables field
    names, in the order of ``_FIELDS``, to ``(values, defined)`` pairs: the
    requested ones, n and bunching always, and var_n with xi.  Modes or
    CROSS_PAIRS run along the last axis, and ``defined`` is False where the
    vacuum makes a ratio 0/0.  The status does not depend on ``names``: it
    is the first guard the state fails, "ok" if none: an imaginary residue
    on C_ii ("error"), an occupation below the vacuum floor
    ("negative_occupation"), then a residue on G_iiii = 2 C_ii^2 or on the
    bunching moment ("error").  Raises ValueError for an ``atom_number``
    that is not finite and > 0.

    Occupations C_ii - 1/2 are clamped at zero.  The number variance
    G_iiii - n - 1/2 - n^2 equals n (n + 1) exactly; the factored form keeps
    the digits the difference loses near vacuum, where G_iiii is about 1/2.
    The g2_auto numerator G_iiii - 2 C_ii + 1/2 is likewise taken as 2 n^2.
    """
    if not 0 < atom_number < np.inf:
        raise ValueError(f"atom_number must be finite and > 0, got {atom_number!r}")
    diag = np.diagonal(c, axis1=-2, axis2=-1)
    raw = diag.real - 0.5
    moment = c[..., 0, 0] + c[..., 1, 1] + c[..., 0, 1] + c[..., 1, 0]
    status = first_failure(
        ("error", _residue(diag).any(axis=-1)),
        ("negative_occupation", (raw < _NEGATIVE_FLOOR).any(axis=-1)),
        ("error", _residue(2.0 * (diag * diag)).any(axis=-1)),
        ("error", _residue(moment)),
    )
    n = np.maximum(raw, 0.0)
    fields = {"n": (n, True)}
    if "var_n" in names or "xi" in names:
        var = n * (n + 1.0)
        fields["var_n"] = (var, True)
    if "g2_auto" in names:
        auto_defined = ~(n <= ZERO_OCCUPATION)
        fields["g2_auto"] = (2.0 * n * n / np.where(auto_defined, n * n, 1.0), auto_defined)
    if "g2_cross" in names or "xi" in names:
        n_i, n_j = n[..., _FIRST], n[..., _SECOND]
        cross_sq = np.abs(c[..., _FIRST, _SECOND]) ** 2
    if "g2_cross" in names:
        cross_defined = ~((n_i <= ZERO_OCCUPATION) | (n_j <= ZERO_OCCUPATION))
        ratio = cross_sq / np.where(cross_defined, n_i * n_j, 1.0)
        fields["g2_cross"] = (1.0 + ratio, cross_defined)
    if "xi" in names:
        xi_defined = ~(n_i + n_j <= ZERO_OCCUPATION)
        xi = (var[..., _FIRST] + var[..., _SECOND] - 2.0 * cross_sq) / np.where(
            xi_defined, n_i + n_j, 1.0
        )
        fields["xi"] = (xi, xi_defined)
    fields["bunching"] = (moment.real / atom_number, True)
    return fields, status


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
    """Evaluate every scalar observable of one covariance, mapping undefined
    ones to None; raises the error of the first guard of
    ``_observable_stack`` that the covariance fails, then NonFinite where
    a defined observable is inf or NaN."""
    c = cov.c if isinstance(cov, CovarianceState) else np.asarray(cov, dtype=complex)
    with np.errstate(all="ignore"):  # overflow reads inf or NaN, which the guards report
        fields, status = _observable_stack(c, atom_number)
    raise_failure(status, "covariance")
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

