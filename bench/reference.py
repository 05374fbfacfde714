"""Independent references for the benchmark's correctness checks.

Everything here is computed with numpy and scipy built-ins straight from the
model equations, without calling tricarl:

- covariance: Van Loan's block exponential (C. F. Van Loan, IEEE TAC 23, 395
  (1978)): expm([[A, D], [0, -A^H]] t) holds M = exp(A t) in its top-left
  block and Q(t) M^-H in its top-right block, for any spectrum, degenerate
  ones included; C = Q + M M^H / 2;
- gain: the largest real part of ``eigvals(A)``;
- separability minimum eigenvalues and the physicality floor: ``eigvalsh`` of
  the test matrices built from the reference covariance.

A checked value's relative error is its distance from the reference divided
by the scale on which the reference itself is accurate (see each check).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# A row passes its reference check when every value is within this relative
# error.  Near the exceptional point the closed form keeps about 8.5 digits,
# so this tolerance passes it while still catching wrong results.
CHECK_RTOL = 1e-6
# Relative errors below this count as exact (caps accuracy_digits at 16).
_ERROR_FLOOR = 1e-16

_FLIP_X1 = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
_SYMPLECTIC = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
_PAIRS = ((1, 2), (1, 3), (2, 3))


def digits(rel_error: float) -> float:
    """Correct decimal digits of a value with the given relative error; none
    for a non-finite error, which a NaN or infinite value produces."""
    if not math.isfinite(rel_error):
        return 0.0
    return -math.log10(max(rel_error, _ERROR_FLOOR))


def drift(p: dict) -> np.ndarray:
    """Generator A of the first moments of (a1*, a2, a3)."""
    rho, delta = p["rho"], p["delta"]
    g = math.sqrt(rho / 2.0)
    return np.array(
        [
            [-p["gamma1"] - 1j * (delta - 1.0 / rho), 0.0, g],
            [0.0, -p["gamma2"] - 1j * (delta + 1.0 / rho), -g],
            [g, g, -p["kappa"]],
        ],
        dtype=complex,
    )


def covariance(p: dict, tau: float) -> np.ndarray:
    """Covariance evolved from vacuum.

    Van Loan's block exponential gives M and Q over a short step
    t = tau / 2^k with ||A|| t <= 1/2; the semigroup identities
    M(2t) = M(t)^2 and Q(2t) = Q(t) + M(t) Q(t) M(t)^H then double the step
    k times.  Taking the whole of tau in one block exponential would pass
    through exp(-A^H tau), which grows like exp(kappa tau) for a strongly
    damped mode and costs digits (6.7e-6 relative at kappa = 5, tau = 5);
    the doubling adds only positive semidefinite terms.
    """
    a = drift(p)
    k = max(0, math.ceil(math.log2(2.0 * np.linalg.norm(a, 1) * tau))) if tau > 0 else 0
    step = tau / 2.0**k
    block = np.zeros((6, 6), dtype=complex)
    block[:3, :3] = a
    block[:3, 3:] = np.diag([p["gamma1"], p["gamma2"], p["kappa"]])
    block[3:, 3:] = -a.conj().T
    e = expm(block * step)
    m = e[:3, :3]
    q = e[:3, 3:] @ m.conj().T
    for _ in range(k):
        q = q + m @ q @ m.conj().T
        m = m @ m
    c = q + 0.5 * m @ m.conj().T
    return 0.5 * (c + c.conj().T)


def _quadrature(c: np.ndarray) -> np.ndarray:
    """Real 6x6 covariance V of (x1, x2, x3, y1, y2, y3); the x1 sign flip
    undoes the conjugation of mode 1."""
    return 2.0 * _FLIP_X1 @ np.block([[c.real, -c.imag], [c.imag, c.real]]) @ _FLIP_X1


def _test_matrices(c: np.ndarray) -> list[np.ndarray]:
    """Gamma_1..3 and the two-mode matrices S_12, S_13, S_23, in that order:
    Gamma_j = L_j V L_j - iJ with L_j flipping y_j; S_ij is Gamma_i without
    the rows and columns of the third mode."""
    v = _quadrature(c)
    gammas = []
    for j in (1, 2, 3):
        flip = np.ones(6)
        flip[2 + j] = -1.0
        gammas.append(flip[:, None] * v * flip[None, :] - 1j * _SYMPLECTIC)
    pairs = []
    for i, j in _PAIRS:
        k = ({1, 2, 3} - {i, j}).pop()
        keep = [m for m in range(6) if m not in (k - 1, k + 2)]
        pairs.append(gammas[i - 1][np.ix_(keep, keep)])
    return gammas + pairs


def _eig_error(value: float, h: np.ndarray) -> float:
    """Error of a claimed minimum eigenvalue, relative to the matrix norm
    (the scale on which a backward-stable eigensolver is accurate)."""
    eigs = np.linalg.eigvalsh(h)
    return abs(value - eigs[0]) / float(np.abs(eigs).max())


def _n_error(value: float, c_ii: float) -> float:
    """Error of an occupation n = C_ii - 1/2, relative to C_ii >= 1/2."""
    return abs(value - (c_ii - 0.5)) / c_ii


def _xi_error(value: float | None, c: np.ndarray, i: int, j: int) -> float:
    """Error of the number squeezing xi_ij, relative to the size of the
    terms whose difference it is; 0 when both sides call it undefined."""
    ni, nj = c[i, i].real - 0.5, c[j, j].real - 0.5
    total = ni + nj
    if value is None:
        return 0.0 if total <= 1e-9 else math.inf
    cross = abs(c[i, j]) ** 2
    ref = (ni * (ni + 1.0) + nj * (nj + 1.0) - 2.0 * cross) / total
    scale = (ni * (ni + 1.0) + nj * (nj + 1.0) + 2.0 * cross) / total
    return abs(value - ref) / scale


def gain_error(value: float, p: dict) -> float:
    """Error of a gain, relative to the spectral radius of A."""
    lam = np.linalg.eigvals(drift(p))
    return abs(value - float(lam.real.max())) / float(np.abs(lam).max())


_STATE_COLUMNS = {"n1": 0, "n2": 1, "n3": 2}
_XI_COLUMNS = {"xi12": (0, 1), "xi13": (0, 2), "xi23": (1, 2)}
_MINEIG_COLUMNS = (
    "mineig_gamma1",
    "mineig_gamma2",
    "mineig_gamma3",
    "mineig_s12",
    "mineig_s13",
    "mineig_s23",
)


def check_sweep_row(row: dict, p: dict, tau: float) -> list[float]:
    """Relative errors of every checked value in one sweep row.

    ``row`` maps column names to floats (None for empty cells); ``tau`` is
    the row's evolution time.
    """
    errors = []
    c = covariance(p, tau)
    for name, i in _STATE_COLUMNS.items():
        if name in row:
            errors.append(_n_error(row[name], c[i, i].real))
    for name, (i, j) in _XI_COLUMNS.items():
        if name in row:
            errors.append(_xi_error(row[name], c, i, j))
    if any(name in row for name in _MINEIG_COLUMNS):
        for name, h in zip(_MINEIG_COLUMNS, _test_matrices(c)):
            if name in row:
                errors.append(_eig_error(row[name], h))
    return errors


def check_point_report(report: dict, p: dict, tau: float) -> tuple[list[float], list[float]]:
    """Relative errors of a point report, as (counted in accuracy_digits,
    checked against the tolerance only).

    The gain is held to the tolerance only: near the exceptional point two
    roots merge, so every double-precision eigensolver, the reference
    included, moves them by about sqrt(eps) and the comparison would measure
    that conditioning instead of the program.  The moment-ODE deviation the
    report carries must stay within the tolerance of the covariance scale.
    """
    c = covariance(p, tau)
    scale = float(np.abs(c).max())
    cov = np.array(report["covariance"]["real"]) + 1j * np.array(report["covariance"]["imag"])
    counted = [float(np.abs(cov - c).max()) / scale]
    counted += [_n_error(n, c[i, i].real) for i, n in enumerate(report["observables"]["n"])]
    sep = report["separability"]
    claimed = list(sep["min_eig_gamma"]) + list(sep["min_eig_s"])
    counted += [_eig_error(v, h) for v, h in zip(claimed, _test_matrices(c))]
    counted.append(_eig_error(report["physicality"], _quadrature(c) - 1j * _SYMPLECTIC))
    tolerance_only = [gain_error(report["gain"], p)]
    if "oracle_max_abs_diff" in report:
        tolerance_only.append(report["oracle_max_abs_diff"] / scale)
    return counted, tolerance_only
