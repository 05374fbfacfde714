"""Working-regime classification and leading-order asymptotics.

Four regimes, separated by the collective coupling rho and the cavity
decay kappa (">>" read as ">= margin x"):

  i)   semi-classical good-cavity:  rho >> 1 and kappa << 1
  ii)  quantum good-cavity:         kappa^2 << rho < 1
  iii) semi-classical superradiant: rho >> sqrt(2 kappa) > 1
  iv)  quantum superradiant:        kappa^2 >> sqrt(2 kappa) > rho

The asymptotic population formulas are leading order in the large
parameters and are never substituted for the exact covariance pipeline;
they exist for cross-checks and quick estimates.  They, the regime
label, the superradiant roots and the saturation estimates raise
NonFinite where a number leaves the float range.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NonFinite, RegimeMismatch, _check
from .model import ModelParams
from .observables import _check_atom_number

SEMICLASSICAL_GOOD_CAVITY = "semiclassical_good_cavity"
QUANTUM_GOOD_CAVITY = "quantum_good_cavity"
SEMICLASSICAL_SUPERRADIANT = "semiclassical_superradiant"
QUANTUM_SUPERRADIANT = "quantum_superradiant"
UNCLASSIFIED = "unclassified"


def _check_regime(regime: str) -> None:
    if regime not in ("semiclassical", "quantum"):
        raise InvalidSpec(f"regime must be 'semiclassical' or 'quantum', got {regime!r}")


def _finite(function):
    """``function``, raising NonFinite where its numbers leave the float
    range: past it ``math.exp`` and ``**`` raise OverflowError, a division
    by a square that underflows to 0 raises ZeroDivisionError, and just
    inside a product is inf.  The numbers checked are those of the result,
    a tuple or a dataclass's fields; a label has none."""

    @functools.wraps(function)
    def checked(*args, **kwargs):
        try:
            result = function(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFinite(f"{function.__name__} overflows: {exc}") from exc
        if isinstance(result, str):
            return result
        numbers = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else result
        if not all(cmath.isfinite(x) for x in numbers if x is not None):
            raise NonFinite(f"{function.__name__} overflows: {result!r}")
        return result

    return checked


@_finite
def classify_regime(params: ModelParams, margin: float = 10.0) -> str:
    """Deterministic regime label; ``unclassified`` when no inequality
    chain holds at the given margin."""
    _check(1.0 <= margin < math.inf, "margin", margin, "finite and >= 1")
    rho, kappa = params.rho, params.kappa
    sr_scale = math.sqrt(2.0 * kappa)
    if rho >= margin and kappa <= 1.0 / margin:
        return SEMICLASSICAL_GOOD_CAVITY
    if kappa**2 <= rho / margin and rho < 1.0:
        return QUANTUM_GOOD_CAVITY
    if rho >= margin * sr_scale and sr_scale > 1.0:
        return SEMICLASSICAL_SUPERRADIANT
    if kappa**2 >= margin * sr_scale and sr_scale > rho:
        return QUANTUM_SUPERRADIANT
    return UNCLASSIFIED


@_finite
def superradiant_roots(params: ModelParams) -> tuple[complex, complex]:
    """Two slow roots of the bad-cavity reduction of the characteristic
    cubic (the third root decays at the cavity rate and is dropped):

        w^2 + (w + delta + i kappa)/((delta + i kappa)^2 - 1/rho^2)
            - 1/rho^2 = 0.

    Valid for kappa much larger than the slow-root magnitudes and zero
    atomic decoherence; only the root magnitudes are meaningful.
    """
    dk = params.delta + 1j * params.kappa
    denom = dk**2 - 1.0 / params.rho**2
    coefficients = np.array([1.0, 1.0 / denom, dk / denom - 1.0 / params.rho**2])
    if not np.isfinite(coefficients).all():  # which np.roots refuses
        raise NonFinite(f"superradiant_roots overflows: {coefficients!r}")
    roots = np.roots(coefficients)
    return complex(roots[0]), complex(roots[1])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RegimeMismatch(message)


def _lossless(params: ModelParams) -> bool:
    return params.gamma1 == 0.0 and params.gamma2 == 0.0


@_finite
def sr_semiclassical_populations(
    params: ModelParams, tau: float, margin: float = 10.0
) -> tuple[float, float, float]:
    """Leading-order populations in the semi-classical superradiant regime
    (resonant pump, no decoherence); all three grow as
    exp(sqrt(2/kappa) tau)."""
    _check(0.0 <= tau < math.inf, "tau", tau, "finite and >= 0")
    _require(
        classify_regime(params, margin) == SEMICLASSICAL_SUPERRADIANT,
        "parameters are not in the semi-classical superradiant regime",
    )
    _require(params.delta == 0.0, "asymptotics hold at delta = 0")
    _require(_lossless(params), "asymptotics hold for gamma1 = gamma2 = 0")
    rho, kappa = params.rho, params.kappa
    growth = math.exp(math.sqrt(2.0 / kappa) * tau)
    base = rho**2 / (16.0 * kappa)
    return (
        base * (1.0 + math.sqrt(2.0 * kappa) / rho) * growth,
        base * growth,
        rho / (8.0 * kappa**2) * growth,
    )


@_finite
def sr_quantum_populations(
    params: ModelParams, tau: float, margin: float = 10.0
) -> tuple[float, float, float]:
    """Leading-order populations in the quantum superradiant regime
    (two-photon resonance delta = 1/rho, no decoherence); growth rate
    rho/kappa, with n2/n3 = (rho/2)^3."""
    _check(0.0 <= tau < math.inf, "tau", tau, "finite and >= 0")
    _require(
        classify_regime(params, margin) == QUANTUM_SUPERRADIANT,
        "parameters are not in the quantum superradiant regime",
    )
    _require(
        math.isclose(params.delta, 1.0 / params.rho, rel_tol=1e-12),
        "asymptotics hold at the recoil resonance delta = 1/rho",
    )
    _require(_lossless(params), "asymptotics hold for gamma1 = gamma2 = 0")
    rho, kappa = params.rho, params.kappa
    growth = math.exp(rho / kappa * tau)
    return (
        (1.0 + (rho / math.sqrt(2.0 * kappa)) ** 4) * growth,
        (rho / (2.0 * math.sqrt(kappa))) ** 4 * growth,
        rho / (2.0 * kappa**2) * growth,
    )


@_finite
def lossless_highgain_populations(
    params: ModelParams, tau: float, regime: str, margin: float = 10.0
) -> tuple[float, float, float]:
    """Leading-order populations of the ideal good-cavity instabilities.

    Semi-classical (resonant, rho >> 1): growth rate sqrt(3); quantum
    (delta = 1/rho, rho < 1): growth rate sqrt(2 rho).  Both triples obey
    n1 = n2 + n3 exactly.
    """
    _check(0.0 <= tau < math.inf, "tau", tau, "finite and >= 0")
    _check(1.0 <= margin < math.inf, "margin", margin, "finite and >= 1")
    _require(
        _lossless(params) and params.kappa == 0.0,
        "ideal-case asymptotics hold for gamma1 = gamma2 = kappa = 0",
    )
    _check_regime(regime)
    rho = params.rho
    if regime == "semiclassical":
        _require(params.delta == 0.0, "semi-classical asymptotics hold at delta = 0")
        _require(rho >= margin, "semi-classical asymptotics need rho >> 1")
        growth = math.exp(math.sqrt(3.0) * tau)
        return (
            (rho**2 / 2.0 + rho) / 18.0 * growth,
            rho**2 / 36.0 * growth,
            rho / 18.0 * growth,
        )
    _require(
        math.isclose(params.delta, 1.0 / rho, rel_tol=1e-12),
        "quantum asymptotics hold at delta = 1/rho",
    )
    _require(rho < 1.0, "quantum asymptotics need rho < 1")
    growth = math.exp(math.sqrt(2.0 * rho) * tau)
    return (
        0.25 * (1.0 + (rho / 2.0) ** 3) * growth,
        0.25 * (rho / 2.0) ** 3 * growth,
        0.25 * growth,
    )


@dataclass(frozen=True)
class SaturationEstimates:
    """Saturation scales of the linear superradiant stage.

    ``max_atom_fraction`` is clamped to 1 (``valid`` then False: the
    linear theory breaks down before saturation); it is None in the
    quantum regime, where the photon estimate already carries the 1/2
    grating-contrast cap.
    """

    max_photons: float
    max_atom_fraction: float | None
    valid: bool


@_finite
def saturation_estimates(
    params: ModelParams, atom_number: float, margin: float = 10.0
) -> SaturationEstimates:
    """Maximum emitted photons and recoiling-atom fraction before the
    undepleted-pump approximation fails."""
    _check_atom_number(atom_number)
    label = classify_regime(params, margin)
    rho, kappa = params.rho, params.kappa
    if label == SEMICLASSICAL_SUPERRADIANT:
        fraction = rho**2 / (4.0 * kappa)
        return SaturationEstimates(
            max_photons=rho * atom_number / (2.0 * kappa**2),
            max_atom_fraction=min(fraction, 1.0),
            valid=fraction <= 1.0,
        )
    if label == QUANTUM_SUPERRADIANT:
        return SaturationEstimates(
            max_photons=rho * atom_number / (4.0 * kappa**2),
            max_atom_fraction=None,
            valid=True,
        )
    raise RegimeMismatch(
        f"saturation estimates apply to the superradiant regimes, not {label}"
    )
