"""Dimensionless model parameters and laboratory-unit conversion.

The simulator works throughout in scaled units: time is tau = rho*omega_r*t
and every rate (gamma1, gamma2, kappa) as well as the pump-probe detuning
delta is expressed in units of rho*omega_r.  ``from_lab`` performs the
conversion from SI laboratory quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """The five dimensionless control parameters.

    Attributes
    ----------
    rho : float
        Collective coupling parameter, > 0.  rho >> 1 is the semi-classical
        regime, rho < 1 the quantum regime.
    delta : float
        Pump-probe detuning in units of rho*omega_r.
    gamma1, gamma2 : float
        Decoherence rates of the two atomic side modes, >= 0, same units.
    kappa : float
        Cavity field decay rate, >= 0, same units.
    """

    rho: float
    delta: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rho", "delta", "gamma1", "gamma2", "kappa"):
            _require_finite(name, getattr(self, name))
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho!r}")
        for name in ("gamma1", "gamma2", "kappa"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    def to_dict(self) -> dict[str, float]:
        """JSON-serializable record with exactly the canonical field names,
        in their order."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, record: dict) -> "ModelParams":
        rates = {k: float(v) for k, v in record.items() if k in ("gamma1", "gamma2", "kappa")}
        return cls(rho=float(record["rho"]), delta=float(record["delta"]), **rates)


class ParamStack(NamedTuple):
    """The fields of :class:`ModelParams` as broadcastable arrays: many
    parameter sets at once, for the stack-shaped kernels (``derive`` and the
    spectral closed forms accept either).  Not validated; build it from
    values that ModelParams accepts."""

    rho: object
    delta: object
    gamma1: object
    gamma2: object
    kappa: object


@dataclass(frozen=True)
class DerivedParams:
    """Auxiliary constants derived from :class:`ModelParams`.

    gamma_plus/minus are the half sum/difference of the atomic rates, and
    alpha = delta + i(kappa - gamma_plus), beta = 1/rho + i*gamma_minus
    are the complex combinations entering the characteristic cubic.
    """

    gamma_plus: float
    gamma_minus: float
    alpha: complex
    beta: complex


def derive(params: ModelParams | ParamStack) -> DerivedParams:
    """Compute the derived constants (arrays for a ParamStack); pure and
    idempotent."""
    gamma_plus = (params.gamma1 + params.gamma2) / 2.0
    gamma_minus = (params.gamma1 - params.gamma2) / 2.0
    return DerivedParams(
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        alpha=params.delta + 1j * (params.kappa - gamma_plus),
        beta=1.0 / params.rho + 1j * gamma_minus,
    )


@dataclass(frozen=True)
class LabParams:
    """Laboratory (SI) quantities describing a driven-condensate setup.

    Attributes
    ----------
    rabi_frequency : float
        Pump Rabi frequency Omega_0 = d E_0 / hbar, rad/s.
    atomic_detuning : float
        Pump detuning from the atomic resonance, rad/s.
    pump_frequency, probe_frequency : float
        Pump and probe (cavity mode) angular frequencies, rad/s.
    recoil_frequency : float
        Two-photon recoil frequency omega_r = 2 hbar k_p^2 / m, rad/s.
    atom_number : float
        Number of atoms in the cavity mode volume.
    mode_volume : float
        Cavity mode volume, m^3.
    dipole : float
        Transition dipole matrix element, C m.
    cavity_length : float
        Ring cavity length, m.
    mirror_transmission : float
        Output mirror transmission, in [0, 1]; 0 is a perfect cavity.
    """

    rabi_frequency: float
    atomic_detuning: float
    pump_frequency: float
    recoil_frequency: float
    atom_number: float
    mode_volume: float
    dipole: float
    cavity_length: float
    mirror_transmission: float
    probe_frequency: float

    def __post_init__(self) -> None:
        # every field but the transmission is a positive quantity
        for name in (f.name for f in fields(self) if f.name != "mirror_transmission"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        t = self.mirror_transmission
        _require_finite("mirror_transmission", t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"mirror_transmission must be in [0, 1], got {t!r}")


def carl_parameter(lab: LabParams) -> float:
    """Collective coupling rho from laboratory quantities.  Raises
    ValueError ("unphysical laboratory input") unless rho is finite and > 0,
    also where the formula overflows or divides by an underflowed 0."""
    # CODATA 2022: the reduced Planck constant (J s) and the vacuum permittivity (F/m)
    hbar, epsilon_0 = 6.62607015e-34 / (2.0 * math.pi), 8.8541878188e-12
    try:
        drive = (lab.rabi_frequency / (2.0 * lab.atomic_detuning)) ** (2.0 / 3.0)
        collective = (
            lab.pump_frequency
            * lab.dipole**2
            * lab.atom_number
            / (lab.mode_volume * hbar * epsilon_0 * lab.recoil_frequency**2)
        ) ** (1.0 / 3.0)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"unphysical laboratory input: {exc}") from None
    rho = drive * collective
    if not 0 < rho < math.inf:
        raise ValueError(f"unphysical laboratory input: rho = {rho!r}")
    return rho


def from_lab(lab: LabParams) -> ModelParams:
    """Convert laboratory quantities into the scaled model parameters.

    All rates come out divided by rho*omega_r, ready for the scaled-time
    evolution.  Raises ValueError where ``carl_parameter`` does, where the
    unit rho*omega_r scales a nonzero detuning or cavity loss rate to 0, and
    (from ``ModelParams``) where it scales one past the float range.
    """
    rho = carl_parameter(lab)
    unit = rho * lab.recoil_frequency
    detuning = lab.pump_frequency - lab.probe_frequency
    # the cavity loss rate (1/s); c = 299792458 m/s exactly
    kappa_si = 299792458.0 * lab.mirror_transmission / (2.0 * lab.cavity_length)
    delta, kappa = detuning / unit, kappa_si / unit
    if (delta == 0) != (detuning == 0) or (kappa == 0) != (kappa_si == 0):
        raise ValueError(f"unphysical laboratory input: rho*omega_r = {unit!r}")
    return ModelParams(rho=rho, delta=delta, gamma1=0.0, gamma2=0.0, kappa=kappa)
