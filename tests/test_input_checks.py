"""Every input check of the package raises ``InvalidSpec``, a ValueError.

One case per check that rejects a number, a name or a shape a caller
passes in: the model and laboratory parameters, tau, the atom number, the
sign tolerance, a regime name, a covariance's shape and a sweep's axis and
points.  Each case pins
the exception's exact class and its message, so that a caller catching
ValueError and the command line's "invalid_spec" record read the same
text.
"""

import math

import numpy as np
import pytest

from tricarl import (
    CovarianceState,
    InvalidSpec,
    LabParams,
    ModelParams,
    SweepSpec,
    asymptotic_eta,
    carl_parameter,
    classify_regime,
    covariance,
    evolve_point,
    from_lab,
    lossless_highgain_populations,
    mode_observables,
    ode_oracle,
    saturation_estimates,
    separability_report,
    sr_quantum_populations,
)

FIG5 = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)
VACUUM = 0.5 * np.eye(3)


def lab(**overrides):
    fields = dict(
        rabi_frequency=2 * math.pi * 1e8,
        atomic_detuning=2 * math.pi * 2e10,
        pump_frequency=2.4e15,
        recoil_frequency=2 * math.pi * 3.8e3,
        atom_number=1e6,
        mode_volume=1e-12,
        dipole=2.5e-29,
        cavity_length=0.05,
        mirror_transmission=1e-4,
        probe_frequency=2.4e15 - 5 * 2 * math.pi * 3.8e3,
    )
    return LabParams(**{**fields, **overrides})


def sweep(**overrides):
    fields = dict(axis="delta", start=0.0, stop=1.0, points=3, fixed=FIG5, outputs=("n1",), tau=1.0)
    return SweepSpec(**{**fields, **overrides})


CHECKS = [
    pytest.param(
        lambda: ModelParams(math.nan, 0.0), "rho must be finite, got nan",
        id="model._require_finite",
    ),
    pytest.param(lambda: ModelParams(-1.0, 0.0), "rho must be > 0, got -1.0", id="ModelParams.rho"),
    pytest.param(
        lambda: ModelParams(1.0, 0.0, kappa=-0.5), "kappa must be >= 0, got -0.5",
        id="ModelParams.rates",
    ),
    pytest.param(lambda: lab(dipole=0.0), "dipole must be > 0, got 0.0", id="LabParams.positive"),
    pytest.param(
        lambda: lab(mirror_transmission=2.0), "mirror_transmission must be in [0, 1], got 2.0",
        id="LabParams.mirror_transmission",
    ),
    pytest.param(
        lambda: carl_parameter(lab(recoil_frequency=1e-200)),
        "unphysical laboratory input: float division by zero",
        id="carl_parameter.range",
    ),
    pytest.param(
        lambda: carl_parameter(lab(rabi_frequency=1e-300, atomic_detuning=1e300)),
        "unphysical laboratory input: rho = 0.0",
        id="carl_parameter.rho",
    ),
    pytest.param(
        lambda: from_lab(
            lab(rabi_frequency=1e300, atomic_detuning=1e-5, recoil_frequency=1e100,
                atom_number=1e300)
        ),
        "unphysical laboratory input: rho*omega_r = inf",
        id="from_lab",
    ),
    pytest.param(
        lambda: CovarianceState(0.0, np.eye(2)), "a covariance is a 3x3 matrix, got shape (2, 2)",
        id="covariance._checked_covariance",
    ),
    pytest.param(
        lambda: covariance(FIG5, -1.0), "tau must be >= 0, got -1.0", id="covariance.tau"
    ),
    pytest.param(
        lambda: ode_oracle(FIG5, math.inf), "tau must be finite and >= 0, got inf",
        id="ode_oracle.tau",
    ),
    pytest.param(
        lambda: evolve_point(FIG5, math.nan), "tau must be >= 0, got nan", id="evolve_point.tau"
    ),
    pytest.param(
        lambda: separability_report(VACUUM, epsilon=-1.0),
        "epsilon must be finite and >= 0, got -1.0",
        id="entanglement._check_epsilon",
    ),
    pytest.param(
        lambda: asymptotic_eta(FIG5, "classical"),
        "regime must be 'semiclassical' or 'quantum', got 'classical'",
        id="asymptotic_eta.regime",
    ),
    pytest.param(
        lambda: mode_observables(VACUUM, atom_number=0.0),
        "atom_number must be finite and > 0, got 0.0",
        id="observables._check_atom_number",
    ),
    pytest.param(
        lambda: classify_regime(FIG5, margin=0.5), "margin must be finite and >= 1, got 0.5",
        id="regimes._check",
    ),
    pytest.param(
        lambda: lossless_highgain_populations(ModelParams(100.0, 0.0), 1.0, "classical"),
        "regime must be 'semiclassical' or 'quantum', got 'classical'",
        id="lossless_highgain_populations.regime",
    ),
    pytest.param(
        lambda: sr_quantum_populations(FIG5, -1.0), "tau must be finite and >= 0, got -1.0",
        id="regimes.tau",
    ),
    pytest.param(
        lambda: saturation_estimates(FIG5, math.inf),
        "atom_number must be finite and > 0, got inf",
        id="saturation_estimates.atom_number",
    ),
    pytest.param(
        lambda: sweep(axis="rho"),
        "axis must be one of ('delta', 'tau', 'gamma', 'kappa'), got 'rho'",
        id="SweepSpec.axis",
    ),
    pytest.param(
        lambda: sweep(points=2.0), "points must be an integer, got 2.0", id="SweepSpec.points"
    ),
    pytest.param(
        lambda: sweep(points=1), "points must be in [2, 1000000], got 1", id="SweepSpec.range"
    ),
    pytest.param(lambda: sweep(tau=-1.0), "tau must be >= 0, got -1.0", id="SweepSpec.tau"),
]


@pytest.mark.parametrize("call, message", CHECKS)
def test_every_input_check_raises_invalid_spec_a_value_error(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is InvalidSpec
    assert str(caught.value) == message
