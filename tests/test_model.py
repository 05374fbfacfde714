import math

import numpy as np
import pytest
from scipy.constants import c as speed_of_light
from scipy.constants import epsilon_0, hbar

from tricarl import LabParams, ModelParams, carl_parameter, derive, from_lab


def test_derive_identity_case():
    dp = derive(ModelParams(rho=1.0, delta=0.0))
    assert dp.gamma_plus == 0.0
    assert dp.gamma_minus == 0.0
    assert dp.alpha == 0.0 + 0.0j
    assert dp.beta == 1.0 + 0.0j


def test_derive_balanced_losses():
    dp = derive(ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5))
    assert dp.gamma_plus == 0.5
    assert dp.gamma_minus == 0.0
    assert dp.alpha == 3.5 + 0.0j
    assert dp.beta == 0.01 + 0.0j


def test_derive_unbalanced_losses():
    dp = derive(ModelParams(rho=0.2, delta=5.0, gamma1=0.2, gamma2=0.4, kappa=1.0))
    assert math.isclose(dp.gamma_plus, 0.3)
    assert math.isclose(dp.gamma_minus, -0.1)
    assert dp.alpha == pytest.approx(5.0 + 0.7j)
    assert dp.beta == pytest.approx(5.0 - 0.1j)


def test_derive_pure_and_idempotent():
    params = ModelParams(rho=7.25, delta=-1.5, gamma1=0.3, gamma2=1.7, kappa=0.9)
    first = derive(params)
    second = derive(params)
    assert first == second


def test_gamma_sum_difference_exact():
    rng = np.random.RandomState(0)
    for _ in range(100):
        # dyadic grid: the half-sum/half-difference round trip is exact
        g1, g2 = np.round(rng.uniform(0, 5, 2) * 2**20) / 2**20
        dp = derive(ModelParams(rho=1.0, delta=0.0, gamma1=g1, gamma2=g2))
        assert dp.gamma_plus + dp.gamma_minus == g1
        assert dp.gamma_plus - dp.gamma_minus == g2
    for _ in range(100):
        g1, g2 = rng.uniform(0, 5, 2)
        dp = derive(ModelParams(rho=1.0, delta=0.0, gamma1=g1, gamma2=g2))
        assert dp.gamma_plus + dp.gamma_minus == pytest.approx(g1, rel=1e-15)
        assert dp.gamma_plus - dp.gamma_minus == pytest.approx(g2, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rho": 0.0, "delta": 0.0},
        {"rho": -1.0, "delta": 0.0},
        {"rho": 1.0, "delta": 0.0, "gamma1": -0.1},
        {"rho": 1.0, "delta": 0.0, "gamma2": -2.0},
        {"rho": 1.0, "delta": 0.0, "kappa": -1e-12},
        {"rho": float("nan"), "delta": 0.0},
        {"rho": 1.0, "delta": float("inf")},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_params_dict_round_trip():
    params = ModelParams(rho=2.5, delta=-0.75, gamma1=0.1, gamma2=0.2, kappa=0.3)
    record = params.to_dict()
    assert set(record) == {"rho", "delta", "gamma1", "gamma2", "kappa"}
    assert ModelParams.from_dict(record) == params


def _fixture_lab(**overrides):
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
    fields.update(overrides)
    return LabParams(**fields)


@pytest.mark.parametrize(
    "overrides, rho_fails",
    [
        # the numerator of the collective factor overflows (OverflowError)
        (dict(dipole=1e200), True),
        # its denominator underflows to 0 (ZeroDivisionError)
        (dict(recoil_frequency=1e-200), True),
        (dict(mode_volume=1e-300), True),
        # the drive factor underflows: rho = 0
        (dict(rabi_frequency=1e-300, atomic_detuning=1e300), True),
        # rho is finite but rho * omega_r overflows, which scaled the
        # detuning and the 1e-4 mirror's loss rate to delta = kappa = 0
        (
            dict(rabi_frequency=1e300, atomic_detuning=1e-5, recoil_frequency=1e100,
                 atom_number=1e300),
            False,
        ),
    ],
)
def test_from_lab_rejects_input_that_leaves_the_float_range(overrides, rho_fails):
    lab = _fixture_lab(**overrides)
    if rho_fails:
        with pytest.raises(ValueError, match="^unphysical laboratory input"):
            carl_parameter(lab)
    else:
        assert 0 < carl_parameter(lab) < math.inf
    with pytest.raises(ValueError, match="^unphysical laboratory input"):
        from_lab(lab)


def test_from_lab_zero_detuning():
    lab = _fixture_lab(probe_frequency=2.4e15)
    assert from_lab(lab).delta == 0.0


def test_from_lab_perfect_cavity():
    lab = _fixture_lab(mirror_transmission=0.0)
    assert from_lab(lab).kappa == 0.0


def test_from_lab_rho_matches_direct_formula():
    lab = _fixture_lab()
    # one-line re-evaluation of the scaling formula, independent of the
    # package implementation
    expected = (lab.rabi_frequency / (2 * lab.atomic_detuning)) ** (2 / 3) * (
        lab.pump_frequency
        * lab.dipole**2
        * lab.atom_number
        / (lab.mode_volume * hbar * epsilon_0 * lab.recoil_frequency**2)
    ) ** (1 / 3)
    params = from_lab(lab)
    assert params.rho == pytest.approx(expected, rel=1e-14)
    assert params.rho == pytest.approx(260.17954611979536, rel=1e-12)
    assert carl_parameter(lab) == params.rho
    # rates are scaled by rho * omega_r
    kappa_si = speed_of_light * lab.mirror_transmission / (2 * lab.cavity_length)
    assert params.kappa == pytest.approx(
        kappa_si / (params.rho * lab.recoil_frequency), rel=1e-14
    )
    assert params.delta == pytest.approx(
        (lab.pump_frequency - lab.probe_frequency)
        / (params.rho * lab.recoil_frequency),
        rel=1e-14,
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"rabi_frequency": -1.0},
        {"mode_volume": 0.0},
        {"mirror_transmission": 1.5},
        {"mirror_transmission": -0.1},
        {"atom_number": -5.0},
    ],
)
def test_lab_validation(overrides):
    with pytest.raises(ValueError):
        _fixture_lab(**overrides)
