import math

import numpy as np
import pytest

from tricarl import (
    ModelParams,
    NonFinite,
    RegimeMismatch,
    classify_regime,
    covariance,
    lossless_highgain_populations,
    mode_observables,
    saturation_estimates,
    sr_quantum_populations,
    sr_semiclassical_populations,
    superradiant_roots,
)

SR_SC = ModelParams(rho=100.0, delta=0.0, kappa=50.0)
SR_Q = ModelParams(rho=1.0, delta=1.0, kappa=50.0)


# ------------------------------------------------------------- classification


def test_classify_regime_examples():
    assert classify_regime(ModelParams(rho=100.0, delta=0.0, kappa=0.01)) == (
        "semiclassical_good_cavity"
    )
    assert classify_regime(ModelParams(rho=100.0, delta=0.0, kappa=40.0)) == (
        "semiclassical_superradiant"
    )
    assert classify_regime(ModelParams(rho=0.2, delta=0.0, kappa=40.0)) == (
        "quantum_superradiant"
    )
    assert classify_regime(ModelParams(rho=0.5, delta=0.0, kappa=0.1)) == (
        "quantum_good_cavity"
    )
    assert classify_regime(ModelParams(rho=3.0, delta=0.0, kappa=1.0)) == "unclassified"


def test_classify_regime_margin_monotonicity():
    rng = np.random.RandomState(91)
    for _ in range(100):
        params = ModelParams(
            rho=10 ** rng.uniform(-1.5, 2.5),
            delta=0.0,
            kappa=10 ** rng.uniform(-3, 2.5),
        )
        loose = classify_regime(params, margin=10.0)
        strict = classify_regime(params, margin=30.0)
        assert strict in (loose, "unclassified")
    with pytest.raises(ValueError):
        classify_regime(SR_SC, margin=0.5)


# ---------------------------------------------------------- superradiant roots


def test_superradiant_roots_satisfy_quadratic():
    for params in (SR_SC, SR_Q):
        dk = params.delta + 1j * params.kappa
        denom = dk**2 - 1.0 / params.rho**2
        for w in superradiant_roots(params):
            residual = w**2 + (w + dk) / denom - 1.0 / params.rho**2
            assert abs(residual) < 1e-10


def test_superradiant_root_magnitudes():
    slow = max(-w.imag for w in superradiant_roots(SR_SC))
    assert slow == pytest.approx(1.0 / math.sqrt(2 * 50.0), rel=0.15)
    slow_q = max(-w.imag for w in superradiant_roots(SR_Q))
    assert slow_q == pytest.approx(1.0 / (2 * 50.0), rel=0.15)


# ------------------------------------------------- superradiant population laws


def test_sr_semiclassical_population_structure():
    n1, n2, n3 = sr_semiclassical_populations(SR_SC, 30.0)
    assert n3 / n1 == pytest.approx(2.0 / (100.0 * 50.0), rel=0.15)
    # pure exponential law: shifting tau by sqrt(kappa/2) ln 4 quadruples
    shift = math.sqrt(50.0 / 2.0) * math.log(4.0)
    m1, m2, m3 = sr_semiclassical_populations(SR_SC, 30.0 + shift)
    for before, after in ((n1, m1), (n2, m2), (n3, m3)):
        assert after == pytest.approx(4.0 * before, rel=1e-9)


def test_sr_semiclassical_matches_exact_pipeline():
    n_exact = mode_observables(covariance(SR_SC, 30.0)).n
    n_asym = sr_semiclassical_populations(SR_SC, 30.0)
    for asym, exact in zip(n_asym, n_exact):
        assert 0.5 < asym / exact < 2.0


def test_sr_semiclassical_regime_mismatch():
    with pytest.raises(RegimeMismatch):
        sr_semiclassical_populations(ModelParams(rho=100.0, delta=0.0, kappa=0.01), 5.0)
    with pytest.raises(RegimeMismatch):
        sr_semiclassical_populations(ModelParams(rho=100.0, delta=1.0, kappa=50.0), 5.0)
    with pytest.raises(RegimeMismatch):
        sr_semiclassical_populations(
            ModelParams(rho=100.0, delta=0.0, gamma1=0.1, gamma2=0.1, kappa=50.0), 5.0
        )


def test_sr_quantum_population_structure():
    n1, n2, n3 = sr_quantum_populations(SR_Q, 100.0)
    assert n2 / n3 == pytest.approx((1.0 / 2.0) ** 3, rel=1e-12)
    # analytic growth rate rho/kappa
    m1 = sr_quantum_populations(SR_Q, 150.0)[0]
    assert math.log(m1 / n1) / 50.0 == pytest.approx(1.0 / 50.0, rel=1e-12)


def test_sr_quantum_matches_exact_pipeline():
    n_exact = mode_observables(covariance(SR_Q, 100.0)).n
    n_asym = sr_quantum_populations(SR_Q, 100.0)
    assert 0.5 < n_asym[0] / n_exact[0] < 2.0


def test_asymptotic_to_exact_ratio_stabilizes():
    # the asymptotic laws capture the growth rate, so the ratio to the
    # exact pipeline settles to a constant at late times
    def ratio(params, populations, tau):
        return populations(params, tau)[0] / mode_observables(covariance(params, tau)).n[0]

    early = ratio(SR_SC, sr_semiclassical_populations, 20.0)
    late = ratio(SR_SC, sr_semiclassical_populations, 30.0)
    assert abs(late / early - 1.0) < 0.10

    early_q = ratio(SR_Q, sr_quantum_populations, 200.0)
    late_q = ratio(SR_Q, sr_quantum_populations, 300.0)
    assert abs(late_q / early_q - 1.0) < 0.10

    ideal = ModelParams(rho=100.0, delta=0.0)

    def ideal_ratio(tau):
        asym = lossless_highgain_populations(ideal, tau, "semiclassical")
        return asym[0] / mode_observables(covariance(ideal, tau)).n[0]

    assert abs(ideal_ratio(6.0) / ideal_ratio(4.5) - 1.0) < 0.10


def test_sr_quantum_regime_mismatch():
    with pytest.raises(RegimeMismatch):
        sr_quantum_populations(ModelParams(rho=1.0, delta=0.5, kappa=50.0), 5.0)
    with pytest.raises(RegimeMismatch):
        sr_quantum_populations(ModelParams(rho=100.0, delta=0.01, kappa=50.0), 5.0)


# -------------------------------------------------- ideal high-gain populations


def test_lossless_highgain_conserves_population_difference():
    n1, n2, n3 = lossless_highgain_populations(
        ModelParams(rho=100.0, delta=0.0), 3.0, "semiclassical"
    )
    assert n1 == pytest.approx(n2 + n3, rel=1e-12)
    q1, q2, q3 = lossless_highgain_populations(
        ModelParams(rho=0.2, delta=5.0), 3.0, "quantum"
    )
    assert q1 == pytest.approx(q2 + q3, rel=1e-12)


def test_lossless_highgain_semiclassical_matches_exact():
    params = ModelParams(rho=100.0, delta=0.0)
    n_exact = mode_observables(covariance(params, 6.0)).n
    n_asym = lossless_highgain_populations(params, 6.0, "semiclassical")
    for asym, exact in zip(n_asym, n_exact):
        assert abs(asym / exact - 1.0) < 0.30


def test_lossless_highgain_quantum_growth_rate():
    params = ModelParams(rho=0.2, delta=5.0)
    n_lo = mode_observables(covariance(params, 18.0)).n
    n_hi = mode_observables(covariance(params, 22.0)).n
    slope = math.log(n_hi[0] / n_lo[0]) / 4.0
    assert slope == pytest.approx(math.sqrt(2 * 0.2), rel=0.05)


def test_lossless_highgain_regime_mismatch():
    with pytest.raises(RegimeMismatch):
        lossless_highgain_populations(
            ModelParams(rho=100.0, delta=0.0, kappa=1.0), 1.0, "semiclassical"
        )
    with pytest.raises(RegimeMismatch):
        lossless_highgain_populations(
            ModelParams(rho=0.2, delta=5.0), 1.0, "semiclassical"
        )
    with pytest.raises(RegimeMismatch):
        lossless_highgain_populations(ModelParams(rho=0.2, delta=0.0), 1.0, "quantum")
    with pytest.raises(ValueError):
        lossless_highgain_populations(ModelParams(rho=0.2, delta=5.0), 1.0, "other")


# math.exp raises OverflowError past exponents of about 709.78 ("math range
# error"); just inside, a population may read inf
PAST_EXP, INF = "math range error", r"\(inf, "


@pytest.mark.parametrize(
    "law, args, shown",
    [
        (sr_semiclassical_populations, (SR_SC, 1e4), PAST_EXP),
        (sr_semiclassical_populations, (ModelParams(1e4, 0.0, kappa=50.0), 3540.0), INF),
        (sr_quantum_populations, (SR_Q, 1e5), PAST_EXP),
        (sr_quantum_populations, (ModelParams(90.0, 1 / 90, kappa=5000.0), 39420.0), INF),
        (lossless_highgain_populations, (ModelParams(0.5, 2.0), 1e4, "quantum"), PAST_EXP),
        (lossless_highgain_populations, (ModelParams(100.0, 0.0), 1e4, "semiclassical"), PAST_EXP),
        (lossless_highgain_populations, (ModelParams(100.0, 0.0), 407.0, "semiclassical"), INF),
    ],
)
def test_population_laws_raise_non_finite_on_overflow(law, args, shown):
    # both ends of the float range end in NonFinite, as the cubic's overflow does
    with pytest.raises(NonFinite, match=f"{law.__name__} overflows: {shown}"):
        law(*args)


# ---------------------------------------------------------- saturation estimates


def test_saturation_semiclassical_clamps_fraction():
    estimate = saturation_estimates(SR_SC, 1e6)
    assert estimate.max_photons == pytest.approx(100.0 * 1e6 / (2 * 50.0**2))
    assert estimate.max_atom_fraction == 1.0  # raw value 50 flags breakdown
    assert not estimate.valid


def test_saturation_quantum_photon_cap():
    estimate = saturation_estimates(SR_Q, 1e6)
    assert estimate.max_photons == pytest.approx(1e6 / (4 * 2500.0))
    assert estimate.max_atom_fraction is None
    assert estimate.valid


def test_saturation_scales_linearly_with_atom_number():
    one = saturation_estimates(SR_SC, 1e6).max_photons
    two = saturation_estimates(SR_SC, 2e6).max_photons
    assert two == pytest.approx(2.0 * one)


def test_saturation_requires_superradiant_regime():
    with pytest.raises(RegimeMismatch):
        saturation_estimates(ModelParams(rho=100.0, delta=0.0, kappa=0.01), 1e6)
    with pytest.raises(ValueError):
        saturation_estimates(SR_SC, 0.0)


# ------------------------------------------------------------ input checks

GOOD_CAVITY = ModelParams(rho=100.0, delta=0.0, kappa=0.01)
MARGIN, ATOMS, TAU = (
    "margin must be finite and >= 1",
    "atom_number must be finite and > 0",
    "tau must be finite and >= 0",
)


@pytest.mark.parametrize(
    "call, message",
    [
        *[
            (lambda bad=bad: classify_regime(SR_SC, margin=bad), MARGIN)
            for bad in (math.nan, math.inf, 0.5)
        ],
        *[
            (lambda bad=bad: saturation_estimates(GOOD_CAVITY, bad), ATOMS)
            for bad in (math.nan, math.inf, 0.0, -1.0)
        ],
        (lambda: saturation_estimates(GOOD_CAVITY, 1e6, margin=math.nan), MARGIN),
        *[
            (lambda bad=bad, law=law: law(GOOD_CAVITY, bad), TAU)
            for bad in (math.nan, math.inf, -1.0)
            for law in (sr_semiclassical_populations, sr_quantum_populations)
        ],
        (lambda: sr_quantum_populations(GOOD_CAVITY, 1.0, margin=math.inf), MARGIN),
        *[
            (lambda bad=bad: lossless_highgain_populations(SR_SC, bad, "semiclassical"), TAU)
            for bad in (math.nan, math.inf, -1.0)
        ],
        (lambda: lossless_highgain_populations(SR_SC, 1.0, "quantum", math.nan), MARGIN),
    ],
)
def test_regimes_reject_numbers_out_of_range_before_the_regime_checks(call, message):
    # every parameter set here is outside the regime asked for, so a
    # RegimeMismatch would follow if the number were let through
    with pytest.raises(ValueError, match=message):
        call()
