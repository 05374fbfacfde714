import re
import warnings

import numpy as np
import pytest

from oracles import fourth_order, gains_over_delta, squeezing_from_moments
from tricarl import (
    ModelParams,
    NegativeOccupation,
    NonFinite,
    TricarlError,
    covariance,
    mode_observables,
    ode_oracle,
    physicality,
    separability_report,
)

FIG5 = ModelParams(rho=100.0, delta=3.5, gamma1=0.5, gamma2=0.5, kappa=0.5)
IDEAL_SC = ModelParams(rho=100.0, delta=0.0)
VACUUM = 0.5 * np.eye(3, dtype=complex)
# positions of the mode pairs in the g2_cross and xi fields
PAIRS = ((1, 2), (1, 3), (2, 3))


def thermal_fixture(n1, n2, n3, c12=0.0, c13=0.0, c23=0.0):
    c = 0.5 * np.eye(3, dtype=complex)
    c[0, 0] += n1
    c[1, 1] += n2
    c[2, 2] += n3
    c[0, 1], c[1, 0] = c12, np.conj(c12)
    c[0, 2], c[2, 0] = c13, np.conj(c13)
    c[1, 2], c[2, 1] = c23, np.conj(c23)
    return c


def random_evolved_states(count, seed, rates=2.0, tau_hi=4.0):
    rng = np.random.RandomState(seed)
    states = []
    while len(states) < count:
        params = ModelParams(
            rho=10 ** rng.uniform(-1, np.log10(200.0)),
            delta=rng.uniform(-10, 10),
            gamma1=rng.uniform(0, rates),
            gamma2=rng.uniform(0, rates),
            kappa=rng.uniform(0, rates),
        )
        state = covariance(params, rng.uniform(0.2, tau_hi))
        n = mode_observables(state).n
        if min(n) > 1e-6 and max(n) < 1e5:
            states.append(state)
    return states


# ---------------------------------------------------------------- occupations


def test_occupations_vacuum():
    assert np.array_equal(mode_observables(VACUUM).n, np.zeros(3))


def test_occupations_clamps_rounding_noise():
    c = VACUUM.copy()
    c[0, 0] = 0.5 - 1e-10
    assert mode_observables(c).n[0] == 0.0


def test_occupations_rejects_corrupted_covariance():
    c = VACUUM.copy()
    c[0, 0] = 0.5 - 1e-5
    with pytest.raises(NegativeOccupation):
        mode_observables(c)
    c = VACUUM.copy()
    c[1, 1] = 0.5 + 1e-3j
    with pytest.raises(TricarlError):
        mode_observables(c)


def test_population_ratio_ideal_semiclassical():
    n = mode_observables(covariance(IDEAL_SC, 6.0)).n
    assert n[0] / n[1] == pytest.approx(1.0 + 2.0 / 100.0, abs=1e-3)


def test_occupation_matches_ode_oracle_fig5():
    n = mode_observables(covariance(FIG5, 2.0)).n
    n_ref = mode_observables(ode_oracle(FIG5, 2.0)).n
    assert np.abs(np.subtract(n, n_ref)).max() < 1e-6 * max(n)


# --------------------------------------------------------------- fourth order


def test_fourth_order_vacuum():
    for i in (1, 2, 3):
        assert fourth_order(VACUUM, i, i, i, i) == pytest.approx(0.5)


def test_fourth_order_relates_to_number_moments():
    state = covariance(FIG5, 1.5)
    obs = mode_observables(state)
    n, var = obs.n, obs.var_n
    for i in (1, 2, 3):
        g_iiii = fourth_order(state, i, i, i, i).real
        second_moment = var[i - 1] + n[i - 1] ** 2
        assert g_iiii == pytest.approx(second_moment + n[i - 1] + 0.5, rel=1e-12)


def test_fourth_order_index_symmetries():
    rng = np.random.RandomState(61)
    for _ in range(5):
        z = rng.randn(3, 3) + 1j * rng.randn(3, 3)
        c = z @ z.conj().T + 0.5 * np.eye(3)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    for l in (1, 2, 3):
                        direct = fourth_order(c, i, j, k, l)
                        assert direct == fourth_order(c, j, i, l, k)
                        assert np.conj(direct) == pytest.approx(
                            fourth_order(c, k, l, i, j), rel=1e-12
                        )


def test_fourth_order_index_validation():
    with pytest.raises(ValueError):
        fourth_order(VACUUM, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        fourth_order(VACUUM, 1, 1, 1, 4)


# ---------------------------------------------------------- thermal statistics


def test_thermal_variance_and_autocorrelation():
    for state in random_evolved_states(25, seed=67):
        obs = mode_observables(state)
        n, var = np.array(obs.n), np.array(obs.var_n)
        assert np.all(np.abs(var - n * (n + 1.0)) < 1e-9 * (1.0 + n) ** 2)
        for g2 in obs.g2_auto:
            assert abs(g2 - 2.0) < 1e-9


def test_g2_auto_undefined_at_vacuum():
    assert mode_observables(VACUUM).g2_auto == (None, None, None)
    # only the empty modes' ratios are undefined
    assert mode_observables(thermal_fixture(0.7, 0.0, 0.0)).g2_auto == (2.0, None, None)


# --------------------------------------------------------- cross correlations


def test_g2_cross_uncorrelated_fixture():
    c = thermal_fixture(0.7, 1.3, 2.1)
    assert mode_observables(c).g2_cross == pytest.approx((1.0, 1.0, 1.0))


def test_g2_cross_matches_definition_on_evolved_state():
    state = covariance(IDEAL_SC, 1.0)
    obs = mode_observables(state)
    for (i, j), g2 in zip(PAIRS, obs.g2_cross):
        expected = 1.0 + abs(state.c[i - 1, j - 1]) ** 2 / (obs.n[i - 1] * obs.n[j - 1])
        assert g2 == pytest.approx(expected, rel=1e-12)
        assert g2 >= 1.0


def test_g2_cross_matches_ode_oracle_fig5():
    state = covariance(FIG5, 2.0)
    reference = ode_oracle(FIG5, 2.0)
    assert mode_observables(state).g2_cross == pytest.approx(
        mode_observables(reference).g2_cross, rel=1e-6
    )


def test_g2_cross_undefined_at_vacuum():
    assert mode_observables(VACUUM).g2_cross == (None, None, None)
    # a pair is undefined when either of its modes is empty
    g2 = mode_observables(thermal_fixture(0.7, 1.3, 0.0)).g2_cross
    assert g2[0] == pytest.approx(1.0) and g2[1:] == (None, None)


# ------------------------------------------------------------ number squeezing


def test_squeezing_coherent_reference_is_one():
    # independent coherent modes: var = n, no cross correlation
    assert squeezing_from_moments(0.8, 2.5, 0.8, 2.5, 0.0) == pytest.approx(1.0)


def test_squeezing_undefined_at_vacuum():
    assert mode_observables(VACUUM).xi == (None, None, None)
    assert squeezing_from_moments(0.0, 0.0, 0.0, 0.0, 0.0) is None


def test_squeezing_nonnegative_on_evolved_states():
    for state in random_evolved_states(15, seed=71):
        for xi in mode_observables(state).xi:
            assert xi is not None and xi >= 0.0


def test_periodic_number_squeezing_ideal_case():
    # rho=100, delta=3.5, no losses: xi_{1,2} periodically dips below 1
    params = ModelParams(rho=100.0, delta=3.5)
    values = []
    for tau in np.linspace(0.2, 10.0, 99):
        values.append(mode_observables(covariance(params, tau)).xi[0])
    assert min(values) < 1.0


def test_squeezing_near_vacuum_keeps_its_digits():
    # n1 ~ 3.7e-9, n2 ~ 0: the variance G_ii - n - 1/2 - n^2 cancels
    # G_ii ~ 1/2 down to n and loses about eps/n of xi; n(n + 1) does not
    from tricarl import SweepSpec, as_rows, run_sweep

    params, tau = ModelParams(2.0, 0.0, 0.0, 0.0, 1.0), 6.1e-5
    c = covariance(params, tau).c
    n1, n2 = (max(c[i, i].real - 0.5, 0.0) for i in (0, 1))
    expected = (n1 * (n1 + 1) + n2 * (n2 + 1) - 2 * abs(c[0, 1]) ** 2) / (n1 + n2)
    assert mode_observables(c).xi[0] == pytest.approx(expected, abs=1e-12)
    spec = SweepSpec(
        axis="tau", start=0.0, stop=tau, points=2, fixed=params, outputs=("xi12",)
    )
    assert as_rows(run_sweep(spec))[-1]["xi12"] == pytest.approx(expected, abs=1e-12)


def test_steady_state_squeezing_value():
    from tricarl import steady_state

    xi = mode_observables(steady_state(FIG5)).xi[0]
    assert abs(xi - 0.7) < 0.05


# ---------------------------------------------------------------------- bunching


def test_bunching_vacuum():
    assert mode_observables(VACUUM, 1e6).bunching == pytest.approx(1e-6, rel=1e-12)
    with pytest.raises(ValueError):
        mode_observables(VACUUM, 0.0)


def test_bunching_superradiant_semiclassical_asymptote():
    params = ModelParams(rho=100.0, delta=0.0, kappa=50.0)
    n_atoms = 1e6
    tau = 30.0
    state = covariance(params, tau)
    asym = (1.0 / (4.0 * n_atoms)) * (1.0 + np.sqrt(2 * 50.0) / 100.0) * np.exp(
        np.sqrt(2.0 / 50.0) * tau
    )
    assert mode_observables(state, n_atoms).bunching == pytest.approx(asym, rel=0.20)


def test_bunching_superradiant_quantum_asymptote():
    params = ModelParams(rho=1.0, delta=1.0, kappa=50.0)
    n_atoms = 1e6
    tau = 300.0
    state = covariance(params, tau)
    asym = (1.0 / n_atoms) * (
        1.0 + 0.5 * (1.0 / np.sqrt(100.0)) ** 4
    ) * np.exp(tau / 50.0)
    assert mode_observables(state, n_atoms).bunching == pytest.approx(asym, rel=0.20)


# --------------------------------------------------------------------- gain curve


def test_gain_curve_balanced_loss_shift():
    grid = np.linspace(-5.0, 5.0, 21)
    base = gains_over_delta(ModelParams(rho=100.0, delta=0.0), grid)
    for g in (0.25, 0.5, 1.0):
        lossy = ModelParams(rho=100.0, delta=0.0, gamma1=g, gamma2=g, kappa=g)
        assert gains_over_delta(lossy, grid) == pytest.approx(base - g, abs=1e-9)


def test_gain_curve_quantum_symmetry_near_resonance():
    params = ModelParams(rho=0.2, delta=0.0)
    offsets = np.linspace(0.005, 0.05, 10)
    plus = gains_over_delta(params, 5.0 + offsets)
    minus = gains_over_delta(params, 5.0 - offsets)
    assert np.abs(plus - minus).max() < 1e-3


def test_gain_curve_fig5_point():
    (g,) = gains_over_delta(FIG5, [3.5])
    assert g == pytest.approx(-0.5, abs=1e-9)


# ------------------------------------------------------------- mode observables


def test_mode_observables_vacuum_maps_undefined_to_none():
    obs = mode_observables(VACUUM, atom_number=1e6)
    assert obs.n == (0.0, 0.0, 0.0)
    assert obs.g2_auto == (None, None, None)
    assert obs.g2_cross == (None, None, None)
    assert obs.xi == (None, None, None)
    assert obs.bunching == pytest.approx(1e-6)


def test_mode_observables_evolved_state_is_complete():
    obs = mode_observables(covariance(FIG5, 2.0), atom_number=1e6)
    assert all(value is not None for value in obs.g2_auto)
    assert all(value is not None for value in obs.xi)
    assert all(v == pytest.approx(2.0, abs=1e-9) for v in obs.g2_auto)


def test_mode_observables_reports_overflow_as_non_finite_without_warnings():
    # n (n + 1) and |C_ij|^2 overflow on a finite C: an error naming the
    # fields, never a numpy warning or an inf/NaN cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^non-finite result in var_n, g2_auto, xi, bunching$"):
            mode_observables(np.diag([1e308, 1e308, 0.5]))
        c = thermal_fixture(1e160, 1e160, 1.0, c12=1e160)
        with pytest.raises(NonFinite, match="^non-finite result in var_n, g2_auto, g2_cross, xi$"):
            mode_observables(c)
        # a cell the vacuum leaves undefined is not checked
        c = thermal_fixture(0.0, 0.0, 1.0, c12=1e200)
        assert mode_observables(c).g2_cross[0] is None


@pytest.mark.parametrize("function", [mode_observables, separability_report, physicality])
@pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 4), (4, 3), (2, 3, 2), (2, 3, 3)])
def test_one_state_functions_refuse_a_matrix_that_is_not_3x3(function, shape):
    # refused by shape before any kernel indexes entry (2, 2), and a stack
    # of states, whose vacuum cells mode_observables would not leave None
    message = f"^a covariance is a 3x3 matrix, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        function(np.full(shape, 0.5))
