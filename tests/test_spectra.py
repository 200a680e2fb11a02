import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import sqz_sensor as sq
from sqz_sensor import (
    RangeError,
    Scenario,
    SensorParams,
)

from conftest import random_cancelled_params

SCENARIOS = (Scenario.no_squeeze(), Scenario.input_squeeze(), Scenario.double_squeeze_optimal())

# Spot values for the reference parameters (kp=1, kpp=1/10, eta=7/10,
# exp(2r)=30, N=1), derived independently with rational arithmetic.
S_NO_SQUEEZE_0 = float(Fraction(121, 560))
S_NO_SQUEEZE_1 = float(Fraction(221, 560))
S_INPUT_0 = float(Fraction(6619, 56000))
S_INPUT_1 = float(Fraction(29557, 168000))
S_DOUBLE_0 = float(Fraction(127, 1940))
S_DOUBLE_1 = float(Fraction(20077, 162960))
SUM_NOISE_0 = float(Fraction(7, 20) * Fraction(6619, 8470))
KC_OPT = float(Fraction(-927, 970))


def optimal_gain_psd(p, w):
    """The paper's spectrum at the loss-optimal internal gain, written out:
    [(exp(-2r) + eps^2) w^2 / (4 kp) + eps^2 kp / (1 + eps^2 exp(2r)) + kpp] / (2 N)."""
    eps2 = p.epsilon_sq
    floor = eps2 * p.kappa_prime / (1.0 + eps2 * math.exp(2.0 * p.r_squeeze)) + p.kappa_double_prime
    slope = (math.exp(-2.0 * p.r_squeeze) + eps2) / (4.0 * p.kappa_prime)
    return 0.5 * (slope * np.square(w) + floor) / p.n_photons


def lossless_input_psd(p, w):
    """The paper's lossless-resonator spectrum with input squeezing only:
    (exp(-2r) + eps^2) (w^2 + kappa^2) / (8 kappa N)."""
    em2r = math.exp(-2.0 * p.r_squeeze)
    return (em2r + p.epsilon_sq) * (np.square(w) + p.kappa ** 2) / (8.0 * p.kappa * p.n_photons)


def lossless_double_psd(p, w):
    """The same with the optimal internal gain added:
    [(exp(-2r) + eps^2) w^2 + 4 kappa^2 eps^2 exp(-2r) / (exp(-2r) + eps^2)] / (8 kappa N)."""
    em2r, eps2 = math.exp(-2.0 * p.r_squeeze), p.epsilon_sq
    floor = 4.0 * p.kappa ** 2 * eps2 * em2r / (em2r + eps2)
    return ((em2r + eps2) * np.square(w) + floor) / (8.0 * p.kappa * p.n_photons)


def sum_noise_psd(p, w):
    """The detected sum noise, not referred to the signal, written out:
    eta/2 [((w^2 + (kp - kpp - kc)^2) exp(-2r) + 4 kp kpp) / (w^2 + (kappa + kc)^2) + eps^2]."""
    w2 = np.square(w)
    kp, kpp, kc = p.kappa_prime, p.kappa_double_prime, p.k_c
    em2r = math.exp(-2.0 * p.r_squeeze)
    lorentz = ((w2 + (kp - kpp - kc) ** 2) * em2r + 4.0 * kp * kpp) / (w2 + (p.kappa + kc) ** 2)
    return 0.5 * p.eta * (lorentz + p.epsilon_sq)


class TestSumNoise:
    # The un-referred detected noise is the solver's ``xi_referred=False``
    # output; the written-out Lorentzian above is its oracle.
    DC = np.array([0.0])

    def test_vacuum_limit(self, lossless_params):
        w = np.array([0.0, 0.7, 3.0])
        solver = sq.psd_from_response(lossless_params, w, xi_referred=False).values
        assert solver == pytest.approx(np.full(3, 0.5), rel=1e-15)
        assert sum_noise_psd(lossless_params, w) == pytest.approx(np.full(3, 0.5), rel=1e-15)

    def test_reference_dc_value(self, fig2_params):
        solver = sq.psd_from_response(fig2_params, self.DC, xi_referred=False).values[0]
        assert solver == pytest.approx(SUM_NOISE_0, rel=1e-14)
        assert sum_noise_psd(fig2_params, 0.0) == pytest.approx(SUM_NOISE_0, rel=1e-14)

    def test_perfect_squeezing_limit(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0,
                         n_photons=1.0, r_squeeze=20.0)
        assert sq.psd_from_response(p, self.DC, xi_referred=False).values[0] < 1e-17
        assert sum_noise_psd(p, 0.0) < 1e-17

    def test_consistent_with_general_solver(self):
        rng = np.random.default_rng(10)
        w = np.linspace(0.0, 4.0, 17)
        for _ in range(10):
            p = random_cancelled_params(rng)
            solver = sq.psd_from_response(p, w, xi_referred=False).values
            assert sum_noise_psd(p, w) == pytest.approx(solver, rel=1e-12)


class TestMeasurementPsd:
    def test_reduces_to_no_squeeze(self):
        rng = np.random.default_rng(11)
        w = np.linspace(0.0, 4.0, 33)
        for _ in range(20):
            p = replace(random_cancelled_params(rng, with_kc=False), r_squeeze=0.0)
            coherent = (w ** 2 + p.kappa ** 2) / (8.0 * p.kappa_prime * p.eta * p.n_photons)
            assert sq.measurement_psd_raw(p, w) == pytest.approx(coherent, rel=5e-15)

    def test_reference_spot_values(self, fig2_params):
        assert sq.measurement_psd_raw(fig2_params, 1.0) == pytest.approx(S_INPUT_1, rel=1e-13)
        popt = replace(fig2_params, k_c=sq.optimal_kc(fig2_params))
        assert sq.measurement_psd_raw(popt, 0.0) == pytest.approx(S_DOUBLE_0, rel=1e-13)

    def test_rates_whose_squares_underflow(self):
        # Lossless, no squeezing: S = (omega^2 / kappa' + kappa') / 8N,
        # though kappa'^2 and omega^2 underflow to 0 at kappa' = 1e-200:
        # in units of kappa = kappa' it is (kappa' / 8N) (y^2 + 1).
        p = SensorParams(kappa_prime=1e-200, kappa_double_prime=0.0, eta=1.0, n_photons=1.0)
        assert sq.spectra.quadratic_coefficients(p) == pytest.approx((1.25e-201, 1.0, 1.0),
                                                                     rel=1e-15, abs=0.0)
        w = np.array([0.0, 1e-200, 4e-200])
        assert sq.measurement_psd_raw(p, w) == pytest.approx(
            [1.25e-201, 2.5e-201, 2.125e-200], rel=1e-15, abs=0.0)

    def test_kc_beyond_stability_rejected(self, fig2_params):
        bad = replace(fig2_params, kappa_double_prime=0.5)  # widen kappa, keep k_c legal
        bad = replace(bad, k_c=1.3)
        with pytest.raises(RangeError):
            sq.measurement_psd_raw(replace(bad, kappa_double_prime=0.1), 0.0)

    def test_optimal_gain_substitution_matches_optimal_form(self):
        rng = np.random.default_rng(12)
        w = np.linspace(0.0, 4.0, 33)
        for _ in range(20):
            p = random_cancelled_params(rng)
            popt = replace(p, k_c=sq.optimal_kc(p))
            assert sq.measurement_psd_raw(popt, w) == pytest.approx(
                optimal_gain_psd(p, w), rel=1e-12)


class TestClosedFormDispatch:
    def test_lossless_no_squeeze_meets_snl_at_kappa(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0, n_photons=1.0)
        value = sq.closed_form_psd(Scenario.no_squeeze(), p, 1.0)
        assert value == pytest.approx(0.25, rel=1e-15)
        assert value == pytest.approx(sq.snl(p, 1.0), rel=1e-15)

    def test_reference_values(self, fig2_params):
        cases = [
            (Scenario.no_squeeze(), S_NO_SQUEEZE_0, S_NO_SQUEEZE_1),
            (Scenario.input_squeeze(), S_INPUT_0, S_INPUT_1),
            (Scenario.double_squeeze_optimal(), S_DOUBLE_0, S_DOUBLE_1),
        ]
        for scenario, at0, at1 in cases:
            p = scenario.materialize(fig2_params)
            assert sq.closed_form_psd(scenario, p, 0.0) == pytest.approx(at0, rel=1e-13)
            assert sq.closed_form_psd(scenario, p, 1.0) == pytest.approx(at1, rel=1e-13)

    def test_unmaterialized_params_give_the_scenario_curve(self):
        rng = np.random.default_rng(43)
        w = np.linspace(0.0, 4.0, 17)
        for _ in range(20):
            p = random_cancelled_params(rng)
            assert p.k_c != 0.0 and p.r_squeeze > 0.0
            for sc in (*SCENARIOS, Scenario.custom()):
                assert np.array_equal(sq.closed_form_psd(sc, p, w),
                                      sq.scenario_curve(sc, p, w).values)

    def test_custom_uses_general_form(self, fig2_params):
        p = replace(fig2_params, k_c=-0.4)
        assert sq.closed_form_psd(Scenario.custom(), p, 1.0) == pytest.approx(
            sq.measurement_psd_raw(p, 1.0), rel=1e-15)

    def test_ordering_with_any_squeezing(self):
        rng = np.random.default_rng(13)
        w = np.linspace(0.0, 4.0, 41)
        for _ in range(20):
            p = replace(random_cancelled_params(rng, with_kc=False),
                        r_squeeze=rng.uniform(0.1, 1.5), eta=rng.uniform(0.3, 0.95))
            s_no, s_in, s_db = (sq.scenario_curve(sc, p, w).values for sc in SCENARIOS)
            assert np.all(s_db < s_in)
            assert np.all(s_in < s_no)

    def test_all_spectra_scale_inversely_with_photon_number(self, fig2_params):
        w = np.linspace(0.0, 4.0, 9)
        eight = replace(fig2_params, n_photons=8.0)
        for sc in SCENARIOS:
            base = sq.scenario_curve(sc, fig2_params, w).values
            scaled = sq.scenario_curve(sc, eight, w).values
            assert scaled == pytest.approx(base / 8.0, rel=1e-14)
        assert sq.snl(eight, w) == pytest.approx(sq.snl(fig2_params, w) / 8.0, rel=1e-14)

    def test_even_in_frequency(self, fig2_params):
        w = np.linspace(0.25, 4.0, 8)
        for sc in SCENARIOS[1:]:
            p = sc.materialize(fig2_params)
            assert sq.closed_form_psd(sc, p, w) == pytest.approx(
                sq.closed_form_psd(sc, p, -w), rel=1e-15)
        assert sq.snl(fig2_params, w) == pytest.approx(sq.snl(fig2_params, -w), rel=1e-15)


class TestSnl:
    def test_zero_at_dc(self, fig2_params):
        assert sq.snl(fig2_params, 0.0) == 0.0

    def test_unit_values(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0, n_photons=1.0)
        assert sq.snl(p, 1.0) == 0.25
        assert sq.snl(replace(p, n_photons=2.0), 3.0) == pytest.approx(0.375, rel=1e-15)

    def test_envelope_of_bandwidth_optimization(self):
        # The numeric minimum of the lossless no-squeezing form over the
        # bandwidth must trace out the limit at each frequency.
        for w in (0.25, 0.5, 1.0, 2.0, 4.0):
            res = sq.numeric_min_kappa(w, n_photons=1.0)
            assert res.value == pytest.approx(w / 4.0, rel=1e-10)


class TestLosslessForms:
    # A lossless resonator is the quadratic at kappa_double_prime = 0;
    # the paper's two lossless formulas above are the oracles.
    def test_balance_point_equality(self):
        # exp(-2r) = epsilon^2 makes internal squeezing redundant.
        eta = 0.7
        eps2 = (1.0 - eta) / eta
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=eta,
                         n_photons=1.0, r_squeeze=-0.5 * math.log(eps2))
        w = np.linspace(0.0, 4.0, 401)
        s_in = sq.scenario_curve(Scenario.input_squeeze(), p, w).values
        s_db = sq.scenario_curve(Scenario.double_squeeze_optimal(), p, w).values
        assert np.max(np.abs(s_in - s_db) / s_in) < 1e-12
        assert s_in == pytest.approx(lossless_input_psd(p, w), rel=1e-13)
        assert s_db == pytest.approx(lossless_double_psd(p, w), rel=1e-13)

    def test_reference_spot_values(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=0.7,
                         n_photons=1.0, r_squeeze=0.5 * math.log(30.0))
        dc = np.array([0.0])
        s_in = sq.scenario_curve(Scenario.input_squeeze(), p, dc).values[0]
        s_db = sq.scenario_curve(Scenario.double_squeeze_optimal(), p, dc).values[0]
        for value, oracle, spot in ((s_in, lossless_input_psd, Fraction(97, 1680)),
                                    (s_db, lossless_double_psd, Fraction(3, 194))):
            assert value == pytest.approx(float(spot), rel=1e-13)
            assert oracle(p, 0.0) == pytest.approx(float(spot), rel=1e-13)

    def test_input_only_reduces_to_no_squeeze(self):
        p = SensorParams(kappa_prime=2.0, kappa_double_prime=0.0, eta=1.0, n_photons=1.5)
        w = np.linspace(0.0, 5.0, 21)
        coherent = (w ** 2 + p.kappa ** 2) / (8.0 * p.kappa_prime * p.eta * p.n_photons)
        assert sq.scenario_curve(Scenario.input_squeeze(), p, w).values == pytest.approx(
            coherent, rel=1e-15)
        assert lossless_input_psd(p, w) == pytest.approx(coherent, rel=1e-15)

    def test_quadratic_matches_paper_forms_on_random_draws(self):
        rng = np.random.default_rng(14)
        w = np.linspace(0.0, 4.0, 41)
        for _ in range(200):
            p = SensorParams(kappa_prime=math.exp(rng.uniform(-2.0, 2.0)), kappa_double_prime=0.0,
                             eta=rng.uniform(0.3, 1.0), n_photons=math.exp(rng.uniform(-1.5, 1.5)),
                             r_squeeze=rng.uniform(0.0, 2.0))
            assert sq.scenario_curve(Scenario.input_squeeze(), p, w).values == pytest.approx(
                lossless_input_psd(p, w), rel=1e-13)
            assert sq.scenario_curve(Scenario.double_squeeze_optimal(), p, w).values == \
                pytest.approx(lossless_double_psd(p, w), rel=1e-13)

    def test_double_is_strictly_better_off_balance(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=0.7,
                         n_photons=1.0, r_squeeze=0.5 * math.log(30.0))
        dc = np.array([0.0])
        assert sq.scenario_curve(Scenario.double_squeeze_optimal(), p, dc).values[0] < \
            sq.scenario_curve(Scenario.input_squeeze(), p, dc).values[0]

    def test_optimal_floor_vanishes_with_loss_or_strong_squeezing(self):
        # The DC floor of the optimal-gain spectrum (lossless resonator)
        # is epsilon^2 kappa' / (1 + epsilon^2 exp(2r)) and dies off
        # either as the output loss disappears or as squeezing grows.
        # At eta = 1 the optimal gain sits on the stability edge, so the
        # loss is taken to zero as a limit.
        base = dict(kappa_prime=1.0, kappa_double_prime=0.0, n_photons=1.0)
        scenario = Scenario.double_squeeze_optimal()

        def floor(p):
            value = sq.closed_form_psd(scenario, scenario.materialize(p), 0.0)
            assert value == pytest.approx(optimal_gain_psd(p, 0.0), rel=1e-12)
            return value

        vanishing_loss = [floor(SensorParams(eta=1.0 - 10.0 ** -k, r_squeeze=0.5, **base))
                          for k in (2, 4, 6, 8, 10)]
        assert np.all(np.diff(vanishing_loss) < 0.0)
        assert vanishing_loss[-1] < 1e-10
        floors = [floor(SensorParams(eta=0.7, r_squeeze=r, **base))
                  for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert np.all(np.diff(floors) < 0.0)
        assert floors[-1] < 1e-7

    def test_matches_general_solver(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=0.7,
                         n_photons=1.0, r_squeeze=0.5 * math.log(30.0))
        w = np.linspace(0.0, 4.0, 33)
        oracle_in = sq.psd_from_response(p, w).values
        assert sq.scenario_curve(Scenario.input_squeeze(), p, w).values == pytest.approx(
            oracle_in, rel=1e-12)
        assert lossless_input_psd(p, w) == pytest.approx(oracle_in, rel=1e-12)
        popt = replace(p, k_c=sq.optimal_kc(p))
        oracle_db = sq.psd_from_response(popt, w).values
        assert sq.scenario_curve(Scenario.double_squeeze_optimal(), p, w).values == pytest.approx(
            oracle_db, rel=1e-12)
        assert lossless_double_psd(p, w) == pytest.approx(oracle_db, rel=1e-12)


class TestLossFactor:
    def test_sensitivity_decreases_monotonically_with_efficiency(self):
        # Less detection loss, a smaller loss factor (1 - eta) / eta and a
        # lower squeezed spectrum.
        values = []
        for eta in np.linspace(0.5, 1.0, 11):
            p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=eta,
                             n_photons=1.0, r_squeeze=1.0)
            values.append(sq.closed_form_psd(Scenario.input_squeeze(), p, 0.7))
        assert np.all(np.diff(values) < 0.0)


class TestNormalization:
    """Normalized spectra are the closed forms at the unit point."""

    def test_identity_at_unit_scales(self, fig2_params):
        grid = np.linspace(0.0, 4.0, 5)
        curve = sq.scenario_curve(Scenario.input_squeeze(), fig2_params, grid)
        normalized = sq.scenario_curve(Scenario.input_squeeze(), fig2_params.unit_point(), grid)
        assert normalized.values == pytest.approx(curve.values, rel=1e-15)
        assert normalized.values[0] == pytest.approx(S_INPUT_0, rel=1e-13)

    def test_roundtrip(self):
        p = SensorParams(kappa_prime=2.5, kappa_double_prime=0.25, eta=0.8, n_photons=3.0)
        grid = np.linspace(0.0, 10.0, 11)
        curve = sq.scenario_curve(Scenario.no_squeeze(), p, grid)
        normalized = sq.scenario_curve(Scenario.no_squeeze(), p.unit_point(), grid / 2.5)
        assert normalized.omegas == pytest.approx(curve.omegas / 2.5, rel=1e-15)
        assert normalized.values == pytest.approx(curve.values * 3.0 / 2.5, rel=1e-15)
