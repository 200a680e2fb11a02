import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import sqz_sensor as sq
from sqz_sensor import (
    NoBandError,
    RangeError,
    Scenario,
    SensorParams,
)

from conftest import random_cancelled_params
from test_spectra import S_DOUBLE_0, S_DOUBLE_1, S_INPUT_0

KC_OPT_REFERENCE = float(Fraction(-927, 970))


def brute_force_min_kc(params, omega, levels=4, points=2001):
    """Independent zooming grid search over the internal gain."""
    lo, hi = -params.kappa * (1.0 - 1e-9), params.kappa * (1.0 - 1e-9)
    best = None
    for _ in range(levels):
        grid = np.linspace(lo, hi, points)
        vals = [sq.measurement_psd_raw(replace(params, k_c=float(k)), omega) for k in grid]
        i = int(np.argmin(vals))
        best = grid[i]
        span = grid[1] - grid[0]
        lo = max(lo, best - 2 * span)
        hi = min(hi, best + 2 * span)
    return float(best)


class TestOptimalKc:
    def test_reference_value(self, fig2_params):
        assert sq.optimal_kc(fig2_params) == pytest.approx(KC_OPT_REFERENCE, rel=1e-12)

    def test_reference_value_vs_brute_force(self, fig2_params):
        brute = brute_force_min_kc(fig2_params, 0.0)
        assert sq.optimal_kc(fig2_params) == pytest.approx(brute, abs=1e-8)

    def test_antisqueezing_regime_is_negative(self, fig2_params):
        # Output loss dominates the squeezed input noise here.
        assert sq.optimal_kc(fig2_params) < 0.0

    def test_lossless_limit(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=1.0,
                         n_photons=1.0, r_squeeze=0.8)
        assert sq.optimal_kc(p) == pytest.approx(0.9, rel=1e-14)

    def test_lossless_limit_when_squeezing_underflows(self):
        # exp(-2r) underflows to 0 beyond r of about 372, and eta = 1 has
        # no loss term: the optimum stays the eta = 1 value kp - kpp.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=1.0,
                         n_photons=1.0, r_squeeze=400.0)
        assert math.exp(-2.0 * p.r_squeeze) + p.epsilon_sq == 0.0
        assert sq.optimal_kc(p) == pytest.approx(0.9, rel=1e-14)
        scenario = sq.Scenario.double_squeeze_optimal()
        assert math.isfinite(sq.closed_form_psd(scenario, scenario.materialize(p), 1.0))

    def test_sign_flips_at_noise_balance(self):
        # The zero of the optimum sits where exp(-2r) (kp - kpp) equals
        # epsilon^2 kappa.
        kp, kpp, eta = 1.0, 0.1, 0.7
        eps2 = (1.0 - eta) / eta
        r_balance = -0.5 * math.log(eps2 * (kp + kpp) / (kp - kpp))
        base = dict(kappa_prime=kp, kappa_double_prime=kpp, eta=eta, n_photons=1.0)
        at = sq.optimal_kc(SensorParams(r_squeeze=r_balance, **base))
        above = sq.optimal_kc(SensorParams(r_squeeze=r_balance - 0.1, **base))
        below = sq.optimal_kc(SensorParams(r_squeeze=r_balance + 0.1, **base))
        assert abs(at) < 1e-14
        assert above > 0.0 > below

    def test_always_inside_stability_interval(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            p = random_cancelled_params(rng)
            kc = sq.optimal_kc(p)
            assert -p.kappa < kc <= p.kappa_prime - p.kappa_double_prime + 1e-15


class TestNumericMinKc:
    def test_matches_closed_form(self, fig2_params):
        res = sq.numeric_min_kc(fig2_params, omega_probe=0.0)
        assert not res.boundary
        assert res.argmin == pytest.approx(sq.optimal_kc(fig2_params), abs=1e-9)

    def test_probe_frequency_invariance(self, fig2_params):
        argmins = [
            sq.numeric_min_kc(fig2_params, omega_probe=w).argmin
            for w in (0.0, 1.0, 2.0, 3.0)
        ]
        assert max(argmins) - min(argmins) < 1e-8

    def test_boundary_case_flagged(self):
        # Lossless detection and resonator push the optimum to the edge
        # of the stability interval.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0,
                         n_photons=1.0, r_squeeze=0.0)
        res = sq.numeric_min_kc(p, omega_probe=0.0)
        assert res.boundary
        assert res.argmin == pytest.approx(1.0, rel=1e-6)

    def test_objective_value_consistent(self, fig2_params):
        res = sq.numeric_min_kc(fig2_params, omega_probe=1.0)
        assert res.value == pytest.approx(S_DOUBLE_1, rel=1e-12)

    def test_optimum_inside_first_grid_cell(self):
        # At 35 dB the optimum sits 6.3e-4 kappa inside the stability edge:
        # close to it, but far enough for the polish step to fit.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.5,
                         n_photons=1.0, r_squeeze=sq.r_from_db(35.0))
        res = sq.numeric_min_kc(p, omega_probe=0.0)
        assert not res.boundary
        assert abs(res.argmin - sq.optimal_kc(p)) <= 1e-8

    def test_overflowed_minimum_rejected(self):
        # kappa^2 overflows across the whole stable range of k_c.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=1e160, eta=0.7,
                         n_photons=1.0, r_squeeze=1.7)
        with pytest.raises(RangeError, match="not finite"):
            sq.numeric_min_kc(p)

    def test_objective_independent_of_kc_rejected(self):
        # eta = 1 and exp(-2r) underflowed: every stable k_c gives the
        # same spectrum, so there is no unique optimum.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=1.0,
                         n_photons=1.0, r_squeeze=400.0)
        with pytest.raises(RangeError, match="no unique optimum"):
            sq.numeric_min_kc(p, omega_probe=0.0)


class TestSnlOptimalKappa:
    def test_unit_case(self):
        res = sq.snl_optimal_kappa(1.0, 1.0)
        assert res.argmin == 1.0 and res.value == 0.25

    def test_scales_with_frequency_and_photons(self):
        res = sq.snl_optimal_kappa(3.0, 2.0)
        assert res.argmin == 3.0
        assert res.value == pytest.approx(0.375, rel=1e-15)

    def test_negative_frequency_uses_magnitude(self):
        assert sq.snl_optimal_kappa(-2.0, 1.0).argmin == 2.0

    def test_degenerate_at_dc(self):
        with pytest.raises(RangeError):
            sq.snl_optimal_kappa(0.0, 1.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, omega):
        with pytest.raises(RangeError, match="finite"):
            sq.snl_optimal_kappa(omega, 1.0)
        with pytest.raises(RangeError, match="finite"):
            sq.numeric_min_kappa(omega, 1.0)

    def test_numeric_agreement_on_grid(self):
        for w in np.linspace(0.25, 4.0, 7):
            closed = sq.snl_optimal_kappa(float(w), 1.5)
            numeric = sq.numeric_min_kappa(float(w), 1.5)
            assert numeric.argmin == pytest.approx(closed.argmin, rel=1e-10)
            assert numeric.value == pytest.approx(closed.value, rel=1e-10)
            assert not numeric.boundary

    @pytest.mark.parametrize("omega", [-1e-4, 1e-2, 0.37, 1.0, -50.0, 1e4])
    @pytest.mark.parametrize("n_photons", [1e-3, 1.0, 42.0, 1e3])
    def test_polish_keeps_a_margin_below_the_gate(self, omega, n_photons):
        # A polish that is biased at first order in its spacing lands
        # about 5e-11 off, half the 1e-10 gate above.
        res = sq.numeric_min_kappa(omega, n_photons)
        assert abs(res.argmin / abs(omega) - 1.0) <= 3e-11

    @pytest.mark.parametrize("omega", [1e300, 1e-310])
    def test_frequency_beyond_float_range_raises_package_error(self, omega):
        with pytest.raises((sq.ConvergenceError, RangeError)):
            sq.numeric_min_kappa(omega, 1.0)

    @pytest.mark.parametrize("omega, rel", [(1e-155, 1e-9), (1e-160, 1e-3), (1e-300, 1e-12)])
    def test_tiny_frequency_finds_the_optimum(self, omega, rel):
        # kappa^2 and omega^2 are subnormal or zero over much of the search.
        # Below about 2e-162 kappa^2 is 0 and the floor kappa / 8N is
        # recomputed; near 1e-160 the subnormal kappa^2 keeps about 4 digits.
        res = sq.numeric_min_kappa(omega, 1.0)
        assert res.argmin == pytest.approx(omega, rel=rel, abs=0.0)
        assert res.value == pytest.approx(omega / 4.0, rel=rel, abs=0.0)
        assert not res.boundary


def quadratic_crossings(c2: float, c0: float, n_photons: float = 1.0):
    """Roots of c2 w^2 - w/(4N) + c0 via the companion-matrix solver."""
    roots = np.roots([c2, -0.25 / n_photons, c0])
    return tuple(sorted(float(r) for r in roots))


class TestSnlCrossings:
    def test_input_squeeze_band_matches_quadratic_oracle(self, fig2_params):
        em2r = math.exp(-2.0 * fig2_params.r_squeeze)
        c2 = (em2r + fig2_params.epsilon_sq) / (8.0 * fig2_params.kappa_prime)
        expected = quadratic_crossings(c2, S_INPUT_0)
        band = sq.snl_crossings(Scenario.input_squeeze(), fig2_params, (0.0, 8.0))
        assert band.lower == pytest.approx(expected[0], abs=1e-8)
        assert band.upper == pytest.approx(expected[1], abs=1e-8)

    def test_double_squeeze_band_matches_quadratic_oracle(self, fig2_params):
        em2r = math.exp(-2.0 * fig2_params.r_squeeze)
        c2 = (em2r + fig2_params.epsilon_sq) / (8.0 * fig2_params.kappa_prime)
        expected = quadratic_crossings(c2, S_DOUBLE_0)
        band = sq.snl_crossings(Scenario.double_squeeze_optimal(), fig2_params, (0.0, 8.0))
        assert band.lower == pytest.approx(expected[0], abs=1e-8)
        assert band.upper == pytest.approx(expected[1], abs=1e-8)

    def test_double_band_contains_input_band(self, fig2_params):
        b_in = sq.snl_crossings(Scenario.input_squeeze(), fig2_params, (0.0, 8.0))
        b_db = sq.snl_crossings(Scenario.double_squeeze_optimal(), fig2_params, (0.0, 8.0))
        assert b_db.lower < b_in.lower
        assert b_db.upper > b_in.upper

    def test_bands_exceed_resonator_bandwidth(self, fig2_params):
        for scenario in (Scenario.input_squeeze(), Scenario.double_squeeze_optimal()):
            band = sq.snl_crossings(scenario, fig2_params, (0.0, 8.0))
            assert band.width > fig2_params.kappa

    def test_inside_band_spectrum_is_below_limit(self, fig2_params):
        band = sq.snl_crossings(Scenario.input_squeeze(), fig2_params, (0.0, 8.0))
        p = Scenario.input_squeeze().materialize(fig2_params)
        mid = np.linspace(band.lower * 1.01, band.upper * 0.99, 17)
        assert np.all(sq.closed_form_psd(Scenario.input_squeeze(), p, mid) < sq.snl(p, mid))

    @pytest.mark.parametrize("kappa_prime", [2.0, 1e-150, 1e150])
    def test_lossless_no_squeeze_tangency(self, kappa_prime):
        # With no squeezing the lossless spectrum touches the limit at
        # exactly the half-bandwidth and never dips below, also where
        # N c2 and N c0 are far from 1 (their product stays 1/64).
        p = SensorParams(kappa_prime=kappa_prime, kappa_double_prime=0.0, eta=1.0,
                         n_photons=1.0)
        band = sq.snl_crossings(Scenario.no_squeeze(), p, (0.0, 10.0 * kappa_prime))
        assert band.is_degenerate
        assert band.lower == pytest.approx(kappa_prime, rel=1e-6)

    @pytest.mark.parametrize("scenario", [Scenario.no_squeeze(), Scenario.input_squeeze()])
    def test_no_band_when_the_quadratic_overflows(self, scenario):
        # N c2 and N c0 are both about 1e199, so 4 c2 c0 overflows: the
        # spectrum is far above the limit, not touching it.
        p = SensorParams(kappa_prime=1e-200, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, r_squeeze=1.7)
        with pytest.raises(NoBandError):
            sq.snl_crossings(scenario, p, (0.0, 8e-200))

    def test_band_when_squeezing_underflows(self, fig2_params):
        # eta = 1 with exp(-2r) underflowed: c2 = 0, the spectrum is the
        # constant c0 = kpp / (2 N) and stays below the limit from 4 N c0.
        p = replace(fig2_params, eta=1.0, r_squeeze=400.0)
        for scenario in (Scenario.input_squeeze(), Scenario.double_squeeze_optimal()):
            band = sq.snl_crossings(scenario, p, (0.0, 8.0))
            assert band.lower == pytest.approx(0.2, rel=1e-15)
            assert band.upper == 8.0

    def test_interval_inside_band_is_the_band(self, fig2_params):
        band = sq.snl_crossings(Scenario.input_squeeze(), fig2_params, (3.0, 3.5))
        assert (band.lower, band.upper) == (3.0, 3.5)

    def test_band_outside_the_interval(self, fig2_params):
        # The input-squeeze band, about (0.54, 3.79), ends below 5.
        with pytest.raises(NoBandError, match=r"no sub-shot-noise frequency in \(5\.0, 8\.0\)"):
            sq.snl_crossings(Scenario.input_squeeze(), fig2_params, (5.0, 8.0))

    def test_lossy_no_squeeze_has_no_band(self, fig2_params):
        with pytest.raises(NoBandError):
            sq.snl_crossings(Scenario.no_squeeze(), fig2_params, (0.0, 8.0))

    @pytest.mark.parametrize("n_photons", [1e-300, 1e-200, 1e-160, 1e160, 1e170, 1e300])
    def test_band_does_not_depend_on_photon_number(self, n_photons):
        # Spectrum and limit both scale as 1/N, so the band does not move.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, r_squeeze=1.7)
        p_n = replace(p, n_photons=n_photons)
        for scenario in (Scenario.input_squeeze(), Scenario.double_squeeze_optimal()):
            at_one = sq.snl_crossings(scenario, p, (0.0, 8.0))
            band = sq.snl_crossings(scenario, p_n, (0.0, 8.0))
            assert band.lower == pytest.approx(at_one.lower, rel=1e-15)
            assert band.upper == pytest.approx(at_one.upper, rel=1e-15)
        with pytest.raises(NoBandError):
            sq.snl_crossings(Scenario.no_squeeze(), p_n, (0.0, 8.0))

    def test_nan_edges_rejected(self):
        with pytest.raises(RangeError):
            sq.SnlBand(lower=math.nan, upper=math.nan)

    def test_bad_interval_rejected(self, fig2_params):
        with pytest.raises(RangeError):
            sq.snl_crossings(Scenario.input_squeeze(), fig2_params, (2.0, 1.0))
