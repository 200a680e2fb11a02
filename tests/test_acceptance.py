"""Acceptance gate: every criterion at its stated tolerance and runtime.

Each test prints one PASS line (visible with ``pytest -s``); a failing
criterion fails its test.  Expected values are frozen from independent
oracles: rational arithmetic for the closed-form spot values, a
companion-matrix root solver for the band edges, and zooming grid
searches for the optima.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import sqz_sensor as sq
from sqz_sensor import Scenario, SensorParams, SimulationConfig
from sqz_sensor.cli import main
from sqz_sensor.stochastic import spectral_comparison_config

from conftest import random_cancelled_params
from test_cli import read_curve_csv
from test_spectra import lossless_double_psd, lossless_input_psd

# Independent spot values for the reference point (kp=1, kpp=1/10,
# eta=7/10, exp(2r)=30, N=1), exact rational arithmetic.
SPOTS = {
    "no_squeeze": (Fraction(121, 560), Fraction(221, 560)),
    "input_squeeze": (Fraction(6619, 56000), Fraction(29557, 168000)),
    "double_squeeze_optimal": (Fraction(127, 1940), Fraction(20077, 162960)),
}


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(criterion: int, message: str, timer: Timer, budget: float):
    print(f"ACCEPTANCE {criterion} PASS: {message} [{timer.elapsed:.3f} s < {budget} s]")
    assert timer.elapsed < budget, f"criterion {criterion} exceeded its {budget} s runtime budget"


def test_criterion_1_reference_figure_reproduction(tmp_path, fig2_params):
    budget = 1.0
    with Timer() as t:
        out_dir = tmp_path / "fig2"
        rc = main(["fig2", "--out-dir", str(out_dir), "--points", "401"])
        assert rc == 0
        curves = {}
        for name in ("no_squeeze", "input_squeeze", "double_squeeze_optimal"):
            omegas, values, _ = read_curve_csv(out_dir / f"{name}.csv")
            curves[name] = values
        grid = omegas
        s_no = curves["no_squeeze"]
        s_in = curves["input_squeeze"]
        s_db = curves["double_squeeze_optimal"]

        # ordering at every grid point, strict for these parameters
        assert np.all(s_db < s_in) and np.all(s_in < s_no)

        i1 = int(np.argmin(np.abs(grid - 1.0)))
        assert grid[i1] == 1.0
        worst = 0.0
        for name, (at0, at1) in SPOTS.items():
            for idx, frozen in ((0, at0), (i1, at1)):
                rel = abs(curves[name][idx] / float(frozen) - 1.0)
                worst = max(worst, rel)
                assert rel < 1e-9
    report(1, f"curve ordering on 401 points and six spot values, worst "
              f"relative deviation {worst:.2e} (gate 1e-9)", t, budget)


def test_criterion_2_snl_envelope():
    budget = 1.0
    with Timer() as t:
        worst_arg, worst_val = 0.0, 0.0
        for w in (0.25, 0.5, 1.0, 2.0, 4.0):
            res = sq.numeric_min_kappa(w, n_photons=1.0)
            rel_arg = abs(res.argmin / w - 1.0)
            rel_val = abs(res.value / (w / 4.0) - 1.0)
            worst_arg = max(worst_arg, rel_arg)
            worst_val = max(worst_val, rel_val)
            assert rel_arg < 1e-8 and rel_val < 1e-8
    report(2, f"bandwidth optimum traces the shot-noise limit; worst relative "
              f"deviations argmin {worst_arg:.2e}, value {worst_val:.2e} (gate 1e-8)",
           t, budget)


def test_criterion_3_optimal_internal_gain():
    budget = 5.0
    rng = np.random.default_rng(2027)
    with Timer() as t:
        worst_match, worst_spread = 0.0, 0.0
        for _ in range(100):
            p = random_cancelled_params(rng)
            closed = sq.optimal_kc(p)
            argmins = [
                sq.numeric_min_kc(p, omega_probe=w).argmin
                for w in (0.0, p.kappa_prime, 3.0 * p.kappa_prime)
            ]
            worst_match = max(worst_match, max(abs(a - closed) for a in argmins))
            worst_spread = max(worst_spread, max(argmins) - min(argmins))
        assert worst_match < 1e-8
        assert worst_spread < 1e-8
    report(3, f"100 random draws x 3 probe frequencies; worst |numeric - closed| "
              f"{worst_match:.2e}, worst probe spread {worst_spread:.2e} (gate 1e-8)",
           t, budget)


def test_criterion_4_lossless_equality():
    budget = 1.0
    with Timer() as t:
        eta = 0.7
        eps2 = (1.0 - eta) / eta
        balanced = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=eta,
                                n_photons=1.0, r_squeeze=-0.5 * math.log(eps2))
        w = np.linspace(0.0, 4.0, 401)
        s_in = sq.scenario_curve(Scenario.input_squeeze(), balanced, w).values
        s_db = sq.scenario_curve(Scenario.double_squeeze_optimal(), balanced, w).values
        worst = float(np.max(np.abs(s_in - s_db) / s_in))
        assert worst < 1e-12
        # The paper's two lossless formulas, written out, as the oracle.
        paper_in, paper_db = lossless_input_psd(balanced, w), lossless_double_psd(balanced, w)
        worst_paper = float(max(np.max(np.abs(s_in - paper_in) / paper_in),
                                np.max(np.abs(s_db - paper_db) / paper_db),
                                np.max(np.abs(paper_in - paper_db) / paper_in)))
        assert worst_paper < 1e-12
        # Independent of optimal_kc's algebra: the numeric optimum of the
        # internal gain sits at zero on the balance point.
        numeric_kc = sq.numeric_min_kc(balanced).argmin
        assert abs(numeric_kc) <= 1e-8

        unbalanced = replace(balanced, r_squeeze=0.5 * math.log(30.0))
        dc = np.array([0.0])
        gap = sq.scenario_curve(Scenario.input_squeeze(), unbalanced, dc).values[0] \
            - sq.scenario_curve(Scenario.double_squeeze_optimal(), unbalanced, dc).values[0]
        assert gap > 0.0
    report(4, f"balanced squeezing/loss curves agree to {worst:.2e} over 401 points "
              f"and {worst_paper:.2e} against the paper's forms (gate 1e-12), numeric optimal k_c {numeric_kc:.1e} (gate 1e-8); "
              f"off balance the double form wins by {gap:.3e} at DC",
           t, budget)


def test_criterion_5_frequency_domain_oracle():
    budget = 5.0
    rng = np.random.default_rng(4054)
    omegas = np.linspace(0.0, 4.0, 64)
    with Timer() as t:
        worst = 0.0
        for _ in range(100):
            p = random_cancelled_params(rng)
            oracle = sq.psd_from_response(p, omegas).values
            closed = sq.measurement_psd_raw(p, omegas)
            worst = max(worst, float(np.max(np.abs(oracle - closed) / closed)))
        assert worst < 1e-12
    report(5, f"general solver vs closed form on 100 random draws x 64 frequencies, "
              f"worst relative deviation {worst:.2e} (gate 1e-12)", t, budget)


def test_criterion_6_stochastic_oracle(fig2_params):
    budget = 180.0
    band = np.linspace(0.2, 3.0, 36)
    n_segments = 800  # >= 200 as required, sized for comfortable margin
    with Timer() as t:
        rms_by_scenario = {}
        for i, scenario in enumerate((Scenario.no_squeeze(), Scenario.input_squeeze(),
                                      Scenario.double_squeeze_optimal())):
            params = scenario.materialize(fig2_params)
            cfg = spectral_comparison_config(params, n_segments, seed=600 + i)
            run = sq.simulate(params, cfg)
            estimate = sq.estimate_psd(run, band, xi_referred=True).values
            closed = sq.closed_form_psd(scenario, params, band)
            rms = float(np.sqrt(np.mean((estimate / closed - 1.0) ** 2)))
            rms_by_scenario[scenario.tag] = rms
            assert rms < 0.05, f"{scenario.tag}: rms {rms}"

        lossless = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0,
                                eta=1.0, n_photons=1.0)
        gain_cfg = SimulationConfig(dt=0.01, duration=30000.0, seed=900, n_segments=10)
        gain_errors = {}
        for w in (0.01, 1.0):
            measured = sq.measure_gain(lossless, w, 1.0, gain_cfg)
            expected = 2.0 / math.sqrt(1.0 + w ** 2)
            rel = abs(measured / expected - 1.0)
            gain_errors[w] = rel
            assert rel < 0.02, f"gain at {w}: {measured} vs {expected}"
    rms_text = ", ".join(f"{k} {v:.1%}" for k, v in rms_by_scenario.items())
    gain_text = ", ".join(f"omega={k} {v:.2%}" for k, v in gain_errors.items())
    report(6, f"time-domain spectra at {n_segments} segments: {rms_text} "
              f"(gate 5% rms); gain recovery {gain_text} (gate 2%)", t, budget)


def test_criterion_7_sub_snl_bands(fig2_params):
    budget = 1.0
    with Timer() as t:
        em2r = math.exp(-2.0 * fig2_params.r_squeeze)
        c2 = (em2r + fig2_params.epsilon_sq) / (8.0 * fig2_params.kappa_prime)
        results = {}
        worst = 0.0
        for scenario in (Scenario.input_squeeze(), Scenario.double_squeeze_optimal()):
            c0 = float(SPOTS[scenario.tag][0])
            lo_oracle, hi_oracle = sorted(float(r) for r in np.roots([c2, -0.25, c0]))
            band = sq.snl_crossings(scenario, fig2_params, (0.0, 8.0))
            worst = max(worst, abs(band.lower - lo_oracle), abs(band.upper - hi_oracle))
            assert band.lower == pytest.approx(lo_oracle, abs=1e-8)
            assert band.upper == pytest.approx(hi_oracle, abs=1e-8)
            assert band.width > fig2_params.kappa
            results[scenario.tag] = (band.lower, band.upper)
        assert results["double_squeeze_optimal"][0] < results["input_squeeze"][0]
        assert results["double_squeeze_optimal"][1] > results["input_squeeze"][1]
    bands_text = "; ".join(f"{k}: ({v[0]:.6f}, {v[1]:.6f})" for k, v in results.items())
    report(7, f"sub shot-noise bands match the quadratic oracle to {worst:.2e} "
              f"(gate 1e-8) and exceed the resonator bandwidth: {bands_text}", t, budget)


def test_criterion_8_physical_estimate():
    budget = 1e-3
    with Timer() as t:
        kp, kpp = sq.rates_from_quality(2e15, 1e9, 10.0)
    kp_hz = kp / (2.0 * math.pi)
    assert kp_hz == pytest.approx(1.5915e6, rel=1e-4)
    assert abs(kp_hz / 1.6e6 - 1.0) < 0.01
    assert kpp == pytest.approx(1e6, rel=1e-15)
    report(8, f"coupling rate {kp_hz/1e6:.4f} MHz, within 1% of the 1.6 MHz estimate",
           t, budget)
