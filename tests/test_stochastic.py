import math
from dataclasses import replace

import numpy as np
import pytest

import sqz_sensor as sq
from sqz_sensor import (
    ConfigError,
    GridError,
    InstabilityError,
    RangeError,
    Scenario,
    SensorParams,
    SimulationConfig,
    SnrError,
)
from sqz_sensor.cli import _random_cancelled_params
from sqz_sensor.stochastic import _demodulate, spectral_comparison_config

from reference_demod import demodulate_loop
from reference_welch import welch_two_sided

BAND = np.linspace(0.2, 3.0, 36)


def rms_rel(estimate, reference):
    return float(np.sqrt(np.mean((estimate / reference - 1.0) ** 2)))


@pytest.fixture(scope="module")
def vacuum_params():
    return SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0, n_photons=1.0)


class TestSimulate:
    def test_bit_exact_reproducibility(self, fig2_params):
        cfg = SimulationConfig(dt=0.02, duration=500.0, seed=123, n_segments=10)
        a = sq.simulate(fig2_params, cfg)
        b = sq.simulate(fig2_params, cfg)
        assert np.array_equal(a.d_s, b.d_s)

    def test_seed_changes_realization(self, fig2_params):
        cfg = SimulationConfig(dt=0.02, duration=500.0, seed=123, n_segments=10)
        a = sq.simulate(fig2_params, cfg)
        b = sq.simulate(fig2_params, replace(cfg, seed=246))
        assert not np.array_equal(a.d_s, b.d_s)

    def test_zero_mean(self, vacuum_params):
        cfg = SimulationConfig(dt=0.02, duration=4000.0, seed=21, n_segments=10)
        run = sq.simulate(vacuum_params, cfg)
        # standard error of the mean of a correlated series from the
        # model's zero-frequency noise density
        s0 = sq.psd_from_response(vacuum_params, np.array([0.0]), xi_referred=False).values[0]
        se = math.sqrt(s0 / cfg.duration)
        assert abs(float(np.mean(run.d_s))) < 4.0 * se

    @pytest.mark.parametrize("method", ["euler", "exact"])
    def test_burn_in_steps_are_integrated_then_dropped(self, fig2_params, method):
        # dt = 2^-6 makes the one-second burn-in exactly 64 steps.
        cfg = SimulationConfig(dt=2.0 ** -6, duration=50.0, seed=23, n_segments=4,
                               burn_in=1.0, method=method)
        burned = sq.simulate(fig2_params, cfg)
        whole = sq.simulate(fig2_params, replace(cfg, duration=51.0, burn_in=0.0))
        assert whole.n_samples == burned.n_samples + 64
        assert np.array_equal(burned.d_s, whole.d_s[64:])

    def test_sample_count_rounds_down(self, fig2_params):
        cfg = SimulationConfig(dt=0.02, duration=100.03, seed=1, n_segments=4)
        run = sq.simulate(fig2_params, cfg)
        assert run.n_samples == int(100.03 / 0.02)

    def test_comparison_runs_hold_whole_sized_segments(self):
        # simulate keeps int(duration / dt) samples (see above); one short
        # and estimate_psd shortens every segment below a power of two.
        rng = np.random.default_rng(0)
        for budget in range(1, 2001):
            cfg = spectral_comparison_config(_random_cancelled_params(rng), budget, 0)
            n = int(cfg.duration / cfg.dt)
            nperseg = 2 * n // (budget + 1)
            assert n % (budget + 1) == 0 and nperseg & (nperseg - 1) == 0, budget

    def test_spurious_coupling_to_cosine_row_is_irrelevant(self):
        # The sine gain keeps feeding the cosine quadrature after the
        # cancellation, but nothing couples back into the detector: the
        # detected series must be identical sample for sample.
        base = dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                    n_photons=1.0, r_squeeze=0.5, k_c=-0.3)
        with_coupling = SensorParams(gamma_spm=0.1, k_s=0.2, **base)
        without = SensorParams(gamma_spm=0.0, k_s=0.0, **base)
        cfg = SimulationConfig(dt=0.02, duration=300.0, seed=77, n_segments=4)
        a = sq.simulate(with_coupling, cfg)
        b = sq.simulate(without, cfg)
        assert np.array_equal(a.d_s, b.d_s)

    def test_instability_propagates(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, k_s=2.0)
        with pytest.raises(InstabilityError):
            sq.simulate(p, SimulationConfig(dt=0.01, duration=10.0, seed=0, n_segments=1))

    def test_coarse_step_rejected(self, fig2_params):
        with pytest.raises(ConfigError, match="dt"):
            sq.simulate(fig2_params, SimulationConfig(dt=0.2, duration=10.0, seed=0, n_segments=1))

    def test_duration_shorter_than_one_step(self, fig2_params):
        with pytest.raises(ConfigError, match="duration shorter than one step"):
            sq.simulate(fig2_params, SimulationConfig(dt=0.01, duration=0.005, seed=0))

    def test_exact_requires_cancellation(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, gamma_spm=0.1, k_s=0.0)
        cfg = SimulationConfig(dt=0.02, duration=10.0, seed=0, n_segments=1, method="exact")
        with pytest.raises(ConfigError, match="cancelled"):
            sq.simulate(p, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimulationConfig(dt=-0.1, duration=1.0, seed=0)
        with pytest.raises(ConfigError):
            SimulationConfig(dt=0.1, duration=1.0, seed=-1)
        with pytest.raises(ConfigError):
            SimulationConfig(dt=0.1, duration=1.0, seed=0, n_segments=0)
        with pytest.raises(ConfigError):
            SimulationConfig(dt=0.1, duration=1.0, seed=0, method="heun")
        with pytest.raises(ConfigError, match="duration"):
            SimulationConfig(dt=0.1, duration=math.inf, seed=0)
        with pytest.raises(ConfigError, match="signal must be a SignalWaveform"):
            SimulationConfig(dt=0.1, duration=1.0, seed=0, signal=0.0)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ConfigError, match="burn_in"):
                SimulationConfig(dt=0.1, duration=1.0, seed=0, burn_in=bad)
        for bad in (math.nan, math.inf, 0.5):
            with pytest.raises(ConfigError, match="seed"):
                SimulationConfig(dt=0.1, duration=1.0, seed=bad)
        for bad in (math.nan, math.inf, 0.5):
            with pytest.raises(ConfigError, match="n_segments"):
                SimulationConfig(dt=0.1, duration=1.0, seed=0, n_segments=bad)


class TestEstimatePsd:
    def test_white_noise_estimator_consistency(self, vacuum_params):
        # Pure synthetic white series of known density, bypassing the
        # integrator entirely.
        s0, dt, n_seg = 0.8, 0.05, 400
        n = (n_seg + 1) * 512
        rng = np.random.default_rng(31)
        d = math.sqrt(s0 / dt) * rng.standard_normal(n)
        run = sq.SimulationRun(
            d_s=d, params=vacuum_params,
            config=SimulationConfig(dt=dt, duration=n * dt, seed=31, n_segments=n_seg),
            backend="synthetic",
        )
        grid = np.linspace(0.0, 0.8 * math.pi / dt, 24)
        est = sq.estimate_psd(run, grid).values
        scatter = rms_rel(est, s0)
        assert scatter < 2.5 / math.sqrt(n_seg)
        assert abs(float(np.mean(est)) / s0 - 1.0) < 0.02

    @pytest.mark.parametrize("n, n_seg, nperseg", [
        (85, 9, 16),        # the shortest segment estimate_psd accepts
        (3239, 100, 64),    # several FFT batches, the last one partial
        (10_000, 20, 952),
    ])
    def test_matches_scipy_two_sided_welch(self, vacuum_params, n, n_seg, nperseg):
        dt = 0.05
        d = np.random.default_rng(n).standard_normal(n)
        run = sq.SimulationRun(
            d_s=d, params=vacuum_params,
            config=SimulationConfig(dt=dt, duration=n * dt, seed=0, n_segments=n_seg),
            backend="synthetic",
        )
        assert int(2 * n // (n_seg + 1)) // 2 * 2 == nperseg
        assert (n - nperseg) % (nperseg // 2) > 0  # a tail no segment covers
        # DC, every bin centre, points between bins, and pi/dt
        k = np.arange(nperseg // 2)
        grid = np.sort(np.concatenate([k, k + 0.37]) * (2.0 * math.pi / (nperseg * dt)))
        grid = np.append(grid, math.pi / dt)
        want = np.interp(grid, *welch_two_sided(d, dt, nperseg))
        got = sq.estimate_psd(run, grid).values
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    def test_vacuum_sum_noise_flat(self, vacuum_params):
        cfg = spectral_comparison_config(vacuum_params, 800, seed=32)
        run = sq.simulate(vacuum_params, cfg)
        grid = np.linspace(0.0, 3.0, 31)
        est = sq.estimate_psd(run, grid).values
        assert rms_rel(est, 0.5) < 0.05

    @pytest.mark.parametrize("scenario_name", ["input_squeeze", "double_squeeze_optimal"])
    def test_reference_scenarios_match_closed_forms(self, fig2_params, scenario_name):
        scenario = Scenario(scenario_name)
        params = scenario.materialize(fig2_params)
        cfg = spectral_comparison_config(params, 800, seed=33)
        run = sq.simulate(params, cfg)
        est = sq.estimate_psd(run, BAND, xi_referred=True).values
        closed = sq.closed_form_psd(scenario, params, BAND)
        assert rms_rel(est, closed) < 0.05

    def test_oracle_agreement_without_cancellation(self):
        # Full 2x2 dynamics with a residual self-phase-modulation
        # coupling; reference is the frequency-domain solver, not the
        # closed forms.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.2, eta=0.8,
                         n_photons=1.0, gamma_spm=0.1, r_squeeze=0.7,
                         k_c=0.3, k_s=0.5)
        cfg = spectral_comparison_config(p, 800, seed=34)
        run = sq.simulate(p, cfg)
        est = sq.estimate_psd(run, BAND, xi_referred=True).values
        oracle = sq.psd_from_response(p, BAND).values
        assert rms_rel(est, oracle) < 0.05

    def test_si_scale_invariance(self):
        # Same physics at laboratory rates: the whole pipeline must work
        # with rad/s magnitudes and nanosecond steps.
        kp, kpp = sq.rates_from_quality(2e15, 1e9, 10.0)
        p = SensorParams(kappa_prime=kp, kappa_double_prime=kpp, eta=0.7,
                         n_photons=1.0, r_squeeze=0.5 * math.log(30.0), units="si")
        scenario = Scenario.input_squeeze()
        params = scenario.materialize(p)
        cfg = spectral_comparison_config(params, 200, seed=55)
        run = sq.simulate(params, cfg)
        band = np.linspace(0.2 * kp, 3.0 * kp, 24)
        est = sq.estimate_psd(run, band, xi_referred=True).values
        closed = sq.closed_form_psd(scenario, params, band)
        assert rms_rel(est, closed) < 0.2

    def test_seed_invariance_of_spectrum(self, fig2_params):
        scenario = Scenario.input_squeeze()
        params = scenario.materialize(fig2_params)
        closed = sq.closed_form_psd(scenario, params, BAND)
        means = []
        for seed in (35, 70):
            cfg = spectral_comparison_config(params, 400, seed=seed)
            est = sq.estimate_psd(sq.simulate(params, cfg), BAND, xi_referred=True).values
            assert rms_rel(est, closed) < 0.08
            means.append(float(np.mean(est / closed)))
        assert abs(means[0] - means[1]) < 0.03

    def test_exact_discretization_cross_check(self, fig2_params):
        scenario = Scenario.double_squeeze_optimal()
        params = scenario.materialize(fig2_params)
        closed = sq.closed_form_psd(scenario, params, BAND)
        cfg = spectral_comparison_config(params, 800, seed=36)
        ratios = {}
        for method in ("euler", "exact"):
            run = sq.simulate(params, replace(cfg, method=method))
            est = sq.estimate_psd(run, BAND, xi_referred=True).values
            assert rms_rel(est, closed) < 0.05
            ratios[method] = float(np.mean(est / closed))
        assert abs(ratios["euler"] - ratios["exact"]) < 0.03

    def test_halving_dt_changes_less_than_error_bar(self, fig2_params):
        scenario = Scenario.input_squeeze()
        params = scenario.materialize(fig2_params)
        closed = sq.closed_form_psd(scenario, params, BAND)
        cfg = spectral_comparison_config(params, 400, seed=37)
        means = []
        for dt in (cfg.dt, cfg.dt / 2.0):
            run = sq.simulate(params, replace(cfg, dt=dt))
            est = sq.estimate_psd(run, BAND, xi_referred=True).values
            means.append(float(np.mean(est / closed)))
        # band-mean scatter is roughly 0.78/sqrt(n_seg * n_independent)
        tol = 3.0 * math.sqrt(2.0) * 0.78 / math.sqrt(400 * 18)
        assert abs(means[0] - means[1]) < tol

    def test_nyquist_guard(self, fig2_params):
        cfg = SimulationConfig(dt=0.02, duration=500.0, seed=1, n_segments=10)
        run = sq.simulate(fig2_params, cfg)
        with pytest.raises(GridError, match="Nyquist"):
            sq.estimate_psd(run, np.array([0.0, math.pi / 0.02 * 1.01]))

    def test_grid_validation(self, fig2_params):
        cfg = SimulationConfig(dt=0.02, duration=500.0, seed=1, n_segments=10)
        run = sq.simulate(fig2_params, cfg)
        with pytest.raises(GridError):
            sq.estimate_psd(run, np.array([1.0, 0.5]))
        with pytest.raises(GridError):
            sq.estimate_psd(run, np.array([-1.0, 0.5]))

    def test_run_too_short_for_segments(self, fig2_params):
        cfg = SimulationConfig(dt=0.02, duration=20.0, seed=1, n_segments=500)
        run = sq.simulate(fig2_params, cfg)
        with pytest.raises(GridError, match="segments"):
            sq.estimate_psd(run, np.array([0.5, 1.0]))


class TestMeasureGain:
    def test_dc_limit_lossless(self, vacuum_params):
        cfg = SimulationConfig(dt=0.01, duration=30000.0, seed=41, n_segments=10)
        gain = sq.measure_gain(vacuum_params, 0.01, 1.0, cfg)
        expected = 2.0 / math.sqrt(1.0 + 0.01 ** 2)
        assert gain == pytest.approx(expected, rel=0.02)

    def test_at_half_bandwidth_lossless(self, vacuum_params):
        cfg = SimulationConfig(dt=0.01, duration=30000.0, seed=42, n_segments=10)
        gain = sq.measure_gain(vacuum_params, 1.0, 1.0, cfg)
        assert gain == pytest.approx(math.sqrt(2.0), rel=0.02)

    def test_reference_optimal_gain(self, fig2_params):
        params = Scenario.double_squeeze_optimal().materialize(fig2_params)
        expected = math.sqrt(
            4.0 * params.eta * params.kappa_prime * params.n_photons
            / (1.0 + (params.kappa + params.k_c) ** 2))
        cfg = SimulationConfig(dt=0.01, duration=30000.0, seed=43, n_segments=10)
        gain = sq.measure_gain(params, 1.0, 1.0, cfg)
        assert gain == pytest.approx(expected, rel=0.02)

    def test_snr_guard(self, vacuum_params):
        cfg = SimulationConfig(dt=0.02, duration=2000.0, seed=44, n_segments=10)
        with pytest.raises(SnrError):
            sq.measure_gain(vacuum_params, 1.0, 1e-6, cfg)

    def test_probe_validation(self, vacuum_params):
        cfg = SimulationConfig(dt=0.02, duration=2000.0, seed=44, n_segments=10)
        with pytest.raises(RangeError):
            sq.measure_gain(vacuum_params, -1.0, 1.0, cfg)
        with pytest.raises(RangeError):
            sq.measure_gain(vacuum_params, 1.0, 0.0, cfg)
        # at dt = 0.02 the Nyquist frequency is 157; a probe at 300 would alias
        for omega in (math.nan, math.inf, 300.0, math.pi / 0.02):
            with pytest.raises(RangeError, match="probe_omega"):
                sq.measure_gain(vacuum_params, omega, 1.0, cfg)
        for amplitude in (math.nan, math.inf):
            with pytest.raises(RangeError, match="probe_amplitude"):
                sq.measure_gain(vacuum_params, 1.0, amplitude, cfg)

    @pytest.mark.parametrize("case", ["prime_length", "euler_probe", "exact_probe"])
    def test_blocked_demodulation_matches_reference_loop(self, fig2_params, case):
        dt, omega = 0.02, 1.3
        if case == "prime_length":
            d = np.random.default_rng(45).standard_normal(10007)
        else:
            cfg = SimulationConfig(dt=dt, duration=2000.0, seed=46, n_segments=10,
                                   method=case.split("_")[0],
                                   signal=sq.SignalWaveform.sinusoid(1.0, omega))
            d = sq.simulate(fig2_params, cfg).d_s
        z_probe, offsets = demodulate_loop(d, dt, omega)
        d_omega = 2.0 * math.pi / (d.size * dt)
        got = _demodulate(d, dt, omega + d_omega * np.r_[0, 3:11, -10:-2])
        # the loop orders its offsets +3, -3, +4, -4, ...
        want = np.r_[z_probe, offsets[0::2], offsets[-1::-2]]
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_too_few_periods(self, vacuum_params):
        cfg = SimulationConfig(dt=0.02, duration=100.0, seed=44, n_segments=10)
        with pytest.raises(ConfigError, match="periods"):
            sq.measure_gain(vacuum_params, 0.01, 1.0, cfg)
