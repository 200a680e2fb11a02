import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sqz_sensor as sq
import sqz_sensor.stochastic as stochastic
from sqz_sensor import (
    ConfigError,
    GridError,
    InstabilityError,
    RangeError,
    Scenario,
    SensorParams,
    SignalWaveform,
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

    @pytest.mark.parametrize("method", ["euler", "exact"])
    def test_a_run_holds_no_series_until_read(self, fig2_params, method):
        # An 8 MiB series; planning it allocates under 1 MiB in all.
        cfg = SimulationConfig(dt=2.0 ** -6, duration=2.0 ** 14, seed=4, method=method)
        tracemalloc.start()
        try:
            run = sq.simulate(fig2_params.with_spm_cancelled(), cfg)
            planned = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run._d_s is None and run.n_samples == 2 ** 20 and planned < 1 << 20
        assert run.d_s is run._d_s and run.d_s.nbytes == 8 << 20

    def test_largest_addressable_run_plans_without_allocating(self):
        params, dt = SensorParams(1.0, 0.1, 0.7, 1.0), 2.0 ** -10
        run = sq.simulate(params, SimulationConfig(dt=dt, duration=2.0 ** 44 * dt, seed=0))
        assert run._d_s is None and run.n_samples == 2 ** 44
        with pytest.raises(MemoryError, match=f"cannot address {2 ** 44 + 1} samples"):
            sq.simulate(params, SimulationConfig(dt=dt, duration=(2.0 ** 44 + 1) * dt, seed=0))

    def test_gate_three_runs_at_budget_a_million_plan_without_allocating(self, fig2_params):
        # 65.5 GB of series in all, 32.8 GB of it double-squeeze: planned, never read.
        params_c = fig2_params.with_spm_cancelled()
        runs = {}
        tracemalloc.start()
        try:
            for i, scenario in enumerate((Scenario.no_squeeze(), Scenario.input_squeeze(),
                                          Scenario.double_squeeze_optimal())):
                params_m = scenario.materialize(params_c)
                cfg = spectral_comparison_config(params_m, 10 ** 6, i)
                runs[scenario.tag] = sq.simulate(params_m, cfg)
            planned = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(run._d_s is None for run in runs.values())
        assert {tag: run.n_samples for tag, run in runs.items()} == {
            "no_squeeze": 2048002048, "input_squeeze": 2048002048,
            "double_squeeze_optimal": 4096004096}
        assert planned < 1 << 20

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

    def test_step_that_grows_an_oscillating_mode_rejected(self):
        # Eigenvalues 1.1 -+ 50i: dt = 0.01 keeps dt Re(lambda) = 0.011
        # far below the margin, but |1 - dt lambda| is about 1.108.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, gamma_spm=50.0, k_s=50.0)
        with pytest.raises(ConfigError, match=r"dt = 0\.01 .*\[1\.1-50\.j 1\.1\+50\.j\]"):
            sq.simulate(p, SimulationConfig(dt=0.01, duration=100.0, seed=0, n_segments=4))

    def test_duration_shorter_than_one_step(self, fig2_params):
        with pytest.raises(ConfigError, match="duration shorter than one step"):
            sq.simulate(fig2_params, SimulationConfig(dt=0.01, duration=0.005, seed=0))

    def test_exact_requires_cancellation(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, gamma_spm=0.1, k_s=0.0)
        cfg = SimulationConfig(dt=0.02, duration=10.0, seed=0, n_segments=1, method="exact")
        with pytest.raises(ConfigError, match="cancelled"):
            sq.simulate(p, cfg)
        # One rounding short of 2 gamma N = 0.6000000000000001 is not cancelled.
        near = replace(p, n_photons=3.0, k_s=0.6)
        with pytest.raises(ConfigError, match="cancelled"):
            sq.simulate(near, cfg)

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


class TestSignalWaveform:
    def test_zero_amplitude_drive_matches_zero_waveform(self, fig2_params):
        cfg = SimulationConfig(dt=0.02, duration=50.0, seed=9, n_segments=2,
                               signal=SignalWaveform())
        run = sq.simulate(fig2_params, cfg)
        assert run.n_samples == 2500
        silent = replace(cfg, signal=SignalWaveform(0.0, 0.5))
        assert np.array_equal(sq.simulate(fig2_params, silent).d_s, run.d_s)

    def test_negative_frequency_rejected(self):
        with pytest.raises(RangeError, match=">= 0"):
            SignalWaveform(frequency=-1.0)
        with pytest.raises(RangeError, match=">= 0"):
            SignalWaveform(1.0, -1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.nan), (1.0, math.inf),
                                      (-math.inf, 1.0), (1.0, -math.inf)])
    def test_non_finite_sinusoid_rejected(self, args):
        with pytest.raises(RangeError, match="finite"):
            SignalWaveform(*args)


class TestSimulationRun:
    def test_series_is_read_as_float64(self, vacuum_params):
        cfg = SimulationConfig(dt=0.05, duration=51.2, seed=0, n_segments=4)
        d = np.random.default_rng(7).standard_normal(1024)
        stored = sq.SimulationRun(d, vacuum_params, cfg, "synthetic")
        listed = sq.SimulationRun(d.tolist(), vacuum_params, cfg, "synthetic")
        assert stored.d_s is d and listed.n_samples == 1024
        grid = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(sq.estimate_psd(listed, grid).values,
                              sq.estimate_psd(stored, grid).values)

    @pytest.mark.parametrize("d_s, shape", [(np.zeros((2, 512)), "(2, 512)"), (None, "()")])
    def test_series_must_be_one_dimensional(self, vacuum_params, d_s, shape):
        cfg = SimulationConfig(dt=0.05, duration=51.2, seed=0, n_segments=4)
        with pytest.raises(ConfigError, match=re.escape(f"got shape {shape}")):
            sq.SimulationRun(d_s, vacuum_params, cfg, "synthetic")


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

    def test_oracle_agreement_with_oscillating_modes(self):
        # Residual coupling k_s (k_s - 2 gamma N) = -100 gives eigenvalues
        # 1.1 -+ 10i: the step is sized from |lambda|, not Re(lambda), so
        # the run stays finite.  The bound is about twice the Welch scatter
        # at 200 segments.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, gamma_spm=10.0, k_s=10.0)
        cfg = spectral_comparison_config(p, 200, seed=7)
        assert cfg.dt * abs(complex(1.1, 10.0)) == pytest.approx(0.04, rel=1e-12)
        run = sq.simulate(p, cfg)
        est = sq.estimate_psd(run, BAND, xi_referred=True).values
        assert rms_rel(est, sq.psd_from_response(p, BAND).values) < 0.15

    def test_si_scale_invariance(self):
        # Same physics at laboratory rates: every rate times 4^12 (about
        # 1.7e7 rad/s) sizes the comparison run with dt and the duration
        # divided by 4^12, so the same normals drive the same filters and
        # the signal-referred estimate is the unit point's times 4^12.
        scenario = Scenario.input_squeeze()
        unit = scenario.materialize(SensorParams(kappa_prime=1.0, kappa_double_prime=0.1,
                                                 eta=0.7, n_photons=1.0,
                                                 r_squeeze=0.5 * math.log(30.0)))
        si = replace(unit, kappa_prime=math.ldexp(1.0, 24), kappa_double_prime=math.ldexp(0.1, 24),
                     units="si")
        band = np.linspace(0.2, 3.0, 24)
        estimates = [
            sq.estimate_psd(sq.simulate(p, spectral_comparison_config(p, 200, seed=55)),
                            w, xi_referred=True).values
            for p, w in ((unit, band), (si, np.ldexp(band, 24)))
        ]
        assert np.array_equal(estimates[1], np.ldexp(estimates[0], 24))
        assert rms_rel(estimates[0], sq.closed_form_psd(scenario, unit, band)) < 0.1

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
    def test_blocked_demodulation_matches_reference_loop(self, fig2_params, case, monkeypatch):
        dt, omega = 0.02, 1.3
        if case == "prime_length":
            d = np.random.default_rng(45).standard_normal(10007)
        else:
            cfg = SimulationConfig(dt=dt, duration=2000.0, seed=46, n_segments=10,
                                   method=case.split("_")[0],
                                   signal=SignalWaveform(1.0, omega))
            d = sq.simulate(fig2_params, cfg).d_s
        z_probe, offsets = demodulate_loop(d, dt, omega)
        d_omega = 2.0 * math.pi / (d.size * dt)
        omegas = omega + d_omega * np.r_[0, 3:11, -10:-2]
        got = _demodulate([d], d.size, dt, omegas)
        # the loop orders its offsets +3, -3, +4, -4, ...
        want = np.r_[z_probe, offsets[0::2], offsets[-1::-2]]
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        # Rows of 64 samples in products of three rows, so the series spans
        # many products and a padded last row, fed in uneven pieces: the
        # blocking does not depend on the pieces, and the blocked sum agrees
        # with the loop too.
        monkeypatch.setattr(stochastic, "_BLOCK", 64)
        monkeypatch.setattr(stochastic, "_DEMOD_ROWS", 3)
        assert d.size % 64
        blocked = _demodulate([d], d.size, dt, omegas)
        pieces = np.split(d, [1, 700, 701, 5000, 9000])
        assert np.array_equal(_demodulate(pieces, d.size, dt, omegas), blocked)
        assert np.max(np.abs(blocked - want)) <= 1e-9 * np.max(np.abs(want))

    def test_too_few_periods(self, vacuum_params):
        cfg = SimulationConfig(dt=0.02, duration=100.0, seed=44, n_segments=10)
        with pytest.raises(ConfigError, match="periods"):
            sq.measure_gain(vacuum_params, 0.01, 1.0, cfg)
