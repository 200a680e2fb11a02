"""The innovations-form integrator against its physical-input oracles.

Each plan draws one normal per step through one filter ``noise / den``.
These tests check that this is the process the physical inputs make: its
spectrum against the inputs' transfer functions, its autocovariance
against the per-step reference loops driven by the inputs themselves,
and its probe response against the loops driven from rest.
"""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.signal
from numpy.lib.stride_tricks import sliding_window_view

import sqz_sensor.stochastic as stochastic
from sqz_sensor import (
    SensorParams,
    SignalWaveform,
    SimulationConfig,
    SimulationRun,
    drift_matrix,
    estimate_psd,
    input_noise_psds,
    relaxation_rates,
    simulate,
)

from reference_loops import euler_maruyama_loop, exact_relax_loop

BASE = dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0,
            r_squeeze=0.5, k_c=-0.3)
CANCELLED = SensorParams(gamma_spm=0.1, k_s=0.2, **BASE)
# Residual self-phase-modulation coupling (k_s != 2 gamma N) feeds the
# cosine quadrature into the measured one, and so into the detector.
COUPLED = SensorParams(gamma_spm=0.1, k_s=0.5, **BASE)
LOSSLESS = SensorParams(**BASE | {"kappa_double_prime": 0.0, "eta": 1.0})
# Drift eigenvalues 1.1 +- 10i: the weakly damped oscillating point.
OSCILLATING = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0,
                           gamma_spm=10.0, k_s=10.0)
# Every rate at 1e-200 of the base point's, the step 1e200 times longer.
TINY = SensorParams(**{k: v * 1e-200 if k in ("kappa_prime", "kappa_double_prime", "k_c") else v
                       for k, v in BASE.items()})
# Every rate at 1e200 of the base point's, the step 1e200 times shorter.
HUGE = SensorParams(**{k: v * 1e200 if k in ("kappa_prime", "kappa_double_prime", "k_c") else v
                       for k, v in BASE.items()})
# Lossless and coupled at kappa' = 1e-200 with r = 347: the squeezed
# input's noise underflows, so only the anti-squeezed cosine drive
# reaches the detector, through h a10 (1/z + 1/z^2), whose zero at
# z = -1 lies on the unit circle.
SQUEEZED_OUT = SensorParams(kappa_prime=1e-200, kappa_double_prime=0.0, eta=1.0, n_photons=1.0,
                            r_squeeze=347.0, gamma_spm=1e-201, k_s=5e-201)

#: (params, method, dt) of each plan the spectrum tests cover.
PLANS = {
    "euler_cancelled": (CANCELLED, "euler", 0.02),
    "euler_coupled": (COUPLED, "euler", 0.02),
    "exact": (CANCELLED, "exact", 0.02),
    "euler_lossless": (LOSSLESS, "euler", 0.02),
    "exact_lossless": (LOSSLESS, "exact", 0.02),
    "euler_oscillating": (OSCILLATING, "euler", 0.004),
    "euler_tiny_rates": (TINY, "euler", 2e198),
    "exact_tiny_rates": (TINY, "exact", 2e198),
    "euler_huge_rates": (HUGE, "euler", 2e-202),
    "exact_huge_rates": (HUGE, "exact", 2e-202),
    "euler_squeezed_out": (SQUEEZED_OUT, "euler", 4e198),
}


def coefficients(params):
    """Input couplings ``c_a``, ``c_v`` and output coefficients ``p_bs``,
    ``q_as``, ``q_us`` of the detected quadrature."""
    sqrt_eta = math.sqrt(params.eta)
    c_a = math.sqrt(2.0 * params.kappa_prime)
    c_v = math.sqrt(2.0 * params.kappa_double_prime)
    return c_a, c_v, sqrt_eta * c_a, -sqrt_eta, math.sqrt(1.0 - params.eta)


def exact_inputs(params, dt):
    """The exact step's decay, and the standard deviations and regression
    of its physical inputs: the bin average of ``a_s``, the exponentially
    filtered step integrals ``I_a`` and ``I_v`` of ``a_s`` and ``v_s``,
    ``I_a`` being ``slope`` times the bin average plus a residual."""
    psds = input_noise_psds(params)
    lam = drift_matrix(params).matrix[1, 1]
    decay = math.exp(-lam * dt)
    s_as = psds["a_s"]
    var_bar, var_ia = s_as / dt, s_as * (1.0 - decay ** 2) / (2.0 * lam)
    cov = s_as * (1.0 - decay) / (lam * dt)
    return SimpleNamespace(
        decay=decay, lam=lam, sd_bar=math.sqrt(var_bar), slope=cov / var_bar,
        sd_resid=math.sqrt(max(var_ia - cov * cov / var_bar, 0.0)),
        sd_iv=math.sqrt(psds["v_s"] * (1.0 - decay ** 2) / (2.0 * lam)),
        sd_us=math.sqrt(psds["u_s"] / dt))


def physical_spectrum(params, method, dt, theta):
    """Per-step spectrum of the detector at ``theta = omega dt``, summed
    over its physical white inputs through their own transfer functions.

    Euler: the five inputs, bin averages of variance PSD/dt, through the
    state recursion ``(z - Phi) x = dt f`` and the midpoint state
    average.  Exact: the bin average of ``a_s`` (direct and correlated
    with ``I_a``), ``I_v`` and ``u_s`` through the decoupled relaxation.
    """
    c_a, c_v, p_bs, q_as, q_us = coefficients(params)
    z = np.exp(1j * theta)
    if method == "exact":
        x = exact_inputs(params, dt)
        h = 0.5 * p_bs * (1.0 + 1.0 / z) / (1.0 - x.decay / z)
        return (np.abs(x.sd_bar * (c_a * x.slope * h + q_as)) ** 2
                + np.abs(h) ** 2 * ((c_a * x.sd_resid) ** 2 + (c_v * x.sd_iv) ** 2)
                + (q_us * x.sd_us) ** 2)
    phi = np.eye(2) - dt * drift_matrix(params).matrix
    resolvent = np.linalg.inv(z[:, None, None] * np.eye(2) - phi)
    t_c, t_s = (0.5 * p_bs * dt * (1.0 + z) * resolvent[:, 1, j] for j in (0, 1))
    transfers = {"a_c": c_a * t_c, "v_c": c_v * t_c, "a_s": c_a * t_s + q_as,
                 "v_s": c_v * t_s, "u_s": q_us}
    psds = input_noise_psds(params)
    return sum(np.abs(t) ** 2 * (psds[name] / dt) for name, t in transfers.items())


def physical_probe_response(params, method, dt, omega):
    """Detector response per unit waveform amplitude at ``omega``, from
    the waveform's coupling into the measured quadrature's drive."""
    drift = drift_matrix(params)
    _, _, p_bs, _, _ = coefficients(params)
    z = np.exp(1j * omega * dt)
    if method == "exact":
        x = exact_inputs(params, dt)
        return (drift.signal_coupling * (1.0 - x.decay) / x.lam
                * 0.5 * p_bs * (1.0 + 1.0 / z) / (1.0 - x.decay / z))
    phi = np.eye(2) - dt * drift.matrix
    return drift.signal_coupling * 0.5 * p_bs * dt * (1.0 + z) * np.linalg.inv(z * np.eye(2) - phi)[1, 1]


def transfer(num, den, theta):
    """``num / den`` at ``z = e^{i theta}``, coefficients in powers of 1/z."""
    lags = np.exp(-1j * np.outer(theta, np.arange(den.size)))
    return (lags[:, :num.size] @ num) / (lags @ den)


def plan_of(case):
    params, method, dt = PLANS[case]
    return stochastic._PLANS[method](params, SimulationConfig(dt=dt, duration=dt, seed=0,
                                                              method=method))


class TestInnovations:
    """One normal through ``noise / den`` has the physical inputs' spectrum."""

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_spectrum_matches_the_physical_inputs(self, case):
        params, method, dt = PLANS[case]
        plan = plan_of(case)
        # The band [0, 4] kappa' and a coarse sweep up to near Nyquist.
        theta = np.r_[np.linspace(0.0, 4.0, 81) * (params.kappa_prime * dt),
                      np.linspace(0.05, 3.1, 40)]
        got = np.abs(transfer(plan.noise, plan.den, theta)) ** 2
        want = physical_spectrum(params, method, dt, theta)
        # Coefficients near z = 1 are conditioned as 1/(dt |lambda|)^2,
        # about 1e3 here, so a few 1e-13.
        assert np.max(np.abs(got / want - 1.0)) < 2e-12

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_noise_zeros_lie_inside_the_unit_circle(self, case):
        plan = plan_of(case)
        assert plan.noise.size == plan.den.size and plan.den[0] == 1.0
        assert plan.noise[0] > 0.0
        assert np.all(np.abs(np.roots(plan.noise)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("case", ["euler_cancelled", "euler_coupled", "exact"])
    def test_probe_response_matches_the_physical_drive(self, case):
        params, method, dt = PLANS[case]
        plan = plan_of(case)
        omega = np.array([0.0, 0.3, 0.7, 2.0, 5.0])
        got = transfer(plan.probe, plan.den, omega * dt)
        want = np.array([physical_probe_response(params, method, dt, w) for w in omega])
        assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_noise_below_float_range_gives_a_zero_series(self):
        # At kappa' = 1e-200, dt = 1e198 and r = 347 the squeezed input's
        # bin average, sqrt(PSD / dt), underflows to 0 and nothing else is
        # noisy: the filter is 0, and the run is all zeros, not an error.
        params = SensorParams(kappa_prime=1e-200, kappa_double_prime=0.0, eta=1.0,
                              n_photons=1.0, r_squeeze=347.0)
        cfg = SimulationConfig(dt=1e198, duration=4e201, seed=3, n_segments=4)
        assert not np.any(stochastic._PLANS["euler"](params, cfg).noise)
        assert not np.any(simulate(params, cfg).d_s)


def autocovariance(d, lags, batches=40):
    """Zero-mean sample autocovariance at ``lags`` and its standard error
    from ``batches`` batch means."""
    rows = d[:d.size // batches * batches].reshape(batches, -1)
    per_batch = np.array([[np.mean(row[:row.size - k] * row[k:]) for k in lags] for row in rows])
    return per_batch.mean(axis=0), per_batch.std(axis=0, ddof=1) / math.sqrt(batches)


def reference_loop_series(params, method, dt, n, seed):
    """``n`` detector samples from the per-step loops, fed the physical
    inputs drawn independently, after a discarded start of eight slowest
    relaxation times."""
    rng = np.random.default_rng(seed)
    n_burn = math.ceil(8.0 / relaxation_rates(params)[0] / dt)
    total = n_burn + n
    c_a, c_v, p_bs, q_as, q_us = coefficients(params)
    d = np.empty(total)
    if method == "exact":
        x = exact_inputs(params, dt)
        a_bar = x.sd_bar * rng.standard_normal(total)
        w_drive = (c_a * (x.slope * a_bar + x.sd_resid * rng.standard_normal(total))
                   + c_v * x.sd_iv * rng.standard_normal(total))
        exact_relax_loop(0.0, x.decay, a_bar, w_drive, x.sd_us * rng.standard_normal(total),
                         p_bs, q_as, q_us, d)
        return d[n_burn:]
    noise = {name: math.sqrt(psd / dt) * rng.standard_normal(total)
             for name, psd in input_noise_psds(params).items()}
    m = drift_matrix(params).matrix
    euler_maruyama_loop(0.0, 0.0, m[0, 0], m[0, 1], m[1, 0], m[1, 1], dt,
                        noise["a_c"], noise["a_s"], noise["v_c"], noise["v_s"], noise["u_s"],
                        np.zeros(total), p_bs, q_as, q_us, c_a, c_v, d)
    return d[n_burn:]


class TestAutocovariance:
    @pytest.mark.parametrize("case", ["euler_cancelled", "euler_coupled", "exact"])
    def test_lags_match_the_reference_loops(self, case):
        # The loops draw the physical inputs, the package one normal per
        # step.  Each lag's estimate has a batch-means standard error;
        # the two estimates are independent, so their difference stays
        # within 5 of the combined errors.  Dropping the direct term's
        # correlation with the drive (one a_s row feeding both) moves
        # lag 0 by about 40% of the variance, hundreds of those errors.
        params, method, dt = PLANS[case]
        lags = [0, 1, 2, 3]
        cfg = SimulationConfig(dt=dt, duration=20000.0, seed=21, n_segments=4, method=method)
        ours, ours_se = autocovariance(simulate(params, cfg).d_s, lags)
        loops, loops_se = autocovariance(reference_loop_series(params, method, dt, 400_000, 22),
                                         lags)
        assert np.all(np.abs(ours - loops) < 5.0 * np.hypot(ours_se, loops_se))


class TestStream:
    """One stream per run, drawn one chunk ahead of the filter."""

    @pytest.mark.parametrize("n_total", [600, 3000, 3500],
                             ids=["one_partial_chunk", "whole_chunks", "partial_last_chunk"])
    def test_each_chunk_is_drawn_once_and_one_ahead(self, n_total, monkeypatch):
        cfg = SimulationConfig(dt=0.02, duration=(n_total + 0.5) * 0.02, seed=13,
                               n_segments=1, burn_in=0.0)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        events, seeds, drawn, workers = [], [], [], []
        stream, lfilter = stochastic._stream, scipy.signal.lfilter

        def counting_stream(seed):
            seeds.append(seed)
            gen = stream(seed)

            def standard_normal(out):
                drawn.append(out.size)
                return gen.standard_normal(out=out)

            return SimpleNamespace(standard_normal=standard_normal)

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers)

            def submit(self, fn, *args, **kwargs):
                events.append("draw")
                return super().submit(fn, *args, **kwargs)

        def recording_lfilter(num, den, x, zi):
            events.append("filter")
            return lfilter(num, den, x, zi=zi)

        monkeypatch.setattr(stochastic, "_stream", counting_stream)
        monkeypatch.setattr(stochastic, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(scipy.signal, "lfilter", recording_lfilter)
        assert simulate(COUPLED, cfg).d_s.size == n_total
        chunks = math.ceil(n_total / 1000)
        # One generator and one worker; one draw per chunk, none past the end.
        assert seeds == [13] and workers == [1]
        assert len(drawn) == chunks and sum(drawn) == n_total
        # Chunk i + 1 is submitted before chunk i is filtered, in one call.
        expected = ["draw"]
        for i in range(chunks):
            expected += ["draw"] * (i + 1 < chunks) + ["filter"]
        assert events == expected

    @pytest.mark.parametrize("case", ["euler_coupled", "exact"])
    def test_filter_reads_the_serial_stream(self, case, monkeypatch):
        # Drawn ahead on a worker with frequent thread switches, the
        # filter still sees SFC64(SeedSequence([seed, 0])) in order.
        params, method, dt = PLANS[case]
        cfg = SimulationConfig(dt=dt, duration=200.0, seed=13, n_segments=4, burn_in=0.0,
                               method=method)
        inputs, lfilter = [], scipy.signal.lfilter

        def recording_lfilter(num, den, x, zi):
            inputs.append(x.copy())
            return lfilter(num, den, x, zi=zi)

        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        monkeypatch.setattr(scipy.signal, "lfilter", recording_lfilter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            n = simulate(params, cfg).d_s.size
        finally:
            sys.setswitchinterval(interval)
        serial = np.random.Generator(np.random.SFC64(np.random.SeedSequence([13, 0])))
        assert len(inputs) == 10
        assert np.array_equal(np.concatenate(inputs), serial.standard_normal(n))

    @pytest.mark.parametrize("case, extra", [
        ("euler_coupled", {}),
        ("exact", {"signal": SignalWaveform(1.0, 0.7)}),
    ])
    def test_chunk_size_does_not_change_realization(self, case, extra, monkeypatch):
        params, method, dt = PLANS[case]
        cfg = SimulationConfig(dt=dt, duration=400.0, seed=13, n_segments=4, method=method,
                               **extra)
        # Read before the patch: a run is realized when it is read.
        reference = simulate(params, cfg).d_s
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        chunked = simulate(params, cfg).d_s
        assert reference.size == chunked.size == 20_000
        assert np.array_equal(reference, chunked)


def batch_welch_power(d, nperseg):
    """Welch's power sum in one pass over a stored series: the batches of
    ``estimate_psd`` (32 segments each, in order) cut from one strided view."""
    half = nperseg // 2
    segments = sliding_window_view(d, nperseg)[::half]
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    power = np.zeros(nperseg + 2)
    for s0 in range(0, len(segments), 32):
        flat = np.fft.rfft(segments[s0:s0 + 32] * window).view(np.float64)
        power += np.einsum("ij,ij->j", flat, flat)
    return power, len(segments)


class TestStreamedEstimate:
    """A run's estimate is the same whether it is replayed chunk by chunk
    from its seed or read from a stored series, and it writes nothing."""

    @pytest.mark.parametrize("case, n_out, n_segments, burn_in, extra, nperseg, tail", [
        # 8000-sample segments, each over eight or nine 1000-sample chunks.
        ("euler_coupled", 20_000, 4, 0.0, {}, 8000, 0),
        # 1538 burn-in steps: the first retained chunk is 462 samples.
        ("euler_cancelled", 30_000, 20, 30.745, {}, 2856, 12),
        # 40 segments: a batch of 32 and a partial one of 8, then a tail
        # that no segment covers.
        ("exact", 41_611, 40, None, {}, 2028, 37),
        ("exact", 25_000, 9, 10.0, {"signal": SignalWaveform(1.0, 0.7)}, 5000, 0),
        ("euler_coupled", 25_000, 9, None, {"signal": SignalWaveform(0.5, 2.1)}, 5000, 0),
    ], ids=["long_segment", "unaligned_burn_in", "partial_batch_and_tail", "driven_exact",
            "driven_euler"])
    def test_streamed_equals_recorded(self, case, n_out, n_segments, burn_in, extra, nperseg,
                                      tail, monkeypatch):
        params, method, dt = PLANS[case]
        cfg = SimulationConfig(dt=dt, duration=(n_out + 0.5) * dt, seed=17,
                               n_segments=n_segments, burn_in=burn_in, method=method, **extra)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        grid = np.linspace(0.0, math.pi / dt, 301)
        streamed = estimate_psd(simulate(params, cfg), grid).values
        run = simulate(params, cfg)
        d = run.d_s
        read = estimate_psd(run, grid).values
        recorded = estimate_psd(SimulationRun(d.copy(), params, cfg, "recorded"), grid).values
        assert np.array_equal(streamed, read) and np.array_equal(streamed, recorded)
        # The one-pass batch loop's bits, on the geometry the case names.
        power, n_seg = batch_welch_power(d, nperseg)
        assert d.size == n_out and n_seg == n_segments
        assert n_out - (n_seg + 1) * (nperseg // 2) == tail
        window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
        native = dt / (n_seg * float(np.sum(window * window))) * (power[0::2] + power[1::2])
        omegas = (2.0 * math.pi / (nperseg * dt)) * np.arange(nperseg // 2 + 1)
        assert np.array_equal(streamed, np.interp(grid, omegas, native))

    def test_estimates_and_gains_write_no_series(self, monkeypatch):
        reads, runs = [], []
        read_d_s, simulate_ = SimulationRun.d_s.fget, stochastic.simulate

        def recording_d_s(run):
            reads.append(run)
            return read_d_s(run)

        def recording_simulate(params, config):
            runs.append(simulate_(params, config))
            return runs[-1]

        monkeypatch.setattr(SimulationRun, "d_s", property(recording_d_s))
        monkeypatch.setattr(stochastic, "simulate", recording_simulate)
        params, _, dt = PLANS["euler_coupled"]
        cfg = SimulationConfig(dt=dt, duration=400.0, seed=3, n_segments=8)
        estimate_psd(stochastic.simulate(params, cfg), [0.5, 1.0])
        stochastic.measure_gain(params, 1.0, 1.0, cfg)
        assert len(runs) == 2 and reads == []
        # Neither run holds a series: nothing was allocated, so nothing written.
        assert [run._d_s for run in runs] == [None, None]
        # The check can fail: reading d_s allocates the series.
        d_s = runs[0].d_s
        assert d_s is runs[0]._d_s and d_s.size == 20_000 and reads == [runs[0]]

    def test_first_reads_on_many_threads_realize_once(self):
        # More readers than cores, switching often: one realizes the run,
        # and every reader gets that series, whole.
        params, method, dt = PLANS["exact"]
        cfg = SimulationConfig(dt=dt, duration=2000.0, seed=5, n_segments=8, method=method)
        run = simulate(params, cfg)
        replay, replays = run._replay, []

        def counting_replay(stop):
            replays.append(stop)
            return replay(stop)

        run._replay = counting_replay
        barrier = threading.Barrier(4, timeout=60)

        def first_read():
            barrier.wait()
            return run.d_s

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                jobs = [pool.submit(first_read) for _ in range(4)]
                series = [job.result(timeout=60) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        assert replays == [100_000]
        assert all(d is series[0] for d in series)
        assert np.array_equal(series[0], simulate(params, cfg).d_s)


def silent_stream(seed):
    return SimpleNamespace(standard_normal=lambda out: out.fill(0.0))


class TestProbe:
    """The waveform enters as the filter's steady-state response."""

    def test_silent_run_is_the_steady_state_response_at_gain_probe_size(self, monkeypatch):
        # gain_probe's run size and its highest probe: 3 M retained samples
        # at dt = 0.01 after the default burn-in, w = 2, so |w t| reaches
        # 6e4.
        params = SensorParams(**BASE)
        amplitude, omega = 1.0, 2.0
        cfg = SimulationConfig(dt=0.01, duration=30000.0, seed=5, n_segments=4,
                               signal=SignalWaveform(amplitude, omega))
        monkeypatch.setattr(stochastic, "_stream", silent_stream)
        run = simulate(params, cfg)
        n_burn = math.ceil(8.0 / relaxation_rates(params)[0] / cfg.dt)
        assert run.n_samples == 3_000_000 and n_burn % stochastic._BLOCK
        plan = stochastic._PLANS["euler"](params, cfg)
        response = amplitude * transfer(plan.probe, plan.den, np.array([omega * cfg.dt]))[0]
        wt = omega * (cfg.dt * np.arange(run.n_samples))
        want = np.imag(response * np.exp(1j * wt))
        assert np.all(np.abs(run.d_s - want) <= 1e-15 * abs(response) * (1.0 + wt))

    @pytest.mark.parametrize("case", ["euler_cancelled", "euler_coupled", "exact"])
    def test_matches_the_reference_loops_driven_from_rest(self, case, monkeypatch):
        # 500 burn-in steps, not a multiple of the phasor table's block.
        # The loops start the waveform from rest at the first burn-in
        # step; their transient is a free response, which decays by the
        # largest pole modulus rho per step, from at most cond(V) times the
        # response amplitude (V the eigenvectors of the step matrix).
        params, method, dt = PLANS[case]
        wave = SignalWaveform(1.0, 0.7)
        cfg = SimulationConfig(dt=dt, duration=1000.0, seed=13, n_segments=4, method=method,
                               signal=wave, burn_in=10.0)
        monkeypatch.setattr(stochastic, "_stream", silent_stream)
        run = simulate(params, cfg)
        n_burn = math.ceil(cfg.burn_in / dt)
        n = n_burn + run.n_samples
        drift = drift_matrix(params)
        _, _, p_bs, _, _ = coefficients(params)
        signal = wave.amplitude * np.sin(wave.frequency * (dt * (np.arange(n) - n_burn)))
        zero, d = np.zeros(n), np.empty(n)
        if method == "exact":
            x = exact_inputs(params, dt)
            exact_relax_loop(0.0, x.decay, zero, drift.signal_coupling * (1.0 - x.decay) / x.lam
                             * signal, zero, p_bs, 0.0, 0.0, d)
            rho, cond = x.decay, 1.0
        else:
            m = drift.matrix
            euler_maruyama_loop(0.0, 0.0, m[0, 0], m[0, 1], m[1, 0], m[1, 1], dt,
                                zero, zero, zero, zero, zero, drift.signal_coupling * signal,
                                p_bs, 0.0, 0.0, 0.0, 0.0, d)
            eigvals, eigvecs = np.linalg.eig(np.eye(2) - dt * m)
            rho, cond = np.max(np.abs(eigvals)), np.linalg.cond(eigvecs)
        amplitude = abs(physical_probe_response(params, method, dt, wave.frequency))
        bound = 2.0 * cond * amplitude * rho ** n_burn
        assert run.n_samples == 50_000 and n_burn % stochastic._BLOCK
        assert np.max(np.abs(run.d_s - d[n_burn:])) <= bound
        assert bound < 1e-2 * amplitude
