"""The linear-filter integrator against the per-step reference loops."""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.signal

import sqz_sensor.stochastic as stochastic
from sqz_sensor import (
    SensorParams,
    SignalWaveform,
    SimulationConfig,
    drift_matrix,
    input_noise_psds,
    relaxation_rates,
    simulate,
)
from sqz_sensor.stochastic import STREAM_COSINE, STREAM_DIRECT, STREAM_DRIVE

from reference_loops import euler_maruyama_loop, exact_relax_loop

BASE = dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0,
            r_squeeze=0.5, k_c=-0.3)


def serial_stream(seed, stream_id, n):
    """``n`` standard normals of one noise stream, drawn in one call."""
    bits = np.random.SFC64(np.random.SeedSequence([seed, stream_id]))
    return np.random.Generator(bits).standard_normal(n)


def coefficients(params):
    """Input couplings ``c_a``, ``c_v`` and output coefficients ``p_bs``,
    ``q_as``, ``q_us`` of the detected quadrature."""
    sqrt_eta = math.sqrt(params.eta)
    c_a = math.sqrt(2.0 * params.kappa_prime)
    c_v = math.sqrt(2.0 * params.kappa_double_prime)
    return c_a, c_v, sqrt_eta * c_a, -sqrt_eta, math.sqrt(1.0 - params.eta)


def pair_covariance(params, dt, method):
    """Per-step covariance of the (drive, direct term) noise pair, written
    out from the input spectral densities.

    Euler: the drive c_a a_s + c_v v_s and the direct term q_as a_s +
    q_us u_s of bin averages of variance PSD/dt.  Exact: the drive holds
    the exponentially filtered step integrals of a_s and v_s instead,
    and the one of a_s is correlated with the bin average of a_s.
    """
    psds = input_noise_psds(params)
    s_as, s_vs, s_us = psds["a_s"], psds["v_s"], psds["u_s"]
    c_a, c_v, _, q_as, q_us = coefficients(params)
    direct = (q_as ** 2 * s_as + q_us ** 2 * s_us) / dt
    if method == "euler":
        drive = (c_a ** 2 * s_as + c_v ** 2 * s_vs) / dt
        cross = c_a * q_as * s_as / dt
    else:
        lam = drift_matrix(params).matrix[1, 1]
        decay = math.exp(-lam * dt)
        drive = (c_a ** 2 * s_as + c_v ** 2 * s_vs) * (1.0 - decay ** 2) / (2.0 * lam)
        cross = c_a * q_as * s_as * (1.0 - decay) / (lam * dt)
    return np.array([[drive, cross], [cross, direct]])


def reference_run(params, config):
    """Detector series from the per-step loops, fed the (drive, direct)
    pair drawn serially from its streams; ``config`` must set ``burn_in``.

    The loops run the ``ceil(burn_in / dt)`` burn-in steps first, with
    the waveform at ``dt * (step - n_burn)``, and the retained steps are
    returned.  The pair comes from its own Cholesky factor of
    :func:`pair_covariance`, and enters the loops as ``v_s`` with
    ``c_v = 1`` and as ``u_s`` with ``q_us = 1``, with ``a_s = 0``.  The
    Euler loop always gets a cosine drive (as ``v_c``), also when the
    self-phase-modulation coupling is cancelled and the package leaves
    it out.
    """
    dt, seed = config.dt, config.seed
    n_burn = math.ceil(config.burn_in / dt)
    n = n_burn + int(config.duration / dt)
    psds = input_noise_psds(params)
    drift = drift_matrix(params)
    c_a, c_v, p_bs, _, _ = coefficients(params)
    (l00, _), (l10, l11) = np.linalg.cholesky(pair_covariance(params, dt, config.method))
    z0, z1 = serial_stream(seed, STREAM_DRIVE, n), serial_stream(seed, STREAM_DIRECT, n)
    drive, direct = l00 * z0, l10 * z0 + l11 * z1
    zero = np.zeros(n)
    wave = config.signal
    signal = wave.amplitude * np.sin(wave.frequency * (dt * (np.arange(n) - n_burn)))
    d = np.empty(n)
    if config.method == "exact":
        lam = drift.matrix[1, 1]
        decay = math.exp(-lam * dt)
        w_drive = drive + drift.signal_coupling * (1.0 - decay) / lam * signal
        exact_relax_loop(0.0, decay, zero, w_drive, direct, p_bs, 0.0, 1.0, d)
        return d[n_burn:]
    cosine = (math.sqrt((c_a ** 2 * psds["a_c"] + c_v ** 2 * psds["v_c"]) / dt)
              * serial_stream(seed, STREAM_COSINE, n))
    m = drift.matrix
    euler_maruyama_loop(0.0, 0.0, m[0, 0], m[0, 1], m[1, 0], m[1, 1], dt,
                        zero, zero, cosine, drive, direct,
                        drift.signal_coupling * signal,
                        p_bs, 0.0, 1.0, c_a, 1.0, d)
    return d[n_burn:]


CASES = {
    # residual self-phase-modulation coupling (k_s != 2 gamma N) feeds the
    # cosine quadrature into the measured one, and so into the detector
    "euler_coupled_spm": (SensorParams(gamma_spm=0.1, k_s=0.5, **BASE), {}),
    "euler_cancelled_spm": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE), {}),
    "euler_sinusoid": (SensorParams(**BASE),
                       {"signal": SignalWaveform(1.0, 0.7)}),
    "exact": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE), {"method": "exact"}),
    "exact_sinusoid": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE),
                       {"method": "exact", "signal": SignalWaveform(1.0, 0.7)}),
    # 6173 burn-in steps, not a multiple of the phasor table's block: the
    # burn-in's waveform comes from blocks of negative index.
    "euler_sinusoid_burn_in": (SensorParams(**BASE),
                               {"signal": SignalWaveform(1.0, 0.7), "burn_in": 123.45}),
    "exact_sinusoid_burn_in": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE),
                               {"method": "exact", "signal": SignalWaveform(1.0, 0.7),
                                "burn_in": 123.45}),
}


LOSSLESS = SensorParams(**BASE | {"kappa_double_prime": 0.0, "eta": 1.0})


class WidePool(ThreadPoolExecutor):
    """A pool with more workers than the machine has cores."""

    def __init__(self, max_workers):
        super().__init__(max_workers=(os.cpu_count() or 1) + 4)


class TestReferenceParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_filter_matches_reference_loop(self, case, monkeypatch):
        params, extra = CASES[case]
        cfg = SimulationConfig(dt=0.02, duration=1000.0, seed=13, n_segments=4,
                               **({"burn_in": 0.0} | extra))
        # Eight chunks, the last one partial, drawn by more workers than
        # cores with frequent thread switches.
        monkeypatch.setattr(stochastic, "_CHUNK", 7000)
        monkeypatch.setattr(stochastic, "ThreadPoolExecutor", WidePool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = simulate(params, cfg)
        finally:
            sys.setswitchinterval(interval)
        d = reference_run(params, cfg)
        assert run.n_samples == d.size == 50_000
        assert np.max(np.abs(run.d_s - d)) <= 1e-12 * np.std(d)


class TestChunking:
    def test_chunk_size_does_not_change_realization(self, monkeypatch):
        params, _ = CASES["euler_coupled_spm"]
        cfg = SimulationConfig(dt=0.02, duration=400.0, seed=13, n_segments=4)
        reference = simulate(params, cfg)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        chunked = simulate(params, cfg)
        assert np.array_equal(reference.d_s, chunked.d_s)

    def test_chunk_size_does_not_change_exact_realization(self, monkeypatch):
        params = SensorParams(**BASE)
        cfg = SimulationConfig(dt=0.02, duration=400.0, seed=13, n_segments=4,
                               method="exact", signal=SignalWaveform(1.0, 0.7))
        reference = simulate(params, cfg)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        chunked = simulate(params, cfg)
        assert np.array_equal(reference.d_s, chunked.d_s)


class TestDrawAhead:
    """Each chunk's noise is drawn while the chunk before it is filtered."""

    @pytest.mark.parametrize("n_total", [600, 3000, 3500],
                             ids=["one_partial_chunk", "whole_chunks", "partial_last_chunk"])
    def test_each_stream_draws_each_chunk_once_and_one_ahead(self, n_total, monkeypatch):
        params, _ = CASES["euler_coupled_spm"]
        cfg = SimulationConfig(dt=0.02, duration=(n_total + 0.5) * 0.02, seed=13,
                               n_segments=1, burn_in=0.0)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        events, sizes = [], {}
        stream, lfilter = stochastic._stream, scipy.signal.lfilter

        def counting_stream(seed, stream_id):
            gen, drawn = stream(seed, stream_id), sizes.setdefault(stream_id, [])

            def standard_normal(out):
                drawn.append(out.size)
                return gen.standard_normal(out=out)

            return SimpleNamespace(standard_normal=standard_normal)

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                events.append("draw")
                return super().submit(fn, *args, **kwargs)

        def recording_lfilter(num, den, x, zi):
            events.append("filter")
            return lfilter(num, den, x, zi=zi)

        monkeypatch.setattr(stochastic, "_stream", counting_stream)
        monkeypatch.setattr(stochastic, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(scipy.signal, "lfilter", recording_lfilter)
        simulate(params, cfg)
        chunks = math.ceil(n_total / 1000)
        # No draw past the end: one call per chunk and stream, n_total in all.
        assert {sid: len(drawn) for sid, drawn in sizes.items()} == dict.fromkeys(sizes, chunks)
        assert all(sum(drawn) == n_total for drawn in sizes.values())
        # Chunk i + 1's draws are submitted before chunk i is filtered.
        expected = ["draw"] * 3
        for i in range(chunks):
            expected += ["draw"] * 3 * (i + 1 < chunks) + ["filter"] * 2
        assert events == expected


class TestDriveWaveform:
    def test_phasor_table_matches_the_sinusoid_at_gain_probe_size(self, monkeypatch):
        # gain_probe's run size and its highest probe: 3 M retained samples
        # at dt = 0.01 after the default burn-in, w = 2, so |w t| reaches
        # 6e4.  Zero noise leaves the drive the filter sees as the
        # waveform alone.
        params = SensorParams(**BASE)
        amplitude, omega = 1.0, 2.0
        cfg = SimulationConfig(dt=0.01, duration=30000.0, seed=5, n_segments=4,
                               signal=SignalWaveform(amplitude, omega))
        drives, lfilter = [], scipy.signal.lfilter

        def recording_lfilter(num, den, x, zi):
            drives.append(x.copy())
            return lfilter(num, den, x, zi=zi)

        def silent_stream(seed, stream_id):
            return SimpleNamespace(standard_normal=lambda out: out.fill(0.0))

        monkeypatch.setattr(stochastic, "_stream", silent_stream)
        monkeypatch.setattr(scipy.signal, "lfilter", recording_lfilter)
        run = simulate(params, cfg)
        drive = np.concatenate(drives)
        n_burn = math.ceil(8.0 / relaxation_rates(params)[0] / cfg.dt)
        assert run.n_samples == 3_000_000 and drive.size == n_burn + 3_000_000
        assert n_burn % stochastic._BLOCK
        wt = omega * (cfg.dt * (np.arange(drive.size) - n_burn))
        scale = stochastic._PLANS["euler"](params, cfg).signal_scale * amplitude
        tolerance = 1e-15 * abs(scale) * (1.0 + np.max(np.abs(wt)))
        assert np.max(np.abs(drive - scale * np.sin(wt))) <= tolerance


class TestStreams:
    """A realization does not depend on how many workers draw it."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)

    @pytest.mark.parametrize("case", ["euler_coupled_spm", "exact"])
    def test_one_worker_gives_the_same_realization(self, case, monkeypatch):
        params, extra = CASES[case]
        cfg = SimulationConfig(dt=0.02, duration=60.0, seed=13, n_segments=4, **extra)
        reference = simulate(params, cfg)
        workers = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(stochastic, "ThreadPoolExecutor", RecordingPool)
        single = simulate(params, cfg)
        assert workers == [1]
        assert np.array_equal(reference.d_s, single.d_s)

    @pytest.mark.parametrize("case, ids", [
        ("euler_cancelled_spm", {STREAM_DRIVE, STREAM_DIRECT}),
        ("euler_coupled_spm", {STREAM_DRIVE, STREAM_DIRECT, STREAM_COSINE}),
        ("exact", {STREAM_DRIVE, STREAM_DIRECT}),
        # eta = 1 and no intrinsic loss: the direct term is a multiple of
        # the drive, so its own stream has factor 0 and is not drawn.
        ("euler_lossless", {STREAM_DRIVE}),
    ])
    def test_a_run_draws_only_the_streams_the_detector_sees(self, case, ids, monkeypatch):
        params, extra = CASES.get(case) or (LOSSLESS, {})
        cfg = SimulationConfig(dt=0.02, duration=60.0, seed=13, n_segments=4, **extra)
        requested = []
        stream = stochastic._stream

        def recording_stream(seed, stream_id):
            requested.append(stream_id)
            return stream(seed, stream_id)

        monkeypatch.setattr(stochastic, "_stream", recording_stream)
        simulate(params, cfg)
        # One generator per stream, however many chunks the run takes.
        assert sorted(requested) == sorted(ids)


class TestPairFactor:
    """The drawn (drive, direct) pair has the covariance the inputs give it."""

    @pytest.mark.parametrize("method", ["euler", "exact"])
    @pytest.mark.parametrize("params", [SensorParams(**BASE), LOSSLESS],
                             ids=["lossy", "lossless"])
    def test_factor_reproduces_the_input_covariance(self, params, method):
        cfg = SimulationConfig(dt=0.02, duration=10.0, seed=0, method=method)
        factor = stochastic._PLANS[method](params, cfg).factor
        assert factor[0, 1] == 0.0
        cov = pair_covariance(params, cfg.dt, method)
        assert np.allclose(factor @ factor.T, cov, rtol=1e-13, atol=1e-13 * np.max(cov))

    def test_noise_below_float_range_gives_a_zero_series(self):
        # At kappa' = 1e-200, dt = 1e198 and r = 347 the squeezed input's
        # bin average, sqrt(PSD / dt), underflows to 0 and nothing else is
        # noisy: the factor is 0, and the run is all zeros, not an error.
        params = SensorParams(kappa_prime=1e-200, kappa_double_prime=0.0, eta=1.0,
                              n_photons=1.0, r_squeeze=347.0)
        cfg = SimulationConfig(dt=1e198, duration=4e201, seed=3, n_segments=4)
        assert not np.any(stochastic._PLANS["euler"](params, cfg).factor)
        assert not np.any(simulate(params, cfg).d_s)

    @pytest.mark.parametrize("method", ["euler", "exact"])
    def test_sample_covariance_of_the_drawn_pair(self, method, monkeypatch):
        # Record the drive each chunk feeds the filter and what the filter
        # returns; the detector less the filter output is the direct term.
        params = SensorParams(**BASE)
        cfg = SimulationConfig(dt=0.02, duration=4000.0, seed=17, n_segments=4,
                               burn_in=0.0, method=method)
        drives, outputs, lfilter = [], [], scipy.signal.lfilter

        def recording_lfilter(num, den, x, zi):
            y, zf = lfilter(num, den, x, zi=zi)
            drives.append(x.copy())
            outputs.append(y)
            return y, zf

        monkeypatch.setattr(scipy.signal, "lfilter", recording_lfilter)
        run = simulate(params, cfg)
        drive = np.concatenate(drives)
        direct = run.d_s - np.concatenate(outputs)
        cov = pair_covariance(params, cfg.dt, method)
        sample = np.cov(np.vstack([drive, direct]), bias=True)
        # Each entry's standard error is below sqrt(2 / n) of the scale
        # sqrt(cov_ii cov_jj); 200 000 samples put 5 of them under 1.6%.
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        assert drive.size == 200_000
        assert np.all(np.abs(sample - cov) < 5.0 * math.sqrt(2.0 / drive.size) * scale)
