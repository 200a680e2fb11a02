"""The linear-filter integrator against the per-step reference loops."""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sqz_sensor.stochastic as stochastic
from sqz_sensor import (
    SensorParams,
    SignalWaveform,
    SimulationConfig,
    drift_matrix,
    input_noise_psds,
    simulate,
)

from reference_loops import euler_maruyama_loop, exact_relax_loop

BASE = dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0,
            r_squeeze=0.5, k_c=-0.3)


def serial_stream(seed, stream_id, n):
    """``n`` standard normals of one noise stream, drawn in one call."""
    return np.random.Generator(np.random.Philox(seed=[seed, stream_id])).standard_normal(n)


def reference_run(params, config):
    """Detector series from the per-step loops, fed by each noise stream
    drawn serially; ``config`` must have no burn-in."""
    n, dt, seed = int(config.duration / config.dt), config.dt, config.seed
    psds = input_noise_psds(params)
    drift = drift_matrix(params)
    sqrt_eta = math.sqrt(params.eta)
    p_bs = sqrt_eta * math.sqrt(2.0 * params.kappa_prime)
    q_as, q_us = -sqrt_eta, math.sqrt(1.0 - params.eta)
    c_a = math.sqrt(2.0 * params.kappa_prime)
    c_v = math.sqrt(2.0 * params.kappa_double_prime)
    signal = config.signal.evaluate(dt * np.arange(n))
    d = np.empty(n)
    if config.method == "exact":
        # Exact OU update: the bin average of a_s and its exponentially
        # filtered integral are drawn jointly from one stream.
        lam = drift.matrix[1, 1]
        decay = math.exp(-lam * dt)
        s_as = psds["a_s"]
        var0 = s_as * dt
        cov01 = s_as * (1.0 - decay) / lam
        resid = math.sqrt(max(s_as * (1.0 - decay * decay) / (2.0 * lam)
                              - cov01 * cov01 / var0, 0.0))
        za, zv = serial_stream(seed, 1, 2 * n), serial_stream(seed, 2, 2 * n)
        a_bar = math.sqrt(s_as / dt) * za[0::2]
        i1_a = cov01 / var0 * (a_bar * dt) + resid * za[1::2]
        i1_v = math.sqrt(psds["v_s"] * (1.0 - decay * decay) / (2.0 * lam)) * zv[1::2]
        w_drive = (c_a * i1_a + c_v * i1_v
                   + drift.signal_coupling * (1.0 - decay) / lam * signal)
        u_s = math.sqrt(psds["u_s"] / dt) * serial_stream(seed, 3, n)
        exact_relax_loop(0.0, decay, a_bar, w_drive, u_s, p_bs, q_as, q_us, d)
        return d
    sig = {k: math.sqrt(v / dt) for k, v in psds.items()}
    v = serial_stream(seed, 2, 2 * n)
    m = drift.matrix
    euler_maruyama_loop(0.0, 0.0, m[0, 0], m[0, 1], m[1, 0], m[1, 1], dt,
                        sig["a_c"] * serial_stream(seed, 0, n),
                        sig["a_s"] * serial_stream(seed, 1, n),
                        sig["v_c"] * v[0::2], sig["v_s"] * v[1::2],
                        sig["u_s"] * serial_stream(seed, 3, n),
                        drift.signal_coupling * signal,
                        p_bs, q_as, q_us, c_a, c_v, d)
    return d


CASES = {
    # residual self-phase-modulation coupling (k_s != 2 gamma N) feeds the
    # cosine quadrature into the measured one, and so into the detector
    "euler_coupled_spm": (SensorParams(gamma_spm=0.1, k_s=0.5, **BASE), {}),
    "euler_cancelled_spm": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE), {}),
    "euler_sinusoid": (SensorParams(**BASE),
                       {"signal": SignalWaveform.sinusoid(1.0, 0.7)}),
    "exact": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE), {"method": "exact"}),
    "exact_sinusoid": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE),
                       {"method": "exact", "signal": SignalWaveform.sinusoid(1.0, 0.7, 0.3)}),
}


class WidePool(ThreadPoolExecutor):
    """A pool with more workers than the machine has cores."""

    def __init__(self, max_workers):
        super().__init__(max_workers=(os.cpu_count() or 1) + 4)


class TestReferenceParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_filter_matches_reference_loop(self, case, monkeypatch):
        params, extra = CASES[case]
        cfg = SimulationConfig(dt=0.02, duration=1000.0, seed=13, n_segments=4,
                               burn_in=0.0, **extra)
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
                               method="exact", signal=SignalWaveform.sinusoid(1.0, 0.7))
        reference = simulate(params, cfg)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        chunked = simulate(params, cfg)
        assert np.array_equal(reference.d_s, chunked.d_s)


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
