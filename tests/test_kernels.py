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


def reference_run(params, config):
    """Detector and stored states from the per-step loops, fed the very
    noise draws ``simulate`` uses; ``config`` must have no burn-in."""
    n_total = int(config.duration / config.dt)
    p_bs, q_as, q_us = stochastic._output_coefficients(params)
    c_a = math.sqrt(2.0 * params.kappa_prime)
    c_v = math.sqrt(2.0 * params.kappa_double_prime)
    d, b_c, b_s = np.empty(n_total), np.empty(n_total), np.empty(n_total)
    if config.method == "exact":
        _, decay = stochastic._exact_decay(params, config.dt)
        bs = 0.0
        with ThreadPoolExecutor(max_workers=2) as pool:
            drives = list(stochastic._exact_drives(params, config, n_total, pool))
        for i0, a_bar, w_drive, u_s in drives:
            i1 = i0 + a_bar.size
            bs = exact_relax_loop(bs, decay, a_bar, w_drive, u_s, p_bs, q_as, q_us,
                                  d[i0:i1], b_s[i0:i1], True)
        return d, None, b_s
    m = drift_matrix(params).matrix
    bc = bs = 0.0
    with ThreadPoolExecutor(max_workers=2) as pool:
        drives = list(stochastic._euler_drives(params, config, n_total, pool))
    for i0, a_c, a_s, v_c, v_s, u_s, xi in drives:
        i1 = i0 + a_s.size
        bc, bs = euler_maruyama_loop(bc, bs, m[0, 0], m[0, 1], m[1, 0], m[1, 1], config.dt,
                                     a_c, a_s, v_c, v_s, u_s, xi, p_bs, q_as, q_us, c_a, c_v,
                                     d[i0:i1], b_c[i0:i1], b_s[i0:i1], True)
    return d, b_c, b_s


CASES = {
    # residual self-phase-modulation coupling (k_s != 2 gamma N) feeds b_c into b_s
    "euler_coupled_spm": (SensorParams(gamma_spm=0.1, k_s=0.5, **BASE), {}),
    "euler_cancelled_spm": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE), {}),
    "euler_sinusoid": (SensorParams(**BASE),
                       {"signal": SignalWaveform.sinusoid(1.0, 0.7)}),
    "exact": (SensorParams(gamma_spm=0.1, k_s=0.2, **BASE), {"method": "exact"}),
}


class TestReferenceParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_filter_matches_reference_loop(self, case):
        params, extra = CASES[case]
        cfg = SimulationConfig(dt=0.02, duration=1000.0, seed=13, n_segments=4,
                               burn_in=0.0, store_state=True, **extra)
        run = simulate(params, cfg)
        d, b_c, b_s = reference_run(params, cfg)
        assert run.n_samples == d.size == 50_000
        pairs = [(run.d_s, d), (run.b_s, b_s)]
        if b_c is not None:
            pairs.append((run.b_c, b_c))
        else:
            assert run.b_c is None
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.std(want)


class TestChunking:
    def test_chunk_size_does_not_change_realization(self, monkeypatch):
        params, _ = CASES["euler_coupled_spm"]
        cfg = SimulationConfig(dt=0.02, duration=400.0, seed=13, n_segments=4,
                               store_state=True)
        reference = simulate(params, cfg)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        chunked = simulate(params, cfg)
        assert np.array_equal(reference.d_s, chunked.d_s)
        assert np.array_equal(reference.b_c, chunked.b_c)
        assert np.array_equal(reference.b_s, chunked.b_s)

    def test_chunk_size_does_not_change_exact_realization(self, monkeypatch):
        params = SensorParams(**BASE)
        cfg = SimulationConfig(dt=0.02, duration=400.0, seed=13, n_segments=4,
                               store_state=True, method="exact",
                               signal=SignalWaveform.sinusoid(1.0, 0.7))
        reference = simulate(params, cfg)
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
        chunked = simulate(params, cfg)
        assert np.array_equal(reference.d_s, chunked.d_s)
        assert np.array_equal(reference.b_s, chunked.b_s)


def serial_stream(seed, stream_id, n):
    """``n`` standard normals of one noise stream, drawn in one call."""
    return np.random.Generator(np.random.Philox(seed=[seed, stream_id])).standard_normal(n)


class TestStreams:
    """The concurrently drawn drives against each stream drawn serially."""

    N_TOTAL = 2500  # three chunks of 1000 steps, the last one partial

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)

    def chunks(self, drives, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = [chunk[1:] for chunk in drives(pool)]
        return [np.concatenate(arrays) for arrays in zip(*parts)]

    def test_euler_drives_match_serial_streams(self):
        params, _ = CASES["euler_coupled_spm"]
        cfg = SimulationConfig(dt=0.02, duration=50.0, seed=13, n_segments=4, burn_in=0.0)
        n = self.N_TOTAL
        sig = {k: math.sqrt(v / cfg.dt) for k, v in input_noise_psds(params).items()}
        v = serial_stream(13, 2, 2 * n)
        want = [sig["a_c"] * serial_stream(13, 0, n), sig["a_s"] * serial_stream(13, 1, n),
                sig["v_c"] * v[0::2], sig["v_s"] * v[1::2], sig["u_s"] * serial_stream(13, 3, n),
                np.zeros(n)]
        # More workers than cores and frequent thread switches.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.chunks(
                lambda pool: stochastic._euler_drives(params, cfg, n, pool), workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_exact_drives_match_serial_streams(self):
        params = SensorParams(gamma_spm=0.1, k_s=0.2, **BASE)
        cfg = SimulationConfig(dt=0.02, duration=50.0, seed=13, n_segments=4, burn_in=0.0,
                               method="exact")
        n, dt = self.N_TOTAL, cfg.dt
        lam, decay = stochastic._exact_decay(params, dt)
        psds = input_noise_psds(params)
        s_as = psds["a_s"]
        var0 = s_as * dt
        cov01 = s_as * (1.0 - decay) / lam
        resid = math.sqrt(max(s_as * (1.0 - decay * decay) / (2.0 * lam)
                              - cov01 * cov01 / var0, 0.0))
        za, zv = serial_stream(13, 1, 2 * n), serial_stream(13, 2, 2 * n)
        a_bar = math.sqrt(s_as / dt) * za[0::2]
        i1_a = cov01 / var0 * (a_bar * dt) + resid * za[1::2]
        i1_v = math.sqrt(psds["v_s"] * (1.0 - decay * decay) / (2.0 * lam)) * zv[1::2]
        w_drive = (math.sqrt(2.0 * params.kappa_prime) * i1_a
                   + math.sqrt(2.0 * params.kappa_double_prime) * i1_v)
        u_s = math.sqrt(psds["u_s"] / dt) * serial_stream(13, 3, n)
        got = self.chunks(lambda pool: stochastic._exact_drives(params, cfg, n, pool), workers=3)
        assert len(got) == 3
        for g, w in zip(got, (a_bar, w_drive, u_s)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("case", ["euler_coupled_spm", "exact"])
    def test_one_worker_gives_the_same_realization(self, case, monkeypatch):
        params, extra = CASES[case]
        cfg = SimulationConfig(dt=0.02, duration=60.0, seed=13, n_segments=4,
                               store_state=True, **extra)
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
        assert np.array_equal(reference.b_s, single.b_s)
        if reference.b_c is not None:
            assert np.array_equal(reference.b_c, single.b_c)
