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
from sqz_sensor.stochastic import (
    STREAM_A_C,
    STREAM_A_S,
    STREAM_A_S_RESIDUAL,
    STREAM_U_S,
    STREAM_V_C,
    STREAM_V_S,
)

from reference_loops import euler_maruyama_loop, exact_relax_loop

STREAMS = {"a_c": STREAM_A_C, "a_s": STREAM_A_S, "v_c": STREAM_V_C,
           "v_s": STREAM_V_S, "u_s": STREAM_U_S}

BASE = dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0,
            r_squeeze=0.5, k_c=-0.3)


def serial_stream(seed, stream_id, n):
    """``n`` standard normals of one noise stream, drawn in one call."""
    bits = np.random.SFC64(np.random.SeedSequence([seed, stream_id]))
    return np.random.Generator(bits).standard_normal(n)


def reference_run(params, config):
    """Detector series from the per-step loops, fed by each noise stream
    drawn serially; ``config`` must have no burn-in.

    The Euler loop always gets the cosine-quadrature inputs a_c and v_c,
    also when the self-phase-modulation coupling is cancelled and the
    package leaves them out.
    """
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
        # Exact OU update: the exponentially filtered integral of a_s is
        # its regression on the bin average plus an independent residual.
        lam = drift.matrix[1, 1]
        decay = math.exp(-lam * dt)
        s_as = psds["a_s"]
        var0 = s_as * dt
        cov01 = s_as * (1.0 - decay) / lam
        resid = math.sqrt(max(s_as * (1.0 - decay * decay) / (2.0 * lam)
                              - cov01 * cov01 / var0, 0.0))
        a_bar = math.sqrt(s_as / dt) * serial_stream(seed, STREAM_A_S, n)
        i1_a = cov01 / var0 * (a_bar * dt) + resid * serial_stream(seed, STREAM_A_S_RESIDUAL, n)
        i1_v = (math.sqrt(psds["v_s"] * (1.0 - decay * decay) / (2.0 * lam))
                * serial_stream(seed, STREAM_V_S, n))
        w_drive = (c_a * i1_a + c_v * i1_v
                   + drift.signal_coupling * (1.0 - decay) / lam * signal)
        u_s = math.sqrt(psds["u_s"] / dt) * serial_stream(seed, STREAM_U_S, n)
        exact_relax_loop(0.0, decay, a_bar, w_drive, u_s, p_bs, q_as, q_us, d)
        return d
    z = {name: math.sqrt(psd / dt) * serial_stream(seed, STREAMS[name], n)
         for name, psd in psds.items()}
    m = drift.matrix
    euler_maruyama_loop(0.0, 0.0, m[0, 0], m[0, 1], m[1, 0], m[1, 1], dt,
                        z["a_c"], z["a_s"], z["v_c"], z["v_s"], z["u_s"],
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

    @pytest.mark.parametrize("case, ids", [
        ("euler_cancelled_spm", {STREAM_A_S, STREAM_V_S, STREAM_U_S}),
        ("euler_coupled_spm", {STREAM_A_C, STREAM_A_S, STREAM_V_C, STREAM_V_S, STREAM_U_S}),
        ("exact", {STREAM_A_S, STREAM_A_S_RESIDUAL, STREAM_V_S, STREAM_U_S}),
    ])
    def test_a_run_draws_only_the_streams_the_detector_sees(self, case, ids, monkeypatch):
        params, extra = CASES[case]
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
