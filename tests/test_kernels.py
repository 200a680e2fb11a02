"""The linear-filter integrator against the per-step reference loops."""

import math

import numpy as np
import pytest

import sqz_sensor.stochastic as stochastic
from sqz_sensor import SensorParams, SignalWaveform, SimulationConfig, drift_matrix, simulate

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
        for i0, a_bar, w_drive, u_s in stochastic._exact_drives(params, config, n_total):
            i1 = i0 + a_bar.size
            bs = exact_relax_loop(bs, decay, a_bar, w_drive, u_s, p_bs, q_as, q_us,
                                  d[i0:i1], b_s[i0:i1], True)
        return d, None, b_s
    m = drift_matrix(params).matrix
    bc = bs = 0.0
    for i0, a_c, a_s, v_c, v_s, u_s, xi in stochastic._euler_drives(params, config, n_total):
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
