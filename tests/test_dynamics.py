import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import sqz_sensor as sq
from sqz_sensor import InstabilityError, SensorParams, SignalWaveform

from conftest import random_cancelled_params


class TestDriftMatrix:
    def test_diagonal_without_drive(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0)
        m = sq.drift_matrix(p).matrix
        assert np.array_equal(m, np.array([[1.1, 0.0], [0.0, 1.1]]))

    def test_entries_with_parametric_drive(self):
        # kappa = 1.1, k_c = -0.5, k_s = 0.4, gamma*N = 0.2 so the
        # spurious coupling 2*gamma*N exactly cancels k_s.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=4.0, gamma_spm=0.05, k_c=-0.5, k_s=0.4)
        m = sq.drift_matrix(p).matrix
        assert m == pytest.approx(np.array([[1.6, 0.4], [0.0, 0.6]]), rel=1e-15)

    def test_trace_is_twice_kappa(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_cancelled_params(rng)
            m = sq.drift_matrix(p).matrix
            assert m[0, 0] + m[1, 1] == pytest.approx(2.0 * p.kappa, rel=1e-15)

    def test_triangular_eigenvalues_under_cancellation(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = random_cancelled_params(rng)
            eigs = np.sort(sq.drift_matrix(p).eigenvalues().real)
            expected = np.sort([p.kappa - p.k_c, p.kappa + p.k_c])
            assert eigs == pytest.approx(expected, rel=1e-12)

    def test_eigenvalues_vs_dense_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = SensorParams(
                kappa_prime=1.0,
                kappa_double_prime=rng.uniform(0.0, 0.5),
                eta=rng.uniform(0.3, 1.0),
                n_photons=rng.uniform(0.5, 2.0),
                gamma_spm=rng.uniform(0.0, 0.3),
                k_c=rng.uniform(-0.8, 0.8),
                k_s=rng.uniform(0.0, 0.8),
            )
            drift = sq.drift_matrix(p)
            ours = np.sort_complex(drift.eigenvalues())
            dense = np.sort_complex(np.linalg.eigvals(drift.matrix))
            assert ours == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_signal_enters_sine_row(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=4.0)
        assert sq.drift_matrix(p).signal_coupling == pytest.approx(-math.sqrt(2.0) * 2.0, rel=1e-15)


class TestFrequencyResponse:
    def test_dc_gain_lossless(self, lossless_params):
        resp = sq.frequency_response(lossless_params, 0.0)
        assert complex(resp.gain) == pytest.approx(-2.0 + 0.0j, abs=1e-15)

    def test_gain_magnitude_at_kappa(self, lossless_params):
        resp = sq.frequency_response(lossless_params, 1.0)
        assert abs(complex(resp.gain)) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_gain_magnitude_invariant(self):
        rng = np.random.default_rng(6)
        omegas = np.linspace(0.0, 5.0, 21)
        for _ in range(25):
            p = random_cancelled_params(rng)
            resp = sq.frequency_response(p, omegas)
            expected = 4.0 * p.eta * p.kappa_prime * p.n_photons / (
                omegas ** 2 + (p.kappa + p.k_c) ** 2)
            assert np.abs(resp.gain) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_conjugate_symmetry(self, fig2_params):
        p = replace(fig2_params, k_c=-0.3, k_s=0.2)
        w = np.linspace(0.1, 4.0, 17)
        plus = sq.frequency_response(p, w)
        minus = sq.frequency_response(p, -w)
        for name in ("gain", "t_a_c", "t_a_s", "t_v_c", "t_v_s", "t_u_s"):
            assert getattr(minus, name) == pytest.approx(np.conj(getattr(plus, name)), rel=1e-14)

    def test_no_detection_vacuum_at_unit_efficiency(self, lossless_params):
        resp = sq.frequency_response(lossless_params, np.linspace(0.0, 3.0, 7))
        assert np.all(resp.t_u_s == 0.0)

    def test_no_loss_noise_without_intrinsic_loss(self, lossless_params):
        resp = sq.frequency_response(lossless_params, np.linspace(0.0, 3.0, 7))
        assert np.all(resp.t_v_c == 0.0)
        assert np.all(resp.t_v_s == 0.0)

    def test_cosine_inputs_decouple_under_cancellation(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=4.0, gamma_spm=0.05, k_c=0.2, k_s=0.4)
        resp = sq.frequency_response(p, np.linspace(0.0, 3.0, 7))
        assert np.max(np.abs(resp.t_a_c)) < 1e-15
        assert np.max(np.abs(resp.t_v_c)) < 1e-15

    def test_instability_raises(self):
        # Without the Kerr shift a strong sine gain destabilizes the pair:
        # eigenvalues kappa +- k_s.
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, k_s=2.0)
        with pytest.raises(InstabilityError):
            sq.frequency_response(p, 0.0)

    def test_cancelled_params_never_unstable(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_cancelled_params(rng)
            sq.frequency_response(p, 0.0)  # must not raise

    def test_relaxation_rates(self, fig2_params):
        lo, hi = sq.relaxation_rates(replace(fig2_params, k_c=-0.5))
        assert lo == pytest.approx(0.6, rel=1e-14)
        assert hi == pytest.approx(1.6, rel=1e-14)


class TestPsdFromResponse:
    def test_matches_closed_form_when_cancelled(self):
        rng = np.random.default_rng(8)
        w = np.linspace(0.0, 4.0, 33)
        for _ in range(25):
            p = random_cancelled_params(rng)
            oracle = sq.psd_from_response(p, w).values
            closed = sq.measurement_psd_raw(p, w)
            assert np.max(np.abs(oracle - closed) / closed) < 1e-12

    def test_no_squeeze_reduction_identity(self):
        # (kp - kpp)^2 + 4 kp kpp = kappa^2 collapses the general form.
        rng = np.random.default_rng(9)
        w = np.linspace(0.0, 4.0, 17)
        for _ in range(25):
            p = random_cancelled_params(rng, with_kc=False)
            p = replace(p, r_squeeze=0.0)
            oracle = sq.psd_from_response(p, w).values
            expected = (w ** 2 + p.kappa ** 2) / (8.0 * p.kappa_prime * p.eta * p.n_photons)
            assert oracle == pytest.approx(expected, rel=5e-15)

    def test_vacuum_sum_noise_flat(self, lossless_params):
        w = np.linspace(0.0, 5.0, 11)
        curve = sq.psd_from_response(lossless_params, w, xi_referred=False)
        assert curve.values == pytest.approx(np.full(11, 0.5), rel=1e-15)

    def test_reference_dc_value(self):
        # no-squeezing scenario at the reference losses: kappa^2/(8 kp eta)
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0)
        value = sq.psd_from_response(p, np.array([0.0])).values[0]
        expected = float(Fraction(121, 560))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_even_in_frequency(self, fig2_params):
        p = replace(fig2_params, k_c=0.2, k_s=0.3, gamma_spm=0.1)
        w = np.linspace(0.25, 4.0, 16)
        up = sq.psd_from_response(p, w).values
        down = sq.psd_from_response(p, -w[::-1]).values[::-1]
        assert up == pytest.approx(down, rel=1e-14)

    def test_grid_must_be_1d(self, fig2_params):
        with pytest.raises(sq.RangeError):
            sq.psd_from_response(fig2_params, np.ones((2, 2)))


class TestSignalWaveform:
    def test_zero(self):
        t = np.linspace(0.0, 1.0, 5)
        assert np.all(SignalWaveform.zero().evaluate(t) == 0.0)

    def test_sinusoid(self):
        wf = SignalWaveform.sinusoid(2.0, 3.0)
        t = np.linspace(0.0, 1.0, 5)
        assert wf.evaluate(t) == pytest.approx(2.0 * np.sin(3.0 * t), rel=1e-15)

    def test_zero_amplitude_drive_matches_zero_waveform(self, fig2_params):
        cfg = sq.SimulationConfig(dt=0.02, duration=50.0, seed=9, n_segments=2,
                                  signal=SignalWaveform.zero())
        run = sq.simulate(fig2_params, cfg)
        assert run.n_samples == 2500
        silent = replace(cfg, signal=SignalWaveform.sinusoid(0.0, 0.5))
        assert np.array_equal(sq.simulate(fig2_params, silent).d_s, run.d_s)

    def test_negative_frequency_rejected(self):
        with pytest.raises(sq.RangeError, match=">= 0"):
            SignalWaveform(frequency=-1.0)
        with pytest.raises(sq.RangeError, match=">= 0"):
            SignalWaveform.sinusoid(1.0, -1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.nan), (1.0, math.inf),
                                      (-math.inf, 1.0), (1.0, -math.inf)])
    def test_non_finite_sinusoid_rejected(self, args):
        with pytest.raises(sq.RangeError, match="finite"):
            SignalWaveform.sinusoid(*args)
