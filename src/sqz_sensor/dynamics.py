"""Linearized quadrature dynamics of the driven mode in the frequency domain.

This module makes no assumption about self-phase-modulation cancellation:
it solves the full 2x2 quadrature system, forms the lossless output beam,
applies the detection-loss beamsplitter, and reports the signal gain and
every noise-transfer coefficient of the detected sine quadrature.  It is
the analytic engine behind the closed forms in :mod:`sqz_sensor.spectra`
and serves as the first of the two independent verification routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NORMALIZATION_RAW,
    SensorParams,
    SpectrumCurve,
    params_to_dict,
    spm_cancelling_ks,
)
from .errors import InstabilityError, RangeError


@dataclass(frozen=True)
class DriftMatrix:
    """Relaxation matrix of the (cosine, sine) quadrature pair.

    The equations of motion read ``d b / dt = -M b + drives``; the
    external frequency perturbation drives only the sine row with
    coefficient ``signal_coupling = -sqrt(2) * beta``.
    """

    matrix: np.ndarray
    signal_coupling: float

    def eigenvalues(self) -> np.ndarray:
        m = self.matrix
        center = 0.5 * (m[0, 0] + m[1, 1])
        disc = (0.5 * (m[0, 0] - m[1, 1])) ** 2 + m[0, 1] * m[1, 0]
        if disc >= 0.0:
            root = math.sqrt(disc)
            return np.array([center - root, center + root], dtype=complex)
        root = math.sqrt(-disc)
        return np.array([center - 1j * root, center + 1j * root])


def drift_matrix(params: SensorParams) -> DriftMatrix:
    """Drift matrix of the linearized intracavity quadratures.

    Rows and columns are ordered (cosine, sine).  The sine row carries
    the residual self-phase-modulation coupling ``k_s - 2 gamma N``,
    which vanishes when the parametric drive is tuned to cancel it.
    """
    kappa = params.kappa
    g2 = spm_cancelling_ks(params.gamma_spm, params.n_photons)
    m = np.array(
        [
            [kappa - params.k_c, params.k_s],
            [params.k_s - g2, kappa + params.k_c],
        ]
    )
    return DriftMatrix(matrix=m, signal_coupling=-math.sqrt(2.0) * params.beta)


@dataclass(frozen=True)
class FrequencyResponse:
    """Signal gain and noise-transfer coefficients at sideband frequency omega.

    ``gain`` multiplies the frequency perturbation; the ``t_*`` fields
    multiply the input quadratures (a_c, a_s), the intrinsic-loss noises
    (v_c, v_s), and the detection vacuum u_s in the detected quadrature.
    All entries follow the exp(-i omega t) Fourier convention and may be
    arrays when ``omega`` is an array.
    """

    omega: np.ndarray
    gain: np.ndarray
    t_a_c: np.ndarray
    t_a_s: np.ndarray
    t_v_c: np.ndarray
    t_v_s: np.ndarray
    t_u_s: np.ndarray


def input_noise_psds(params: SensorParams) -> dict[str, float]:
    """Double-sided spectral densities of the five input noises.

    The input beam is squeezed in the measured (sine) quadrature,
    exp(-2r)/2, and taken minimum-uncertainty anti-squeezed in the
    conjugate one, exp(+2r)/2.  Loss and detection noises are vacuum.
    Raises :class:`RangeError` when exp(2r) overflows.
    """
    r = params.r_squeeze
    try:
        anti = math.exp(2.0 * r)
    except OverflowError:
        raise RangeError(f"r_squeeze = {r!r}: the anti-squeezed input exp(2r) overflows") from None
    return {
        "a_c": 0.5 * anti,
        "a_s": 0.5 * math.exp(-2.0 * r),
        "v_c": 0.5,
        "v_s": 0.5,
        "u_s": 0.5,
    }


def _require_stable(params: SensorParams) -> tuple[DriftMatrix, np.ndarray]:
    """Drift matrix and its eigenvalues, which must have positive real parts."""
    drift = drift_matrix(params)
    eigs = drift.eigenvalues()
    if not np.all(eigs.real > 0.0):
        raise InstabilityError(
            f"drift eigenvalues {eigs} must have positive real parts"
        )
    return drift, eigs


def relaxation_rates(params: SensorParams) -> tuple[float, float]:
    """(slowest, fastest) relaxation rates of the stable quadrature pair.

    Raises :class:`InstabilityError` when any eigenvalue real part is
    non-positive.
    """
    _, eigs = _require_stable(params)
    return float(eigs.real.min()), float(eigs.real.max())


def frequency_response(params: SensorParams, omega) -> FrequencyResponse:
    """Solve the quadrature dynamics at sideband frequency ``omega``.

    The intracavity pair is solved by closed-form 2x2 inversion, the
    lossless output beam is ``sqrt(2 kappa') b_s - a_s``, and detection
    loss mixes in vacuum through a beamsplitter of transmissivity eta.
    Raises :class:`InstabilityError` when the drift matrix has a
    non-positive relaxation rate.
    """
    drift, _ = _require_stable(params)
    m = drift.matrix
    w = np.asarray(omega, dtype=float)

    d_cc = -1j * w + m[0, 0]
    d_cs = np.broadcast_to(np.asarray(m[0, 1], dtype=complex), w.shape)
    d_sc = np.broadcast_to(np.asarray(m[1, 0], dtype=complex), w.shape)
    d_ss = -1j * w + m[1, 1]
    det = d_cc * d_ss - d_cs * d_sc
    inv_ss = d_cc / det        # sine response to a sine-row drive
    inv_sc = -d_sc / det       # sine response to a cosine-row drive

    sqrt_eta = math.sqrt(params.eta)
    two_kp = 2.0 * params.kappa_prime
    cross = 2.0 * math.sqrt(params.kappa_prime * params.kappa_double_prime)

    gain = sqrt_eta * math.sqrt(two_kp) * drift.signal_coupling * inv_ss
    t_a_c = sqrt_eta * two_kp * inv_sc
    t_v_c = sqrt_eta * cross * inv_sc
    t_a_s = sqrt_eta * (two_kp * inv_ss - 1.0)
    t_v_s = sqrt_eta * cross * inv_ss
    t_u_s = np.broadcast_to(np.asarray(math.sqrt(1.0 - params.eta), dtype=complex), w.shape)

    return FrequencyResponse(
        omega=w, gain=gain, t_a_c=t_a_c, t_a_s=t_a_s,
        t_v_c=t_v_c, t_v_s=t_v_s, t_u_s=t_u_s,
    )


def psd_from_response(params: SensorParams, omegas, xi_referred: bool = True) -> SpectrumCurve:
    """Assemble the noise spectral density from the frequency response.

    With ``xi_referred=True`` the sum noise is divided by the squared
    gain magnitude, expressing it in units of the eigenfrequency
    perturbation being sensed.
    """
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1:
        raise RangeError("omegas must be a 1-d grid")
    resp = frequency_response(params, w)
    psds = input_noise_psds(params)
    total = (
        np.abs(resp.t_a_c) ** 2 * psds["a_c"]
        + np.abs(resp.t_a_s) ** 2 * psds["a_s"]
        + np.abs(resp.t_v_c) ** 2 * psds["v_c"]
        + np.abs(resp.t_v_s) ** 2 * psds["v_s"]
        + np.abs(resp.t_u_s) ** 2 * psds["u_s"]
    )
    if xi_referred:
        total = total / np.abs(resp.gain) ** 2
    return SpectrumCurve(
        omegas=w,
        values=total,
        normalization=NORMALIZATION_RAW,
        scenario="response",
        params=params_to_dict(params),
    )


@dataclass(frozen=True)
class SignalWaveform:
    """Classical eigenfrequency perturbation ``amplitude * sin(frequency t)``.

    The perturbation is treated as exactly classical and noiseless.  A
    zero amplitude is no drive: the integrator skips the waveform.
    """

    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "frequency"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(f"waveform {name} must be finite, got {getattr(self, name)}")
        if self.frequency < 0.0:
            raise RangeError("waveform frequency must be >= 0")

    @classmethod
    def zero(cls) -> "SignalWaveform":
        return cls()

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float) -> "SignalWaveform":
        return cls(amplitude=float(amplitude), frequency=float(frequency))

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.sin(self.frequency * t)
