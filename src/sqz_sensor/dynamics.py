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
    SensorParams,
    SpectrumCurve,
    frequency_grid,
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

    @np.errstate(over="ignore")
    def eigenvalues(self) -> np.ndarray:
        """The two eigenvalues, real ones in increasing order.

        Solved at 2^e just above the trace 2 kappa, so that squared rates
        neither overflow nor underflow; a power-of-two scaling is exact.
        An off-diagonal product beyond floating-point range gives
        eigenvalues ``center -+ inf`` (real) or ``center -+ i inf``.
        """
        e = math.frexp(self.matrix[0, 0] + self.matrix[1, 1])[1]
        m = np.ldexp(self.matrix, -e)
        center = 0.5 * (m[0, 0] + m[1, 1])
        disc = (0.5 * (m[0, 0] - m[1, 1])) ** 2 + m[0, 1] * m[1, 0]
        center, root = np.ldexp(center, e), np.ldexp(math.sqrt(abs(disc)), e)
        if disc >= 0.0:
            return np.array([center - root, center + root], dtype=complex)
        return np.array([complex(center, -root), complex(center, root)])


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
    """
    r = params.r_squeeze
    return {
        "a_c": 0.5 * math.exp(2.0 * r),
        "a_s": 0.5 * math.exp(-2.0 * r),
        "v_c": 0.5,
        "v_s": 0.5,
        "u_s": 0.5,
    }


def _require_stable(params: SensorParams) -> tuple[DriftMatrix, np.ndarray]:
    """Drift matrix and its eigenvalues, which must have positive real parts
    and finite imaginary parts."""
    drift = drift_matrix(params)
    eigs = drift.eigenvalues()
    if not np.all(eigs.real > 0.0):
        raise InstabilityError(
            f"drift eigenvalues {eigs} must have positive real parts"
        )
    if not np.all(np.isfinite(eigs.imag)):
        raise RangeError(
            f"k_s = {params.k_s!r}, gamma_spm = {params.gamma_spm!r} and n_photons = "
            f"{params.n_photons!r}: the coupling k_s (k_s - 2 gamma_spm n_photons) "
            "overflows, so the drift eigenvalues are beyond floating-point range"
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
    kappa = params.kappa
    # The 2x2 solve in units of kappa, so that its determinant does not
    # underflow (or overflow) with the squared rates; the responses then
    # carry the rates over kappa.
    m = drift.matrix / kappa
    w = np.asarray(omega, dtype=float)

    jw = -1j * (w / kappa)
    d_cc = jw + m[0, 0]
    d_cs = np.broadcast_to(np.asarray(m[0, 1], dtype=complex), w.shape)
    d_sc = np.broadcast_to(np.asarray(m[1, 0], dtype=complex), w.shape)
    d_ss = jw + m[1, 1]
    det = d_cc * d_ss - d_cs * d_sc
    inv_ss = d_cc / det        # kappa times the sine response to a sine-row drive
    inv_sc = -d_sc / det       # kappa times the sine response to a cosine-row drive

    sqrt_eta = math.sqrt(params.eta)
    two_kp = 2.0 * params.kappa_prime / kappa
    cross = 2.0 * math.sqrt(params.kappa_prime / kappa) * math.sqrt(params.kappa_double_prime / kappa)

    gain = sqrt_eta * (math.sqrt(2.0 * params.kappa_prime) / kappa) * drift.signal_coupling * inv_ss
    t_a_c = sqrt_eta * two_kp * inv_sc
    t_v_c = sqrt_eta * cross * inv_sc
    t_a_s = sqrt_eta * (two_kp * inv_ss - 1.0)
    t_v_s = sqrt_eta * cross * inv_ss
    t_u_s = np.broadcast_to(np.asarray(math.sqrt(1.0 - params.eta), dtype=complex), w.shape)

    return FrequencyResponse(
        omega=w, gain=gain, t_a_c=t_a_c, t_a_s=t_a_s,
        t_v_c=t_v_c, t_v_s=t_v_s, t_u_s=t_u_s,
    )


@np.errstate(all="ignore")
def psd_from_response(params: SensorParams, omegas, xi_referred: bool = True) -> SpectrumCurve:
    """Assemble the noise spectral density from the frequency response.

    With ``xi_referred=True`` the sum noise is divided by the squared
    gain magnitude, expressing it in units of the eigenfrequency
    perturbation being sensed.  ``omegas`` must pass
    :func:`~sqz_sensor.core.frequency_grid`.  The returned
    :class:`~sqz_sensor.core.SpectrumCurve` raises :class:`RangeError`,
    naming the parameters and the first such frequency, when the spectrum
    underflows to 0 or is not finite.
    """
    w = frequency_grid(omegas)
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
        scenario="response",
        params=params_to_dict(params),
    )
