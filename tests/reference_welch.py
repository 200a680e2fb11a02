"""Two-sided Welch estimate through scipy, as a reference spectrum.

The package computes its segment-averaged periodogram itself; this is
the scipy route it must reproduce: Hann window, 50% overlap, no
detrending, double-sided density, mapped onto ``[0, pi/dt]``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import signal


def welch_two_sided(d, dt, nperseg):
    """``(omega, psd)`` on ``[0, pi/dt]``, increasing in ``omega``."""
    freqs, pxx = signal.welch(
        d,
        fs=1.0 / dt,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
        return_onesided=False,
        scaling="density",
    )
    pos = freqs >= 0.0
    omega = 2.0 * math.pi * freqs[pos]
    psd = pxx[pos]
    order = np.argsort(omega)
    omega = omega[order]
    psd = psd[order]
    if nperseg % 2 == 0:
        # Two-sided output stores the Nyquist bin at -fs/2; mirror it so
        # interpolation covers the full [0, pi/dt] range.
        i_ny = int(np.argmin(freqs))
        omega = np.append(omega, math.pi / dt)
        psd = np.append(psd, pxx[i_ny])
    return omega, psd
