"""Coherent demodulation by a per-sample phase recurrence, as a reference.

The package evaluates its demodulation bins as one blocked matrix
product; this is the direct route it must reproduce: the series is
multiplied by ``exp(-i omega t)`` at the probe frequency, then stepped
up and down by one bin spacing ``2 pi / (n dt)`` at a time.
"""

from __future__ import annotations

import math

import numpy as np


def demodulate_loop(d, dt, probe_omega):
    """``(z_probe, offsets)``: ``2 mean(d exp(-i w t))`` at the probe and
    at the 16 offsets ``probe_omega +- k 2 pi / (n dt)``, ``k = 3 .. 10``,
    ordered ``+3, -3, +4, -4, ...``."""
    t = dt * np.arange(d.size)
    base = d * np.exp(-1j * probe_omega * t)
    z_probe = 2.0 * np.mean(base)
    d_omega = 2.0 * math.pi / (d.size * dt)
    step = np.exp(-1j * d_omega * t)
    offsets = []
    cur_up = base.copy()
    cur_dn = base.copy()
    step_conj = np.conj(step)
    for k in range(1, 11):
        cur_up = cur_up * step
        cur_dn = cur_dn * step_conj
        if k >= 3:
            offsets.append(2.0 * np.mean(cur_up))
            offsets.append(2.0 * np.mean(cur_dn))
    return z_probe, np.array(offsets)
