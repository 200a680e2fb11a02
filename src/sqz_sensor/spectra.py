"""Closed-form sensitivity spectral densities of the squeezed-probe sensor.

Every function returns the double-sided spectral density of the detected
sine-quadrature noise referred to the sensed eigenfrequency perturbation
(units of (rad/s)^2 * s in SI mode).  The closed forms assume the
self-phase-modulation coupling is cancelled by the sine parametric gain;
the general solver in :mod:`sqz_sensor.dynamics` covers everything else,
the un-referred detected noise included.

All closed-form scenarios share one model, the quadratic
``S = scale (a y^2 + c(k_c))`` in ``y = omega / kappa`` of
:func:`quadratic_coefficients`, whose coefficients are ratios of rates: a
scenario is nothing but a choice of the cosine gain ``k_c`` (zero, or
the loss-optimal value, with ``r = 0`` for the coherent probe) applied by
:meth:`Scenario.materialize` alone, so every entry point accepts any
``params`` and overrides what the scenario pins.  The lossless-resonator
cases are this quadratic at ``kappa_double_prime = 0``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    SCENARIO_SNL,
    Scenario,
    SensorParams,
    SpectrumCurve,
    params_to_dict,
)
from .errors import RangeError


def _shape_match(omega, values):
    """Return a float for scalar input, the array otherwise."""
    if np.ndim(omega) == 0:
        return float(values)
    return values


def quadratic_coefficients(params: SensorParams) -> tuple[float, float, float]:
    """``(scale, a, c)`` of the spectrum ``scale (a y^2 + c)``, ``y = omega / kappa``.

    The scenarios differ only in the cosine gain ``k_c`` carried by
    ``params``, which enters the floor ``c`` alone.  With
    ``d = (kappa' - kappa'' - k_c) / kappa`` and ``s = (kappa + k_c) / kappa``,
    ``scale = (kappa / 8N) (kappa / kappa')``, ``a = exp(-2r) + eps^2`` and
    ``c = d^2 exp(-2r) + 4 kappa' kappa'' / kappa^2 + eps^2 s^2``: only
    ``scale`` carries the size of the answer.  Stability, ``|k_c| < kappa``,
    is checked when ``params`` is built.  Raises :class:`RangeError` when
    ``scale`` underflows to 0 or overflows.
    """
    kappa, kp, kpp = params.kappa, params.kappa_prime, params.kappa_double_prime
    em2r = math.exp(-2.0 * params.r_squeeze)
    eps2 = params.epsilon_sq
    scale = kappa / (8.0 * params.n_photons) * (kappa / kp)
    a = em2r + eps2
    if not 0.0 < scale < math.inf:
        raise RangeError(
            f"kappa_prime = {kp!r}, kappa_double_prime = {kpp!r} and n_photons = "
            f"{params.n_photons!r}: the spectrum scale (kappa / 8 n_photons) (kappa / "
            "kappa_prime) underflows to 0 or overflows"
        )
    d, s = (kp - kpp - params.k_c) / kappa, (kappa + params.k_c) / kappa
    c = d * d * em2r + 4.0 * (kp / kappa) * (kpp / kappa) + eps2 * s * s
    return scale, a, c


def measurement_psd_raw(params: SensorParams, omega):
    """Sensitivity spectral density for an arbitrary cosine gain k_c.

    This is the sum noise divided by the squared gain magnitude; the
    cavity response cancels out of the ratio, leaving the quadratic of
    :func:`quadratic_coefficients`.
    """
    scale, a, c = quadratic_coefficients(params)
    values = scale * (a * np.square(np.asarray(omega, dtype=float) / params.kappa) + c)
    return _shape_match(omega, values)


def snl(params: SensorParams, omega):
    """Shot-noise-limit envelope |omega| / (4 N).

    Best sensitivity reachable with a coherent probe and no internal
    squeezing, optimizing the resonator bandwidth at each frequency.
    """
    values = np.abs(np.asarray(omega, dtype=float)) / (4.0 * params.n_photons)
    return _shape_match(omega, values)


def closed_form_psd(scenario: Scenario, params: SensorParams, omega):
    """Closed-form spectrum of ``scenario`` at ``params``.

    The quadratic at ``scenario.materialize(params)``: the scenario sets
    ``k_c`` (and ``r = 0`` for no squeeze) whatever ``params`` carries.
    """
    return measurement_psd_raw(scenario.materialize(params), omega)


# In the curve builders a value beyond floating-point range is left
# non-finite, for SpectrumCurve to report by parameter and frequency.
@np.errstate(all="ignore")
def scenario_curve(scenario: Scenario, params: SensorParams, omegas) -> SpectrumCurve:
    """Sample a scenario's closed form on a frequency grid."""
    params_m = scenario.materialize(params)
    w = np.asarray(omegas, dtype=float)
    return SpectrumCurve(
        omegas=w,
        values=measurement_psd_raw(params_m, w),
        scenario=scenario.tag,
        params=params_to_dict(params_m),
    )


@np.errstate(all="ignore")
def snl_curve(params: SensorParams, omegas) -> SpectrumCurve:
    """Sample the shot-noise-limit envelope on a frequency grid."""
    w = np.asarray(omegas, dtype=float)
    return SpectrumCurve(
        omegas=w,
        values=snl(params, w),
        scenario=SCENARIO_SNL,
        params=params_to_dict(params),
    )
