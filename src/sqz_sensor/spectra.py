"""Closed-form sensitivity spectral densities of the squeezed-probe sensor.

Every function returns the double-sided spectral density of the detected
sine-quadrature noise referred to the sensed eigenfrequency perturbation
(units of (rad/s)^2 * s in SI mode).  The closed forms assume the
self-phase-modulation coupling is cancelled by the sine parametric gain;
the general solver in :mod:`sqz_sensor.dynamics` covers everything else,
the un-referred detected noise included.

All closed-form scenarios share one model, the quadratic
``S(omega) = c2 omega^2 + c0(k_c)`` of :func:`quadratic_coefficients`: a
scenario is nothing but a choice of the cosine gain ``k_c`` (zero, or
the loss-optimal value, with ``r = 0`` for the coherent probe) applied by
:meth:`Scenario.materialize` alone, so every entry point accepts any
``params`` and overrides what the scenario pins.  The lossless-resonator
cases are this quadratic at ``kappa_double_prime = 0``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np

from .core import (
    NORMALIZATION_KP_OVER_N,
    NORMALIZATION_RAW,
    SCENARIO_SNL,
    Scenario,
    SensorParams,
    SpectrumCurve,
    params_to_dict,
)
from .errors import DoubleNormalizationError, RangeError


def _shape_match(omega, values):
    """Return a float for scalar input, the array otherwise."""
    if np.ndim(omega) == 0:
        return float(values)
    return values


def quadratic_coefficients(params: SensorParams) -> tuple[float, float]:
    """Coefficients ``(c2, c0)`` of the sensitivity spectrum ``c2 w^2 + c0``.

    Every closed-form scenario is this one quadratic in omega; the
    scenarios differ only in the cosine gain ``k_c`` carried by
    ``params``, which enters the frequency-independent floor ``c0``
    alone.  Stability, ``|k_c| < kappa``, is checked when ``params`` is built.
    Raises :class:`RangeError` when the scale ``8 kappa_prime N`` underflows
    to 0 or overflows, when the loss factor ``(1 - eta) / eta`` or ``c2``
    overflows, or when a squared rate overflows.
    """
    kp, kpp, kc = params.kappa_prime, params.kappa_double_prime, params.k_c
    em2r = math.exp(-2.0 * params.r_squeeze)
    eps2 = params.epsilon_sq
    scale = 8.0 * kp * params.n_photons
    c2 = (em2r + eps2) / scale if scale > 0.0 else math.inf
    if not (c2 < math.inf and scale < math.inf):
        raise RangeError(
            f"kappa_prime = {kp!r}, n_photons = {params.n_photons!r} and eta = {params.eta!r}: "
            "the spectrum scale 8 kappa_prime n_photons, the loss factor "
            "(1 - eta) / eta or their ratio is beyond floating-point range"
        )
    d, s = kp - kpp - kc, params.kappa + kc
    try:
        d2, s2 = d ** 2, s ** 2
    except OverflowError:
        raise RangeError(
            f"kappa_prime = {kp!r}, kappa_double_prime = {kpp!r} and k_c = {kc!r}: "
            "their squares overflow the spectrum floor"
        ) from None
    c0 = (d2 * em2r + 4.0 * kp * kpp + eps2 * s2) / scale
    if c0 == 0.0 or 0.0 < d2 < sys.float_info.min or 0.0 < s2 < sys.float_info.min:
        # A square is subnormal, or every term underflows: divide
        # kappa_prime out of the squares and the scale.  As d + s =
        # 2 kappa_prime, neither ratio can overflow where a square is small.
        c0 = (d * (d / kp) * em2r + 4.0 * kpp + eps2 * s * (s / kp)) / (8.0 * params.n_photons)
    return c2, c0


def measurement_psd_raw(params: SensorParams, omega):
    """Sensitivity spectral density for an arbitrary cosine gain k_c.

    This is the sum noise divided by the squared gain magnitude; the
    cavity response cancels out of the ratio, leaving the quadratic of
    :func:`quadratic_coefficients`.
    """
    c2, c0 = quadratic_coefficients(params)
    w = np.asarray(omega, dtype=float)
    # Where the terms meet at a subnormal omega^2, (c2 omega) omega keeps its digits.
    values = (c2 * w * w if c0 < c2 * sys.float_info.min else c2 * np.square(w)) + c0
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


def normalize_curve(curve: SpectrumCurve, params: SensorParams) -> SpectrumCurve:
    """Express a raw curve in units of kappa' / N with frequencies in kappa'.

    Values are multiplied by N / kappa', frequencies divided by kappa'.
    """
    if curve.normalization != NORMALIZATION_RAW:
        raise DoubleNormalizationError("curve is already normalized")
    return replace(
        curve,
        omegas=curve.omegas / params.kappa_prime,
        values=curve.values * (params.n_photons / params.kappa_prime),
        normalization=NORMALIZATION_KP_OVER_N,
    )


def scenario_curve(scenario: Scenario, params: SensorParams, omegas) -> SpectrumCurve:
    """Sample a scenario's closed form on a frequency grid."""
    params_m = scenario.materialize(params)
    w = np.asarray(omegas, dtype=float)
    return SpectrumCurve(
        omegas=w,
        values=measurement_psd_raw(params_m, w),
        normalization=NORMALIZATION_RAW,
        scenario=scenario.tag,
        params=params_to_dict(params_m),
    )


def snl_curve(params: SensorParams, omegas) -> SpectrumCurve:
    """Sample the shot-noise-limit envelope on a frequency grid."""
    w = np.asarray(omegas, dtype=float)
    return SpectrumCurve(
        omegas=w,
        values=snl(params, w),
        normalization=NORMALIZATION_RAW,
        scenario=SCENARIO_SNL,
        params=params_to_dict(params),
    )
