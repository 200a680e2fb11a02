"""Design-parameter optimization and sub-shot-noise band analysis.

The closed-form optima have independent numeric counterparts (a bounded
Brent search on the spectrum itself, then one parabolic polish) so every
analytic optimum in the package can be cross-checked without reusing its
algebra.  Sub-shot-noise bands are analytic: every closed-form spectrum
is one quadratic in omega, so the band edges are the roots of that
quadratic minus the linear shot-noise limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import spectra
from .core import Scenario, SensorParams
from .errors import ConvergenceError, NoBandError, RangeError


@dataclass(frozen=True)
class OptimizationResult:
    """Argmin and attained objective of a 1-d minimization.

    ``boundary`` flags a numeric optimum within the polish spacing of an
    end of the search interval, where it was not refined further.
    """

    argmin: float
    value: float
    boundary: bool = False


# Overflow surfaces as a NaN objective (ConvergenceError) or an infinite
# or constant one (RangeError), not as floating-point warnings.
@np.errstate(over="ignore", invalid="ignore")
def _minimize(f, lo: float, hi: float, h: float):
    """Bounded Brent minimization of ``f`` on ``[lo, hi]``, then one polish.

    Brent's method stops near the square root of machine epsilon, the
    limit of any comparison search at a flat minimum; one parabolic-vertex
    step through ``x - h``, ``x``, ``x + h`` then recovers the vertex to
    near full precision for the smooth objectives used here.  Returns
    ``(x, f(x), boundary)``; an optimum within ``h`` of an end is not
    polished and is flagged ``boundary``.  Raises :class:`RangeError` when
    the attained minimum is not finite (the objective overflowed) or
    equals ``f`` at both ends (a constant objective has no unique
    optimum), and :class:`ConvergenceError` when Brent's method fails.
    """
    # Brent's absolute tolerance, about sqrt(eps) of the problem scale
    # h * 1e5, keeps its stop well inside the polish spacing.
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-3 * h})
    if not res.success:
        raise ConvergenceError(f"bounded Brent search on [{lo!r}, {hi!r}] failed: {res.message}")
    x, y = float(res.x), float(res.fun)
    if not math.isfinite(y):
        raise RangeError(f"objective minimum {y!r} is not finite: the objective overflowed")
    if y == f(lo) == f(hi):
        raise RangeError(f"objective is {y!r} at both ends and at its minimum: no unique optimum")
    if x - h <= lo or x + h >= hi:
        return x, y, True
    f1, f3 = f(x - h), f(x + h)
    den = 2.0 * y - f1 - f3
    step = 0.5 * h * (f3 - f1) / den if den != 0.0 else math.inf
    if abs(step) <= h:
        x += step
        y = f(x)
    return x, y, False


def optimal_kc(params: SensorParams) -> float:
    """Loss-optimal cosine-quadrature parametric gain.

    The optimum balances the residual squeezed input noise against the
    output-loss vacuum and is independent of the sideband frequency.  Its
    sign indicates whether the measured quadrature is internally squeezed
    (positive) or anti-squeezed (negative).  Raises :class:`RangeError`
    unless it is finite and strictly inside the stability range
    ``|k_c| < kappa``: it is on the edge for a lossless resonator with
    ``eta = 1``, and rounds onto it when one rate is far below the other
    or the loss factor far exceeds ``exp(-2r)``.
    """
    kp, kpp = params.kappa_prime, params.kappa_double_prime
    em2r = math.exp(-2.0 * params.r_squeeze)
    eps2 = params.epsilon_sq
    den = em2r + eps2
    if den == 0.0:
        # eta = 1 and exp(-2r) underflows: the eta = 1 optimum holds for
        # any squeezing.
        kc = kp - kpp
    else:
        kc = ((kp - kpp) * em2r - eps2 * params.kappa) / den
    if not abs(kc) < params.kappa:
        raise RangeError(
            f"kappa_prime = {kp!r}, kappa_double_prime = {kpp!r}, eta = {params.eta!r} and "
            f"r_squeeze = {params.r_squeeze!r}: the loss-optimal k_c = {kc!r} is not "
            f"inside the stability range |k_c| < kappa = {params.kappa!r}"
        )
    return kc


def numeric_min_kc(params: SensorParams, omega_probe: float = 0.0) -> OptimizationResult:
    """Numeric minimization of the sensitivity spectrum over k_c.

    Independent check of :func:`optimal_kc`: a bounded Brent search of
    the spectrum over the stable range ``|k_c| < kappa`` (less 1e-9 kappa
    at each end), polished with spacing ``1e-5 kappa``; ``boundary`` flags
    an optimum within that spacing of an end.  The argmin does not depend
    on ``omega_probe`` because the k_c-dependent part of the objective
    carries no frequency term.  Raises :class:`RangeError` when the
    spectrum does not depend on k_c (``eta = 1`` with ``exp(-2r)``
    underflowed).
    """
    kappa = params.kappa
    delta = 1e-9 * kappa

    def objective(kc: float) -> float:
        return spectra.measurement_psd_raw(replace(params, k_c=kc), omega_probe)

    x, y, boundary = _minimize(objective, -kappa + delta, kappa - delta, h=1e-5 * kappa)
    return OptimizationResult(argmin=x, value=y, boundary=boundary)


def _check_omega(omega: float) -> float:
    """``|omega|`` of a finite nonzero sideband frequency."""
    if not math.isfinite(omega):
        raise RangeError(f"omega must be finite, got {omega}")
    if omega == 0.0:
        raise RangeError("omega = 0 is degenerate: the optimal bandwidth tends to 0")
    return abs(float(omega))


def snl_optimal_kappa(omega: float, n_photons: float = 1.0) -> OptimizationResult:
    """Bandwidth minimizing the no-squeezing spectrum of a lossless sensor.

    At sideband frequency omega the optimal half-bandwidth equals
    |omega| and the attained spectral density is the shot-noise limit
    |omega| / (4 N).  The point omega = 0 is degenerate (the formal
    optimum pushes the bandwidth to zero) and is rejected, as is a
    non-finite omega.
    """
    argmin = _check_omega(omega)
    if not 0.0 < n_photons < math.inf:
        raise RangeError(f"n_photons must be finite and > 0, got {n_photons}")
    return OptimizationResult(argmin=argmin, value=argmin / (4.0 * n_photons))


def numeric_min_kappa(omega: float, n_photons: float = 1.0) -> OptimizationResult:
    """Numeric counterpart of :func:`snl_optimal_kappa`.

    Minimizes the lossless no-squeezing spectrum over ``u = ln kappa`` by
    a bounded Brent search on ``ln|omega| -+ ln 1e3``, polished with
    spacing ``1e-5`` in ``u``; ``boundary`` flags an optimum within that
    spacing of an end.  In ``u`` the spectrum is
    ``(|omega|/4N) cosh(u - ln|omega|)``, symmetric about its minimum, so
    the parabolic polish leaves no first-order bias.  Raises
    :class:`RangeError` for a zero or non-finite omega, when ``8 kappa N``
    leaves the normal floating-point range at an end of the search, and
    when the spectrum does not depend on the bandwidth because ``omega^2``
    and ``kappa^2`` overflow.
    """
    w = _check_omega(omega)
    if not sys.float_info.min <= 8.0 * (w / 1e3) * n_photons <= 8.0 * 1e3 * w * n_photons < math.inf:
        raise RangeError(
            f"n_photons = {n_photons!r} and omega = {omega!r}: the spectrum scale "
            "8 kappa N is beyond floating-point range over the bandwidth search "
            "|omega| 1e-3 .. |omega| 1e3"
        )

    def objective(u: float) -> float:
        # np.exp keeps kappa a numpy float, so an overflowing kappa**2
        # gives inf rather than a Python OverflowError.
        p = SensorParams(kappa_prime=np.exp(u), kappa_double_prime=0.0,
                         eta=1.0, n_photons=n_photons)
        return spectra.measurement_psd_raw(p, w)

    u_w, span = math.log(w), math.log(1e3)
    u, y, boundary = _minimize(objective, u_w - span, u_w + span, h=1e-5)
    return OptimizationResult(argmin=float(np.exp(u)), value=y, boundary=boundary)


@dataclass(frozen=True)
class SnlBand:
    """Frequency band where a scenario beats the shot-noise limit.

    ``lower == upper`` marks a degenerate tangency (the spectrum touches
    the limit at a single frequency without crossing it).
    """

    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not self.lower <= self.upper:
            raise RangeError(f"band edges must satisfy lower <= upper, got "
                             f"({self.lower}, {self.upper})")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def is_degenerate(self) -> bool:
        return self.lower == self.upper


def snl_crossings(
    scenario: Scenario,
    params: SensorParams,
    search_interval: tuple[float, float],
) -> SnlBand:
    """The band where the scenario spectrum dips below the SNL.

    The band edges are the roots of ``N c2 w^2 - w/4 + N c0``: the
    scenario's quadratic from :func:`spectra.quadratic_coefficients`
    minus the limit, times the photon number ``N``, which leaves
    coefficients that do not depend on ``N`` and cannot overflow or
    underflow with it.  The edges are clipped to ``search_interval``.  A
    spectrum that only touches the limit, within 1e-9 of the spectrum
    plus the limit at the vertex, gives a zero-width band there; if the
    spectrum stays above the limit on the interval, :class:`NoBandError`
    is raised.  Zero frequency is never
    inside a band because the spectrum is positive there while the limit
    vanishes.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (hi > lo >= 0.0):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    params_m = scenario.materialize(params)
    c2, c0 = spectra.quadratic_coefficients(params_m)
    c2, c0, b = params_m.n_photons * c2, params_m.n_photons * c0, 0.25
    disc = b * b - 4.0 * c2 * c0
    # At the vertex b / (2 c2), (spectrum - limit) is -disc / (4 c2) and
    # (spectrum + limit) is (3 b^2 + 4 c2 c0) / (4 c2); the test compares
    # the two with the common factor taken out, so c2 = 0 needs no case.
    # An overflowing 4 c2 c0 leaves disc = -inf: no root and no tangency.
    if math.isfinite(disc) and abs(disc) <= 1e-9 * (3.0 * b * b + 4.0 * c2 * c0):
        lower = upper = b / (2.0 * c2)
    elif disc < 0.0:
        raise NoBandError("spectrum stays above the shot-noise limit")
    else:
        # Cancellation-free roots: b > 0, so b + sqrt(disc) loses nothing.
        # c2 = 0 (eta = 1 with exp(-2r) underflowed) leaves the constant
        # spectrum c0 below the limit from its one crossing upward.
        q = 0.5 * (b + math.sqrt(disc))
        lower, upper = c0 / q, (q / c2 if c2 > 0.0 else hi)
    lower, upper = max(lower, lo), min(upper, hi)
    if upper < lower:
        raise NoBandError(f"no sub-shot-noise frequency in ({lo}, {hi})")
    return SnlBand(lower=lower, upper=upper)
