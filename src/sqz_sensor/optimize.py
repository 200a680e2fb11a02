"""Design-parameter optimization and sub-shot-noise band analysis.

The closed-form optima have independent numeric counterparts (coarse grid
scan, golden-section refinement, parabolic polish) so every analytic
optimum in the package can be cross-checked without reusing its algebra.
Sub-shot-noise bands are analytic: every closed-form spectrum is one
quadratic in omega, so the band edges are the roots of that quadratic
minus the linear shot-noise limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectra
from .core import Scenario, SensorParams
from .errors import ConvergenceError, NoBandError, RangeError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

METHOD_CLOSED_FORM = "closed_form"
METHOD_GRID_REFINE = "grid_refine"


@dataclass(frozen=True)
class OptimizationResult:
    """Argmin, attained objective, and provenance of a 1-d minimization."""

    argmin: float
    value: float
    method: str
    tolerance: float
    boundary: bool = False


def golden_section(f, a: float, b: float, rel_tol: float = 1e-12, max_iter: int = 200):
    """Golden-section search for the minimum of a unimodal function.

    Returns ``(x, f(x))`` with the bracket narrowed to
    ``rel_tol * max(|a|, |b|, 1)``.  Raises :class:`ConvergenceError`
    if the required iteration count exceeds ``max_iter``.
    """
    a, b = (a, b) if a < b else (b, a)
    scale = max(abs(a), abs(b), 1.0)
    tol = rel_tol * scale
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n_steps = int(math.ceil(math.log(tol / h) / math.log(_INVPHI)))
    if n_steps > max_iter:
        raise ConvergenceError(
            f"golden-section needs {n_steps} iterations for rel_tol={rel_tol}, cap is {max_iter}"
        )
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n_steps - 1):
        h *= _INVPHI
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INVPHI * h
            yd = f(d)
    x = c if yc < yd else d
    return x, min(yc, yd)


def _parabolic_polish(f, x: float, h: float, lo: float, hi: float):
    """One exact parabolic-vertex step around ``x`` with spacing ``h``.

    Double precision limits a pure comparison search to roughly the
    square root of machine epsilon near a flat minimum; a single
    wide-spaced parabolic fit recovers the vertex to near full precision
    for the smooth objectives used here.
    """
    if x - h <= lo or x + h >= hi:
        return x, f(x)
    f1, f2, f3 = f(x - h), f(x), f(x + h)
    den = 2.0 * f2 - f1 - f3
    if den == 0.0:
        return x, f2
    step = -0.5 * h * (f1 - f3) / den
    if not math.isfinite(step) or abs(step) > h:
        return x, f2
    xv = min(max(x + step, lo), hi)
    return xv, f(xv)


def _grid_refine(f, xs, rel_tol: float, polish_h: float):
    """Coarse-grid argmin, golden-section refinement, parabolic polish.

    Returns ``(x, f(x), boundary)`` where ``boundary`` flags an optimum
    pinned to an end of the search grid.
    """
    ys = np.array([f(x) for x in xs])
    i = int(np.argmin(ys))
    boundary = i == 0 or i == len(xs) - 1
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    x, y = golden_section(f, lo, hi, rel_tol=rel_tol)
    if not boundary:
        x, y = _parabolic_polish(f, x, polish_h, xs[0], xs[-1])
    return x, y, boundary


def optimal_kc(params: SensorParams) -> float:
    """Loss-optimal cosine-quadrature parametric gain.

    The optimum balances the residual squeezed input noise against the
    output-loss vacuum and is independent of the sideband frequency.  It
    always lies strictly inside the stability range; its sign indicates
    whether the measured quadrature is internally squeezed (positive) or
    anti-squeezed (negative).
    """
    em2r = math.exp(-2.0 * params.r_squeeze)
    eps2 = params.epsilon_sq
    den = em2r + eps2
    if den == 0.0:
        # eta = 1 and exp(-2r) underflows: the eta = 1 optimum holds for
        # any squeezing.
        return params.kappa_prime - params.kappa_double_prime
    num = (params.kappa_prime - params.kappa_double_prime) * em2r - eps2 * params.kappa
    return num / den


def numeric_min_kc(
    params: SensorParams,
    omega_probe: float = 0.0,
    rel_tol: float = 1e-10,
    n_grid: int = 512,
) -> OptimizationResult:
    """Numeric minimization of the sensitivity spectrum over k_c.

    Independent check of :func:`optimal_kc`: scans a stable k_c grid,
    refines by golden section, and polishes with a parabolic step.  The
    argmin does not depend on ``omega_probe`` because the k_c-dependent
    part of the objective carries no frequency term.
    """
    kappa = params.kappa
    delta = 1e-9 * kappa
    xs = np.linspace(-kappa + delta, kappa - delta, n_grid)

    def objective(kc: float) -> float:
        return spectra.measurement_psd_raw(replace(params, k_c=kc), omega_probe)

    x, y, boundary = _grid_refine(objective, xs, rel_tol, polish_h=1e-5 * kappa)
    return OptimizationResult(
        argmin=float(x), value=float(y), method=METHOD_GRID_REFINE,
        tolerance=rel_tol, boundary=boundary,
    )


def snl_optimal_kappa(omega: float, n_photons: float = 1.0) -> OptimizationResult:
    """Bandwidth minimizing the no-squeezing spectrum of a lossless sensor.

    At sideband frequency omega the optimal half-bandwidth equals
    |omega| and the attained spectral density is the shot-noise limit
    |omega| / (4 N).  The point omega = 0 is degenerate (the formal
    optimum pushes the bandwidth to zero) and is rejected.
    """
    if omega == 0.0:
        raise RangeError("omega = 0 is degenerate: the optimal bandwidth tends to 0")
    if n_photons <= 0.0:
        raise RangeError(f"n_photons must be > 0, got {n_photons}")
    argmin = abs(float(omega))
    return OptimizationResult(
        argmin=argmin, value=argmin / (4.0 * n_photons),
        method=METHOD_CLOSED_FORM, tolerance=0.0,
    )


def numeric_min_kappa(
    omega: float,
    n_photons: float = 1.0,
    rel_tol: float = 1e-10,
    n_grid: int = 512,
    span: float = 1e3,
) -> OptimizationResult:
    """Numeric counterpart of :func:`snl_optimal_kappa`.

    Minimizes the lossless no-squeezing spectrum over the half-bandwidth
    on a logarithmic grid spanning ``[|omega|/span, |omega|*span]``.
    """
    if omega == 0.0:
        raise RangeError("omega = 0 is degenerate: the optimal bandwidth tends to 0")
    w = abs(float(omega))
    xs = np.geomspace(w / span, w * span, n_grid)

    def objective(kappa: float) -> float:
        p = SensorParams(kappa_prime=kappa, kappa_double_prime=0.0,
                         eta=1.0, n_photons=n_photons)
        return spectra.measurement_psd_raw(p, w)

    x, y, boundary = _grid_refine(objective, xs, rel_tol, polish_h=1e-5 * w)
    return OptimizationResult(
        argmin=float(x), value=float(y), method=METHOD_GRID_REFINE,
        tolerance=rel_tol, boundary=boundary,
    )


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
        if self.upper < self.lower:
            raise RangeError(f"band upper edge {self.upper} below lower edge {self.lower}")

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

    The band edges are the roots of ``c2 w^2 - w/(4N) + c0``, with the
    scenario's quadratic coefficients from
    :func:`spectra.quadratic_coefficients`, clipped to
    ``search_interval``.  A spectrum that only touches the limit, within
    1e-9 of the spectrum plus the limit at the vertex, gives a
    zero-width band there; if the spectrum stays above the limit on the
    interval, :class:`NoBandError` is raised.  Zero frequency is never
    inside a band because the spectrum is positive there while the limit
    vanishes.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (hi > lo >= 0.0):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    params_m = scenario.materialize(params)
    scenario.check(params_m)
    c2, c0 = spectra.quadratic_coefficients(params_m)
    b = 0.25 / params_m.n_photons
    disc = b * b - 4.0 * c2 * c0
    w_v = b / (2.0 * c2)
    # (spectrum - limit) at the vertex is -disc / (4 c2).
    if abs(disc) / (4.0 * c2) <= 1e-9 * (c2 * w_v * w_v + c0 + b * w_v):
        lower = upper = w_v
    elif disc < 0.0:
        raise NoBandError("spectrum stays above the shot-noise limit")
    else:
        # Cancellation-free roots: b > 0, so b + sqrt(disc) loses nothing.
        q = 0.5 * (b + math.sqrt(disc))
        lower, upper = c0 / q, q / c2
    lower, upper = max(lower, lo), min(upper, hi)
    if upper < lower:
        raise NoBandError(f"no sub-shot-noise frequency in ({lo}, {hi})")
    return SnlBand(lower=lower, upper=upper)
