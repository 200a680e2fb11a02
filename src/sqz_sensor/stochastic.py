"""Time-domain integration of the linearized Langevin dynamics.

This is the second, fully independent verification route: the quadrature
pair is integrated against white-noise inputs, the detected quadrature
is formed through the output and loss relations, and its spectrum is
estimated with a segment-averaged periodogram.  Nothing here reuses the
closed-form algebra of :mod:`sqz_sensor.spectra`.

Each integration method (Euler-Maruyama, exact Ornstein-Uhlenbeck
update) is one numerator per independent physical input, reduced to
one filter by ``_innovations``: one normal per step, innovations form.
The numerators share one denominator ``A``, so the detector's spectrum
is ``|C|^2 / |A|^2`` with ``|C|^2`` the sum of their squared moduli; one
normal per step through the minimum-phase factor ``C`` over ``A`` gives
the same Gaussian process (Box & Jenkins 1976, ARMA models).  The
normals come from one SFC64 generator seeded by ``SeedSequence([seed,
0])``, and the filter is a blocked prefix scan in numpy's elementwise
ufuncs on a grid tied to the step index (:func:`_filter`), so within
one tool version a seed reproduces its realization bit for bit for a
pinned numpy version, whatever the core count or the chunk size.  One
chunked loop runs either plan in cache-sized chunks, drawing each
chunk's normals while the one before is filtered, and adds the injected
sinusoid as the filter's steady-state response.  A run from
:func:`simulate` is that seeded realization, produced when something
reads it: the spectral estimate and the gain demodulation accumulate it
chunk by chunk as the loop yields it, and its series is allocated only
when ``d_s`` is first read.  Runs share no state, so callers may
overlap them.  The periodogram is Welch's estimate as batched numpy real FFTs; the gain is
demodulated on the grid the probe is injected on, in products of a
fixed shape, so gains too keep their bits whatever the core count.
"""

from __future__ import annotations

import cmath
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    SensorParams,
    SpectrumCurve,
    frequency_grid,
    params_to_dict,
)
from .dynamics import (
    drift_matrix,
    frequency_response,
    input_noise_psds,
    relaxation_rates,
)
from .errors import ConfigError, GridError, RangeError, SnrError

METHOD_EULER = "euler"
METHOD_EXACT = "exact"

#: Integrator implementation recorded on every run: the blocked prefix
#: scan of :func:`_filter`.
BACKEND = "blocked_scan"

#: Samples per chunk.  At 2**16 each per-chunk array (512 KiB) stays in
#: a core's L2 cache, and a chunk's arrays (a few MB in all) are small
#: against the recorded series, so overlapping runs keep the peak
#: resident set low.  Realizations do not depend on it: the stream is
#: drawn in order, and the filter works on whole blocks of the step
#: index, carrying its state and the normals of an incomplete block
#: across chunks.
_CHUNK = 1 << 16

#: Steps per row of the filter's grid: a block of the step index, from
#: its first step, is ``_BLOCK // _ROW`` rows, and the filter scans the
#: steps of every row of a chunk at once (:func:`_section`).
_ROW = 64

#: Samples per row of the probe grid ``m = q * _BLOCK + k`` of the
#: retained index, on which the drive is injected from a phasor table
#: (32 KiB per column) and the gain is demodulated.
_BLOCK = 4096

#: Periodogram segments transformed per batched FFT; bounds work memory.
_SEGMENT_BATCH = 32

#: Rows of the probe grid per product of the gain demodulation; bounds
#: the buffered samples.
_DEMOD_ROWS = 16

#: Most retained samples in a run: their series, 8 bytes a sample, would
#: fill the 2**47 bytes of a 64-bit Linux process's user address space.
_MAX_SAMPLES = 1 << 44

#: Margin against the fastest relaxation rate when validating the step.
_DT_MARGIN = 0.1


@dataclass(frozen=True)
class SignalWaveform:
    """Classical eigenfrequency perturbation ``amplitude * sin(frequency t)``.

    The perturbation is treated as exactly classical and noiseless.  A
    zero amplitude is no drive: the integrator skips the waveform.  The
    integrator (:func:`_integrate`) adds its steady-state response from a
    phasor table, its only sampler, so a driven run has no transient.
    """

    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "frequency"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(f"waveform {name} must be finite, got {getattr(self, name)}")
        if self.frequency < 0.0:
            raise RangeError("waveform frequency must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    """Integration settings for one stochastic run.

    ``duration`` is the retained span; a transient of ``burn_in`` seconds
    (default: eight times the slowest relaxation time) is integrated
    first and discarded, so retained samples are effectively stationary.
    The seed fully determines the realization for a pinned numpy
    version.  Only the detected quadrature is recorded.  ``signal`` is
    the injected perturbation; the default zero amplitude is no drive.
    """

    dt: float
    duration: float
    seed: int
    n_segments: int = 200
    signal: SignalWaveform = field(default_factory=SignalWaveform)
    burn_in: float | None = None
    method: str = METHOD_EULER

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be a positive finite number, got {self.dt}")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigError(f"duration must be a positive finite number, got {self.duration}")
        if not (0 <= self.seed < math.inf and int(self.seed) == self.seed):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if not (1 <= self.n_segments < math.inf and int(self.n_segments) == self.n_segments):
            raise ConfigError(f"n_segments must be a positive integer, got {self.n_segments}")
        if self.method not in (METHOD_EULER, METHOD_EXACT):
            raise ConfigError(f"method must be {METHOD_EULER!r} or {METHOD_EXACT!r}, got {self.method!r}")
        if self.burn_in is not None and not 0.0 <= self.burn_in < math.inf:
            raise ConfigError(f"burn_in must be a non-negative finite number, got {self.burn_in}")
        if not isinstance(self.signal, SignalWaveform):
            raise ConfigError("signal must be a SignalWaveform")


class SimulationRun:
    """Detected-quadrature time series with its provenance.

    Sample ``n`` of ``d_s`` is taken at time ``n * dt``: the waveform
    clock starts at zero at the first retained sample, and the discarded
    transient has negative times.

    ``SimulationRun(d_s, params, config, backend)`` holds the series
    ``d_s``, one-dimensional, as float64.  A run from :func:`simulate` is
    a seeded realization, produced when read: it holds no series until
    ``d_s`` is first read, when whichever thread reads first allocates and
    writes it, and keeps it.  :func:`estimate_psd` and :func:`measure_gain`
    replay an unread run chunk by chunk instead and allocate no series.
    """

    def __init__(self, d_s: np.ndarray, params: SensorParams, config: SimulationConfig,
                 backend: str):
        d_s = np.asarray(d_s, dtype=np.float64)
        if d_s.ndim != 1:
            raise ConfigError(f"d_s must be a one-dimensional series, got shape {d_s.shape}")
        self.params, self.config, self.backend = params, config, backend
        self._d_s, self.n_samples = d_s, d_s.size
        # Set by simulate while d_s is unread: stop -> the chunks of the
        # first stop samples, integrated from the seed.
        self._replay = None
        self._lock = threading.Lock()

    @property
    def d_s(self) -> np.ndarray:
        if self._replay is not None:
            with self._lock:
                if self._replay is not None:
                    d_s, i = np.empty(self.n_samples), 0
                    with closing(self._replay(self.n_samples)) as chunks:
                        for chunk in chunks:
                            d_s[i:i + chunk.size] = chunk
                            i += chunk.size
                    # The series first: a reader that sees no replay reads it.
                    self._d_s, self._replay = d_s, None
        return self._d_s

    @property
    def dt(self) -> float:
        return self.config.dt

    def _chunks(self, stop: int):
        """The first ``stop`` samples of the series in order, in chunks:
        replayed if ``d_s`` is unread, else sliced from it."""
        replay = self._replay
        if replay is None:
            yield self._d_s[:stop]
        else:
            yield from replay(stop)


def _stream(seed: int) -> np.random.Generator:
    """The run's one stream of standard normals."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([int(seed), 0])))


def spectral_comparison_config(params: SensorParams, n_segments: int, seed: int) -> SimulationConfig:
    """Simulation settings sized for a PSD comparison at ``n_segments``.

    The step resolves the largest drift eigenvalue magnitude, relaxation
    and oscillation alike, with a wide margin, and the segment length is
    long enough to resolve both the slowest rate (the narrowest spectral
    feature) and the sensing band itself, keeping windowing bias well
    below the statistical scatter.
    """
    rate_min, _ = relaxation_rates(params)
    dt = 0.04 / float(np.abs(drift_matrix(params).eigenvalues()).max())
    t_segment = max(12.0 / rate_min, 80.0 / params.kappa_prime)
    nper = 1 << max(int(math.ceil(math.log2(t_segment / dt))), 4)
    # Half a step of slack: simulate keeps int(duration / dt) samples,
    # which rounding would otherwise leave one short of the sized count.
    duration = ((n_segments + 1) * (nper // 2) + 0.5) * dt
    return SimulationConfig(dt=dt, duration=duration, seed=seed, n_segments=n_segments)


def simulate(params: SensorParams, config: SimulationConfig) -> SimulationRun:
    """Plan a run of the quadrature Langevin system, integrated when it is read.

    The default Euler-Maruyama method advances the full 2x2 system; the
    detected quadrature combines the cavity output, averaged over each
    step, with a direct term correlated with its drive.
    ``method="exact"`` instead uses the exact one-step relaxation of the
    measured quadrature, decoupled where ``params.is_spm_cancelled``
    (both methods ask it), as a discretization-bias check; elsewhere it
    raises :class:`ConfigError`.  Either is one numerator per independent
    physical input, reduced to one filter by ``_innovations``: one normal
    per step (:class:`_Plan`).  A ``dt`` too coarse raises
    :class:`ConfigError`: it must be below a tenth of the fastest
    relaxation time, and an Euler step must not grow any mode.

    Every :class:`ConfigError` is raised here, where the run is planned and
    sized, and so is the :class:`MemoryError` of a run of more than
    ``_MAX_SAMPLES`` samples, which no process could address.  The run
    holds no series: nothing is integrated, allocated or written until it
    is read (:class:`SimulationRun`).
    """
    rate_min, rate_max = relaxation_rates(params)
    if config.dt * rate_max >= _DT_MARGIN:
        raise ConfigError(
            f"dt = {config.dt} too coarse for fastest relaxation rate {rate_max} "
            f"(need dt < {_DT_MARGIN / rate_max})"
        )
    burn = config.burn_in if config.burn_in is not None else 8.0 / rate_min
    n_burn = int(math.ceil(burn / config.dt)) if burn > 0.0 else 0
    n_out = int(config.duration / config.dt)
    if n_out < 1:
        raise ConfigError("duration shorter than one step")
    plan = _PLANS[config.method](params, config)
    if n_out > _MAX_SAMPLES:
        raise MemoryError(f"cannot address {n_out} samples for the detector series")
    # The unread run, built past the constructor: it holds no series.
    run = SimulationRun.__new__(SimulationRun)
    run.params, run.config, run.backend, run._lock = params, config, BACKEND, threading.Lock()
    run._d_s, run.n_samples, run._replay = None, n_out, partial(_integrate, plan, config, n_burn)
    return run


@dataclass(frozen=True)
class _Plan:
    """One integration method as one filter of unit white noise.

    The detector is ``noise / den`` of one standard normal per step
    (innovations form: one numerator per independent physical input,
    reduced to one filter by :func:`_innovations`) plus the steady-state
    response of ``probe / den``, the measured quadrature's drive filter
    times the waveform's coupling into it, to the waveform.  Coefficients
    are in powers of ``1/z``, ``den[0] = 1``.
    """

    noise: np.ndarray
    den: np.ndarray
    probe: np.ndarray

    @cached_property
    def sections(self) -> tuple:
        """``noise / den / noise[0]`` as first-order sections ``(pole, lead,
        powers)``, applied in order.

        A section's output is ``u[n] + lead v[n-1]``, ``v[n] = u[n] + pole
        v[n-1]`` (:func:`_section`): ``lead = pole`` outputs ``v``, ``1 / (1
        - pole/z)``, and a first-order numerator ``1 + c/z`` rides on its
        section as ``lead = pole + c``, since ``(1 + c/z) / (1 - pole/z) =
        1 + (pole + c)/z / (1 - pole/z)``.  A second-order numerator is
        applied before the sections (:func:`_filter`).  ``powers[r]`` is
        ``pole ** (_ROW r)`` for ``r = 0 .. _BLOCK // _ROW``.

        Real poles ``p, q`` of a second-order ``den`` are ``1 / (1 - p/z)``
        then ``1 / (1 - q/z)``.  A complex pair ``l, conj(l)`` is ``1 / (1
        - l/z)``, whose real part then passes ``1 / (1 - Re(l)/z)``: for
        real input ``u``, ``Re(u / (1 - l/z)) = u (1 - Re(l)/z) / |1 -
        l/z|^2``.  Each section carries one output, whose scan is as well
        conditioned as its pole.  A pair ``(y[n-1], y[n-2])`` is not: near
        ``z = 1`` its scan multiplies large terms that cancel.  Computed
        poles realize ``den`` to rounding even near a double pole, where
        they are themselves ill conditioned.
        """
        if self.den.size == 2:
            pole = -float(self.den[1])
            ratio = float(self.noise[1] / self.noise[0]) if self.noise[0] else 0.0
            leads = [(pole, pole + ratio)]
        else:
            d1, d2 = float(self.den[1]), float(self.den[2])
            disc = d1 * d1 - 4.0 * d2
            if disc >= 0.0:
                p = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
                poles = [p, d2 / p if p else 0.0]
            else:
                pair = complex(-0.5 * d1, 0.5 * math.sqrt(-disc))
                poles = [pair, pair.real]
            leads = [(pole, pole) for pole in poles]
        sections = []
        for pole, lead in leads:
            row = pole ** 0
            for _ in range(_ROW):
                row *= pole
            powers = [row ** 0]
            for _ in range(_BLOCK // _ROW):
                powers.append(powers[-1] * row)
            sections.append((pole, lead, np.array(powers)))
        return tuple(sections)


def _innovations(numerators: list) -> np.ndarray:
    """Minimum-phase ``C`` with ``|C|^2 = sum_j |N_j|^2`` on the unit circle.

    One numerator ``N_j`` (2 or 3 coefficients) per independent physical
    input, reduced to one filter.  ``C[0] >= 0`` and every zero of ``C``
    is in the closed unit disk.  ``C`` is formed at a power-of-two scale,
    so it neither underflows nor breaks an exact power-of-two scaling.
    """
    n = np.array(numerators)
    peak = float(np.max(np.abs(n)))
    if peak == 0.0:
        return np.zeros(n.shape[1])
    exponent = math.frexp(peak)[1]
    n = np.ldexp(n, -exponent)
    # Moments sum_k k^p N_j[k], exact sums of exact products.
    k = np.arange(n.shape[1])
    m0, m1, m2 = (np.array([math.fsum(row * k ** p) for row in n]) for p in range(3))
    if n.shape[1] == 2:
        # |C(1)| and |C(-1)| fix a first-order factor.
        at_one, at_minus_one = math.hypot(*m0), math.hypot(*(n[:, 0] - n[:, 1]))
        return np.ldexp(0.5 * np.array([at_one + at_minus_one, at_one - at_minus_one]), exponent)
    # With v = z + 1/z - 2 (0 at z = 1, in [-4, 0] on the unit circle) the
    # summed spectrum is alpha v^2 + beta v + gamma.  The moments give its
    # Taylor coefficients at z = 1, where small steps put zeros near the
    # poles, to full precision.
    alpha = float(np.sum(n[:, 0] * n[:, 2]))
    beta = float(np.dot(m2, m0) - np.dot(m1, m1))
    gamma = float(np.dot(m0, m0))
    disc = beta * beta - 4.0 * alpha * gamma
    root = math.copysign(math.sqrt(disc), beta) if disc >= 0.0 else cmath.sqrt(disc)
    q = -0.5 * (beta + root)
    # q = 0 leaves beta = 0 = alpha gamma: a double root at v = 0, or none.
    roots = (q / alpha if alpha else math.inf, gamma / q if q else (0.0 if alpha else math.inf))
    rho = [_inside_root(v) for v in roots]
    if rho[0].imag:  # a conjugate pair, or a double pair on the unit circle
        rho[1] = rho[0].conjugate()
    monic = np.array([1.0, -(rho[0] + rho[1]).real, (rho[0] * rho[1]).real])
    c0 = math.sqrt(float(np.sum(n * n)) / float(np.dot(monic, monic)))
    return np.ldexp(c0 * monic, exponent)


def _inside_root(v: complex) -> complex:
    """The zero ``rho`` with ``rho + 1/rho = v + 2`` and ``|rho| <= 1``."""
    if cmath.isinf(v):
        return 0j
    w, s = v + 2.0, cmath.sqrt(v * (v + 4.0))
    return 2.0 / (w + s if abs(w + s) >= abs(w - s) else w - s)


def _couplings(params: SensorParams) -> tuple[float, float, float, float, float]:
    """Input couplings ``c_a``, ``c_v`` of the coupling and loss channels,
    and the detector's output coefficients ``p_bs`` (intracavity state),
    ``q_as`` (input, direct) and ``q_us`` (detection vacuum)."""
    sqrt_eta = math.sqrt(params.eta)
    c_a = math.sqrt(2.0 * params.kappa_prime)
    c_v = math.sqrt(2.0 * params.kappa_double_prime)
    return c_a, c_v, sqrt_eta * c_a, -sqrt_eta, math.sqrt(1.0 - params.eta)


def _euler_plan(params: SensorParams, config: SimulationConfig) -> _Plan:
    # The Euler-Maruyama step x[n+1] = A x[n] + dt f[n], A = I - dt M, is
    # a two-state linear recursion, so the detected series is a sum of
    # second-order IIR filters (common denominator det(I - A/z)) of the
    # drives f_c = c_a a_c + c_v v_c and f_s = c_a a_s + c_v v_s.  The
    # detected sample combines the bin average of the intracavity state,
    # taken as the midpoint 0.5 (b_s[n] + b_s[n+1]) of the step, with the
    # direct term q_as a_s + q_us u_s of the same a_s sample that drives
    # the cavity over the bin; an endpoint state would bias the
    # interference term at first order in dt.  Each noise sample is a bin
    # average of variance PSD/dt.
    dt = config.dt
    drift = drift_matrix(params)
    eigs = drift.eigenvalues()
    growth = float(np.abs(1.0 - dt * eigs).max())
    if growth >= 1.0:
        raise ConfigError(
            f"dt = {dt!r} lets an Euler step grow a mode of the drift eigenvalues {eigs}: "
            f"|1 - dt lambda| = {growth!r} must be < 1"
        )
    a = np.eye(2) - dt * drift.matrix
    a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    sig = {name: math.sqrt(psd / dt) for name, psd in input_noise_psds(params).items()}
    c_a, c_v, p_bs, q_as, q_us = _couplings(params)
    h = 0.5 * dt * p_bs
    if params.is_spm_cancelled:
        # a10 is 0: a_c and v_c never reach the detector, and the f_s
        # numerator h (1 + 1/z) (1 - a00/z) cancels den's a00 pole.
        den, drive, cosine_rows = np.array([1.0, -a11]), h * np.array([1.0, 1.0]), []
    else:
        den = np.array([1.0, -(a00 + a11), a00 * a11 - a01 * a10])
        drive = h * np.array([1.0, 1.0 - a00, -a00])
        cosine = h * np.array([0.0, a10, a10])
        cosine_rows = [c_a * sig["a_c"] * cosine, c_v * sig["v_c"] * cosine]
    # One numerator per independent physical input, reduced to one filter
    # by _innovations; a_s feeds the drive and the direct term.
    rows = [sig["a_s"] * (c_a * drive + q_as * den), c_v * sig["v_s"] * drive,
            q_us * sig["u_s"] * den, *cosine_rows]
    return _Plan(noise=_innovations(rows), den=den, probe=drift.signal_coupling * drive)


def _exact_plan(params: SensorParams, config: SimulationConfig) -> _Plan:
    # Exact one-step relaxation b_s[n+1] = decay b_s[n] + w[n] of the
    # decoupled measured quadrature, run as a first-order IIR filter; the
    # detector uses the same midpoint state average as the Euler path.
    # The drive w = c_a I_a + c_v I_v holds the exponentially filtered
    # integrals of a_s and v_s over the step.  I_a is correlated with the
    # bin average of a_s in the direct term: it is its regression on that
    # average plus an independent residual (Gillespie 1996, exact OU
    # update), whose variance subtracts the slope times the O(1) covariance
    # slope/dt, so nothing rate-scaled is squared.  One numerator per
    # independent physical input, reduced to one filter by _innovations.
    if not params.is_spm_cancelled:
        raise ConfigError(
            "exact method needs the self-phase-modulation coupling cancelled: k_s = "
            f"{params.k_s!r} is not exactly 2 * gamma_spm * n_photons (see "
            "with_spm_cancelled()); use method='euler' otherwise"
        )
    dt = config.dt
    drift = drift_matrix(params)
    lam = drift.matrix[1, 1]
    decay = math.exp(-lam * dt)
    psds = input_noise_psds(params)
    slope = (1.0 - decay) / lam
    var_i = (1.0 - decay * decay) / (2.0 * lam)
    sd_resid = math.sqrt(max(psds["a_s"] * (var_i - slope * (slope / dt)), 0.0))
    sd_iv = math.sqrt(psds["v_s"] * var_i)
    c_a, c_v, p_bs, q_as, q_us = _couplings(params)
    den, drive = np.array([1.0, -decay]), 0.5 * p_bs * np.array([1.0, 1.0])
    rows = [math.sqrt(psds["a_s"] / dt) * (c_a * slope * drive + q_as * den),
            c_a * sd_resid * drive, c_v * sd_iv * drive, q_us * math.sqrt(psds["u_s"] / dt) * den]
    return _Plan(noise=_innovations(rows), den=den, probe=drift.signal_coupling * slope * drive)


_PLANS = {METHOD_EULER: _euler_plan, METHOD_EXACT: _exact_plan}


def _integrate(plan: _Plan, config: SimulationConfig, n_burn: int, n_out: int):
    """Run ``plan`` for ``n_burn + n_out`` steps; yield the detector after burn-in.

    The one chunk loop, run each time a run from :func:`simulate` is
    read: once into its series when ``d_s`` is first read, and once for
    each estimate or demodulation made before that.  One normal per
    step, innovations form: the run's one stream through one
    :func:`_filter` call per chunk, which carries the filter state on.
    Each chunk's normals are drawn on a one-worker pool (numpy releases
    the GIL while it draws) while the one before is filtered, so the
    stream yields a serial draw's sequence and nothing past the last
    step.  The pool ends with the loop, so no idle worker outlives it or
    is inherited by a forked child; a consumer that stops early closes
    the generator.  The yielded chunks are the retained samples in
    order, each valid until the next is yielded (the filter reuses its
    work arrays): the filter returns whole blocks of the step grid, and
    the first retained chunk is cut at the burn-in, so a chunk need not
    be a whole ``_CHUNK``.

    A driven run adds the steady-state response ``Im(H amplitude e^{i w
    t})``, ``H = probe / den`` at ``z = e^{i w dt}``, to the retained
    steps; the clock is zero at the first of them.  With the retained
    index ``m = q * _BLOCK + k`` it is ``sin(a_q) C[k] + cos(a_q) S[k]``,
    ``a_q = w q _BLOCK dt`` and ``C[k] + i S[k] = H amplitude e^{i w k
    dt}``, so a sample's value depends on its index alone.
    """
    gen = _stream(config.seed)
    n_total = n_burn + n_out
    state = None
    omega, dt = config.signal.frequency, config.dt
    driven = config.signal.amplitude != 0.0
    if driven:
        lags = np.exp(-1j * (omega * dt) * np.arange(plan.den.size))
        response = config.signal.amplitude * (plan.probe @ lags) / (plan.den @ lags)
        phasors = response * np.exp(1j * (omega * (np.arange(_BLOCK) * dt)))
        table_cos, table_sin = phasors.real.copy(), phasors.imag.copy()
    with ThreadPoolExecutor(max_workers=1) as pool:

        def draw(i0):
            z = np.empty(min(_CHUNK, n_total - i0))
            return z, pool.submit(gen.standard_normal, out=z)

        pending = draw(0)
        i1 = 0  # the step after the last filtered
        for j0 in range(0, n_total, _CHUNK):
            z, job = pending
            job.result()
            j1 = j0 + z.size
            pending = draw(j1) if j1 < n_total else None
            y, state = _filter(plan, z, state, final=j1 == n_total)
            del z  # the next chunk's normals are being drawn
            # The filtered steps n run over [i0, i1).
            i0, i1 = i1, i1 + y.size
            if i1 <= n_burn or not y.size:
                continue
            # The retained index m = n - n_burn runs over [m0, m1).
            m0, m1 = max(i0 - n_burn, 0), i1 - n_burn
            d = y[max(n_burn - i0, 0):]
            if driven:
                # Block by block of the retained index.
                for q in range(m0 // _BLOCK, (m1 - 1) // _BLOCK + 1):
                    base = q * _BLOCK
                    lo, hi = max(base, m0), min(base + _BLOCK, m1)
                    a_q = omega * (base * dt)
                    seg = d[lo - m0:hi - m0]
                    seg += math.sin(a_q) * table_cos[lo - base:hi - base]
                    seg += math.cos(a_q) * table_sin[lo - base:hi - base]
            yield d


def _filter(plan: _Plan, x: np.ndarray, state, final: bool):
    """Filter the next normals ``x`` through ``noise / den`` on the step grid.

    Returns ``(y, state)``: ``y`` the outputs of every block of the grid
    that ``x`` completes, valid until the next call, and ``state`` what
    that call continues from (``None`` is rest).  The grid is tied to
    the step index: blocks of ``_BLOCK`` steps from the first, each
    ``_BLOCK // _ROW`` rows of ``_ROW`` steps.  The normals of an
    incomplete block wait in ``state`` for the next call; with ``final``
    the last block is padded with zeros instead, and ``y`` ends at the
    last normal.  So an output depends on the normals and its step index
    alone, however they are cut into calls.

    The filter is ``noise[0]`` times ``noise / noise[0] / den``, one or
    two first-order sections (``_Plan.sections``), each a blocked prefix
    scan of its recursion (:func:`_section`).  A first-order numerator
    rides on its section; a second-order one is applied first.
    Elementwise ufuncs only, so no sum depends on a BLAS kernel or its
    thread count.  The work arrays are kept in ``state`` and reused, so
    a call of a chunk's size allocates nothing of that size.
    """
    m = plan.den.size - 1
    if state is None:
        state = (np.empty(0), np.zeros(m), tuple(0.0 * pole for pole, _, _ in plan.sections), {})
    waiting, past, outs, work = state
    data = np.concatenate((waiting, x)) if waiting.size else x
    n_valid = n = data.size - data.size % _BLOCK
    if final and n < data.size:
        n_valid, n = data.size, n + _BLOCK
        data = np.concatenate((data, np.zeros(n - data.size)))
    if n == 0:
        return data[:0], (data.copy(), past, outs, work)
    gain = float(plan.noise[0])
    u = _work(work, "y", (n,))
    source = data[:n]
    if m == 2:
        # The numerator over its first coefficient, one pass per lag, the
        # first steps reading the two normals before.  A zero numerator
        # (first coefficient 0) scales every output to 0.
        c1, c2 = plan.noise[1:] / gain if gain else np.zeros(2)
        term = _work(work, "term", (n,))
        np.multiply(source[:-1], c1, out=u[1:])
        np.multiply(past[1:], c1, out=u[:1])
        np.multiply(source[:-2], c2, out=term[2:])
        np.multiply(past, c2, out=term[:2])
        np.add(u, term, out=u)
        source = np.add(u, source, out=u)
    # The grid: a row's steps in bit-reversed order (_section), each one
    # contiguous line across the rows; written block by block as the
    # reversal of all axes of the block's (rows, 2, .. 2) steps.
    rows, per_block = n // _ROW, _BLOCK // _ROW
    bits = (2,) * (_ROW.bit_length() - 1)
    grid = _work(work, "grid", (_ROW, rows))
    lines = grid.reshape(bits + (rows,))
    for r in range(0, rows, per_block):
        block = source[r * _ROW:(r + per_block) * _ROW]
        lines[..., r:r + per_block] = block.reshape((per_block,) + bits).T
    # u is free until the output is written: the sections work in it.
    outs_next = []
    for (pole, lead, powers), out in zip(plan.sections, outs):
        if isinstance(pole, complex):
            # A complex pair's first section runs on a complex grid, and
            # its real part is the second's input.
            pair = _work(work, "pair", (2, _ROW, rows), np.complex128)
            np.copyto(pair[0], grid)
            outs_next.append(_section(pair[0], pole, lead, powers, out, pair[1]))
            np.copyto(grid, pair[0].real)
        else:
            outs_next.append(_section(grid, pole, lead, powers, out, u.reshape(_ROW, rows)))
    steps = u.reshape((rows,) + bits)
    for r in range(0, rows, per_block):
        np.multiply(lines[..., r:r + per_block], gain, out=steps[r:r + per_block].T)
    return u[:n_valid], (data[n:].copy(), data[n - m:n].copy(), tuple(outs_next), work)


def _work(work: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The work array ``name``: the last call's if it has this shape, else new."""
    array = work.get(name)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = work[name] = np.empty(shape, dtype)
    return array


def _section(grid: np.ndarray, pole, lead, powers: np.ndarray, out, spare: np.ndarray):
    """``u[n] + lead v[n-1]``, ``v[n] = u[n] + pole v[n-1]``, in place on
    ``grid``, laid out as in :func:`_filter`.

    ``grid[j, r]`` holds ``u`` at step ``k`` of row ``r``, ``j`` being
    ``k`` with its bits reversed, and is overwritten with the output
    there.  ``out`` is ``v`` before the first step; ``spare``, of the
    grid's shape, is overwritten.  Returns ``v`` at the last step, as
    the scan gives it.  ``powers[r]`` is ``pole ** (_ROW r)``, ``r = 0
    .. _BLOCK // _ROW``.  A blocked prefix scan of the recursion
    (Blelloch 1990), each stage of one shape whatever the call and run
    across all rows at once:

    - up the tree of each row's segments of 2, 4, .. _ROW steps, each
      segment's ``v`` at its end from rest at its start;
    - within each block, a doubling scan over its rows (Hillis & Steele
      1986) gives each row's start from the block's;
    - block starts are carried in order from ``out``;
    - down the tree, a segment's first half starts where the segment
      does and its second half where the first ends, down to each
      step's ``v[n-1]``.

    In bit-reversed order the even and the odd segments of every level
    are the two contiguous halves of its lines, so each stage is a few
    calls on contiguous lines.
    """
    half = _ROW // 2
    tree, scratch = spare[:half], spare[half:]
    # Up: segment ends from rest, pairs into the tree, and each later
    # level into the second half of the one before.
    np.multiply(grid[:half], pole, tree)
    np.add(tree, grid[half:], tree)
    levels, scale, lo = [], pole, 0
    while lo < half - 1:
        scale, size = scale * scale, (half - lo) // 2
        levels.append((lo, size, scale))
        evens, odds = tree[lo:lo + size], tree[lo + size:half]
        np.multiply(evens, scale, scratch[:size])
        np.add(odds, scratch[:size], odds)
        lo += size
    # tree[-1] holds each row's end from rest at its start; within a
    # block, doubling turns those into each row's end from rest at the
    # block's start, laid out (row, block).
    ends = tree[-1].reshape(-1, _BLOCK // _ROW).T.copy()
    span = 1
    while span < len(ends):
        ends[span:] += powers[span] * ends[:-span]
        span *= 2
    starts, carry = [], powers[-1].item()
    for end in ends[-1].tolist():
        starts.append(out)
        out = end + carry * out
    firsts = np.empty_like(ends)
    firsts[0] = 0.0
    firsts[1:] = ends[:-1]
    firsts += powers[:-1, None] * np.array(starts)
    # Down: tree[-1] becomes each row's start, and every level the
    # starts of its segments.
    tree[-1] = firsts.T.reshape(-1)
    for lo, size, scale in reversed(levels):
        evens, odds = tree[lo:lo + size], tree[lo + size:lo + 2 * size]
        np.multiply(odds, scale, scratch[:size])
        np.add(scratch[:size], evens, scratch[:size])
        np.copyto(evens, odds)
        np.copyto(odds, scratch[:size])
    # The steps: v[n-1] of each even one is its pair's start, and of
    # each odd one the even one's v.
    evens, odds = grid[:half], grid[half:]
    np.multiply(tree, pole, scratch)
    np.add(evens, scratch, scratch)
    np.multiply(tree, lead, tree)
    np.add(evens, tree, evens)
    np.multiply(scratch, lead, scratch)
    np.add(odds, scratch, odds)
    return out


def estimate_psd(run: SimulationRun, omega_grid, xi_referred: bool = False) -> SpectrumCurve:
    """Segment-averaged periodogram of the detected quadrature.

    Hann window, 50% overlap, double-sided density convention (a vacuum
    input estimates to 1/2).  With ``xi_referred=True`` the estimate is
    divided by the squared model gain, expressing it in units of the
    sensed frequency perturbation.  ``omega_grid`` must pass
    :func:`~sqz_sensor.core.frequency_grid`, start at or above 0 and end
    at or below the Nyquist frequency.

    The estimate accumulates the series chunk by chunk
    (:func:`_welch_power`): a run whose ``d_s`` has not been read is
    replayed from its seed and never written, so the estimate holds no
    series; a stored series is read as it is.  Both give the same bits.
    """
    grid = frequency_grid(omega_grid)
    if grid[0] < 0.0:
        raise GridError("omega_grid must be non-negative")
    dt = run.dt
    nyquist = math.pi / dt
    if grid[-1] > nyquist * (1.0 + 1e-12):
        raise GridError(f"omega_grid exceeds the Nyquist frequency {nyquist}")

    n = run.n_samples
    n_seg = run.config.n_segments
    nperseg = int(2 * n // (n_seg + 1))
    nperseg -= nperseg % 2
    if nperseg < 16:
        raise GridError(
            f"run of {n} samples cannot support {n_seg} half-overlapping segments"
        )

    # The half-overlapping segments that fit; a tail shorter than a hop
    # is left out, and not integrated.  For real data |X_k|^2 is the
    # double-sided density at +k and -k alike, so the rfft bins
    # 0 .. nperseg/2 (DC and Nyquist included) need no folding.
    half = nperseg // 2
    count = (n - nperseg) // half + 1
    # The periodic Hann window, built as scipy.signal.get_window builds it.
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    with closing(run._chunks((count + 1) * half)) as chunks:
        power = _welch_power(chunks, window, count)
    scale = dt / (count * float(np.sum(window * window)))
    psd_native = scale * (power[0::2] + power[1::2])
    omega_native = (2.0 * math.pi / (nperseg * dt)) * np.arange(half + 1)

    values = np.interp(grid, omega_native, psd_native)
    if xi_referred:
        gain = frequency_response(run.params, grid).gain
        values = values / np.abs(gain) ** 2
    return SpectrumCurve(
        omegas=grid,
        values=values,
        scenario="simulated",
        params=params_to_dict(run.params),
    )


def _blocks(chunks, size: int, keep: int):
    """Recut a series, fed in ``chunks`` of any size, into blocks of ``size``.

    Each block after the first starts with the last ``keep`` samples of
    the one before.  The last block holds what is left after the last
    full one, ``keep`` samples or more, so a full block is never the
    last.  Each block is a view of one buffer, valid until the next.
    """
    buf = np.empty(size)
    fill = 0
    for chunk in chunks:
        pos = 0
        while pos < chunk.size:
            take = min(chunk.size - pos, size - fill)
            buf[fill:fill + take] = chunk[pos:pos + take]
            fill, pos = fill + take, pos + take
            if fill == size:
                yield buf
                buf[:keep] = buf[size - keep:]
                fill = keep
    yield buf[:fill]


def _welch_power(chunks, window: np.ndarray, n_seg: int) -> np.ndarray:
    """Welch's sum of ``|rfft(window * segment)|^2`` over ``n_seg`` segments.

    The segments overlap by half and tile the series that ``chunks``
    yields in pieces of any size.  Whatever the pieces, they are
    transformed ``_SEGMENT_BATCH`` at a time in series order: a batch of
    ``k`` segments is a block of ``k + 1`` half-segments, which shares
    its last half with the next.  Returns the sum as interleaved real and
    imaginary parts.
    """
    nperseg = window.size
    half = nperseg // 2
    power = np.zeros(nperseg + 2)
    for block in _blocks(chunks, (min(_SEGMENT_BATCH, n_seg) + 1) * half, half):
        if block.size >= nperseg:
            fx = np.fft.rfft(sliding_window_view(block, nperseg)[::half] * window)
            flat = fx.view(np.float64)
            power += np.einsum("ij,ij->j", flat, flat)
    return power


def measure_gain(
    params: SensorParams,
    probe_omega: float,
    probe_amplitude: float,
    config: SimulationConfig,
) -> float:
    """Estimate the signal-gain magnitude by coherent demodulation.

    Injects a sinusoidal frequency perturbation, demodulates the
    detected quadrature at the probe frequency over an integer number of
    periods, and returns the amplitude ratio.  The noise floor is read
    from nearby orthogonal demodulation bins; an amplitude-SNR below 10
    raises :class:`SnrError`.  The probe must lie below the Nyquist
    frequency ``pi / dt``, where it would otherwise alias.  The run is
    demodulated chunk by chunk as it is integrated, on the probe's own
    grid (:func:`_demodulate`), up to the last whole period, and its
    series is never written.
    """
    # The chained comparisons also reject NaN and infinities.
    nyquist = math.pi / config.dt
    if not 0.0 < probe_omega < nyquist:
        raise RangeError(f"probe_omega must be in (0, pi/dt = {nyquist}), got {probe_omega}")
    if not 0.0 < probe_amplitude < math.inf:
        raise RangeError(f"probe_amplitude must be a positive finite number, got {probe_amplitude}")
    cfg = replace(config, signal=SignalWaveform(probe_amplitude, probe_omega))
    run = simulate(params, cfg)

    n = run.n_samples
    dt = run.dt
    period = 2.0 * math.pi / probe_omega
    n_periods = int(n * dt / period)
    if n_periods < 4:
        raise ConfigError(
            f"run covers only {n_periods} probe periods; need at least 4"
        )
    n_demod = min(int(round(n_periods * period / dt)), n)

    # The probe bin, then the noise floor from bin-spaced offsets
    # (orthogonal over the window), skipping the two bins adjacent to the
    # probe to avoid its leakage.
    d_omega = 2.0 * math.pi / (n_demod * dt)
    with closing(run._chunks(n_demod)) as chunks:
        bins = _demodulate(chunks, n_demod, dt, probe_omega + d_omega * np.r_[0, 3:11, -10:-2])
    z_probe = bins[0]
    noise_floor = math.sqrt(float(np.mean(np.abs(bins[1:]) ** 2)))
    snr = abs(z_probe) / noise_floor if noise_floor > 0.0 else math.inf
    if snr < 10.0:
        raise SnrError(
            f"probe-bin amplitude SNR {snr:.2f} < 10; raise the probe amplitude "
            "or the run duration"
        )
    return float(abs(z_probe) / probe_amplitude)


def _demodulate(chunks, n: int, dt: float, omegas: np.ndarray) -> np.ndarray:
    """``2 mean(d[m] exp(-i w m dt))`` over ``n`` samples, at each ``w`` in ``omegas``.

    ``chunks`` is the series ``d`` in order, in pieces of any size.  On
    the probe grid ``m = q _BLOCK + k``, each bin sums the row phases
    ``exp(-i w q _BLOCK dt)`` times the product ``(rows, _BLOCK) @
    (_BLOCK, bins)`` of the series' rows and the column phases ``exp(-i
    w k dt)``, the last row padded with zeros.  Whatever the pieces, the
    rows are multiplied ``_DEMOD_ROWS`` at a time, the last product
    taking what is left, so every product has the same columns and no
    sum depends on how many threads BLAS runs.  The column phases enter
    as interleaved real pairs, so the series stays real.
    """
    wdt = dt * np.asarray(omegas)
    pairs = np.exp(-1j * np.outer(np.arange(_BLOCK), wdt)).view(np.float64)
    products = []
    for buf in _blocks(chunks, _DEMOD_ROWS * _BLOCK, 0):
        if buf.size % _BLOCK:  # the last block: pad its last row with zeros
            buf = np.pad(buf, (0, _BLOCK - buf.size % _BLOCK))
        products.append(buf.reshape(-1, _BLOCK) @ pairs)
    inner = np.concatenate(products).view(np.complex128)
    row_phases = np.exp(-1j * np.outer(_BLOCK * np.arange(len(inner)), wdt))
    return (2.0 / n) * np.sum(inner * row_phases, axis=0)
