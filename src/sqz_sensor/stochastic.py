"""Time-domain integration of the linearized Langevin dynamics.

This is the second, fully independent verification route: the quadrature
pair is integrated against white-noise inputs, the detected quadrature is
assembled sample by sample through the output and loss relations, and its
spectrum is estimated with a segment-averaged periodogram.  Nothing here
reuses the closed-form algebra of :mod:`sqz_sensor.spectra`.

Noise generation uses one SFC64 stream per input field, seeded by
``SeedSequence([seed, stream id])``, and the integrator runs as a bank
of linear filters (:func:`scipy.signal.lfilter`), so within one tool
version a seed reproduces its realization bit for bit for pinned
numpy/scipy versions, whatever the core count.  Each integration method
(Euler-Maruyama, exact Ornstein-Uhlenbeck update) is a small plan: the
streams whose samples reach the detector, the detector's filter
coefficients and how the draws form the filter inputs.  One chunked
loop runs either plan and records the detector alone.  The streams are
drawn concurrently, one task per stream and chunk, which leaves every
sequence as a serial draw gives it.  The periodogram is Welch's estimate
as batched real FFTs; the gain is demodulated in one product.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as _scipy_signal

from .core import (
    NORMALIZATION_RAW,
    SensorParams,
    SpectrumCurve,
    frequency_grid,
    params_to_dict,
)
from .dynamics import (
    SignalWaveform,
    drift_matrix,
    frequency_response,
    input_noise_psds,
    relaxation_rates,
)
from .errors import ConfigError, GridError, RangeError, SnrError

METHOD_EULER = "euler"
METHOD_EXACT = "exact"

#: Integrator implementation recorded on every run.
BACKEND = "lfilter"

#: Stream ids of the noise inputs, one stream per input.  The exact
#: plan's residual of the filtered a_s integral has its own stream.
STREAM_A_C = 0
STREAM_A_S = 1
STREAM_V_C = 2
STREAM_V_S = 3
STREAM_U_S = 4
STREAM_A_S_RESIDUAL = 5

#: Fixed chunk length; reproducibility must not depend on memory layout.
_CHUNK = 1 << 20

#: Periodogram segments transformed per batched FFT; bounds work memory.
_SEGMENT_BATCH = 32

#: Margin against the fastest relaxation rate when validating the step.
_DT_MARGIN = 0.1


@dataclass(frozen=True)
class SimulationConfig:
    """Integration settings for one stochastic run.

    ``duration`` is the retained span; a transient of ``burn_in`` seconds
    (default: eight times the slowest relaxation time) is integrated
    first and discarded, so retained samples are effectively stationary.
    The seed fully determines the realization for pinned numpy/scipy
    versions.  Only the detected quadrature is recorded.  ``signal`` is
    the injected perturbation; the default zero amplitude is no drive.
    """

    dt: float
    duration: float
    seed: int
    n_segments: int = 200
    signal: SignalWaveform = field(default_factory=SignalWaveform.zero)
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


@dataclass(frozen=True)
class SimulationRun:
    """Detected-quadrature time series with its provenance.

    Sample ``n`` of ``d_s`` is taken at time ``n * dt``: the waveform
    clock starts at zero at the first retained sample, and the discarded
    transient has negative times.
    """

    d_s: np.ndarray
    params: SensorParams
    config: SimulationConfig
    backend: str

    @property
    def dt(self) -> float:
        return self.config.dt

    @property
    def n_samples(self) -> int:
        return int(self.d_s.size)


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    bits = np.random.SFC64(np.random.SeedSequence([int(seed), int(stream_id)]))
    return np.random.Generator(bits)


def spectral_comparison_config(params: SensorParams, n_segments: int, seed: int) -> SimulationConfig:
    """Simulation settings sized for a PSD comparison at ``n_segments``.

    The step resolves the fastest relaxation rate with a wide margin and
    the segment length is long enough to resolve both the slowest rate
    (the narrowest spectral feature) and the sensing band itself, keeping
    windowing bias well below the statistical scatter.
    """
    rate_min, rate_fast = relaxation_rates(params)
    dt = 0.04 / rate_fast
    t_segment = max(12.0 / rate_min, 80.0 / params.kappa_prime)
    nper = 1 << max(int(math.ceil(math.log2(t_segment / dt))), 4)
    # Half a step of slack: simulate keeps int(duration / dt) samples,
    # which rounding would otherwise leave one short of the sized count.
    duration = ((n_segments + 1) * (nper // 2) + 0.5) * dt
    return SimulationConfig(dt=dt, duration=duration, seed=seed, n_segments=n_segments)


def simulate(params: SensorParams, config: SimulationConfig) -> SimulationRun:
    """Integrate the quadrature Langevin system and record the detector.

    The default Euler-Maruyama method advances the full 2x2 system; each
    step draws bin-averaged samples of the white inputs that reach the
    detector, and the detected quadrature combines the cavity output with
    the very same input sample plus the detection vacuum.
    ``method="exact"`` instead uses the exact one-step relaxation of the
    decoupled measured quadrature (valid only when the self-phase-
    modulation coupling is cancelled) as a discretization-bias check.
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
    d_s = _integrate(plan, config, n_burn, n_burn + n_out)
    return SimulationRun(d_s=d_s, params=params, config=config, backend=BACKEND)


@dataclass(frozen=True)
class _Plan:
    """One integration method as a bank of IIR filters over noise draws.

    ``streams`` lists the noise streams drawn per chunk, one normal per
    step each, as ``(stream id, scale)``.  The detector is a filter with
    denominator ``den`` and one numerator per drive input in
    ``numerators``.  ``drive(draws, signal)`` turns the chunk's scaled
    draws and waveform samples (``None`` without a signal) into the drive
    inputs and the detector's direct term.
    """

    streams: tuple
    den: np.ndarray
    numerators: tuple
    drive: Callable


def _output_coefficients(params: SensorParams) -> tuple[float, float, float]:
    sqrt_eta = math.sqrt(params.eta)
    p_bs = sqrt_eta * math.sqrt(2.0 * params.kappa_prime)
    q_as = -sqrt_eta
    q_us = math.sqrt(1.0 - params.eta)
    return p_bs, q_as, q_us


def _euler_plan(params: SensorParams, config: SimulationConfig) -> _Plan:
    # The Euler-Maruyama step x[n+1] = A x[n] + dt f[n], A = I - dt M, is
    # a two-state linear recursion, so the detected series is a sum of
    # second-order IIR filters (common denominator det(I - A/z)) of the
    # drives f_c and f_s.  The detected sample combines the bin average
    # of the intracavity state, taken as the midpoint 0.5 (b_s[n] +
    # b_s[n+1]) of the step, with the same a_s sample that drives the
    # cavity over the bin; an endpoint state would bias the interference
    # term at first order in dt.  Each noise sample is a bin average of
    # variance PSD/dt.
    dt = config.dt
    drift = drift_matrix(params)
    a = np.eye(2) - dt * drift.matrix
    a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    sig = {name: math.sqrt(psd / dt) for name, psd in input_noise_psds(params).items()}
    c_a = math.sqrt(2.0 * params.kappa_prime)
    c_v = math.sqrt(2.0 * params.kappa_double_prime)
    p_bs, q_as, q_us = _output_coefficients(params)
    h = 0.5 * dt * p_bs
    coupling = drift.signal_coupling

    streams = ((STREAM_A_S, sig["a_s"]), (STREAM_V_S, sig["v_s"]), (STREAM_U_S, sig["u_s"]),
               (STREAM_A_C, sig["a_c"]), (STREAM_V_C, sig["v_c"]))
    # The detector's numerators on f_s and on f_c.
    numerators = (h * np.array([1.0, 1.0 - a00, -a00]), h * np.array([0.0, a10, a10]))

    def drive(draws, signal):
        a_s, v_s, u_s, *cosine = draws
        f_s = c_a * a_s + c_v * v_s
        if signal is not None:
            f_s += coupling * signal
        f_c = (c_a * cosine[0] + c_v * cosine[1],) if cosine else ()
        return (f_s, *f_c), q_as * a_s + q_us * u_s

    if a10 == 0.0:
        # The cosine quadrature never reaches the detector (cancelled self-
        # phase modulation), so a_c, v_c and the f_c filter are left out.
        streams, numerators = streams[:3], numerators[:1]
    return _Plan(
        streams=streams,
        den=np.array([1.0, -(a00 + a11), a00 * a11 - a01 * a10]),
        numerators=numerators,
        drive=drive,
    )


def _exact_plan(params: SensorParams, config: SimulationConfig) -> _Plan:
    # Exact one-step relaxation b_s[n+1] = decay b_s[n] + w[n] of the
    # decoupled measured quadrature, run as a first-order IIR filter; the
    # detector uses the same midpoint state average as the Euler path.
    # The bin average of a_s is correlated with its exponentially
    # filtered integral, so the pair is sampled jointly (Gillespie 1996,
    # exact OU update).
    if not params.is_spm_cancelled:
        raise ConfigError(
            "exact method needs the self-phase-modulation coupling cancelled "
            "(k_s = 2 * gamma_spm * n_photons); use method='euler' otherwise"
        )
    dt = config.dt
    drift = drift_matrix(params)
    lam = drift.matrix[1, 1]
    decay = math.exp(-lam * dt)
    psds = input_noise_psds(params)
    s_as = psds["a_s"]
    var0 = s_as * dt
    var1 = s_as * (1.0 - decay * decay) / (2.0 * lam)
    cov01 = s_as * (1.0 - decay) / lam
    gain01 = cov01 / var0
    resid = math.sqrt(max(var1 - cov01 * cov01 / var0, 0.0))
    sig_i1v = math.sqrt(psds["v_s"] * (1.0 - decay * decay) / (2.0 * lam))
    c_a = math.sqrt(2.0 * params.kappa_prime)
    c_v = math.sqrt(2.0 * params.kappa_double_prime)
    p_bs, q_as, q_us = _output_coefficients(params)
    sig_scale = drift.signal_coupling * ((1.0 - decay) / lam)

    def drive(draws, signal):
        a_bar, a_resid, v_s, u_s = draws
        w = c_a * (gain01 * (a_bar * dt) + a_resid) + c_v * v_s
        if signal is not None:
            w += sig_scale * signal
        return (w,), q_as * a_bar + q_us * u_s

    return _Plan(
        streams=((STREAM_A_S, math.sqrt(s_as / dt)), (STREAM_A_S_RESIDUAL, resid),
                 (STREAM_V_S, sig_i1v), (STREAM_U_S, math.sqrt(psds["u_s"] / dt))),
        den=np.array([1.0, -decay]),
        numerators=(0.5 * p_bs * np.array([1.0, 1.0]),),
        drive=drive,
    )


_PLANS = {METHOD_EULER: _euler_plan, METHOD_EXACT: _exact_plan}


def _fill(gen: np.random.Generator, out: np.ndarray, scale: float) -> None:
    """Draw standard normals into ``out`` and scale them in place."""
    gen.standard_normal(out=out)
    out *= scale


def _integrate(plan: _Plan, config: SimulationConfig, n_burn: int, n_total: int) -> np.ndarray:
    """Run ``plan`` for ``n_total`` steps; return the detector after burn-in.

    Each chunk draws its streams concurrently, one task per stream
    (numpy releases the GIL while it draws).  The chunks follow one
    another, so every stream yields the same sequence as a serial draw,
    whatever the core count.  Filter states carry across chunks.  The
    waveform clock is zero at the first retained step, so burn-in steps
    have negative times.  The result is a view of the one recorded
    series.  The pool ends with the call, so no idle workers outlive it
    or are inherited by a forked child.
    """
    gens = [_stream(config.seed, stream_id) for stream_id, _ in plan.streams]
    out = np.empty(n_total)
    zi = np.zeros((len(plan.numerators), plan.den.size - 1))
    with ThreadPoolExecutor(max_workers=min(len(plan.streams), os.cpu_count() or 1)) as pool:
        for i0 in range(0, n_total, _CHUNK):
            i1 = min(i0 + _CHUNK, n_total)
            n = i1 - i0
            draws = [np.empty(n) for _ in gens]
            jobs = [pool.submit(_fill, gen, row, scale)
                    for gen, row, (_, scale) in zip(gens, draws, plan.streams)]
            for job in jobs:
                job.result()
            signal = None
            if config.signal.amplitude != 0.0:
                signal = config.signal.evaluate((np.arange(i0, i1) - n_burn) * config.dt)
            inputs, direct = plan.drive(draws, signal)
            series = out[i0:i1]
            for j, (num, x) in enumerate(zip(plan.numerators, inputs)):
                y, zi[j] = _scipy_signal.lfilter(num, plan.den, x, zi=zi[j])
                if j:
                    series += y
                else:
                    series[:] = y
            series += direct
            # Free this chunk's arrays before the next chunk is drawn.
            del draws, signal, inputs, direct, x, y
    return out[n_burn:]


def estimate_psd(run: SimulationRun, omega_grid, xi_referred: bool = False) -> SpectrumCurve:
    """Segment-averaged periodogram of the detected quadrature.

    Hann window, 50% overlap, double-sided density convention (a vacuum
    input estimates to 1/2).  With ``xi_referred=True`` the estimate is
    divided by the squared model gain, expressing it in units of the
    sensed frequency perturbation.  ``omega_grid`` must pass
    :func:`~sqz_sensor.core.frequency_grid`, start at or above 0 and end
    at or below the Nyquist frequency.
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

    # Welch's estimate as batched real FFTs over a strided view of the
    # half-overlapping segments; a tail shorter than a hop is left out.
    # For real data |X_k|^2 is the double-sided density at +k and -k
    # alike, so the rfft bins 0 .. nperseg/2 (DC and Nyquist included)
    # need no folding.
    half = nperseg // 2
    segments = sliding_window_view(run.d_s, nperseg)[::half]
    window = _scipy_signal.get_window("hann", nperseg)
    power = np.zeros(nperseg + 2)
    for s0 in range(0, len(segments), _SEGMENT_BATCH):
        fx = scipy.fft.rfft(segments[s0:s0 + _SEGMENT_BATCH] * window)
        flat = fx.view(np.float64)
        power += np.einsum("ij,ij->j", flat, flat)
    scale = dt / (len(segments) * float(np.sum(window * window)))
    psd_native = scale * (power[0::2] + power[1::2])
    omega_native = (2.0 * math.pi / (nperseg * dt)) * np.arange(half + 1)

    values = np.interp(grid, omega_native, psd_native)
    if xi_referred:
        gain = frequency_response(run.params, grid).gain
        values = values / np.abs(gain) ** 2
    return SpectrumCurve(
        omegas=grid,
        values=values,
        normalization=NORMALIZATION_RAW,
        scenario="simulated",
        params=params_to_dict(run.params),
    )


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
    frequency ``pi / dt``, where it would otherwise alias.
    """
    # The chained comparisons also reject NaN and infinities.
    nyquist = math.pi / config.dt
    if not 0.0 < probe_omega < nyquist:
        raise RangeError(f"probe_omega must be in (0, pi/dt = {nyquist}), got {probe_omega}")
    if not 0.0 < probe_amplitude < math.inf:
        raise RangeError(f"probe_amplitude must be a positive finite number, got {probe_amplitude}")
    cfg = replace(config, signal=SignalWaveform.sinusoid(probe_amplitude, probe_omega))
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
    bins = _demodulate(run.d_s[:n_demod], dt, probe_omega + d_omega * np.r_[0, 3:11, -10:-2])
    z_probe = bins[0]
    noise_floor = math.sqrt(float(np.mean(np.abs(bins[1:]) ** 2)))
    snr = abs(z_probe) / noise_floor if noise_floor > 0.0 else math.inf
    if snr < 10.0:
        raise SnrError(
            f"probe-bin amplitude SNR {snr:.2f} < 10; raise the probe amplitude "
            "or the run duration"
        )
    return float(abs(z_probe) / probe_amplitude)


def _demodulate(d: np.ndarray, dt: float, omegas: np.ndarray) -> np.ndarray:
    """``2 mean(d[m] exp(-i w m dt))`` over the samples ``m``, at each ``w`` in ``omegas``.

    With ``m = r cols + c``, each bin sums the row phases ``exp(-i w r cols
    dt)`` times the product ``(rows, cols) @ (cols, bins)`` of the series
    and the column phases; the zero-padded tail adds nothing.  The column
    phases enter as interleaved real pairs, so the series stays real.
    """
    n = d.size
    cols = math.isqrt(n) + 1
    rows = n // cols + 1
    wdt = dt * np.asarray(omegas)
    blocks = np.pad(d, (0, rows * cols - n)).reshape(rows, cols)
    inner = (blocks @ np.exp(-1j * np.outer(np.arange(cols), wdt)).view(np.float64)).view(np.complex128)
    return (2.0 / n) * np.sum(inner * np.exp(-1j * np.outer(cols * np.arange(rows), wdt)), axis=0)
