"""Spans around calls into the package, recorded from outside it.

The tracer replaces public functions at the module attribute their
caller resolves at call time (``cli`` calls ``stochastic.simulate``,
``measure_gain`` calls the same attribute, the optimizers call
``spectra.measurement_psd_raw``, and so on).  Each call becomes a span:
name, start, end, parent span and operation id.  Spans are kept in
compact arrays in memory and written out when the run ends; self times
and per-layer metrics are derived from them afterwards.

A wrap point that no longer exists is recorded as missing and its span
count reads zero, so a removed layer shows as a zero, not as a gap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

#: Module groups that own the self time of a span, by span-name prefix.
LAYERS = ("cli", "optimize", "spectra", "dynamics", "stochastic")


def simulate_steps(params, config) -> int:
    """Steps ``simulate`` integrates for ``config``: burn-in plus retained.

    Mirrors the sizing rule documented on ``SimulationConfig``: the
    burn-in defaults to eight slowest relaxation times.
    """
    from sqz_sensor.dynamics import relaxation_rates

    rate_min, _ = relaxation_rates(params)
    burn = config.burn_in if config.burn_in is not None else 8.0 / rate_min
    n_burn = int(math.ceil(burn / config.dt)) if burn > 0.0 else 0
    return n_burn + int(config.duration / config.dt)


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.missing: list[str] = []
        self.active = False
        self.op_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``describe(args, kwargs, result)`` returns a dict of attributes
        stored with the span; it runs after the span has closed.
        """
        nid = self.name_id(name)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{name} ({attr})")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            sid = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if describe is not None:
                tracer.attrs[sid] = describe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _simulate_attrs(args, kwargs, run):
    params, config = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "config")
    return {"method": config.method, "samples": run.n_samples, "backend": run.backend,
            "steps": simulate_steps(params, config), "call": (params, config), "run": id(run)}


def _estimate_attrs(args, kwargs, curve):
    run = _arg(args, kwargs, 0, "run")
    xi = args[2] if len(args) > 2 else kwargs.get("xi_referred", False)
    return {"samples": run.n_samples, "run": id(run), "grid": np.array(curve.omegas), "xi": xi}


def _welch_attrs(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    nperseg = int(kwargs["nperseg"])
    noverlap = int(kwargs.get("noverlap", nperseg // 2))
    freqs = result[0]
    return {"fft_len": nperseg, "segments": 1 + (len(x) - nperseg) // (nperseg - noverlap),
            "computed_bins": int(freqs.size), "kept_bins": int(np.count_nonzero(freqs >= 0.0))}


def _points_attrs(args, kwargs, curve):
    return {"points": len(curve.omegas)}


def _response_attrs(args, kwargs, resp):
    return {"points": int(np.size(resp.omega))}


#: Every wrap point: the owner as a path below ``sqz_sensor``, the
#: attribute the caller resolves there, the span name and the function
#: that records the span's attributes.  Two owners may feed one span name.
WRAP_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "write_curve", "cli.write_curve", None),
    ("cli", "psd_from_response", "dynamics.psd_from_response", _points_attrs),
    ("dynamics", "psd_from_response", "dynamics.psd_from_response", _points_attrs),
    ("dynamics", "frequency_response", "dynamics.frequency_response", _response_attrs),
    ("stochastic", "frequency_response", "dynamics.frequency_response", _response_attrs),
    ("stochastic", "simulate", "stochastic.simulate", _simulate_attrs),
    ("stochastic", "estimate_psd", "stochastic.estimate_psd", _estimate_attrs),
    ("stochastic", "measure_gain", "stochastic.measure_gain", None),
    ("stochastic._scipy_signal", "welch", "stochastic.welch", _welch_attrs),
    *(("optimize", fn, f"optimize.{fn}", None)
      for fn in ("optimal_kc", "numeric_min_kc", "snl_optimal_kappa", "numeric_min_kappa",
                 "snl_crossings", "golden_section")),
    ("spectra", "scenario_curve", "spectra.scenario_curve", _points_attrs),
    ("spectra", "snl_curve", "spectra.snl_curve", _points_attrs),
    *(("spectra", fn, f"spectra.{fn}", None)
      for fn in ("measurement_psd_raw", "closed_form_psd", "snl")),
)

#: Span names in report order, each once.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAP_POINTS))


def _resolve(path: str):
    """``sqz_sensor.<module>`` followed by attributes, or None if any is gone."""
    module, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"sqz_sensor.{module}")
    except ImportError:
        return None
    for attr in attrs:
        owner = getattr(owner, attr, None)
    return owner


def install(tracer: Tracer) -> None:
    """Wrap every wrap point the benchmark reports on."""
    for owner, attr, name, describe in WRAP_POINTS:
        tracer.wrap(_resolve(owner), attr, name, describe)


def _fill_noise(args) -> None:
    rng = np.random.default_rng(0)
    for a in args:
        if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.size
                and a.flags.writeable and a.flags.c_contiguous):
            rng.standard_normal(out=a)


def _stub_euler(*args):
    _fill_noise(args)
    return args[0], args[1]


def _stub_exact(*args):
    _fill_noise(args)
    return args[0]


#: The seed's per-step kernels, as ``stochastic`` resolves them: name,
#: reference loop in ``_kernels``, its parameters, which of them are
#: arrays, and the stub that stands in for it during the replay.
SEED_KERNELS = (
    ("euler_maruyama_loop", "_euler_maruyama_loop",
     ("bc", "bs", "mcc", "mcs", "msc", "mss", "dt", "a_c", "a_s", "v_c", "v_s", "u_s",
      "xi_drive", "p_bs", "q_as", "q_us", "c_a", "c_v", "out_d", "out_bc", "out_bs", "store"),
     {"a_c", "a_s", "v_c", "v_s", "u_s", "xi_drive", "out_d", "out_bc", "out_bs"},
     _stub_euler),
    ("exact_relax_loop", "_exact_relax_loop",
     ("bs", "decay", "a_bar", "w_drive", "u_s", "p_bs", "q_as", "q_us", "out_d", "out_bs",
      "store"),
     {"a_bar", "w_drive", "u_s", "out_d", "out_bs"},
     _stub_exact),
)


def _arity(result) -> int:
    return len(result) if isinstance(result, tuple) else 1


def stubbable_kernels() -> list[tuple[str, object]]:
    """The seed kernels that keep the seed's layout, with their stubs.

    A kernel qualifies when its reference loop still takes the seed's
    parameters and a two-step call returns as many values as the stub.
    Any other kernel is replayed for real.
    """
    stochastic, kernels = _resolve("stochastic"), _resolve("_kernels")
    found = []
    for name, reference, params, arrays, stub in SEED_KERNELS:
        kernel, loop = getattr(stochastic, name, None), getattr(kernels, reference, None)
        if kernel is None or loop is None:
            continue
        try:
            if tuple(inspect.signature(loop).parameters) != params:
                continue
            args = [False if p == "store" else np.zeros(2) if p in arrays else 0.0
                    for p in params]
            if _arity(kernel(*args)) != _arity(stub(*args)):
                continue
        except (TypeError, ValueError):
            continue
        found.append((name, stub))
    return found


def peak_allocations(tracer: Tracer) -> tuple[float, float, list[str]]:
    """Peak ``tracemalloc`` MB of one ``simulate`` and one ``estimate_psd`` call.

    Replays the first traced operation's calls with tracemalloc on.
    tracemalloc makes the seed's per-step Python kernel loop about
    fourteen times slower while that loop allocates no arrays, so during
    the replay each kernel that keeps the seed's layout is swapped for a
    stub that only fills its arrays; the figure leaves out whatever such
    a kernel allocates itself.  Returns the two peaks and the names of
    the stubbed kernels.  The replay's spans are not recorded.
    """
    stochastic = _resolve("stochastic")
    first = [sid for sid in sorted(tracer.attrs) if tracer.op[sid] == 0]
    stubs = stubbable_kernels()
    saved = [(name, getattr(stochastic, name)) for name, _ in stubs]
    peak_sim = peak_est = 0
    runs = {}  # id of the traced run -> its replay, in call order
    try:
        for name, stub in stubs:
            setattr(stochastic, name, stub)
        for sid in first:
            a = tracer.attrs[sid]
            if "call" in a:
                tracemalloc.start()
                runs[a["run"]] = stochastic.simulate(*a["call"])
                peak_sim = max(peak_sim, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            elif "grid" in a and a["run"] in runs:
                tracemalloc.start()
                stochastic.estimate_psd(runs[a["run"]], a["grid"], xi_referred=a["xi"])
                peak_est = max(peak_est, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        for name, original in saved:
            setattr(stochastic, name, original)
    return peak_sim / 1e6, peak_est / 1e6, [name for name, _ in stubs]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, op_time_s: float) -> dict[str, float]:
    """Per-layer numbers from the spans of ``n_ops`` traced operations.

    Self time is a span's duration minus the time its child spans cover.
    Rates with no spans behind them read 0, and every wrap point reports
    its span count.  Counts per operation are medians over operations
    and repeat exactly for a given seed.
    """
    sp = tracer.arrays()
    name, parent, op = sp["name"], sp["parent"], sp["op"]
    dur = sp["end"] - sp["start"]
    nested = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    ids = {n: np.flatnonzero(name == i) for i, n in enumerate(tracer.names)}

    def attr(spans, key, where=None):
        values = []
        for s in spans:
            a = tracer.attrs.get(int(s))
            if a is not None and (where is None or where(a)):
                values.append(a[key])
        return values

    def per_op(span_name, key):
        totals = np.zeros(n_ops)
        for s in ids[span_name]:
            totals[op[s]] += tracer.attrs.get(int(s), {}).get(key, 0)
        return _median(totals)

    def rate(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    def total(span_name, spans=None):
        return float(dur[ids[span_name] if spans is None else spans].sum())

    # Nearest optimizer ancestor of every span; parents precede children.
    owner_ids = {tracer.name_id(f"optimize.{fn}") for fn in ("numeric_min_kc", "snl_crossings")}
    owner = np.full(len(dur), -1, dtype=np.int64)
    for s in range(len(dur)):
        owner[s] = s if name[s] in owner_ids else (owner[parent[s]] if parent[s] >= 0 else -1)

    def evals_per_call(optimizer, leaf):
        calls = ids[optimizer]
        leaves = owner[(name == tracer.name_id(leaf)) & (owner >= 0)]
        owned = leaves[np.isin(leaves, calls)]
        return _median(np.bincount(np.searchsorted(calls, owned), minlength=len(calls)))

    m: dict[str, float] = {}
    sim = "stochastic.simulate"
    for method in ("euler", "exact"):
        spans = [s for s in ids[sim] if tracer.attrs.get(int(s), {}).get("method") == method]
        m[f"{sim}.{method}.ns_per_step"] = rate(total(sim, spans), sum(attr(spans, "steps")), 1e9)
    samples, steps = sum(attr(ids[sim], "samples")), sum(attr(ids[sim], "steps"))
    m[f"{sim}.samples"] = per_op(sim, "samples")
    m[f"{sim}.steps"] = per_op(sim, "steps")
    m[f"{sim}.retained_frac"] = samples / steps if steps else 0.0

    est, welch = "stochastic.estimate_psd", ids["stochastic.welch"]
    m[f"{est}.ns_per_sample"] = rate(total(est), sum(attr(ids[est], "samples")), 1e9)
    computed = sum(attr(welch, "computed_bins"))
    m[f"{est}.kept_bin_frac"] = sum(attr(welch, "kept_bins")) / computed if computed else 0.0
    m[f"{est}.segments"] = _median(attr(welch, "segments"))
    m[f"{est}.fft_len"] = _median(attr(welch, "fft_len"))

    gain = ids["stochastic.measure_gain"]
    gain_set = set(gain.tolist())
    under_gain = [s for s in ids[sim] if parent[s] in gain_set]
    m["stochastic.measure_gain.demod_ns_per_sample"] = rate(
        float(self_time[gain].sum()), sum(attr(under_gain, "samples")), 1e9)

    for fn, leaf in (("numeric_min_kc", "spectra.measurement_psd_raw"),
                     ("snl_crossings", "spectra.snl"), ("numeric_min_kappa", None)):
        key = f"optimize.{fn}"
        m[f"{key}.ms_per_call"] = rate(total(key), len(ids[key]), 1e3)
        if leaf is not None:
            m[f"{key}.objective_evals"] = evals_per_call(key, leaf)

    for key in ("spectra.scenario_curve", "dynamics.psd_from_response",
                "dynamics.frequency_response"):
        m[f"{key}.ns_per_point"] = rate(total(key), sum(attr(ids[key], "points")), 1e9)
    m["spectra.scenario_curve.points"] = per_op("spectra.scenario_curve", "points")

    main = ids["cli.main"]
    m["cli.self_ms_per_call"] = rate(float(self_time[main].sum()), len(main), 1e3)
    m["cli.write_curve.ms_per_call"] = rate(total("cli.write_curve"), len(ids["cli.write_curve"]), 1e3)

    for layer in LAYERS:
        spans = np.concatenate([idx for n, idx in ids.items() if n.split(".")[0] == layer])
        m[f"layer.{layer}.self_frac"] = float(self_time[spans].sum()) / op_time_s
    m["layer.unwrapped.self_frac"] = 1.0 - float(dur[~nested].sum()) / op_time_s

    for key, spans in ids.items():
        m[f"{key}.spans"] = float(len(spans))
    m["trace.spans"] = float(len(dur))
    return m


def op_counts(tracer: Tracer, n_ops: int) -> list[dict]:
    """Exact per-operation counts: spans per wrap point, and per-call sizes."""
    op = np.frombuffer(tracer.op, dtype=np.int32)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    rows = [dict() for _ in range(n_ops)]
    for i, span_name in enumerate(tracer.names):
        for o, count in enumerate(np.bincount(op[name == i], minlength=n_ops)):
            rows[o][f"{span_name}.spans"] = int(count)
    for sid, a in sorted(tracer.attrs.items()):
        span_name = tracer.names[tracer.name[sid]]
        for key in ("samples", "steps", "segments", "fft_len", "points"):
            if key in a:
                rows[tracer.op[sid]].setdefault(f"{span_name}.{key}", []).append(int(a[key]))
    return rows
