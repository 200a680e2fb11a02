#!/usr/bin/env python3
"""Benchmark of sqz-sensor: three closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run: it runs a first batch of operations
untraced, runs the same inputs again with spans recorded around the
calls into each layer, and reports per-layer metrics and the tracing
overhead.  Every operation's output is checked against the paper's
gates.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, provenance and spans go to
``perfbench/_work/<workload>-seed<seed>-trace<trace>/``.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

import bench_env

bench_env.pin()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402

#: Fresh processes started per run to measure set-up; the median is reported.
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

#: Metrics of the final JSON line of an untraced run.  Operation latency
#: percentiles are printed too but not listed here: on a shared machine
#: whose speed alternates between phases lasting seconds, the median of
#: sub-second operations flips between the two phases' latencies, while
#: the rate below averages over them.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.scipy_signal_import_s": "s",
    "setup.warmup_s": "s",
    "stochastic.simulate.euler.ns_per_step": "ns",
    "stochastic.simulate.exact.ns_per_step": "ns",
    "stochastic.simulate.samples": "count",
    "stochastic.simulate.steps": "count",
    "stochastic.simulate.retained_frac": "frac",
    "stochastic.simulate.peak_alloc_mb": "MB",
    "stochastic.estimate_psd.ns_per_sample": "ns",
    "stochastic.estimate_psd.peak_alloc_mb": "MB",
    "stochastic.estimate_psd.kept_bin_frac": "frac",
    "stochastic.estimate_psd.segments": "count",
    "stochastic.estimate_psd.fft_len": "count",
    "stochastic.measure_gain.demod_ns_per_sample": "ns",
    "optimize.numeric_min_kc.ms_per_call": "ms",
    "optimize.numeric_min_kc.objective_evals": "count",
    "optimize.snl_crossings.ms_per_call": "ms",
    "optimize.snl_crossings.objective_evals": "count",
    "optimize.numeric_min_kappa.ms_per_call": "ms",
    "spectra.scenario_curve.ns_per_point": "ns",
    "spectra.scenario_curve.points": "count",
    "dynamics.psd_from_response.ns_per_point": "ns",
    "dynamics.frequency_response.ns_per_point": "ns",
    "cli.self_ms_per_call": "ms",
    "cli.write_curve.ms_per_call": "ms",
    **{f"layer.{layer}.self_frac": "frac"
       for layer in ("cli", "optimize", "spectra", "dynamics", "stochastic", "unwrapped")},
    **{f"{name}.spans": "count" for name in tracing.SPAN_NAMES},
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="sqz-sensor benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("validate", "gain_probe", "design_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0.0:
        parser.error("--seconds must be > 0")
    return args


def measure_setup(workload: str, work_dir) -> list[dict]:
    """Start fresh processes that import the package and warm it up."""
    probe = bench_env.HERE / "setup_probe.py"
    results = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(probe), workload, str(work_dir)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def import_times() -> dict[str, float]:
    """Cumulative import seconds of the package and of scipy.signal.

    Read from ``python -X importtime``, which prints each module after
    the modules it imported, indented one level deeper.  scipy loads
    ``scipy.signal`` lazily and its own line can be absent, so its time
    is the sum over the outermost ``scipy.signal`` entries.  A module the
    package no longer imports reads 0.
    """
    code = f"import sys; sys.path.insert(0, {str(bench_env.SRC)!r}); import sqz_sensor"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    rows = []  # (depth, cumulative seconds, module)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            module = parts[2].rstrip()
            rows.append(((len(module) - len(module.lstrip())) // 2, int(parts[1]) * 1e-6,
                         module.strip()))

    def is_signal(module):
        return module == "scipy.signal" or module.startswith("scipy.signal.")

    signal_s = 0.0
    for i, (depth, seconds, module) in enumerate(rows):
        if not is_signal(module):
            continue
        parent = next((m for d, _, m in rows[i + 1:] if d < depth), "")
        if not is_signal(parent):
            signal_s += seconds
    package_s = next((s for _, s, m in rows if m == "sqz_sensor"), 0.0)
    return {"setup.import_s": package_s, "setup.scipy_signal_import_s": signal_s}


class SampleCounter:
    """Counts retained detector samples by wrapping ``stochastic.simulate``.

    Installed in untraced runs too: one extra Python call per simulation,
    against millions of integration steps.
    """

    def __init__(self, stochastic):
        self.samples = 0
        original = stochastic.simulate

        def counted(*args, **kwargs):
            run = original(*args, **kwargs)
            self.samples += run.n_samples
            return run

        stochastic.simulate = counted


def run_ops(workload, inputs, work_dir, counter, seconds=None, tracer=None):
    """Closed loop: one operation at a time, each checked before the next.

    Stops at the first end of a ``workload.cycle`` of operations after
    ``seconds`` have passed, so every run has the same mix of operation
    kinds, or when ``inputs`` is exhausted.  Returns the per-operation
    records and the inputs used, so a traced pass can repeat them.
    """
    records, used = [], []
    t_start = time.perf_counter()
    for i, inp in enumerate(inputs):
        ctx = workload.prepare(inp, work_dir)
        before = counter.samples
        if tracer is not None:
            tracer.op_id, tracer.active = i, True
        t0 = time.perf_counter()
        result = workload.run(inp, ctx)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        failure = workload.check(inp, ctx, result)
        work = counter.samples - before if workload.work_unit == "samples" else 1
        records.append({"op": i, "latency_s": t1 - t0, "work": work, "failure": failure})
        used.append(inp)
        if (seconds is not None and len(records) % workload.cycle == 0
                and time.perf_counter() - t_start >= seconds):
            break
    return records, used


def provenance(backend: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "pinned_env": {name: os.environ.get(name) for name in bench_env.PINNED},
    }


def op_time(records: list[dict]) -> float:
    return sum(r["latency_s"] for r in records)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_env.use_checkout_source()

    from sqz_sensor import cli, stochastic
    from sqz_sensor.stochastic import SimulationConfig

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work_dir = bench_env.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    probes = measure_setup(args.workload, work_dir)
    counter = SampleCounter(stochastic)
    workload.warm_up(work_dir)
    inputs = workload.inputs(args.seed)
    extra: dict[str, tuple] = {}  # reported by name and unit, not in the final line

    if args.trace == 0:
        records, _ = run_ops(workload, inputs, work_dir, counter, seconds=args.seconds)
        latencies = [r["latency_s"] for r in records]
        metrics = {
            "setup_s": statistics.median(p["import_s"] + p["warmup_s"] for p in probes),
            "work_per_s": sum(r["work"] for r in records) / op_time(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        extra[f"{workload.work_unit}_per_s"] = (metrics["work_per_s"], "1/s")
        extra["op_p50_s"] = (statistics.median(latencies), "s")
        if len(records) >= 100:  # at least ten operations beyond p90
            extra["op_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    else:
        plain, used = run_ops(workload, inputs, work_dir, counter, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced, _ = run_ops(workload, used, work_dir, counter, tracer=tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
        n_ops, plain_time, traced_time = len(plain), op_time(plain), op_time(traced)
        metrics = tracing.layer_metrics(tracer, n_ops, traced_time)
        peak_sim, peak_est, stubbed = tracing.peak_allocations(tracer)
        metrics.update(import_times())
        metrics.update({
            "setup.warmup_s": statistics.median(p["warmup_s"] for p in probes),
            "stochastic.simulate.peak_alloc_mb": peak_sim,
            "stochastic.estimate_psd.peak_alloc_mb": peak_est,
            "trace.ops": float(n_ops),
            "trace.overhead_s": traced_time - plain_time,
            "trace.overhead_frac": traced_time / plain_time - 1.0,
        })
        for record, counts in zip(traced, tracing.op_counts(tracer, n_ops)):
            record["counts"] = counts
        tracer.save(work_dir / "spans.npz")
        extra["missing_wrap_points"] = (tracer.missing, "")
        extra["peak_alloc_stubbed_kernels"] = (stubbed, "")
        units = PER_LAYER

    attempted = len(records)
    failed = sum(r["failure"] is not None for r in records)
    if args.trace == 0:
        extra["failed_frac"] = (failed / attempted, "frac")
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    backend = stochastic.simulate(cli.reference_params(), SimulationConfig(
        dt=0.01, duration=0.1, seed=0, n_segments=1, burn_in=0.0)).backend
    prov = provenance(backend)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": extra, "provenance": prov,
        "setup_probes": probes, "ops": records,
    }
    (work_dir / "result.json").write_text(json.dumps(result, indent=1, default=str) + "\n",
                                          encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed")
    for name in units:
        print(f"  {name:<48} {metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<48} {value:.6g} {unit}" if isinstance(value, float)
              else f"  {name:<48} {value}")
    for r in records:
        if r["failure"] is not None:
            print(f"  FAILED op {r['op']}: {r['failure']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
