"""Tests of the benchmark itself: negative controls, seeded inputs, contract.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute; one full-budget ``validate --mutate`` takes most of it).
"""

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
import types

import pytest

import bench_env

bench_env.use_checkout_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from sqz_sensor import cli, optimize, stochastic  # noqa: E402
from sqz_sensor.core import params_from_dict  # noqa: E402
from sqz_sensor.dynamics import relaxation_rates  # noqa: E402
from sqz_sensor.errors import SnrError  # noqa: E402
from sqz_sensor.optimize import SnlBand  # noqa: E402
from sqz_sensor.stochastic import spectral_comparison_config  # noqa: E402

BENCHMARK = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def first_inputs(workload, seed, n):
    return list(itertools.islice(workload.inputs(seed), n))


# ---------------------------------------------------------------- negative controls

def test_validate_mutate_counts_as_failed(tmp_path):
    inp = dataclasses.replace(first_inputs(W.Validate, 0, 1)[0], mutate=True)
    ctx = W.Validate.prepare(inp, tmp_path)
    rc = W.Validate.run(inp, ctx)
    assert rc == 1
    assert W.Validate.check(inp, ctx, rc) is not None


def test_validate_failed_gate_in_report_counts_as_failed(tmp_path):
    inp = first_inputs(W.Validate, 0, 1)[0]
    ctx = W.Validate.prepare(inp, tmp_path)
    report = {"budget": W.VALIDATE_BUDGET, "seed": inp.cli_seed, "passed": True,
              "checks": [{"name": name, "passed": True} for name in W.VALIDATE_GATES]}
    ctx["report"].write_text(json.dumps(report))
    assert W.Validate.check(inp, ctx, 0) is None
    report["checks"][2]["passed"] = False
    ctx["report"].write_text(json.dumps(report))
    assert W.Validate.check(inp, ctx, 0) is not None
    report["checks"].pop()
    report["checks"][0]["passed"] = True
    ctx["report"].write_text(json.dumps(report))
    assert W.Validate.check(inp, ctx, 0) is not None


def test_scaled_gain_counts_as_failed():
    inp = first_inputs(W.GainProbe, 0, 1)[0]
    gain = W.GainProbe.run(inp, None)
    assert W.GainProbe.check(inp, None, gain) is None
    assert W.GainProbe.check(inp, None, gain * 1.03) is not None
    assert W.GainProbe.check(inp, None, SnrError("probe-bin amplitude SNR 3 < 10")) is not None


def test_shifted_band_edge_counts_as_failed(tmp_path):
    inp = next(i for i in W.DesignSweep.inputs(0)
               if W.band_oracle(W.SCENARIOS[2], i.params) is not None)
    ctx = W.DesignSweep.prepare(inp, tmp_path)
    res = W.DesignSweep.run(inp, ctx)
    assert W.DesignSweep.check(inp, ctx, res) is None
    tag = W.SCENARIOS[2].tag
    band = res.bands[tag]
    for shifted in (SnlBand(band.lower + 1e-6, band.upper), SnlBand(band.lower, band.upper - 1e-6),
                    None):
        bad = dataclasses.replace(res, bands={**res.bands, tag: shifted})
        assert W.DesignSweep.check(inp, ctx, bad) is not None


def test_corrupted_csv_counts_as_failed(tmp_path):
    inp = first_inputs(W.DesignSweep, 1, 1)[0]
    ctx = W.DesignSweep.prepare(inp, tmp_path)
    res = W.DesignSweep.run(inp, ctx)
    assert W.DesignSweep.check(inp, ctx, res) is None
    lines = ctx["csv"].read_text().splitlines()
    w, s = lines[-1].split(",")
    lines[-1] = f"{w},{float(s) * (1.0 + 1e-15)!r}"
    ctx["csv"].write_text("\n".join(lines) + "\n")
    assert W.DesignSweep.check(inp, ctx, res) is not None


# ---------------------------------------------------------------- seeded inputs

@pytest.mark.parametrize("workload", list(W.WORKLOADS.values()), ids=list(W.WORKLOADS))
def test_inputs_repeat_for_a_seed(workload):
    a, b, c = (repr(first_inputs(workload, s, 6)) for s in (5, 5, 6))
    assert a == b
    assert a != c


def test_validate_draws_keep_the_reference_run_sizes():
    def retained(params_dict):
        params = params_from_dict(params_dict).with_spm_cancelled()
        sizes = []
        for sc in W.SCENARIOS:
            pm = sc.materialize(params)
            cfg = spectral_comparison_config(pm, W.VALIDATE_BUDGET, 0)
            sizes.append(int(cfg.duration / cfg.dt))
        return sizes

    inputs = first_inputs(W.Validate, 0, 400)
    reference = retained(inputs[0].params)
    assert sum(reference) == 6_561_792
    assert all(retained(i.params) == reference for i in inputs[1:])


def test_gain_draws_relax_fast_enough():
    for inp in first_inputs(W.GainProbe, 0, 400):
        rate_min, rate_max = relaxation_rates(inp.params)
        assert rate_min >= 0.5
        assert inp.config.dt * rate_max < 0.1
        assert inp.params.is_spm_cancelled == (inp.kind != "euler-spm-coupled")


def test_gain_inputs_cycle_through_every_kind():
    inputs = first_inputs(W.GainProbe, 0, 18)
    assert [i.config.method for i in inputs] == list(W.GAIN_CYCLE) * 6
    assert {i.kind for i in inputs} == {
        "euler-lossy", "euler-lossless", "euler-spm-coupled", "exact-lossless", "exact-lossy"}
    assert all(i.config.duration == W.GAIN_DURATION == 30000.0 for i in inputs)
    assert all(W.gain_stderr(i.params, i.omega) <= W.GAIN_TOLERANCE / 6.0 for i in inputs)
    omegas = [i.omega for i in first_inputs(W.GainProbe, 0, 400)]
    assert min(omegas) < 0.02 and max(omegas) > 1.5


def test_runs_end_on_a_cycle_boundary(tmp_path):
    class Cycled:
        cycle = 3
        work_unit = "designs"
        prepare = staticmethod(lambda inp, work_dir: None)
        run = staticmethod(lambda inp, ctx: inp)
        check = staticmethod(lambda inp, ctx, result: None)

    records, used = run.run_ops(Cycled, iter(range(100)), tmp_path,
                                types.SimpleNamespace(samples=0), seconds=1e-9)
    assert len(records) == len(used) == 3


def test_design_band_edges_lie_inside_the_search_interval():
    for inp in first_inputs(W.DesignSweep, 0, 2000):
        for sc in W.SCENARIOS:
            roots = W.band_oracle(sc, inp.params)
            if roots is not None:
                assert roots[1] < 0.6 * W.DESIGN_BAND_SEARCH[1]


# ---------------------------------------------------------------- tracing

def test_missing_wrap_point_reads_zero(monkeypatch):
    monkeypatch.delattr(stochastic, "measure_gain")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.uninstall()
    assert any(m.startswith("stochastic.measure_gain") for m in tracer.missing)
    metrics = tracing.layer_metrics(tracer, 0, 1.0)
    assert metrics["stochastic.measure_gain.spans"] == 0.0
    assert metrics["stochastic.measure_gain.demod_ns_per_sample"] == 0.0


def test_wrap_points_are_the_reported_span_names():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.uninstall()
    assert tracer.missing == []
    assert tuple(tracer.names) == tracing.SPAN_NAMES
    assert {f"{n}.spans" for n in tracing.SPAN_NAMES} <= set(run.PER_LAYER)


def test_seed_kernels_are_stubbed_and_changed_ones_are_not(monkeypatch):
    assert [name for name, _ in tracing.stubbable_kernels()] == [
        "euler_maruyama_loop", "exact_relax_loop"]
    original = stochastic.euler_maruyama_loop
    monkeypatch.setattr(stochastic, "euler_maruyama_loop",
                        lambda *args: (*original(*args), None))
    assert [name for name, _ in tracing.stubbable_kernels()] == ["exact_relax_loop"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.active, tracer.op_id = True, 0
        optimize.numeric_min_kc(cli.reference_params())
        tracer.active = False
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert metrics["optimize.numeric_min_kc.spans"] == 1.0
    assert metrics["optimize.numeric_min_kc.objective_evals"] == metrics[
        "spectra.measurement_psd_raw.spans"] > 512
    sp = tracer.arrays()
    dur = sp["end"] - sp["start"]
    assert metrics["layer.optimize.self_frac"] + metrics["layer.spectra.self_frac"] == \
        pytest.approx(float(dur[sp["parent"] < 0].sum()))


# ---------------------------------------------------------------- contract

def test_benchmark_json_names_the_reported_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(W.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_sweep", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=bench_env.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in bench_env.HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
