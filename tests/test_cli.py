import errno
import hashlib
import json
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy

import sqz_sensor as sq
import sqz_sensor.cli as cli
import sqz_sensor.stochastic as stochastic
from sqz_sensor.cli import main, reference_params, run_validation

from conftest import load_strict_json

FIG2_FILE = {
    "kappa_prime": 1.0,
    "kappa_double_prime": 0.1,
    "eta": 0.7,
    "n_photons": 1.0,
    "r_squeeze": 0.5 * math.log(30.0),
}

# The parameter file shown in the README.
README_FILE = {
    "kappa_prime": 1.0,
    "kappa_double_prime": 0.1,
    "eta": 0.7,
    "n_photons": 1.0,
    "gamma_spm": 0.0,
    "squeeze_db": 14.77,
    "k_c": 0.0,
    "auto_spm_cancel": True,
    "units": "kappa_prime",
}

# kappa_prime^2 underflows to 0: the no-squeeze spectrum is
# (omega^2 / kappa_prime + kappa_prime) / 8, touching the limit at 1e-200.
SQUARES_UNDERFLOW_FILE = {"kappa_prime": 1e-200, "kappa_double_prime": 0.0, "eta": 1.0,
                          "n_photons": 1.0}


# gamma_spm N overflows; gamma_spm N / kappa_prime, the unit point's
# gamma_spm, is 1e200.
SPM_PRODUCT_OVERFLOWS_FILE = {"kappa_prime": 1e200, "kappa_double_prime": 0.0, "eta": 0.7,
                              "n_photons": 1e200, "gamma_spm": 1e200}


def rates_divided(data: dict, scale: float) -> dict:
    """Parameter-file contents with both rates divided by ``scale``."""
    return data | {key: data[key] / scale for key in ("kappa_prime", "kappa_double_prime")}


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(FIG2_FILE))
    return path


def read_curve_csv(path):
    omegas, values = [], []
    header = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line and not line.startswith("omega"):
            w, s = line.split(",")
            omegas.append(float(w))
            values.append(float(s))
    return np.array(omegas), np.array(values), header


class TestSpectrumCommand:
    def test_csv_output_and_manifest(self, params_file, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["spectrum", "--params", str(params_file), "--scenario", "no-squeeze",
                   "--omega-min", "0", "--omega-max", "4", "--points", "5",
                   "--out", str(out)])
        assert rc == 0
        omegas, values, header = read_curve_csv(out)
        assert omegas == pytest.approx(np.linspace(0.0, 4.0, 5))
        assert values[0] == pytest.approx(float(Fraction(121, 560)), rel=1e-15)
        assert any("psd_convention" in line for line in header)
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert manifest["params_sha256"]

    def test_round_trip_from_manifest(self, params_file, tmp_path):
        out = tmp_path / "curve.csv"
        main(["spectrum", "--params", str(params_file), "--scenario", "input-squeeze",
              "--points", "9", "--out", str(out)])
        omegas, values, _ = read_curve_csv(out)
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        params = sq.params_from_dict(manifest["params"])
        recomputed = sq.closed_form_psd(sq.Scenario.input_squeeze(), params, omegas)
        assert np.array_equal(values, recomputed)

    def test_custom_scenario_uses_the_file_kc(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"k_c": -0.4}))
        out = tmp_path / "curve.csv"
        rc = main(["spectrum", "--params", str(pfile), "--scenario", "custom",
                   "--points", "9", "--out", str(out)])
        assert rc == 0
        omegas, values, _ = read_curve_csv(out)
        grid = np.linspace(0.0, 4.0, 9)
        assert np.array_equal(omegas, grid)
        params = sq.params_from_dict(FIG2_FILE | {"k_c": -0.4})
        assert np.array_equal(values, sq.measurement_psd_raw(params, grid))

    def test_single_point_lossless(self, tmp_path):
        pfile = tmp_path / "lossless.json"
        pfile.write_text(json.dumps({
            "kappa_prime": 1.0, "kappa_double_prime": 0.0, "eta": 1.0, "n_photons": 1.0,
        }))
        out = tmp_path / "point.csv"
        rc = main(["spectrum", "--params", str(pfile), "--scenario", "no-squeeze",
                   "--omega-min", "1", "--omega-max", "1", "--points", "1",
                   "--out", str(out)])
        assert rc == 0
        _, values, _ = read_curve_csv(out)
        assert values == pytest.approx([0.25], rel=1e-15)

    def test_rates_whose_squares_underflow(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(SQUARES_UNDERFLOW_FILE))
        out = tmp_path / "curve.csv"
        rc = main(["spectrum", "--params", str(pfile), "--scenario", "no-squeeze",
                   "--points", "5", "--out", str(out)])
        assert rc == 0
        omegas, values, _ = read_curve_csv(out)
        kp = SQUARES_UNDERFLOW_FILE["kappa_prime"]
        assert values == pytest.approx((omegas / kp * omegas + kp) / 8.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scenario, n_photons, first", [
        ("input-squeeze", 1.0, "4.25e+307"),  # (omega / kappa)^2 overflows
        ("snl", 0.1, "8.5e+307"),  # omega / 4N overflows
    ])
    def test_grid_where_the_spectrum_overflows(self, tmp_path, capsys, scenario, n_photons,
                                               first):
        # Any warning fails the test.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"n_photons": n_photons}))
        out = tmp_path / "curve.csv"
        rc = main(["spectrum", "--params", str(pfile), "--scenario", scenario,
                   "--omega-max", "1.7e308", "--points", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at omega = {first}" in err and f"n_photons = {n_photons}" in err
        assert not out.exists()

    def test_json_format(self, params_file, tmp_path):
        out = tmp_path / "curve.json"
        main(["spectrum", "--params", str(params_file), "--scenario", "snl",
              "--points", "5", "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["S"][0] == 0.0
        assert payload["manifest"]["psd_convention"] == sq.PSD_CONVENTION

    def test_normalize_flag(self, tmp_path):
        # The curve is the closed form at the unit point its header names;
        # the manifest keeps the parameter file's own values.
        pfile = tmp_path / "params.json"
        data = FIG2_FILE | {"kappa_prime": 2.5, "n_photons": 3.0}
        pfile.write_text(json.dumps(data))
        out = tmp_path / "norm.csv"
        rc = main(["spectrum", "--params", str(pfile), "--scenario", "input-squeeze",
                   "--points", "5", "--normalize", "--out", str(out)])
        assert rc == 0
        omegas, values, header = read_curve_csv(out)
        manifest = json.loads((tmp_path / "norm.csv.manifest.json").read_text())
        assert manifest["normalization"] == "kappa_prime_over_n"
        assert "# normalization: kappa_prime_over_n" in header
        assert manifest["params"] == sq.params_to_dict(sq.params_from_dict(data))
        unit = sq.params_from_dict(json.loads(header[-1].removeprefix("# params: ")))
        assert unit == sq.params_from_dict(data).unit_point()
        assert np.array_equal(omegas, np.linspace(0.0, 10.0, 5) / 2.5)
        assert np.array_equal(values, sq.closed_form_psd(sq.Scenario.input_squeeze(), unit, omegas))

    @pytest.mark.parametrize("data", [
        {"kappa_prime": 1e-10, "kappa_double_prime": 0.0, "eta": 0.7, "n_photons": 1e300},
        {"kappa_prime": 1e-300, "kappa_double_prime": 0.0, "eta": 0.7, "n_photons": 1e10},
    ])
    @pytest.mark.parametrize("scenario", ["no-squeeze", "input-squeeze", "double-squeeze-optimal",
                                          "snl"])
    def test_normalize_where_n_over_kappa_prime_overflows(self, tmp_path, capsys, data, scenario):
        # Raw spectra of order kappa_prime / N are far below the smallest
        # double; normalized they are of order one.  Any warning fails the test.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(data))
        out = tmp_path / "norm.csv"
        rc = main(["spectrum", "--params", str(pfile), "--scenario", scenario,
                   "--points", "5", "--normalize", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        omegas, values, _ = read_curve_csv(out)
        assert np.array_equal(omegas, np.linspace(0.0, 4.0, 5))
        assert np.all(np.isfinite(values))
        if scenario == "no-squeeze":
            assert values[0] == pytest.approx(5.0 / 28.0, rel=1e-15)

    @pytest.mark.parametrize("scenario", ["no-squeeze", "input-squeeze", "double-squeeze-optimal",
                                          "snl"])
    def test_normalize_where_gamma_n_overflows(self, tmp_path, capsys, scenario):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(SPM_PRODUCT_OVERFLOWS_FILE))
        out = tmp_path / "norm.csv"
        rc = main(["spectrum", "--params", str(pfile), "--scenario", scenario,
                   "--points", "5", "--normalize", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        _, values, header = read_curve_csv(out)
        unit = json.loads(header[-1].removeprefix("# params: "))
        assert unit["gamma_spm"] == pytest.approx(1e200, rel=1e-15)
        assert np.all(np.isfinite(values))

    def test_unknown_scenario_is_usage_error(self, params_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--params", str(params_file), "--scenario", "triple-squeeze",
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_missing_params_file(self, tmp_path):
        rc = main(["spectrum", "--params", str(tmp_path / "nope.json"),
                   "--scenario", "no-squeeze", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_invalid_params_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kappa_prime": -1.0, "kappa_double_prime": 0.1,
                                   "eta": 0.7, "n_photons": 1.0}))
        rc = main(["spectrum", "--params", str(bad), "--scenario", "no-squeeze",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestFig2Command:
    def test_ordering_failure_writes_nothing(self, tmp_path, monkeypatch, capsys):
        make_curve = cli._make_curve
        swap = {"no_squeeze": "input_squeeze", "input_squeeze": "no_squeeze"}
        monkeypatch.setattr(cli, "_make_curve",
                            lambda name, params, grid: make_curve(swap.get(name, name), params, grid))
        out_dir = tmp_path / "fig2"
        rc = main(["fig2", "--out-dir", str(out_dir), "--points", "9"])
        assert rc == 1
        assert "ordering check failed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_curves_and_ordering(self, tmp_path):
        out_dir = tmp_path / "fig2"
        rc = main(["fig2", "--out-dir", str(out_dir), "--points", "401"])
        assert rc == 0
        curves = {}
        for name in ("no_squeeze", "input_squeeze", "double_squeeze_optimal", "snl"):
            omegas, values, _ = read_curve_csv(out_dir / f"{name}.csv")
            curves[name] = (omegas, values)
        grid = curves["no_squeeze"][0]
        assert grid[0] == 0.0 and grid[-1] == 4.0 and grid.size == 401

        # spot values at omega = 0 and omega = kappa_prime
        expect = {
            "no_squeeze": (Fraction(121, 560), Fraction(221, 560)),
            "input_squeeze": (Fraction(6619, 56000), Fraction(29557, 168000)),
            "double_squeeze_optimal": (Fraction(127, 1940), Fraction(20077, 162960)),
        }
        i1 = int(np.argmin(np.abs(grid - 1.0)))
        assert grid[i1] == 1.0
        for name, (at0, at1) in expect.items():
            values = curves[name][1]
            assert values[0] == pytest.approx(float(at0), rel=1e-12)
            assert values[i1] == pytest.approx(float(at1), rel=1e-12)

        # the shot-noise-limit column is exactly omega / 4
        assert np.array_equal(curves["snl"][1], grid / 4.0)

        # strict ordering everywhere
        s_no, s_in, s_db = (curves[k][1] for k in
                            ("no_squeeze", "input_squeeze", "double_squeeze_optimal"))
        assert np.all(s_db <= s_in) and np.all(s_in <= s_no)
        assert np.all(s_db[1:] < s_in[1:])

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(
            ["no_squeeze.csv", "input_squeeze.csv", "double_squeeze_optimal.csv", "snl.csv"])

    def test_squeezed_curves_dip_below_snl_inside_bands(self, tmp_path):
        out_dir = tmp_path / "fig2"
        main(["fig2", "--out-dir", str(out_dir), "--points", "401"])
        grid, snl_vals, _ = read_curve_csv(out_dir / "snl.csv")
        _, s_in, _ = read_curve_csv(out_dir / "input_squeeze.csv")
        _, s_db, _ = read_curve_csv(out_dir / "double_squeeze_optimal.csv")
        params = reference_params()
        b_in = sq.snl_crossings(sq.Scenario.input_squeeze(), params, (0.0, 8.0))
        b_db = sq.snl_crossings(sq.Scenario.double_squeeze_optimal(), params, (0.0, 8.0))
        inside_in = (grid > b_in.lower + 0.02) & (grid < min(b_in.upper, 4.0) - 0.02)
        inside_db = (grid > b_db.lower + 0.02) & (grid < min(b_db.upper, 4.0) - 0.02)
        assert np.all(s_in[inside_in] < snl_vals[inside_in])
        assert np.all(s_db[inside_db] < snl_vals[inside_db])


class TestValidateCommand:
    def test_gates_pass(self, params_file, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["validate", "--params", str(params_file), "--budget", "800",
                   "--seed", "7", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["passed"]
        assert {c["name"] for c in report["checks"]} == {
            "frequency_domain_solver_vs_closed_forms",
            "numeric_kc_minimum_vs_closed_form",
            "stochastic_simulator_vs_closed_forms",
        }

    def test_si_rates_pass(self, tmp_path):
        # Gate 2 compares k_c in units of kappa: read in rad/s, a relative
        # disagreement of 1e-15 at kappa = 1.1e8 was 1e-7, beyond the gate.
        pfile = tmp_path / "si.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"kappa_prime": 1e8, "kappa_double_prime": 1e7,
                                                 "r_squeeze": 1.7, "units": "si"}))
        report_path = tmp_path / "report.json"
        rc = main(["validate", "--params", str(pfile), "--out", str(report_path)])
        assert rc == 0
        assert json.loads(report_path.read_text())["passed"]

    def test_report_does_not_depend_on_the_units_of_the_rates(self):
        def measured(report):
            return [(c["measured"], c.get("details")) for c in report["checks"]]

        params = reference_params()
        expected = measured(run_validation(params, budget=20, seed=3))
        for k in (-20, 6, 12, 20):
            scale = 4.0 ** k
            scaled = replace(params, kappa_prime=params.kappa_prime * scale,
                             kappa_double_prime=params.kappa_double_prime * scale)
            assert measured(run_validation(scaled, budget=20, seed=3)) == expected

    def test_rates_whose_squares_underflow(self, tmp_path, capsys):
        # The drift determinant is of order kappa^2 = 1e-400: solved in
        # units of kappa it neither underflows nor warns, and any warning
        # fails the test.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(SQUARES_UNDERFLOW_FILE))
        rc = main(["validate", "--params", str(pfile), "--budget", "20",
                   "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "kappa_prime = 1e-200" in err

    def test_spectrum_below_float_range_names_its_parameters(self, tmp_path, capsys):
        # Gate 1's signal-referred squeezed noise, |t_a_s|^2 S_as / |gain|^2,
        # is about 6e-462 here: it underflows to 0, and the error names the
        # two parameters that put it there.  Any warning fails the test.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(SQUARES_UNDERFLOW_FILE | {"r_squeeze": 300}))
        rc = main(["validate", "--params", str(pfile), "--budget", "20",
                   "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "kappa_prime = 1e-200" in err and "r_squeeze = 300" in err

    def test_mutation_negative_control(self, params_file, tmp_path):
        report_path = tmp_path / "mutated.json"
        rc = main(["validate", "--params", str(params_file), "--budget", "50",
                   "--seed", "7", "--mutate", "--out", str(report_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        assert not report["passed"]
        solver_check = next(c for c in report["checks"]
                            if c["name"] == "frequency_domain_solver_vs_closed_forms")
        assert not solver_check["passed"]

    def test_each_gate_records_the_point_it_ran_at(self, tmp_path):
        # Uncancelled self-phase modulation: the gates run at k_s = 2 gamma N.
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({
            "kappa_prime": 1.0, "kappa_double_prime": 0.2, "eta": 0.8, "n_photons": 1.0,
            "gamma_spm": 0.1, "r_squeeze": 0.7, "k_c": 0.3, "k_s": 0.5}))
        report_path = tmp_path / "report.json"
        main(["validate", "--params", str(params_file), "--budget", "20",
              "--seed", "7", "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["params"]["k_s"] == 0.5
        cancelled = report["params"] | {"k_s": 0.2}
        solver, numeric, stochastic = report["checks"]
        assert solver["params"] == numeric["params"] == cancelled
        runs = stochastic["runs"]
        assert {tag: run["seed"] for tag, run in runs.items()} == {
            "no_squeeze": 7, "input_squeeze": 8, "double_squeeze_optimal": 9}
        for tag, run in runs.items():
            ran_at = sq.Scenario.from_name(tag).materialize(sq.SensorParams(**cancelled))
            assert run["params"] == sq.params_to_dict(ran_at)


#: The stochastic gate's three rms values at the reference point, budget
#: 800 and seed 12345, for the pinned numpy and scipy versions.  They fix
#: the realizations of one tool version: a change that moves them changes
#: realizations, and must bump the version with them.  The version here
#: is a copy on purpose: it is what the values are pinned to.
PINNED_REALIZATION = ("0.4.2", {
    "no_squeeze": 0.03845814748974901,
    "input_squeeze": 0.03577558432663353,
    "double_squeeze_optimal": 0.04059918121196735,
})


def test_seeded_realization_is_pinned_to_the_tool_version():
    version, details = PINNED_REALIZATION
    report = run_validation(reference_params(), budget=800, seed=12345)
    assert sq.__version__ == version
    assert report["checks"][2]["details"] == details


SPM_UNCANCELLED = sq.SensorParams(kappa_prime=1.0, kappa_double_prime=0.2, eta=0.8,
                                  n_photons=1.0, gamma_spm=0.1, r_squeeze=0.7,
                                  k_c=0.3, k_s=0.5)

SCENARIO_ORDER = ["no_squeeze", "input_squeeze", "double_squeeze_optimal"]


def without_timing(report):
    """A validation report less its timestamp and runtimes."""
    checks = [{k: v for k, v in check.items() if k != "runtime_s"} for check in report["checks"]]
    return {k: v for k, v in report.items() if k != "timestamp"} | {"checks": checks}


class TestStochasticGateRuns:
    """Gate 3's runs overlap, but the report is that of a serial loop."""

    @pytest.mark.parametrize("params", [reference_params(), SPM_UNCANCELLED],
                             ids=["reference", "spm_uncancelled"])
    @pytest.mark.parametrize("seed", [3, 12345])
    def test_report_does_not_depend_on_core_count(self, params, seed, monkeypatch):
        report = run_validation(params, budget=20, seed=seed)
        workers, started = [], []
        simulate = stochastic.simulate

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers)

        def recording_simulate(params, config):
            started.append((config.duration / config.dt, config.seed - seed))
            return simulate(params, config)

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(stochastic, "simulate", recording_simulate)
        serial = run_validation(params, budget=20, seed=seed)
        assert workers == [1]
        # One worker starts the runs in submission order: longest first,
        # equal lengths in scenario order.
        assert started == sorted(started, key=lambda run: (-run[0], run[1]))
        assert sorted(index for _, index in started) == [0, 1, 2]
        assert without_timing(serial) == without_timing(report)
        gate = report["checks"][2]
        assert list(gate["details"]) == list(gate["runs"]) == SCENARIO_ORDER

    def test_first_error_in_scenario_order_surfaces(self, monkeypatch):
        simulate = stochastic.simulate
        third_failed = threading.Event()

        def failing_simulate(params, config):
            if config.seed == 7:
                # Fail only after the third scenario's run has failed.
                third_failed.wait(timeout=30)
                raise sq.ConfigError("first scenario")
            if config.seed == 9:
                third_failed.set()
                raise sq.RangeError("third scenario")
            return simulate(params, config)

        monkeypatch.setattr(stochastic, "simulate", failing_simulate)
        with pytest.raises(sq.ConfigError, match="first scenario"):
            run_validation(reference_params(), budget=20, seed=7)
        assert third_failed.is_set()

    def test_a_settings_error_raises_before_any_run_starts(self, monkeypatch):
        # Every run is sized before any starts, so no simulation is spent
        # on a gate whose second run cannot be built.
        config_for = stochastic.spectral_comparison_config
        started = []

        def failing_config(params, n_segments, seed):
            if seed == 8:
                raise sq.ConfigError("second scenario's settings")
            return config_for(params, n_segments, seed)

        def recording_simulate(params, config):
            started.append(config.seed)
            raise AssertionError("a run started")

        monkeypatch.setattr(stochastic, "spectral_comparison_config", failing_config)
        monkeypatch.setattr(stochastic, "simulate", recording_simulate)
        with pytest.raises(sq.ConfigError, match="second scenario's settings"):
            run_validation(reference_params(), budget=20, seed=7)
        assert started == []

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        run_validation(reference_params(), budget=20, seed=1)
        assert threading.active_count() == before

    def test_memory_error_in_a_worker_is_an_input_error(self, params_file, tmp_path,
                                                        monkeypatch, capsys):
        simulate = stochastic.simulate
        threads = []

        def recording_simulate(params, config):
            threads.append(threading.current_thread())
            return simulate(params, config)

        monkeypatch.setattr(stochastic, "simulate", recording_simulate)
        out = tmp_path / "report.json"
        rc = main(["validate", "--params", str(params_file), "--budget", str(10 ** 12),
                   "--out", str(out)])
        assert rc == 2
        assert "exceeds the available memory" in capsys.readouterr().err
        assert threads and threading.main_thread() not in threads
        assert not out.exists()


class TestOptimizeCommand:
    def test_kc_target(self, params_file, tmp_path, capsys):
        out = tmp_path / "kc.json"
        rc = main(["optimize", "--params", str(params_file), "--target", "kc",
                   "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["closed_form"] == pytest.approx(float(Fraction(-927, 970)), rel=1e-12)
        assert result["agreement"] < 1e-8

    def test_kc_target_when_squeezing_underflows(self, tmp_path, capsys):
        # eta = 1 with exp(-2r), about 1e-304, below rounding: the spectrum
        # no longer depends on k_c, so there is no numeric optimum to compare with.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"eta": 1.0, "r_squeeze": 350.0}))
        out = tmp_path / "kc.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "kc", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no unique optimum" in err
        assert not out.exists()

    def test_kc_target_when_the_objective_overflows(self, tmp_path, capsys):
        # The closed-form optimum rounds to -kappa, onto the stability edge;
        # the objective, whose kappa^2 overflows, is never evaluated.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"kappa_double_prime": 1e160}))
        out = tmp_path / "kc.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "kc", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "kappa_double_prime = 1e+160" in err and "stability range" in err
        assert not out.exists()

    def test_kc_target_at_rates_whose_squares_overflow(self, tmp_path):
        # kappa^2 overflows, but the spectrum is solved in units of kappa:
        # the result is that of the same file and probe frequency with
        # every rate divided by 4^265.
        big = FIG2_FILE | {"kappa_prime": 1e160}
        scale = 4.0 ** 265
        results = []
        for name, data in (("big", big), ("small", rates_divided(big, scale))):
            pfile = tmp_path / f"{name}.json"
            pfile.write_text(json.dumps(data))
            out = tmp_path / f"{name}_kc.json"
            rc = main(["optimize", "--params", str(pfile), "--target", "kc",
                       "--omega", repr(data["kappa_prime"]), "--out", str(out)])
            assert rc == 0
            results.append(load_strict_json(out.read_text()))
        at_big, at_small = results
        for key in ("closed_form", "numeric", "objective_at_numeric"):
            assert at_big[key] == at_small[key] * scale
        assert at_big["closed_form"] == pytest.approx(-8.5567e159, rel=1e-4)

    def test_kc_target_when_the_objective_overflows_inside_the_range(self, params_file,
                                                                     tmp_path, capsys):
        # The closed-form optimum is inside the stability range, but
        # (omega / kappa)^2 overflows at every k_c: the minimum found is infinite.
        out = tmp_path / "kc.json"
        rc = main(["optimize", "--params", str(params_file), "--target", "kc",
                   "--omega", "1e300", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["input-squeeze", "double-squeeze-optimal"])
    def test_band_target_when_squeezing_underflows(self, tmp_path, scenario):
        # The spectrum is the constant kpp / (2 N) = 0.05 up to a term in
        # exp(-2r), about 1e-304: below the limit from 4 N * 0.05 to the
        # top of the default interval.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"eta": 1.0, "r_squeeze": 350.0}))
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "band",
                   "--scenario", scenario, "--out", str(out)])
        assert rc == 0
        band = json.loads(out.read_text())["band"]
        assert band["lower"] == pytest.approx(0.2, rel=1e-15)
        assert band["upper"] == 8.0

    def test_band_target_when_rate_squares_underflow(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(SQUARES_UNDERFLOW_FILE))
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "band",
                   "--scenario", "no-squeeze", "--omega-max", "1e-199", "--out", str(out)])
        assert rc == 0
        band = json.loads(out.read_text())["band"]
        assert band["degenerate"]
        assert band["lower"] == pytest.approx(1e-200, rel=1e-15, abs=0.0)

    def test_snl_kappa_target(self, params_file, tmp_path):
        out = tmp_path / "kappa.json"
        rc = main(["optimize", "--params", str(params_file), "--target", "snl_kappa",
                   "--omega", "1.0", "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["closed_form"]["kappa"] == 1.0
        assert result["agreement"] < 1e-8

    def test_band_target(self, params_file, tmp_path):
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(params_file), "--target", "band",
                   "--scenario", "double-squeeze-optimal", "--out", str(out)])
        assert rc == 0
        band = json.loads(out.read_text())["band"]
        assert band["lower"] == pytest.approx(0.2799567425, abs=1e-6)
        assert band["upper"] == pytest.approx(4.0499401647, abs=1e-6)

    def test_custom_band_uses_the_file_kc(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"k_c": -0.4}))
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "band",
                   "--scenario", "custom", "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        params = sq.params_from_dict(FIG2_FILE | {"k_c": -0.4})
        expected = sq.snl_crossings(sq.Scenario.custom(), params, (0.0, 8.0))
        assert result["scenario"] == "custom"
        assert (result["band"]["lower"], result["band"]["upper"]) == (expected.lower,
                                                                      expected.upper)
        at_zero_kc = sq.snl_crossings(sq.Scenario.input_squeeze(), params, (0.0, 8.0))
        assert expected.lower != at_zero_kc.lower

    def test_band_target_at_extreme_photon_number(self, tmp_path):
        # The band does not depend on N; 1/(4N) squared overflows here.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"n_photons": 1e-200}))
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "band",
                   "--scenario", "double-squeeze-optimal", "--out", str(out)])
        assert rc == 0
        band = load_strict_json(out.read_text())["band"]
        assert band["lower"] == pytest.approx(0.2799567425, abs=1e-6)
        assert band["upper"] == pytest.approx(4.0499401647, abs=1e-6)

    def test_band_search_inside_the_band(self, tmp_path):
        pfile = tmp_path / "readme.json"
        pfile.write_text(json.dumps(README_FILE))
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "band",
                   "--scenario", "input-squeeze", "--omega-min", "3", "--omega-max", "3.5",
                   "--out", str(out)])
        assert rc == 0
        band = json.loads(out.read_text())["band"]
        assert (band["lower"], band["upper"]) == (3.0, 3.5)

    def test_lossless_no_squeeze_band_is_degenerate_at_kappa(self, tmp_path):
        pfile = tmp_path / "lossless.json"
        pfile.write_text(json.dumps({
            "kappa_prime": 1.0, "kappa_double_prime": 0.0, "eta": 1.0, "n_photons": 1.0,
        }))
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "band",
                   "--scenario", "no-squeeze", "--out", str(out)])
        assert rc == 0
        band = json.loads(out.read_text())["band"]
        assert band["degenerate"]
        assert band["lower"] == pytest.approx(1.0, rel=1e-6)

    def test_band_absent_is_a_result(self, params_file, tmp_path):
        out = tmp_path / "noband.json"
        rc = main(["optimize", "--params", str(params_file), "--target", "band",
                   "--scenario", "no-squeeze", "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["band"] is None
        assert "reason" in result

    @pytest.mark.parametrize("scenario", ["no-squeeze", "input-squeeze"])
    def test_band_absent_when_the_quadratic_overflows(self, scenario, tmp_path):
        # The spectrum is far above the limit, where a tangency test on
        # raw rates, whose 4 c2 c0 overflows, read inf <= inf as a
        # zero-width band.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"kappa_prime": 1e-200, "kappa_double_prime": 0.1,
                                     "eta": 0.7, "n_photons": 1.0, "r_squeeze": 1.7}))
        out = tmp_path / "band.json"
        rc = main(["optimize", "--params", str(pfile), "--target", "band",
                   "--scenario", scenario, "--out", str(out)])
        assert rc == 0
        result = load_strict_json(out.read_text())
        assert result["band"] is None
        assert "reason" in result


class TestExitCodes:
    @pytest.mark.parametrize("content", [b'{"kappa_prime": 1.0,', b"\xff\xfe"])
    def test_malformed_json_params_is_input_error(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = main(["validate", "--params", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_json_array_as_params_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps([FIG2_FILE]))
        rc = main(["spectrum", "--params", str(bad), "--scenario", "no-squeeze",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must contain a JSON object" in err

    def test_arithmetic_error_is_input_error(self, params_file, tmp_path, monkeypatch, capsys):
        def overflowing_curve(name, params, grid):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "_make_curve", overflowing_curve)
        out = tmp_path / "x.csv"
        rc = main(["spectrum", "--params", str(params_file), "--scenario", "no-squeeze",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: parameters out of floating-point range: math range error\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("spectrum", ["--scenario", "no-squeeze"]),
        ("validate", ["--budget", "20"]),
        ("optimize", ["--target", "kc"]),
    ])
    def test_directory_as_out_is_input_error(self, command, args, params_file, tmp_path, capsys):
        out_dir = tmp_path / "outdir"
        out_dir.mkdir()
        before = sorted(tmp_path.iterdir())
        rc = main([command, "--params", str(params_file), *args, "--out", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_dir) in err and ".tmp" not in err
        assert sorted(tmp_path.iterdir()) == before
        assert not any(out_dir.iterdir())

    def test_failed_replace_leaves_no_temporary_file(self, params_file, tmp_path, monkeypatch,
                                                     capsys):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full_disk)
        rc = main(["spectrum", "--params", str(params_file), "--scenario", "no-squeeze",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.strerror(errno.ENOSPC) in err
        assert sorted(tmp_path.iterdir()) == [params_file]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_directory_as_manifest_writes_no_curve(self, fmt, params_file, tmp_path, capsys):
        out = tmp_path / f"s.{fmt}"
        (tmp_path / f"s.{fmt}.manifest.json").mkdir()
        rc = main(["spectrum", "--params", str(params_file), "--scenario", "no-squeeze",
                   "--format", fmt, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest.json" in err
        assert not out.exists()

    def test_directory_as_params_is_input_error(self, tmp_path, capsys):
        rc = main(["validate", "--params", str(tmp_path), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("validate", "--budget", "-3"),
        ("validate", "--budget", "0"),
        ("validate", "--seed", "-1"),
        ("spectrum", "--points", "0"),
        ("fig2", "--points", "-5"),
        # Grids numpy rejects by shape, not as a failed allocation.
        ("spectrum", "--points", str(2 ** 62)),
        ("spectrum", "--points", str(2 ** 63)),
        ("spectrum", "--points", str(10 ** 20)),
        ("fig2", "--points", "99999999999999999999"),
    ])
    def test_out_of_range_integer_flags_are_usage_errors(self, command, flag, value,
                                                         params_file, tmp_path, capsys):
        required = {
            "validate": ["--params", str(params_file), "--out", str(tmp_path / "r.json")],
            "spectrum": ["--params", str(params_file), "--scenario", "snl",
                         "--out", str(tmp_path / "x.csv")],
            "fig2": ["--out-dir", str(tmp_path / "fig2")],
        }[command]
        with pytest.raises(SystemExit) as err:
            main([command, *required, flag, value])
        assert err.value.code == 2
        bound = f"must be <= {2 ** 59}" if int(value) > 0 else "must be >="
        err = capsys.readouterr().err
        assert f"argument {flag}: {bound}" in err and err.count("error:") == 1
        assert sorted(tmp_path.iterdir()) == [params_file]


    @pytest.mark.parametrize("override", [
        {"kappa_prime": "1"},
        {"kappa_double_prime": True},
        {"eta": None},
        {"n_photons": [1.0]},
        {"r_squeeze": "1.7"},
        {"auto_spm_cancel": "false"},
        {"auto_spm_cancel": 1},
        {"units": 1},
    ])
    def test_schema_types_are_input_errors(self, override, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(FIG2_FILE | override))
        rc = main(["optimize", "--params", str(bad), "--target", "kc"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(override)) in err

    @pytest.mark.parametrize("override", [{"kappa_prime": 10 ** 400}])
    def test_values_beyond_float_range_are_input_errors(self, override, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(FIG2_FILE | override))
        rc = main(["spectrum", "--params", str(bad), "--scenario", "no-squeeze",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(override)) in err

    @pytest.mark.parametrize("override, k", [({"kappa_double_prime": 1.5e154}, 128),
                                             ({"kappa_prime": 1e160}, 265)])
    def test_rates_whose_squares_overflow_scale_exactly(self, override, k, tmp_path):
        # The spectrum is solved in units of kappa, so squared rates never
        # form: it is that of the same file with every rate divided by 4^k.
        big = FIG2_FILE | override
        scale = 4.0 ** k
        curves = []
        for name, data in (("big", big), ("small", rates_divided(big, scale))):
            pfile = tmp_path / f"{name}.json"
            pfile.write_text(json.dumps(data))
            out = tmp_path / f"{name}.csv"
            rc = main(["spectrum", "--params", str(pfile), "--scenario", "no-squeeze",
                       "--points", "9", "--out", str(out)])
            assert rc == 0
            curves.append(read_curve_csv(out)[:2])
        (w_big, s_big), (w_small, s_small) = curves
        assert np.array_equal(w_big, w_small * scale)
        assert np.array_equal(s_big, s_small * scale)
        assert np.all(np.isfinite(s_big))

    def test_anti_squeezing_beyond_float_range_names_r_squeeze(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(FIG2_FILE | {"r_squeeze": 400.0}))
        out = tmp_path / "report.json"
        rc = main(["validate", "--params", str(bad), "--budget", "20", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "r_squeeze = 400.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["optimize", "--target", "kc"],
        ["spectrum", "--scenario", "no-squeeze"],
    ])
    def test_derived_kappa_beyond_float_range_is_input_error(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(FIG2_FILE | {"kappa_prime": 1e308,
                                               "kappa_double_prime": 1e308}))
        rc = main([*argv, "--params", str(bad), "--out", str(tmp_path / "x.out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "kappa = kappa_prime + kappa_double_prime" in err

    @pytest.mark.parametrize("target, flag, value", [
        ("kc", "--omega", "nan"),
        ("snl_kappa", "--omega", "-inf"),
        ("band", "--omega-max", "inf"),
        ("band", "--omega-min", "nan"),
    ])
    def test_non_finite_frequency_flags_are_usage_errors(self, target, flag, value,
                                                         params_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--params", str(params_file), "--target", target,
                  f"{flag}={value}"])
        assert err.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["1e-310"])
    def test_snl_kappa_beyond_float_range_is_input_error(self, omega, params_file, capsys):
        # The bandwidth search spans 1e3 either side of omega, where the
        # spectrum scale kappa / 8N leaves the normal range.
        rc = main(["optimize", "--params", str(params_file), "--target", "snl_kappa",
                   "--omega", omega])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_snl_kappa_at_a_frequency_whose_square_overflows(self, params_file, tmp_path):
        # omega^2 and kappa^2 overflow, but the spectrum is solved in units
        # of kappa: the result is that of omega / 4^500, exactly for the
        # closed form and to the numeric search's precision in ln kappa.
        scale = 4.0 ** 500
        results = []
        for omega in (1e300, 1e300 / scale):
            out = tmp_path / "kappa.json"
            rc = main(["optimize", "--params", str(params_file), "--target", "snl_kappa",
                       "--omega", repr(omega), "--out", str(out)])
            assert rc == 0
            results.append(load_strict_json(out.read_text()))
        at_big, at_small = results
        assert at_big["closed_form"] == {"kappa": 1e300, "value": 2.5e299}
        assert at_small["closed_form"] == {"kappa": 1e300 / scale, "value": 2.5e299 / scale}
        for name, value in at_small["numeric"].items():
            assert at_big["numeric"][name] == pytest.approx(value * scale, rel=1e-10)

    def test_snl_kappa_search_beyond_float_range_names_its_inputs(self, tmp_path, capsys):
        # 8 kappa N overflows at the top of the bandwidth search.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(FIG2_FILE | {"n_photons": 1e306}))
        rc = main(["optimize", "--params", str(pfile), "--target", "snl_kappa"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_photons = 1e+306" in err and "omega = 1.0" in err
        assert "kappa_prime" not in err

    @pytest.mark.parametrize("argv", [
        ["validate", "--budget", str(10 ** 12)],
        ["validate", "--budget", str(10 ** 15)],
        ["validate", "--budget", str(10 ** 20)],
        ["spectrum", "--scenario", "snl", "--points", str(10 ** 17)],
    ])
    def test_sizes_beyond_the_address_space_are_input_errors(self, argv, params_file,
                                                             tmp_path, capsys):
        # All requests are petabytes or more, beyond the address space a
        # 64-bit process gets, so they are refused at once and reserve
        # nothing.
        out = tmp_path / "x.out"
        rc = main([*argv, "--params", str(params_file), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestProvenance:
    def test_manifest_and_report_record_library_versions(self, params_file, tmp_path):
        expected = {"numpy": np.__version__, "scipy": scipy.__version__}
        out = tmp_path / "curve.csv"
        assert main(["spectrum", "--params", str(params_file), "--scenario", "snl",
                     "--points", "3", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["library_versions"] == expected
        report = run_validation(reference_params(), budget=20, seed=1)
        assert report["library_versions"] == expected
        out = tmp_path / "optimize.json"
        assert main(["optimize", "--params", str(params_file), "--target", "kc",
                     "--out", str(out)]) == 0
        optimized = json.loads(out.read_text())
        assert optimized["library_versions"] == expected
        for header in (manifest, report, optimized):
            assert header["psd_convention"] == sq.PSD_CONVENTION
        assert optimized["params_sha256"] == manifest["params_sha256"]

    @pytest.mark.parametrize("command, args, written", [
        ("spectrum", ["--scenario", "snl", "--points", "3"], "out.manifest.json"),
        ("optimize", ["--target", "kc"], "out"),
        ("validate", ["--budget", "20"], "out"),
    ])
    @pytest.mark.parametrize("via_pipe", [False, True], ids=["file", "pipe"])
    def test_recorded_hash_is_of_the_bytes_parsed(self, command, args, written, via_pipe,
                                                  params_file, tmp_path):
        # A pipe can be read only once: the hash must come from that read.
        data = params_file.read_bytes()
        path = str(params_file)
        if via_pipe:
            r, w = os.pipe()
            os.write(w, data)
            os.close(w)
            path = f"/dev/fd/{r}"
        try:
            rc = main([command, "--params", path, *args, "--out", str(tmp_path / "out")])
        finally:
            if via_pipe:
                os.close(r)
        assert rc in (0, 1)  # budget 20 fails gate 3, and the report is written
        recorded = json.loads((tmp_path / written).read_text())
        assert recorded["params_file"] == path
        assert recorded["params_sha256"] == hashlib.sha256(data).hexdigest()
        assert recorded["params"] == sq.params_to_dict(sq.params_from_dict(FIG2_FILE))

    def test_package_version_is_the_project_version(self):
        # Manifests record tool_version, and seeds reproduce realizations
        # only within one version, so the project reads its version from
        # the package and writes no copy of it.  A regex, not tomllib:
        # Python 3.10 is supported.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]', text, flags=re.MULTILINE)
        assert re.search(r'^\[tool\.setuptools\.dynamic\]\nversion\s*=\s*'
                         r'\{\s*attr\s*=\s*"sqz_sensor\.__version__"\s*\}',
                         text, flags=re.MULTILINE)
        assert not re.search(r'^version\s*=\s*"', text, flags=re.MULTILINE)
