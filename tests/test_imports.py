"""What a fresh process loads, first simulations on threads, the memory
the stochastic gate holds, and seeded values that do not depend on
BLAS's thread count.

The one scipy subpackage the package uses, ``scipy.optimize``, loads on
the first numeric optimizer call.  The closed forms, the simulations,
their spectral estimates and gain demodulations run on numpy alone, so
no command loads ``scipy.signal``, ``scipy.stats`` or ``scipy.fft``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqz_sensor

from test_cli import FIG2_FILE

#: The directory the package was imported from, for the child processes.
PACKAGE_ROOT = str(Path(sqz_sensor.__file__).resolve().parents[1])

DEFERRED = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.fft")


def run_fresh(code: str, cwd, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this package, with
    ``env`` added to its environment."""
    env = os.environ | env | {"PYTHONPATH": os.pathsep.join(
        filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def modules_after_main(argv: list[str], cwd) -> set[str]:
    """The modules loaded by one CLI call in a fresh process, which must exit 0."""
    code = ("import json, sys\n"
            "from sqz_sensor.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n")
    proc = run_fresh(code, cwd)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    return set(modules)


@pytest.fixture
def params_path(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(FIG2_FILE))
    return str(path)


def test_package_import_loads_no_deferred_scipy_subpackage(tmp_path):
    proc = run_fresh("import json, sys, sqz_sensor; print(json.dumps(sorted(sys.modules)))",
                     tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not set(DEFERRED) & set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--params", "{params}", "--scenario", "input-squeeze", "--out", "s.csv"],
    ["fig2", "--out-dir", "fig2"],
], ids=["spectrum", "fig2"])
def test_closed_form_commands_load_neither_signal_nor_optimize(argv, params_path, tmp_path):
    modules = modules_after_main([a.format(params=params_path) for a in argv], tmp_path)
    assert not {"scipy.signal", "scipy.optimize"} & modules


def test_numeric_optimizer_loads_optimize_but_not_signal(params_path, tmp_path):
    modules = modules_after_main(["optimize", "--params", params_path, "--target", "kc",
                                  "--out", "kc.json"], tmp_path)
    assert "scipy.optimize" in modules
    assert "scipy.signal" not in modules


def test_spectral_estimate_loads_no_scipy(tmp_path):
    proc = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from sqz_sensor import SensorParams, SimulationConfig, SimulationRun, estimate_psd\n"
        "params = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0)\n"
        "config = SimulationConfig(dt=0.01, duration=10.24, seed=0, n_segments=4)\n"
        "d_s = np.random.default_rng(0).standard_normal(1024)\n"
        "run = SimulationRun(d_s=d_s, params=params, config=config, backend='recorded')\n"
        "curve = estimate_psd(run, np.linspace(0.0, 3.0, 7), xi_referred=True)\n"
        "assert np.all(np.isfinite(curve.values))\n"
        "print(json.dumps(sorted(sys.modules)))\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not {"scipy.signal", "scipy.fft"} & set(json.loads(proc.stdout))


def test_simulations_estimates_and_gains_load_no_deferred_subpackage(tmp_path):
    proc = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from sqz_sensor import (SensorParams, SimulationConfig, estimate_psd, measure_gain,\n"
        "                        simulate)\n"
        "params = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0,\n"
        "                      gamma_spm=0.1, k_s=0.5)\n"
        "for method, p in (('euler', params), ('exact', params.with_spm_cancelled())):\n"
        "    config = SimulationConfig(dt=0.02, duration=400.0, seed=1, n_segments=8,\n"
        "                              method=method)\n"
        "    assert np.all(np.isfinite(simulate(p, config).d_s))\n"
        "    curve = estimate_psd(simulate(p, config), np.linspace(0.0, 3.0, 7))\n"
        "    assert np.all(np.isfinite(curve.values))\n"
        "    assert measure_gain(p, 1.0, 5.0, config) > 0.0\n"
        "print(json.dumps(sorted(sys.modules)))\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not set(DEFERRED) & set(json.loads(proc.stdout))


def test_validate_loads_optimize_but_not_signal_or_stats(params_path, tmp_path):
    # Budget 20 may fail gate 3 (exit 1); either way every gate ran.
    proc = run_fresh(
        "import json, sys\n"
        "from sqz_sensor.cli import main\n"
        f"rc = main(['validate', '--params', {params_path!r}, '--budget', '20', "
        "'--out', 'report.json'])\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc in (0, 1)
    assert "scipy.optimize" in modules
    assert not {"scipy.signal", "scipy.stats"} & set(modules)


def test_first_simulations_on_worker_threads_keep_the_reference_values(params_path, tmp_path):
    # Gate 3's runs are integrated on a thread pool, so in a fresh process
    # they are the first to run the filter, concurrently.  The measured
    # values are those pinned at seed 12345 (see test_cli), bit for bit.
    proc = run_fresh(
        "import sys\n"
        "from sqz_sensor.cli import main\n"
        f"sys.exit(main(['validate', '--params', {params_path!r}, '--seed', '12345', "
        "'--out', 'report.json']))\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert [check["measured"] for check in report["checks"]] == [
        1.2671623327080871e-15, 7.065055611250996e-16, 0.040599181211966894]


def test_stochastic_gate_holds_no_series(tmp_path):
    # Gate 3 streams its three runs into their estimates, so the peak
    # resident set grows by less than the largest run's series would
    # take (double-squeeze optimal, 26 MB at budget 800).  Stored, the
    # three overlapping series grew it by about 45 MB; streamed, by 10.
    proc = run_fresh(
        "import json, resource\n"
        "from sqz_sensor import Scenario, stochastic\n"
        "from sqz_sensor.cli import reference_params, run_validation\n"
        "params = reference_params()\n"
        "run_validation(params, budget=20, seed=1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "run_validation(params, budget=800, seed=12345)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "optimal = Scenario.double_squeeze_optimal().materialize(params.with_spm_cancelled())\n"
        "config = stochastic.spectral_comparison_config(optimal, 800, 12347)\n"
        "print(json.dumps([1024 * (after - before), 8 * int(config.duration / config.dt)]))\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    growth, series = json.loads(proc.stdout)
    assert series > 25e6
    assert growth < series


def test_seeded_values_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Gains at the reference point (3 M samples), and gate values, under
    # one and two OpenBLAS threads: the demodulation's products all have
    # _BLOCK columns, so each sum is taken in one order whatever the
    # threads.
    code = ("from sqz_sensor import SimulationConfig, measure_gain\n"
            "from sqz_sensor.cli import reference_params, run_validation\n"
            "params = reference_params()\n"
            "for method, omega in (('euler', 2.0), ('exact', 1.0)):\n"
            "    config = SimulationConfig(dt=0.01, duration=30000.0, seed=1, method=method)\n"
            "    print(repr(measure_gain(params, omega, 1.0, config)))\n"
            "for check in run_validation(params, 20, 12345)['checks']:\n"
            "    print(repr(check['measured']), repr(check.get('details')))\n")
    outputs = []
    for threads in ("1", "2"):
        proc = run_fresh(code, tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]
