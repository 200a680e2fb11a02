"""The benchmark's three workloads: seeded inputs, one operation, its check.

Every workload is a closed loop with a single caller, the way a
researcher's script or a CLI invocation drives the package: the runner
prepares one input (untimed), runs one operation (timed), checks its
output against the paper's gates (untimed), and only then starts the
next operation.  Inputs are generated from the workload seed alone; the
package receives only the generated parameter files, probe frequencies
and CLI seeds.

``perfbench/README.md`` records why each workload exists and what it
measured on the seed code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sqz_sensor import cli, dynamics, optimize, spectra, stochastic
from sqz_sensor.core import Scenario, SensorParams, params_to_dict
from sqz_sensor.errors import NoBandError, SqzSensorError
from sqz_sensor.stochastic import SimulationConfig

SCENARIOS = (
    Scenario.no_squeeze(),
    Scenario.input_squeeze(),
    Scenario.double_squeeze_optimal(),
)


def _quiet_cli(argv: list[str]) -> int:
    """Run one CLI command with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_params(path: Path, params: dict) -> None:
    path.write_text(json.dumps(params, sort_keys=True) + "\n", encoding="utf-8")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --------------------------------------------------------------------------
# validate: the paper's three-way agreement check, one CLI command per op.

VALIDATE_BUDGET = 800
VALIDATE_GATES = (
    "frequency_domain_solver_vs_closed_forms",
    "numeric_kc_minimum_vs_closed_form",
    "stochastic_simulator_vs_closed_forms",
)


@dataclass(frozen=True)
class ValidateInput:
    params: dict  # parameter-file contents
    cli_seed: int
    mutate: bool = False


def validate_draw(rng: np.random.Generator) -> dict:
    """A stable operating point close to the reference one.

    The ranges keep every scenario of the stochastic gate at the
    reference point's segment length (4096, 4096 and 8192 steps), so
    each operation retains exactly 6 561 792 samples and only the
    burn-in, under 0.1% of the steps, varies between draws.  Wider
    ranges let the slowest relaxation rate or the power-of-two segment
    rounding double a run's length.
    """
    return {
        "kappa_prime": 1.0,
        "kappa_double_prime": rng.uniform(0.08, 0.12),
        "eta": rng.uniform(0.60, 0.66),
        "n_photons": _log_uniform(rng, 0.8, 1.25),
        "gamma_spm": rng.uniform(0.0, 0.1),
        "r_squeeze": 0.5 * math.log(rng.uniform(25.0, 35.0)),
        "auto_spm_cancel": True,
        "units": "kappa_prime",
    }


class Validate:
    name = "validate"
    work_unit = "samples"
    cycle = 1

    @staticmethod
    def inputs(seed: int):
        """The reference operating point first, then seeded draws."""
        rng = np.random.default_rng([seed, 1])
        yield ValidateInput(params_to_dict(cli.reference_params()), int(rng.integers(2 ** 31)))
        while True:
            yield ValidateInput(validate_draw(rng), int(rng.integers(2 ** 31)))

    @staticmethod
    def warm_up(work_dir: Path) -> None:
        params = cli.reference_params()
        path = work_dir / "warmup_params.json"
        _write_params(path, params_to_dict(params))
        _quiet_cli(["optimize", "--params", str(path), "--target", "kc"])
        config = SimulationConfig(dt=0.01, duration=2.0, seed=0, n_segments=1, burn_in=0.0)
        run = stochastic.simulate(params, config)
        stochastic.estimate_psd(run, [0.5, 1.0], xi_referred=True)
        cli.psd_from_response(params, np.linspace(0.0, 4.0, 5))
        spectra.closed_form_psd(SCENARIOS[1], params, np.linspace(0.0, 4.0, 5))

    @staticmethod
    def prepare(inp: ValidateInput, work_dir: Path) -> dict:
        ctx = {"params": work_dir / "params.json", "report": work_dir / "validation_report.json"}
        _write_params(ctx["params"], inp.params)
        ctx["report"].unlink(missing_ok=True)
        return ctx

    @staticmethod
    def run(inp: ValidateInput, ctx: dict) -> int:
        argv = ["validate", "--params", str(ctx["params"]), "--seed", str(inp.cli_seed),
                "--out", str(ctx["report"])]
        if inp.mutate:
            argv.append("--mutate")
        return _quiet_cli(argv)

    @staticmethod
    def check(inp: ValidateInput, ctx: dict, rc: int) -> str | None:
        """Exit code 0 and every gate of the written report passed."""
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(ctx["report"].read_text(encoding="utf-8"))
        if (report.get("budget"), report.get("seed")) != (VALIDATE_BUDGET, inp.cli_seed):
            return "report was not produced at the requested budget and seed"
        gates = {c["name"]: c["passed"] for c in report["checks"]}
        if sorted(gates) != sorted(VALIDATE_GATES):
            return f"report gates {sorted(gates)}"
        failed = [name for name, passed in gates.items() if passed is not True]
        if failed or report["passed"] is not True:
            return f"gates failed: {failed}"
        return None


# --------------------------------------------------------------------------
# gain_probe: coherent-demodulation gain measurements, one per op.

#: Run size and probe amplitude of every ``measure_gain`` caller in the
#: repository (``tests/test_stochastic.py``, acceptance criterion 6):
#: 3 000 000 retained samples per measurement at unit amplitude.
GAIN_AMPLITUDE = 1.0
GAIN_DT = 0.01
GAIN_DURATION = 30000.0
GAIN_TOLERANCE = 0.02
GAIN_OMEGA_RANGE = (0.01, 2.0)  # in kappa_prime, as in criterion 6 and above
#: Draws whose predicted standard error of the gain exceeds this are
#: redrawn, so the 2% gate stays at least six standard errors away.
GAIN_MAX_STDERR = GAIN_TOLERANCE / 6.0
#: Operations per cycle: two Euler measurements, then one exact-OU one.
#: A run ends on a cycle boundary, so every run has the same method mix.
GAIN_CYCLE = ("euler", "euler", "exact")
GAIN_EULER_KINDS = ("lossy", "lossless", "spm-coupled")
GAIN_EXACT_KINDS = ("lossless", "lossy")


@dataclass(frozen=True)
class GainInput:
    kind: str
    params: SensorParams
    omega: float
    config: SimulationConfig


def gain_draw(rng: np.random.Generator, lossless: bool, spm_coupled: bool) -> SensorParams:
    """A stable draw whose slowest relaxation rate stays above 0.5."""
    kappa_double_prime = 0.0 if lossless else rng.uniform(0.02, 0.2)
    eta = 1.0 if lossless else rng.uniform(0.7, 0.95)
    n_photons = _log_uniform(rng, 0.5, 4.0)
    gamma_spm = rng.uniform(0.0, 0.2)
    r_squeeze = rng.uniform(0.0, 1.2)
    kappa = 1.0 + kappa_double_prime
    k_c = rng.uniform(-0.4, 0.4) * kappa
    k_s = 2.0 * gamma_spm * n_photons
    if spm_coupled:
        # Residual self-phase modulation couples the anti-squeezed
        # quadrature into the measured one; validate never runs this.
        k_s += rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.2)
    return SensorParams(
        kappa_prime=1.0, kappa_double_prime=kappa_double_prime, eta=eta,
        n_photons=n_photons, gamma_spm=gamma_spm, r_squeeze=r_squeeze,
        k_c=k_c, k_s=k_s,
    )


def gain_stderr(params: SensorParams, omega: float) -> float:
    """Predicted relative standard error of one gain measurement.

    Demodulating over ``T`` leaves noise of variance ``2 S / T`` on the
    amplitude, with ``S`` the signal-referred two-sided noise PSD at the
    probe frequency.
    """
    psd = dynamics.psd_from_response(params, [omega], xi_referred=True).values
    return math.sqrt(2.0 * float(psd[0]) / GAIN_DURATION) / GAIN_AMPLITUDE


class GainProbe:
    name = "gain_probe"
    work_unit = "samples"
    cycle = len(GAIN_CYCLE)

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng([seed, 2])
        i = 0
        while True:
            method = GAIN_CYCLE[i % len(GAIN_CYCLE)]
            n_cycle = i // len(GAIN_CYCLE)
            if method == "exact":
                kind = GAIN_EXACT_KINDS[n_cycle % len(GAIN_EXACT_KINDS)]
            else:
                kind = GAIN_EULER_KINDS[(2 * n_cycle + i % len(GAIN_CYCLE))
                                        % len(GAIN_EULER_KINDS)]
            while True:
                params = gain_draw(rng, kind == "lossless", kind == "spm-coupled")
                omega = _log_uniform(rng, *GAIN_OMEGA_RANGE)
                if gain_stderr(params, omega) <= GAIN_MAX_STDERR:
                    break
            config = SimulationConfig(
                dt=GAIN_DT, duration=GAIN_DURATION, seed=int(rng.integers(2 ** 31)),
                n_segments=10, method=method,
            )
            yield GainInput(f"{method}-{kind}", params, omega, config)
            i += 1

    @staticmethod
    def warm_up(work_dir: Path) -> None:
        params = cli.reference_params()
        # A short run needs a stronger probe to clear measure_gain's SNR guard.
        config = SimulationConfig(dt=GAIN_DT, duration=100.0, seed=0, n_segments=1)
        stochastic.measure_gain(params, 1.0, 20.0, config)
        stochastic.simulate(params, SimulationConfig(
            dt=0.01, duration=2.0, seed=0, n_segments=1, burn_in=0.0, method="exact"))
        dynamics.frequency_response(params, 1.0)

    @staticmethod
    def prepare(inp: GainInput, work_dir: Path) -> None:
        return None

    @staticmethod
    def run(inp: GainInput, ctx) -> float | SqzSensorError:
        try:
            return stochastic.measure_gain(inp.params, inp.omega, GAIN_AMPLITUDE, inp.config)
        except SqzSensorError as exc:  # SnrError and friends count as failed
            return exc

    @staticmethod
    def check(inp: GainInput, ctx, gain) -> str | None:
        """Within 2% of the frequency-domain gain magnitude."""
        if isinstance(gain, Exception):
            return f"{type(gain).__name__}: {gain}"
        expected = abs(complex(dynamics.frequency_response(inp.params, inp.omega).gain))
        rel = abs(gain / expected - 1.0)
        if not rel <= GAIN_TOLERANCE:
            return f"gain {gain!r} vs {expected!r} ({rel:.2%} > {GAIN_TOLERANCE:.0%})"
        return None


# --------------------------------------------------------------------------
# design_sweep: closed forms, optimizers and a CSV export per design point.

DESIGN_POINTS = 401
DESIGN_BAND_SEARCH = (0.0, 24.0)  # in kappa_prime; every upper band edge is below 13
DESIGN_CLI_SCENARIOS = ("no-squeeze", "input-squeeze", "double-squeeze-optimal")
SOLVER_GATE = 1e-12
KC_GATE = 1e-8
BAND_GATE = 1e-8
KAPPA_GATE = 1e-8  # relative


@dataclass(frozen=True)
class DesignInput:
    params: SensorParams
    kc_probe: float
    kappa_omega: float
    cli_scenario: str


@dataclass
class DesignResult:
    curves: dict
    snl: object
    response: dict
    kc_closed: float
    kc_numeric: object
    bands: dict
    kappa_closed: object
    kappa_numeric: object
    cli_rc: int


def design_draw(rng: np.random.Generator) -> SensorParams:
    """A stable design point with self-phase modulation cancelled."""
    n_photons = _log_uniform(rng, 0.25, 4.0)
    gamma_spm = rng.uniform(0.0, 0.2)
    return SensorParams(
        kappa_prime=1.0,
        kappa_double_prime=rng.uniform(0.0, 0.5),
        eta=rng.uniform(0.3, 0.9),
        n_photons=n_photons,
        gamma_spm=gamma_spm,
        r_squeeze=rng.uniform(0.0, 1.5),
        k_s=2.0 * gamma_spm * n_photons,
    )


def band_oracle(scenario: Scenario, params: SensorParams):
    """Real roots of ``c2 w^2 - w/(4N) + c0``, or None without a real root."""
    params_m = scenario.materialize(params)
    em2r = math.exp(-2.0 * params_m.r_squeeze)
    c2 = (em2r + params_m.epsilon_sq) / (8.0 * params_m.kappa_prime * params_m.n_photons)
    c0 = spectra.closed_form_psd(scenario, params_m, 0.0)
    roots = np.roots([c2, -0.25 / params_m.n_photons, c0])
    if np.iscomplexobj(roots) and np.any(roots.imag != 0.0):
        return None
    lo, hi = sorted(float(r) for r in roots.real)
    return lo, hi


def read_curve_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    omegas, values = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#") and not line.startswith("omega"):
            w, s = line.split(",")
            omegas.append(float(w))
            values.append(float(s))
    return np.array(omegas), np.array(values)


def _max_rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


class DesignSweep:
    name = "design_sweep"
    work_unit = "designs"
    cycle = 1

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng([seed, 3])
        while True:
            params = design_draw(rng)
            yield DesignInput(
                params=params,
                kc_probe=rng.uniform(0.0, 2.0),
                kappa_omega=rng.uniform(0.25, 4.0),
                cli_scenario=DESIGN_CLI_SCENARIOS[int(rng.integers(len(DESIGN_CLI_SCENARIOS)))],
            )

    @staticmethod
    def warm_up(work_dir: Path) -> None:
        params = cli.reference_params()
        grid = np.linspace(0.0, 4.0, 5)
        spectra.scenario_curve(SCENARIOS[2], params, grid)
        spectra.snl_curve(params, grid)
        dynamics.psd_from_response(params, grid)
        optimize.numeric_min_kc(params)
        optimize.snl_crossings(SCENARIOS[1], params, DESIGN_BAND_SEARCH)
        optimize.numeric_min_kappa(1.0, params.n_photons)
        path = work_dir / "warmup_params.json"
        _write_params(path, params_to_dict(params))
        _quiet_cli(["spectrum", "--params", str(path), "--scenario", "input-squeeze",
                    "--points", "3", "--out", str(work_dir / "warmup.csv")])

    @staticmethod
    def prepare(inp: DesignInput, work_dir: Path) -> dict:
        ctx = {"params": work_dir / "design_params.json", "csv": work_dir / "spectrum.csv"}
        _write_params(ctx["params"], params_to_dict(inp.params))
        ctx["csv"].unlink(missing_ok=True)
        return ctx

    @staticmethod
    def run(inp: DesignInput, ctx: dict) -> DesignResult:
        p = inp.params
        grid = np.linspace(0.0, 4.0 * p.kappa_prime, DESIGN_POINTS)
        curves = {sc.tag: spectra.scenario_curve(sc, p, grid) for sc in SCENARIOS}
        snl = spectra.snl_curve(p, grid)
        response = {sc.tag: dynamics.psd_from_response(sc.materialize(p), grid)
                    for sc in SCENARIOS}
        kc_closed = optimize.optimal_kc(p)
        kc_numeric = optimize.numeric_min_kc(p, omega_probe=inp.kc_probe)
        bands = {}
        for sc in SCENARIOS:
            try:
                bands[sc.tag] = optimize.snl_crossings(sc, p, DESIGN_BAND_SEARCH)
            except NoBandError:
                bands[sc.tag] = None
        kappa_closed = optimize.snl_optimal_kappa(inp.kappa_omega, p.n_photons)
        kappa_numeric = optimize.numeric_min_kappa(inp.kappa_omega, p.n_photons)
        cli_rc = _quiet_cli([
            "spectrum", "--params", str(ctx["params"]), "--scenario", inp.cli_scenario,
            "--points", str(DESIGN_POINTS), "--out", str(ctx["csv"]),
        ])
        return DesignResult(curves, snl, response, kc_closed, kc_numeric, bands,
                            kappa_closed, kappa_numeric, cli_rc)

    @staticmethod
    def check(inp: DesignInput, ctx: dict, res: DesignResult) -> str | None:
        p = inp.params
        for tag, curve in res.curves.items():
            if not _max_rel(res.response[tag].values, curve.values) <= SOLVER_GATE:
                return f"{tag}: frequency-domain solver disagrees with the closed form"
        grid = res.snl.omegas
        if not _max_rel(res.snl.values[1:], grid[1:] / (4.0 * p.n_photons)) <= SOLVER_GATE:
            return "shot-noise-limit curve is not |omega|/(4N)"
        if not abs(res.kc_numeric.argmin - res.kc_closed) <= KC_GATE:
            return f"numeric k_c {res.kc_numeric.argmin!r} vs closed {res.kc_closed!r}"
        for sc in SCENARIOS:
            band, roots = res.bands[sc.tag], band_oracle(sc, p)
            if (band is None) != (roots is None):
                return f"{sc.tag}: band {band} but quadratic roots {roots}"
            if band is not None and not (abs(band.lower - roots[0]) <= BAND_GATE
                                         and abs(band.upper - roots[1]) <= BAND_GATE):
                return f"{sc.tag}: band ({band.lower!r}, {band.upper!r}) vs roots {roots}"
        if not (abs(res.kappa_numeric.argmin - res.kappa_closed.argmin)
                <= KAPPA_GATE * res.kappa_closed.argmin):
            return f"numeric kappa {res.kappa_numeric.argmin!r} vs {res.kappa_closed.argmin!r}"
        if res.cli_rc != 0:
            return f"spectrum exit code {res.cli_rc}"
        omegas, values = read_curve_csv(ctx["csv"])
        expected = res.curves[Scenario.from_name(inp.cli_scenario).tag]
        if not (np.array_equal(omegas, expected.omegas)
                and np.array_equal(values, expected.values)):
            return "exported CSV differs from scenario_curve"
        return None


WORKLOADS = {w.name: w for w in (Validate, GainProbe, DesignSweep)}
