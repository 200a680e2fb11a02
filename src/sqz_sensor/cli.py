"""Command-line surface: spectra, reference-figure data, validation, optimization.

Every output file is written atomically and accompanied by a JSON
manifest carrying the resolved parameters, the spectral-density
convention, the tool version, and a hash of the input parameter file, so
that any result can be recomputed bit for bit from its manifest.

Exit codes: 0 success, 1 validation-gate failure, 2 usage or input error
(bad flags, unreadable or malformed parameter files, sizes too large to
allocate).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__, optimize, spectra, stochastic
from .core import (
    NORMALIZATION_KP_OVER_N,
    NORMALIZATION_RAW,
    PSD_CONVENTION,
    SCENARIO_SNL,
    SCENARIO_TAGS,
    Scenario,
    SensorParams,
    SpectrumCurve,
    load_params,
    params_to_dict,
    spm_cancelling_ks,
)
from .dynamics import psd_from_response
from .errors import NoBandError, SqzSensorError

#: ``--scenario`` spellings of the scenario tags.
_SCENARIO_NAMES = tuple(tag.replace("_", "-") for tag in SCENARIO_TAGS)

_FIG2_SQUEEZE_POWER = 30.0  # exp(2r) of the reference operating point


def reference_params() -> SensorParams:
    """Canonical dimensionless operating point used by the ``fig2`` command.

    Coupling-dominated resonator (coupling ten times the intrinsic
    loss), 70% output efficiency, squeezed input with a power factor of
    30 (about 15 dB), one intracavity photon, rates in coupling units.
    """
    return SensorParams(
        kappa_prime=1.0,
        kappa_double_prime=0.1,
        eta=0.7,
        n_photons=1.0,
        gamma_spm=0.0,
        r_squeeze=0.5 * math.log(_FIG2_SQUEEZE_POWER),
        k_c=0.0,
        k_s=0.0,
    )


def _sha256(path: str | Path | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _provenance(command: str, params: SensorParams, params_file=None, **fields) -> dict:
    """Every manifest and report: what produced it, from what, then ``fields``."""
    return {
        "command": command,
        "tool_version": __version__,
        # Bit-for-bit recomputation depends on numpy's noise generators
        # and scipy's lfilter and FFT.
        "library_versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "psd_convention": PSD_CONVENTION,
        "params_file": str(params_file) if params_file else None,
        "params_sha256": _sha256(params_file),
        "params": params_to_dict(params),
        **fields,
    }


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    """The one JSON output format: indented, sorted keys, final newline."""
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _curve_csv(curve: SpectrumCurve, manifest: dict) -> str:
    lines = [
        "# sqz-sensor spectrum",
        f"# tool_version: {manifest['tool_version']}",
        f"# psd_convention: {manifest['psd_convention']}",
        f"# scenario: {curve.scenario}",
        f"# normalization: {curve.normalization}",
        f"# params: {json.dumps(curve.params, sort_keys=True)}",
        "omega,S",
    ]
    lines.extend(f"{float(w)!r},{float(s)!r}" for w, s in zip(curve.omegas, curve.values))
    return "\n".join(lines) + "\n"


def _curve_json(curve: SpectrumCurve, manifest: dict) -> dict:
    return {
        "manifest": manifest,
        "scenario": curve.scenario,
        "normalization": curve.normalization,
        "params": curve.params,
        "omega": curve.omegas.tolist(),
        "S": curve.values.tolist(),
    }


def write_curve(path: Path, curve: SpectrumCurve, manifest: dict, fmt: str) -> None:
    if fmt == "csv":
        _atomic_write_text(path, _curve_csv(curve, manifest))
    else:
        _write_json(path, _curve_json(curve, manifest))
    _write_json(Path(str(path) + ".manifest.json"), manifest)


def _make_curve(scenario_name: str, params: SensorParams, grid: np.ndarray) -> SpectrumCurve:
    if scenario_name == SCENARIO_SNL:
        return spectra.snl_curve(params, grid)
    return spectra.scenario_curve(Scenario.from_name(scenario_name), params, grid)


def cmd_spectrum(args) -> int:
    params = load_params(args.params)
    omega_max = args.omega_max if args.omega_max is not None else 4.0 * params.kappa_prime
    grid = np.linspace(args.omega_min, omega_max, args.points)
    curve = _make_curve(args.scenario, params, grid)
    normalization = NORMALIZATION_RAW
    if args.normalize:
        curve = spectra.normalize_curve(curve, params)
        normalization = NORMALIZATION_KP_OVER_N
    out = Path(args.out)
    manifest = _provenance(
        "spectrum", params, args.params,
        scenario=curve.scenario, normalization=normalization,
        grid={"omega_min": args.omega_min, "omega_max": omega_max, "points": args.points},
        outputs=[out.name],
    )
    write_curve(out, curve, manifest, args.format)
    print(f"wrote {out} ({curve.scenario}, {len(curve)} points)")
    return 0


def cmd_fig2(args) -> int:
    params = reference_params()
    grid = np.linspace(0.0, 4.0 * params.kappa_prime, args.points)
    curves = {name: _make_curve(name, params, grid)
              for name in ("no_squeeze", "input_squeeze", "double_squeeze_optimal", "snl")}

    s_no = curves["no_squeeze"].values
    s_in = curves["input_squeeze"].values
    s_db = curves["double_squeeze_optimal"].values
    if not (np.all(s_db <= s_in) and np.all(s_in <= s_no)):
        i = int(np.argmax(~((s_db <= s_in) & (s_in <= s_no))))
        print(
            "ordering check failed at omega = "
            f"{grid[i]}: double={s_db[i]} input={s_in[i]} none={s_no[i]}",
            file=sys.stderr,
        )
        return 1

    out_dir = Path(args.out_dir)
    ext = "csv" if args.format == "csv" else "json"
    outputs = []
    manifest = _provenance(
        "fig2", params, scenario="all", normalization=NORMALIZATION_KP_OVER_N,
        grid={"omega_min": 0.0, "omega_max": 4.0 * params.kappa_prime, "points": args.points},
    )
    for name, curve in curves.items():
        normalized = spectra.normalize_curve(curve, params)
        path = out_dir / f"{name}.{ext}"
        file_manifest = dict(manifest, scenario=name, outputs=[path.name])
        write_curve(path, normalized, file_manifest, args.format)
        outputs.append(path.name)
    manifest["outputs"] = outputs
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {len(outputs)} curves to {out_dir}")
    return 0


def _random_cancelled_params(rng: np.random.Generator) -> SensorParams:
    kappa_prime = 1.0
    kappa_double_prime = rng.uniform(0.0, 0.5)
    eta = rng.uniform(0.3, 1.0)
    n_photons = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    gamma_spm = rng.uniform(0.0, 0.2)
    r_squeeze = rng.uniform(0.0, 1.5)
    kappa = kappa_prime + kappa_double_prime
    k_c = rng.uniform(-0.9 * kappa, 0.9 * kappa)
    return SensorParams(
        kappa_prime=kappa_prime,
        kappa_double_prime=kappa_double_prime,
        eta=eta,
        n_photons=n_photons,
        gamma_spm=gamma_spm,
        r_squeeze=r_squeeze,
        k_c=k_c,
        k_s=spm_cancelling_ks(gamma_spm, n_photons),
    )


def _gate(name: str, comparison: str, gate: float, measured: float, t0: float, **fields) -> dict:
    """A validation check record: it passes when ``measured <= gate``."""
    return {"name": name, "comparison": comparison, "gate": gate, "measured": measured,
            "passed": measured <= gate, **fields, "runtime_s": time.perf_counter() - t0}


def _stochastic_rms(scenario: Scenario, params: SensorParams,
                    config: stochastic.SimulationConfig) -> float:
    """RMS relative deviation of one simulated spectrum from its closed form."""
    run = stochastic.simulate(params, config)
    band = np.linspace(0.2 * params.kappa_prime, 3.0 * params.kappa_prime, 36)
    estimate = stochastic.estimate_psd(run, band, xi_referred=True).values
    closed = spectra.closed_form_psd(scenario, params, band)
    return float(np.sqrt(np.mean((estimate / closed - 1.0) ** 2)))


def run_validation(params: SensorParams, budget: int, seed: int, mutate: bool = False) -> dict:
    """Run the dual-oracle validation gates and return a report dict.

    The gates run with the self-phase-modulation coupling cancelled, so
    each check records the parameters it ran at (``params``; the
    stochastic gate one set and seed per scenario, under ``runs``).
    The stochastic gate's three runs overlap on up to three threads,
    longest first, and are read in scenario order, so the report does
    not depend on the core count.  ``mutate`` perturbs the closed-form
    reference by one part per million as a negative control; the gates
    must then fail.
    """
    checks = []
    params_c = params.with_spm_cancelled()
    corrupt = 1.0 + 1e-6 if mutate else 1.0
    scenarios = [
        Scenario.no_squeeze(),
        Scenario.input_squeeze(),
        Scenario.double_squeeze_optimal(),
    ]

    # Gate 1: frequency-domain solver against the closed forms.
    t0 = time.perf_counter()
    grid, probes = np.linspace(0.0, 4.0 * params_c.kappa, 65), np.linspace(0.0, 4.0, 17)
    rng = np.random.default_rng(seed)
    points = itertools.chain(
        ((scenario.materialize(params_c), grid) for scenario in scenarios),
        ((_random_cancelled_params(rng), probes) for _ in range(20)),
    )
    worst = 0.0
    for p, omegas in points:
        closed = spectra.measurement_psd_raw(p, omegas) * corrupt
        oracle = psd_from_response(p, omegas).values
        worst = max(worst, float(np.max(np.abs(oracle - closed) / closed)))
    checks.append(_gate("frequency_domain_solver_vs_closed_forms", "max relative deviation",
                        1e-12, worst, t0, params=params_to_dict(params_c)))

    # Gate 2: numeric gain optimum against the closed form.
    t0 = time.perf_counter()
    closed_kc = optimize.optimal_kc(params_c)
    deltas = [
        abs(optimize.numeric_min_kc(params_c, omega_probe=w).argmin - closed_kc)
        for w in (0.0, params_c.kappa_prime)
    ]
    checks.append(_gate("numeric_kc_minimum_vs_closed_form", "max absolute deviation",
                        1e-8, max(deltas), t0, params=params_to_dict(params_c)))

    # Gate 3: stochastic simulator against the closed forms.  Every run
    # is sized before any starts.
    t0 = time.perf_counter()
    jobs = []
    for i, scenario in enumerate(scenarios):
        params_m = scenario.materialize(params_c)
        jobs.append((scenario, params_m,
                     stochastic.spectral_comparison_config(params_m, budget, seed + i)))
    runs = {scenario.tag: {"params": params_to_dict(params_m), "seed": config.seed}
            for scenario, params_m, config in jobs}
    longest_first = sorted(jobs, key=lambda job: job[2].duration / job[2].dt, reverse=True)
    with ThreadPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        futures = {job[0].tag: pool.submit(_stochastic_rms, *job) for job in longest_first}
        details = {tag: futures[tag].result() for tag in runs}
    checks.append(_gate("stochastic_simulator_vs_closed_forms",
                        "max rms relative deviation over [0.2, 3] kappa_prime",
                        0.05, max(details.values()), t0, details=details, runs=runs))

    return _provenance("validate", params, budget=budget, seed=seed, mutate=mutate,
                       checks=checks, passed=all(c["passed"] for c in checks))


def cmd_validate(args) -> int:
    params = load_params(args.params)
    report = run_validation(params, budget=args.budget, seed=args.seed, mutate=args.mutate)
    out = Path(args.out)
    report.update(params_file=str(args.params), params_sha256=_sha256(args.params))
    _write_json(out, report)
    for check in report["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"{verdict} {check['name']}: measured {check['measured']:.3e} "
              f"(gate {check['gate']:.0e}, {check['runtime_s']:.2f} s)")
    print(f"report written to {out}")
    return 0 if report["passed"] else 1


def cmd_optimize(args) -> int:
    params = load_params(args.params)
    result = _provenance("optimize", params, args.params, target=args.target)
    if args.target == "kc":
        closed = optimize.optimal_kc(params)
        numeric = optimize.numeric_min_kc(params, omega_probe=args.omega)
        result.update({
            "closed_form": closed,
            "numeric": numeric.argmin,
            "objective_at_numeric": numeric.value,
            "boundary": numeric.boundary,
            "agreement": abs(closed - numeric.argmin),
        })
        print(f"optimal k_c: closed form {closed!r}, numeric {numeric.argmin!r} "
              f"(delta {result['agreement']:.3e})")
    elif args.target == "snl_kappa":
        closed = optimize.snl_optimal_kappa(args.omega, params.n_photons)
        numeric = optimize.numeric_min_kappa(args.omega, params.n_photons)
        result.update({
            "omega": args.omega,
            "closed_form": {"kappa": closed.argmin, "value": closed.value},
            "numeric": {"kappa": numeric.argmin, "value": numeric.value},
            "agreement": abs(closed.argmin - numeric.argmin),
        })
        print(f"SNL-optimal kappa at omega={args.omega}: closed {closed.argmin!r}, "
              f"numeric {numeric.argmin!r} (delta {result['agreement']:.3e})")
    else:  # band
        scenario = Scenario.from_name(args.scenario)
        omega_max = args.omega_max if args.omega_max is not None else 8.0 * params.kappa_prime
        try:
            band = optimize.snl_crossings(scenario, params, (args.omega_min, omega_max))
            result.update({
                "scenario": scenario.tag,
                "band": {"lower": band.lower, "upper": band.upper,
                         "width": band.width, "degenerate": band.is_degenerate},
            })
            print(f"sub-SNL band for {scenario.tag}: "
                  f"({band.lower!r}, {band.upper!r}), width {band.width!r}")
        except NoBandError as exc:
            result.update({"scenario": scenario.tag, "band": None, "reason": str(exc)})
            print(f"no sub-SNL band for {scenario.tag}: {exc}")
    if args.out:
        _write_json(Path(args.out), result)
        print(f"report written to {args.out}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqz-sensor",
        description="Quantum-noise spectra of squeezed-light microresonator sensors",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="evaluate a scenario spectrum on a grid")
    p_spec.add_argument("--params", required=True, help="JSON parameter file")
    p_spec.add_argument("--scenario", required=True, choices=_SCENARIO_NAMES + (SCENARIO_SNL,))
    p_spec.add_argument("--omega-min", type=_finite_float, default=0.0)
    p_spec.add_argument("--omega-max", type=_finite_float, default=None,
                        help="default: 4 kappa_prime")
    p_spec.add_argument("--points", type=_positive_int, default=401)
    p_spec.add_argument("--normalize", action="store_true",
                        help="report S in units of kappa_prime/N and omega in kappa_prime")
    p_spec.add_argument("--out", required=True)
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_spec.set_defaults(func=cmd_spectrum)

    p_fig2 = sub.add_parser("fig2", help="emit the four reference curves")
    p_fig2.add_argument("--out-dir", required=True)
    p_fig2.add_argument("--points", type=_positive_int, default=401)
    p_fig2.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig2.set_defaults(func=cmd_fig2)

    p_val = sub.add_parser("validate", help="run the dual-oracle validation gates")
    p_val.add_argument("--params", required=True)
    p_val.add_argument("--budget", type=_positive_int, default=800,
                       help="spectral-averaging segments for the stochastic gate")
    p_val.add_argument("--seed", type=_non_negative_int, default=12345)
    p_val.add_argument("--out", default="validation_report.json")
    p_val.add_argument("--mutate", action="store_true",
                       help="negative control: corrupt the closed forms by 1 ppm")
    p_val.set_defaults(func=cmd_validate)

    p_opt = sub.add_parser("optimize", help="closed-form vs numeric design optima")
    p_opt.add_argument("--params", required=True)
    p_opt.add_argument("--target", required=True, choices=("kc", "snl_kappa", "band"))
    p_opt.add_argument("--scenario", default="double-squeeze-optimal",
                       choices=_SCENARIO_NAMES)
    p_opt.add_argument("--omega", type=_finite_float, default=1.0,
                       help="probe frequency for kc/snl_kappa targets")
    p_opt.add_argument("--omega-min", type=_finite_float, default=0.0)
    p_opt.add_argument("--omega-max", type=_finite_float, default=None,
                       help="band search upper edge, default 8 kappa_prime")
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=cmd_optimize)

    return parser


#: Built once; parsing leaves the tree unchanged, so calls can share it.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: parameter file is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except (SqzSensorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: parameters out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: requested size exceeds the available memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
