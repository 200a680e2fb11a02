"""Command-line surface: spectra, reference-figure data, validation, optimization.

All the package's file I/O is here.  Each output is written atomically
with a JSON manifest (resolved parameters, spectral-density convention,
tool version, SHA-256 of the bytes the parameters were parsed from, read
once so a pipe works as ``--params``) that recomputes it bit for bit.

Exit codes: 0 success, 1 validation-gate failure, 2 usage or input error
(bad flags, unreadable or malformed parameter files, sizes too large to
allocate).
"""

from __future__ import annotations

import argparse
import errno
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
    PSD_CONVENTION,
    SCENARIO_SNL,
    SCENARIO_TAGS,
    Scenario,
    SensorParams,
    SpectrumCurve,
    params_from_dict,
    params_to_dict,
)
from .dynamics import psd_from_response
from .errors import NoBandError, SqzSensorError

#: ``--scenario`` spellings of the scenario tags.
_SCENARIO_NAMES = tuple(tag.replace("_", "-") for tag in SCENARIO_TAGS)

_FIG2_SQUEEZE_POWER = 30.0  # exp(2r) of the reference operating point

#: Most ``--points``: 4 EiB of float64 still fails as MemoryError, while
#: numpy rejects shapes from 2**60 outright (ValueError, IndexError).
_MAX_POINTS = 2 ** 59

#: Output labels: spectra as computed, or at the sensor's unit point
#: (S in units of kappa_prime / N, omega in units of kappa_prime).
NORMALIZATION_RAW = "raw"
NORMALIZATION_KP_OVER_N = "kappa_prime_over_n"


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


def _read_params(path: str) -> tuple[SensorParams, tuple[str, str]]:
    """A JSON parameter file's parameters and ``(name, SHA-256)``, from one read."""
    data = Path(path).read_bytes()
    return (params_from_dict(json.loads(data.decode("utf-8"))),
            (path, hashlib.sha256(data).hexdigest()))


def _provenance(command: str, params: SensorParams, source=None, **fields) -> dict:
    """Every manifest and report: what produced it, from which ``source``, then ``fields``."""
    params_file, params_sha256 = source or (None, None)
    return {
        "command": command,
        "tool_version": __version__,
        # Bit-for-bit recomputation depends on numpy's noise generators,
        # FFT and elementwise arithmetic (the Langevin filter), and on
        # scipy's scalar minimizer (the numeric optima).
        "library_versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "psd_convention": PSD_CONVENTION,
        "params_file": params_file,
        "params_sha256": params_sha256,
        "params": params_to_dict(params),
        **fields,
    }


def _refuse_directory(path: Path) -> None:
    if path.is_dir():  # os.replace would fail naming the temporary file instead
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _atomic_write_text(path: Path, text: str) -> None:
    _refuse_directory(path)
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
        f"# normalization: {manifest['normalization']}",
        f"# params: {json.dumps(curve.params, sort_keys=True)}",
        "omega,S",
    ]
    lines.extend(f"{float(w)!r},{float(s)!r}" for w, s in zip(curve.omegas, curve.values))
    return "\n".join(lines) + "\n"


def _curve_json(curve: SpectrumCurve, manifest: dict) -> dict:
    return {
        "manifest": manifest,
        "scenario": curve.scenario,
        "normalization": manifest["normalization"],
        "params": curve.params,
        "omega": curve.omegas.tolist(),
        "S": curve.values.tolist(),
    }


def write_curve(path: Path, curve: SpectrumCurve, manifest: dict, fmt: str) -> None:
    """Write the curve and its manifest, checking both targets before either."""
    manifest_path = Path(str(path) + ".manifest.json")
    _refuse_directory(manifest_path)
    if fmt == "csv":
        _atomic_write_text(path, _curve_csv(curve, manifest))
    else:
        _write_json(path, _curve_json(curve, manifest))
    _write_json(manifest_path, manifest)


def _make_curve(scenario_name: str, params: SensorParams, grid: np.ndarray) -> SpectrumCurve:
    if scenario_name == SCENARIO_SNL:
        return spectra.snl_curve(params, grid)
    return spectra.scenario_curve(Scenario.from_name(scenario_name), params, grid)


def cmd_spectrum(args) -> int:
    params, source = _read_params(args.params)
    omega_max = args.omega_max if args.omega_max is not None else 4.0 * params.kappa_prime
    grid = np.linspace(args.omega_min, omega_max, args.points)
    if args.normalize:
        curve = _make_curve(args.scenario, params.unit_point(), grid / params.kappa_prime)
        normalization = NORMALIZATION_KP_OVER_N
    else:
        curve = _make_curve(args.scenario, params, grid)
        normalization = NORMALIZATION_RAW
    out = Path(args.out)
    manifest = _provenance(
        "spectrum", params, source,
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
    unit, omegas = params.unit_point(), grid / params.kappa_prime
    curves = {name: _make_curve(name, unit, omegas)
              for name in ("no_squeeze", "input_squeeze", "double_squeeze_optimal", "snl")}

    s_no = curves["no_squeeze"].values
    s_in = curves["input_squeeze"].values
    s_db = curves["double_squeeze_optimal"].values
    ordered = (s_db <= s_in) & (s_in <= s_no)
    if not np.all(ordered):
        i = int(np.argmin(ordered))
        print(
            "ordering check failed at omega = "
            f"{omegas[i]}: double={s_db[i]} input={s_in[i]} none={s_no[i]}",
            file=sys.stderr,
        )
        return 1

    out_dir = Path(args.out_dir)
    outputs = []
    manifest = _provenance(
        "fig2", params, scenario="all", normalization=NORMALIZATION_KP_OVER_N,
        grid={"omega_min": 0.0, "omega_max": 4.0 * params.kappa_prime, "points": args.points},
    )
    for name, curve in curves.items():
        path = out_dir / f"{name}.{args.format}"
        file_manifest = dict(manifest, scenario=name, outputs=[path.name])
        write_curve(path, curve, file_manifest, args.format)
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
    ).with_spm_cancelled()


def _gate(name: str, comparison: str, gate: float, measured: float, t0: float, **fields) -> dict:
    """A validation check record: it passes when ``measured <= gate``."""
    return {"name": name, "comparison": comparison, "gate": gate, "measured": measured,
            "passed": measured <= gate, **fields, "runtime_s": time.perf_counter() - t0}


def _band_estimate(run: stochastic.SimulationRun, band: np.ndarray) -> np.ndarray:
    """Signal-referred spectrum of one simulated run on ``band``."""
    return stochastic.estimate_psd(run, band, xi_referred=True).values


def run_validation(params: SensorParams, budget: int, seed: int, mutate: bool = False,
                   source=None) -> dict:
    """Run the dual-oracle validation gates and return a report dict.

    The gates run with the self-phase-modulation coupling cancelled, so
    each check records the parameters it ran at (``params``; the
    stochastic gate one set and seed per scenario, under ``runs``).
    The stochastic gate's three runs are planned on the calling thread,
    in scenario order, so a run too large to address stops the gate
    before any is integrated; they are then integrated on up to three
    threads, longest first, and read in scenario order, so the report
    does not depend on the core count.  ``mutate`` perturbs the closed-form
    reference by one part per million as a negative control; the gates
    must then fail.  ``source``, the parameter file's ``(name, SHA-256)``
    from :func:`_read_params`, is recorded; this function opens no file.
    """
    checks = []
    params_c = params.with_spm_cancelled()
    corrupt = 1.0 + 1e-6 if mutate else 1.0
    materialized = {scenario.tag: scenario.materialize(params_c) for scenario in
                    (Scenario.no_squeeze(), Scenario.input_squeeze(),
                     Scenario.double_squeeze_optimal())}

    # Gate 1: frequency-domain solver against the closed forms.
    t0 = time.perf_counter()
    grid, probes = np.linspace(0.0, 4.0 * params_c.kappa, 65), np.linspace(0.0, 4.0, 17)
    rng = np.random.default_rng(seed)
    points = itertools.chain(
        ((p, grid) for p in materialized.values()),
        ((_random_cancelled_params(rng), probes) for _ in range(20)),
    )
    worst = 0.0
    for p, omegas in points:
        oracle = psd_from_response(p, omegas).values
        closed = spectra.scenario_curve(Scenario.custom(), p, omegas).values * corrupt
        worst = max(worst, float(np.max(np.abs(oracle - closed) / closed)))
    checks.append(_gate("frequency_domain_solver_vs_closed_forms", "max relative deviation",
                        1e-12, worst, t0, params=params_to_dict(params_c)))

    # Gate 2: numeric gain optimum against the closed form, in units of kappa.
    t0 = time.perf_counter()
    closed_kc = optimize.optimal_kc(params_c)
    deltas = [
        abs(optimize.numeric_min_kc(params_c, omega_probe=w).argmin - closed_kc) / params_c.kappa
        for w in (0.0, params_c.kappa_prime)
    ]
    checks.append(_gate("numeric_kc_minimum_vs_closed_form", "max absolute deviation over kappa",
                        1e-8, max(deltas), t0, params=params_to_dict(params_c)))

    # Gate 3: stochastic simulator against the closed forms.  Every run
    # is sized, then planned on this thread in scenario order, and its
    # closed form evaluated, before any is integrated: a run that no
    # process could address stops the gate before any run is spent.
    t0 = time.perf_counter()
    band = np.linspace(0.2 * params_c.kappa_prime, 3.0 * params_c.kappa_prime, 36)
    configs, closed, runs = {}, {}, {}
    for i, (tag, params_m) in enumerate(materialized.items()):
        configs[tag] = stochastic.spectral_comparison_config(params_m, budget, seed + i)
        closed[tag] = spectra.measurement_psd_raw(params_m, band)
        runs[tag] = {"params": params_to_dict(params_m), "seed": configs[tag].seed}
    planned = {tag: stochastic.simulate(materialized[tag], config)
               for tag, config in configs.items()}
    longest_first = sorted(planned, key=lambda tag: planned[tag].n_samples, reverse=True)
    with ThreadPoolExecutor(max_workers=min(len(planned), os.cpu_count() or 1)) as pool:
        futures = {tag: pool.submit(_band_estimate, planned[tag], band) for tag in longest_first}
        estimates = {tag: futures[tag].result() for tag in runs}
    details = {tag: float(np.sqrt(np.mean((estimates[tag] / closed[tag] - 1.0) ** 2)))
               for tag in runs}
    checks.append(_gate("stochastic_simulator_vs_closed_forms",
                        "max rms relative deviation over [0.2, 3] kappa_prime",
                        0.05, max(details.values()), t0, details=details, runs=runs))

    return _provenance("validate", params, source, budget=budget, seed=seed, mutate=mutate,
                       checks=checks, passed=all(c["passed"] for c in checks))


def cmd_validate(args) -> int:
    params, source = _read_params(args.params)
    report = run_validation(params, budget=args.budget, seed=args.seed, mutate=args.mutate,
                            source=source)
    out = Path(args.out)
    _write_json(out, report)
    for check in report["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"{verdict} {check['name']}: measured {check['measured']:.3e} "
              f"(gate {check['gate']:.0e}, {check['runtime_s']:.2f} s)")
    print(f"report written to {out}")
    return 0 if report["passed"] else 1


def cmd_optimize(args) -> int:
    params, source = _read_params(args.params)
    result = _provenance("optimize", params, source, target=args.target)
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


def _int_flag(low: int, high: float = math.inf):
    """An argparse type for the integers in ``[low, high]``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return integer  # argparse names it in "invalid integer value"



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
    p_spec.add_argument("--points", type=_int_flag(1, _MAX_POINTS), default=401)
    p_spec.add_argument("--normalize", action="store_true",
                        help="report S in units of kappa_prime/N and omega in kappa_prime")
    p_spec.add_argument("--out", required=True)
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_spec.set_defaults(func=cmd_spectrum)

    p_fig2 = sub.add_parser("fig2", help="emit the four reference curves")
    p_fig2.add_argument("--out-dir", required=True)
    p_fig2.add_argument("--points", type=_int_flag(1, _MAX_POINTS), default=401)
    p_fig2.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig2.set_defaults(func=cmd_fig2)

    p_val = sub.add_parser("validate", help="run the dual-oracle validation gates")
    p_val.add_argument("--params", required=True)
    p_val.add_argument("--budget", type=_int_flag(1), default=800,
                       help="spectral-averaging segments for the stochastic gate")
    p_val.add_argument("--seed", type=_int_flag(0), default=12345)
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
