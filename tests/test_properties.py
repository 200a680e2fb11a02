"""Property tests: band edges, closed forms, optima, spectrum curves and parameter
files on random inputs.

Every oracle here is independent of the code it checks: band edges come
from a companion-matrix root solver on a quadratic whose omega^2
coefficient is written out below and whose floor is the frequency-domain
solver at DC; closed forms are checked against that solver over the whole
grid; closed-form optima are checked against numeric minima of the
spectrum.  Examples are derandomized so the suite stays deterministic.
"""

import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sqz_sensor as sq
from sqz_sensor import NoBandError, Scenario, SensorParams
from sqz_sensor.cli import main

from conftest import load_strict_json

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

SCENARIOS = (Scenario.no_squeeze(), Scenario.input_squeeze(), Scenario.double_squeeze_optimal())


@st.composite
def cancelled_params(draw) -> SensorParams:
    """Stable draws with the spurious coupling cancelled (k_c = 0).

    Efficiencies stop short of 1 so that no draw puts the optimal gain on
    the stability edge of a lossless resonator.
    """
    n_photons = math.exp(draw(st.floats(math.log(0.25), math.log(4.0))))
    gamma_spm = draw(st.floats(0.0, 0.2))
    return SensorParams(
        kappa_prime=1.0,
        kappa_double_prime=draw(st.floats(0.0, 0.5)),
        eta=draw(st.floats(0.3, 0.99)),
        n_photons=n_photons,
        gamma_spm=gamma_spm,
        r_squeeze=draw(st.floats(0.0, 1.5)),
        k_s=2.0 * gamma_spm * n_photons,
    )


def quadratic_roots(params_m: SensorParams) -> np.ndarray:
    """Roots of S(w) - w/(4N) with S = c2 w^2 + S(0), S(0) from the solver."""
    c2 = (math.exp(-2.0 * params_m.r_squeeze) + params_m.epsilon_sq) / (
        8.0 * params_m.kappa_prime * params_m.n_photons)
    c0 = sq.psd_from_response(params_m, np.array([0.0])).values[0]
    return np.roots([c2, -0.25 / params_m.n_photons, c0])


# Hypothesis favours the first choice, so the scenarios that have bands
# come first.
@settings(PROPERTY_SETTINGS, max_examples=400)
@given(params=cancelled_params(), scenario=st.sampled_from(SCENARIOS[::-1]),
       ends=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)))
def test_band_edges_match_quadratic_roots(params, scenario, ends):
    params_m = scenario.materialize(params)
    roots = quadratic_roots(params_m)
    vertex = float(np.mean(roots.real))
    # Near a tangency the roots are ill-conditioned; the tangency case has
    # its own deterministic tests.
    assume(abs(roots[1] - roots[0]) > 1e-6 * vertex)
    band_exists = not np.iscomplexobj(roots) or np.all(roots.imag == 0.0)
    lower, upper = sorted(float(r) for r in roots.real) if band_exists else (0.0, 2.0 * vertex)
    # Interval ends in units of the band (of twice the vertex without a
    # band), so that intervals lie inside the band, clip it, contain it or
    # miss it.
    lo, hi = (max(lower + e * (upper - lower), 0.0) for e in sorted(ends))
    assume(hi > lo)
    clipped = (max(lower, lo), min(upper, hi))
    # An interval end within the gate of a band edge may fall either way.
    assume(abs(clipped[1] - clipped[0]) > 1e-8)

    if not band_exists or clipped[0] > clipped[1]:
        with pytest.raises(NoBandError):
            sq.snl_crossings(scenario, params, (lo, hi))
    else:
        band = sq.snl_crossings(scenario, params, (lo, hi))
        assert band.lower == pytest.approx(clipped[0], abs=1e-8)
        assert band.upper == pytest.approx(clipped[1], abs=1e-8)


@PROPERTY_SETTINGS
@given(params=cancelled_params(),
       scenario=st.sampled_from((*SCENARIOS, Scenario.custom())),
       kc_fraction=st.floats(-0.9, 0.9),
       omegas=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8, unique=True).map(sorted))
def test_closed_form_matches_frequency_domain_solver(params, scenario, kc_fraction, omegas):
    params = replace(params, k_c=kc_fraction * params.kappa)
    params_m = scenario.materialize(params)
    w = np.array(omegas)
    oracle = sq.psd_from_response(params_m, w).values
    assert sq.closed_form_psd(scenario, params_m, w) == pytest.approx(oracle, rel=1e-12)


@PROPERTY_SETTINGS
@given(kpp=st.floats(0.0, 2.0), eta=st.floats(0.05, 0.99), r_squeeze=st.floats(0.0, 4.0),
       log_n=st.floats(-5.0, 5.0))
def test_numeric_kc_optimum_matches_closed_form(kpp, eta, r_squeeze, log_n):
    params = SensorParams(kappa_prime=1.0, kappa_double_prime=kpp, eta=eta,
                          n_photons=math.exp(log_n), r_squeeze=r_squeeze)
    res = sq.numeric_min_kc(params)
    closed = sq.optimal_kc(params)
    if params.kappa - abs(closed) <= 1e-5 * params.kappa:
        # Within the polish spacing of the stability edge.
        assert res.boundary
    else:
        assert abs(res.argmin - closed) <= 1e-8 * params.kappa


@PROPERTY_SETTINGS
@given(log_omega=st.floats(-4.0, 4.0), sign=st.sampled_from((1.0, -1.0)),
       log_n=st.floats(-3.0, 3.0))
def test_numeric_kappa_optimum_matches_closed_form(log_omega, sign, log_n):
    omega, n_photons = sign * 10.0 ** log_omega, 10.0 ** log_n
    res = sq.numeric_min_kappa(omega, n_photons)
    closed = sq.snl_optimal_kappa(omega, n_photons)
    assert not res.boundary
    assert res.argmin == pytest.approx(closed.argmin, rel=1e-10)
    assert res.value == pytest.approx(closed.value, rel=1e-10)


@PROPERTY_SETTINGS
@given(params=cancelled_params(), scenario=st.sampled_from(SCENARIOS),
       omegas=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8, unique=True).map(sorted))
def test_spectrum_curves_keep_their_invariants(params, scenario, omegas):
    base = np.array(omegas + omegas)
    grid = base[:len(omegas)]
    raw = [sq.scenario_curve(scenario, params, grid), sq.snl_curve(params, grid),
           sq.psd_from_response(scenario.materialize(params), grid)]
    unit, unit_grid = params.unit_point(), grid / params.kappa_prime
    assert params.is_spm_cancelled and unit.is_spm_cancelled
    normalized = [sq.scenario_curve(scenario, unit, unit_grid), sq.snl_curve(unit, unit_grid),
                  sq.psd_from_response(scenario.materialize(unit), unit_grid)]
    # The curves neither freeze the caller's grid nor share memory with it.
    assert grid.flags.writeable
    base[:] = -1.0
    for curve in raw + normalized:
        for array in (curve.omegas, curve.values):
            assert not array.flags.writeable
            assert array.base is None or not array.base.flags.writeable
        assert np.all(np.diff(curve.omegas) > 0.0)
        if curve.scenario == "snl":
            assert np.all(curve.values >= 0.0)
        else:
            assert np.all(curve.values > 0.0)


@st.composite
def power_of_four_exponents(draw, lowest: int = -500) -> tuple[int, int]:
    """Exponents ``(k, j)`` of an exact rescaling of a parameter set.

    Rates are multiplied by ``4^k``, the photon number by ``4^j`` and
    ``gamma_spm``, a rate per photon, by ``4^(k - j)``, with k and j in
    [-500, 500].  Spectra then scale by ``4^(k - j)``, kept in
    [``lowest``, 500] so that every spectrum is a normal float.
    """
    k = draw(st.integers(-500, 500))
    return k, draw(st.integers(max(-500, k - 500), min(500, k - lowest)))


def rescaled(params: SensorParams, k: int, j: int) -> SensorParams:
    """``params`` rescaled as :func:`power_of_four_exponents` describes."""
    rates = {name: math.ldexp(getattr(params, name), 2 * k)
             for name in ("kappa_prime", "kappa_double_prime", "k_c", "k_s")}
    return replace(params, **rates, n_photons=math.ldexp(params.n_photons, 2 * j),
                   gamma_spm=math.ldexp(params.gamma_spm, 2 * (k - j)))


def assert_scales_exactly(call, rescaled_call, exponent: int):
    """``rescaled_call()`` is ``call()`` times ``2^exponent`` bit for bit,
    or both raise the same package error."""
    try:
        expected = np.ldexp(np.asarray(call(), dtype=float), exponent)
    except sq.SqzSensorError as exc:
        with pytest.raises(type(exc)):
            rescaled_call()
        return
    assert np.array_equal(np.asarray(rescaled_call(), dtype=float), expected)


def band_edges(scenario: Scenario, params: SensorParams, hi: float) -> tuple[float, float]:
    band = sq.snl_crossings(scenario, params, (0.0, hi))
    return band.lower, band.upper


@PROPERTY_SETTINGS
@given(params=cancelled_params(), kc_fraction=st.floats(-0.9, 0.9),
       exponents=power_of_four_exponents(),
       omegas=st.lists(st.floats(1e-3, 20.0), max_size=8, unique=True).map(sorted))
def test_outputs_scale_exactly_with_the_rates(params, kc_fraction, exponents, omegas):
    # Closed forms, band edges, the loss-optimal gain and the solver are
    # written in units of kappa, so no squared rate or photon number can
    # leave floating-point range where the answer itself does not.  The
    # grid starts at DC and stays clear of frequencies that would rescale
    # to subnormals.
    k, j = exponents
    params = replace(params, k_c=kc_fraction * params.kappa)
    big = rescaled(params, k, j)
    w = np.array([0.0, *omegas])
    w_big = np.ldexp(w, 2 * k)
    for scenario in (*SCENARIOS, Scenario.custom()):
        assert_scales_exactly(lambda: sq.closed_form_psd(scenario, params, w),
                              lambda: sq.closed_form_psd(scenario, big, w_big), 2 * (k - j))
        assert_scales_exactly(lambda: band_edges(scenario, params, 8.0),
                              lambda: band_edges(scenario, big, math.ldexp(8.0, 2 * k)), 2 * k)
    assert_scales_exactly(lambda: sq.optimal_kc(params), lambda: sq.optimal_kc(big), 2 * k)
    for xi_referred, exponent in ((True, 2 * (k - j)), (False, 0)):
        assert_scales_exactly(lambda: sq.psd_from_response(params, w, xi_referred).values,
                              lambda: sq.psd_from_response(big, w_big, xi_referred).values,
                              exponent)


@PROPERTY_SETTINGS
@given(params=cancelled_params(), kc_fraction=st.floats(-0.9, 0.9),
       exponents=power_of_four_exponents(),
       omegas=st.lists(st.floats(1e-3, 20.0), max_size=8, unique=True).map(sorted))
def test_unit_point_curves_are_the_raw_curves_times_n_over_kappa_prime(params, kc_fraction,
                                                                        exponents, omegas):
    # At kappa' = 4^k and N = 4^j, N / kappa' is a power of two, so the
    # normalized spectrum is the raw one rescaled bit for bit.
    k, j = exponents
    big = rescaled(replace(params, n_photons=1.0, k_c=kc_fraction * params.kappa), k, j)
    unit = big.unit_point()
    assert unit.unit_point() == unit
    assert (unit.kappa_prime, unit.n_photons, unit.units) == (1.0, 1.0, "kappa_prime")
    w_big = np.ldexp(np.array([0.0, *omegas]), 2 * k)
    unit_grid = w_big / big.kappa_prime
    pairs = [(sq.snl_curve(big, w_big), sq.snl_curve(unit, unit_grid))]
    pairs += [(sq.scenario_curve(scenario, big, w_big), sq.scenario_curve(scenario, unit, unit_grid))
              for scenario in (*SCENARIOS, Scenario.custom())]
    for raw, normalized in pairs:
        assert np.array_equal(normalized.omegas, np.ldexp(raw.omegas, -2 * k))
        assert np.array_equal(normalized.values, np.ldexp(raw.values, 2 * (j - k)))


# Below spectra of about 2^-900, Brent's products of a step and an
# objective difference become subnormal and the search path changes.
@PROPERTY_SETTINGS
@given(params=cancelled_params(), exponents=power_of_four_exponents(lowest=-400),
       omega=st.floats(0.0, 4.0))
def test_numeric_kc_optimum_scales_exactly_with_the_rates(params, exponents, omega):
    k, j = exponents
    big = rescaled(params, k, j)

    def optimum(p, w):
        res = sq.numeric_min_kc(p, w)
        return res.argmin, res.value, res.boundary

    at_one, at_big = optimum(params, omega), optimum(big, math.ldexp(omega, 2 * k))
    assert at_big == (math.ldexp(at_one[0], 2 * k), math.ldexp(at_one[1], 2 * (k - j)),
                      at_one[2])


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(params=cancelled_params(), k=st.integers(-5, 30),
       method=st.sampled_from(("euler", "exact")), seed=st.integers(0, 2**32 - 1),
       omegas=st.lists(st.floats(1e-3, 4.0), max_size=8, unique=True).map(sorted))
def test_stochastic_outputs_scale_exactly_with_the_rates(params, k, method, seed, omegas):
    # Rates times 4^k with dt, the duration and the probe divided or
    # multiplied to match: the same normals drive the same filters, the
    # detector scales by 2^k, and the signal-referred estimate by 4^k.
    # The gain, a detector amplitude per probe amplitude, scales by 2^-k.
    big = rescaled(params, k, 0)
    cfg = sq.SimulationConfig(dt=0.05, duration=40.0, seed=seed, n_segments=4, method=method)
    big_cfg = replace(cfg, dt=math.ldexp(cfg.dt, -2 * k), duration=math.ldexp(cfg.duration, -2 * k))
    w = np.array([0.0, *omegas])
    estimate = sq.estimate_psd(sq.simulate(params, cfg), w, xi_referred=True).values
    big_estimate = sq.estimate_psd(sq.simulate(big, big_cfg), np.ldexp(w, 2 * k),
                                   xi_referred=True).values
    assert np.array_equal(big_estimate, np.ldexp(estimate, 2 * k))
    # A probe of 8 kappa' puts every draw's gain well above the SNR floor.
    gain_cfg = replace(cfg, duration=200.0)
    big_gain_cfg = replace(big_cfg, duration=math.ldexp(gain_cfg.duration, -2 * k))
    gain = sq.measure_gain(params, 1.0, 8.0, gain_cfg)
    big_gain = sq.measure_gain(big, math.ldexp(1.0, 2 * k), math.ldexp(8.0, 2 * k), big_gain_cfg)
    assert big_gain == math.ldexp(gain, -k)


VALID_FILE = {
    "kappa_prime": 1.0,
    "kappa_double_prime": 0.1,
    "eta": 0.7,
    "n_photons": 1.0,
    "r_squeeze": 1.7,
}
FILE_KEYS = sorted(VALID_FILE) + [
    "gamma_spm", "squeeze_db", "k_c", "k_s", "auto_spm_cancel", "units", "bandwidth"]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20), st.floats(),
    st.text(max_size=6), st.lists(st.floats(0.0, 2.0), max_size=2),
    st.sampled_from(["kappa_prime", "si", "true", "1.0"]),
)
#: The keys whose magnitude sets the float range of the outputs, and
#: extreme magnitudes for them.  Drawn from all doubles, the one key that
#: matters almost never gets such a value, so the fuzz draws them per key
#: and a sweep puts each one on every command.
EXTREME_KEYS = ("n_photons", "kappa_double_prime", "kappa_prime", "k_c", "k_s", "r_squeeze")
EXTREME_MAGNITUDES = (1e-300, 1e-200, 1e160, 1e300)
COMMANDS = (
    ["spectrum", "--scenario", "no-squeeze", "--points", "5"],
    ["spectrum", "--scenario", "input-squeeze", "--points", "5"],
    ["spectrum", "--scenario", "double-squeeze-optimal", "--points", "5"],
    ["spectrum", "--scenario", "custom", "--points", "5"],
    ["spectrum", "--scenario", "snl", "--points", "5"],
    ["optimize", "--target", "kc"],
    ["optimize", "--target", "snl_kappa"],
    ["optimize", "--target", "band", "--scenario", "input-squeeze"],
    ["optimize", "--target", "band", "--scenario", "double-squeeze-optimal"],
)


def assert_exits_cleanly(data: dict, command: list) -> str:
    """Run ``command`` on a parameter file holding ``data``: it exits 0 and
    leaves strict JSON and finite CSV values behind, or exits 2 with a
    one-line error.  Returns what it wrote to stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        pfile = Path(tmp) / "params.json"
        pfile.write_text(json.dumps(data))
        out = Path(tmp) / ("curve.csv" if command[0] == "spectrum" else "result.json")
        rc = main([command[0], "--params", str(pfile), *command[1:], "--out", str(out)])
        if rc == 0:
            for path in Path(tmp).glob("*.json"):
                load_strict_json(path.read_text())
            for path in Path(tmp).glob("*.csv"):
                rows = [line.split(",") for line in path.read_text().splitlines()
                        if not line.startswith("#")][1:]
                assert np.all(np.isfinite(np.array(rows, dtype=float)))
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return err.getvalue()


@PROPERTY_SETTINGS
@given(dropped=st.sets(st.sampled_from(sorted(VALID_FILE)), max_size=1),
       overrides=st.dictionaries(st.sampled_from(FILE_KEYS), JSON_VALUES, max_size=3),
       extremes=st.dictionaries(st.sampled_from(EXTREME_KEYS),
                                st.sampled_from(EXTREME_MAGNITUDES), max_size=2),
       command=st.sampled_from(COMMANDS))
def test_parameter_file_fuzz_exits_cleanly(dropped, overrides, extremes, command):
    data = {k: v for k, v in VALID_FILE.items() if k not in dropped} | overrides | extremes
    assert_exits_cleanly(data, command)


#: Files that put the spectrum scale (kappa / 8N) (kappa / kappa_prime),
#: the loss factor (1 - eta) / eta, the loss-optimal gain or the
#: cancelling gain 2 gamma N beyond floating-point range (or the optimum
#: onto the stability edge).
OUT_OF_RANGE_FILES = (
    {"kappa_prime": 1e-200, "n_photons": 1e-200},
    {"kappa_prime": 1e-30, "n_photons": 1e-300},
    {"kappa_prime": 1e-200, "kappa_double_prime": 1e-200, "n_photons": 1e200},
    {"eta": 5e-324},
    {"eta": 1e-308},
    {"kappa_prime": 1e-300},
    {"kappa_prime": 1e-320},
    {"gamma_spm": 1e200, "n_photons": 1e200, "auto_spm_cancel": True},
)


@pytest.mark.parametrize("command", COMMANDS + (["validate", "--budget", "4"],), ids=" ".join)
@pytest.mark.parametrize("overrides", OUT_OF_RANGE_FILES, ids=json.dumps)
def test_out_of_range_files_name_their_keys(command, overrides):
    error = assert_exits_cleanly(VALID_FILE | overrides, command)
    if error:
        assert any(f"{key} = {value!r}" in error for key, value in overrides.items())
        assert "float division by zero" not in error


#: Files whose squeeze factor or efficiency ``SensorParams`` rejects:
#: ``exp(2r)`` or the loss factor ``(1 - eta) / eta`` overflows.
REJECTED_FILES = ({"r_squeeze": 400.0}, {"eta": 5e-324})


@pytest.mark.parametrize("command", COMMANDS + (["validate", "--budget", "4"],), ids=" ".join)
@pytest.mark.parametrize("overrides", REJECTED_FILES, ids=json.dumps)
def test_rejected_files_exit_2_naming_their_key(command, overrides):
    error = assert_exits_cleanly(VALID_FILE | overrides, command)
    (key, value), = overrides.items()
    assert error.startswith(f"error: {key} = {value!r}")


@pytest.mark.parametrize("magnitude", EXTREME_MAGNITUDES)
@pytest.mark.parametrize("key", EXTREME_KEYS)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_parameter_file_fuzz_at_extreme_magnitudes(command, key, magnitude):
    error = assert_exits_cleanly(VALID_FILE | {key: magnitude}, command)
    # The file is finite, so a NaN in the error comes from a computation
    # that broke down, not from a check of the input; a raw overflow text
    # names no parameter.
    assert not re.search(r"\bnan\b", error, flags=re.IGNORECASE)
    assert "Numerical result out of range" not in error
    assert "math range error" not in error
