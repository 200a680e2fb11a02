import math
import sys
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

import sqz_sensor as sq
from sqz_sensor import (
    ConfigError,
    RangeError,
    Scenario,
    ScenarioMismatchError,
    SensorParams,
    SpectrumCurve,
)

from conftest import random_cancelled_params

SCENARIOS = (Scenario.no_squeeze(), Scenario.input_squeeze(), Scenario.double_squeeze_optimal())
SPEED_OF_LIGHT = 299792458.0


class TestSensorParams:
    def test_fig2_derived_quantities(self, fig2_params):
        assert fig2_params.kappa == pytest.approx(1.1, rel=1e-15)
        assert fig2_params.epsilon_sq == pytest.approx(3.0 / 7.0, rel=1e-14)
        assert math.exp(2.0 * fig2_params.r_squeeze) == pytest.approx(30.0, rel=1e-12)
        assert fig2_params.beta == 1.0

    def test_lossless_detection(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0, n_photons=1.0)
        assert p.epsilon_sq == 0.0

    def test_unstable_kc_rejected(self):
        with pytest.raises(RangeError, match="k_c"):
            SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1.0, k_c=1.2)

    @pytest.mark.parametrize("field,value", [
        ("kappa_prime", 0.0),
        ("kappa_prime", -1.0),
        ("kappa_double_prime", -0.1),
        ("eta", 0.0),
        ("eta", 1.2),
        ("n_photons", 0.0),
        ("gamma_spm", -0.5),
        ("r_squeeze", -0.1),
        ("kappa_prime", math.nan),
    ])
    def test_range_errors_name_offending_field(self, field, value):
        kwargs = dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0)
        kwargs[field] = value
        with pytest.raises(RangeError, match=field):
            SensorParams(**kwargs)

    def test_infinite_rate_rejected(self):
        with pytest.raises(RangeError, match="kappa_prime must be finite"):
            SensorParams(kappa_prime=math.inf, kappa_double_prime=0.1, eta=0.7, n_photons=1.0)

    def test_derived_kappa_must_be_finite(self):
        with pytest.raises(RangeError, match="kappa = kappa_prime"):
            SensorParams(kappa_prime=1e308, kappa_double_prime=1e308, eta=0.7,
                         n_photons=1.0)

    def test_squeeze_factor_up_to_where_exp_2r_is_finite(self):
        r_max = 0.5 * math.log(sys.float_info.max)
        base = dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0)
        p = SensorParams(**base, r_squeeze=r_max)
        assert math.exp(2.0 * p.r_squeeze) < math.inf and math.exp(-2.0 * p.r_squeeze) > 0.0
        above = math.nextafter(r_max, math.inf)
        with pytest.raises(RangeError, match=f"r_squeeze = {above!r}"):
            SensorParams(**base, r_squeeze=above)

    @pytest.mark.parametrize("eta, accepted", [(1e-308, True), (5e-324, False)])
    def test_efficiency_where_the_loss_factor_is_finite(self, eta, accepted):
        base = dict(kappa_prime=1.0, kappa_double_prime=0.1, n_photons=1.0)
        if accepted:
            assert SensorParams(**base, eta=eta).epsilon_sq < math.inf
        else:
            with pytest.raises(RangeError, match=f"eta = {eta!r}"):
                SensorParams(**base, eta=eta)

    def test_bad_units_rejected(self):
        with pytest.raises(RangeError, match="units"):
            SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0,
                         n_photons=1.0, units="hertz")

    def test_epsilon_sq_strictly_decreasing(self):
        etas = np.linspace(0.05, 1.0, 200)
        eps = [(1.0 - e) / e for e in etas]
        p_half = SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=0.5, n_photons=1.0)
        assert p_half.epsilon_sq == pytest.approx(1.0, rel=1e-15)
        values = [
            SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=float(e), n_photons=1.0).epsilon_sq
            for e in etas
        ]
        assert np.all(np.diff(values) < 0.0)
        assert values == pytest.approx(eps)

    def test_kappa_is_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            kp = rng.uniform(0.1, 10.0)
            kpp = rng.uniform(0.0, 5.0)
            p = SensorParams(kappa_prime=kp, kappa_double_prime=kpp, eta=0.9, n_photons=1.0)
            assert p.kappa == kp + kpp

    def test_immutable(self, fig2_params):
        with pytest.raises(AttributeError):
            fig2_params.eta = 0.5

    def test_unit_point(self):
        p = SensorParams(kappa_prime=2.0, kappa_double_prime=0.5, eta=0.7, n_photons=8.0,
                         gamma_spm=0.25, r_squeeze=1.0, k_c=-1.0, k_s=3.0, units="si")
        assert p.unit_point() == SensorParams(
            kappa_prime=1.0, kappa_double_prime=0.25, eta=0.7, n_photons=1.0, gamma_spm=1.0,
            r_squeeze=1.0, k_c=-0.5, k_s=1.5, units="kappa_prime")

    def test_unit_point_where_gamma_n_overflows(self):
        # gamma_spm N is 1e400, beyond floating-point range, but the rate
        # gamma_spm N / kappa_prime at the unit point is 1e200.
        p = SensorParams(kappa_prime=1e200, kappa_double_prime=0.0, eta=0.7, n_photons=1e200,
                         gamma_spm=1e200)
        assert p.unit_point().gamma_spm == pytest.approx(1e200, rel=1e-15)

    def test_unit_point_of_a_cancelled_point_with_subnormal_2_gamma_n(self):
        # 2 gamma N = 2.37e-321 keeps two digits, gamma N / kappa_prime all
        # of its subnormal ones: k_s / kappa_prime is 5e-322, 2 gamma' 5.04e-322.
        p = SensorParams(kappa_prime=4.743, kappa_double_prime=0.1, eta=0.7, n_photons=1.261,
                         gamma_spm=9.4e-322).with_spm_cancelled()
        unit = p.unit_point()
        assert p.is_spm_cancelled and unit.is_spm_cancelled
        assert unit.k_s == 2.0 * unit.gamma_spm != p.k_s / p.kappa_prime
        assert unit.unit_point() == unit

    def test_unit_points_in_range_are_unchanged(self):
        # Where nothing is subnormal, 2 gamma' is k_s / kappa_prime bit
        # for bit: the reference point, the fig2 file and random draws.
        from test_cli import FIG2_FILE

        rng = np.random.default_rng(41)
        points = [sq.cli.reference_params(), sq.params_from_dict(FIG2_FILE)]
        for _ in range(500):
            p, scale = random_cancelled_params(rng), math.exp(rng.uniform(-30.0, 30.0))
            points.append(replace(p, **{name: getattr(p, name) * scale for name in (
                "kappa_prime", "kappa_double_prime", "k_c", "gamma_spm")}).with_spm_cancelled())
        for p in points:
            kp = p.kappa_prime
            assert p.unit_point() == replace(
                p, kappa_prime=1.0, n_photons=1.0, units="kappa_prime",
                kappa_double_prime=p.kappa_double_prime / kp, k_c=p.k_c / kp,
                k_s=p.k_s / kp, gamma_spm=p.gamma_spm * p.n_photons / kp)

    @pytest.mark.parametrize("field, kwargs", [
        ("kappa_double_prime", dict(kappa_prime=1e-300, kappa_double_prime=1e10)),
        ("gamma_spm", dict(gamma_spm=1e300, n_photons=1e10)),
    ])
    def test_unit_point_beyond_float_range(self, field, kwargs):
        p = SensorParams(**(dict(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                                 n_photons=1.0) | kwargs))
        with pytest.raises(RangeError, match=f"^{field} = .* beyond floating-point range"):
            p.unit_point()


class TestRateHelpers:
    def test_quality_factor_conversion(self):
        kp, kpp = sq.rates_from_quality(2e15, 1e9, 10.0)
        assert kpp == pytest.approx(1e6, rel=1e-15)
        assert kp == pytest.approx(1e7, rel=1e-15)
        assert kp / (2.0 * math.pi) == pytest.approx(1.5915494309189535e6, rel=1e-12)

    def test_quality_inverse_proportionality(self):
        kp1, kpp1 = sq.rates_from_quality(2e15, 1e9, 10.0)
        kp2, kpp2 = sq.rates_from_quality(2e15, 1e10, 10.0)
        assert kpp2 == pytest.approx(kpp1 / 10.0, rel=1e-15)
        assert kp2 == pytest.approx(kp1 / 10.0, rel=1e-15)

    def test_quality_conversion_at_1064nm(self):
        # Recompute the eigenfrequency exactly instead of the rounded
        # 2e15 rad/s figure.
        omega_0 = 2.0 * math.pi * SPEED_OF_LIGHT / 1064e-9
        kp, _ = sq.rates_from_quality(omega_0, 1e9, 10.0)
        assert kp == pytest.approx(10.0 * omega_0 / 2e9, rel=1e-15)
        assert kp / (2.0 * math.pi) == pytest.approx(1.41e6, rel=2e-3)

    @pytest.mark.parametrize("args", [(0.0, 1e9, 10.0), (2e15, 0.0, 10.0), (2e15, 1e9, -1.0)])
    def test_quality_conversion_rejects_nonpositive(self, args):
        with pytest.raises(RangeError):
            sq.rates_from_quality(*args)

    @pytest.mark.parametrize("call", [
        lambda: sq.rates_from_quality(math.nan, 1e9, 10.0),
        lambda: sq.rates_from_quality(2e15, math.inf, 10.0),
        lambda: sq.rates_from_quality(2e15, 1e9, math.nan),
        lambda: sq.spm_cancelling_ks(math.nan, 1.0),
        lambda: sq.spm_cancelling_ks(0.05, math.inf),
        lambda: sq.snl_optimal_kappa(1.0, math.nan),
        lambda: sq.snl_optimal_kappa(1.0, math.inf),
    ], ids=["rates-omega-nan", "rates-q-inf", "rates-ratio-nan", "spm-gamma-nan",
            "spm-n-inf", "snl-kappa-n-nan", "snl-kappa-n-inf"])
    def test_scalar_helpers_reject_non_finite_inputs(self, call):
        with pytest.raises(RangeError, match="finite"):
            call()

    def test_spm_cancelling_gain(self):
        assert sq.spm_cancelling_ks(0.0, 1.0) == 0.0
        assert sq.spm_cancelling_ks(0.05, 4.0) == pytest.approx(0.4, rel=1e-15)

    def test_squeeze_db_conversion(self):
        r = sq.r_from_db(15.0)
        assert math.exp(2.0 * r) == pytest.approx(10.0 ** 1.5, rel=1e-12)
        assert sq.r_from_db(0.0) == 0.0
        # a power factor of 30 is a squeezing level just under 15 dB
        assert sq.r_from_db(14.77) == pytest.approx(0.5 * math.log(30.0),
                                                    abs=0.01 * math.log(10.0) / 20.0)

    def test_with_spm_cancelled(self):
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=4.0, gamma_spm=0.05)
        assert not p.is_spm_cancelled
        pc = p.with_spm_cancelled()
        assert pc.k_s == pytest.approx(0.4, rel=1e-15)
        assert pc.is_spm_cancelled
        # The rule is exact: 2 * 0.1 * 3 is 0.6000000000000001, not 0.6.
        near = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                            n_photons=3.0, gamma_spm=0.1, k_s=0.6)
        assert not near.is_spm_cancelled
        assert near.with_spm_cancelled().is_spm_cancelled

    def test_no_finite_k_s_cancels_an_overflowing_2_gamma_n(self):
        # 2 gamma_spm N is 2e310: the answer is False, and the unit point and
        # a simulation still refuse the point naming gamma_spm (exit code 2).
        p = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7,
                         n_photons=1e10, gamma_spm=1e300)
        assert p.is_spm_cancelled is False
        with pytest.raises(RangeError, match="^gamma_spm = .* beyond floating-point range"):
            p.unit_point()
        with pytest.raises(RangeError, match="^gamma_spm = .* overflows"):
            sq.simulate(p, sq.SimulationConfig(dt=0.01, duration=10.0, seed=1))


class TestScenario:
    def test_no_squeeze_materialization(self, fig2_params):
        p = Scenario.no_squeeze().materialize(fig2_params)
        assert p.r_squeeze == 0.0 and p.k_c == 0.0

    def test_input_squeeze_materialization(self, fig2_params):
        p = Scenario.input_squeeze().materialize(replace(fig2_params, k_c=0.3))
        assert p.k_c == 0.0
        assert p.r_squeeze == fig2_params.r_squeeze

    def test_double_squeeze_materialization_deterministic(self, fig2_params):
        p1 = Scenario.double_squeeze_optimal().materialize(fig2_params)
        p2 = Scenario.double_squeeze_optimal().materialize(fig2_params)
        assert p1.k_c == p2.k_c == sq.optimal_kc(fig2_params)

    def test_custom_materialization(self, fig2_params):
        p = Scenario.custom().materialize(replace(fig2_params, k_c=-0.25))
        assert p.k_c == -0.25
        assert p.r_squeeze == fig2_params.r_squeeze

    def test_materialize_is_idempotent(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_cancelled_params(rng)
            assert p.k_c != 0.0 and p.r_squeeze > 0.0
            for sc in (*SCENARIOS, Scenario.custom()):
                pm = sc.materialize(p)
                assert sc.materialize(pm) == pm

    def test_from_name(self):
        assert Scenario.from_name("no-squeeze").tag == "no_squeeze"
        assert Scenario.from_name("double_squeeze_optimal").tag == "double_squeeze_optimal"
        assert Scenario.from_name("custom") == Scenario.custom()
        with pytest.raises(ScenarioMismatchError):
            Scenario.from_name("triple-squeeze")


class TestParamsFile:
    def test_full_schema(self):
        data = {
            "kappa_prime": 1.0, "kappa_double_prime": 0.1, "eta": 0.7,
            "n_photons": 1.0, "gamma_spm": 0.05, "squeeze_db": 15.0,
            "k_c": 0.0, "k_s": 0.1, "units": "kappa_prime",
        }
        p = sq.params_from_dict(data)
        assert p.k_s == 0.1
        assert math.exp(2.0 * p.r_squeeze) == pytest.approx(10.0 ** 1.5, rel=1e-12)

    def test_auto_spm_cancel(self):
        data = {
            "kappa_prime": 1.0, "kappa_double_prime": 0.1, "eta": 0.7,
            "n_photons": 4.0, "gamma_spm": 0.05, "auto_spm_cancel": True,
        }
        assert sq.params_from_dict(data).k_s == pytest.approx(0.4, rel=1e-15)

    def test_defaults(self):
        data = {
            "kappa_prime": 1.0, "kappa_double_prime": 0.1, "eta": 0.7, "n_photons": 1.0,
        }
        p = sq.params_from_dict(data)
        assert p.r_squeeze == 0.0 and p.k_c == 0.0 and p.k_s == 0.0
        assert p.units == "kappa_prime"

    def test_missing_required_key(self):
        data = {"kappa_prime": 1.0, "eta": 0.7, "n_photons": 1.0}
        with pytest.raises(ConfigError, match="kappa_double_prime"):
            sq.params_from_dict(data)

    def test_conflicting_ks(self):
        data = {
            "kappa_prime": 1.0, "kappa_double_prime": 0.1, "eta": 0.7,
            "n_photons": 1.0, "k_s": 0.1, "auto_spm_cancel": True,
        }
        with pytest.raises(ConfigError):
            sq.params_from_dict(data)

    def test_unknown_key(self):
        data = {
            "kappa_prime": 1.0, "kappa_double_prime": 0.1, "eta": 0.7,
            "n_photons": 1.0, "bandwidth": 2.0,
        }
        with pytest.raises(ConfigError, match="bandwidth"):
            sq.params_from_dict(data)

    def test_roundtrip_with_every_field_set(self):
        p = SensorParams(kappa_prime=2.0, kappa_double_prime=0.3, eta=0.6, n_photons=3.0,
                         gamma_spm=0.05, r_squeeze=0.4, k_c=-0.5, k_s=0.2, units="si")
        assert all(getattr(p, f.name) != f.default
                   for f in fields(SensorParams) if f.default is not MISSING)
        assert sq.params_from_dict(sq.params_to_dict(p)) == p

    def test_roundtrip_dict(self, fig2_params):
        d = sq.params_to_dict(fig2_params)
        assert sq.params_from_dict(
            {k: v for k, v in d.items() if k != "r_squeeze"} | {"r_squeeze": d["r_squeeze"]}
        ) == fig2_params


BAD_GRIDS = {
    "2-d": [[0.5, 1.0], [1.5, 2.0]],
    "empty": [],
    "decreasing": [1.0, 0.5],
    "repeated-point": [0.5, 1.0, 1.0],
}


@pytest.fixture(scope="module")
def short_run():
    params = SensorParams(kappa_prime=1.0, kappa_double_prime=0.1, eta=0.7, n_photons=1.0)
    return sq.simulate(params, sq.SimulationConfig(dt=0.02, duration=20.0, seed=1,
                                                   n_segments=2))


@pytest.mark.parametrize("consumer", ["SpectrumCurve", "psd_from_response", "estimate_psd"])
@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
def test_every_grid_consumer_applies_the_one_grid_rule(consumer, grid, fig2_params, short_run):
    grid = np.array(grid, dtype=float)
    call = {
        "SpectrumCurve": lambda: SpectrumCurve(omegas=grid, values=np.ones(grid.shape)),
        "psd_from_response": lambda: sq.psd_from_response(fig2_params, grid),
        "estimate_psd": lambda: sq.estimate_psd(short_run, grid),
    }[consumer]
    with pytest.raises(sq.GridError, match="frequency grid must"):
        call()


class TestSpectrumCurve:
    def test_grid_must_increase(self):
        with pytest.raises(sq.GridError):
            SpectrumCurve(omegas=np.array([0.0, 1.0, 1.0]), values=np.ones(3))

    def test_values_positive(self):
        with pytest.raises(RangeError):
            SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))

    def test_snl_curve_may_touch_zero(self):
        curve = SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.array([0.0, 0.25]),
                              scenario="snl")
        assert curve.values[0] == 0.0

    def test_values_match_the_grid(self):
        with pytest.raises(sq.GridError, match="do not match"):
            SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.ones(3))

    def test_snl_curve_may_not_go_negative(self):
        with pytest.raises(RangeError, match=">= 0"):
            SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.array([-0.1, 0.25]),
                          scenario="snl")

    def test_values_finite(self):
        with pytest.raises(RangeError, match=r"got inf first at omega = 1\.0 \(params: x = 2\)"):
            SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.array([1.0, math.inf]),
                          params={"x": 2})

    def test_arrays_frozen(self):
        curve = SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            curve.values[0] = 3.0
