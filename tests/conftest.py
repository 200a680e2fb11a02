import json
import math

import numpy as np
import pytest

from sqz_sensor import SensorParams


def pytest_sessionfinish(session, exitstatus):
    """A skipped test is not evidence: a run that skipped any fails."""
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if exitstatus == pytest.ExitCode.OK and reporter is not None and reporter.stats.get("skipped"):
        reporter.write_line("\nerror: skipped tests fail the run, as a skip is not evidence")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def fig2_params() -> SensorParams:
    """Reference operating point: coupling ten times the intrinsic loss,
    70% efficiency, squeezing power factor 30, one photon."""
    return SensorParams(
        kappa_prime=1.0,
        kappa_double_prime=0.1,
        eta=0.7,
        n_photons=1.0,
        r_squeeze=0.5 * math.log(30.0),
    )


@pytest.fixture
def lossless_params() -> SensorParams:
    return SensorParams(kappa_prime=1.0, kappa_double_prime=0.0, eta=1.0, n_photons=1.0)


def random_cancelled_params(rng: np.random.Generator, with_kc: bool = True) -> SensorParams:
    """Random stable parameter draw with the spurious coupling cancelled."""
    kappa_double_prime = rng.uniform(0.0, 0.5)
    eta = rng.uniform(0.3, 1.0)
    n_photons = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    gamma_spm = rng.uniform(0.0, 0.2)
    kappa = 1.0 + kappa_double_prime
    return SensorParams(
        kappa_prime=1.0,
        kappa_double_prime=kappa_double_prime,
        eta=eta,
        n_photons=n_photons,
        gamma_spm=gamma_spm,
        r_squeeze=rng.uniform(0.0, 1.5),
        k_c=rng.uniform(-0.9 * kappa, 0.9 * kappa) if with_kc else 0.0,
        k_s=2.0 * gamma_spm * n_photons,
    )


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def load_strict_json(text: str):
    """Parse JSON, rejecting the ``NaN`` and ``Infinity`` tokens Python writes."""
    return json.loads(text, parse_constant=_reject_constant)
