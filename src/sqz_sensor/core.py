"""Parameter containers, unit conventions, validation, and derived rates.

Conventions used throughout the package:

* Double-sided spectral densities; a vacuum quadrature has density 1/2.
* ``kappa`` is the amplitude half-bandwidth of the probe mode, the sum of
  the coupling part ``kappa_prime`` and the intrinsic-loss part
  ``kappa_double_prime``.
* The intracavity parametric drive enters only through its quadrature
  gains ``k_c`` and ``k_s``.
* The mean intracavity photon number ``n_photons`` stores ``beta**2``
  with ``beta`` real and positive.
* Rates are either all in rad/s (``units="si"``) or all in units of the
  coupling half-bandwidth (``units="kappa_prime"``).  The flag is
  metadata; no implicit conversion is ever performed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, GridError, RangeError, ScenarioMismatchError

PSD_CONVENTION = "double-sided; vacuum quadrature spectral density = 1/2"

UNITS_KAPPA_PRIME = "kappa_prime"
UNITS_SI = "si"

NORMALIZATION_RAW = "raw"
NORMALIZATION_KP_OVER_N = "kappa_prime_over_n"


def r_from_db(squeeze_db: float) -> float:
    """Squeeze factor r for a squeezing level quoted in decibels.

    A level of x dB means the measured quadrature variance is reduced by
    10**(x/10), i.e. exp(-2r) = 10**(-x/10).
    """
    return float(squeeze_db) * math.log(10.0) / 20.0


def db_from_r(r_squeeze: float) -> float:
    """Inverse of :func:`r_from_db`."""
    return 20.0 * float(r_squeeze) / math.log(10.0)


def spm_cancelling_ks(gamma_spm: float, n_photons: float) -> float:
    """Sine-quadrature parametric gain that cancels self-phase modulation.

    Returns ``2 * gamma_spm * n_photons``.
    """
    if not 0.0 <= gamma_spm < math.inf:
        raise RangeError(f"gamma_spm must be finite and >= 0, got {gamma_spm}")
    if not 0.0 < n_photons < math.inf:
        raise RangeError(f"n_photons must be finite and > 0, got {n_photons}")
    return 2.0 * gamma_spm * n_photons


def rates_from_quality(omega_0: float, q_intrinsic: float, coupling_ratio: float) -> tuple[float, float]:
    """Convert an intrinsic quality factor into half-bandwidth rates.

    Parameters
    ----------
    omega_0:
        Optical eigenfrequency, rad/s.
    q_intrinsic:
        Intrinsic quality factor, defined against the loss half-bandwidth
        as ``Q = omega_0 / (2 * kappa_double_prime)``.
    coupling_ratio:
        Ratio ``kappa_prime / kappa_double_prime`` set by the coupler.

    Returns
    -------
    (kappa_prime, kappa_double_prime) in rad/s.
    """
    for name, value in (("omega_0", omega_0), ("q_intrinsic", q_intrinsic),
                        ("coupling_ratio", coupling_ratio)):
        if not 0.0 < value < math.inf:
            raise RangeError(f"{name} must be finite and > 0, got {value}")
    kappa_double_prime = omega_0 / (2.0 * q_intrinsic)
    return coupling_ratio * kappa_double_prime, kappa_double_prime


@dataclass(frozen=True)
class SensorParams:
    """All physical rates and dimensionless factors of the sensor model.

    Attributes
    ----------
    kappa_prime:
        Coupling half-bandwidth (input/output port), rad/s.
    kappa_double_prime:
        Intrinsic-loss half-bandwidth, rad/s.
    eta:
        Output-path quantum efficiency, in (0, 1].
    n_photons:
        Mean intracavity photon number, > 0.
    gamma_spm:
        Self-phase-modulation factor, rad/s per photon.
    r_squeeze:
        Input squeeze factor r >= 0; the measured input quadrature has
        spectral density exp(-2r)/2.
    k_c, k_s:
        Cosine and sine quadrature gains of the intracavity parametric
        drive, rad/s.
    units:
        "si" (rad/s throughout) or "kappa_prime" (rates in units of the
        coupling half-bandwidth).  Metadata only.
    """

    kappa_prime: float
    kappa_double_prime: float
    eta: float
    n_photons: float
    gamma_spm: float = 0.0
    r_squeeze: float = 0.0
    k_c: float = 0.0
    k_s: float = 0.0
    units: str = UNITS_KAPPA_PRIME

    def __post_init__(self):
        if not self.kappa_prime > 0.0:
            raise RangeError(f"kappa_prime must be > 0, got {self.kappa_prime}")
        if self.kappa_double_prime < 0.0:
            raise RangeError(f"kappa_double_prime must be >= 0, got {self.kappa_double_prime}")
        if not 0.0 < self.eta <= 1.0:
            raise RangeError(f"eta must be in (0, 1], got {self.eta}")
        if not self.n_photons > 0.0:
            raise RangeError(f"n_photons must be > 0, got {self.n_photons}")
        if self.gamma_spm < 0.0:
            raise RangeError(f"gamma_spm must be >= 0, got {self.gamma_spm}")
        if self.r_squeeze < 0.0:
            raise RangeError(f"r_squeeze must be >= 0, got {self.r_squeeze}")
        if abs(self.k_c) >= self.kappa:
            raise RangeError(
                f"|k_c| = {abs(self.k_c)} must be < kappa = {self.kappa} "
                "(parametric instability of the measured quadrature)"
            )
        if self.units not in (UNITS_KAPPA_PRIME, UNITS_SI):
            raise RangeError(f"units must be {UNITS_KAPPA_PRIME!r} or {UNITS_SI!r}, got {self.units!r}")
        for name in ("kappa_prime", "kappa_double_prime", "eta", "n_photons",
                     "gamma_spm", "r_squeeze", "k_c", "k_s"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(f"{name} must be finite")
        if not math.isfinite(self.kappa):
            raise RangeError(
                f"kappa = kappa_prime + kappa_double_prime = {self.kappa} must be finite"
            )

    @property
    def kappa(self) -> float:
        """Total half-bandwidth, coupling plus intrinsic loss."""
        return self.kappa_prime + self.kappa_double_prime

    @property
    def epsilon_sq(self) -> float:
        """Loss factor (1 - eta) / eta of the output path."""
        return (1.0 - self.eta) / self.eta

    @property
    def beta(self) -> float:
        """Real classical intracavity amplitude, sqrt(n_photons)."""
        return math.sqrt(self.n_photons)

    def with_spm_cancelled(self) -> "SensorParams":
        """Copy with ``k_s`` set to the self-phase-modulation cancelling value."""
        return replace(self, k_s=spm_cancelling_ks(self.gamma_spm, self.n_photons))

    @property
    def is_spm_cancelled(self) -> bool:
        ks_target = 2.0 * self.gamma_spm * self.n_photons
        scale = max(abs(self.k_s), abs(ks_target), self.kappa)
        return abs(self.k_s - ks_target) <= 1e-12 * scale


def params_to_dict(params: SensorParams) -> dict:
    """Plain-JSON-able snapshot of a parameter set."""
    return {
        "kappa_prime": params.kappa_prime,
        "kappa_double_prime": params.kappa_double_prime,
        "eta": params.eta,
        "n_photons": params.n_photons,
        "gamma_spm": params.gamma_spm,
        "r_squeeze": params.r_squeeze,
        "k_c": params.k_c,
        "k_s": params.k_s,
        "units": params.units,
    }


_PARAM_FILE_KEYS = {
    "kappa_prime", "kappa_double_prime", "eta", "n_photons", "gamma_spm",
    "squeeze_db", "r_squeeze", "k_c", "k_s", "auto_spm_cancel", "units",
}


def _number(data: dict, key: str, default: float = 0.0) -> float:
    """A numeric schema value; JSON booleans and strings are not numbers."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"parameter {key!r} must be a number, got {type(value).__name__}")
    return float(value)


def params_from_dict(data: dict) -> SensorParams:
    """Build :class:`SensorParams` from the parameter-file schema.

    Required keys: ``kappa_prime``, ``kappa_double_prime``, ``eta``,
    ``n_photons``.  Squeezing may be given as ``squeeze_db`` (decibels)
    or directly as ``r_squeeze``.  The sine-quadrature gain is either
    ``k_s`` or computed by ``"auto_spm_cancel": true``; supplying both is
    an error.  Rates and factors must be JSON numbers, ``auto_spm_cancel``
    a JSON boolean and ``units`` a string.
    """
    if not isinstance(data, dict):
        raise ConfigError("parameter file must contain a JSON object")
    unknown = set(data) - _PARAM_FILE_KEYS
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    for key in ("kappa_prime", "kappa_double_prime", "eta", "n_photons"):
        if key not in data:
            raise ConfigError(f"missing required parameter {key!r}")
    if "squeeze_db" in data and "r_squeeze" in data:
        raise ConfigError("give either squeeze_db or r_squeeze, not both")
    auto_spm_cancel = data.get("auto_spm_cancel", False)
    if not isinstance(auto_spm_cancel, bool):
        raise ConfigError("parameter 'auto_spm_cancel' must be true or false, "
                          f"got {type(auto_spm_cancel).__name__}")
    if "k_s" in data and auto_spm_cancel:
        raise ConfigError("give either k_s or auto_spm_cancel, not both")
    units = data.get("units", UNITS_KAPPA_PRIME)
    if not isinstance(units, str):
        raise ConfigError(f"parameter 'units' must be a string, got {type(units).__name__}")

    gamma_spm = _number(data, "gamma_spm")
    n_photons = _number(data, "n_photons")
    if auto_spm_cancel:
        k_s = spm_cancelling_ks(gamma_spm, n_photons)
    else:
        k_s = _number(data, "k_s")
    if "squeeze_db" in data:
        r_squeeze = r_from_db(_number(data, "squeeze_db"))
    else:
        r_squeeze = _number(data, "r_squeeze")

    return SensorParams(
        kappa_prime=_number(data, "kappa_prime"),
        kappa_double_prime=_number(data, "kappa_double_prime"),
        eta=_number(data, "eta"),
        n_photons=n_photons,
        gamma_spm=gamma_spm,
        r_squeeze=r_squeeze,
        k_c=_number(data, "k_c"),
        k_s=k_s,
        units=units,
    )


def load_params(path: str | Path) -> SensorParams:
    """Read a JSON parameter file."""
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))


SCENARIO_NO_SQUEEZE = "no_squeeze"
SCENARIO_INPUT_SQUEEZE = "input_squeeze"
SCENARIO_DOUBLE_SQUEEZE_OPTIMAL = "double_squeeze_optimal"
SCENARIO_CUSTOM = "custom"

_SCENARIO_TAGS = (
    SCENARIO_NO_SQUEEZE,
    SCENARIO_INPUT_SQUEEZE,
    SCENARIO_DOUBLE_SQUEEZE_OPTIMAL,
    SCENARIO_CUSTOM,
)


@dataclass(frozen=True)
class Scenario:
    """Which closed-form sensitivity spectrum applies.

    ``no_squeeze`` forces r = 0 and k_c = 0, ``input_squeeze`` forces
    k_c = 0, ``double_squeeze_optimal`` sets k_c to the loss-optimal
    internal gain, and ``custom`` pins k_c to an explicit value.
    :meth:`materialize` is the one place these pins are applied.
    """

    tag: str
    custom_kc: float | None = None

    def __post_init__(self):
        if self.tag not in _SCENARIO_TAGS:
            raise ScenarioMismatchError(f"unknown scenario tag {self.tag!r}")
        if self.tag == SCENARIO_CUSTOM and self.custom_kc is None:
            raise ScenarioMismatchError("custom scenario needs an explicit k_c")
        if self.tag != SCENARIO_CUSTOM and self.custom_kc is not None:
            raise ScenarioMismatchError(f"scenario {self.tag!r} does not take a k_c value")

    @classmethod
    def no_squeeze(cls) -> "Scenario":
        return cls(SCENARIO_NO_SQUEEZE)

    @classmethod
    def input_squeeze(cls) -> "Scenario":
        return cls(SCENARIO_INPUT_SQUEEZE)

    @classmethod
    def double_squeeze_optimal(cls) -> "Scenario":
        return cls(SCENARIO_DOUBLE_SQUEEZE_OPTIMAL)

    @classmethod
    def custom(cls, k_c: float) -> "Scenario":
        return cls(SCENARIO_CUSTOM, custom_kc=float(k_c))

    @classmethod
    def from_name(cls, name: str, custom_kc: float | None = None) -> "Scenario":
        tag = name.strip().lower().replace("-", "_")
        if tag == SCENARIO_CUSTOM and custom_kc is not None:
            return cls.custom(custom_kc)
        return cls(tag)

    def materialize(self, params: SensorParams) -> SensorParams:
        """Return a copy of ``params`` with the scenario's ``(r, k_c)`` applied.

        Idempotent: no pin reads ``params.k_c``.
        """
        if self.tag == SCENARIO_NO_SQUEEZE:
            return replace(params, r_squeeze=0.0, k_c=0.0)
        if self.tag == SCENARIO_INPUT_SQUEEZE:
            return replace(params, k_c=0.0)
        if self.tag == SCENARIO_DOUBLE_SQUEEZE_OPTIMAL:
            from .optimize import optimal_kc
            return replace(params, k_c=optimal_kc(params))
        return replace(params, k_c=self.custom_kc)


SCENARIO_SNL = "snl"
_CURVE_LABELS_ALLOWING_ZERO = (SCENARIO_SNL,)


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled double-sided spectral density S(omega).

    Frequencies must be strictly increasing; values must be finite and
    positive (the shot-noise-limit curve may touch zero).  Arrays are
    frozen after construction so curves can be shared freely.
    """

    omegas: np.ndarray
    values: np.ndarray
    normalization: str = NORMALIZATION_RAW
    scenario: str = SCENARIO_CUSTOM
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # Private copies: freezing the caller's arrays would leave them
        # read-only for the caller, or still writeable through a base.
        omegas = np.array(self.omegas, dtype=float)
        values = np.array(self.values, dtype=float)
        if omegas.ndim != 1 or values.shape != omegas.shape:
            raise GridError("omegas and values must be 1-d arrays of equal length")
        if omegas.size == 0:
            raise GridError("curve must contain at least one point")
        if omegas.size > 1 and not np.all(np.diff(omegas) > 0.0):
            raise GridError("frequency grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise RangeError("spectral values must be finite")
        if self.scenario in _CURVE_LABELS_ALLOWING_ZERO:
            if np.any(values < 0.0):
                raise RangeError("spectral values must be >= 0")
        elif np.any(values <= 0.0):
            raise RangeError("spectral values must be strictly positive")
        if self.normalization not in (NORMALIZATION_RAW, NORMALIZATION_KP_OVER_N):
            raise RangeError(f"unknown normalization {self.normalization!r}")
        omegas.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.omegas.size
