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

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, GridError, RangeError, ScenarioMismatchError

PSD_CONVENTION = "double-sided; vacuum quadrature spectral density = 1/2"

UNITS_KAPPA_PRIME = "kappa_prime"
UNITS_SI = "si"

#: Largest squeeze factor: ``0.5 ln(max double)``, about 354.89, where
#: ``exp(2r)`` is still finite and ``exp(-2r)``, about 5.6e-309, still > 0.
R_SQUEEZE_MAX = 0.5 * math.log(sys.float_info.max)


def r_from_db(squeeze_db: float) -> float:
    """Squeeze factor r for a squeezing level quoted in decibels.

    A level of x dB means the measured quadrature variance is reduced by
    10**(x/10), i.e. exp(-2r) = 10**(-x/10).
    """
    return float(squeeze_db) * math.log(10.0) / 20.0


def spm_cancelling_ks(gamma_spm: float, n_photons: float) -> float:
    """Sine-quadrature parametric gain that cancels self-phase modulation.

    Returns ``2 * gamma_spm * n_photons``; raises :class:`RangeError`
    when that product overflows.
    """
    if not 0.0 <= gamma_spm < math.inf:
        raise RangeError(f"gamma_spm must be finite and >= 0, got {gamma_spm}")
    if not 0.0 < n_photons < math.inf:
        raise RangeError(f"n_photons must be finite and > 0, got {n_photons}")
    k_s = 2.0 * gamma_spm * n_photons
    if k_s == math.inf:
        raise RangeError(f"gamma_spm = {gamma_spm!r} and n_photons = {n_photons!r}: "
                         "the cancelling gain 2 gamma_spm n_photons overflows")
    return k_s


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
        Output-path quantum efficiency, in (0, 1] where the loss factor
        ``(1 - eta) / eta`` is finite: eta >= about 5.6e-309.
    n_photons:
        Mean intracavity photon number, > 0.
    gamma_spm:
        Self-phase-modulation factor, rad/s per photon.
    r_squeeze:
        Input squeeze factor r in [0, R_SQUEEZE_MAX], about 354.89, where
        exp(2r) is finite; the measured input quadrature has spectral
        density exp(-2r)/2.
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
        if not self.epsilon_sq < math.inf:
            raise RangeError(f"eta = {self.eta!r}: the loss factor (1 - eta) / eta overflows")
        if not self.n_photons > 0.0:
            raise RangeError(f"n_photons must be > 0, got {self.n_photons}")
        if self.gamma_spm < 0.0:
            raise RangeError(f"gamma_spm must be >= 0, got {self.gamma_spm}")
        if not 0.0 <= self.r_squeeze <= R_SQUEEZE_MAX:
            raise RangeError(f"r_squeeze = {self.r_squeeze!r} must be in [0, {R_SQUEEZE_MAX!r}], "
                             "where exp(2 r_squeeze) is finite")
        if abs(self.k_c) >= self.kappa:
            raise RangeError(
                f"|k_c| = {abs(self.k_c)} must be < kappa = {self.kappa} "
                "(parametric instability of the measured quadrature)"
            )
        if self.units not in (UNITS_KAPPA_PRIME, UNITS_SI):
            raise RangeError(f"units must be {UNITS_KAPPA_PRIME!r} or {UNITS_SI!r}, got {self.units!r}")
        for name in _NUMERIC_FIELDS:
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
        """Whether ``k_s == 2 * gamma_spm * n_photons`` exactly, as floats, so that
        :func:`~sqz_sensor.dynamics.drift_matrix`'s residual coupling is 0.  No
        tolerance: :meth:`with_spm_cancelled` sets the exact value.  Where that
        product overflows, no finite ``k_s`` cancels it: False."""
        try:
            return self.k_s == spm_cancelling_ks(self.gamma_spm, self.n_photons)
        except RangeError:
            return False

    def unit_point(self) -> "SensorParams":
        """The same sensor in units of kappa_prime and per photon.

        ``kappa_prime = n_photons = 1``; the other rates are divided by
        ``kappa_prime`` and ``gamma_spm`` becomes ``gamma_spm N / kappa_prime``,
        so a spectrum here is the one at ``self`` in units of kappa_prime / N
        with frequencies in kappa_prime.  An SPM-cancelled point
        (:attr:`is_spm_cancelled`) maps to one: its ``k_s`` becomes ``2
        gamma_spm`` of the unit point, even where ``2 gamma_spm N`` is
        subnormal and kept fewer digits than the quotient.  Idempotent.
        Raises :class:`RangeError` naming a rate that leaves floating-point
        range.
        """
        kp, n = self.kappa_prime, self.n_photons
        # gamma_spm N / kappa_prime from the mantissas, so that the product
        # gamma_spm N need not be finite where the quotient is.
        (m_g, e_g), (m_n, e_n), (m_k, e_k) = map(math.frexp, (self.gamma_spm, n, kp))
        try:
            gamma = math.ldexp(m_g * m_n / m_k, e_g + e_n - e_k)
        except OverflowError:
            gamma = math.inf
        k_s = 2.0 * gamma if self.is_spm_cancelled else self.k_s / kp
        rates = {"kappa_double_prime": self.kappa_double_prime / kp, "k_c": self.k_c / kp,
                 "k_s": k_s, "gamma_spm": gamma}
        for name, value in rates.items():
            if not math.isfinite(value):
                raise RangeError(f"{name} = {getattr(self, name)!r} with kappa_prime = {kp!r} "
                                 f"and n_photons = {n!r} is beyond floating-point range "
                                 "in units of kappa_prime")
        return replace(self, kappa_prime=1.0, n_photons=1.0, units=UNITS_KAPPA_PRIME, **rates)


#: The parameter schema, read off the fields: every field but the string
#: ``units`` is a number, and the fields without a default are required.
_FIELD_NAMES = tuple(f.name for f in fields(SensorParams))
_NUMERIC_FIELDS = tuple(f.name for f in fields(SensorParams) if f.type == "float")
_REQUIRED_FIELDS = tuple(f.name for f in fields(SensorParams) if f.default is MISSING)
_PARAM_FILE_KEYS = {*_FIELD_NAMES, "squeeze_db", "auto_spm_cancel"}


def params_to_dict(params: SensorParams) -> dict:
    """Plain-JSON-able snapshot of a parameter set."""
    return {name: getattr(params, name) for name in _FIELD_NAMES}


def _number(data: dict, key: str) -> float:
    """A numeric schema value; JSON booleans and strings are not numbers."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"parameter {key!r} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise RangeError(f"parameter {key!r} is beyond floating-point range") from None


def params_from_dict(data: dict) -> SensorParams:
    """Build :class:`SensorParams` from the parameter-file schema.

    The keys are the :class:`SensorParams` fields, those without a default
    required, plus two alternatives.  Squeezing may be given as
    ``squeeze_db`` (decibels) or directly as ``r_squeeze``.  The sine-quadrature gain is either
    ``k_s`` or computed by ``"auto_spm_cancel": true``; supplying both is
    an error.  Rates and factors must be JSON numbers, ``auto_spm_cancel``
    a JSON boolean and ``units`` a string.
    """
    if not isinstance(data, dict):
        raise ConfigError("parameter file must contain a JSON object")
    unknown = set(data) - _PARAM_FILE_KEYS
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    for key in _REQUIRED_FIELDS:
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

    values = {name: _number(data, name) for name in _NUMERIC_FIELDS if name in data}
    if "squeeze_db" in data:
        values["r_squeeze"] = r_from_db(_number(data, "squeeze_db"))
    params = SensorParams(**values, units=units)
    return params.with_spm_cancelled() if auto_spm_cancel else params


SCENARIO_NO_SQUEEZE = "no_squeeze"
SCENARIO_INPUT_SQUEEZE = "input_squeeze"
SCENARIO_DOUBLE_SQUEEZE_OPTIMAL = "double_squeeze_optimal"
SCENARIO_CUSTOM = "custom"

SCENARIO_TAGS = (
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
    internal gain, and ``custom`` keeps the ``k_c`` the params carry.
    :meth:`materialize` is the one place these pins are applied.
    """

    tag: str

    def __post_init__(self):
        if self.tag not in SCENARIO_TAGS:
            raise ScenarioMismatchError(f"unknown scenario tag {self.tag!r}")

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
    def custom(cls) -> "Scenario":
        return cls(SCENARIO_CUSTOM)

    @classmethod
    def from_name(cls, name: str) -> "Scenario":
        return cls(name.strip().lower().replace("-", "_"))

    def materialize(self, params: SensorParams) -> SensorParams:
        """Return ``params`` with the scenario's ``(r, k_c)`` applied.

        Idempotent: no pin reads ``params.k_c``, and ``custom`` pins nothing.
        """
        if self.tag == SCENARIO_NO_SQUEEZE:
            return replace(params, r_squeeze=0.0, k_c=0.0)
        if self.tag == SCENARIO_INPUT_SQUEEZE:
            return replace(params, k_c=0.0)
        if self.tag == SCENARIO_DOUBLE_SQUEEZE_OPTIMAL:
            from .optimize import optimal_kc
            return replace(params, k_c=optimal_kc(params))
        return params


def frequency_grid(omegas) -> np.ndarray:
    """``omegas`` as a float array, checked to be a frequency grid.

    Raises :class:`GridError` unless the grid is 1-d, non-empty and
    strictly increasing.
    """
    grid = np.asarray(omegas, dtype=float)
    if grid.ndim != 1:
        raise GridError(f"frequency grid must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise GridError("frequency grid must contain at least one point")
    if not np.all(grid[1:] > grid[:-1]):
        raise GridError("frequency grid must be strictly increasing")
    return grid


SCENARIO_SNL = "snl"
_CURVE_LABELS_ALLOWING_ZERO = (SCENARIO_SNL,)


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled double-sided spectral density S(omega).

    Frequencies must be strictly increasing; values must be finite and
    positive (the shot-noise-limit curve may touch zero), or
    :class:`RangeError` names ``params`` and the first frequency where
    one is not.  Arrays are frozen after construction so curves can be
    shared freely.
    """

    omegas: np.ndarray
    values: np.ndarray
    scenario: str = SCENARIO_CUSTOM
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # Private copies: freezing the caller's arrays would leave them
        # read-only for the caller, or still writeable through a base.
        omegas = frequency_grid(self.omegas).copy()
        values = np.array(self.values, dtype=float)
        if values.shape != omegas.shape:
            raise GridError(f"values of shape {values.shape} do not match "
                            f"the {omegas.size}-point frequency grid")
        allow_zero = self.scenario in _CURVE_LABELS_ALLOWING_ZERO
        valid = np.isfinite(values) & ((values >= 0.0) if allow_zero else (values > 0.0))
        if not np.all(valid):
            first = np.argmin(valid)
            named = ", ".join(f"{key} = {value!r}" for key, value in self.params.items()
                              if key != "units")
            raise RangeError(f"spectral values must be finite and {'>=' if allow_zero else '>'} 0, "
                             f"got {float(values[first])!r} first at omega = "
                             f"{float(omegas[first])!r} (params: {named or 'none'})")
        omegas.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.omegas.size
