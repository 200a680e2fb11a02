"""Quantum-noise modeling toolkit for squeezed-light microresonator sensors.

Computes sensitivity spectral densities of an evanescent-field frequency
sensor probed with squeezed light, optimizes the intracavity parametric
gain, and verifies every closed form against two independent numerical
routes (a general frequency-domain solver and a stochastic time-domain
simulator).
"""

from .core import (
    PSD_CONVENTION,
    Scenario,
    SensorParams,
    SpectrumCurve,
    db_from_r,
    load_params,
    params_from_dict,
    params_to_dict,
    r_from_db,
    rates_from_quality,
    spm_cancelling_ks,
)
from .dynamics import (
    DriftMatrix,
    FrequencyResponse,
    SignalWaveform,
    drift_matrix,
    frequency_response,
    input_noise_psds,
    psd_from_response,
    relaxation_rates,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DoubleNormalizationError,
    GridError,
    InstabilityError,
    NoBandError,
    RangeError,
    ScenarioMismatchError,
    SnrError,
    SqzSensorError,
)
from .optimize import (
    OptimizationResult,
    SnlBand,
    numeric_min_kappa,
    numeric_min_kc,
    optimal_kc,
    snl_crossings,
    snl_optimal_kappa,
)
from .spectra import (
    apply_external_antisqueeze,
    closed_form_psd,
    measurement_psd_raw,
    normalize_curve,
    scenario_curve,
    snl,
    snl_curve,
    two_stage_epsilon_sq,
)
from .stochastic import (
    SimulationConfig,
    SimulationRun,
    estimate_psd,
    measure_gain,
    simulate,
    spectral_comparison_config,
)

__version__ = "0.1.0"

__all__ = [
    "PSD_CONVENTION",
    "Scenario",
    "SensorParams",
    "SpectrumCurve",
    "DriftMatrix",
    "FrequencyResponse",
    "SignalWaveform",
    "OptimizationResult",
    "SnlBand",
    "SimulationConfig",
    "SimulationRun",
    "SqzSensorError",
    "RangeError",
    "InstabilityError",
    "ScenarioMismatchError",
    "DoubleNormalizationError",
    "ConvergenceError",
    "NoBandError",
    "ConfigError",
    "GridError",
    "SnrError",
    "r_from_db",
    "db_from_r",
    "spm_cancelling_ks",
    "rates_from_quality",
    "load_params",
    "params_from_dict",
    "params_to_dict",
    "drift_matrix",
    "frequency_response",
    "psd_from_response",
    "input_noise_psds",
    "relaxation_rates",
    "measurement_psd_raw",
    "closed_form_psd",
    "snl",
    "apply_external_antisqueeze",
    "two_stage_epsilon_sq",
    "normalize_curve",
    "scenario_curve",
    "snl_curve",
    "optimal_kc",
    "numeric_min_kc",
    "snl_optimal_kappa",
    "numeric_min_kappa",
    "snl_crossings",
    "simulate",
    "estimate_psd",
    "measure_gain",
    "spectral_comparison_config",
]
