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
    params_from_dict,
    params_to_dict,
    r_from_db,
    rates_from_quality,
    spm_cancelling_ks,
)
from .dynamics import (
    DriftMatrix,
    FrequencyResponse,
    drift_matrix,
    frequency_response,
    input_noise_psds,
    psd_from_response,
    relaxation_rates,
)
from .errors import (
    ConfigError,
    ConvergenceError,
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
    closed_form_psd,
    measurement_psd_raw,
    scenario_curve,
    snl,
    snl_curve,
)
from .stochastic import (
    SignalWaveform,
    SimulationConfig,
    SimulationRun,
    estimate_psd,
    measure_gain,
    simulate,
    spectral_comparison_config,
)

__version__ = "0.4.3"

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
    "ConvergenceError",
    "NoBandError",
    "ConfigError",
    "GridError",
    "SnrError",
    "r_from_db",
    "spm_cancelling_ks",
    "rates_from_quality",
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
