"""Exception types shared across the package."""


class SqzSensorError(Exception):
    """Base class for every error raised by this package."""


class RangeError(SqzSensorError, ValueError):
    """A parameter lies outside its physically meaningful range."""


class InstabilityError(SqzSensorError, RuntimeError):
    """The linearized intracavity dynamics are unstable: a relaxation
    eigenvalue has a non-positive real part."""


class ScenarioMismatchError(SqzSensorError, ValueError):
    """A squeezing scenario tag is unknown."""


class DoubleNormalizationError(SqzSensorError, ValueError):
    """Attempted to normalize an already-normalized spectrum."""


class ConvergenceError(SqzSensorError, RuntimeError):
    """An iterative numerical routine stopped without a valid result: it
    reached its evaluation cap or met a NaN objective."""


class NoBandError(SqzSensorError, RuntimeError):
    """No sub-shot-noise frequency band exists on the searched interval."""


class ConfigError(SqzSensorError, ValueError):
    """Invalid configuration (simulation settings or parameter-file
    schema)."""


class GridError(SqzSensorError, ValueError):
    """Requested frequency grid is incompatible with the available data."""


class SnrError(SqzSensorError, RuntimeError):
    """Probe signal-to-noise ratio too low for a reliable gain estimate."""
