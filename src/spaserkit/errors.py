"""Exception types raised by the simulation and analysis layers."""

from __future__ import annotations

__all__ = [
    "SpaserError",
    "ConfigError",
    "InvalidStateError",
    "DegenerateParameterError",
    "NonResonantDriveError",
    "IntegrationError",
    "StiffnessError",
    "TraceDriftError",
    "ConvergenceError",
    "NoThresholdError",
    "CalibrationError",
    "RegimeWarning",
    "CrossCheckWarning",
    "BookkeepingWarning",
]


class SpaserError(Exception):
    """Base class for all package specific errors."""


class ConfigError(SpaserError, ValueError):
    """Invalid run configuration (bad key, bad value, bad unit tag)."""


class InvalidStateError(SpaserError, ValueError):
    """Density matrix or field state violates its structural invariants."""


class DegenerateParameterError(SpaserError, ValueError):
    """Parameter combination for which the requested quantity is undefined."""


class NonResonantDriveError(SpaserError, ValueError):
    """Closed-form steady state requires a resonant drive (delta_a = 0)."""


class IntegrationError(SpaserError, RuntimeError):
    """Time integration failed.  Carries the last accepted state if any."""

    def __init__(self, message: str, t: float | None = None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class StiffnessError(IntegrationError):
    """Step size underflowed: the problem is too stiff for the explicit method."""


class TraceDriftError(IntegrationError):
    """Accumulated trace error of the density matrix exceeded its bound."""


class ConvergenceError(SpaserError, RuntimeError):
    """Iterative solver failed to converge."""


class NoThresholdError(SpaserError, RuntimeError):
    """No spasing threshold inside the supplied pump bracket."""

    def __init__(self, message: str, residual_lo: float | None = None,
                 residual_hi: float | None = None):
        super().__init__(message)
        self.residual_lo = residual_lo
        self.residual_hi = residual_hi


class CalibrationError(SpaserError, RuntimeError):
    """Coupling calibration target is unattainable in the supplied bracket.

    ``curve`` holds the sampled (coupling, threshold ratio) pairs so the
    caller can inspect what was achievable.
    """

    def __init__(self, message: str, curve=None):
        super().__init__(message)
        self.curve = curve or []


class RegimeWarning(UserWarning):
    """Parameters are outside the regime an approximate formula assumes."""


class CrossCheckWarning(UserWarning):
    """Two independent estimators of the same quantity disagree."""


class BookkeepingWarning(UserWarning):
    """A converged result violates an expected physical bookkeeping relation."""

