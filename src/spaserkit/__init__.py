"""Coherence-assisted plasmon amplification in a driven three-level gain medium.

Time-domain integration of the coupled chromophore/plasmon equations of
motion, algebraic steady states, spasing threshold and stability
analysis, and parameter-sweep tooling with figure-ready table output.
"""

from .analysis import (
    CalibrationResult,
    ClosedFormInversions,
    StabilityResult,
    SteadyStateResult,
    ThresholdResult,
    calibrate_coupling,
    frame_at_spasing_frequency,
    growth_rate,
    limit_strong_drive,
    limit_weak_drive,
    reduced_jacobian,
    reduced_rhs,
    spasing_condition_residual,
    spasing_frequency,
    spasing_frequency_estimate,
    steady_inversions_closed_form,
    steady_state_numeric,
    threshold_find,
    weak_field_background,
)
from .dynamics import Trajectory, equations_of_motion, integrate
from .errors import (
    BookkeepingWarning,
    CalibrationError,
    ConfigError,
    ConvergenceError,
    CrossCheckWarning,
    DegenerateParameterError,
    IntegrationError,
    InvalidStateError,
    NonResonantDriveError,
    NoThresholdError,
    RegimeWarning,
    SpaserError,
    StiffnessError,
    TraceDriftError,
)
from .params import (
    ComplexRates,
    DriveParams,
    FrameParams,
    GainParams,
    ModelParams,
    PlasmonParams,
    complex_rates,
    default_params,
    get_param,
    param_paths,
    param_unit,
    set_param,
)
from .state import DensityMatrix3, SpaserState, observables
from .units import HBAR_EV_S, angular_to_ev, ev_to_angular

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # units
    "HBAR_EV_S",
    "ev_to_angular",
    "angular_to_ev",
    # parameters
    "GainParams",
    "PlasmonParams",
    "DriveParams",
    "FrameParams",
    "ModelParams",
    "ComplexRates",
    "complex_rates",
    "default_params",
    "param_paths",
    "param_unit",
    "get_param",
    "set_param",
    # state
    "DensityMatrix3",
    "SpaserState",
    "observables",
    # dynamics
    "equations_of_motion",
    "integrate",
    "Trajectory",
    # analysis
    "CalibrationResult",
    "ClosedFormInversions",
    "SteadyStateResult",
    "StabilityResult",
    "ThresholdResult",
    "steady_inversions_closed_form",
    "weak_field_background",
    "spasing_condition_residual",
    "spasing_frequency",
    "spasing_frequency_estimate",
    "steady_state_numeric",
    "threshold_find",
    "growth_rate",
    "limit_strong_drive",
    "limit_weak_drive",
    "calibrate_coupling",
    "frame_at_spasing_frequency",
    "reduced_rhs",
    "reduced_jacobian",
    # errors and warnings
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
