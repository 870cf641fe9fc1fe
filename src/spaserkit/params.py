"""Parameter containers for one spaser configuration.

A configuration couples a three-level gain medium (levels |1>, |2>, |3>;
spasing transition |2>->|1>, driven transition |3>-|2>, incoherent pump
|1>->|3>) to a single plasmon mode.  All rates and frequencies are SI
angular quantities (rad/s).

Default values at the bottom of the module are tagged by provenance:
"literature" (representative published values for a silver-nanosphere
spaser), "assumed" (chosen to satisfy the rate orderings the analytic
limits require), or "calibrated" (fixed by
:func:`spaserkit.analysis.calibrate_coupling`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, RegimeWarning
from .units import ev_to_angular

__all__ = [
    "GainParams",
    "PlasmonParams",
    "DriveParams",
    "FrameParams",
    "ModelParams",
    "ComplexRates",
    "complex_rates",
    "default_params",
    "get_param",
    "set_param",
    "param_paths",
    "DEFAULT_OMEGA_N",
    "DEFAULT_OMEGA_21",
    "DEFAULT_OMEGA_32",
    "DEFAULT_GAMMA_N",
    "DEFAULT_N_P",
    "DEFAULT_GAMMA_21",
    "DEFAULT_GAMMA_31",
    "DEFAULT_GAMMA_32",
    "DEFAULT_OMEGA_B_SINGLE",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_rate(group: str, name: str, value: float) -> None:
    _require(
        isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0,
        f"{group}.{name} must be a finite rate >= 0 rad/s, got {value!r}",
    )


def _check_positive_frequency(group: str, name: str, value: float) -> None:
    _require(
        isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0,
        f"{group}.{name} must be a finite frequency > 0 rad/s, got {value!r}",
    )


@dataclass(frozen=True)
class GainParams:
    """Rates and transition frequencies of the gain chromophores.

    ``gamma21``, ``gamma31``, ``gamma32`` are population decay rates of
    |2>->|1>, |3>->|1>, |3>->|2>; ``gamma_ph`` is pure dephasing;
    ``pump_g`` is the incoherent pump rate |1>->|3>.  ``omega21`` and
    ``omega32`` are the |2>-|1> and |3>-|2> transition frequencies.
    """

    omega21: float
    omega32: float
    gamma21: float
    gamma31: float
    gamma32: float
    gamma_ph: float = 0.0
    pump_g: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma21", "gamma31", "gamma32", "gamma_ph", "pump_g"):
            _check_rate("gain", name, getattr(self, name))
        for name in ("omega21", "omega32"):
            _check_positive_frequency("gain", name, getattr(self, name))


@dataclass(frozen=True)
class PlasmonParams:
    """Plasmon mode frequency/loss plus the gain-coupling bookkeeping.

    ``n_p`` is the number of chromophores coupled to the mode and
    ``omega_b_single`` the real coupling per unit plasmon amplitude, so a
    field amplitude ``a`` drives the spasing transition at Rabi frequency
    ``omega_b_single * a``.
    """

    omega_n: float
    gamma_n: float
    n_p: float = 1.0
    omega_b_single: float = 0.0

    def __post_init__(self) -> None:
        _check_positive_frequency("plasmon", "omega_n", self.omega_n)
        _require(
            math.isfinite(self.gamma_n) and self.gamma_n > 0.0,
            f"plasmon.gamma_n must be a finite rate > 0 rad/s, got {self.gamma_n!r}",
        )
        _require(
            math.isfinite(self.n_p) and self.n_p >= 1.0,
            f"plasmon.n_p must be a finite count >= 1, got {self.n_p!r}",
        )
        _require(
            math.isfinite(self.omega_b_single) and self.omega_b_single >= 0.0,
            "plasmon.omega_b_single must be a finite coupling >= 0 rad/s, "
            f"got {self.omega_b_single!r}",
        )


@dataclass(frozen=True)
class DriveParams:
    """Coherent drive on |2><->|3>: Rabi frequency and detuning.

    ``delta_a = omega32 - nu_a`` where ``nu_a`` is the drive frequency;
    ``delta_a`` is a property of the external drive and does not change
    with the rotating-frame choice of :class:`FrameParams`.
    """

    omega_a_rabi: float = 0.0
    delta_a: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("drive", "omega_a_rabi", self.omega_a_rabi)
        _require(
            isinstance(self.delta_a, (int, float)) and math.isfinite(self.delta_a),
            f"drive.delta_a must be a finite detuning, got {self.delta_a!r}",
        )


@dataclass(frozen=True)
class FrameParams:
    """Rotating-frame reference frequency for the spasing transition/plasmon."""

    nu_ref: float

    def __post_init__(self) -> None:
        _check_positive_frequency("frame", "nu_ref", self.nu_ref)


@dataclass(frozen=True)
class ModelParams:
    """One complete spaser configuration."""

    gain: GainParams
    plasmon: PlasmonParams
    drive: DriveParams
    frame: FrameParams

    def __post_init__(self) -> None:
        _require(isinstance(self.gain, GainParams), "gain must be a GainParams")
        _require(isinstance(self.plasmon, PlasmonParams), "plasmon must be a PlasmonParams")
        _require(isinstance(self.drive, DriveParams), "drive must be a DriveParams")
        _require(isinstance(self.frame, FrameParams), "frame must be a FrameParams")
        for name, detuning in (("delta_b", self.delta_b), ("delta_n", self.delta_n)):
            if abs(detuning) > 0.1 * self.frame.nu_ref:
                warnings.warn(
                    f"|{name}| = {abs(detuning):.3e} rad/s is not small against the "
                    f"frame frequency nu_ref = {self.frame.nu_ref:.3e} rad/s; the "
                    "slowly-varying-envelope treatment is dubious here",
                    RegimeWarning,
                    stacklevel=2,
                )

    @property
    def delta_b(self) -> float:
        """Detuning of the spasing transition from the rotating frame."""
        return self.gain.omega21 - self.frame.nu_ref

    @property
    def delta_n(self) -> float:
        """Detuning of the plasmon mode from the rotating frame."""
        return self.plasmon.omega_n - self.frame.nu_ref


@dataclass(frozen=True)
class ComplexRates:
    """Complex coherence relaxation rates in the rotating frame (rad/s).

    Real parts are the decoherence rates; imaginary parts are the
    corresponding detunings.  ``Gamma_n`` is the plasmon counterpart
    ``gamma_n + i*delta_n``.
    """

    Gamma21: complex
    Gamma31: complex
    Gamma32: complex
    Gamma_n: complex


def complex_rates(params: ModelParams, nu: float | None = None) -> ComplexRates:
    """Coherence relaxation rates of the three transitions plus the plasmon.

    With ``nu`` given, the spasing-frame detunings are evaluated at that
    frequency instead of ``params.frame.nu_ref`` (the drive detuning
    ``delta_a`` is frame independent and is never shifted).
    """
    gain = params.gain
    frame_nu = params.frame.nu_ref if nu is None else nu
    delta_b = gain.omega21 - frame_nu
    delta_n = params.plasmon.omega_n - frame_nu
    delta_a = params.drive.delta_a
    half = 0.5
    gamma21 = half * (gain.gamma21 + gain.pump_g) + gain.gamma_ph
    gamma31 = half * (gain.gamma31 + gain.gamma32 + gain.pump_g) + gain.gamma_ph
    gamma32 = half * (gain.gamma31 + gain.gamma21 + gain.gamma32) + gain.gamma_ph
    return ComplexRates(
        Gamma21=complex(gamma21, delta_b),
        Gamma31=complex(gamma31, delta_a + delta_b),
        Gamma32=complex(gamma32, delta_a),
        Gamma_n=complex(params.plasmon.gamma_n, delta_n),
    )


# --- Default configuration ------------------------------------------------

#: Plasmon mode energy 2.5 eV (literature).
DEFAULT_OMEGA_N = ev_to_angular(2.5)
#: Spasing transition detuned 0.002 eV above the plasmon mode (literature).
DEFAULT_OMEGA_21 = DEFAULT_OMEGA_N + ev_to_angular(0.002)
#: |3>-|2> transition energy 0.5 eV (assumed; only sets the drive carrier).
DEFAULT_OMEGA_32 = ev_to_angular(0.5)
#: Plasmon relaxation rate (literature).
DEFAULT_GAMMA_N = 5.3e14
#: Number of chromophores per mode (literature).
DEFAULT_N_P = 6.0e4
#: Spasing-transition population decay (assumed).
DEFAULT_GAMMA_21 = 4.0e12
#: |3>->|1> population decay (assumed; slowest rate).
DEFAULT_GAMMA_31 = 1.0e10
#: |3>->|2> population decay (assumed).
DEFAULT_GAMMA_32 = 1.0e12
#: Coupling per unit plasmon amplitude (calibrated: the undriven spasing
#: threshold is twice the threshold at drive Rabi frequency 16e12 rad/s;
#: see analysis.calibrate_coupling, which regenerates this number).
DEFAULT_OMEGA_B_SINGLE = 2.9331131080030633e13


def default_params(
    *,
    pump_g: float = 8.0e12,
    omega_a_rabi: float = 0.0,
    gamma_ph: float = 0.0,
    nu_ref: float | None = None,
    omega_b_single: float | None = None,
) -> ModelParams:
    """Default configuration with the most common knobs exposed.

    ``nu_ref`` defaults to the spasing transition frequency; pass an
    explicit value (for instance a self-consistent spasing frequency from
    the analysis module) to rotate at another reference.
    """
    return ModelParams(
        gain=GainParams(
            omega21=DEFAULT_OMEGA_21,
            omega32=DEFAULT_OMEGA_32,
            gamma21=DEFAULT_GAMMA_21,
            gamma31=DEFAULT_GAMMA_31,
            gamma32=DEFAULT_GAMMA_32,
            gamma_ph=gamma_ph,
            pump_g=pump_g,
        ),
        plasmon=PlasmonParams(
            omega_n=DEFAULT_OMEGA_N,
            gamma_n=DEFAULT_GAMMA_N,
            n_p=DEFAULT_N_P,
            omega_b_single=(
                DEFAULT_OMEGA_B_SINGLE if omega_b_single is None else omega_b_single
            ),
        ),
        drive=DriveParams(omega_a_rabi=omega_a_rabi, delta_a=0.0),
        frame=FrameParams(nu_ref=DEFAULT_OMEGA_21 if nu_ref is None else nu_ref),
    )


_GROUPS = ("gain", "plasmon", "drive", "frame")


def _split_path(path: str) -> tuple[str, str]:
    group, dot, name = path.partition(".")
    if not dot or not name or group not in _GROUPS:
        raise ConfigError(
            f"unknown parameter path {path!r}; expected '<group>.<field>' with "
            f"group one of {', '.join(_GROUPS)}"
        )
    return group, name


def param_paths() -> tuple[str, ...]:
    """All valid dotted parameter paths, e.g. ``gain.pump_g``."""
    paths: list[str] = []
    for group, cls in (
        ("gain", GainParams),
        ("plasmon", PlasmonParams),
        ("drive", DriveParams),
        ("frame", FrameParams),
    ):
        paths.extend(f"{group}.{f.name}" for f in fields(cls))
    return tuple(paths)


def get_param(params: ModelParams, path: str) -> float:
    """Read one scalar parameter by dotted path."""
    group, name = _split_path(path)
    section = getattr(params, group)
    if name not in {f.name for f in fields(section)}:
        raise ConfigError(f"unknown parameter path {path!r}")
    return getattr(section, name)


def set_param(params: ModelParams, path: str, value: float) -> ModelParams:
    """Return a copy of ``params`` with one scalar replaced (validated)."""
    group, name = _split_path(path)
    section = getattr(params, group)
    if name not in {f.name for f in fields(section)}:
        raise ConfigError(f"unknown parameter path {path!r}")
    return replace(params, **{group: replace(section, **{name: value})})
