"""Parameter containers for one spaser configuration.

A configuration couples a three-level gain medium (levels |1>, |2>, |3>;
spasing transition |2>->|1>, driven transition |3>-|2>, incoherent pump
|1>->|3>) to a single plasmon mode.  All rates and frequencies are SI
angular quantities (rad/s).

Each leaf's rule (a finite ``int`` or ``float``, never a ``bool``, and
its lower bound) and its unit are stated once, on its dataclass field
via ``_leaf``; the groups' shared ``__post_init__`` checks every leaf
against it and :func:`param_unit` reads the unit from it.

Default values at the bottom of the module are tagged by provenance:
"literature" (representative published values for a silver-nanosphere
spaser), "assumed" (chosen to satisfy the rate orderings the analytic
limits require), or "calibrated" (fixed by
:func:`spaserkit.analysis.calibrate_coupling`).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

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
    "param_unit",
]


def _is_number(value) -> bool:
    """The type rule of every numeric input: an ``int`` or a ``float``,
    never a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaf(noun: str, bound: float = -math.inf, *, strict: bool = False,
          unit: str = "rad/s", **default):
    """A parameter field and its rule: a finite real number (an ``int`` or
    ``float``, never a ``bool``) that is at least ``bound``, or above it
    when ``strict``.  The rule's wording names the ``noun``, the bound and
    the ``unit``; ``default`` passes on a field default."""
    limit = "" if bound == -math.inf else f" {'>' if strict else '>='} {bound}"
    wording = noun + limit + (f" {unit}" if limit and unit != "1" else "")
    return field(metadata={"rule": (bound, strict, wording), "unit": unit}, **default)


class _Group:
    """Base of the four parameter groups: construction checks each leaf
    against the rule on its field."""

    def __post_init__(self) -> None:
        for name, path, (bound, strict, wording) in _LEAVES[type(self)]:
            value = getattr(self, name)
            if (
                not _is_number(value)
                or not math.isfinite(value)
                or value < bound
                or (strict and value == bound)
            ):
                raise ConfigError(f"{path} must be a finite {wording}, got {value!r}")


@dataclass(frozen=True)
class GainParams(_Group):
    """Rates and transition frequencies of the gain chromophores.

    ``gamma21``, ``gamma31``, ``gamma32`` are population decay rates of
    |2>->|1>, |3>->|1>, |3>->|2>; ``gamma_ph`` is pure dephasing;
    ``pump_g`` is the incoherent pump rate |1>->|3>.  ``omega21`` and
    ``omega32`` are the |2>-|1> and |3>-|2> transition frequencies.
    """

    omega21: float = _leaf("frequency", 0, strict=True)
    omega32: float = _leaf("frequency", 0, strict=True)
    gamma21: float = _leaf("rate", 0)
    gamma31: float = _leaf("rate", 0)
    gamma32: float = _leaf("rate", 0)
    gamma_ph: float = _leaf("rate", 0, default=0.0)
    pump_g: float = _leaf("rate", 0, default=0.0)


@dataclass(frozen=True)
class PlasmonParams(_Group):
    """Plasmon mode frequency/loss plus the gain-coupling bookkeeping.

    ``n_p`` is the number of chromophores coupled to the mode and
    ``omega_b_single`` the real coupling per unit plasmon amplitude, so a
    field amplitude ``a`` drives the spasing transition at Rabi frequency
    ``omega_b_single * a``.
    """

    omega_n: float = _leaf("frequency", 0, strict=True)
    gamma_n: float = _leaf("rate", 0, strict=True)
    n_p: float = _leaf("count", 1, unit="1", default=1.0)
    omega_b_single: float = _leaf("coupling", 0, default=0.0)


@dataclass(frozen=True)
class DriveParams(_Group):
    """Coherent drive on |2><->|3>: Rabi frequency and detuning.

    ``delta_a = omega32 - nu_a`` where ``nu_a`` is the drive frequency;
    ``delta_a`` is a property of the external drive and does not change
    with the rotating-frame choice of :class:`FrameParams`.
    """

    omega_a_rabi: float = _leaf("rate", 0, default=0.0)
    delta_a: float = _leaf("detuning", default=0.0)


@dataclass(frozen=True)
class FrameParams(_Group):
    """Rotating-frame reference frequency for the spasing transition/plasmon."""

    nu_ref: float = _leaf("frequency", 0, strict=True)


def _caller_stacklevel(*inside: str) -> int:
    """The ``stacklevel``, seen from the function that calls this one, of
    the first frame outside the modules named ``inside``."""
    level, frame = 1, sys._getframe(1)
    while frame.f_globals.get("__name__") in inside:
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class ModelParams:
    """One complete spaser configuration."""

    gain: GainParams
    plasmon: PlasmonParams
    drive: DriveParams
    frame: FrameParams

    def __post_init__(self) -> None:
        for group, cls in _GROUPS.items():
            if not isinstance(getattr(self, group), cls):
                raise ConfigError(f"{group} must be a {cls.__name__}")
        for name, detuning in (("delta_b", self.delta_b), ("delta_n", self.delta_n)):
            if abs(detuning) > 0.1 * self.frame.nu_ref:
                warnings.warn(
                    f"|{name}| = {abs(detuning):.3e} rad/s is not small against the "
                    f"frame frequency nu_ref = {self.frame.nu_ref:.3e} rad/s; the "
                    "slowly-varying-envelope treatment is dubious here",
                    RegimeWarning,
                    # past this module and the dataclass machinery (the
                    # generated __init__ and dataclasses.replace)
                    stacklevel=_caller_stacklevel(__name__, "dataclasses"),
                )

    @property
    def delta_b(self) -> float:
        """Detuning of the spasing transition from the rotating frame."""
        return self.gain.omega21 - self.frame.nu_ref

    @property
    def delta_n(self) -> float:
        """Detuning of the plasmon mode from the rotating frame."""
        return self.plasmon.omega_n - self.frame.nu_ref


#: Group name -> its class, in declaration order.
_GROUPS = get_type_hints(ModelParams)
#: Group class -> (field name, dotted path, rule) of each of its leaves.
_LEAVES = {
    cls: [(f.name, f"{group}.{f.name}", f.metadata["rule"]) for f in fields(cls)]
    for group, cls in _GROUPS.items()
}
#: Dotted parameter path -> its unit, in declaration order.
_UNITS = {
    f"{group}.{f.name}": f.metadata["unit"]
    for group, cls in _GROUPS.items() for f in fields(cls)
}


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
    omega_b_single: float = DEFAULT_OMEGA_B_SINGLE,
) -> ModelParams:
    """Default configuration with the most common knobs exposed.

    The frame always rotates at the spasing transition frequency
    ``DEFAULT_OMEGA_21``; :func:`set_param` on ``frame.nu_ref`` moves it,
    for instance to a self-consistent spasing frequency.
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
            omega_b_single=omega_b_single,
        ),
        drive=DriveParams(omega_a_rabi=omega_a_rabi, delta_a=0.0),
        frame=FrameParams(nu_ref=DEFAULT_OMEGA_21),
    )


def _lookup(path: str) -> list[str]:
    """``[group, field name]`` of a dotted parameter path."""
    if path not in _UNITS:
        expected = ", ".join(_UNITS)
        raise ConfigError(f"unknown parameter path {path!r}; expected one of {expected}")
    return path.split(".")


def param_paths() -> tuple[str, ...]:
    """All valid dotted parameter paths, e.g. ``gain.pump_g``."""
    return tuple(_UNITS)


def param_unit(path: str) -> str:
    """Unit of a parameter, as its field states it: "1" or rad/s."""
    _lookup(path)
    return _UNITS[path]


def get_param(params: ModelParams, path: str) -> float:
    """Read one scalar parameter by dotted path."""
    group, name = _lookup(path)
    return getattr(getattr(params, group), name)


def set_param(params: ModelParams, path: str, value: float) -> ModelParams:
    """Return a copy of ``params`` with one scalar replaced (validated)."""
    group, name = _lookup(path)
    return replace(params, **{group: replace(getattr(params, group), **{name: value})})
