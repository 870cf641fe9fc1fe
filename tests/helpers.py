"""Shared builders for the test suite."""

from __future__ import annotations

from spaserkit.params import (
    DriveParams,
    FrameParams,
    GainParams,
    ModelParams,
    PlasmonParams,
    default_params,
)

# Frequencies of the stock configuration (mode energy 2.5 eV, spasing
# transition 2 meV above it, drive transition 0.5 eV), frozen as plain
# numbers so the tests do not depend on the package's own converters.
OMEGA_N = 3798168619990318.5
OMEGA_21 = 3801207154886311.0
OMEGA_32 = 759633723998063.6

# Calibrated per-plasmon coupling shipped as the package default: the
# undriven threshold is twice the threshold at a 16e12 rad/s drive.
OMEGA_B_CALIBRATED = 2.9331131080030633e13


def strip_timestamp(text: str) -> str:
    """A rendered table without its timestamp line, the one line that
    differs between two runs of the same command (the ``# timestamp:``
    comment of a CSV file, the ``"timestamp":`` member of a JSON one)."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.lstrip().startswith(("# timestamp:", '"timestamp":'))
    )


def make_params(
    *,
    gamma21: float = 4e12,
    gamma31: float = 1e10,
    gamma32: float = 1e12,
    gamma_ph: float = 0.0,
    pump_g: float = 8e12,
    omega21: float = OMEGA_21,
    omega32: float = OMEGA_32,
    omega_n: float = OMEGA_N,
    gamma_n: float = 5.3e14,
    n_p: float = 6e4,
    omega_b_single: float = OMEGA_B_CALIBRATED,
    omega_a_rabi: float = 0.0,
    delta_a: float = 0.0,
    nu_ref: float | None = None,
) -> ModelParams:
    """Build a full configuration with every knob overridable."""
    return ModelParams(
        gain=GainParams(
            omega21=omega21,
            omega32=omega32,
            gamma21=gamma21,
            gamma31=gamma31,
            gamma32=gamma32,
            gamma_ph=gamma_ph,
            pump_g=pump_g,
        ),
        plasmon=PlasmonParams(
            omega_n=omega_n,
            gamma_n=gamma_n,
            n_p=n_p,
            omega_b_single=omega_b_single,
        ),
        drive=DriveParams(omega_a_rabi=omega_a_rabi, delta_a=delta_a),
        frame=FrameParams(nu_ref=omega21 if nu_ref is None else nu_ref),
    )


__all__ = [
    "OMEGA_N",
    "OMEGA_21",
    "OMEGA_32",
    "OMEGA_B_CALIBRATED",
    "make_params",
    "default_params",
    "strip_timestamp",
]
