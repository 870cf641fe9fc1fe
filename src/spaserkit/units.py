"""Unit helpers.

All internal quantities are SI angular frequencies (rad/s) and SI times (s).
Photon/transition energies given in eV are converted on the way in.
"""

from __future__ import annotations

__all__ = ["HBAR_EV_S", "ev_to_angular", "angular_to_ev"]

#: Reduced Planck constant in eV * s (2018 CODATA, exact by definition).
HBAR_EV_S = 6.582119569e-16


def ev_to_angular(energy_ev: float) -> float:
    """Convert a quantum energy in eV to an angular frequency in rad/s."""
    return energy_ev / HBAR_EV_S


def angular_to_ev(omega: float) -> float:
    """Convert an angular frequency in rad/s to a quantum energy in eV."""
    return omega * HBAR_EV_S
