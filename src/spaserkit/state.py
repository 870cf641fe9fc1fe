"""State types: the chromophore density matrix and the plasmon amplitude.

Hermiticity is enforced by representation: only the three real diagonals
and the three independent off-diagonal entries rho21, rho31, rho32 are
stored; the conjugate entries are implied.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

__all__ = ["DensityMatrix3", "SpaserState", "observables"]


@dataclass(frozen=True)
class DensityMatrix3:
    """3x3 Hermitian density matrix in the basis |1>, |2>, |3>."""

    p1: float
    p2: float
    p3: float
    rho21: complex = 0j
    rho31: complex = 0j
    rho32: complex = 0j

    @classmethod
    def ground(cls) -> "DensityMatrix3":
        """All population in |1>."""
        return cls(1.0, 0.0, 0.0)

    @classmethod
    def pure(cls, level: int) -> "DensityMatrix3":
        """All population in one level (1, 2 or 3)."""
        if level not in (1, 2, 3):
            raise InvalidStateError(f"level must be 1, 2 or 3, got {level!r}")
        pops = [0.0, 0.0, 0.0]
        pops[level - 1] = 1.0
        return cls(*pops)

    @classmethod
    def from_matrix(cls, matrix, *, atol: float = 1e-9) -> "DensityMatrix3":
        """Build from a full 3x3 array, checking Hermiticity within ``atol``."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise InvalidStateError(f"density matrix must be 3x3, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=atol):
            raise InvalidStateError("matrix is not Hermitian within tolerance")
        return cls(
            p1=float(m[0, 0].real),
            p2=float(m[1, 1].real),
            p3=float(m[2, 2].real),
            rho21=complex(m[1, 0]),
            rho31=complex(m[2, 0]),
            rho32=complex(m[2, 1]),
        )

    def matrix(self) -> np.ndarray:
        """Full 3x3 complex array (exactly Hermitian by construction)."""
        return np.array(
            [
                [self.p1, self.rho21.conjugate(), self.rho31.conjugate()],
                [self.rho21, self.p2, self.rho32.conjugate()],
                [self.rho31, self.rho32, self.p3],
            ],
            dtype=complex,
        )

    @property
    def trace(self) -> float:
        return self.p1 + self.p2 + self.p3

    @property
    def trace_error(self) -> float:
        return abs(self.trace - 1.0)

    def validate(self, *, trace_tol: float = 1e-6, diag_tol: float = 1e-6) -> None:
        """Check trace and diagonal-range invariants; raise if violated."""
        values = (
            self.p1,
            self.p2,
            self.p3,
            self.rho21,
            self.rho31,
            self.rho32,
        )
        if not all(cmath.isfinite(complex(v)) for v in values):
            raise InvalidStateError("density matrix contains non-finite entries")
        if self.trace_error > trace_tol:
            raise InvalidStateError(
                f"trace(rho) = {self.trace!r} deviates from 1 by more than {trace_tol}"
            )
        for name, p in (("p1", self.p1), ("p2", self.p2), ("p3", self.p3)):
            if not -diag_tol <= p <= 1.0 + diag_tol:
                raise InvalidStateError(
                    f"population {name} = {p!r} outside [-{diag_tol}, 1+{diag_tol}]"
                )


@dataclass(frozen=True)
class SpaserState:
    """Density matrix of a representative chromophore plus the plasmon field.

    ``amplitude`` is the slowly varying plasmon amplitude; the coherent
    plasmon number is its squared modulus.
    """

    rho: DensityMatrix3
    amplitude: complex = 0j

    @property
    def n_n(self) -> float:
        """Coherent plasmon number |amplitude|^2."""
        # a product: squaring abs(a) goes through libm pow, which misses
        # the square's last bit for about one real amplitude in 1,200
        a = self.amplitude
        return a.real * a.real + a.imag * a.imag

    def with_phase(self, theta: float) -> "SpaserState":
        """Rotate the field gauge: amplitude, rho21 and rho31 pick up e^{i theta}."""
        phase = cmath.exp(1j * theta)
        return SpaserState(
            rho=DensityMatrix3(
                p1=self.rho.p1,
                p2=self.rho.p2,
                p3=self.rho.p3,
                rho21=self.rho.rho21 * phase,
                rho31=self.rho.rho31 * phase,
                rho32=self.rho.rho32,
            ),
            amplitude=self.amplitude * phase,
        )


def observables(state: SpaserState) -> dict[str, float | complex]:
    """Scalar observables of one state.

    ``n21`` and ``n32`` are the population inversions on the spasing and
    driven transitions; ``excited_minus_ground`` is the total excited
    population minus the ground population.
    """
    rho = state.rho
    return {
        "N_n": state.n_n,
        "n21": rho.p2 - rho.p1,
        "n32": rho.p3 - rho.p2,
        "excited_minus_ground": rho.p2 + rho.p3 - rho.p1,
        "rho21": rho.rho21,
        "rho31": rho.rho31,
        "rho32": rho.rho32,
    }
