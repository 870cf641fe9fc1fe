"""Rotating-frame equations of motion and a time-domain integrator.

The state is propagated in a frame rotating at ``frame.nu_ref`` on the
spasing transition and the plasmon, and at the drive frequency on the
driven transition.  Only the independent real components are integrated
(three populations, three complex coherences, complex field amplitude:
11 real numbers), so Hermiticity of the density matrix is exact by
construction and the trace is conserved by the algebra of the
right-hand side.  The same equations on the 10 trace-eliminated
coordinates, as a bilinear operator, come from ``_reduced_operator``;
the analysis layer derives its right-hand side, Jacobian and linear
solves from that.

The stepper is an explicit Dormand–Prince 5(4) pair with FSAL and a
PI step-size controller.  The plasmon loss rate is usually the fastest
scale, so the default step cap is ``0.1 / gamma_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, StiffnessError, TraceDriftError
from .params import ModelParams, complex_rates
from .state import DensityMatrix3, SpaserState

__all__ = ["Trajectory", "equations_of_motion", "integrate"]


# --- packed representation -------------------------------------------------
# y = (p1, p2, p3, Re r21, Im r21, Re r31, Im r31, Re r32, Im r32, Re a, Im a)

def _pack(state: SpaserState) -> tuple[float, ...]:
    rho = state.rho
    a = state.amplitude
    return (
        float(rho.p1),
        float(rho.p2),
        float(rho.p3),
        rho.rho21.real,
        rho.rho21.imag,
        rho.rho31.real,
        rho.rho31.imag,
        rho.rho32.real,
        rho.rho32.imag,
        a.real,
        a.imag,
    )


def _unpack(y) -> SpaserState:
    return SpaserState(
        rho=DensityMatrix3(
            p1=y[0],
            p2=y[1],
            p3=y[2],
            rho21=complex(y[3], y[4]),
            rho31=complex(y[5], y[6]),
            rho32=complex(y[7], y[8]),
        ),
        amplitude=complex(y[9], y[10]),
    )


def _pack_reduced(state: SpaserState) -> np.ndarray:
    """The 10 reduced coordinates: the packed state without p3."""
    y = _pack(state)
    return np.array(y[:2] + y[3:])


def _unpack_reduced(x) -> SpaserState:
    """Inverse of :func:`_pack_reduced`, with p3 = 1 - p1 - p2."""
    x = [float(v) for v in x]
    return _unpack(x[:2] + [1.0 - x[0] - x[1]] + x[2:])


def _coeffs(params: ModelParams, nu: float | None = None) -> tuple[float, ...]:
    """Plain-float coefficient tuple consumed by :func:`_rhs` and
    :func:`_reduced_operator`; ``nu`` overrides ``params.frame.nu_ref``
    (see :func:`~spaserkit.params.complex_rates`)."""
    gain = params.gain
    rates = complex_rates(params, nu=nu)
    wb_single = params.plasmon.omega_b_single
    return (
        gain.pump_g,
        gain.gamma21,
        gain.gamma31,
        gain.gamma32,
        rates.Gamma21.real,
        rates.Gamma21.imag,
        rates.Gamma31.real,
        rates.Gamma31.imag,
        rates.Gamma32.real,
        rates.Gamma32.imag,
        params.drive.omega_a_rabi,
        params.plasmon.gamma_n,
        rates.Gamma_n.imag,
        wb_single,
        params.plasmon.n_p * wb_single,
    )


def _rhs(y, c) -> tuple[float, ...]:
    """Time derivative of the packed state (the sum of the first three
    components vanishes identically, conserving the trace)."""
    (g, g21, g31, g32, G21r, G21i, G31r, G31i, G32r, G32i,
     wa, gn, dn, wb1, npwb) = c
    p1, p2, p3, r21, i21, r31, i31, r32, i32, ar, ai = y
    br = wb1 * ar
    bi = wb1 * ai
    wb = 2.0 * (bi * r21 - br * i21)
    wdrv = 2.0 * wa * i32
    d12 = p1 - p2
    return (
        -g * p1 + g21 * p2 + g31 * p3 + wb,
        -g21 * p2 + g32 * p3 - wb - wdrv,
        g * p1 - (g31 + g32) * p3 + wdrv,
        -G21r * r21 + G21i * i21 - bi * d12 - wa * i31,
        -G21i * r21 - G21r * i21 + br * d12 + wa * r31,
        -G31r * r31 + G31i * i31 - wa * i21 + bi * r32 + br * i32,
        -G31i * r31 - G31r * i31 + wa * r21 + bi * i32 - br * r32,
        -G32r * r32 + G32i * i32 + br * i31 - bi * r31,
        -G32i * r32 - G32r * i32 + wa * (p2 - p3) - br * r31 - bi * i31,
        -gn * ar + dn * ai - npwb * i21,
        -dn * ar - gn * ai + npwb * r21,
    )


def _reduced_operator(c) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The equations of :func:`_rhs` on the 10 reduced coordinates
    x = (p1, p2, Re/Im rho21, Re/Im rho31, Re/Im rho32, Re/Im a),
    p3 = 1 - p1 - p2, as the bilinear form

        dx/dt = k + (m + Re a * nr + Im a * ni) @ x.

    ``k`` is what the trace elimination leaves behind.  ``nr`` and ``ni``
    carry the field couplings: they are nonzero only inside the 8x8
    density-matrix block, and only at entries where ``m`` is zero.
    Returns (k, m, nr, ni).
    """
    (g, g21, g31, g32, G21r, G21i, G31r, G31i, G32r, G32i,
     wa, gn, dn, wb1, npwb) = c
    k = np.zeros(10)
    m = np.zeros((10, 10))
    nr = np.zeros((10, 10))
    ni = np.zeros((10, 10))
    # dp1/dt = -g p1 + g21 p2 + g31 p3 + 2 wb1 Im(a conj(rho21))
    k[0] = g31
    m[0, 0], m[0, 1] = -g - g31, g21 - g31
    nr[0, 3], ni[0, 2] = -2.0 * wb1, 2.0 * wb1
    # dp2/dt = -g21 p2 + g32 p3 - 2 wb1 Im(a conj(rho21)) - 2 wa Im rho32
    k[1] = g32
    m[1, 0], m[1, 1], m[1, 7] = -g32, -g21 - g32, -2.0 * wa
    nr[1, 3], ni[1, 2] = 2.0 * wb1, -2.0 * wb1
    # d rho21/dt = -Gamma21 rho21 + i wb1 a (p1 - p2) + i wa rho31
    m[2, 2], m[2, 3], m[2, 5] = -G21r, G21i, -wa
    m[3, 2], m[3, 3], m[3, 4] = -G21i, -G21r, wa
    nr[3, 0], nr[3, 1] = wb1, -wb1
    ni[2, 0], ni[2, 1] = -wb1, wb1
    # d rho31/dt = -Gamma31 rho31 + i wa rho21 - i wb1 a rho32
    m[4, 3], m[4, 4], m[4, 5] = -wa, -G31r, G31i
    m[5, 2], m[5, 4], m[5, 5] = wa, -G31i, -G31r
    nr[4, 7], nr[5, 6] = wb1, -wb1
    ni[4, 6], ni[5, 7] = wb1, wb1
    # d rho32/dt = -Gamma32 rho32 + i wa (p2 - p3) - i wb1 conj(a) rho31
    k[7] = -wa
    m[6, 6], m[6, 7] = -G32r, G32i
    m[7, 0], m[7, 1], m[7, 6], m[7, 7] = wa, 2.0 * wa, -G32i, -G32r
    nr[6, 5], nr[7, 4] = wb1, -wb1
    ni[6, 4], ni[7, 5] = -wb1, -wb1
    # da/dt = -(gamma_n + i delta_n) a + i n_p wb1 rho21
    m[8, 3], m[8, 8], m[8, 9] = -npwb, -gn, dn
    m[9, 2], m[9, 8], m[9, 9] = npwb, -dn, -gn
    return k, m, nr, ni


# d m / d nu of _reduced_operator, a constant: the frame frequency nu enters
# only through Im Gamma21 = omega21 - nu (rows 2-3), Im Gamma31 =
# delta_a + omega21 - nu (rows 4-5) and delta_n = omega_n - nu (rows 8-9),
# each with slope -1.  k, nr and ni do not depend on nu.
_REDUCED_OPERATOR_DNU = np.zeros((10, 10))
_REDUCED_OPERATOR_DNU[[2, 4, 8], [3, 5, 9]] = -1.0
_REDUCED_OPERATOR_DNU[[3, 5, 9], [2, 4, 8]] = 1.0
_REDUCED_OPERATOR_DNU.flags.writeable = False


def equations_of_motion(state: SpaserState, params: ModelParams) -> SpaserState:
    """Time derivative of a state, returned in the same container shape.

    The returned object's fields hold d/dt of the corresponding stored
    components (its ``rho`` is a derivative, not a density matrix).
    """
    state.rho.validate(trace_tol=1e-6, diag_tol=math.inf)
    dy = _rhs(_pack(state), _coeffs(params))
    return _unpack(dy)


# --- Dormand–Prince 5(4) tableau -------------------------------------------

_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_N_COMPONENTS = 11
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA  # = 0.17


def _initial_step(y0, f0, c, rtol, atol, max_step: float, t_end: float) -> float:
    scales = [atol + rtol * abs(yi) for yi in y0]
    d0 = math.sqrt(sum((yi / si) ** 2 for yi, si in zip(y0, scales)) / _N_COMPONENTS)
    d1 = math.sqrt(sum((fi / si) ** 2 for fi, si in zip(f0, scales)) / _N_COMPONENTS)
    if d0 < 1e-12 or d1 < 1e-12:
        h0 = 1e-9 * t_end
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, max_step, t_end)
    y1 = tuple(yi + h0 * fi for yi, fi in zip(y0, f0))
    f1 = _rhs(y1, c)
    d2 = (
        math.sqrt(
            sum(((f1i - f0i) / si) ** 2 for f1i, f0i, si in zip(f1, f0, scales))
            / _N_COMPONENTS
        )
        / h0
    )
    dm = max(d1, d2)
    if dm <= 1e-30:
        h1 = max(1e-9 * t_end, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end)


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration steps of one run.

    ``y`` holds the packed real components per row in the order
    (p1, p2, p3, Re rho21, Im rho21, Re rho31, Im rho31, Re rho32,
    Im rho32, Re a, Im a).  ``trace_error`` is the per-row deviation of
    trace(rho) from one.
    """

    t: np.ndarray
    y: np.ndarray
    trace_error: np.ndarray
    n_accepted: int
    n_rejected: int
    n_rhs_evals: int

    def __len__(self) -> int:
        return len(self.t)

    def state(self, index: int) -> SpaserState:
        return _unpack(self.y[index])

    @property
    def final_state(self) -> SpaserState:
        return self.state(-1)

    @property
    def n_n(self) -> np.ndarray:
        """Plasmon number per stored step."""
        return self.y[:, 9] ** 2 + self.y[:, 10] ** 2

    @property
    def populations(self) -> np.ndarray:
        """(n, 3) array of p1, p2, p3 per stored step."""
        return self.y[:, 0:3]

    @property
    def rho21(self) -> np.ndarray:
        return self.y[:, 3] + 1j * self.y[:, 4]

    def time_to_reach_plasmon_number(self, level: float) -> float | None:
        """First time the plasmon number crosses ``level`` (linear
        interpolation between stored steps); None if it never does."""
        values = self.n_n
        above = values >= level
        if not above.any():
            return None
        idx = int(np.argmax(above))
        if idx == 0:
            return float(self.t[0])
        t0, t1 = self.t[idx - 1], self.t[idx]
        v0, v1 = values[idx - 1], values[idx]
        if v1 == v0:
            return float(t1)
        return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0))


def integrate(
    state0: SpaserState,
    params: ModelParams,
    t_end: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    max_step: float | None = None,
    max_steps: int = 10_000_000,
    store_every: int = 1,
    trace_tol: float = 1e-6,
) -> Trajectory:
    """Adaptively integrate the equations of motion from t=0 to ``t_end``.

    ``max_step=None`` applies the default cap ``0.1 / gamma_n``; pass
    ``math.inf`` to let the error controller choose freely.  Rows are
    stored every ``store_every``-th accepted step (the first and last
    step are always stored).

    Raises :class:`StiffnessError` on step-size underflow,
    :class:`TraceDriftError` if |trace(rho) - 1| exceeds ``trace_tol``,
    and :class:`IntegrationError` if populations leave [0, 1] by more
    than max(1e-6, 10*rel_tol) or the step budget is exhausted.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise IntegrationError(f"t_end must be a finite time > 0 s, got {t_end!r}")
    if rel_tol <= 0.0 or abs_tol <= 0.0:
        raise IntegrationError("rel_tol and abs_tol must be > 0")
    state0.rho.validate(trace_tol=trace_tol)
    if max_step is None:
        max_step = 0.1 / params.plasmon.gamma_n
    if not max_step > 0.0:
        raise IntegrationError(f"max_step must be > 0 s, got {max_step!r}")
    store_every = max(1, int(store_every))

    c = _coeffs(params)
    pop_bound = max(1e-6, 10.0 * rel_tol)
    h_floor = 64.0 * math.ulp(t_end)

    t = 0.0
    y = _pack(state0)
    k1 = _rhs(y, c)
    n_fev = 1
    h = _initial_step(y, k1, c, rel_tol, abs_tol, max_step, t_end)
    n_fev += 1

    ts: list[float] = [0.0]
    ys: list = [y]
    tr_errs: list[float] = [abs(y[0] + y[1] + y[2] - 1.0)]

    n_accepted = 0
    n_rejected = 0
    facold = 1e-4
    just_rejected = False

    def _fail(exc_cls, message: str):
        raise exc_cls(message, t=t, state=_unpack(y))

    while t < t_end:
        if n_accepted + n_rejected >= max_steps:
            _fail(
                IntegrationError,
                f"step budget of {max_steps} exhausted at t = {t:.6e} s "
                f"(t_end = {t_end:.6e} s)",
            )
        h = min(h, max_step, t_end - t)
        is_last = h >= t_end - t
        if not h >= h_floor:  # a NaN step (non-finite start-up RHS) stops here too
            _fail(
                StiffnessError,
                f"step size underflow (h = {h:.3e} s) at t = {t:.6e} s; "
                "the problem is too stiff for the explicit 5(4) pair",
            )

        k2 = _rhs([yi + h * (_A21 * a) for yi, a in zip(y, k1)], c)
        k3 = _rhs([yi + h * (_A31 * a + _A32 * b) for yi, a, b in zip(y, k1, k2)], c)
        k4 = _rhs([yi + h * (_A41 * a + _A42 * b + _A43 * d)
                   for yi, a, b, d in zip(y, k1, k2, k3)], c)
        k5 = _rhs([yi + h * (_A51 * a + _A52 * b + _A53 * d + _A54 * e)
                   for yi, a, b, d, e in zip(y, k1, k2, k3, k4)], c)
        k6 = _rhs([yi + h * (_A61 * a + _A62 * b + _A63 * d + _A64 * e + _A65 * f)
                   for yi, a, b, d, e, f in zip(y, k1, k2, k3, k4, k5)], c)
        ynew = [yi + h * (_B1 * a + _B3 * d + _B4 * e + _B5 * f + _B6 * g_)
                for yi, a, d, e, f, g_ in zip(y, k1, k3, k4, k5, k6)]
        k7 = _rhs(ynew, c)
        n_fev += 6

        # RMS of the embedded error, scaled by atol + rtol * max(|y|, |ynew|)
        if all(math.isfinite(v) for v in ynew):
            acc = 0.0
            for yi, yni, a, d, e, f, g_, q in zip(y, ynew, k1, k3, k4, k5, k6, k7):
                sc = abs_tol + rel_tol * max(abs(yi), abs(yni))
                r = h * (_E1 * a + _E3 * d + _E4 * e + _E5 * f + _E6 * g_ + _E7 * q) / sc
                acc += r * r
            err = math.sqrt(acc / _N_COMPONENTS)
        else:
            err = math.inf

        if err <= 1.0:
            t = t_end if is_last else t + h
            y = ynew
            k1 = k7
            n_accepted += 1

            tr_err = abs(y[0] + y[1] + y[2] - 1.0)
            if tr_err > trace_tol:
                _fail(
                    TraceDriftError,
                    f"trace drift {tr_err:.3e} exceeds {trace_tol:.3e} at t = {t:.6e} s",
                )
            for p in (y[0], y[1], y[2]):
                if not (-pop_bound <= p <= 1.0 + pop_bound):
                    _fail(
                        IntegrationError,
                        f"population {p!r} left [0, 1] by more than {pop_bound:.1e} "
                        f"at t = {t:.6e} s",
                    )
            if n_accepted % store_every == 0 or t >= t_end:
                ts.append(t)
                ys.append(y)
                tr_errs.append(tr_err)

            if err == 0.0:
                fac = 0.1  # h_new = h / fac: grow by the full factor 10
            else:
                fac11 = err ** _EXPO1
                fac = fac11 / (facold ** _BETA)
                fac = max(0.1, min(5.0, fac / _SAFETY))
            if just_rejected:
                fac = max(fac, 1.0)  # no growth right after a rejection
            h = h / fac
            facold = max(err, 1e-4)
            just_rejected = False
        else:
            n_rejected += 1
            just_rejected = True
            if math.isfinite(err):
                h = h / min(5.0, (err ** _EXPO1) / _SAFETY)
            else:
                h = 0.25 * h

    if ts[-1] != t:
        ts.append(t)
        ys.append(y)
        tr_errs.append(abs(y[0] + y[1] + y[2] - 1.0))

    return Trajectory(
        t=np.asarray(ts, dtype=float),
        y=np.asarray(ys, dtype=float),
        trace_error=np.asarray(tr_errs, dtype=float),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs_evals=n_fev,
    )
