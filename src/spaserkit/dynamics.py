"""Rotating-frame equations of motion and a time-domain integrator.

The state is propagated in a frame rotating at ``frame.nu_ref`` on the
spasing transition and the plasmon, and at the drive frequency on the
driven transition.  Only the independent real components are integrated
(three populations, three complex coherences, complex field amplitude:
11 real numbers), so Hermiticity of the density matrix is exact by
construction and the trace is conserved by the algebra of the
right-hand side.  ``_rhs`` is the one statement of the equations: the
bilinear operator on the 10 trace-eliminated coordinates
(``_reduced_operator``) is read off it at import, and the analysis
layer derives its right-hand side, Jacobian and linear solves from that.

The stepper is an explicit Dormand–Prince 5(4) pair with FSAL and a
PI step-size controller.  The plasmon loss rate is usually the fastest
scale, so the default step cap is ``0.1 / gamma_n``.  One step,
``_dp5_step``, is generated from the tableau at import as straight-line
code, component by component (``_DP5_STEP_SOURCE``); it calls ``_rhs``
for each stage, so the equations still live only there.  Its error norm
and the step loop's clamps are comparisons that follow the rule of
builtin ``abs``, ``min`` and ``max``, bit for bit, without their calls.
"""

from __future__ import annotations

import cmath
import linecache
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, InvalidStateError, StiffnessError, TraceDriftError
from .params import ModelParams, complex_rates
from .state import DensityMatrix3, SpaserState

__all__ = ["Trajectory", "equations_of_motion", "integrate"]

#: Bound on |trace(rho) - 1| for a state handed to the equations of
#: motion and for every state ``integrate`` starts from or accepts.
_TRACE_TOL = 1e-6


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


def _operator_map() -> np.ndarray:
    """The constant 310x15 map from the coefficients of :func:`_coeffs` to
    the flattened (k, m, nr, ni) of :func:`_reduced_operator`.

    Read off :func:`_rhs` at unit coefficients: at a unit state it gives a
    column of the linear part; what a density coordinate paired with Re a
    or Im a adds to the two alone is a column of nr or ni.  p3 = 1 - p1 - p2
    (no field term has p3) turns the p3 column into k.  No BLAS call: the
    first one grows a process's memory by ~0.4 MB, and this runs at import.
    """
    keep = [0, 1, *range(3, 11)]  # every coordinate but p3

    def fold(block: np.ndarray) -> np.ndarray:  # flattened, on the reduced columns
        out = block[:, keep]
        out[:, :2] -= block[:, 2:3]
        return out.ravel()
    columns = []
    for c in np.eye(15).tolist():  # plain floats, as the stepper passes them
        def f(*ones: int) -> np.ndarray:
            return np.array(_rhs([float(j in ones) for j in range(11)], c))[keep]
        lin = np.column_stack([f(j) for j in range(11)])
        nr, ni = (
            fold(np.column_stack([f(j, a) - lin[:, j] - lin[:, a] for j in range(9)]
                                 + [np.zeros(10)] * 2))
            for a in (9, 10)
        )
        columns.append(np.concatenate((lin[:, 2], fold(lin), nr, ni)))
    return np.column_stack(columns)


_OPERATOR_MAP = _operator_map()
_OPERATOR_MAP.flags.writeable = False


def _reduced_operator(c) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The equations of :func:`_rhs` on the 10 reduced coordinates
    x = (p1, p2, Re/Im rho21, Re/Im rho31, Re/Im rho32, Re/Im a),
    p3 = 1 - p1 - p2, as the bilinear form

        dx/dt = k + (m + Re a * nr + Im a * ni) @ x.

    ``k`` is what the trace elimination leaves behind.  ``nr`` and ``ni``
    carry the field couplings: they are nonzero only inside the 8x8
    density-matrix block, and only at entries where ``m`` is zero.
    Each entry sums at most two coefficients times 1 or 2, so it rounds
    once, like the term written out.  Returns (k, m, nr, ni).
    """
    v = _OPERATOR_MAP @ np.array(c)
    return v[:10], *v[10:].reshape(3, 10, 10)


# d m / d nu of _reduced_operator: nu enters only through Im Gamma21, Im Gamma31
# and delta_n (coefficients 5, 7 and 12), each with slope -1, and k, nr and ni
# carry none of the three.  0.0 - keeps the zeros positive.
_REDUCED_OPERATOR_DNU = 0.0 - _OPERATOR_MAP[10:110, [5, 7, 12]].sum(1).reshape(10, 10)
_REDUCED_OPERATOR_DNU.flags.writeable = False


def equations_of_motion(state: SpaserState, params: ModelParams) -> SpaserState:
    """Time derivative of a state, returned in the same container shape.

    The returned object's fields hold d/dt of the corresponding stored
    components (its ``rho`` is a derivative, not a density matrix).
    """
    state.rho.validate(trace_tol=_TRACE_TOL, diag_tol=math.inf)
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


def _tableau_row(prefix: str, stages: int) -> list[tuple[str, int]]:
    """(name, j) of the coefficients ``prefix + str(j)``, j = 1..stages, of
    one tableau row; a zero coefficient (b2, b7, e2) has no constant."""
    return [(f"{prefix}{j}", j) for j in range(1, stages + 1) if f"{prefix}{j}" in globals()]


def _dp5_step_source() -> str:
    """Source of ``_dp5_step(y, k1, h, c, rtol, atol) -> (ynew, k7, err)``,
    one Dormand–Prince step written out component by component.

    Stage s evaluates ``_rhs`` at ``y_i + h * (_As1 * k1_i + ...)``, ``ynew``
    takes the weights ``_Bj`` the same way, and ``err`` is the RMS over the
    components of ``h * (_E1 * k1_i + ...) / (atol + rtol * max(|y_i|, |ynew_i|))``,
    summed in component order; a non-finite ``ynew`` gives ``err = inf``.
    So ``y`` and ``ynew`` are finite in the norm, where each magnitude and
    their max are comparisons that give the bits of ``abs`` and ``max``
    without a call.  ``_rhs`` is looked up in the module at call time.
    """
    comps = range(_N_COMPONENTS)

    def names(fmt: str) -> str:
        return ", ".join(fmt.format(i=i) for i in comps)

    def combination(row: list[tuple[str, int]], i: int) -> str:
        return " + ".join(f"{name} * k{j}_{i}" for name, j in row)

    def point(row: list[tuple[str, int]]) -> str:
        return "".join(f"        y{i} + h * ({combination(row, i)}),\n" for i in comps)

    lines = [
        "def _dp5_step(y, k1, h, c, rtol, atol):",
        f"    {names('y{i}')} = y",
        f"    {names('k1_{i}')} = k1",
    ]
    for s in range(2, 7):
        stage = point(_tableau_row(f"_A{s}", s - 1))
        lines.append(f"    {names(f'k{s}_{{i}}')} = _rhs((\n{stage}    ), c)")
    lines += [
        f"    ynew = (\n{point(_tableau_row('_B', 7))}    )",
        "    k7 = _rhs(ynew, c)",
        "    if not all(map(math.isfinite, ynew)):",
        "        return ynew, k7, math.inf",
        f"    {names('k7_{i}')} = k7",
        f"    {names('n{i}')} = ynew",
    ]
    # |y_i| and |n_i| as comparisons (0.0 - keeps a zero's magnitude
    # positive), and their max by builtin max's rule: the first unless the
    # second is strictly greater
    error = _tableau_row("_E", 7)
    for i in comps:
        lines += [
            f"    a{i} = y{i} if y{i} > 0.0 else 0.0 - y{i}",
            f"    b{i} = n{i} if n{i} > 0.0 else 0.0 - n{i}",
            f"    r{i} = h * ({combination(error, i)}) / (atol + rtol * (b{i} if b{i} > a{i} else a{i}))",
        ]
    squares = " + ".join(f"r{i} * r{i}" for i in comps)
    lines.append(f"    return ynew, k7, math.sqrt(({squares}) / {_N_COMPONENTS})")
    return "\n".join(lines) + "\n"


# The step is generated once, at import.  Its pseudo-file is registered with
# linecache so that tracebacks show its lines; its globals are this module's.
_DP5_STEP_FILE = "<spaserkit.dynamics._dp5_step>"
_DP5_STEP_SOURCE = _dp5_step_source()
linecache.cache[_DP5_STEP_FILE] = (
    len(_DP5_STEP_SOURCE), None, _DP5_STEP_SOURCE.splitlines(True), _DP5_STEP_FILE
)
_scope: dict = {}
exec(compile(_DP5_STEP_SOURCE, _DP5_STEP_FILE, "exec"), globals(), _scope)
_dp5_step = _scope.pop("_dp5_step")
del _scope

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
    Im rho32, Re a, Im a); the last row is the step that reaches
    ``t_end``.
    """

    t: np.ndarray
    y: np.ndarray
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
    def trace_error(self) -> np.ndarray:
        """Deviation |trace(rho) - 1| per stored step."""
        y = self.y
        return np.abs(y[:, 0] + y[:, 1] + y[:, 2] - 1.0)

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
) -> Trajectory:
    """Adaptively integrate the equations of motion from t=0 to ``t_end``.

    ``max_step=None`` applies the default cap ``0.1 / gamma_n``; pass
    ``math.inf`` to let the error controller choose freely.  Rows are
    stored every ``store_every``-th accepted step; the start state and
    the step that reaches ``t_end`` are always stored.

    Raises :class:`IntegrationError` unless ``t_end``, ``rel_tol`` and
    ``abs_tol`` are finite and > 0 and ``max_steps`` and ``store_every``
    are each an ``int`` >= 1 (never a ``bool``), and
    :class:`InvalidStateError` for a
    start state with an invalid density matrix or a non-finite amplitude.
    During the run it raises :class:`StiffnessError` on step-size underflow,
    :class:`TraceDriftError` if |trace(rho) - 1| exceeds 1e-6 (the
    start state must meet the same bound),
    and :class:`IntegrationError` if the first step's size overflows,
    populations leave [0, 1] by more than max(1e-6, 10*rel_tol) or the
    step budget is exhausted.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise IntegrationError(f"t_end must be a finite time > 0 s, got {t_end!r}")
    if not (0.0 < rel_tol < math.inf and 0.0 < abs_tol < math.inf):
        raise IntegrationError(
            f"rel_tol and abs_tol must be finite and > 0, got {rel_tol!r} and {abs_tol!r}"
        )
    state0.rho.validate(trace_tol=_TRACE_TOL)
    if not cmath.isfinite(state0.amplitude):
        raise InvalidStateError(f"amplitude must be finite, got {state0.amplitude!r}")
    if max_step is None:
        max_step = 0.1 / params.plasmon.gamma_n
    if not max_step > 0.0:
        raise IntegrationError(f"max_step must be > 0 s, got {max_step!r}")
    for name, count in (("max_steps", max_steps), ("store_every", store_every)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise IntegrationError(f"{name} must be an integer >= 1, got {count!r}")

    c = _coeffs(params)
    pop_bound = max(1e-6, 10.0 * rel_tol)
    p_lo, p_hi = -pop_bound, 1.0 + pop_bound
    h_floor = 64.0 * math.ulp(t_end)

    t = 0.0
    y = _pack(state0)
    k1 = _rhs(y, c)
    n_fev = 1

    def _fail(exc_cls, message: str):
        raise exc_cls(message, t=t, state=_unpack(y))

    try:
        h = _initial_step(y, k1, c, rel_tol, abs_tol, max_step, t_end)
    except OverflowError:  # a scaled start-up component squared past the float range
        _fail(IntegrationError, "no first step: the start-up step-size estimate overflows")
    n_fev += 1

    ts: list[float] = [0.0]
    ys: list = [y]

    n_accepted = 0
    n_rejected = 0
    facold = 1e-4
    just_rejected = False

    while t < t_end:
        if n_accepted + n_rejected >= max_steps:
            _fail(
                IntegrationError,
                f"step budget of {max_steps} exhausted at t = {t:.6e} s "
                f"(t_end = {t_end:.6e} s)",
            )
        # the clamps below are builtin min's and max's rule written as
        # comparisons, which the step loop pays for without a call: the
        # first argument, unless a later one is strictly smaller (greater)
        rest = t_end - t
        if max_step < h:
            h = max_step
        if rest < h:
            h = rest
        is_last = h >= rest
        if not h >= h_floor:  # a NaN step (non-finite start-up RHS) stops here too
            _fail(
                StiffnessError,
                f"step size underflow (h = {h:.3e} s) at t = {t:.6e} s; "
                "the problem is too stiff for the explicit 5(4) pair",
            )

        ynew, k7, err = _dp5_step(y, k1, h, c, rel_tol, abs_tol)
        n_fev += 6

        if err <= 1.0:
            t = t_end if is_last else t + h
            y = ynew
            k1 = k7
            n_accepted += 1

            p1 = y[0]
            p2 = y[1]
            p3 = y[2]
            drift = p1 + p2 + p3 - 1.0
            if drift > _TRACE_TOL or -drift > _TRACE_TOL:
                _fail(
                    TraceDriftError,
                    f"trace drift {abs(drift):.3e} exceeds {_TRACE_TOL:.3e} at t = {t:.6e} s",
                )
            if not (p_lo <= p1 <= p_hi and p_lo <= p2 <= p_hi and p_lo <= p3 <= p_hi):
                p = next(p for p in y[:3] if not p_lo <= p <= p_hi)
                _fail(
                    IntegrationError,
                    f"population {p!r} left [0, 1] by more than {pop_bound:.1e} "
                    f"at t = {t:.6e} s",
                )
            if n_accepted % store_every == 0 or t >= t_end:
                ts.append(t)
                ys.append(y)

            if err == 0.0:
                fac = 0.1  # h_new = h / fac: grow by the full factor 10
            else:
                fac11 = err ** _EXPO1
                fac = fac11 / (facold ** _BETA)
                fac = fac / _SAFETY
                # max(0.1, min(5.0, fac))
                if not fac < 5.0:
                    fac = 5.0
                elif not fac > 0.1:
                    fac = 0.1
            if just_rejected and fac < 1.0:
                fac = 1.0  # max(fac, 1.0): no growth right after a rejection
            h = h / fac
            facold = 1e-4 if 1e-4 > err else err  # max(err, 1e-4)
            just_rejected = False
        else:
            n_rejected += 1
            just_rejected = True
            if math.isfinite(err):
                shrink = (err ** _EXPO1) / _SAFETY
                h = h / (shrink if shrink < 5.0 else 5.0)  # min(5.0, shrink)
            else:
                h = 0.25 * h

    return Trajectory(
        t=np.asarray(ts, dtype=float),
        y=np.asarray(ys, dtype=float),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs_evals=n_fev,
    )
