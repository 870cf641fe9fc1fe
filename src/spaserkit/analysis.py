"""Steady-state, threshold, stability and calibration analysis.

Everything here works on the same rotating-frame model as
:mod:`spaserkit.dynamics`.  The algebraic layer eliminates the trace
(p3 = 1 - p1 - p2), leaving 10 real coordinates
x = (p1, p2, Re/Im rho21, Re/Im rho31, Re/Im rho32, Re/Im a) on which
the model is bilinear:

    dx/dt = k + (m + Re a * nr + Im a * ni) @ x,

with (k, m, nr, ni) read off the stepper's ``_rhs`` by
``dynamics._reduced_operator``.  The reduced right-hand side, its
analytic Jacobian (the same matrix, plus nr @ x and ni @ x in the two
field columns), the density-matrix solve at a fixed real field
amplitude A, (m + A nr) x = -k on the first 8 rows and columns, and the
weak-field background (that solve at A = 0) are all read off it.  The
frame frequency nu enters only m, and linearly, so the steady-state
Newton on (A, nu) builds the operator once and takes exact derivatives
of that solve.

Each per-point algorithm that needs dense linear algebra is written once,
as a *lane*: a generator that runs the point's scalar code (seed ladder,
damped Newton, root choice) and yields each block solve, eigenproblem
and companion-matrix spectrum instead of calling NumPy.  ``_one_lane``
answers a lane's requests one NumPy call each.  A public function that
is one such algorithm (``frame_at_spasing_frequency``, ``growth_rate``,
``spasing_frequency``, ``steady_state_numeric``,
``weak_field_background``) is its lane,
decorated by ``_lane_function``: calling it runs the lane through
``_one_lane``, and its ``.lane`` attribute is the lane itself.
``_run_lanes`` runs many lanes together and answers the same-shaped
requests of all live lanes with one stacked NumPy call.  A stacked
LAPACK call gives each matrix the bits of its own call, so a lane's
result does not depend on its company.  The command line runs each
chunk of grid points this way, through each function's ``.lane``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _REDUCED_OPERATOR_DNU,
    _coeffs,
    _reduced_operator,
    _unpack_reduced,
)
from .errors import (
    BookkeepingWarning,
    CalibrationError,
    ConvergenceError,
    CrossCheckWarning,
    DegenerateParameterError,
    NonResonantDriveError,
    NoThresholdError,
    RegimeWarning,
    SpaserError,
)
from .params import (
    ComplexRates, ModelParams, _caller_stacklevel, _is_number, complex_rates, set_param,
)
from .state import DensityMatrix3, SpaserState

__all__ = [
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
]

#: Why ``spasing_frequency`` may find no frequency; callers that can go
#: on without one catch exactly these.
_NO_SPASING_FREQUENCY = (NonResonantDriveError, DegenerateParameterError, ConvergenceError)


def _require_resonant_drive(params: ModelParams, what: str) -> None:
    if params.drive.delta_a != 0.0:
        raise NonResonantDriveError(
            f"{what} assumes a resonant drive; got drive.delta_a = "
            f"{params.drive.delta_a!r} rad/s"
        )


def _square(value: float, name: str) -> float:
    """``value ** 2``, or :class:`DegenerateParameterError` where the square
    is too large for a float (Python's float power raises OverflowError)."""
    try:
        return value ** 2
    except OverflowError:
        raise DegenerateParameterError(
            f"{name} = {value!r} is too large to square"
        ) from None


# --- lanes: per-point algorithms whose linear algebra runs batched ------------
# A lane yields requests ("solve", a, b), ("eig", a) or ("eigvals", a), each
# answered by the result of the ``np.linalg`` function of that name (sent
# back in) or by the LinAlgError it raised (thrown in), and returns its
# result.  The function is looked up at call time, so a wrapper around it
# sees every call.


_LinAlgError = np.linalg.LinAlgError


def _linalg(request):
    """One request as its own NumPy call: the result, or the LinAlgError."""
    kind, *args = request
    try:
        return getattr(np.linalg, kind)(*args)
    except _LinAlgError as exc:
        return exc


def _split_spectra(w, v=None) -> list:
    """A stacked spectrum, eigenvalues ``w`` and eigenvectors ``v`` (None
    for eigenvalues only), split per matrix and typed as NumPy types one
    matrix's: real where every eigenvalue of the matrix is real."""
    real = (w.imag == 0.0).all(axis=-1) if w.dtype.kind == "c" else [True] * len(w)
    if v is None:
        return [wj.real if r else wj for wj, r in zip(w, real)]
    return [(wj.real, vj.real) if r else (wj, vj) for wj, vj, r in zip(w, v, real)]


def _stacked(requests) -> list:
    """Answers to same-kind, same-shaped requests from one stacked NumPy call.

    A stacked LAPACK call gives each matrix the bits of its own call.
    When the stacked call raises LinAlgError (one singular block, say),
    each request is retried on its own, so every lane gets its own result
    or error."""
    if len(requests) > 1:
        kind = requests[0][0]
        call = getattr(np.linalg, kind)
        # concatenate and reshape: the same copy as np.stack, at a fraction
        # of its call overhead
        stacks = [np.concatenate(column).reshape(len(column), *column[0].shape)
                  for column in list(zip(*requests))[1:]]
        try:
            if kind == "solve":
                a, b = stacks
                if b.ndim == 2:  # one right-hand-side vector per lane
                    return list(call(a, b[..., None])[..., 0])
                return list(call(a, b))
            if kind == "eig":
                return _split_spectra(*call(stacks[0]))
            return _split_spectra(call(stacks[0]))
        except _LinAlgError:
            pass
    return [_linalg(request) for request in requests]


def _one_lane(lane):
    """Run one lane to its result (each request is then its own NumPy
    call); an error the lane raises propagates."""
    (outcome,), _ = _run_lanes([lane])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _lane_function(lane):
    """The public function of the lane function ``lane``: the same name,
    docstring, signature and arguments, run through :func:`_one_lane`.  Its
    ``.lane`` is ``lane``.  A lane that runs another public function's lane
    reaches it through a private name bound at import, never through the
    public name, which a wrapper (a tracer's, say) may replace."""

    @functools.wraps(lane)
    def function(*args, **kwargs):
        return _one_lane(lane(*args, **kwargs))

    function.lane = lane
    return function


def _run_lanes(lanes, log: list | None = None) -> tuple[list, list[list]]:
    """Run every lane to its end, answering the same-shaped requests of all
    live lanes with one NumPy call per round (:func:`_stacked`).  Requests
    are float64 arrays, grouped by kind and shapes.

    Returns (outcomes, caught): per lane its result or the exception it
    raised, and the entries of ``log`` (the list a
    ``warnings.catch_warnings(record=True)`` block appends to) that
    appeared while that lane ran, moved out of ``log``; empty lists
    without a ``log``.
    """
    lanes = list(lanes)
    outcomes: list = [None] * len(lanes)
    caught: list[list] = [[] for _ in lanes]
    answers = [(i, None) for i in range(len(lanes))]  # (lane, what to send it)
    while answers:
        groups: dict[tuple, tuple[list, list]] = {}
        for i, answer in answers:
            mark = 0 if log is None else len(log)
            try:
                if isinstance(answer, _LinAlgError):
                    request = lanes[i].throw(answer)
                else:
                    request = lanes[i].send(answer)
                # a square matrix and a right-hand side of its size: the
                # last array's shape fixes every shape of the request
                key = (request[0], request[-1].shape)
                if key not in groups:
                    groups[key] = ([], [])
                members, requests = groups[key]
                members.append(i)
                requests.append(request)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:  # the lane's own error is its outcome
                outcomes[i] = exc
            if log is not None and len(log) > mark:
                caught[i].extend(log[mark:])
                del log[mark:]
        answers = [pair for members, requests in groups.values()
                   for pair in zip(members, _stacked(requests))]
    return outcomes, caught


# --- bracketed root finding --------------------------------------------------


def _brentq(f, xa: float, xb: float, *, xtol: float = 2e-12,
            rtol: float = 8.881784197001252e-16,
            fa: float | None = None, fb: float | None = None) -> float:
    """Root of ``f`` in the sign-changing bracket [xa, xb] by Brent's method.

    A statement-for-statement port of SciPy's ``brentq.c`` (Brent 1973,
    ch. 4): same steps, same floating-point operations in the same order,
    hence the same iterates.  Stops once the bracket half-width drops
    below (xtol + rtol |x|) / 2, within SciPy's default budget of 100
    iterations.  Unlike SciPy's wrapper it accepts ``xtol = 0`` (a purely
    relative tolerance).  ``fa``/``fb``, when given, are the already known
    values f(xa)/f(xb), which then are not evaluated again.
    """

    def checked(x: float, fx) -> float:
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    def call(x: float) -> float:
        return checked(x, f(x))

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre) if fa is None else checked(xpre, fa)
    fcur = call(xcur) if fb is None else checked(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ConvergenceError(
        f"Brent's method did not converge in 100 iterations (last x = {xcur!r})"
    )


def _first_root(f, grid, values, **brent_tol) -> float | None:
    """The first root of ``f`` along a scan ``grid`` already sampled as
    ``values``: in the first cell, in grid order, whose samples change
    sign or include an exact zero.  An exact zero at a grid point is the
    root itself; otherwise :func:`_brentq` refines the cell from the two
    samples, which it does not evaluate again.  A ``None`` sample (f
    undefined there) bounds no cell.  None when no cell qualifies.
    """
    for i in range(len(grid) - 1):
        fa, fb = values[i], values[i + 1]
        if fa is None or fb is None:
            continue
        if fa == 0.0 or fb == 0.0 or fa * fb < 0.0:
            # _brentq returns an end whose sample is zero as it is
            return _brentq(f, grid[i], grid[i + 1], fa=fa, fb=fb, **brent_tol)
    return None


# --- closed-form weak-field steady state -----------------------------------


@dataclass(frozen=True)
class ClosedFormInversions:
    """Weak-field (a = 0) steady-state inversions."""

    n21_bar: float
    n32_bar: float


def steady_inversions_closed_form(params: ModelParams) -> ClosedFormInversions:
    """Steady inversions of the undriven-field (a = 0) Bloch system.

    Valid for a resonant drive only; the driven-transition relaxation
    rate entering the algebra is then purely real.
    """
    _require_resonant_drive(params, "the closed-form steady state")
    gain = params.gain
    g = gain.pump_g
    g21, g31, g32 = gain.gamma21, gain.gamma31, gain.gamma32
    gamma32_tilde = complex_rates(params).Gamma32.real
    wa2 = _square(params.drive.omega_a_rabi, "drive.omega_a_rabi")
    m_inv = gamma32_tilde * (g * (g21 + g32) + g21 * (g31 + g32)) + 2.0 * (
        2.0 * g + g21 + g31
    ) * wa2
    if m_inv == 0.0:
        raise DegenerateParameterError(
            "steady state undefined: all relaxation pathways and the drive vanish"
        )
    m = 1.0 / m_inv
    n21 = ((g * g32 - g21 * g31 - g21 * g32) * gamma32_tilde
           + 2.0 * (g - g21 - g31) * wa2) * m
    n32 = (g21 - g32) * g * gamma32_tilde * m
    return ClosedFormInversions(n21_bar=n21, n32_bar=n32)


def _background_block(op):
    """Lane: the density-matrix coordinates of the a = 0 steady state of the
    reduced operator ``op`` = (k, m, nr, ni), m x = -k on the first 8 rows
    and columns."""
    k, m, _, _ = op
    try:
        x = yield ("solve", m[:8, :8], -k[:8])
    except np.linalg.LinAlgError as exc:
        raise DegenerateParameterError(
            f"weak-field steady state undefined for these rates: {exc}"
        ) from exc
    # the decoupled rho21/rho31 rows solve to -0.0, which tables would print
    # as -0; adding 0.0 turns it into 0.0
    return x + 0.0


@_lane_function
def weak_field_background(params: ModelParams) -> DensityMatrix3:
    """Steady state of the chromophore with the plasmon field held at zero.

    Solves the density-matrix block of the reduced operator at a = 0, in
    the frame of ``params``.  Unlike the closed form this admits a
    detuned drive; the spasing-frame coherences rho21 and rho31 come out
    zero.
    """
    x = yield from _background_block(_reduced_operator(_coeffs(params)))
    return _unpack_reduced(np.append(x, (0.0, 0.0))).rho


# --- spasing condition and frequency ----------------------------------------


def spasing_condition_residual(params: ModelParams, nu_s: float) -> complex:
    """Onset-balance residual at trial spasing frequency ``nu_s``.

    Zero means the weak-field gain exactly balances the plasmon loss; the
    real part is positive when the zero-field state amplifies.  Requires
    a resonant drive.
    """
    _require_resonant_drive(params, "the spasing condition")
    inv = steady_inversions_closed_form(params)
    rates = complex_rates(params, nu=nu_s)
    gamma21, gamma31, gamma_n = rates.Gamma21, rates.Gamma31, rates.Gamma_n
    gamma32 = rates.Gamma32.real  # resonant drive: purely real
    if gamma21 == 0:
        raise DegenerateParameterError(
            "spasing condition undefined: Gamma21 vanishes"
        )
    wa2 = _square(params.drive.omega_a_rabi, "drive.omega_a_rabi")
    coupling = params.plasmon.n_p * _square(
        params.plasmon.omega_b_single, "plasmon.omega_b_single")
    term = complex(inv.n21_bar)
    drive_loss = 0j
    if wa2 != 0.0:
        if gamma31 == 0 or gamma32 == 0.0:
            raise DegenerateParameterError(
                "spasing condition undefined: Gamma31 or Gamma32 vanishes "
                "with a nonzero drive"
            )
        term = term + (wa2 / (gamma31 * gamma32)) * inv.n32_bar
        drive_loss = wa2 / (gamma21 * gamma31)
    return (coupling / (gamma_n * gamma21)) * term - drive_loss - 1.0


def spasing_frequency_estimate(params: ModelParams) -> float:
    """Weighted-mean estimate of the spasing frequency.

    A mean of the transition and mode frequencies weighted by linewidths
    and drive strength; exact at zero drive, leading order otherwise
    (:func:`spasing_frequency` refines it to the exact root).
    """
    _require_resonant_drive(params, "the spasing-frequency formula")
    return _frequency_estimate(
        params, steady_inversions_closed_form(params), complex_rates(params)
    )


def _frequency_estimate(
    params: ModelParams, inv: ClosedFormInversions, rates: ComplexRates
) -> float:
    """:func:`spasing_frequency_estimate` from the closed-form inversions
    ``inv`` and the complex rates ``rates`` of ``params``."""
    gain = params.gain
    plasmon = params.plasmon
    gamma21_t = rates.Gamma21.real
    gamma31_t = rates.Gamma31.real
    gamma32_t = rates.Gamma32.real
    wa2 = _square(params.drive.omega_a_rabi, "drive.omega_a_rabi")
    if wa2 != 0.0 and (gamma31_t == 0.0 or gamma32_t == 0.0):
        raise DegenerateParameterError(
            "spasing-frequency estimate undefined: a coherence relaxation "
            "rate vanishes with a nonzero drive"
        )
    coupling = plasmon.n_p * _square(plasmon.omega_b_single, "plasmon.omega_b_single")
    if wa2 == 0.0:
        alpha = plasmon.gamma_n * gamma31_t
    else:
        alpha = (
            (coupling / (gamma32_t * gamma31_t)) * inv.n32_bar
            - plasmon.gamma_n / gamma31_t
        ) * wa2 + plasmon.gamma_n * gamma31_t
    weight = gamma21_t * gamma31_t + wa2
    denom = alpha + weight
    if denom == 0.0:
        raise DegenerateParameterError("spasing-frequency estimate undefined")
    return (alpha * gain.omega21 + weight * plasmon.omega_n) / denom


def _roots_lane(p: np.ndarray):
    """Lane: ``np.roots(p)`` for a float coefficient array, bit for bit.

    As NumPy does, leading zero coefficients are dropped, each trailing
    zero gives a root at 0 (appended last), and the other roots are the
    eigenvalues of the companion matrix; where NumPy finds none (a
    non-finite companion matrix, say) it raises
    :class:`DegenerateParameterError`."""
    nonzero = np.nonzero(p)[0]
    if not nonzero.size:
        return np.array([])
    trailing = len(p) - nonzero[-1] - 1
    p = p[int(nonzero[0]):int(nonzero[-1]) + 1]
    roots = np.array([])
    if len(p) > 1:
        companion = np.diag(np.ones((len(p) - 2,), p.dtype), -1)
        companion[0, :] = -p[1:] / p[0]
        try:
            roots = yield ("eigvals", companion)
        except _LinAlgError as exc:  # a non-finite companion matrix, say
            raise DegenerateParameterError(f"polynomial roots undefined: {exc}") from exc
    return np.hstack((roots, np.zeros(trailing, roots.dtype)))


def _onset_roots_lane(params: ModelParams, inv: ClosedFormInversions, rates: ComplexRates):
    """Lane: every real frequency at which the driven onset residual is real.

    With delta = omega21 - nu the residual is N(delta) / D(delta), where
    D = Gamma_n Gamma21 Gamma31 and N are cubics, so Im residual = 0 is
    Im(N conj D) = 0: a real polynomial of degree <= 5 (the delta^6
    terms cancel).  delta is scaled by |omega21 - omega_n| before the
    coefficients are formed; unscaled they span ~30 decades and the
    companion-matrix roots lose digits.  Requires a resonant drive,
    omega21 != omega_n and a nonzero drive; ``inv`` and ``rates`` are the
    closed-form inversions and complex rates of ``params``.  Returned in
    ascending order.
    """
    gain = params.gain
    plasmon = params.plasmon
    if rates.Gamma32.real == 0.0:
        raise DegenerateParameterError(
            "spasing condition undefined: Gamma32 vanishes with a nonzero drive"
        )
    detuning = gain.omega21 - plasmon.omega_n
    s = abs(detuning)
    # in units of s each rate is linear in x = delta / s: Gamma / s = i x + gamma / s
    g21 = np.array([1j, rates.Gamma21.real / s])
    g31 = np.array([1j, rates.Gamma31.real / s])
    gn = np.array([1j, complex(plasmon.gamma_n / s, -detuning / s)])
    wa2 = _square(
        params.drive.omega_a_rabi / s, "drive.omega_a_rabi / |omega21 - omega_n|")
    coupling = plasmon.n_p * _square(
        plasmon.omega_b_single / s, "plasmon.omega_b_single / |omega21 - omega_n|")
    den = np.convolve(np.convolve(gn, g21), g31)
    num = -den
    num[2:] += coupling * inv.n21_bar * g31 - wa2 * gn
    num[3] += coupling * wa2 * inv.n32_bar / (rates.Gamma32.real / s)
    im_poly = np.convolve(num, den.conj()).imag[1:]
    x = yield from _roots_lane(im_poly)
    x = x.real[x.imag == 0.0]
    return np.sort(gain.omega21 - s * x)


@_lane_function
def spasing_frequency(params: ModelParams) -> float:
    """Self-consistent spasing frequency.

    Returns the frequency at which the onset-balance residual is purely
    real.  At zero drive this has the closed weighted-mean form.  With a
    drive, the real roots of Im residual = 0 come from a quintic
    (:func:`_onset_roots_lane`), and the choice among them is: the
    root nearest :func:`spasing_frequency_estimate` inside the window
    [lo - pad, hi + pad] around the frequency-pulling interval [lo, hi]
    between the mode and transition frequencies, with pad starting at 5%
    of hi - lo and growing fourfold up to six times.  Raises
    :class:`ConvergenceError` when no root lies in the widest window, and
    :class:`DegenerateParameterError` where the frequency is not a finite
    number (a weighted mean or a polynomial coefficient that overflows).
    """
    _require_resonant_drive(params, "the spasing frequency")
    gain = params.gain
    omega21 = gain.omega21
    omega_n = params.plasmon.omega_n
    if omega21 == omega_n:
        return omega21
    if params.drive.omega_a_rabi == 0.0:
        gamma21_t = complex_rates(params).Gamma21.real
        gamma_n = params.plasmon.gamma_n
        nu = (gamma_n * omega21 + gamma21_t * omega_n) / (gamma_n + gamma21_t)
        if not math.isfinite(nu):  # the weighted sum overflows: no frequency
            raise DegenerateParameterError(
                f"spasing frequency undefined: the linewidth-weighted mean is {nu!r}"
            )
        return nu

    inv = steady_inversions_closed_form(params)
    rates = complex_rates(params)
    try:
        guess = _frequency_estimate(params, inv, rates)
    except DegenerateParameterError:
        guess = 0.5 * (omega21 + omega_n)

    roots = yield from _onset_roots_lane(params, inv, rates)
    lo = min(omega21, omega_n)
    hi = max(omega21, omega_n)
    pad = 0.05 * (hi - lo)
    for _ in range(6):
        inside = roots[(roots >= lo - pad) & (roots <= hi + pad)]
        if inside.size:
            return float(inside[np.argmin(np.abs(inside - guess))])
        pad *= 4.0
    raise ConvergenceError(
        "no spasing frequency found: the residual's imaginary part does not "
        "vanish near the frequency-pulling interval"
    )


# for the lanes of steady_state_numeric and frame_at_spasing_frequency; bound
# here, not looked up at call time
_frequency_lane = spasing_frequency.lane


@_lane_function
def frame_at_spasing_frequency(params: ModelParams) -> ModelParams:
    """Copy of ``params`` rotating at the self-consistent spasing frequency.

    Falls back to the spasing transition frequency when the frequency is
    undefined for these parameters, with a :class:`RegimeWarning` that
    names the first line outside this module, the caller's.
    """
    try:
        nu = yield from _frequency_lane(params)
    except _NO_SPASING_FREQUENCY as exc:
        warnings.warn(
            f"spasing frequency unavailable ({exc}); rotating at the "
            "spasing transition frequency instead",
            RegimeWarning,
            stacklevel=_caller_stacklevel(__name__),
        )
        nu = params.gain.omega21
    return set_param(params, "frame.nu_ref", nu)


# --- reduced algebraic system (trace eliminated) ----------------------------


def reduced_rhs(x, params: ModelParams, nu: float | None = None) -> np.ndarray:
    """Right-hand side on the 10 reduced coordinates
    (p1, p2, Re/Im rho21, Re/Im rho31, Re/Im rho32, Re/Im a)."""
    return _operator_rhs(
        _reduced_operator(_coeffs(params, nu)), np.asarray(x, dtype=float)
    )


def _operator_rhs(op, x: np.ndarray) -> np.ndarray:
    """k + (m + x8 nr + x9 ni) @ x for ``op`` = (k, m, nr, ni)."""
    k, m, nr, ni = op
    return k + (m + x[8] * nr + x[9] * ni) @ x


def _operator_jacobian(op, x: np.ndarray) -> np.ndarray:
    """Jacobian of k + (m + x8 nr + x9 ni) @ x at x, for ``op`` = (k, m, nr, ni)."""
    _, m, nr, ni = op
    jac = m + x[8] * nr + x[9] * ni
    jac[:, 8] += nr @ x
    jac[:, 9] += ni @ x
    return jac


def reduced_jacobian(x, params: ModelParams, nu: float | None = None) -> np.ndarray:
    """Analytic 10x10 Jacobian of :func:`reduced_rhs`."""
    return _operator_jacobian(
        _reduced_operator(_coeffs(params, nu)), np.asarray(x, dtype=float)
    )


# --- linear stability at the zero-field state --------------------------------


@dataclass(frozen=True)
class StabilityResult:
    """Spectrum of the linearization at the zero-field steady state.

    ``leading`` is the eigenvalue of largest real part over modes
    carrying plasmon-amplitude weight; its real part, the property
    ``gamma_s``, is the exponential growth (or decay) rate of the field.
    Of a conjugate pair it is the member whose mode is the amplitude's own,
    a ~ exp(leading t), so the mode oscillates at the frequency
    nu_ref - Im(leading) in any frame nu_ref.
    """

    eigenvalues: np.ndarray
    gamma_s_over_gamma_n: float
    leading: complex

    @property
    def gamma_s(self) -> float:
        """Growth rate of the plasmon field: the real part of ``leading``."""
        return self.leading.real


@_lane_function
def growth_rate(params: ModelParams) -> StabilityResult:
    """Linear growth rate of the plasmon field about the zero-field state."""
    return (yield from _growth_lane(params))[0]


def _growth_lane(params: ModelParams):
    """Lane: the :func:`growth_rate` result, with the reduced operator in the
    frame of ``params`` and the zero-field state x0 it linearizes about
    (the zero branch of the steady state is that state)."""
    op = _reduced_operator(_coeffs(params))
    x0 = np.append((yield from _background_block(op)), (0.0, 0.0))
    jac = _operator_jacobian(op, x0)
    try:
        eigvals, eigvecs = yield ("eig", jac)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigen-decomposition failed: {exc}") from exc
    weights = np.abs(eigvecs[8, :]) + np.abs(eigvecs[9, :])
    mask = weights > 1e-9
    if not mask.any():
        raise ConvergenceError("no eigenmode carries plasmon-amplitude weight")
    masked = np.where(mask, eigvals.real, -np.inf)
    lead = int(np.argmax(masked))
    leading = complex(eigvals[lead])
    # the linearization is complex-linear in (rho21, rho31, a), so each mode
    # comes with its conjugate; the field's own mode has (Re a, Im a)
    # along (1, -i), and the conjugate member's eigenvector is conj(v)
    v8, v9 = eigvecs[8, lead], eigvecs[9, lead]
    if abs(v9 - 1j * v8) < abs(v9 + 1j * v8):
        leading = leading.conjugate()
    order = np.argsort(-eigvals.real)
    result = StabilityResult(
        eigenvalues=eigvals[order],
        gamma_s_over_gamma_n=leading.real / params.plasmon.gamma_n,
        leading=leading,
    )
    return result, op, x0


# --- threshold search ---------------------------------------------------------


@dataclass(frozen=True)
class ThresholdResult:
    """Pump threshold estimates.

    ``g_th`` is the root of the onset-balance residual at the
    self-consistent frequency; ``g_th_growth`` from the sign change of
    the linear growth rate (None when the cross-check is skipped or
    finds no root); the property ``relative_gap`` compares the two.
    """

    g_th: float
    nu_s: float
    residual: float
    g_th_growth: float | None

    @property
    def relative_gap(self) -> float | None:
        """abs(g_th - g_th_growth) / g_th, or None without a growth root."""
        if self.g_th_growth is None:
            return None
        return abs(self.g_th - self.g_th_growth) / self.g_th


def _bracket_ends(bracket, error: type[SpaserError], what: str) -> tuple[float, float]:
    """The two ends of ``bracket`` as floats: two numbers (each an ``int``
    or a ``float``, never a ``bool``) with 0 < lo < hi < inf, else
    ``error("invalid <what> bracket ...")``."""
    try:
        lo, hi = bracket
    except (TypeError, ValueError):
        lo = hi = math.nan
    if not (_is_number(lo) and _is_number(hi) and 0.0 < lo < hi < math.inf):
        raise error(f"invalid {what} bracket {bracket!r}")
    return float(lo), float(hi)


def _growth_at_g(params: ModelParams, g: float) -> float:
    return growth_rate(set_param(params, "gain.pump_g", g)).gamma_s


def threshold_find(
    params: ModelParams,
    g_bracket: tuple[float, float] | None = None,
    *,
    cross_check: bool = True,
) -> ThresholdResult:
    """Pump rate at which the zero-field state first loses net stability.

    Samples the onset-balance residual on a geometric scan of the
    bracket (10 points per decade) and returns its first root scanning
    up in pump, refined by Brent's method to a relative accuracy of
    1e-12 (:func:`_first_root`).  Each pump is evaluated once, giving
    the spasing frequency and the residual there; the root is a pump
    so evaluated (a scan sample or a Brent iterate), and ``nu_s`` and
    ``residual`` are that evaluation's.  Raises
    :class:`NoThresholdError`, carrying the residual at both bracket
    ends, when no scan cell changes sign, and without them ("invalid pump
    bracket") for a bracket that is not two numbers with
    0 < lo < hi < inf.  With ``cross_check`` the same
    root is re-derived from the linear growth rate and the two must
    agree within 1% (warning otherwise).
    """
    if g_bracket is None:
        g_bracket = (1e8, 1e15)
    lo, hi = _bracket_ends(g_bracket, NoThresholdError, "pump")

    evaluated: dict[float, tuple[float, float]] = {}  # pump -> (nu_s, residual)

    def residual_at(g: float) -> float:
        trial = set_param(params, "gain.pump_g", g)
        nu_s = spasing_frequency(trial)
        residual = spasing_condition_residual(trial, nu_s).real
        evaluated[g] = (nu_s, residual)
        return residual

    n_scan = max(2, int(round(10.0 * math.log10(hi / lo))) + 1)
    grid = [float(g) for g in np.geomspace(lo, hi, n_scan)]
    values = [residual_at(g) for g in grid]
    g_th = _first_root(residual_at, grid, values, xtol=0.0, rtol=1e-12)
    if g_th is None:
        raise NoThresholdError(
            "the onset-balance residual does not change sign over the pump "
            f"bracket [{lo:.3e}, {hi:.3e}] rad/s",
            residual_lo=values[0],
            residual_hi=values[-1],
        )
    nu_s, residual = evaluated[g_th]

    g_growth: float | None = None
    if cross_check:
        width = 0.02 * g_th
        glo, ghi = max(lo, g_th - width), min(hi, g_th + width)
        flo, fhi = _growth_at_g(params, glo), _growth_at_g(params, ghi)
        if flo * fhi > 0.0:
            glo, ghi = lo, hi
            flo, fhi = _growth_at_g(params, glo), _growth_at_g(params, ghi)
        if flo * fhi <= 0.0:
            g_growth = _brentq(
                lambda g: _growth_at_g(params, g), glo, ghi, rtol=8.9e-16, fa=flo, fb=fhi
            )
        else:
            warnings.warn(
                "growth rate does not change sign near the residual threshold; "
                "cross-check unavailable",
                CrossCheckWarning,
                stacklevel=2,
            )
    result = ThresholdResult(g_th=g_th, nu_s=nu_s, residual=residual, g_th_growth=g_growth)
    gap = result.relative_gap
    if gap is not None and gap > 0.01:
        warnings.warn(
            f"threshold estimators disagree by {gap:.2%}: residual "
            f"root gives {g_th:.6e}, growth-rate root gives "
            f"{g_growth:.6e} rad/s",
            CrossCheckWarning,
            stacklevel=2,
        )
    return result


# --- numeric steady state ----------------------------------------------------


@dataclass(frozen=True)
class SteadyStateResult:
    """Converged operating point (a solve that fails raises
    :class:`ConvergenceError` instead).

    The density matrix and amplitude are reported in the frame rotating
    at ``nu_s`` with the gauge fixed to a real nonnegative amplitude.
    ``branch`` is "zero" for the non-spasing state (``n_n`` exactly 0).
    ``n_n``, ``n21`` and ``n32`` are properties of ``amplitude`` and ``rho_ss``.
    """

    rho_ss: DensityMatrix3
    amplitude: complex
    nu_s: float
    residual_norm: float
    method: str
    stable: bool
    branch: str

    @property
    def n_n(self) -> float:
        """Plasmon number |amplitude|^2, the N_n observable of the state."""
        return SpaserState(self.rho_ss, self.amplitude).n_n

    @property
    def n21(self) -> float:
        """Inversion of the spasing transition, p2 - p1."""
        return self.rho_ss.p2 - self.rho_ss.p1

    @property
    def n32(self) -> float:
        """Inversion of the drive transition, p3 - p2."""
        return self.rho_ss.p3 - self.rho_ss.p2


def _rate_scale(params: ModelParams) -> float:
    gain = params.gain
    return max(
        params.plasmon.gamma_n,
        gain.gamma21,
        gain.gamma32,
        gain.pump_g,
        params.drive.omega_a_rabi,
        abs(params.delta_b),
        abs(params.delta_n),
        1.0,
    )


def _gain_balance_block(params: ModelParams, nu0: float):
    """(-k, m, nr, dm, nd) for :func:`_gain_balance`: the density-matrix
    block of the reduced operator at nu0, with dm = gamma_n d m / d nu and
    nd = (nr, dm) stacked for the two Jacobian right-hand sides."""
    k, m, nr, _ = _reduced_operator(_coeffs(params, nu0))
    dm = params.plasmon.gamma_n * _REDUCED_OPERATOR_DNU[:8, :8]
    # contiguous copies of the blocks: every evaluation adds them up
    m, nr = m[:8, :8].copy(), nr[:8, :8].copy()
    return -k[:8], m, nr, dm, np.stack((nr, dm))


def _gain_balance(params: ModelParams, block, nu0: float, amplitude: float, shift: float):
    """Lane: the gain mismatch at field amplitude A and frame
    nu0 + gamma_n * shift.

    ``block`` = (-k, m, nr, dm, nd) comes from :func:`_gain_balance_block`.
    At (A, shift) the chromophore solves M rho = -k with
    M = m + A nr + shift dm, which is exact because nu enters the
    operator linearly.

    The mismatch is the field-equation residual divided by the amplitude,
    in units of gamma_n.  The raw field residual vanishes identically on
    the zero-field line, so Newton on it degenerates at small amplitudes;
    dividing by the (gauge-even) amplitude removes that root family and
    leaves the spasing branch as a simple root.

    Returns (f, rho, jacobian): the mismatch as a pair of floats, the 8
    density-matrix coordinates and a lane giving the exact Jacobian
    ((df0/dA, df0/dshift), (df1/dA, df1/dshift)) at the same point, from
    d rho / dA = -M^-1 nr rho and d rho / dshift = -M^-1 dm rho.  That
    costs one more block solve, so callers ask for it only where needed.
    """
    neg_k, m, nr, dm, nd = block
    mat = m + amplitude * nr + shift * dm
    rho = yield ("solve", mat, neg_k)
    coupling = params.plasmon.n_p * params.plasmon.omega_b_single
    gamma_n = params.plasmon.gamma_n
    delta_n = params.plasmon.omega_n - (nu0 + gamma_n * shift)
    r21, i21 = float(rho[2]), float(rho[3])
    f = (
        (-gamma_n - coupling * i21 / amplitude) / gamma_n,
        (-delta_n + coupling * r21 / amplitude) / gamma_n,
    )

    def jacobian():
        drho = (yield ("solve", mat, -(nd @ rho).T)).tolist()
        kappa = coupling / (gamma_n * amplitude)
        # delta_n falls by gamma_n per unit shift: the 1.0 in df1/dshift
        return (
            (-kappa * (drho[3][0] - i21 / amplitude), -kappa * drho[3][1]),
            (kappa * (drho[2][0] - r21 / amplitude), 1.0 + kappa * drho[2][1]),
        )

    return f, rho, jacobian


_AMP_FLOOR = 1e-8
#: Newton stops once the gain mismatch is this small, in units of gamma_n.
_NEWTON_TOL = 1e-12
#: The block linear solves put a rounding floor on the achievable
#: mismatch; an iterate that stalls this close to balance is a root.
_STALL_TOL = 1e-9


def _spasing_newton(params: ModelParams, amp0: float, nu0: float):
    """Lane: damped Newton on (amplitude, frame frequency); None on failure.

    Works on the scaled unknowns (A, (nu - nu0)/gamma_n), in which the
    gain balance is of order one in both.  The reduced operator is built
    once at nu0, where nu enters it linearly.  Every evaluation is one
    8x8 block solve for the density matrix; an accepted iterate adds one
    more, with two right-hand sides, for the exact Jacobian
    (:func:`_gain_balance`).  Returns (A, nu, rho) with the 8
    density-matrix coordinates solved at the root.

    A fixed point has 2 gamma_n N = n_p (g p1 - gamma21 p2 - gamma31 p3)
    <= n_p g (the field term of dp1/dt), so an accepted iterate with A
    above 10 sqrt(n_p g / (2 gamma_n)) ends the solve: None.
    """
    gamma_n = params.plasmon.gamma_n
    ceiling = 10.0 * math.sqrt(params.plasmon.n_p * params.gain.pump_g / (2.0 * gamma_n))
    block = _gain_balance_block(params, nu0)
    amp = max(abs(float(amp0)), _AMP_FLOOR)
    u = 0.0

    try:
        f, rho, jacobian = yield from _gain_balance(params, block, nu0, amp, u)
    except np.linalg.LinAlgError:
        return None
    fn = max(abs(f[0]), abs(f[1]))
    for _ in range(80):
        if fn <= _NEWTON_TOL:
            break
        # the 2x2 Newton step J step = -f by Cramer's rule
        (j00, j01), (j10, j11) = yield from jacobian()
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            return None
        step_amp = (j01 * f[1] - j11 * f[0]) / det
        step_u = (j10 * f[0] - j00 * f[1]) / det
        lam = 1.0
        while lam >= 1.0 / 1024.0:
            amp_new = max(abs(amp + lam * step_amp), _AMP_FLOOR)
            u_new = u + lam * step_u
            try:
                trial = yield from _gain_balance(params, block, nu0, amp_new, u_new)
            except np.linalg.LinAlgError:
                lam *= 0.5
                continue
            fn_new = max(abs(trial[0][0]), abs(trial[0][1]))
            if fn_new < fn * (1.0 - 1e-4 * lam) or fn_new <= _NEWTON_TOL:
                if amp_new > ceiling:
                    return None
                amp, u, fn = amp_new, u_new, fn_new
                f, rho, jacobian = trial
                break
            lam *= 0.5
        else:
            break  # the line search stalled
    # converged, or stalled within the rounding floor of the block solves
    if fn <= _STALL_TOL:
        return amp, nu0 + gamma_n * u, rho
    return None


def _steady_result(
    params: ModelParams, x: np.ndarray, op, nu_s: float, stable: bool, branch: str
) -> SteadyStateResult:
    """The operating point at the 10 reduced coordinates ``x``.  Its
    residual is the largest right-hand-side component there, under the
    reduced operator ``op`` built in the frame nu_s, relative to the
    fastest rate and the field amplitude."""
    state = _unpack_reduced(x)
    f = _operator_rhs(op, x)
    amp = math.hypot(x[8], x[9])
    return SteadyStateResult(
        rho_ss=state.rho,
        amplitude=state.amplitude,
        nu_s=nu_s,
        residual_norm=float(np.max(np.abs(f))) / (_rate_scale(params) * (1.0 + amp)),
        method="algebraic-root",
        stable=stable,
        branch=branch,
    )


def _gauge_free_lane(op, x: np.ndarray):
    """Lane: the eigenvalues of the reduced Jacobian at the spasing fixed
    point ``x`` (Im a = 0, A = Re a > 0) less its gauge zero, for the
    reduced operator ``op`` in the frame of the point.

    A global phase turns rho21, rho31 and a together, so the Jacobian J
    maps its generator g = (0, 0, -x3, x2, -x5, x4, 0, 0, 0, A) to zero.
    On the quotient by g, with Im a eliminated, J acts as the 9x9 matrix
    J[:9, :9] - outer(g[:9], J[9, :9]) / A, whose eigenvalues are J's
    without that zero: the gauge mode drops out exactly, with no
    tolerance.  This is the one stability rule for spasing points: a
    point is stable when no eigenvalue here has a positive real part.
    A search for the pump where that first fails (the self-pulsing Hopf
    threshold) should follow the largest real part of this spectrum.
    """
    jac = _operator_jacobian(op, x)
    gauge = np.array([0.0, 0.0, -x[3], x[2], -x[5], x[4], 0.0, 0.0, 0.0])
    return (yield ("eigvals", jac[:9, :9] - np.outer(gauge, jac[9, :9]) / x[8]))


def _seed_amplitudes(candidates: list[float]):
    """Newton seeds sqrt(n f), f = 1, 0.1, 10, for each finite positive
    plasmon-number estimate n in order, skipping any within 0.1% of an
    earlier seed.  Lazy: most solves converge from the first seed, so the
    order of ``candidates`` sets the cost (see :func:`steady_state_numeric`
    for the order)."""
    seeds: list[float] = []
    for n_est in candidates:
        if math.isfinite(n_est) and n_est > 0.0:
            for factor in (1.0, 0.1, 10.0):
                amp = math.sqrt(n_est * factor)
                if all(abs(amp - s) > 1e-3 * amp for s in seeds):
                    seeds.append(amp)
                    yield amp


@_lane_function
def steady_state_numeric(params: ModelParams) -> SteadyStateResult:
    """Self-consistent operating point of the coupled system.

    Where the zero-field state is linearly stable (growth rate
    gamma_s <= 0) the result is that state, the zero branch: the
    weak-field background with ``n_n`` exactly 0, reported in the frame
    of ``params`` with ``nu_s`` the spasing frequency (NaN where it is
    undefined).  Above onset it is the spasing branch, found by damped
    Newton on the algebraic fixed-point system — the chromophore block
    is eliminated by an exact linear solve, leaving the field amplitude
    and the self-consistent frame frequency as unknowns — from the
    spasing frequency (omega21 where it is undefined) and one order of
    plasmon-number seeds: the strong- and weak-drive saturation limits,
    the fixed numbers 1, 100, 1e-2, 1e-4, and last the growth-rate
    estimate n_p gamma_s / (4 gamma_n).  At pump g <= gamma21 the limits
    are not positive, so they give no seed, and the estimate overshoots
    the root by orders of magnitude.  A zero-branch result is ``stable``;
    a spasing one is when no eigenvalue of the reduced Jacobian at the
    root has a positive real part, its gauge zero removed exactly
    (:func:`_gauge_free_lane`), not by a tolerance.  Raises
    :class:`ConvergenceError` when Newton fails from every seed.  Warns
    (:class:`BookkeepingWarning`) when a spasing point without inversion
    has no more excited than ground population; the warning names the
    first line outside this module, the caller's.
    """
    stab, op, x0 = yield from _growth_lane(params)
    try:
        nu_s = yield from _frequency_lane(params)
    except _NO_SPASING_FREQUENCY:
        nu_s = math.nan
    if stab.gamma_s <= 0.0:
        # the background and its residual, from the operator in the frame of
        # params that the growth rate was read off
        return _steady_result(params, x0, op, nu_s, True, "zero")

    plasmon = params.plasmon
    nu0 = params.gain.omega21 if math.isnan(nu_s) else nu_s
    # near threshold the branch rises from zero, so the root can sit at
    # a tiny number; _weak_drive_number divides by g + 2 gamma32, zero
    # only at g = gamma32 = 0, where no gain lifts the point off the zero branch
    candidates = [_strong_drive_number(params), _weak_drive_number(params),
                  1.0, 100.0, 1e-2, 1e-4,
                  plasmon.n_p * stab.gamma_s / (4.0 * plasmon.gamma_n)]
    for amp0 in _seed_amplitudes(candidates):
        root = yield from _spasing_newton(params, amp0, nu0)
        if root is None:
            continue
        amp, nu_s, rho = root
        x = np.append(rho, (amp, 0.0))
        op = _reduced_operator(_coeffs(params, nu_s))
        spectrum = yield from _gauge_free_lane(op, x)
        stable = not bool(np.any(spectrum.real > 0.0))
        result = _steady_result(params, x, op, nu_s, stable, "spasing")
        rho = result.rho_ss
        if result.n_n > 1e-9 and result.n21 < 0.0 and not (rho.p2 + rho.p3 > rho.p1):
            warnings.warn(
                "operating point spases without inversion yet its total excited "
                f"population does not exceed the ground population (p1={rho.p1!r}, "
                f"p2={rho.p2!r}, p3={rho.p3!r})",
                BookkeepingWarning,
                stacklevel=_caller_stacklevel(__name__),
            )
        return result

    raise ConvergenceError(
        "Newton iteration on the fixed-point system failed from every seed"
    )


# --- analytic saturation limits -----------------------------------------------


def _warn_regime(failures: list[str], what: str) -> None:
    if failures:
        warnings.warn(
            f"{what} outside its validity regime: " + "; ".join(failures),
            RegimeWarning,
            stacklevel=3,
        )


def _strong_drive_number(params: ModelParams) -> float:
    gain, plasmon = params.gain, params.plasmon
    return plasmon.n_p * (gain.pump_g - gain.gamma21) / (6.0 * plasmon.gamma_n)


def _weak_drive_number(params: ModelParams) -> float:
    gain, plasmon = params.gain, params.plasmon
    return (
        plasmon.n_p
        * gain.gamma32
        * (gain.pump_g - gain.gamma21)
        / (2.0 * plasmon.gamma_n * (gain.pump_g + 2.0 * gain.gamma32))
    )


def limit_strong_drive(params: ModelParams) -> float:
    """Saturated plasmon number for a strong resonant drive.

    In the strongly driven, strongly saturated regime the populations
    equalize and each pumped chromophore feeds the mode at one third of
    its net pump-decay imbalance: N = n_p (g - gamma21) / (6 gamma_n),
    clamped at zero below g = gamma21.
    """
    gain = params.gain
    wa = params.drive.omega_a_rabi
    failures = []
    if not gain.gamma32 >= 10.0 * gain.gamma31:
        failures.append("gamma32 is not >= 10*gamma31")
    if not gain.gamma21 >= 10.0 * gain.gamma32:
        failures.append("gamma21 is not >= 10*gamma32")
    if not wa >= 10.0 * gain.gamma21:
        failures.append("drive is not >= 10*gamma21")
    if not wa >= 10.0 * params.plasmon.gamma_n:
        failures.append("drive is not >= 10*gamma_n")
    if not gain.pump_g > gain.gamma21:
        failures.append("pump does not exceed gamma21")
    _warn_regime(failures, "strong-drive limit")
    return max(0.0, _strong_drive_number(params))


def limit_weak_drive(params: ModelParams) -> float:
    """Saturated plasmon number for a weak drive.

    The slow |3> -> |2> feed bottlenecks the cycle.  Saturation clamps
    the spasing transition, p2 ~ p1 = p, so p3 = 1 - 2p.  The pump
    balance of |3> is g p = (gamma32 + gamma31) p3, which for
    gamma31 << gamma32 gives p = gamma32 / (g + 2 gamma32).  Each
    chromophore then emits gamma32 p3 - gamma21 p = (g - gamma21) p into
    the mode, and with the same n_p R / (2 gamma_n) normalisation as
    :func:`limit_strong_drive`:
    N = n_p gamma32 (g - gamma21) / (2 gamma_n (g + 2 gamma32)), clamped
    at zero below g = gamma21.

    Near break-even (g -> gamma21, gamma32 << gamma21) the denominator
    g + 2 gamma32 tends to gamma21 and the result reduces to
    n_p gamma32 (g - gamma21) / (2 gamma_n gamma21); away from break-even
    that form overestimates by about g / gamma21 - 1.  The paper's
    abstract does not show which of the two it prints.

    Raises :class:`DegenerateParameterError` for gamma21 = 0, where the
    weak-drive regime (drive <= 0.1 gamma21) is empty.
    """
    gain = params.gain
    if gain.gamma21 == 0.0:
        raise DegenerateParameterError("weak-drive limit undefined for gamma21 = 0")
    wa = params.drive.omega_a_rabi
    failures = []
    if not wa <= 0.1 * gain.gamma21:
        failures.append("drive is not <= 0.1*gamma21")
    if not wa <= 0.1 * params.plasmon.gamma_n:
        failures.append("drive is not <= 0.1*gamma_n")
    if not gain.gamma32 >= 10.0 * gain.gamma31:
        failures.append("gamma32 is not >= 10*gamma31")
    if not gain.gamma21 >= 10.0 * gain.gamma32:
        failures.append("gamma21 is not >= 10*gamma32")
    _warn_regime(failures, "weak-drive limit")
    if gain.pump_g <= gain.gamma21:
        return 0.0
    return _weak_drive_number(params)


# --- coupling calibration -------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated coupling and the two thresholds that give its ratio.

    ``g_th_drive_off`` and ``g_th_drive_on`` are the pump thresholds
    (:func:`threshold_find`, without the cross-check) at coupling
    ``omega_b_single`` with the drive off and at the reference drive.
    """

    omega_b_single: float
    g_th_drive_off: float
    g_th_drive_on: float

    @property
    def threshold_ratio(self) -> float:
        """How far the drive cuts the threshold: g_th_drive_off / g_th_drive_on."""
        return self.g_th_drive_off / self.g_th_drive_on


def calibrate_coupling(
    params: ModelParams,
    *,
    target_ratio: float = 2.0,
    omega_a_on: float = 16.0e12,
    bracket: tuple[float, float] = (1.0e12, 1.0e14),
) -> CalibrationResult:
    """Coupling at which the drive cuts the spasing threshold by ``target_ratio``.

    Root-finds ``omega_b_single`` so that
    g_th(drive off) / g_th(drive = omega_a_on) equals the target within
    1%, from the ratio sampled at 13 log-spaced couplings across the
    bracket.  When the sampled ratio curve crosses the target inside the
    bracket, the first crossing scanning up in coupling is returned,
    refined by Brent's method (:func:`_first_root`; a coupling with no
    threshold, or one undefined there, bounds no cell).  When it only
    approaches the target asymptotically (the threshold ratio saturates
    at strong coupling),
    the smallest coupling whose ratio sits within half the tolerance
    (0.5%) of the target is returned instead.  Raises
    :class:`CalibrationError` carrying the sampled (coupling, ratio)
    curve when neither exists inside the bracket, and without a curve
    for a target that is not finite and > 0 or ("invalid coupling
    bracket") a bracket that is not two numbers with 0 < lo < hi < inf.
    ``omega_a_on`` goes to the drive leaf as it is, so a value that leaf
    rejects (a ``bool`` or a string, say) raises its :class:`ConfigError`.

    Each coupling's pair of thresholds (drive off, drive on) is found
    once per call, two :func:`threshold_find` calls, or one when the
    drive-off threshold is missing.  The returned coupling is one of the
    couplings so evaluated, and the result carries its pair.
    """
    if not (math.isfinite(target_ratio) and target_ratio > 0.0):
        raise CalibrationError(f"invalid target ratio {target_ratio!r}")
    lo, hi = _bracket_ends(bracket, CalibrationError, "coupling")

    off = set_param(params, "drive.omega_a_rabi", 0.0)
    on = set_param(params, "drive.omega_a_rabi", omega_a_on)
    # coupling -> (drive off, drive on) thresholds, None where either is missing
    thresholds: dict[float, tuple[float, float] | None] = {}

    def ratio(coupling: float) -> float | None:
        if coupling not in thresholds:
            try:
                thresholds[coupling] = tuple(
                    threshold_find(
                        set_param(p, "plasmon.omega_b_single", coupling),
                        cross_check=False,
                    ).g_th
                    for p in (off, on)
                )
            except (NoThresholdError, DegenerateParameterError):
                thresholds[coupling] = None
        pair = thresholds[coupling]
        return None if pair is None else pair[0] / pair[1]

    grid = [float(w) for w in np.geomspace(lo, hi, 13)]
    samples = [ratio(w) for w in grid]
    curve = [(w, math.nan if r is None else r) for w, r in zip(grid, samples)]

    root = _first_root(
        lambda w: ratio(w) - target_ratio,
        grid,
        [None if r is None else r - target_ratio for r in samples],
        rtol=1e-8,
    )
    if root is None:
        # no exact crossing: take the band entry point, i.e. the smallest
        # coupling whose ratio is within half the tolerance of the target
        half_band = 0.005 * target_ratio
        for i, r in enumerate(samples):
            if r is None or abs(r - target_ratio) > half_band:
                continue
            prev = samples[i - 1] if i > 0 else None
            if prev is None:
                root = grid[i]
            else:
                goal = target_ratio + math.copysign(half_band, prev - target_ratio)
                root = _brentq(
                    lambda w: ratio(w) - goal, grid[i - 1], grid[i],
                    rtol=1e-8, fa=prev - goal, fb=r - goal,
                )
            break
    if root is None:
        raise CalibrationError(
            f"threshold ratio {target_ratio} not attainable for couplings in "
            f"[{lo:.3e}, {hi:.3e}] rad/s",
            curve=curve,
        )

    # every root is a coupling evaluated above, where both thresholds exist
    result = CalibrationResult(root, *thresholds[root])
    if abs(result.threshold_ratio - target_ratio) > 0.01 * target_ratio:
        raise CalibrationError(
            f"calibration landed at ratio {result.threshold_ratio!r}, more than "
            f"1% from the target {target_ratio}",
            curve=curve,
        )
    return result
