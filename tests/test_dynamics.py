"""Equations of motion and the adaptive time-domain integrator."""

import cmath
import math

import numpy as np
import pytest

from helpers import OMEGA_21, make_params
from spaserkit import dynamics
from spaserkit.analysis import (
    frame_at_spasing_frequency,
    reduced_jacobian,
    reduced_rhs,
    weak_field_background,
)
from spaserkit.dynamics import (
    _REDUCED_OPERATOR_DNU,
    _coeffs,
    _reduced_operator,
    equations_of_motion,
    integrate,
)
from spaserkit.errors import (
    IntegrationError,
    InvalidStateError,
    StiffnessError,
    TraceDriftError,
)
from spaserkit.params import default_params, set_param
from spaserkit.state import DensityMatrix3, SpaserState


def rich_state() -> SpaserState:
    return SpaserState(
        rho=DensityMatrix3(
            p1=0.5, p2=0.3, p3=0.2, rho21=0.10 - 0.04j, rho31=0.02 + 0.03j,
            rho32=-0.05 + 0.06j,
        ),
        amplitude=1.2 - 0.7j,
    )


def driven_params(**kw):
    kw.setdefault("omega_a_rabi", 16e12)
    kw.setdefault("pump_g", 8e12)
    return make_params(**kw)


class TestEquationsOfMotion:
    def test_population_derivatives_sum_to_zero(self):
        d = equations_of_motion(rich_state(), driven_params())
        total = d.rho.p1 + d.rho.p2 + d.rho.p3
        scale = max(abs(d.rho.p1), abs(d.rho.p2), abs(d.rho.p3))
        assert abs(total) <= 1e-12 * scale

    def test_input_state_is_validated(self):
        bad = SpaserState(rho=DensityMatrix3(p1=0.9, p2=0.0, p3=0.0))
        with pytest.raises(InvalidStateError):
            equations_of_motion(bad, driven_params())

    @pytest.mark.parametrize("theta", [0.3, -1.2, 2.9])
    def test_gauge_covariance(self, theta):
        """Rotating the field phase commutes with taking the derivative."""
        params = driven_params()
        s = rich_state()
        d_rotated = equations_of_motion(s.with_phase(theta), params)
        rotated_d = equations_of_motion(s, params).with_phase(theta)
        assert cmath.isclose(d_rotated.amplitude, rotated_d.amplitude,
                             rel_tol=1e-12, abs_tol=1e-3)
        assert cmath.isclose(d_rotated.rho.rho21, rotated_d.rho.rho21,
                             rel_tol=1e-12, abs_tol=1e-3)
        assert cmath.isclose(d_rotated.rho.rho31, rotated_d.rho.rho31,
                             rel_tol=1e-12, abs_tol=1e-3)
        assert cmath.isclose(d_rotated.rho.rho32, rotated_d.rho.rho32,
                             rel_tol=1e-12, abs_tol=1e-3)
        for name in ("p1", "p2", "p3"):
            assert math.isclose(getattr(d_rotated.rho, name),
                                getattr(rotated_d.rho, name),
                                rel_tol=1e-12, abs_tol=1e-3)

    def test_ensemble_scaling_invariance(self):
        """(n_p, coupling, amplitude) -> (k n_p, coupling/sqrt k, sqrt k a)
        leaves the chromophore dynamics untouched and scales the field
        equation by sqrt k."""
        k = 4.0
        base = driven_params()
        scaled = make_params(
            omega_a_rabi=16e12, pump_g=8e12,
            n_p=base.plasmon.n_p * k,
            omega_b_single=base.plasmon.omega_b_single / math.sqrt(k),
        )
        s = rich_state()
        s_scaled = SpaserState(rho=s.rho, amplitude=s.amplitude * math.sqrt(k))
        d = equations_of_motion(s, base)
        d_scaled = equations_of_motion(s_scaled, scaled)
        assert cmath.isclose(d_scaled.rho.rho21, d.rho.rho21, rel_tol=1e-12)
        assert math.isclose(d_scaled.rho.p1, d.rho.p1, rel_tol=1e-12)
        assert cmath.isclose(d_scaled.amplitude, d.amplitude * math.sqrt(k),
                             rel_tol=1e-12)

    def test_decoupled_field_term(self):
        """With zero coupling the field decays at the complex mode rate."""
        p = make_params(omega_b_single=0.0)
        s = SpaserState(rho=DensityMatrix3.ground(), amplitude=2.0 + 1.0j)
        d = equations_of_motion(s, p)
        expected = -(p.plasmon.gamma_n + 1j * p.delta_n) * s.amplitude
        assert cmath.isclose(d.amplitude, expected, rel_tol=1e-14)

    def test_matches_the_reduced_operator(self):
        """The stepper's kernel and the reduced bilinear operator state the
        same model: with p3 dropped they agree row by row in any frame, and
        dp3 closes the trace."""
        rng = np.random.default_rng(11)
        p = driven_params(gamma_ph=3e13, delta_a=1.5e12)
        for _ in range(50):
            nu = OMEGA_21 + rng.uniform(-2e13, 2e13)
            p1, p2, _ = rng.dirichlet(np.ones(3))
            c = rng.uniform(-0.3, 0.3, size=6)
            a = complex(*rng.uniform(-5.0, 5.0, size=2))
            state = SpaserState(
                rho=DensityMatrix3(
                    p1=p1, p2=p2, p3=1.0 - p1 - p2, rho21=complex(c[0], c[1]),
                    rho31=complex(c[2], c[3]), rho32=complex(c[4], c[5]),
                ),
                amplitude=a,
            )
            d = equations_of_motion(state, set_param(p, "frame.nu_ref", nu))
            got = np.array([
                d.rho.p1, d.rho.p2, d.rho.rho21.real, d.rho.rho21.imag,
                d.rho.rho31.real, d.rho.rho31.imag, d.rho.rho32.real,
                d.rho.rho32.imag, d.amplitude.real, d.amplitude.imag,
            ])
            x = np.array([p1, p2, *c, a.real, a.imag])
            # per row: the constant term plus the magnitudes of all the others
            scale = (np.abs(reduced_rhs(np.zeros(10), p, nu))
                     + np.abs(reduced_jacobian(x, p, nu)) @ np.abs(x))
            assert np.all(np.abs(got - reduced_rhs(x, p, nu)) <= 1e-13 * scale)
            assert abs(d.rho.p1 + d.rho.p2 + d.rho.p3) <= 1e-13 * (scale[0] + scale[1])

    @pytest.mark.parametrize("delta_a", [0.0, 1.5e12])
    def test_frame_frequency_enters_the_operator_linearly(self, delta_a):
        """d m / d nu is the stated constant, and nu appears nowhere else.

        Steps are powers of two on a frame frequency that is itself a
        multiple of a large power of two, so nu + step is exact and the
        difference quotient is exact wherever m is linear in nu."""
        p = driven_params(gamma_ph=3e13, delta_a=delta_a)
        nu = 3.8e15
        k0, m0, nr0, ni0 = _reduced_operator(_coeffs(p, nu))
        for step in (2.0**20, -(2.0**33)):
            k1, m1, nr1, ni1 = _reduced_operator(_coeffs(p, nu + step))
            np.testing.assert_array_equal((m1 - m0) / step, _REDUCED_OPERATOR_DNU)
            np.testing.assert_array_equal(k1, k0)
            np.testing.assert_array_equal(nr1, nr0)
            np.testing.assert_array_equal(ni1, ni0)


class TestIntegrator:
    def test_free_plasmon_decay_matches_analytic_solution(self):
        p = make_params(omega_b_single=0.0, pump_g=0.0)
        a0 = 1.0 + 0.5j
        t_end = 5e-15
        traj = integrate(
            SpaserState(rho=DensityMatrix3.ground(), amplitude=a0), p, t_end,
            rel_tol=1e-10, abs_tol=1e-14,
        )
        final = traj.final_state
        expected = a0 * cmath.exp(-(p.plasmon.gamma_n + 1j * p.delta_n) * t_end)
        assert cmath.isclose(final.amplitude, expected, rel_tol=1e-7)
        # nothing pumps the medium, so it stays in the ground state
        assert final.rho.p1 == pytest.approx(1.0, abs=1e-12)
        assert traj.t[0] == 0.0 and traj.t[-1] == t_end

    def test_medium_relaxes_to_zero_field_background(self):
        p = driven_params(omega_b_single=0.0)
        x0 = np.zeros(10)
        x0[0] = 1.0
        block = reduced_jacobian(x0, p)[:8, :8]
        re = np.abs(np.linalg.eigvals(block).real)
        slow = re[re > 1e-8 * re.max()].min()
        traj = integrate(
            SpaserState(rho=DensityMatrix3.ground(), amplitude=0j),
            p, 25.0 / slow, rel_tol=1e-10, abs_tol=1e-13,
            max_step=math.inf, store_every=10**6,
        )
        rho = traj.final_state.rho
        ref = weak_field_background(p)
        for name in ("p1", "p2", "p3"):
            assert math.isclose(getattr(rho, name), getattr(ref, name),
                                rel_tol=1e-6, abs_tol=1e-9)
        assert cmath.isclose(rho.rho32, ref.rho32, rel_tol=1e-6, abs_tol=1e-9)

    def test_trace_error_stays_tiny(self):
        traj = integrate(
            SpaserState(rho=weak_field_background(driven_params()),
                        amplitude=1e-3 + 0j),
            driven_params(), 6e-14,
        )
        assert traj.trace_error.max() <= 1e-10

    def test_plasmon_number_matches_packed_amplitude(self):
        traj = integrate(
            SpaserState(rho=weak_field_background(driven_params()),
                        amplitude=1e-3 + 0j),
            driven_params(), 1e-14,
        )
        assert np.allclose(traj.n_n, traj.y[:, 9] ** 2 + traj.y[:, 10] ** 2,
                           rtol=1e-14, atol=0.0)

    def test_store_every_thins_output_but_keeps_endpoints(self):
        p = driven_params()
        s0 = SpaserState(rho=weak_field_background(p), amplitude=1e-3 + 0j)
        dense = integrate(s0, p, 2e-14)
        thin = integrate(s0, p, 2e-14, store_every=9)
        assert len(thin) < len(dense)
        assert thin.t[0] == 0.0 and thin.t[-1] == 2e-14
        assert math.isclose(thin.n_n[-1], dense.n_n[-1], rel_tol=1e-9)

    def test_time_to_reach_interpolates_and_handles_misses(self):
        p = driven_params()
        s0 = SpaserState(rho=weak_field_background(p), amplitude=1e-3 + 0j)
        traj = integrate(s0, p, 2e-14)
        target = 0.5 * traj.n_n.max()
        t_hit = traj.time_to_reach_plasmon_number(target)
        assert t_hit is not None and 0.0 < t_hit < 2e-14
        assert traj.time_to_reach_plasmon_number(10.0 * traj.n_n.max()) is None

    def test_rejects_bad_arguments(self):
        p = driven_params()
        s0 = SpaserState(rho=DensityMatrix3.ground(), amplitude=0j)
        with pytest.raises(IntegrationError, match="t_end"):
            integrate(s0, p, 0.0)
        with pytest.raises(IntegrationError, match="rel_tol"):
            integrate(s0, p, 1e-14, rel_tol=0.0)
        with pytest.raises(IntegrationError, match="max_step"):
            integrate(s0, p, 1e-14, max_step=-1.0)

    def test_rejects_invalid_initial_state(self):
        bad = SpaserState(rho=DensityMatrix3(p1=0.9, p2=0.0, p3=0.0))
        with pytest.raises(InvalidStateError):
            integrate(bad, driven_params(), 1e-14)

    def test_step_budget_exhaustion_reports_time(self):
        p = driven_params()
        s0 = SpaserState(rho=DensityMatrix3.ground(), amplitude=1e-3 + 0j)
        with pytest.raises(IntegrationError, match="budget") as exc_info:
            integrate(s0, p, 1e-9, max_steps=10)
        assert exc_info.value.t is not None and exc_info.value.t >= 0.0

    def test_accounting_fields_are_consistent(self):
        p = driven_params()
        traj = integrate(
            SpaserState(rho=weak_field_background(p), amplitude=1e-3 + 0j),
            p, 1e-14,
        )
        assert traj.n_accepted >= len(traj) - 1
        assert traj.n_rhs_evals >= 6 * traj.n_accepted


def _patched_rhs(monkeypatch, edit):
    """Pass every right-hand side the integrator evaluates through
    ``edit(call_number, dy)``, counting calls from 1."""
    rhs = dynamics._rhs
    calls = [0]

    def patched(y, c):
        calls[0] += 1
        return edit(calls[0], rhs(y, c))

    monkeypatch.setattr(dynamics, "_rhs", patched)


class TestIntegratorWatchdogs:
    """Each failure check of ``integrate``, provoked by a corrupted
    right-hand side."""

    def start(self):
        p = driven_params()
        return SpaserState(rho=weak_field_background(p), amplitude=1e-3 + 0j), p

    def test_trace_drift_is_caught(self, monkeypatch):
        _patched_rhs(monkeypatch, lambda n, dy: (dy[0] + 1e10,) + dy[1:])
        s0, p = self.start()
        with pytest.raises(TraceDriftError, match="trace drift") as exc_info:
            integrate(s0, p, 1e-13)
        assert exc_info.value.t is not None and exc_info.value.t > 0.0
        assert exc_info.value.state is not None

    def test_trace_conserving_population_drift_is_caught(self, monkeypatch):
        _patched_rhs(
            monkeypatch, lambda n, dy: (dy[0] + 1e13, dy[1] - 1e13) + dy[2:]
        )
        s0, p = self.start()
        with pytest.raises(IntegrationError, match=r"left \[0, 1\]") as exc_info:
            integrate(s0, p, 1e-13)
        assert not isinstance(exc_info.value, TraceDriftError)
        assert exc_info.value.t is not None and exc_info.value.t > 0.0

    @pytest.mark.parametrize("first_nan_call", [1, 3])
    def test_nan_right_hand_side_underflows_the_step(self, monkeypatch, first_nan_call):
        """From the first call, the start-up step is NaN; from the third,
        every trial step is rejected until the step underflows.  Either
        way the run stops at once instead of spending its step budget."""
        _patched_rhs(
            monkeypatch,
            lambda n, dy: (math.nan,) * 11 if n >= first_nan_call else dy,
        )
        s0, p = self.start()
        with pytest.raises(StiffnessError, match="underflow") as exc_info:
            integrate(s0, p, 1e-13, max_steps=10_000)
        assert exc_info.value.t == 0.0

    def test_one_nan_stage_is_rejected_and_retried(self, monkeypatch):
        # calls 1 and 2 start up; the second step evaluates calls 9 to 14
        _patched_rhs(monkeypatch, lambda n, dy: (math.nan,) * 11 if n == 10 else dy)
        s0, p = self.start()
        traj = integrate(s0, p, 1e-14)
        assert traj.n_rejected >= 1
        assert traj.t[-1] == 1e-14
        assert np.isfinite(traj.y).all()


class TestFrozenTrajectory:
    """Bit-for-bit regression pin of the DP5 stepper: the spasing-frame
    build-up at pump 8e12 and drive 4e12 from the weak-field background,
    rel_tol 1e-8, abs_tol 1e-10, to 0.2 ps.  A reassociated stage sum or a
    changed controller moves these bits."""

    FINAL = (
        "0x1.4062a297b01b2p-3", "0x1.40646648410c6p-3", "0x1.5fce3dc803b59p-1",
        "-0x1.9b4730280372cp-17", "0x1.03179ecdd7b75p-12",
        "-0x1.a1fc877582c75p-8", "-0x1.b91ac73912de4p-14",
        "-0x1.6ffd514e0a187p-17", "-0x1.2cc87e4332d15p-6",
        "-0x1.c594deb03c447p-2", "-0x1.137c921157482p-5",
    )

    def run(self, store_every=1):
        p = frame_at_spasing_frequency(default_params(pump_g=8e12, omega_a_rabi=4e12))
        s0 = SpaserState(rho=weak_field_background(p), amplitude=complex(1e-3, 0.0))
        return integrate(
            s0, p, 0.2e-12, rel_tol=1e-8, abs_tol=1e-10, store_every=store_every
        )

    def test_counts_and_final_state(self):
        traj = self.run()
        assert (traj.n_accepted, traj.n_rejected, traj.n_rhs_evals) == (1895, 26, 11528)
        assert len(traj) == 1896
        assert tuple(float(v).hex() for v in traj.y[-1]) == self.FINAL

    def test_thinned_rows_are_the_dense_rows(self):
        thin = self.run(store_every=7)
        assert (thin.n_accepted, thin.n_rejected, thin.n_rhs_evals) == (1895, 26, 11528)
        assert len(thin) == 272
        assert tuple(float(v).hex() for v in thin.y[-1]) == self.FINAL
        dense = self.run()
        assert thin.t[:-1].tolist() == dense.t[:-1:7].tolist()
        assert thin.y[:-1].tolist() == dense.y[:-1:7].tolist()
        assert thin.t[-1] == dense.t[-1] == 0.2e-12
