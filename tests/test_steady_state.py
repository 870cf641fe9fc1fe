"""Self-consistent operating points of the coupled chromophore-field system."""

import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from helpers import make_params
from spaserkit import analysis
from spaserkit.analysis import (
    spasing_frequency,
    steady_state_numeric,
    threshold_find,
    weak_field_background,
)
from spaserkit.cli import entry_point
from spaserkit.config import PRESETS, build_config
from spaserkit.dynamics import integrate
from spaserkit.params import default_params, set_param
from spaserkit.state import DensityMatrix3, SpaserState
from spaserkit.tables import read_csv


class TestZeroBranch:
    def test_below_threshold_field_is_exactly_zero(self):
        res = steady_state_numeric(default_params(pump_g=1e12))
        assert res.branch == "zero"
        assert res.n_n == 0.0
        assert res.amplitude == 0j
        assert res.stable and res.converged

    def test_zero_branch_matches_the_closed_form_background(self):
        p = default_params(pump_g=1e12, omega_a_rabi=4e12)
        res = steady_state_numeric(p)
        bg = weak_field_background(p)
        np.testing.assert_allclose(
            res.rho_ss.matrix(), bg.matrix(), rtol=1e-12, atol=1e-15
        )

    def test_forced_zero_branch_above_threshold_is_flagged_unstable(self):
        res = steady_state_numeric(default_params(pump_g=8e12), branch_hint="zero")
        assert res.branch == "zero"
        assert res.n_n == 0.0
        assert not res.stable

    def test_spasing_hint_below_threshold_falls_back_to_zero(self):
        res = steady_state_numeric(
            default_params(pump_g=1e12), branch_hint="spasing"
        )
        assert res.branch == "zero"
        assert res.n_n == 0.0

    def test_unpumped_undriven_system_rests_in_the_ground_state(self):
        res = steady_state_numeric(make_params(pump_g=0.0))
        assert res.n_n == 0.0
        assert res.rho_ss.matrix()[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestSpasingBranch:
    def test_frozen_operating_points_at_strong_pump(self):
        """Regression values for the quanta number at pump 2e13 across the
        drive presets; the drive raises the output monotonically."""
        expected = {
            0.0: 40.99321567332751,
            4e12: 41.444399527902604,
            16e12: 47.30485859191297,
        }
        for wa, n_ref in expected.items():
            res = steady_state_numeric(default_params(pump_g=2e13, omega_a_rabi=wa))
            assert res.branch == "spasing" and res.converged
            assert res.n_n == pytest.approx(n_ref, rel=1e-6), f"wa={wa:g}"

    def test_gauge_amplitude_real_nonnegative(self):
        res = steady_state_numeric(default_params(pump_g=8e12, omega_a_rabi=16e12))
        assert res.amplitude.imag == 0.0
        assert res.amplitude.real >= 0.0
        assert res.n_n == pytest.approx(abs(res.amplitude) ** 2, rel=1e-12)

    def test_newton_residual_is_tiny(self):
        res = steady_state_numeric(default_params(pump_g=8e12, omega_a_rabi=16e12))
        assert res.method == "algebraic-root"
        assert res.residual_norm <= 1e-9

    def test_tiny_output_near_threshold_still_converges_by_newton(self):
        """Just above threshold the quanta number is a few 1e-4 and the raw
        fixed-point system is nearly degenerate; the solver must still nail
        it without falling back to time integration."""
        res = steady_state_numeric(default_params(pump_g=2.13e12, omega_a_rabi=4e12))
        assert res.branch == "spasing"
        assert res.method == "algebraic-root"
        assert res.n_n == pytest.approx(1.292194e-4, rel=1e-3)

    def test_agrees_with_time_integration(self):
        """Relaxing the equations of motion from a weak seed must land on the
        same attractor the algebraic solver reports."""
        p = default_params(pump_g=8e12, omega_a_rabi=16e12)
        res = steady_state_numeric(p)
        seed = SpaserState(
            rho=weak_field_background(p), amplitude=complex(1e-3, 0.0)
        )
        traj = integrate(seed, p, t_end=4.06e-12, rel_tol=1e-10, abs_tol=1e-14)
        assert traj.n_n[-1] == pytest.approx(res.n_n, rel=1e-3)

    def test_flux_balance_identity(self):
        """At a true steady state every quantum leaving the field was pumped
        into the medium: n_n * 2*gamma_n == N_p * (g*p1 - g21*p2 - g31*p3)."""
        p = default_params(pump_g=8e12, omega_a_rabi=16e12)
        res = steady_state_numeric(p)
        m = res.rho_ss.matrix()
        pops = (m[0, 0].real, m[1, 1].real, m[2, 2].real)
        g = p.gain
        influx = p.plasmon.n_p * (
            g.pump_g * pops[0] - g.gamma21 * pops[1] - g.gamma31 * pops[2]
        )
        assert res.n_n * 2.0 * p.plasmon.gamma_n == pytest.approx(influx, rel=1e-8)

    def test_ensemble_rescaling_scales_quanta_linearly(self):
        """Doubling the emitter count at fixed collective coupling doubles the
        output but leaves the per-emitter state untouched."""
        base = default_params(pump_g=8e12, omega_a_rabi=16e12)
        k = 2.0
        scaled = make_params(
            pump_g=8e12,
            omega_a_rabi=16e12,
            n_p=k * base.plasmon.n_p,
            omega_b_single=base.plasmon.omega_b_single / math.sqrt(k),
        )
        r0 = steady_state_numeric(base)
        r1 = steady_state_numeric(scaled)
        assert r1.n_n == pytest.approx(k * r0.n_n, rel=1e-8)
        assert r1.n21 == pytest.approx(r0.n21, rel=1e-8)

    def test_operating_point_zeroes_the_equations_of_motion(self):
        """Feed the converged state back into the time-domain right-hand side
        in its own frame: every derivative must vanish."""
        from spaserkit.dynamics import equations_of_motion
        from spaserkit.params import set_param

        p = default_params(pump_g=8e12, omega_a_rabi=16e12)
        res = steady_state_numeric(p)
        rotated = set_param(p, "frame.nu_ref", res.nu_s)
        state = SpaserState(rho=res.rho_ss, amplitude=res.amplitude)
        deriv = equations_of_motion(state, rotated)
        scale = max(p.plasmon.gamma_n, p.gain.pump_g)
        assert np.max(np.abs(deriv.rho.matrix())) <= 1e-6 * scale
        assert abs(deriv.amplitude) <= 1e-6 * scale * (1.0 + abs(res.amplitude))

    def test_output_rises_just_past_threshold(self):
        g_th = threshold_find(default_params(omega_a_rabi=4e12)).g_th
        n_lo = steady_state_numeric(
            default_params(pump_g=1.02 * g_th, omega_a_rabi=4e12)
        ).n_n
        n_hi = steady_state_numeric(
            default_params(pump_g=1.30 * g_th, omega_a_rabi=4e12)
        ).n_n
        assert 0.0 < n_lo < n_hi

    def test_invalid_branch_hint_rejected(self, defaults):
        with pytest.raises(ValueError):
            steady_state_numeric(defaults, branch_hint="both")

    def test_reported_state_is_a_valid_density_matrix(self):
        res = steady_state_numeric(default_params(pump_g=2e13, omega_a_rabi=16e12))
        res.rho_ss.validate()
        assert isinstance(res.rho_ss, DensityMatrix3)


class TestNewtonDerivatives:
    @staticmethod
    def central_difference_jacobian(params, block, nu0, amp, shift):
        """Central differences of the mismatch with the steps the solver
        used before it had exact derivatives."""
        def f(a, u):
            return analysis._gain_balance(params, block, nu0, a, u)[0]

        d_amp, d_u = 1e-6 * (1.0 + amp), 1e-6
        return np.column_stack((
            (f(amp + d_amp, shift) - f(amp - d_amp, shift)) / (2.0 * d_amp),
            (f(amp, shift + d_u) - f(amp, shift - d_u)) / (2.0 * d_u),
        ))

    @pytest.mark.parametrize("gamma_ph", [0.0, 80e12])
    @pytest.mark.parametrize("drive", [0.0, 4e12, 16e12])
    def test_exact_jacobian_matches_central_differences(self, drive, gamma_ph):
        """Near threshold (A = 1e-2, N = 1e-4) and deep in the spasing
        branch (A = 4 and 6, N = 16 and 36), on and off the frame.  Entries
        agree to 1e-6 relative; an entry far below the rest of its column
        (df0/dshift deep in the branch, ~1e-5 of the column) only to 1e-8
        of the column, the rounding noise of the differences."""
        p = default_params(pump_g=8e12, omega_a_rabi=drive, gamma_ph=gamma_ph)
        nu0 = spasing_frequency(p)
        block = analysis._gain_balance_block(p, nu0)
        for amp, shift in ((1e-2, 0.0), (1e-2, 3e-3), (4.0, -1e-2), (6.0, 0.0)):
            _, _, jacobian = analysis._gain_balance(p, block, nu0, amp, shift)
            ref = self.central_difference_jacobian(p, block, nu0, amp, shift)
            np.testing.assert_array_less(
                np.abs(np.array(jacobian()) - ref),
                1e-6 * np.abs(ref) + 1e-8 * np.abs(ref).max(axis=0),
                err_msg=f"A={amp}, shift={shift}",
            )

    def test_mismatch_follows_the_frame_shift(self):
        """The mismatch at nu0 + gamma_n * shift from the operator built at
        nu0 equals the one from an operator built at that frequency."""
        p = default_params(pump_g=8e12, omega_a_rabi=16e12, gamma_ph=80e12)
        nu0 = spasing_frequency(p)
        shift = 2.5e-3
        nu1 = nu0 + p.plasmon.gamma_n * shift
        f0, rho0, _ = analysis._gain_balance(
            p, analysis._gain_balance_block(p, nu0), nu0, 3.0, shift)
        f1, rho1, _ = analysis._gain_balance(
            p, analysis._gain_balance_block(p, nu1), nu1, 3.0, 0.0)
        np.testing.assert_allclose(rho0, rho1, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(f0, f1, rtol=1e-9, atol=1e-12)


def _preset_branch_counts(preset: str) -> dict[float, tuple[int, int, int]]:
    """(spasing, stable spasing, zero) points per value of the preset's
    second axis."""
    config = build_config(PRESETS[preset])
    (pump_axis, slice_axis) = config.axes
    counts: dict[float, Counter] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for value in slice_axis.values:
            tally = counts.setdefault(value, Counter())
            base = set_param(config.model, slice_axis.path, value)
            for pump in pump_axis.values:
                res = steady_state_numeric(set_param(base, pump_axis.path, pump))
                tally[res.branch] += 1
                tally["stable"] += res.branch == "spasing" and res.stable
    return {v: (c["spasing"], c["stable"], c["zero"]) for v, c in counts.items()}


class TestPresetFixedPoints:
    """Newton lands on the same fixed points over the figure grids (the
    counts the README quotes)."""

    def test_fig2_branches_and_stability(self):
        assert _preset_branch_counts("fig2") == {
            0.0: (64, 0, 17), 4e12: (72, 13, 9), 16e12: (72, 72, 9),
        }

    def test_fig3_branches_and_stability(self):
        assert _preset_branch_counts("fig3") == {
            0.0: (72, 72, 9), 80e12: (65, 18, 16),
            160e12: (64, 7, 17), 240e12: (64, 3, 17),
        }


class TestRelaxationFallback:
    """With Newton disabled the operating point comes from time-domain
    relaxation; its ``stable`` flag is the spectrum's verdict."""

    PARAMS = dict(pump_g=3e12, omega_a_rabi=16e12)

    def relax(self, monkeypatch, stability):
        calls = []

        def recorded(params, x, nu):
            calls.append(stability(params, x, nu))
            return calls[-1]

        monkeypatch.setattr(analysis, "_spasing_newton", lambda *args: None)
        monkeypatch.setattr(analysis, "_spasing_stability", recorded)
        with pytest.warns(RuntimeWarning, match="relaxing to the attractor"):
            res = steady_state_numeric(default_params(**self.PARAMS))
        assert res.method == "ode-relaxation" and res.branch == "spasing"
        assert res.n_n == pytest.approx(1.228, rel=1e-3)
        return res, calls

    def test_stable_flag_is_computed_from_the_spectrum(self, monkeypatch):
        res, calls = self.relax(monkeypatch, analysis._spasing_stability)
        assert calls == [True]
        assert res.stable is True

    def test_stable_flag_follows_a_false_verdict(self, monkeypatch):
        res, calls = self.relax(monkeypatch, lambda params, x, nu: False)
        assert calls == [False]
        assert res.stable is False


class TestRelaxationConvergedFlag:
    """On the relaxation path ``converged`` is the residual's verdict."""

    PARAMS = dict(pump_g=3e12, omega_a_rabi=16e12)

    @pytest.fixture
    def stalled(self, monkeypatch):
        """Newton off, and the relaxation hands back the weak-field
        background with amplitude 1, which is no fixed point."""

        def background(params, nu0, *args):
            rho = weak_field_background(set_param(params, "frame.nu_ref", nu0))
            return SpaserState(rho=rho, amplitude=1.0 + 0j), nu0

        monkeypatch.setattr(analysis, "_spasing_newton", lambda *args: None)
        monkeypatch.setattr(analysis, "_relaxation_chunks", background)

    def test_a_relaxed_fixed_point_is_converged(self, monkeypatch):
        monkeypatch.setattr(analysis, "_spasing_newton", lambda *args: None)
        with pytest.warns(RuntimeWarning, match="relaxing to the attractor"):
            res = steady_state_numeric(default_params(**self.PARAMS))
        assert res.method == "ode-relaxation"
        assert res.residual_norm <= 1e-6
        assert res.converged is True

    def test_a_non_stationary_state_is_not_converged(self, stalled):
        with pytest.warns(RuntimeWarning, match="relaxing to the attractor"):
            res = steady_state_numeric(default_params(**self.PARAMS))
        assert res.method == "ode-relaxation" and res.branch == "spasing"
        assert res.residual_norm > 1e-6
        assert res.converged is False

    @pytest.mark.filterwarnings("ignore:Newton iteration:RuntimeWarning")
    def test_the_cli_flags_the_row(self, stalled, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "model": {"drive": {"omega_a_rabi": self.PARAMS["omega_a_rabi"]}},
            "sweep": [{"path": "gain.pump_g", "values": [self.PARAMS["pump_g"]]}],
        }))
        out = str(tmp_path / "s.csv")
        code = entry_point(
            ["steady-sweep", "--config", str(config), "--out", out, "--workers", "1"]
        )
        assert code == 2
        table = read_csv(out)
        (row,) = table.rows
        assert row[table.column_index("converged")] == 0.0
        assert math.isfinite(row[table.column_index("N_n")])
