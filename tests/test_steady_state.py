"""Self-consistent operating points of the coupled chromophore-field system."""

import hashlib
import json
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

from helpers import make_params
from spaserkit import analysis
from spaserkit.analysis import (
    reduced_jacobian,
    spasing_frequency,
    steady_state_numeric,
    threshold_find,
    weak_field_background,
)
from spaserkit.cli import entry_point
from spaserkit.config import PRESETS, build_config
from spaserkit.dynamics import _coeffs, _pack_reduced, _reduced_operator, integrate
from spaserkit.errors import BookkeepingWarning, ConvergenceError, SpaserError
from spaserkit.params import default_params, set_param
from spaserkit.state import DensityMatrix3, SpaserState, observables
from spaserkit.tables import read_csv


def newton_stub(fn):
    """A stand-in for the ``_spasing_newton`` lane: it yields no request and
    returns ``fn(*args)``."""
    def lane(*args):
        yield from ()
        return fn(*args)

    return lane


class TestZeroBranch:
    def test_below_threshold_field_is_exactly_zero(self):
        res = steady_state_numeric(default_params(pump_g=1e12))
        assert res.branch == "zero"
        assert res.n_n == 0.0
        assert res.amplitude == 0j
        assert res.stable

    def test_zero_branch_matches_the_closed_form_background(self):
        p = default_params(pump_g=1e12, omega_a_rabi=4e12)
        res = steady_state_numeric(p)
        bg = weak_field_background(p)
        np.testing.assert_allclose(
            res.rho_ss.matrix(), bg.matrix(), rtol=1e-12, atol=1e-15
        )

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
            assert res.branch == "spasing"
            assert res.n_n == pytest.approx(n_ref, rel=1e-6), f"wa={wa:g}"

    def test_plasmon_number_is_the_state_observable_bit_for_bit(self):
        """The operating point's n_n is the N_n observable of its own state,
        also at an amplitude whose abs(a) ** 2 misses the square's last bit."""
        for g in np.linspace(5e12, 2e13, 400):
            res = steady_state_numeric(default_params(pump_g=float(g), omega_a_rabi=16e12))
            if abs(res.amplitude) ** 2 != res.n_n:
                break
        else:
            pytest.fail("no operating point squares differently through abs(a) ** 2")
        state = SpaserState(res.rho_ss, res.amplitude)
        assert observables(state)["N_n"] == res.n_n

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

    def test_reported_state_is_a_valid_density_matrix(self):
        res = steady_state_numeric(default_params(pump_g=2e13, omega_a_rabi=16e12))
        res.rho_ss.validate()
        assert isinstance(res.rho_ss, DensityMatrix3)


class TestSpasingStability:
    """``stable`` removes the gauge zero mode exactly, so it turns at the
    self-pulsing (Hopf) threshold, 1.0264 g_th at the defaults, where a
    complex pair crosses at a real part far under the fastest rate."""

    @pytest.mark.parametrize("pump, stable", [(4.14782e12, True), (4.14784e12, False)])
    def test_turns_at_the_hopf_point(self, pump, stable):
        res = steady_state_numeric(default_params(pump_g=pump))
        assert res.branch == "spasing"
        assert res.stable is stable

    def test_quotient_spectrum_is_the_jacobian_spectrum_less_its_gauge_zero(self):
        params = default_params(pump_g=1e13, omega_a_rabi=4e12, gamma_ph=0.0)  # a fig2 point
        res = steady_state_numeric(params)
        assert res.branch == "spasing" and res.amplitude.imag == 0.0
        x = _pack_reduced(SpaserState(res.rho_ss, res.amplitude))
        full = list(np.linalg.eigvals(reduced_jacobian(x, params, res.nu_s)))
        full.remove(min(full, key=abs))  # the gauge zero
        op = _reduced_operator(_coeffs(params, res.nu_s))
        quotient = analysis._one_lane(analysis._gauge_free_lane(op, x))
        assert len(quotient) == len(full) == 9
        scale = max(abs(v) for v in full)
        for value in quotient:
            nearest = min(full, key=lambda w: abs(w - value))
            assert abs(nearest - value) <= 1e-9 * scale
            full.remove(nearest)


class TestBookkeepingWarning:
    """A spasing root without inversion whose excited population does not
    exceed the ground population is flagged.  No preset point has one, so
    ``_spasing_newton`` is stubbed to return it: p1 = 0.6, p2 = 0.3,
    p3 = 0.1, i.e. n21 < 0 and p2 + p3 <= p1."""

    @staticmethod
    def solve_with_root(monkeypatch, amp):
        p = default_params(pump_g=8e12)
        rho = np.array([0.6, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        nu = spasing_frequency(p)
        stub = newton_stub(lambda *args: (amp, nu, rho))
        monkeypatch.setattr(analysis, "_spasing_newton", stub)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = steady_state_numeric(p)
        assert res.branch == "spasing" and res.n21 < 0.0
        return res, [w for w in caught if issubclass(w.category, BookkeepingWarning)]

    def test_fires_once_in_the_callers_file(self, monkeypatch):
        res, flagged = self.solve_with_root(monkeypatch, 2.0)
        assert res.n_n == 4.0
        (w,) = flagged
        assert w.filename == __file__
        assert "p1=0.6" in str(w.message)

    def test_silent_without_a_field(self, monkeypatch):
        res, flagged = self.solve_with_root(monkeypatch, 1e-5)
        assert res.n_n <= 1e-9
        assert flagged == []


class TestNewtonDerivatives:
    @staticmethod
    def central_difference_jacobian(params, block, nu0, amp, shift):
        """Central differences of the mismatch with the steps the solver
        used before it had exact derivatives."""
        def f(a, u):
            lane = analysis._gain_balance(params, block, nu0, a, u)
            return np.array(analysis._one_lane(lane)[0])

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
            lane = analysis._gain_balance(p, block, nu0, amp, shift)
            _, _, jacobian = analysis._one_lane(lane)
            ref = self.central_difference_jacobian(p, block, nu0, amp, shift)
            np.testing.assert_array_less(
                np.abs(np.array(analysis._one_lane(jacobian())) - ref),
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
        f0, rho0, _ = analysis._one_lane(analysis._gain_balance(
            p, analysis._gain_balance_block(p, nu0), nu0, 3.0, shift))
        f1, rho1, _ = analysis._one_lane(analysis._gain_balance(
            p, analysis._gain_balance_block(p, nu1), nu1, 3.0, 0.0))
        np.testing.assert_allclose(rho0, rho1, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(f0, f1, rtol=1e-9, atol=1e-12)


@pytest.fixture(scope="module")
def preset_pass():
    """One serial pass of the fig2 and fig3 grids, with the Newton work
    counted: per preset, the results keyed by the second axis value, and
    the (calls, failures, mismatch evaluations) of the whole pass."""
    work = Counter()
    newton, gain_balance = analysis._spasing_newton, analysis._gain_balance

    def counted_newton(*args):
        root = yield from newton(*args)
        work["calls"] += 1
        work["failures"] += root is None
        return root

    def counted_gain_balance(*args):
        work["evaluations"] += 1
        return gain_balance(*args)

    results: dict[str, dict[float, list]] = {}
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(analysis, "_spasing_newton", counted_newton)
        mp.setattr(analysis, "_gain_balance", counted_gain_balance)
        warnings.simplefilter("ignore")
        for preset in ("fig2", "fig3"):
            config = build_config(PRESETS[preset])
            (pump_axis, slice_axis) = config.axes
            by_slice = results.setdefault(preset, {})
            for value in slice_axis.values:
                base = set_param(config.model, slice_axis.path, value)
                by_slice[value] = [
                    steady_state_numeric(set_param(base, pump_axis.path, pump))
                    for pump in pump_axis.values
                ]
    return results, (work["calls"], work["failures"], work["evaluations"])


def _branch_counts(by_slice) -> dict[float, tuple[int, int, int]]:
    """(spasing, stable spasing, zero) points per value of the second axis."""
    counts = {}
    for value, results in by_slice.items():
        spasing = [r for r in results if r.branch == "spasing"]
        counts[value] = (len(spasing), sum(r.stable for r in spasing), len(results) - len(spasing))
    return counts


class TestPresetFixedPoints:
    """Newton lands on the same fixed points over the figure grids (the
    counts the README quotes), bit for bit and for the same Newton work."""

    def test_fig2_branches_and_stability(self, preset_pass):
        assert _branch_counts(preset_pass[0]["fig2"]) == {
            0.0: (64, 0, 17), 4e12: (72, 13, 9), 16e12: (72, 72, 9),
        }

    def test_fig3_branches_and_stability(self, preset_pass):
        assert _branch_counts(preset_pass[0]["fig3"]) == {
            0.0: (72, 72, 9), 80e12: (65, 18, 16),
            160e12: (64, 7, 17), 240e12: (64, 3, 17),
        }

    def test_newton_work(self, preset_pass):
        """(calls, failed calls, mismatch evaluations) of `_spasing_newton`
        over the 567 points.  The fixed seeds come before the growth-rate
        estimate, which overshoots the root below gamma21; the 22 failing
        calls stop once an iterate passes the amplitude ceiling."""
        assert preset_pass[1] == (495, 22, 3754)

    def test_plasmon_number_within_the_pump_bound(self, preset_pass):
        """No fixed point holds more than N = n_p g / (2 gamma_n)."""
        checked = 0
        for preset in ("fig2", "fig3"):
            config = build_config(PRESETS[preset])
            (pump_axis, slice_axis) = config.axes
            for value, results in preset_pass[0][preset].items():
                base = set_param(config.model, slice_axis.path, value)
                for pump, r in zip(pump_axis.values, results):
                    if r.branch != "spasing":
                        continue
                    p = set_param(base, pump_axis.path, pump)
                    assert r.n_n <= p.plasmon.n_p * p.gain.pump_g / (2.0 * p.plasmon.gamma_n)
                    checked += 1
        assert checked == 473

    def test_fixed_point_bits(self, preset_pass):
        """sha256 over the rows' float.hex of (n_n, n21, n32, nu_s), branch
        and stable, in grid order.  A changed seed, Newton path or block
        solve moves these bits; so may a different LAPACK build."""
        lines = [
            " ".join(float(v).hex() for v in (r.n_n, r.n21, r.n32, r.nu_s))
            + f" {r.branch} {int(r.stable)}"
            for preset in ("fig2", "fig3")
            for row in preset_pass[0][preset].values()
            for r in row
        ]
        assert len(lines) == 567
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "f024ebdfaabf2d2884c69ca7c3d46b26b0fb16975e1f5bac4381bc11da69c2ca"
        )


class TestSeedOrder:
    """One seed order in every regime: the strong- and weak-drive limits
    (not positive at pump g <= gamma21, so no seed there), the fixed
    plasmon numbers, and last the growth-rate estimate."""

    @staticmethod
    def seeds(monkeypatch, params):
        tried = []
        monkeypatch.setattr(
            analysis, "_spasing_newton", newton_stub(lambda p, amp0, nu0: tried.append(amp0))
        )
        with pytest.raises(ConvergenceError):
            steady_state_numeric(params)
        return tried

    def test_fixed_seed_first_at_or_below_gamma21(self, monkeypatch):
        p = default_params(pump_g=3e12, omega_a_rabi=16e12)
        assert p.gain.pump_g <= p.gain.gamma21
        assert analysis.growth_rate(p).gamma_s > 0.0
        assert self.seeds(monkeypatch, p)[0] == math.sqrt(1.0)

    def test_strong_drive_limit_first_above_gamma21(self, monkeypatch):
        p = default_params(pump_g=8e12, omega_a_rabi=16e12)
        g, plasmon = p.gain, p.plasmon
        strong = plasmon.n_p * (g.pump_g - g.gamma21) / (6.0 * plasmon.gamma_n)
        assert self.seeds(monkeypatch, p)[0] == pytest.approx(math.sqrt(strong), rel=1e-15)


def random_params(rng):
    """One random parameter set, drawn in a fixed order; raises
    ``SpaserError`` when the model rejects it."""
    def lu(a, b):
        return 10 ** rng.uniform(a, b)

    p = default_params(
        pump_g=lu(11.5, 14.5),
        omega_a_rabi=rng.choice([0.0, lu(11, 14.5)]),
        gamma_ph=rng.choice([0.0, lu(11, 14.5)]),
        omega_b_single=lu(12.5, 14),
    )
    p = set_param(p, "plasmon.n_p", lu(2, 7))
    for path in ("gain.gamma21", "gain.gamma31", "gain.gamma32"):
        p = set_param(p, path, lu(9, 13.5))
    return p


def test_random_parameter_sets_outcomes():
    """Robustness pin over 1,500 random parameter sets: (spasing points,
    zero-branch points, ConvergenceErrors)."""
    rng = random.Random(7)
    counts = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while sum(counts.values()) < 1500:
            try:
                p = random_params(rng)
            except SpaserError:
                continue
            try:
                counts[steady_state_numeric(p).branch] += 1
            except ConvergenceError:
                counts["failed"] += 1
    assert (counts["spasing"], counts["zero"], counts["failed"]) == (937, 538, 25)


class TestNewtonOnly:
    """Newton is the only steady-state solver: when it fails from every
    seed above onset, the call raises ``ConvergenceError``."""

    PARAMS = dict(pump_g=3e12, omega_a_rabi=16e12)

    @pytest.fixture
    def no_newton(self, monkeypatch):
        monkeypatch.setattr(analysis, "_spasing_newton", newton_stub(lambda *args: None))

    def test_newton_failure_raises_without_a_warning(self, no_newton):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError):
                steady_state_numeric(default_params(**self.PARAMS))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_no_converged_zero_branch_above_onset(self):
        """gamma_s = 3.5e14 here and every Newton seed fails; the point
        has no stationary zero-field answer to give."""
        p = default_params(
            pump_g=1641552342505.8079,
            omega_a_rabi=45060669436769.0,
            gamma_ph=133493569788.55713,
            omega_b_single=6471517131321.834,
        )
        for path, value in (
            ("gain.gamma21", 1024077767276.372),
            ("gain.gamma31", 34188921643.10912),
            ("gain.gamma32", 29728206828921.254),
        ):
            p = set_param(p, path, value)
        assert analysis.growth_rate(p).gamma_s > 3e14
        with pytest.raises(ConvergenceError):
            steady_state_numeric(p)

    def test_the_cli_flags_the_row(self, no_newton, tmp_path):
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
        assert math.isnan(row[table.column_index("N_n")])
