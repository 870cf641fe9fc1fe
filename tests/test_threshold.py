"""Linear growth rate of the zero-field state and the pump threshold."""

import math

import numpy as np
import pytest

from helpers import OMEGA_21, make_params
from spaserkit import analysis
from spaserkit.analysis import (
    growth_rate,
    reduced_jacobian,
    spasing_condition_residual,
    spasing_frequency,
    threshold_find,
    weak_field_background,
)
from spaserkit.dynamics import _pack_reduced
from spaserkit.errors import NoThresholdError
from spaserkit.params import default_params, set_param
from spaserkit.state import SpaserState


class TestGrowthRate:
    def test_uncoupled_field_decays_at_exactly_the_mode_rate(self):
        """With the coupling switched off the field eigenmode is pure decay."""
        p = make_params(omega_b_single=0.0)
        res = growth_rate(p)
        assert res.gamma_s == -p.plasmon.gamma_n
        assert res.gamma_s_over_gamma_n == -1.0

    def test_sign_agrees_with_onset_residual(self):
        """The eigenvalue crossing and the balance-residual crossing are the
        same physical threshold, so their signs must always agree."""
        for g in [1e11, 1e12, 3e12, 4.05e12, 6e12, 8e12, 2e13]:
            p = default_params(pump_g=g)
            res = spasing_condition_residual(p, spasing_frequency(p)).real
            gs = growth_rate(p).gamma_s
            assert res * gs > 0.0, f"sign mismatch at g={g:g}"

    def test_frame_independence(self, defaults):
        shifted = make_params(nu_ref=OMEGA_21 - 7e11)
        assert math.isclose(
            growth_rate(defaults).gamma_s,
            growth_rate(shifted).gamma_s,
            rel_tol=1e-9,
        )

    def test_drive_dependence_peaks_at_moderate_drive(self):
        """At strong pump the growth rate rises with drive, then falls again
        once the drive splits the gain line away from the mode."""
        gs = [
            growth_rate(default_params(pump_g=8e12, omega_a_rabi=wa)).gamma_s
            for wa in np.geomspace(1e12, 3e15, 25)
        ]
        peak = int(np.argmax(gs))
        assert 0 < peak < len(gs) - 1
        assert gs[peak] > gs[0] and gs[peak] > gs[-1]

    def test_growth_rate_increases_with_pump(self):
        vals = [
            growth_rate(default_params(pump_g=g, omega_a_rabi=16e12)).gamma_s
            for g in [4.4e12, 6e12, 8e12]
        ]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("gamma_ph", [0.0, 80e12])
    @pytest.mark.parametrize("drive", [0.0, 4e12, 16e12])
    def test_spectrum_is_the_background_jacobian_bit_for_bit(self, drive, gamma_ph):
        """The growth spectrum is the eigen-decomposition of the public
        reduced Jacobian at the public weak-field background, to the bit."""
        for pump in (3e12, 8e12):
            p = default_params(pump_g=pump, omega_a_rabi=drive, gamma_ph=gamma_ph)
            x0 = _pack_reduced(SpaserState(rho=weak_field_background(p)))
            ref = np.linalg.eig(reduced_jacobian(x0, p)).eigenvalues
            got = growth_rate(p).eigenvalues
            assert got.tobytes() == ref[np.argsort(-ref.real)].tobytes()


class TestThresholdFind:
    def test_bisection_and_growth_root_agree(self, defaults):
        res = threshold_find(defaults)
        assert res.g_th == pytest.approx(4041000883291.0635, rel=1e-6)
        assert res.g_th_growth is not None
        assert res.relative_gap is not None and res.relative_gap <= 0.01

    def test_defaults_threshold_sits_near_the_spasing_decay_rate(self, defaults):
        """With the calibrated coupling the undriven threshold lands on the
        spontaneous rate of the lasing transition to within 15%."""
        res = threshold_find(defaults)
        assert res.g_th == pytest.approx(defaults.gain.gamma21, rel=0.15)

    @pytest.mark.parametrize("drive", [0.0, 16e12])
    def test_evaluates_each_pump_once(self, monkeypatch, drive):
        """One ``spasing_frequency`` and one residual per distinct pump
        evaluated, and ``nu_s`` and ``residual`` at the root are that
        evaluation's, the same bits a fresh evaluation gives."""
        pumps = []
        calls = {"residual": 0}

        def frequency(params):
            pumps.append(params.gain.pump_g)
            return spasing_frequency(params)

        def residual(params, nu_s):
            calls["residual"] += 1
            return spasing_condition_residual(params, nu_s)

        monkeypatch.setattr(analysis, "spasing_frequency", frequency)
        monkeypatch.setattr(analysis, "spasing_condition_residual", residual)
        params = default_params(omega_a_rabi=drive)
        res = threshold_find(params)
        assert len(pumps) == len(set(pumps)) == calls["residual"]
        assert res.g_th in pumps

        at_th = set_param(params, "gain.pump_g", res.g_th)
        nu_s = spasing_frequency(at_th)
        assert (res.nu_s, res.residual) == (
            nu_s, spasing_condition_residual(at_th, nu_s).real
        )

    def test_residual_vanishes_at_the_root(self, defaults):
        res = threshold_find(defaults)
        assert abs(res.residual) <= 1e-6

    def test_ensemble_rescaling_leaves_threshold_invariant(self, defaults):
        """Threshold depends on the collective coupling N_p * (single coupling)^2
        only, so trading emitter count against single-emitter coupling at
        fixed product changes nothing."""
        n_p = defaults.plasmon.n_p
        wt = defaults.plasmon.omega_b_single
        scaled = make_params(n_p=2.0 * n_p, omega_b_single=wt / math.sqrt(2.0))
        assert math.isclose(
            threshold_find(defaults).g_th,
            threshold_find(scaled).g_th,
            rel_tol=1e-9,
        )

    def test_drive_lowers_threshold(self):
        g0 = threshold_find(default_params()).g_th
        g1 = threshold_find(default_params(omega_a_rabi=16e12)).g_th
        assert g1 < g0

    def test_no_sign_change_raises_with_endpoint_residuals(self):
        p = make_params(omega_b_single=0.0)
        with pytest.raises(NoThresholdError) as exc_info:
            threshold_find(p)
        err = exc_info.value
        assert isinstance(err.residual_lo, float)
        assert isinstance(err.residual_hi, float)
        assert err.residual_lo < 0.0 and err.residual_hi < 0.0

    def test_invalid_bracket_rejected(self, defaults):
        with pytest.raises(NoThresholdError):
            threshold_find(defaults, g_bracket=(1e12, 1e10))

    def test_infinite_bracket_end_rejected(self, defaults):
        with pytest.raises(NoThresholdError, match="invalid pump bracket"):
            threshold_find(defaults, g_bracket=(1e8, math.inf))

    @pytest.mark.parametrize(
        "bracket", [(1e8,), (1e8, 1e12, 1e15), (), 1e8, (1e8, "high")]
    )
    def test_bracket_that_is_not_two_numbers_rejected(self, defaults, bracket):
        with pytest.raises(NoThresholdError) as err:
            threshold_find(defaults, g_bracket=bracket)
        assert str(err.value) == f"invalid pump bracket {bracket!r}"

    def test_root_lies_inside_the_bracket(self, defaults):
        res = threshold_find(defaults, g_bracket=(1e11, 1e14))
        assert 1e11 <= res.g_th <= 1e14

    def test_growth_rate_changes_sign_across_the_root(self, defaults):
        g_th = threshold_find(defaults).g_th
        below = growth_rate(set_param(defaults, "gain.pump_g", 0.99 * g_th))
        above = growth_rate(set_param(defaults, "gain.pump_g", 1.01 * g_th))
        assert below.gamma_s < 0.0 < above.gamma_s
