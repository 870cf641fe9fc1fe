"""Spasing onset residual and the self-consistent operating frequency."""

import math

import pytest

from helpers import OMEGA_21, OMEGA_N, make_params
from spaserkit.analysis import (
    _one_lane,
    _onset_roots_lane,
    frame_at_spasing_frequency,
    spasing_condition_residual,
    spasing_frequency,
    spasing_frequency_estimate,
    steady_inversions_closed_form,
)
from spaserkit.errors import DegenerateParameterError, NonResonantDriveError
from spaserkit.params import complex_rates, default_params, set_param


class TestUndrivenFrequency:
    def test_matches_linewidth_weighted_mean_exactly(self, defaults):
        """Without the drive the operating frequency is the loss-weighted
        mean of the mode and transition frequencies."""
        nu = spasing_frequency(defaults)
        g_n = defaults.plasmon.gamma_n
        g_21 = complex_rates(defaults).Gamma21.real
        expected = (g_n * OMEGA_21 + g_21 * OMEGA_N) / (g_n + g_21)
        assert nu == expected
        assert nu == 3801173141435983.0  # frozen regression value

    def test_sits_between_mode_and_transition(self, defaults):
        nu = spasing_frequency(defaults)
        assert OMEGA_N < nu < OMEGA_21

    def test_narrow_mode_pins_the_frequency_to_the_mode(self):
        """As the transition linewidth dominates, the mode wins the pull."""
        p = make_params(gamma_ph=1e16)
        nu = spasing_frequency(p)
        assert abs(nu - OMEGA_N) < abs(nu - OMEGA_21)

    def test_estimate_equals_exact_value_without_drive(self, defaults):
        assert spasing_frequency_estimate(defaults) == spasing_frequency(defaults)


class TestDrivenFrequency:
    @pytest.mark.parametrize("wa", [4e12, 16e12, 24e12, 4e13])
    def test_returned_root_zeroes_the_imaginary_part(self, wa):
        p = default_params(omega_a_rabi=wa)
        nu = spasing_frequency(p)
        assert abs(spasing_condition_residual(p, nu).imag) <= 1e-9

    def test_root_is_frame_independent(self):
        p = default_params(omega_a_rabi=16e12)
        shifted = make_params(omega_a_rabi=16e12, nu_ref=OMEGA_21 - 5e11)
        assert math.isclose(
            spasing_frequency(p), spasing_frequency(shifted), rel_tol=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({"omega_a_rabi": 16e12}, 3801184801339804.0),
            ({"omega_a_rabi": 16e12, "gamma_ph": 80e12}, 3800793596894829.5),
        ],
    )
    def test_frozen_regression_values(self, kwargs, expected):
        """Values of the former 129-point scan plus Brent refinement."""
        assert spasing_frequency(default_params(**kwargs)) == expected

    def test_nearest_root_to_the_estimate_wins(self):
        """At a 1e12 rad/s drive and pump 10**12.5 rad/s the imaginary part
        crosses zero three times; two of the crossings lie in the first
        window around the pulling interval, and the one nearest the
        weighted-mean estimate is the spasing frequency."""
        p = set_param(default_params(omega_a_rabi=1e12), "gain.pump_g", 3162277660168.3794)
        roots = _one_lane(_onset_roots_lane(
            p, steady_inversions_closed_form(p), complex_rates(p)
        ))
        assert len(roots) == 3
        for nu in roots:
            below = spasing_condition_residual(p, nu - 1e3).imag
            above = spasing_condition_residual(p, nu + 1e3).imag
            assert below * above < 0.0
        pad = 0.05 * (OMEGA_21 - OMEGA_N)
        window = roots[(roots >= OMEGA_N - pad) & (roots <= OMEGA_21 + pad)]
        assert len(window) == 2
        nu = spasing_frequency(p)
        assert nu == 3801205569798383.5  # frozen regression value
        other = window[window != nu]
        assert other == pytest.approx([3.79813e15], rel=1e-5)
        guess = spasing_frequency_estimate(p)
        assert abs(nu - guess) < abs(other[0] - guess)

    def test_estimate_is_within_a_few_linewidths(self):
        p = default_params(omega_a_rabi=16e12)
        est = spasing_frequency_estimate(p)
        exact = spasing_frequency(p)
        assert abs(est - exact) <= 10.0 * complex_rates(p).Gamma21.real


class TestResidual:
    def test_sign_flips_across_the_pump_threshold(self):
        lo = default_params(pump_g=1e12)
        hi = default_params(pump_g=8e12)
        assert spasing_condition_residual(lo, spasing_frequency(lo)).real < 0.0
        assert spasing_condition_residual(hi, spasing_frequency(hi)).real > 0.0

    def test_no_coupling_means_no_gain_term(self, defaults):
        p = make_params(omega_b_single=0.0)
        nu = spasing_frequency(p)
        res = spasing_condition_residual(p, nu)
        assert res.real == pytest.approx(-1.0, rel=1e-12)

    def test_degenerate_rates_are_rejected(self):
        bad = make_params(gamma21=0.0, gamma31=0.0, gamma32=0.0, gamma_ph=0.0,
                          pump_g=0.0)
        with pytest.raises(DegenerateParameterError):
            spasing_condition_residual(bad, OMEGA_21)

    def test_degenerate_driven_rates_are_rejected(self):
        bad = make_params(gamma21=0.0, gamma31=0.0, gamma32=0.0, gamma_ph=0.0,
                          omega_a_rabi=4e12)
        with pytest.raises(DegenerateParameterError):
            spasing_frequency(bad)

    def test_detuned_drive_is_rejected(self):
        p = make_params(delta_a=1e12, omega_a_rabi=4e12)
        with pytest.raises(NonResonantDriveError):
            spasing_frequency(p)


def test_frame_helper_rotates_at_the_operating_frequency(defaults):
    p = frame_at_spasing_frequency(defaults)
    assert p.frame.nu_ref == spasing_frequency(defaults)
    # the physical inputs are untouched
    assert p.gain == defaults.gain and p.plasmon == defaults.plasmon
