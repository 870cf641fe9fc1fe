"""Closed-form steady-state inversions of the undepleted medium."""

import math

import numpy as np
import pytest

from helpers import make_params
from spaserkit.analysis import (
    steady_inversions_closed_form,
    weak_field_background,
)
from spaserkit.errors import DegenerateParameterError, NonResonantDriveError


def random_rate_params(rng):
    g21, g31, g32, g, gph = 10.0 ** rng.uniform(10.0, 14.0, size=5)
    wa = rng.uniform(0.0, 5e13)
    return make_params(
        gamma21=g21, gamma31=g31, gamma32=g32, gamma_ph=gph, pump_g=g,
        omega_a_rabi=wa, omega_b_single=0.0,
    )


def test_matches_independent_linear_solve_over_random_rates():
    """The printed formulas must agree with a direct solve of the
    reduced operator's density-matrix block at a = 0."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = random_rate_params(rng)
        cf = steady_inversions_closed_form(p)
        bg = weak_field_background(p)
        assert math.isclose(cf.n21_bar, bg.p2 - bg.p1, rel_tol=1e-10, abs_tol=1e-13)
        assert math.isclose(cf.n32_bar, bg.p3 - bg.p2, rel_tol=1e-10, abs_tol=1e-13)


def test_unpumped_medium_sits_in_the_ground_state():
    p = make_params(pump_g=0.0, omega_a_rabi=3e12)
    cf = steady_inversions_closed_form(p)
    assert cf.n21_bar == pytest.approx(-1.0, rel=1e-14)
    assert cf.n32_bar == pytest.approx(0.0, abs=1e-14)


def test_inversion_sign_boundary_without_drive():
    """Without the drive, the spasing inversion turns positive exactly
    where pump-in beats decay-out: g*gamma32 = gamma21*(gamma31+gamma32)."""
    g21, g31, g32 = 4e12, 1e10, 1e12
    g_star = g21 * (g31 + g32) / g32
    below = make_params(gamma21=g21, gamma31=g31, gamma32=g32,
                        pump_g=0.999 * g_star, omega_a_rabi=0.0)
    above = make_params(gamma21=g21, gamma31=g31, gamma32=g32,
                        pump_g=1.001 * g_star, omega_a_rabi=0.0)
    assert steady_inversions_closed_form(below).n21_bar < 0.0
    assert steady_inversions_closed_form(above).n21_bar > 0.0


def test_drive_inversion_sign_tracks_decay_asymmetry():
    """n32 carries the sign of (gamma21 - gamma32) and needs pumping."""
    fast_lower = make_params(gamma21=4e12, gamma32=1e12, pump_g=8e12,
                             omega_a_rabi=1e12)
    slow_lower = make_params(gamma21=1e12, gamma32=4e12, pump_g=8e12,
                             omega_a_rabi=1e12)
    unpumped = make_params(pump_g=0.0, omega_a_rabi=1e12)
    assert steady_inversions_closed_form(fast_lower).n32_bar > 0.0
    assert steady_inversions_closed_form(slow_lower).n32_bar < 0.0
    assert steady_inversions_closed_form(unpumped).n32_bar == pytest.approx(0.0,
                                                                            abs=1e-14)


def test_strong_drive_equalizes_the_driven_populations():
    p = make_params(pump_g=8e12, omega_a_rabi=1e15)
    cf = steady_inversions_closed_form(p)
    assert abs(cf.n32_bar) < 1e-3


def test_detuned_drive_is_rejected():
    p = make_params(delta_a=1e12, omega_a_rabi=4e12)
    with pytest.raises(NonResonantDriveError):
        steady_inversions_closed_form(p)


def test_background_solve_handles_detuned_drive():
    """The linear background solve is more general than the closed form:
    it must accept a detuned drive and still return a unit-trace state."""
    p = make_params(delta_a=2e12, omega_a_rabi=4e12)
    bg = weak_field_background(p)
    assert math.isclose(bg.p1 + bg.p2 + bg.p3, 1.0, rel_tol=0.0, abs_tol=1e-12)
    assert bg.rho32 != 0j
    # detuning throttles the drive's 3->2 drain, so the pumped level fills up
    resonant = weak_field_background(make_params(delta_a=0.0, omega_a_rabi=4e12))
    assert bg.p3 > resonant.p3


@pytest.mark.parametrize(
    "rates",
    [
        dict(gamma21=0.0, gamma31=0.0, gamma32=0.0, gamma_ph=0.0, pump_g=0.0),
        dict(gamma21=0.0, gamma_ph=0.0, pump_g=0.0),
    ],
    ids=["nothing-relaxes", "levels-1-and-2-frozen"],
)
def test_background_solve_rejects_degenerate_rates(rates):
    """Without a drive, these rates leave the background undetermined."""
    with pytest.raises(DegenerateParameterError):
        weak_field_background(make_params(omega_a_rabi=0.0, **rates))


def test_background_fields_are_plain_numbers():
    bg = weak_field_background(make_params(delta_a=2e12, omega_a_rabi=4e12))
    assert all(type(v) is float for v in (bg.p1, bg.p2, bg.p3))
    assert all(type(v) is complex for v in (bg.rho21, bg.rho31, bg.rho32))
