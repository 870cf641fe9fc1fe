"""Calibration of the single-emitter coupling against the threshold-halving
benchmark: a drive of 16e12 rad/s should cut the spasing threshold in two."""

import math
from collections import Counter

import numpy as np
import pytest

from helpers import OMEGA_B_CALIBRATED, make_params
from spaserkit import analysis
from spaserkit.analysis import calibrate_coupling, threshold_find
from spaserkit.errors import CalibrationError
from spaserkit.params import default_params, set_param


def test_default_calibration_regression(defaults):
    wt = calibrate_coupling(defaults).omega_b_single
    assert wt == pytest.approx(OMEGA_B_CALIBRATED, rel=1e-6)
    assert 1e12 <= wt <= 1e14


@pytest.mark.parametrize("omega_a_on, n_calls", [(16e12, 38), (24e12, 36)])
def test_calibration_work(defaults, monkeypatch, omega_a_on, n_calls):
    """``threshold_find`` calls: two per coupling (drive off and on), for
    the 13 scan samples and the Brent iterates of the refinement (the
    band entry at 16e12, the exact crossing at 24e12).  No coupling is
    evaluated twice: the refinement's bracket ends are scan samples, and
    the final check of the achieved ratio reads the pair Brent's method
    found at the root."""
    calls = Counter()

    def counted(*args, **kwargs):
        calls[args[0].plasmon.omega_b_single] += 1
        return threshold_find(*args, **kwargs)

    monkeypatch.setattr(analysis, "threshold_find", counted)
    res = calibrate_coupling(defaults, omega_a_on=omega_a_on)
    if omega_a_on == 16e12:
        assert res.omega_b_single == pytest.approx(OMEGA_B_CALIBRATED, rel=1e-6)
    assert sum(calls.values()) == n_calls
    assert set(calls.values()) == {2}
    assert {float(w) for w in np.geomspace(1e12, 1e14, 13)} <= set(calls)
    assert res.omega_b_single in calls


def test_result_carries_the_thresholds_at_the_calibrated_coupling(defaults):
    """The result's thresholds are those ``threshold_find`` gives at the
    calibrated coupling, bit for bit, and its ratio is theirs."""
    res = calibrate_coupling(defaults)
    tuned = set_param(defaults, "plasmon.omega_b_single", res.omega_b_single)
    g_off, g_on = (
        threshold_find(set_param(tuned, "drive.omega_a_rabi", wa), cross_check=False).g_th
        for wa in (0.0, 16e12)
    )
    assert (res.g_th_drive_off, res.g_th_drive_on) == (g_off, g_on)
    assert res.threshold_ratio == res.g_th_drive_off / res.g_th_drive_on


def test_calibrated_coupling_achieves_the_target_ratio(defaults):
    wt = calibrate_coupling(defaults).omega_b_single
    tuned = set_param(defaults, "plasmon.omega_b_single", wt)
    g_off = threshold_find(tuned).g_th
    g_on = threshold_find(
        set_param(tuned, "drive.omega_a_rabi", 16e12)
    ).g_th
    assert g_off / g_on == pytest.approx(2.0, rel=0.01)


def test_shipped_default_coupling_is_the_calibrated_one(defaults):
    assert defaults.plasmon.omega_b_single == OMEGA_B_CALIBRATED


def test_unattainable_target_reports_the_sampled_curve(defaults):
    """The threshold ratio saturates near 2 at strong coupling, so a target
    of 5 cannot be met; the error must carry the evidence."""
    with pytest.raises(CalibrationError) as exc_info:
        calibrate_coupling(defaults, target_ratio=5.0)
    curve = exc_info.value.curve
    assert len(curve) >= 3
    for coupling, ratio in curve:
        assert coupling > 0.0
        assert math.isnan(ratio) or ratio < 5.0


def test_invalid_bracket_rejected(defaults):
    with pytest.raises(CalibrationError):
        calibrate_coupling(defaults, bracket=(1e13, 1e12))
    with pytest.raises(CalibrationError):
        calibrate_coupling(defaults, target_ratio=-1.0)


@pytest.mark.parametrize(
    "bracket", [(1e12,), (1e12, 1e13, 1e14), (), 1e12, (None, 1e14)]
)
def test_bracket_that_is_not_two_numbers_rejected(defaults, bracket):
    with pytest.raises(CalibrationError) as err:
        calibrate_coupling(defaults, bracket=bracket)
    assert str(err.value) == f"invalid coupling bracket {bracket!r}"


def test_infinite_bracket_end_rejected(defaults):
    with pytest.raises(CalibrationError, match="invalid coupling bracket"):
        calibrate_coupling(defaults, bracket=(1e12, math.inf))


def test_result_is_insensitive_to_the_starting_coupling(defaults):
    """The calibration rewrites omega_b_single, so the value already stored
    on the input parameters must not matter."""
    detuned = make_params(omega_b_single=3e12)
    assert calibrate_coupling(detuned).omega_b_single == pytest.approx(
        calibrate_coupling(defaults).omega_b_single, rel=1e-6
    )


def test_band_entry_versus_exact_crossing(defaults):
    """At a drive of 16e12 the threshold ratio only approaches 2 from below,
    so the calibration returns the first coupling inside the 0.5% band; at
    24e12 the curve genuinely crosses 2 and the exact root is returned."""
    wt16 = calibrate_coupling(defaults, omega_a_on=16e12).omega_b_single
    tuned16 = set_param(
        set_param(defaults, "plasmon.omega_b_single", wt16),
        "drive.omega_a_rabi",
        16e12,
    )
    off16 = set_param(set_param(defaults, "plasmon.omega_b_single", wt16),
                      "drive.omega_a_rabi", 0.0)
    r16 = threshold_find(off16).g_th / threshold_find(tuned16).g_th
    assert 1.985 <= r16 <= 2.0

    wt24 = calibrate_coupling(defaults, omega_a_on=24e12).omega_b_single
    off24 = set_param(set_param(defaults, "plasmon.omega_b_single", wt24),
                      "drive.omega_a_rabi", 0.0)
    on24 = set_param(set_param(defaults, "plasmon.omega_b_single", wt24),
                     "drive.omega_a_rabi", 24e12)
    r24 = threshold_find(off24).g_th / threshold_find(on24).g_th
    assert r24 == pytest.approx(2.0, rel=1e-4)
