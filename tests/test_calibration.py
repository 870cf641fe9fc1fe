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
    wt = calibrate_coupling(defaults)
    assert wt == pytest.approx(OMEGA_B_CALIBRATED, rel=1e-6)
    assert 1e12 <= wt <= 1e14


def test_calibration_work(defaults, monkeypatch):
    """``threshold_find`` calls at the defaults: two per coupling (drive
    off and on), for the 13 scan samples, the Brent iterates of the
    band-entry refinement and the final check of the achieved ratio.  The
    refinement's bracket ends are scan samples and are not evaluated
    again."""
    calls = Counter()

    def counted(*args, **kwargs):
        calls[args[0].plasmon.omega_b_single] += 1
        return threshold_find(*args, **kwargs)

    monkeypatch.setattr(analysis, "threshold_find", counted)
    assert calibrate_coupling(defaults) == pytest.approx(OMEGA_B_CALIBRATED, rel=1e-6)
    assert sum(calls.values()) == 40
    assert all(calls[float(w)] == 2 for w in np.geomspace(1e12, 1e14, 13))


def test_calibrated_coupling_achieves_the_target_ratio(defaults):
    wt = calibrate_coupling(defaults)
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


def test_result_is_insensitive_to_the_starting_coupling(defaults):
    """The calibration rewrites omega_b_single, so the value already stored
    on the input parameters must not matter."""
    detuned = make_params(omega_b_single=3e12)
    assert calibrate_coupling(detuned) == pytest.approx(
        calibrate_coupling(defaults), rel=1e-6
    )


def test_band_entry_versus_exact_crossing(defaults):
    """At a drive of 16e12 the threshold ratio only approaches 2 from below,
    so the calibration returns the first coupling inside the 0.5% band; at
    24e12 the curve genuinely crosses 2 and the exact root is returned."""
    wt16 = calibrate_coupling(defaults, omega_a_on=16e12)
    tuned16 = set_param(
        set_param(defaults, "plasmon.omega_b_single", wt16),
        "drive.omega_a_rabi",
        16e12,
    )
    off16 = set_param(set_param(defaults, "plasmon.omega_b_single", wt16),
                      "drive.omega_a_rabi", 0.0)
    r16 = threshold_find(off16).g_th / threshold_find(tuned16).g_th
    assert 1.985 <= r16 <= 2.0

    wt24 = calibrate_coupling(defaults, omega_a_on=24e12)
    off24 = set_param(set_param(defaults, "plasmon.omega_b_single", wt24),
                      "drive.omega_a_rabi", 0.0)
    on24 = set_param(set_param(defaults, "plasmon.omega_b_single", wt24),
                     "drive.omega_a_rabi", 24e12)
    r24 = threshold_find(off24).g_th / threshold_find(on24).g_th
    assert r24 == pytest.approx(2.0, rel=1e-4)
