"""Parameter containers, validation, and the complex coherence rates."""

import math
import sys
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OMEGA_21, OMEGA_32, OMEGA_B_CALIBRATED, OMEGA_N, make_params
from spaserkit.config import build_config
from spaserkit.errors import ConfigError, RegimeWarning
from spaserkit.params import (
    DriveParams,
    FrameParams,
    GainParams,
    ModelParams,
    PlasmonParams,
    complex_rates,
    default_params,
    get_param,
    param_paths,
    param_unit,
    set_param,
)


class TestValidation:
    def test_negative_rate_rejected_with_dotted_name(self):
        with pytest.raises(ConfigError, match=r"gain\.gamma21"):
            GainParams(
                omega21=OMEGA_21, omega32=OMEGA_32, gamma21=-1.0, gamma31=0, gamma32=0
            )

    def test_nonpositive_mode_frequency_rejected(self):
        with pytest.raises(ConfigError, match=r"plasmon\.omega_n"):
            PlasmonParams(omega_n=0.0, gamma_n=1e12)

    def test_zero_plasmon_loss_rejected(self):
        with pytest.raises(ConfigError, match=r"plasmon\.gamma_n"):
            PlasmonParams(omega_n=OMEGA_N, gamma_n=0.0)

    def test_chromophore_count_below_one_rejected(self):
        with pytest.raises(ConfigError, match=r"plasmon\.n_p"):
            PlasmonParams(omega_n=OMEGA_N, gamma_n=1e12, n_p=0.5)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ConfigError, match=r"omega_b_single"):
            PlasmonParams(omega_n=OMEGA_N, gamma_n=1e12, omega_b_single=-1.0)

    def test_nan_detuning_rejected(self):
        with pytest.raises(ConfigError, match=r"delta_a"):
            DriveParams(delta_a=float("nan"))

    def test_frame_far_from_transitions_warns(self):
        with pytest.warns(Warning, match="slowly-varying"):
            make_params(nu_ref=0.5 * OMEGA_21)

    def test_frame_warning_points_at_the_line_that_set_the_frame(self, defaults):
        far = FrameParams(nu_ref=2.3e15)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            set_line = sys._getframe().f_lineno + 1
            set_param(defaults, "frame.nu_ref", 2.3e15)
            build_line = sys._getframe().f_lineno + 1
            ModelParams(defaults.gain, defaults.plasmon, defaults.drive, far)
        assert [(w.category, w.filename, w.lineno) for w in caught] == [
            (RegimeWarning, __file__, line)
            for line in (set_line, set_line, build_line, build_line)
        ]


#: Each parameter leaf's rule as its messages word it, and a value that
#: breaks its bound (``inf`` for the unbounded detuning).
LEAF_RULES = {
    "gain.omega21": ("frequency > 0 rad/s", 0.0),
    "gain.omega32": ("frequency > 0 rad/s", -1.0),
    "gain.gamma21": ("rate >= 0 rad/s", -1.0),
    "gain.gamma31": ("rate >= 0 rad/s", -1e-300),
    "gain.gamma32": ("rate >= 0 rad/s", -1.0),
    "gain.gamma_ph": ("rate >= 0 rad/s", -1),
    "gain.pump_g": ("rate >= 0 rad/s", -8e12),
    "plasmon.omega_n": ("frequency > 0 rad/s", 0),
    "plasmon.gamma_n": ("rate > 0 rad/s", 0.0),
    "plasmon.n_p": ("count >= 1", 0.5),
    "plasmon.omega_b_single": ("coupling >= 0 rad/s", -1.0),
    "drive.omega_a_rabi": ("rate >= 0 rad/s", -1.0),
    "drive.delta_a": ("detuning", math.inf),
    "frame.nu_ref": ("frequency > 0 rad/s", -math.inf),
}


class TestLeafMessages:
    """The full message of every parameter leaf's check, through
    :func:`set_param` and through the config file."""

    def test_every_leaf_is_listed(self):
        assert tuple(LEAF_RULES) == param_paths()

    @pytest.mark.parametrize("path", list(LEAF_RULES))
    @pytest.mark.parametrize("breaks", ["bound", "nan"])
    def test_out_of_bound_and_nan(self, defaults, path, breaks):
        rule, bad = LEAF_RULES[path]
        value = bad if breaks == "bound" else math.nan
        with pytest.raises(ConfigError) as err:
            set_param(defaults, path, value)
        assert str(err.value) == f"{path} must be a finite {rule}, got {value!r}"

    @pytest.mark.parametrize("path", list(LEAF_RULES))
    def test_config_file_prefixes_the_model_path(self, path):
        rule, bad = LEAF_RULES[path]
        group, leaf = path.split(".")
        with pytest.raises(ConfigError) as err:
            build_config({"model": {group: {leaf: bad}}})
        if math.isfinite(bad):  # the config reader hands on a float
            expected = f"model.{path}: {path} must be a finite {rule}, got {float(bad)!r}"
        else:  # the config reader rejects it first
            expected = f"'model.{path}' must be finite, got {bad!r}"
        assert str(err.value) == expected

    @pytest.mark.parametrize("path", list(LEAF_RULES))
    @pytest.mark.parametrize("value", ["x", None, True, False, 1j])
    def test_non_numbers_and_bools_are_config_errors(self, defaults, path, value):
        rule, _ = LEAF_RULES[path]
        with pytest.raises(ConfigError) as err:
            set_param(defaults, path, value)
        assert str(err.value) == f"{path} must be a finite {rule}, got {value!r}"


class TestDefaults:
    def test_stock_frequencies(self, defaults):
        assert defaults.plasmon.omega_n == OMEGA_N
        assert defaults.gain.omega21 == OMEGA_21
        assert defaults.gain.omega32 == OMEGA_32

    def test_stock_rates_and_counts(self, defaults):
        assert defaults.plasmon.gamma_n == 5.3e14
        assert defaults.plasmon.n_p == 6e4
        assert defaults.gain.gamma21 == 4e12
        assert defaults.gain.gamma31 == 1e10
        assert defaults.gain.gamma32 == 1e12
        assert defaults.gain.pump_g == 8e12

    def test_calibrated_coupling_constant(self, defaults):
        assert defaults.plasmon.omega_b_single == OMEGA_B_CALIBRATED

    def test_frame_defaults_to_spasing_transition(self, defaults):
        assert defaults.frame.nu_ref == OMEGA_21
        assert defaults.delta_b == 0.0

    def test_knobs_are_forwarded(self):
        p = default_params(pump_g=5e12, omega_a_rabi=7e12, gamma_ph=9e12)
        assert p.gain.pump_g == 5e12
        assert p.drive.omega_a_rabi == 7e12
        assert p.gain.gamma_ph == 9e12


class TestComplexRates:
    def test_frozen_fixture_at_defaults(self, defaults):
        # hand-evaluated from the rate definitions at the stock values
        # (pump 8e12): e.g. Re Gamma21 = (gamma21 + g)/2 = 6e12.
        r = complex_rates(defaults)
        assert r.Gamma21 == 6e12 + 0j
        assert r.Gamma31 == 4.505e12 + 0j
        assert r.Gamma32 == 2.505e12 + 0j
        assert r.Gamma_n.real == 5.3e14
        assert r.Gamma_n.imag == OMEGA_N - OMEGA_21
        assert math.isclose(
            abs(r.Gamma_n.imag), 0.002 / 6.582119569e-16, rel_tol=1e-12
        )

    def test_half_sum_rule_simple_case(self):
        p = make_params(gamma21=2e12, gamma31=0.0, gamma32=0.0, gamma_ph=0.0,
                        pump_g=4e12)
        assert complex_rates(p).Gamma21 == 3e12 + 0j

    def test_dephasing_and_detunings_enter_linearly(self):
        # all decays and pump off; gamma_ph = 5e12, delta_a = 1e12,
        # delta_b = 2e12 (frame shifted below the spasing transition)
        p = make_params(
            gamma21=0.0, gamma31=0.0, gamma32=0.0, gamma_ph=5e12, pump_g=0.0,
            delta_a=1e12, nu_ref=OMEGA_21 - 2e12,
        )
        r = complex_rates(p)
        assert r.Gamma21 == 5e12 + 2e12j
        assert r.Gamma31 == 5e12 + 3e12j  # delta_a + delta_b
        assert r.Gamma32 == 5e12 + 1e12j  # delta_a only

    def test_frame_override_argument(self, defaults):
        shifted = complex_rates(defaults, nu=OMEGA_21 - 1e12)
        assert shifted.Gamma21.imag == 1e12
        assert shifted.Gamma_n.imag == OMEGA_N - (OMEGA_21 - 1e12)
        # real parts never depend on the frame
        assert shifted.Gamma21.real == complex_rates(defaults).Gamma21.real

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e14))
    def test_pure_dephasing_shifts_all_real_parts_equally(self, gph):
        base = complex_rates(make_params(gamma_ph=0.0))
        bumped = complex_rates(make_params(gamma_ph=gph))
        for name in ("Gamma21", "Gamma31", "Gamma32"):
            re0 = getattr(base, name).real
            shift = getattr(bumped, name).real - re0
            # one rounding each for the add and the subtract
            assert abs(shift - gph) <= 2.0 * math.ulp(re0 + gph)
            assert getattr(bumped, name).imag == getattr(base, name).imag
        assert bumped.Gamma_n == base.Gamma_n


class TestParamPaths:
    def test_paths_cover_every_leaf(self):
        paths = param_paths()
        assert "gain.pump_g" in paths
        assert "plasmon.omega_b_single" in paths
        assert "drive.omega_a_rabi" in paths
        assert "frame.nu_ref" in paths

    def test_get_set_round_trip(self, defaults):
        p = set_param(defaults, "gain.pump_g", 5e12)
        assert get_param(p, "gain.pump_g") == 5e12
        assert get_param(defaults, "gain.pump_g") == 8e12  # original untouched

    def test_unknown_path_rejected(self, defaults):
        with pytest.raises(ConfigError, match="bogus"):
            set_param(defaults, "gain.bogus", 1.0)

    def test_paths_are_the_dataclass_leaves_in_declaration_order(self, defaults):
        leaves = tuple(
            f"{group.name}.{leaf.name}"
            for group in fields(defaults)
            for leaf in fields(getattr(defaults, group.name))
        )
        assert param_paths() == leaves

    def test_units(self):
        assert param_unit("plasmon.n_p") == "1"
        others = {param_unit(p) for p in param_paths() if p != "plasmon.n_p"}
        assert others == {"rad/s"}

    @pytest.mark.parametrize("path", ["gain.bogus", "bogus.pump_g", "gain", ""])
    def test_unknown_path_named_in_the_error(self, defaults, path):
        for call in (
            lambda: get_param(defaults, path),
            lambda: set_param(defaults, path, 1.0),
            lambda: param_unit(path),
        ):
            with pytest.raises(ConfigError, match="unknown parameter path") as err:
                call()
            assert repr(path) in str(err.value)
