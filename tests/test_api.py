"""The library's public surface."""

import importlib
import inspect

import pytest

import spaserkit

#: The modules whose ``__all__`` the package re-exports.
REEXPORTED = ("analysis", "dynamics", "errors", "params", "state", "units")


class TestKnobInventory:
    """The parameter names of every public function, in order.  A new
    library knob must show up here, as a new command-line option does in
    ``test_cli.TestKnobInventory``."""

    EXPECTED = {
        "ev_to_angular": ("energy_ev",),
        "angular_to_ev": ("omega",),
        "complex_rates": ("params", "nu"),
        "default_params": ("pump_g", "omega_a_rabi", "gamma_ph", "omega_b_single"),
        "param_paths": (),
        "param_unit": ("path",),
        "get_param": ("params", "path"),
        "set_param": ("params", "path", "value"),
        "observables": ("state",),
        "equations_of_motion": ("state", "params"),
        "integrate": (
            "state0", "params", "t_end", "rel_tol", "abs_tol", "max_step",
            "max_steps", "store_every",
        ),
        "steady_inversions_closed_form": ("params",),
        "weak_field_background": ("params",),
        "spasing_condition_residual": ("params", "nu_s"),
        "spasing_frequency": ("params",),
        "spasing_frequency_estimate": ("params",),
        "steady_state_numeric": ("params",),
        "threshold_find": ("params", "g_bracket", "cross_check"),
        "growth_rate": ("params",),
        "limit_strong_drive": ("params",),
        "limit_weak_drive": ("params",),
        "calibrate_coupling": ("params", "target_ratio", "omega_a_on", "bracket"),
        "frame_at_spasing_frequency": ("params",),
        "reduced_rhs": ("x", "params", "nu"),
        "reduced_jacobian": ("x", "params", "nu"),
    }

    def test_parameter_names_per_function(self):
        public = {name: getattr(spaserkit, name) for name in spaserkit.__all__}
        found = {
            name: tuple(inspect.signature(obj).parameters)
            for name, obj in public.items()
            if inspect.isfunction(obj)
        }
        assert found == self.EXPECTED


class TestPublicSurface:
    """Each re-exported module's ``__all__`` is the one list of its public
    names, and the package surface is built from those lists."""

    @pytest.mark.parametrize("name", REEXPORTED)
    def test_module_all_lists_every_public_definition(self, name):
        module = importlib.import_module(f"spaserkit.{name}")
        defined = {
            attr for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert defined - set(module.__all__) == set()

    def test_package_all_is_the_modules_all(self):
        assert len(spaserkit.__all__) == len(set(spaserkit.__all__))
        reexported = {"__version__"}.union(*(
            importlib.import_module(f"spaserkit.{name}").__all__ for name in REEXPORTED
        ))
        assert set(spaserkit.__all__) == reexported

    def test_every_name_resolves(self):
        namespace = {}
        exec("from spaserkit import *", namespace)
        for name in spaserkit.__all__:
            assert namespace[name] is getattr(spaserkit, name)
