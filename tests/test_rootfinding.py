"""The in-house Brent root finder and the SciPy-free import path."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import OMEGA_21, OMEGA_N
import spaserkit
from spaserkit.analysis import _brentq, _first_root, spasing_condition_residual
from spaserkit.errors import ConvergenceError
from spaserkit.params import default_params

# (f, a, b): sign-changing brackets of closed-form functions
CLOSED_FORM = [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, -3.0, 5.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: 1e12 * math.atan(x - 0.3), -10.0, 10.0),
    (lambda x: math.tanh(50.0 * (x - 1e-3)), -1.0, 1.0),
]


def _iterates(solver, f, a, b, **kwargs):
    """Root plus every abscissa the solver evaluated, in order."""
    xs = []

    def recorded(x):
        xs.append(x)
        return f(x)

    return solver(recorded, a, b, **kwargs), xs


@pytest.mark.parametrize("rtol", [8.9e-16, 1e-8])
@pytest.mark.parametrize("case", range(len(CLOSED_FORM)))
def test_matches_scipy_iterate_for_iterate(case, rtol):
    optimize = pytest.importorskip("scipy.optimize")
    f, a, b = CLOSED_FORM[case]
    ours = _iterates(_brentq, f, a, b, rtol=rtol)
    theirs = _iterates(optimize.brentq, f, a, b, rtol=rtol)
    assert ours == theirs


def test_matches_scipy_on_the_imaginary_onset_residual():
    optimize = pytest.importorskip("scipy.optimize")
    p = default_params(omega_a_rabi=16e12)

    def im_residual(nu):
        return spasing_condition_residual(p, nu).imag

    kwargs = {"xtol": 1e-3, "rtol": 8.9e-16}
    ours = _iterates(_brentq, im_residual, OMEGA_N, OMEGA_21, **kwargs)
    theirs = _iterates(optimize.brentq, im_residual, OMEGA_N, OMEGA_21, **kwargs)
    assert ours == theirs


@pytest.mark.parametrize("case", range(len(CLOSED_FORM)))
def test_known_end_values_save_two_calls(case):
    f, a, b = CLOSED_FORM[case]
    root, xs = _iterates(_brentq, f, a, b)
    known, known_xs = _iterates(_brentq, f, a, b, fa=f(a), fb=f(b))
    assert known == root
    assert known_xs == xs[2:]


def test_purely_relative_tolerance():
    root = _brentq(lambda x: x * x - 2e24, 1e12, 2e12, xtol=0.0, rtol=1e-12)
    assert root == pytest.approx(math.sqrt(2.0) * 1e12, rel=1e-12)


def test_endpoint_root_is_returned_as_is():
    assert _brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert _brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_bracket_without_sign_change_is_rejected():
    with pytest.raises(ValueError):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_is_rejected():
    with pytest.raises(ValueError):
        _brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0)


def test_iteration_budget_raises():
    """A jump at x = 0 with no absolute tolerance halves the bracket towards
    zero, where the relative stopping width vanishes."""
    with pytest.raises(ConvergenceError):
        _brentq(lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 1.0, xtol=0.0)


class TestFirstRoot:
    """The scan-root rule of ``threshold_find`` and ``calibrate_coupling``:
    the first cell, in grid order, whose samples change sign or hold an
    exact zero."""

    GRID = [0.0, 1.0, 2.0, 3.0, 4.0]

    @staticmethod
    def two_roots(x):
        """Roots at 0.5 and 3.5; positive at 0 and 4, negative between."""
        return (x - 0.5) * (x - 3.5)

    def test_the_first_of_two_sign_changes_wins(self):
        values = [self.two_roots(x) for x in self.GRID]
        root, xs = _iterates(_first_root, self.two_roots, self.GRID, values)
        assert root == pytest.approx(0.5, abs=1e-11)
        # the samples are not evaluated again
        assert not set(xs) & set(self.GRID)
        assert all(0.0 < x < 1.0 for x in xs)

    def test_refinement_is_brent_on_the_cell_from_its_samples(self):
        values = [self.two_roots(x) for x in self.GRID]
        assert _first_root(self.two_roots, self.GRID, values, rtol=1e-8) == _brentq(
            self.two_roots, 0.0, 1.0, rtol=1e-8
        )

    @pytest.mark.parametrize("at", range(5))
    def test_an_exact_zero_sample_is_the_root(self, at):
        """Also where the samples touch zero without changing sign, and at
        either end of the grid; ``f`` is never called."""
        values = [float(abs(i - at)) for i in range(5)]

        def never(x):
            raise AssertionError(f"f evaluated at {x}")

        assert _first_root(never, self.GRID, values) == self.GRID[at]

    def test_an_earlier_zero_beats_a_later_sign_change(self):
        values = [1.0, 0.0, 1.0, -1.0, -1.0]
        assert _first_root(lambda x: 2.5 - x, self.GRID, values) == 1.0

    def test_a_missing_sample_bounds_no_cell(self):
        """f undefined at x = 1: the cells on either side of it are skipped,
        though the samples around it change sign."""
        values = [self.two_roots(x) for x in self.GRID]
        values[1] = None
        assert _first_root(self.two_roots, self.GRID, values) == pytest.approx(
            3.5, abs=1e-11
        )

    @pytest.mark.parametrize("values", [
        [1.0, 2.0, 0.5, 3.0, 1.0],
        [-1.0, -2.0, -0.5, -3.0, -1.0],
        [1.0, None, -1.0, None, 1.0],
        [None] * 5,
    ])
    def test_no_sign_change_gives_none(self, values):
        assert _first_root(self.two_roots, self.GRID, values) is None


def test_cli_import_leaves_scipy_out():
    src = str(Path(spaserkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, spaserkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
