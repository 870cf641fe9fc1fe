"""The in-house Brent root finder and the SciPy-free import path."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import OMEGA_21, OMEGA_N
import spaserkit
from spaserkit.analysis import _brentq, spasing_condition_residual
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


def test_cli_import_leaves_scipy_out():
    src = str(Path(spaserkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, spaserkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
