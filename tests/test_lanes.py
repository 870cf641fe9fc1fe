"""Grid points as lanes: a chunk's linear algebra stacked, each lane's
result bit for bit its one-lane result."""

import dataclasses
import inspect
import random
import warnings

import numpy as np
import pytest

from helpers import make_params
from spaserkit import analysis
from spaserkit.errors import ConvergenceError, DegenerateParameterError, SpaserError
from spaserkit.params import default_params
from test_steady_state import random_params


def bits(value):
    """A key two values share exactly when they are equal bit for bit, with
    the same types and, for arrays, the same dtype and shape."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, complex):
        return (type(value).__name__, value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return (type(value).__name__, value)


def one_lane(lane):
    """The outcome of one lane run on its own: its result or its error."""
    try:
        return analysis._one_lane(lane)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return exc


def outcome_key(outcome):
    if isinstance(outcome, Exception):
        return ("error", type(outcome), str(outcome))
    return ("result", bits(outcome))


# sets whose background block is singular: no pump, no decay out of |2>,
# no dephasing and no drive (the weak-field steady state is undefined)
DEGENERATE = [
    make_params(gamma21=0.0, gamma_ph=0.0, pump_g=0.0),
    make_params(gamma21=0.0, gamma31=0.0, gamma32=0.0, gamma_ph=0.0, pump_g=0.0),
]


@pytest.fixture(scope="module")
def random_sets():
    """The 1,500 parameter sets of the random-set pin (seed 7), with the
    degenerate sets spliced in, so that chunks of 40 mix every outcome."""
    rng = random.Random(7)
    sets = []
    while len(sets) < 1500:
        try:
            sets.append(random_params(rng))
        except SpaserError:
            continue
    for i, p in enumerate(DEGENERATE):
        sets.insert(17 + 40 * i, p)
    return sets


# the public functions that are lanes, each with its lane as ``.lane``
LANE_FUNCTIONS = (analysis.growth_rate, analysis.spasing_frequency,
                  analysis.steady_state_numeric, analysis.weak_field_background)


@pytest.mark.parametrize("form", LANE_FUNCTIONS, ids=lambda f: f.__name__)
def test_chunks_of_lanes_equal_one_lane_calls(random_sets, form):
    """Chunks of 40 sets run as lanes: every result equals the one-lane call
    bit for bit, dtype included, and every error matches in type and
    message.  The steady-state chunks hold the 25 sets where Newton fails
    from every seed, and the degenerate sets, whose singular block solve
    sends their chunk through the per-request fallback."""
    lane = form.lane
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for start in range(0, len(random_sets), 40):
            chunk = random_sets[start:start + 40]
            outcomes += analysis._run_lanes([lane(p) for p in chunk])[0]
        expected = [one_lane(lane(p)) for p in random_sets]
    assert [outcome_key(o) for o in outcomes] == [outcome_key(o) for o in expected]
    errors = [type(o) for o in outcomes if isinstance(o, Exception)]
    if form is not analysis.spasing_frequency:  # the others solve the background
        assert errors.count(DegenerateParameterError) >= len(DEGENERATE)
    if form is analysis.steady_state_numeric:
        assert errors.count(ConvergenceError) == 25


@pytest.mark.parametrize("form", LANE_FUNCTIONS, ids=lambda f: f.__name__)
def test_a_public_function_is_its_lane(form):
    """The function has its lane's name, docstring and signature, takes its
    argument by keyword too, and gives the bits of its lane run alone or
    among other lanes."""
    lane = form.lane
    assert form.__name__ == lane.__name__
    assert form.__doc__ == lane.__doc__
    assert inspect.signature(form) == inspect.signature(lane)
    points = [default_params(pump_g=g, omega_a_rabi=16e12) for g in (2e12, 8e12, 2e13)]
    results = [bits(form(p)) for p in points]
    assert [bits(form(params=p)) for p in points] == results
    outcomes, _ = analysis._run_lanes([lane(p) for p in points])
    assert [bits(o) for o in outcomes] == results


def test_a_singular_block_falls_back_per_request(monkeypatch):
    """One singular background block in a chunk: the stacked solve raises,
    each request is retried on its own, the singular lane gets its own
    error and the other lanes their one-lane results."""
    good = [default_params(pump_g=g, omega_a_rabi=16e12) for g in (2e12, 8e12, 2e13)]
    chunk = good[:1] + DEGENERATE[:1] + good[1:]
    solves = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    outcomes, _ = analysis._run_lanes([analysis.steady_state_numeric.lane(p) for p in chunk])
    # the first round: one stacked call of four blocks, then four single ones
    assert solves[:5] == [(4, 8, 8)] + [(8, 8)] * 4
    error = outcomes[1]
    assert isinstance(error, DegenerateParameterError)
    assert str(error) == str(one_lane(analysis.steady_state_numeric.lane(DEGENERATE[0])))
    for p, outcome in zip(good, outcomes[:1] + outcomes[2:]):
        assert bits(outcome) == bits(analysis.steady_state_numeric(p))


def test_a_real_spectrum_stays_real_in_a_mixed_stack():
    """A lane whose spectrum is all real gets a real array, as NumPy gives
    one matrix, even when another matrix of the stack has complex
    eigenvalues."""
    rng = np.random.default_rng(3)
    sym = rng.standard_normal((6, 6))
    mats = [sym + sym.T, rng.standard_normal((6, 6)), np.diag([1.0, 2, 3, 4, 5, 6])]

    def lane(kind, a):
        return (yield (kind, a))

    for kind in ("eig", "eigvals"):
        stacked, _ = analysis._run_lanes([lane(kind, a) for a in mats])
        single = [getattr(np.linalg, kind)(a) for a in mats]
        key = (lambda s: bits(tuple(s))) if kind == "eig" else bits
        assert [key(s) for s in stacked] == [key(s) for s in single]
        assert [np.asarray(s[0] if kind == "eig" else s).dtype.kind for s in stacked] == [
            "f", "c", "f"]


def random_polynomials():
    rng = np.random.default_rng(11)
    polys = [rng.standard_normal(6) for _ in range(200)]
    for lead, trail in ((1, 0), (0, 1), (2, 2), (0, 3), (5, 0), (0, 5), (6, 0)):
        for _ in range(5):
            p = rng.standard_normal(6)
            p[:lead] = 0.0
            p[6 - trail:] = 0.0
            polys.append(p)
    return polys + [np.array([0.0, 0.0, 3.0, 0.0, 0.0, 0.0]), np.array([2.0, 0.0])]


def test_companion_roots_equal_np_roots():
    """The companion-matrix roots equal ``np.roots`` bit for bit, alone and
    stacked, with leading and trailing zero coefficients."""
    polys = random_polynomials()
    expected = [bits(np.roots(p)) for p in polys]
    assert [bits(analysis._one_lane(analysis._roots_lane(p))) for p in polys] == expected
    stacked, _ = analysis._run_lanes([analysis._roots_lane(p) for p in polys])
    assert [bits(r) for r in stacked] == expected


def test_a_chunk_stacks_its_block_solves(monkeypatch):
    """40 spasing points run as one chunk make fewer ``np.linalg.solve``
    calls than there are points; one at a time they make hundreds."""
    points = [default_params(pump_g=g, omega_a_rabi=16e12)
              for g in np.linspace(6e12, 2e13, 40)]
    calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    outcomes, _ = analysis._run_lanes([analysis.steady_state_numeric.lane(p) for p in points])
    assert all(o.branch == "spasing" for o in outcomes)
    assert len(calls) < len(points)
    calls.clear()
    for p in points:
        analysis.steady_state_numeric(p)
    assert len(calls) > 10 * len(points)


def test_warnings_are_told_apart_by_lane():
    """``_run_lanes`` moves each warning to the lane that raised it."""
    def lane(name, n):
        for _ in range(n):
            yield ("solve", np.eye(2), np.ones(2))
            warnings.warn(name)
        return name

    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        outcomes, caught = analysis._run_lanes([lane("a", 3), lane("b", 1)], log)
    assert outcomes == ["a", "b"]
    assert [[str(w.message) for w in ws] for ws in caught] == [["a"] * 3, ["b"]]
    assert log == []
