"""Density-matrix and combined-state types."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaserkit.errors import InvalidStateError
from spaserkit.state import DensityMatrix3, SpaserState, observables

finite = st.floats(min_value=-0.4, max_value=0.4, allow_nan=False)


def sample_rho() -> DensityMatrix3:
    return DensityMatrix3(
        p1=0.5, p2=0.3, p3=0.2, rho21=0.1 - 0.2j, rho31=0.05j, rho32=-0.07 + 0.01j
    )


class TestDensityMatrix:
    def test_ground_state(self):
        rho = DensityMatrix3.ground()
        assert (rho.p1, rho.p2, rho.p3) == (1.0, 0.0, 0.0)
        assert rho.trace == 1.0
        rho.validate()

    def test_pure_levels(self):
        assert DensityMatrix3.pure(2).p2 == 1.0
        assert DensityMatrix3.pure(3).p3 == 1.0
        with pytest.raises(InvalidStateError):
            DensityMatrix3.pure(4)

    def test_matrix_is_exactly_hermitian(self):
        m = sample_rho().matrix()
        assert np.array_equal(m, m.conj().T)

    def test_matrix_round_trip_is_exact(self):
        rho = sample_rho()
        back = DensityMatrix3.from_matrix(rho.matrix())
        assert back == rho

    def test_from_matrix_rejects_non_hermitian(self):
        m = sample_rho().matrix()
        m[0, 1] += 1e-3
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix3.from_matrix(m)

    def test_from_matrix_rejects_wrong_shape(self):
        with pytest.raises(InvalidStateError, match="3x3"):
            DensityMatrix3.from_matrix(np.eye(2))

    def test_validate_rejects_trace_drift(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix3(p1=0.6, p2=0.6, p3=0.0).validate()

    def test_validate_rejects_population_out_of_range(self):
        with pytest.raises(InvalidStateError, match="population"):
            DensityMatrix3(p1=1.4, p2=-0.4, p3=0.0).validate()

    def test_validate_rejects_non_finite(self):
        with pytest.raises(InvalidStateError, match="finite"):
            DensityMatrix3(p1=math.nan, p2=0.5, p3=0.5).validate()

    def test_trace_error(self):
        assert DensityMatrix3(p1=0.5, p2=0.5, p3=0.25).trace_error == 0.25


class TestSpaserState:
    def test_plasmon_number_is_squared_modulus(self):
        s = SpaserState(rho=DensityMatrix3.ground(), amplitude=3 - 4j)
        assert s.n_n == 25.0

    def test_plasmon_number_is_the_product_bit_for_bit(self):
        """|a|^2 is Re a * Re a + Im a * Im a, not abs(a) ** 2, which goes
        through libm pow and can miss the last bit."""
        rng = np.random.default_rng(0)
        for re in rng.uniform(0.0, 10.0, 100_000):
            if abs(complex(re, 0.0)) ** 2 != re * re:
                break
        else:
            pytest.fail("no amplitude squares differently through abs(a) ** 2")
        for a in (complex(re, 0.0), complex(0.0, re), complex(re, 0.5)):
            s = SpaserState(rho=DensityMatrix3.ground(), amplitude=a)
            assert s.n_n.hex() == (a.real * a.real + a.imag * a.imag).hex()

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(min_value=-10.0, max_value=10.0), re=finite, im=finite)
    def test_gauge_rotation_preserves_observables(self, theta, re, im):
        s = SpaserState(
            rho=DensityMatrix3(
                p1=0.5, p2=0.3, p3=0.2, rho21=re + im * 1j, rho31=0.1j, rho32=0.2
            ),
            amplitude=1.0 + 0.5j,
        )
        r = s.with_phase(theta)
        assert math.isclose(r.n_n, s.n_n, rel_tol=1e-12)
        assert r.rho.p1 == s.rho.p1 and r.rho.p2 == s.rho.p2 and r.rho.p3 == s.rho.p3
        assert math.isclose(abs(r.rho.rho21), abs(s.rho.rho21), rel_tol=1e-12,
                            abs_tol=1e-15)
        assert r.rho.rho32 == s.rho.rho32
        # the product amplitude* x rho21 is gauge invariant
        assert cmath.isclose(
            r.amplitude.conjugate() * r.rho.rho21,
            s.amplitude.conjugate() * s.rho.rho21,
            rel_tol=1e-12,
            abs_tol=1e-18,
        )

    def test_gauge_rotation_composes(self):
        s = SpaserState(rho=sample_rho(), amplitude=0.7 - 0.2j)
        once = s.with_phase(0.3).with_phase(0.4)
        direct = s.with_phase(0.7)
        assert cmath.isclose(once.amplitude, direct.amplitude, rel_tol=1e-12)
        assert cmath.isclose(once.rho.rho21, direct.rho.rho21, rel_tol=1e-12)


def test_observables_dictionary():
    s = SpaserState(rho=sample_rho(), amplitude=2.0 + 0j)
    obs = observables(s)
    assert obs["N_n"] == 4.0
    assert obs["n21"] == pytest.approx(-0.2)
    assert obs["n32"] == pytest.approx(-0.1)
    assert obs["excited_minus_ground"] == pytest.approx(0.0)
    assert obs["rho21"] == sample_rho().rho21
