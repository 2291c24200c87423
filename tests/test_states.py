import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bosonic_engine import (
    CovarianceMatrix,
    SqueezedThermalState,
    bose_einstein,
    classicality,
    covariance_of,
    critical_squeezing,
    is_p_representable,
    tau_of_occupancy,
)
from bosonic_engine.dynamics import MomentState
from bosonic_engine.states import SQUARE_ROUNDING, is_physical_nm

# Frozen from direct evaluation of 1/(e^{1/tau} - 1).
N_TAU1 = 0.5819767068693265
N_TAU2 = 1.541494082536798


class TestBoseEinstein:
    def test_high_temperature_limit(self):
        tau = 1e8
        assert bose_einstein(tau) / tau == pytest.approx(1.0, rel=1e-7)

    def test_reference_values(self):
        assert bose_einstein(1.0) == pytest.approx(N_TAU1, abs=1e-12)
        assert bose_einstein(2.0) == pytest.approx(N_TAU2, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive(self, tau):
        with pytest.raises(ValueError):
            bose_einstein(tau)

    @given(st.floats(min_value=0.05, max_value=50.0))
    def test_strictly_increasing(self, tau):
        assert bose_einstein(tau * 1.01) > bose_einstein(tau)

    def test_tau_of_occupancy_inverts(self):
        for tau in (0.3, 1.0, 2.0, 7.5):
            assert tau_of_occupancy(bose_einstein(tau)) == pytest.approx(tau, rel=1e-12)
        with pytest.raises(ValueError):
            tau_of_occupancy(0.0)


class TestCovarianceOf:
    def test_thermal_state_identity_squeeze(self):
        cm = covariance_of(SqueezedThermalState(n_th=0.5819767, r=0.0))
        assert cm.n_cm == pytest.approx(0.5819767, abs=1e-12)
        assert cm.m_cm == 0.0

    def test_squeezed_thermal(self):
        # frozen from (n_th + 1/2) cosh 2r - 1/2 and (n_th + 1/2) sinh 2r
        cm = covariance_of(SqueezedThermalState(n_th=1.5414939, r=0.3))
        assert cm.n_cm == pytest.approx(1.9201200117037578, abs=1e-9)
        assert cm.m_cm == pytest.approx(1.2997244043687832, abs=1e-9)

    def test_squeezed_vacuum(self):
        cm = covariance_of(SqueezedThermalState(n_th=0.0, r=0.5))
        assert cm.n_cm == pytest.approx(math.cosh(1.0) / 2 - 0.5, abs=1e-14)
        assert cm.m_cm == pytest.approx(math.sinh(1.0) / 2, abs=1e-14)

    def test_invalid_state_fields(self):
        with pytest.raises(ValueError):
            SqueezedThermalState(n_th=-0.1, r=0.0)
        with pytest.raises(ValueError):
            SqueezedThermalState(n_th=0.1, r=-0.2)
        with pytest.raises(TypeError):  # the state has no squeezing phase field
            SqueezedThermalState(n_th=0.1, r=0.2, theta=0.0)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_physicality_preserved(self, n_th, r):
        cm = covariance_of(SqueezedThermalState(n_th=n_th, r=r))
        gap = (cm.n_cm + 0.5) ** 2 - cm.m_cm**2 - 0.25
        assert gap >= -1e-9
        if n_th == 0.0:
            assert gap == pytest.approx(0.0, abs=1e-9)


class TestPRepresentability:
    def test_thermal_always_classical(self):
        for n in (0.0, 0.3, 4.2):
            assert is_p_representable(CovarianceMatrix(n_cm=n, m_cm=0.0))

    def test_examples(self):
        assert is_p_representable(CovarianceMatrix(1.920121, 1.299727))
        # squeezed vacuum (r = 0.5) sits on the physicality boundary, so use
        # full-precision CM entries
        squeezed_vacuum = CovarianceMatrix(math.cosh(1.0) / 2 - 0.5, math.sinh(1.0) / 2)
        assert not is_p_representable(squeezed_vacuum)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError):
            is_p_representable(CovarianceMatrix(n_cm=0.0, m_cm=1.0))

    def test_eigenvalue_equivalence_on_random_cms(self):
        # independent oracle: smallest eigenvalue of V - I/2
        rng = np.random.default_rng(20260823)
        n = rng.uniform(0.0, 5.0, size=10_000)
        u = rng.uniform(-1.0, 1.0, size=10_000)
        m = u * np.sqrt((n + 0.5) ** 2 - 0.25)
        for ni, mi in zip(n, m):
            cm = CovarianceMatrix(float(ni), float(mi))
            v = cm.matrix() - 0.5 * np.eye(2)
            eig_classical = np.linalg.eigvalsh(v).min() >= -1e-10
            assert is_p_representable(cm) == eig_classical


class TestClassicality:
    def test_thermal(self):
        for n in (0.0, 0.7, 3.0):
            assert classicality(SqueezedThermalState(n, 0.0)) == pytest.approx(n, abs=1e-14)

    def test_reference_value(self):
        # frozen from (n(2) + 1/2) e^{-0.6} - 1/2
        state = SqueezedThermalState(bose_einstein(2.0), 0.3)
        assert classicality(state) == pytest.approx(0.6203957075132935, abs=1e-12)

    def test_zero_at_critical_squeezing(self):
        rc = critical_squeezing(1.0)
        assert abs(classicality(SqueezedThermalState(bose_einstein(1.0), rc))) <= 1e-12

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.5),
    )
    def test_matches_cm_difference(self, n_th, r):
        state = SqueezedThermalState(n_th, r)
        cm = covariance_of(state)
        assert classicality(state) == pytest.approx(cm.n_cm - abs(cm.m_cm), abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.5),
    )
    def test_monotonicity(self, n_th, r):
        c = classicality(SqueezedThermalState(n_th, r))
        assert classicality(SqueezedThermalState(n_th, r + 0.01)) < c
        assert classicality(SqueezedThermalState(n_th + 0.01, r)) > c


class TestCriticalSqueezing:
    def test_vacuum_limit(self):
        assert critical_squeezing(0.01) < 1e-40

    def test_reference_values(self):
        # frozen from (1/2) ln(2 n_th + 1)
        assert critical_squeezing(1.0) == pytest.approx(0.3859684164526524, abs=1e-10)
        assert critical_squeezing(2.0) == pytest.approx(0.7034145568736476, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            critical_squeezing(-2.0)

    def test_zero_crossing_over_grid(self):
        for tau in np.linspace(0.1, 10.0, 34):
            n_th = bose_einstein(float(tau))
            rc = critical_squeezing(float(tau))
            assert abs(classicality(SqueezedThermalState(n_th, rc))) <= 1e-12

    def test_monotone_in_temperature(self):
        taus = np.linspace(0.1, 10.0, 60)
        rcs = [critical_squeezing(float(t)) for t in taus]
        assert all(b > a for a, b in zip(rcs, rcs[1:]))


EPS = np.finfo(float).eps


@pytest.mark.parametrize("tau", [1e-3, 1 / 709, 0.1, 1.0, 1e3])
def test_bose_einstein_against_mpmath(tau):
    with mp.workprec(200):
        exact = float(1 / mp.expm1(1 / mp.mpf(tau)))
    # Rounding 1/tau moves n by about (1/tau) eps/2 relative; e^{-1/tau}
    # underflows to 0 at tau = 1e-3.
    assert bose_einstein(tau) == pytest.approx(exact, rel=4 * EPS * (1 + 1 / tau), abs=5e-324)


class TestPhysicalityPredicate:
    @pytest.mark.parametrize("n, m", [(-2e12, 0.0), (-2e12, 1e6), (float("nan"), 0.0),
                                      (0.1, float("nan")), (0.0, 1.0)])
    def test_rejects(self, n, m):
        assert not is_physical_nm(n, m, 1e-9)
        assert not CovarianceMatrix(n, m).is_physical()
        assert not MomentState(n, m).is_physical()

    @pytest.mark.parametrize("r", [10.0, 20.0, 100.0])
    def test_accepts_large_occupancies_within_rounding(self, r):
        # pure squeezed states: (n + 1/2)^2 - m^2 is exactly 1/4, but in float64
        # it rounds to a multiple of ulp((n + 1/2)^2), 0 or below
        cm = covariance_of(SqueezedThermalState(0.0, r))
        w = np.linspace(0.0, 1.0, 101)  # mixtures with the vacuum stay physical
        assert is_physical_nm(w * cm.n_cm, w * cm.m_cm, 1e-9).all()
        assert CovarianceMatrix(cm.n_cm, cm.m_cm).is_physical()

    @pytest.mark.parametrize("n", [1e8, 5.5e15, 1e100])
    def test_rejects_violation_beyond_rounding(self, n):
        # m^2 exceeds (n + 1/2)^2 by 16 eps (n + 1/2)^2, twice the rounding allowance
        m = (n + 0.5) * (1.0 + 8.0 * EPS)
        assert 2.0 * SQUARE_ROUNDING == 16.0 * EPS
        assert not is_physical_nm(n, m, 1e-9)
        assert not MomentState(n, m).is_physical()

    def test_elementwise_with_slack(self):
        cm = covariance_of(SqueezedThermalState(0.0, 0.7))
        n = np.array([cm.n_cm, -1e-10, -1e-8, 1.0, 1.0])
        m = np.array([cm.m_cm, 0.0, 0.0, 2.0, 0.5])
        assert is_physical_nm(n, m, 1e-9).tolist() == [True, True, False, False, True]


class TestPhysicalityPredicateScaling:
    def test_same_verdict_as_the_unscaled_form(self):
        # the 2^-k scaling is exact, so where (n + 1/2)^2 stays finite the
        # verdict is that of (n + 1/2)^2 - m^2 >= 1/4 - slack - 8 eps (n + 1/2)^2
        rng = np.random.default_rng(5)
        n = 10.0 ** rng.uniform(-3, 100, 20_000)
        m = (n + 0.5) * (1.0 + rng.uniform(-40, 40, n.size) * EPS)
        square = (n + 0.5) ** 2
        unscaled = square - m**2 >= 0.25 - 1e-9 - SQUARE_ROUNDING * square
        assert 0 < unscaled.sum() < n.size
        assert (is_physical_nm(n, m, 1e-9) == unscaled).all()

    @pytest.mark.parametrize("r", [177.0, 200.0, 300.0, 354.0])
    def test_no_overflow_at_large_squeezing(self, r):
        # (n + 1/2)^2 overflows above r = 177, though n and m are finite
        cm = covariance_of(SqueezedThermalState(0.0, r))
        assert math.isfinite(cm.n_cm) and math.isfinite(cm.m_cm)
        w = np.linspace(0.0, 1.0, 11)
        assert is_physical_nm(w * cm.n_cm, w * cm.m_cm, 1e-9).all()
        assert not is_physical_nm(cm.n_cm, cm.m_cm * (1.0 + 8 * EPS), 1e-9)
        assert not is_physical_nm(np.inf, np.inf, 1e-9)
