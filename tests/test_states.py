import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bosonic_engine import (
    CovarianceMatrix,
    CycleKind,
    EngineConfig,
    SqueezedThermalState,
    bose_einstein,
    classicality,
    covariance_of,
    critical_squeezing,
    is_p_representable,
    tau_of_occupancy,
)
from bosonic_engine.cycles import _raising, generalized_ledger
from bosonic_engine.dynamics import MomentState
from bosonic_engine.states import SQUARE_ROUNDING, Baths, is_physical_nm, libm

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


def _temperature_message(tau):
    return f"temperature must be positive and finite, got tau={tau}"


class TestBaths:
    """The one check of the bath pair, with EngineConfig's former messages, and
    the occupancies it derives."""

    # An invalid pair and the one line EngineConfig gave for it: each tau in
    # turn (the cold one first), then the order, with the numbers as given.
    INVALID = [
        ((0.0, 1.0), _temperature_message(0.0)),
        ((-1.0, 1.0), _temperature_message(-1.0)),
        ((math.nan, 1.0), _temperature_message(math.nan)),
        ((math.inf, 1.0), _temperature_message(math.inf)),
        ((-math.inf, 1.0), _temperature_message(-math.inf)),
        ((1.0, 0.0), _temperature_message(0.0)),
        ((1.0, -2.0), _temperature_message(-2.0)),
        ((1.0, math.nan), _temperature_message(math.nan)),
        ((1.0, math.inf), _temperature_message(math.inf)),
        ((1.0, -math.inf), _temperature_message(-math.inf)),
        ((-1.0, math.nan), _temperature_message(-1.0)),
        ((math.nan, 0.0), _temperature_message(math.nan)),
        ((math.inf, -math.inf), _temperature_message(math.inf)),
        ((2.0, 1.0), "tau_hot (1.0) must be >= tau_cold (2.0)"),
        ((2, 1), "tau_hot (1) must be >= tau_cold (2)"),
        ((1e-3, 9.999999999999998e-4),
         "tau_hot (0.0009999999999999998) must be >= tau_cold (0.001)"),
    ]

    @pytest.mark.parametrize("taus, message", INVALID)
    def test_invalid_pair_gives_one_line(self, taus, message):
        # EngineConfig checks the pair before r_work
        for build in (lambda: Baths(*taus), lambda: EngineConfig(*taus, -0.5)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_occupancies_are_bose_einstein_bit_for_bit(self):
        edge = 1 / 709.78                     # e^{1/tau} overflows just below it
        taus = [1e-3, math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0), 1.0, 1e3]
        rng = np.random.default_rng(21)
        taus += np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 200)).tolist()
        for tau in taus:
            assert Baths(tau, 1e3).n_cold.hex() == bose_einstein(tau).hex()
            assert Baths(1e-3, tau).n_hot.hex() == bose_einstein(tau).hex()

    def test_shift_and_carnot(self):
        baths = Baths(1.0, 2.0)
        assert baths.shift == generalized_ledger(baths, [0.0]).r[2, 0]
        assert baths.shift == pytest.approx(0.5 * math.log((N_TAU2 + 0.5) / (N_TAU1 + 0.5)))
        assert baths.carnot == 0.5
        assert Baths(1.5, 1.5).shift == 0.0 and Baths(1.5, 1.5).carnot == 0.0

    def test_engine_config_keeps_its_fields(self):
        cfg = EngineConfig(1.0, 2.0, 0.5, CycleKind.GENERALIZED)
        assert cfg == EngineConfig(tau_cold=1.0, tau_hot=2.0, r_work=0.5,
                                   kind=CycleKind.GENERALIZED)
        assert cfg != EngineConfig(1.0, 2.0, 0.5)
        assert hash(cfg) == hash((1.0, 2.0, 0.5, CycleKind.GENERALIZED))
        assert repr(cfg) == ("EngineConfig(tau_cold=1.0, tau_hot=2.0, r_work=0.5, "
                             "kind=<CycleKind.GENERALIZED: 'generalized'>)")
        assert repr(EngineConfig(1, 2, 0)) == ("EngineConfig(tau_cold=1, tau_hot=2, r_work=0, "
                                               "kind=<CycleKind.OTTO: 'otto'>)")
        assert cfg.baths == Baths(1.0, 2.0)

    def test_generalized_ledger_rejects_a_reversed_pair(self):
        with pytest.raises(ValueError, match=r"^tau_hot \(1\.0\) must be >= tau_cold \(2\.0\)$"):
            generalized_ledger(Baths(2.0, 1.0), [0.5])


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


class TestLibm:
    """libm(f, x) is math's f, bit for bit, so no written digit depends on
    numpy's CPU dispatch.  Where numpy vectorizes reversed views, these
    tests fail and name the function."""

    FUNCTIONS = ("exp", "expm1", "cosh", "sinh")
    # 20001 arguments in [-10, 10]
    PROBE = np.linspace(-10.0, 10.0, 20001)
    # +-0, NaN, subnormal arguments, and (for exp and expm1) results that underflow
    EDGES = np.array([0.0, -0.0, math.nan, 5e-324, -1e-310])
    UNDERFLOWING = np.array([-740.0, -746.0, -800.0])

    @staticmethod
    def assert_bits_of_math(name, x):
        got = libm(getattr(np, name), x)
        want = np.array([getattr(math, name)(v) for v in x.tolist()])
        differ = np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ == 0, f"{differ} of {x.size} arguments differ from math.{name}"

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_probe(self, name):
        self.assert_bits_of_math(name, self.PROBE)

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_lengths_strides_and_edges(self, name):
        for x in (self.PROBE[:0], self.PROBE[:1], self.PROBE[5:7], self.PROBE[::7],
                  self.PROBE[::-3], self.EDGES):
            self.assert_bits_of_math(name, x)
        if name in ("exp", "expm1"):
            self.assert_bits_of_math(name, self.UNDERFLOWING)

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_overflow_names_the_quantity(self, name):
        x = np.array([1.0, 800.0])
        with pytest.raises(FloatingPointError, match=f"test quantity at r up to 800: .*{name}"):
            with _raising("test quantity", "r", x):
                libm(getattr(np, name), x)
