import math

import numpy as np
import pytest

from bosonic_engine import (
    BathSpec,
    MomentState,
    PhysicalityError,
    SqueezedThermalState,
    bose_einstein,
    covariance_of,
    evolve,
    moment_derivatives,
    steady_state,
    write_trajectory_csv,
)

N1 = bose_einstein(1.0)
N2 = bose_einstein(2.0)
BATH = BathSpec(tau=2.0, r_bath=0.3, gamma=1.0)

# Frozen covariance parameters of the tau=2, r=0.3 squeezed thermal state.
FP_N = 1.9201202280947829
FP_M = 1.2997245205814896


def analytic_moments(s0: MomentState, bath: BathSpec, t: float) -> tuple[float, float]:
    """Exact solution of the linear relaxation ODEs (independent oracle)."""
    cm = covariance_of(steady_state(bath))
    decay = math.exp(-bath.gamma * t)
    return (
        cm.n_cm + (s0.n - cm.n_cm) * decay,
        cm.m_cm + (s0.m - cm.m_cm) * decay,
    )


class TestMomentDerivatives:
    def test_fixed_point(self):
        dn, dm = moment_derivatives(MomentState(FP_N, FP_M), BATH)
        assert dn == pytest.approx(0.0, abs=1e-12)
        assert dm == pytest.approx(0.0, abs=1e-12)

    def test_thermal_bath_unit_displacement(self):
        bath = BathSpec(tau=2.0, r_bath=0.0, gamma=0.7)
        dn, dm = moment_derivatives(MomentState(N2 + 1.0, 0.0), bath)
        assert dn == pytest.approx(-0.7, abs=1e-12)
        assert dm == 0.0

    def test_relaxation_toward_bath_cm(self):
        dn, dm = moment_derivatives(MomentState(0.0, 0.0), BATH)
        assert dn == pytest.approx(FP_N, abs=1e-9)
        assert dm == pytest.approx(FP_M, abs=1e-9)

    def test_fixed_point_matches_steady_state_cm_random_baths(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            bath = BathSpec(
                tau=float(rng.uniform(0.1, 5.0)),
                r_bath=float(rng.uniform(0.0, 1.5)),
                gamma=float(rng.uniform(0.1, 3.0)),
            )
            cm = covariance_of(steady_state(bath))
            dn, dm = moment_derivatives(MomentState(cm.n_cm, cm.m_cm), bath)
            assert abs(dn) <= 1e-12 and abs(dm) <= 1e-12


class TestSteadyState:
    def test_thermal_bath(self):
        state = steady_state(BathSpec(tau=2.0, r_bath=0.0, gamma=1.0))
        assert state == SqueezedThermalState(n_th=N2, r=0.0)

    def test_squeezed_bath_cm(self):
        cm = covariance_of(steady_state(BATH))
        assert cm.n_cm == pytest.approx(FP_N, abs=1e-12)
        assert cm.m_cm == pytest.approx(FP_M, abs=1e-12)

    def test_generalized_gibbs_parameters(self):
        state = steady_state(BATH)
        beta_s = math.cosh(2 * state.r) / 2.0  # beta_0 = 1/tau
        mu = math.tanh(2 * state.r)
        assert beta_s == pytest.approx(0.5 * math.cosh(0.6), abs=1e-12)
        assert mu == pytest.approx(0.5370495669980353, abs=1e-12)


class TestEvolve:
    def test_zero_time(self):
        s0 = MomentState(0.2, 0.1)
        traj = evolve(s0, BATH, t_final=0.0, dt_max=1e-3)
        assert len(traj) == 1
        assert traj.terminal() == s0

    def test_stationary_start(self):
        traj = evolve(MomentState(FP_N, FP_M), BATH, t_final=2.0, dt_max=1e-2)
        assert np.allclose(traj.n, FP_N, atol=1e-12)
        assert np.allclose(traj.m, FP_M, atol=1e-12)

    def test_relaxation_to_fixed_point(self):
        traj = evolve(MomentState(N1, 0.0), BATH, t_final=20.0, dt_max=1e-3)
        terminal = traj.terminal()
        assert terminal.n == pytest.approx(FP_N, abs=1e-6)
        assert terminal.m == pytest.approx(FP_M, abs=1e-6)

    def test_matches_analytic_solution(self):
        s0 = MomentState(0.1, 0.05)
        traj = evolve(s0, BATH, t_final=3.0, dt_max=1e-3)
        for i in (len(traj) // 3, len(traj) - 1):
            n_ref, m_ref = analytic_moments(s0, BATH, float(traj.times[i]))
            assert traj.n[i] == pytest.approx(n_ref, abs=1e-10)
            assert traj.m[i] == pytest.approx(m_ref, abs=1e-10)

    def test_exponential_convergence(self):
        s0 = MomentState(N1, 0.0)
        bath = BathSpec(tau=2.0, r_bath=0.3, gamma=0.8)
        traj = evolve(s0, bath, t_final=10.0 / bath.gamma, dt_max=1e-3)
        d0 = math.hypot(s0.n - FP_N, s0.m - FP_M)
        mask = (traj.times >= 1.0 / bath.gamma) & (traj.times <= 10.0 / bath.gamma)
        dist = np.hypot(traj.n - FP_N, traj.m - FP_M)[mask]
        expected = d0 * np.exp(-bath.gamma * traj.times[mask])
        assert np.all(np.abs(dist / expected - 1.0) < 0.01)

    def test_fourth_order_convergence(self):
        s0 = MomentState(0.0, 0.0)

        def terminal_error(dt):
            traj = evolve(s0, BATH, t_final=1.0, dt_max=dt)
            n_ref, m_ref = analytic_moments(s0, BATH, 1.0)
            t = traj.terminal()
            return math.hypot(t.n - n_ref, t.m - m_ref)

        ratio = terminal_error(0.1) / terminal_error(0.05)
        assert 12.0 < ratio < 20.0

    def test_physicality_along_trajectory(self):
        traj = evolve(MomentState(0.0, 0.0), BATH, t_final=10.0, dt_max=1e-2)
        assert np.all((traj.n + 0.5) ** 2 - traj.m**2 >= 0.25 - 1e-9)

    def test_unphysical_start_rejected(self):
        with pytest.raises(PhysicalityError):
            evolve(MomentState(0.0, 1.0), BATH, t_final=1.0, dt_max=1e-2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            evolve(MomentState(0.1, 0.0), BATH, t_final=-1.0, dt_max=1e-2)
        with pytest.raises(ValueError):
            evolve(MomentState(0.1, 0.0), BATH, t_final=1.0, dt_max=0.0)

    def test_classicality_crosses_zero_once(self):
        # thermal start, non-classical steady state: one sign change of n - |m|
        bath = BathSpec(tau=2.0, r_bath=1.2, gamma=1.0)
        assert steady_state(bath).r > 0.7034145568736476  # non-classical target
        traj = evolve(MomentState(N1, 0.0), bath, t_final=15.0, dt_max=1e-2)
        c = traj.n - np.abs(traj.m)
        signs = np.sign(c[c != 0.0])
        crossings = int(np.sum(signs[1:] != signs[:-1]))
        assert crossings == 1


class TestBathSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0, "r_bath": 0.1, "gamma": 1.0},
            {"tau": 1.0, "r_bath": -0.1, "gamma": 1.0},
            {"tau": 1.0, "r_bath": 0.1, "gamma": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            BathSpec(**kwargs)


def test_trajectory_csv_export(tmp_path):
    traj = evolve(MomentState(N1, 0.0), BATH, t_final=0.5, dt_max=0.1)
    out = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "time,n,m,classicality,energy"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(N1, rel=1e-12)
    assert float(first[3]) == pytest.approx(N1, rel=1e-12)  # m = 0 at start
    assert float(first[4]) == pytest.approx(N1 + 0.5, rel=1e-12)


class TestRK4Stability:
    @pytest.mark.parametrize("gamma, t_final, dt_max", [(10.0, 5.0, 1.0), (1e308, 1e308, 1e308)])
    def test_step_outside_stability_region_rejected(self, gamma, t_final, dt_max):
        bath = BathSpec(tau=2.0, r_bath=0.3, gamma=gamma)
        with pytest.raises(ValueError, match="unstable"):
            evolve(MomentState(N1, 0.0), bath, t_final=t_final, dt_max=dt_max)

    def test_large_stable_step_accepted(self):
        # gamma*dt = 2.7 lies just inside |R(-gamma*dt)| <= 1 (edge 2.785)
        bath = BathSpec(tau=2.0, r_bath=0.3, gamma=2.7)
        traj = evolve(MomentState(N1, 0.0), bath, t_final=3.0, dt_max=1.0)
        assert len(traj) == 4
        assert np.all(np.isfinite(traj.n)) and np.all(traj.n >= 0.0)
