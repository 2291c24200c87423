import math

import numpy as np
import pytest

from bosonic_engine import (
    QuadratureError,
    SqueezedThermalState,
    ThermoPath,
    internal_energy,
    linear_path,
    piecewise_linear_path,
    work_heat_along,
)
from bosonic_engine.states import bose_einstein

N1 = bose_einstein(1.0)
N2 = bose_einstein(2.0)


def squeeze_work_oracle(n_th, r0, r1):
    """Analytic antiderivative of 2 (n + 1/2) sinh(2r) dr at fixed n."""
    return (n_th + 0.5) * (math.cosh(2 * r1) - math.cosh(2 * r0))


def heating_heat_oracle(r, n0, n1):
    """Analytic antiderivative of cosh(2r) dn at fixed r."""
    return math.cosh(2 * r) * (n1 - n0)


class TestInternalEnergy:
    def test_thermal(self):
        assert internal_energy(SqueezedThermalState(0.7, 0.0)) == pytest.approx(1.2)

    def test_squeezed(self):
        e = internal_energy(SqueezedThermalState(0.5819767, 0.5))
        assert e == pytest.approx(1.0819767 * math.cosh(1.0), abs=1e-12)

    def test_vacuum(self):
        assert internal_energy(SqueezedThermalState(0.0, 0.0)) == 0.5


class TestWorkHeatAlong:
    def test_pure_squeeze_path(self):
        path = linear_path(SqueezedThermalState(N1, 0.0), SqueezedThermalState(N1, 0.5))
        delta = work_heat_along(path)
        assert delta.work_on == pytest.approx(squeeze_work_oracle(N1, 0.0, 0.5), rel=1e-10)
        assert delta.work_on == pytest.approx(2 * (N1 + 0.5) * math.sinh(0.5) ** 2, rel=1e-10)
        assert delta.heat_in == pytest.approx(0.0, abs=1e-12)

    def test_pure_heating_path(self):
        path = linear_path(SqueezedThermalState(N1, 0.0), SqueezedThermalState(N2, 0.0))
        delta = work_heat_along(path)
        assert delta.work_on == pytest.approx(0.0, abs=1e-12)
        assert delta.heat_in == pytest.approx(heating_heat_oracle(0.0, N1, N2), rel=1e-10)

    def test_constant_path(self):
        state = SqueezedThermalState(0.4, 0.2)
        delta = work_heat_along(linear_path(state, state))
        assert delta.work_on == pytest.approx(0.0, abs=1e-12)
        assert delta.heat_in == pytest.approx(0.0, abs=1e-12)
        assert delta.dE == pytest.approx(0.0, abs=1e-12)

    def test_quad_tol_validation(self):
        path = linear_path(SqueezedThermalState(0.1, 0.0), SqueezedThermalState(0.2, 0.1))
        with pytest.raises(ValueError):
            work_heat_along(path, quad_tol=0.1)
        with pytest.raises(ValueError):
            work_heat_along(path, quad_tol=0.0)

    def test_first_law_on_random_polylines(self):
        rng = np.random.default_rng(7)
        quad_tol = 1e-10
        for _ in range(100):
            nverts = rng.integers(2, 6)
            verts = [(rng.uniform(0.0, 1.2), rng.uniform(0.0, 3.0)) for _ in range(nverts)]
            path = piecewise_linear_path(verts)
            delta = work_heat_along(path, quad_tol=quad_tol)
            start, end = path.endpoint_states()
            d_e = internal_energy(end) - internal_energy(start)
            budget = 10 * quad_tol * max(abs(internal_energy(start)),
                                         abs(internal_energy(end)), 1.0)
            assert abs(delta.work_on + delta.heat_in - d_e) <= budget
            assert delta.dE == pytest.approx(d_e, abs=1e-14)

    def test_path_dependence_square_vs_diagonal(self):
        # same endpoints, different work/heat split; dE agrees
        lo, hi = (0.0, N1), (0.8, N2)
        diagonal = piecewise_linear_path([lo, hi])
        square = piecewise_linear_path([lo, (0.8, N1), hi])
        d1 = work_heat_along(diagonal)
        d2 = work_heat_along(square)
        assert d1.dE == pytest.approx(d2.dE, abs=1e-10)
        assert abs(d1.work_on - d2.work_on) > 1e-3
        assert abs(d1.heat_in - d2.heat_in) > 1e-3

    def test_closed_loop(self):
        loop = piecewise_linear_path(
            [(0.0, N1), (0.8, N1), (0.8, N2), (0.0, N2), (0.0, N1)]
        )
        delta = work_heat_along(loop)
        assert delta.dE == pytest.approx(0.0, abs=1e-12)
        assert delta.work_on == pytest.approx(-delta.heat_in, abs=1e-9)
        assert abs(delta.work_on) > 0.1  # the loop is not degenerate

    def test_differential_consistency(self):
        # central finite differences of E against the work/heat integrands
        h = 1e-5
        for n_th, r in [(0.3, 0.2), (1.5, 0.7), (2.5, 1.1)]:
            de_dr = (
                internal_energy(SqueezedThermalState(n_th, r + h))
                - internal_energy(SqueezedThermalState(n_th, r - h))
            ) / (2 * h)
            assert de_dr == pytest.approx(2 * (n_th + 0.5) * math.sinh(2 * r), abs=1e-6)
            de_dn = (
                internal_energy(SqueezedThermalState(n_th + h, r))
                - internal_energy(SqueezedThermalState(n_th - h, r))
            ) / (2 * h)
            assert de_dn == pytest.approx(math.cosh(2 * r), abs=1e-6)


def test_unresolvable_integrand_raises_quadrature_error():
    # an integrand quadpack cannot resolve at the requested tolerance
    path = ThermoPath(
        r_of_s=lambda s: 0.3 + 0.2 * math.sin(1.0 / (s + 1e-4)),
        n_of_s=lambda s: 0.5,
        dr_ds=lambda s: -0.2 * math.cos(1.0 / (s + 1e-4)) / (s + 1e-4) ** 2,
        dn_ds=lambda s: 0.0,
    )
    with pytest.raises(QuadratureError):
        work_heat_along(path, quad_tol=1e-10)
