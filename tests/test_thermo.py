import math

import mpmath as mp
import numpy as np
import pytest

from bosonic_engine import (
    SqueezedThermalState,
    ThermoPath,
    internal_energy,
    piecewise_linear_path,
    work_heat_along,
)
from bosonic_engine.states import bose_einstein

N1 = bose_einstein(1.0)
N2 = bose_einstein(2.0)
EPS = np.finfo(float).eps


def squeeze_work_oracle(n_th, r0, r1):
    """Analytic antiderivative of 2 (n + 1/2) sinh(2r) dr at fixed n."""
    return (n_th + 0.5) * (math.cosh(2 * r1) - math.cosh(2 * r0))


def heating_heat_oracle(r, n0, n1):
    """Analytic antiderivative of cosh(2r) dn at fixed r."""
    return math.cosh(2 * r) * (n1 - n0)


def mp_work_heat(vertices):
    """Both integrands integrated along each segment by 50-digit mpmath quadrature."""
    with mp.workdps(50):
        work = heat = mp.mpf(0)
        for (r0, n0), (r1, n1) in zip(vertices, vertices[1:]):
            r0, n0, r1, n1 = map(mp.mpf, (r0, n0, r1, n1))
            dr, dn = r1 - r0, n1 - n0
            work += mp.quad(lambda s: 2 * (n0 + s * dn + mp.mpf(0.5))
                            * mp.sinh(2 * (r0 + s * dr)) * dr, [0, 1])
            heat += mp.quad(lambda s: mp.cosh(2 * (r0 + s * dr)) * dn, [0, 1])
        return work, heat


def random_polylines(count, seed):
    rng = np.random.default_rng(seed)
    return [[(rng.uniform(0.0, 3.0), rng.uniform(0.0, 5.0)) for _ in range(rng.integers(2, 7))]
            for _ in range(count)]


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
        path = piecewise_linear_path([(0.0, N1), (0.5, N1)])
        delta = work_heat_along(path)
        assert delta.work_on == pytest.approx(squeeze_work_oracle(N1, 0.0, 0.5), rel=1e-10)
        assert delta.work_on == pytest.approx(2 * (N1 + 0.5) * math.sinh(0.5) ** 2, rel=1e-10)
        assert delta.heat_in == pytest.approx(0.0, abs=1e-12)

    def test_pure_heating_path(self):
        path = piecewise_linear_path([(0.0, N1), (0.0, N2)])
        delta = work_heat_along(path)
        assert delta.work_on == pytest.approx(0.0, abs=1e-12)
        assert delta.heat_in == pytest.approx(heating_heat_oracle(0.0, N1, N2), rel=1e-10)

    def test_constant_path(self):
        delta = work_heat_along(piecewise_linear_path([(0.2, 0.4), (0.2, 0.4)]))
        assert delta.work_on == pytest.approx(0.0, abs=1e-12)
        assert delta.heat_in == pytest.approx(0.0, abs=1e-12)
        assert delta.dE == pytest.approx(0.0, abs=1e-12)

    def test_first_law_on_random_polylines(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            nverts = rng.integers(2, 6)
            verts = [(rng.uniform(0.0, 1.2), rng.uniform(0.0, 3.0)) for _ in range(nverts)]
            path = piecewise_linear_path(verts)
            delta = work_heat_along(path)
            start, end = path.vertices[0], path.vertices[-1]
            d_e = internal_energy(end) - internal_energy(start)
            scale = max(abs(delta.work_on), abs(delta.heat_in), 1.0)
            assert abs(delta.work_on + delta.heat_in - d_e) <= 2 * EPS * scale
            assert delta.dE == d_e

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


# The acceptance pair, a closed loop, 1e-9- and 1e-4-wide segments, pure-heat,
# pure-squeeze and mixed segments at r >= 10, and seeded random polylines.
ORACLE_PATHS = [
    [(0.0, N1), (0.8, N2)],
    [(0.0, N1), (0.8, N1), (0.8, N2)],
    [(0.0, N1), (0.8, N1), (0.8, N2), (0.0, N2), (0.0, N1)],
    [(0.7, 1.3), (0.7 + 1e-9, 1.3 + 2e-9)],
    [(0.5, 0.2), (0.5001, 3.0)],
    [(12.5, 0.2), (12.5, 3.0)],
    [(10.0, 0.7), (12.5, 0.7)],
    [(5.0, 0.5), (12.5, 2.5), (11.0, 0.1)],
    [(12.5, 0.0), (0.0, 100.0)],
    *random_polylines(12, seed=12),
]


@pytest.mark.parametrize("vertices", ORACLE_PATHS, ids=range(len(ORACLE_PATHS)))
def test_matches_mpmath_quadrature(vertices):
    path = piecewise_linear_path(vertices)
    delta = work_heat_along(path)
    work, heat = mp_work_heat(vertices)
    tol = 1e-14 * max(1.0, *(internal_energy(s) for s in path.vertices))
    assert abs(delta.work_on - work) <= tol
    assert abs(delta.heat_in - heat) <= tol


class TestPathVertices:
    @pytest.mark.parametrize("vertices,index,name", [
        ([(0.0, 0.5), (0.3, -2.0), (0.6, 0.5)], 1, "n_th"),
        ([(0.0, 0.5), (-0.4, 0.5), (0.6, 0.5)], 1, "r"),
        ([(0.0, 0.5), (0.2, 0.5), (math.nan, 0.5)], 2, "r"),
        ([(math.inf, 0.5), (0.2, 0.5)], 0, "r"),
        ([(0.0, 0.5), (0.2, math.nan)], 1, "n_th"),
        ([(0.0, 0.5), (0.1, 0.5), (0.2, 0.5), (0.3, -math.inf)], 3, "n_th"),
    ])
    def test_invalid_vertex_is_named(self, vertices, index, name):
        with pytest.raises(ValueError, match=rf"^path vertex {index}: .* {name}="):
            piecewise_linear_path(vertices)

    @pytest.mark.parametrize("vertices", [[], [(0.2, 0.5)]])
    def test_needs_two_vertices(self, vertices):
        with pytest.raises(ValueError, match="at least two vertices"):
            piecewise_linear_path(vertices)

    def test_holds_the_vertex_states(self):
        path = piecewise_linear_path([(0, 1), (0.5, 2.0)])
        assert path == ThermoPath((SqueezedThermalState(1.0, 0.0), SqueezedThermalState(2.0, 0.5)))
        assert path.vertices == (SqueezedThermalState(1.0, 0.0), SqueezedThermalState(2.0, 0.5))


class TestOverflow:
    @pytest.mark.parametrize("vertices,segment,r", [
        ([(0.0, 0.5), (400.0, 0.5)], 0, "400"),
        ([(0.0, 0.5), (1.0, 0.5), (400.0, 0.5), (0.0, 0.5)], 1, "400"),
        ([(0.0, 0.5), (300.0, 1e300)], 0, "300"),  # finite cosh, infinite energy
    ])
    def test_names_the_segment_and_its_largest_r(self, vertices, segment, r):
        path = piecewise_linear_path(vertices)
        with pytest.raises(OverflowError, match=rf"^path segment {segment} at r up to {r}: "):
            work_heat_along(path)

    def test_largest_representable_energy_is_finite(self):
        delta = work_heat_along(piecewise_linear_path([(0.0, 0.5), (354.0, 0.5)]))
        assert delta.heat_in == 0.0
        assert delta.work_on == pytest.approx(math.cosh(708.0) - 1.0, rel=1e-15)
