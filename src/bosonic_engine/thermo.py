"""Energy bookkeeping for the single mode: internal energy, the work/heat
split, and path integrals of both along arbitrary (r, n_th) paths.

The mean energy of a squeezed thermal state is E = (n_th + 1/2) cosh 2r, so

    dE = 2 (n_th + 1/2) sinh(2r) dr  +  cosh(2r) dn_th

with the first term identified as work and the second as heat.  The ledger
stores work done ON the system; cycle-level "extracted work" is its
negation, applied once at reporting time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import QuadratureError
from .states import SqueezedThermalState

DEFAULT_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ThermoPath:
    """Piecewise-smooth path s in [0, 1] -> (r(s), n_th(s)).

    ``dr_ds`` / ``dn_ds`` are the exact derivatives of ``r_of_s`` /
    ``n_of_s`` and are required.  ``breakpoints`` lists interior parameter
    values where the path is not smooth, so the quadrature can split there.
    """

    r_of_s: Callable[[float], float]
    n_of_s: Callable[[float], float]
    dr_ds: Callable[[float], float]
    dn_ds: Callable[[float], float]
    breakpoints: tuple[float, ...] = ()

    def endpoint_states(self) -> tuple[SqueezedThermalState, SqueezedThermalState]:
        return (
            SqueezedThermalState(n_th=self.n_of_s(0.0), r=self.r_of_s(0.0)),
            SqueezedThermalState(n_th=self.n_of_s(1.0), r=self.r_of_s(1.0)),
        )


@dataclass(frozen=True)
class EnergyDelta:
    """Work/heat split along a path; dE = work_on + heat_in (first law)."""

    work_on: float
    heat_in: float
    dE: float


def internal_energy(state: SqueezedThermalState) -> float:
    """Mean energy (n_th + 1/2) cosh 2r in units of hbar*omega."""
    return (state.n_th + 0.5) * math.cosh(2.0 * state.r)


def _quad(f: Callable[[float], float], quad_tol: float, points: Sequence[float]) -> float:
    # Imported here, not at module level: scipy.integrate adds about 0.6 s
    # and 50 MiB to the package's import, and only path quadrature uses it.
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                f,
                0.0,
                1.0,
                epsabs=1e-14,
                epsrel=quad_tol,
                limit=200,
                points=list(points) or None,
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"path quadrature did not converge: {exc}") from exc
    if abserr > 10.0 * max(quad_tol * abs(value), 1e-12):
        raise QuadratureError(f"path quadrature error estimate {abserr:.3e} exceeds tolerance")
    return value


def work_heat_along(path: ThermoPath, quad_tol: float = DEFAULT_QUAD_TOL) -> EnergyDelta:
    """Integrate the work and heat differentials along a path.

    work_on = int 2 (n + 1/2) sinh(2r) dr and heat_in = int cosh(2r) dn,
    both by adaptive quadrature at relative tolerance ``quad_tol``.
    work_on > 0 means energy injected by the external agent.  The result
    is cross-checked against the endpoint energy difference (first law);
    a mismatch raises :class:`QuadratureError`.
    """
    if not (0.0 < quad_tol <= 1e-3):
        raise ValueError(f"quad_tol must be in (0, 1e-3], got {quad_tol}")

    def work_integrand(s: float) -> float:
        return 2.0 * (path.n_of_s(s) + 0.5) * math.sinh(2.0 * path.r_of_s(s)) * path.dr_ds(s)

    def heat_integrand(s: float) -> float:
        return math.cosh(2.0 * path.r_of_s(s)) * path.dn_ds(s)

    work_on = _quad(work_integrand, quad_tol, path.breakpoints)
    heat_in = _quad(heat_integrand, quad_tol, path.breakpoints)

    start, end = path.endpoint_states()
    e_start, e_end = internal_energy(start), internal_energy(end)
    d_e = e_end - e_start
    budget = 10.0 * quad_tol * max(abs(e_start), abs(e_end), 1.0)
    mismatch = abs(d_e - (work_on + heat_in))
    if mismatch > budget:
        raise QuadratureError(f"first-law mismatch {mismatch:.3e} exceeds budget {budget:.3e}")
    return EnergyDelta(work_on=work_on, heat_in=heat_in, dE=d_e)


def linear_path(start: SqueezedThermalState, end: SqueezedThermalState) -> ThermoPath:
    """Straight segment in the (r, n_th) plane with exact derivatives."""
    return piecewise_linear_path([(start.r, start.n_th), (end.r, end.n_th)])


def piecewise_linear_path(vertices: Sequence[tuple[float, float]]) -> ThermoPath:
    """Polyline through (r, n_th) vertices, uniformly parametrized in s."""
    if len(vertices) < 2:
        raise ValueError("a path needs at least two vertices")
    verts = [(float(r), float(n)) for r, n in vertices]
    nseg = len(verts) - 1

    def locate(s: float) -> tuple[int, float]:
        k = min(int(s * nseg), nseg - 1)
        return k, s * nseg - k

    def r_of_s(s: float) -> float:
        k, u = locate(s)
        return verts[k][0] + u * (verts[k + 1][0] - verts[k][0])

    def n_of_s(s: float) -> float:
        k, u = locate(s)
        return verts[k][1] + u * (verts[k + 1][1] - verts[k][1])

    def dr_ds(s: float) -> float:
        k, _ = locate(s)
        return nseg * (verts[k + 1][0] - verts[k][0])

    def dn_ds(s: float) -> float:
        k, _ = locate(s)
        return nseg * (verts[k + 1][1] - verts[k][1])

    breakpoints = tuple(k / nseg for k in range(1, nseg))
    return ThermoPath(r_of_s, n_of_s, dr_ds, dn_ds, breakpoints)
