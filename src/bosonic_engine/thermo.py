"""Energy bookkeeping for the single mode: internal energy, the work/heat
split, and its exact sums along polylines in the (r, n_th) plane.

The mean energy of a squeezed thermal state is E = (n_th + 1/2) cosh 2r, so

    dE = 2 (n_th + 1/2) sinh(2r) dr  +  cosh(2r) dn_th

with the first term identified as work and the second as heat.  The ledger
stores work done ON the system; cycle-level "extracted work" is its
negation, applied once at reporting time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .states import SqueezedThermalState


@dataclass(frozen=True)
class ThermoPath:
    """Polyline in the (r, n_th) plane through at least two vertex states.

    Build one with :func:`piecewise_linear_path`, which names a vertex
    whose r or n_th is negative or not finite.
    """

    vertices: tuple[SqueezedThermalState, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least two vertices")


@dataclass(frozen=True)
class EnergyDelta:
    """Work/heat split along a path; dE = work_on + heat_in (first law)."""

    work_on: float
    heat_in: float
    dE: float


def internal_energy(state: SqueezedThermalState) -> float:
    """Mean energy (n_th + 1/2) cosh 2r in units of hbar*omega."""
    return (state.n_th + 0.5) * math.cosh(2.0 * state.r)


def work_heat_along(path: ThermoPath) -> EnergyDelta:
    """Work and heat along a polyline, summed from exact segment integrals.

    heat_in = int cosh(2r) dn, which on the segment (r0, n0) -> (r1, n1) is
    (n1 - n0) cosh(r0 + r1) sinh(r1 - r0) / (r1 - r0).  work_on =
    int 2 (n + 1/2) sinh(2r) dr is, by parts, dE - heat_in, so the first
    law holds by construction.  work_on > 0 means energy injected by the
    external agent.  A segment whose energy or heat overflows a double
    raises OverflowError naming the segment and its largest r.
    """
    start = path.vertices[0]
    heat_in = 0.0
    for k, (a, b) in enumerate(zip(path.vertices, path.vertices[1:])):
        dr = b.r - a.r
        try:
            sinhc = math.sinh(dr) / dr if dr else 1.0
            heat_in += (b.n_th - a.n_th) * math.cosh(a.r + b.r) * sinhc
            d_e = internal_energy(b) - internal_energy(start)
            work_on = d_e - heat_in
        except OverflowError:  # cosh or sinh beyond the float range
            work_on = math.inf
        if not math.isfinite(work_on):  # inf or NaN in any term reaches work_on
            raise OverflowError(
                f"path segment {k} at r up to {max(a.r, b.r):.6g}: energy overflows a double")
    return EnergyDelta(work_on=work_on, heat_in=heat_in, dE=d_e)


def piecewise_linear_path(vertices: Sequence[tuple[float, float]]) -> ThermoPath:
    """Polyline through (r, n_th) vertices.

    Raises ValueError naming the first vertex whose r or n_th is negative
    or not finite, and for fewer than two vertices.
    """
    states = []
    for k, (r, n) in enumerate(vertices):
        try:
            states.append(SqueezedThermalState(n_th=float(n), r=float(r)))
        except ValueError as exc:
            raise ValueError(f"path vertex {k}: {exc}") from None
    return ThermoPath(tuple(states))
