"""Moment dynamics of the mode coupled to a (squeezed) thermal reservoir.

The Lindblad master equation for a squeezed thermal bath closes on the
second moments: with n = <a^dag a> and m = -<a^2> (real for theta = 0),

    dn/dt = gamma * (n_env - n),      dm/dt = gamma * (m_env - m),

where (n_env, m_env) are the covariance parameters of the bath's squeezed
thermal state, n_env = (n_th + 1/2) cosh(2 r_R) - 1/2 and
m_env = (n_th + 1/2) sinh(2 r_R).  Free-rotation (Hamiltonian) terms drop
out in this frame and theta = 0 keeps m real.  Both moments relax
exponentially at rate gamma toward the bath values; the stationary state
is the squeezed thermal (generalized Gibbs) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicalityError
from .states import (SqueezedThermalState, Temperature, bose_einstein, classicality_nm,
                     covariance_of, is_physical_nm)

__all__ = [
    "BathSpec",
    "MomentState",
    "MomentTrajectory",
    "moment_derivatives",
    "evolve",
    "steady_state",
    "write_trajectory_csv",
]

PHYSICALITY_SLACK = 1e-9

TRAJECTORY_COLUMNS = ("time", "n", "m", "classicality", "energy")

# Rows formatted per write.  Formatting a long CSV in one piece holds all
# of its text in memory at once and raises the peak memory of a run.
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class BathSpec:
    """Reservoir parameters: temperature, squeezing and relaxation rate."""

    tau: float
    r_bath: float
    gamma: float

    def __post_init__(self):
        Temperature(self.tau)  # validates tau > 0
        if not (self.r_bath >= 0.0):
            raise ValueError(f"bath squeezing must be >= 0, got {self.r_bath}")
        if not (self.gamma > 0.0):
            raise ValueError(f"relaxation rate must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class MomentState:
    """Instantaneous second moments (n, m) of the mode."""

    n: float
    m: float

    def is_physical(self, slack: float = PHYSICALITY_SLACK) -> bool:
        return bool(is_physical_nm(self.n, self.m, slack))


@dataclass(frozen=True)
class MomentTrajectory:
    """Time series of the moments; times strictly increasing."""

    times: np.ndarray
    n: np.ndarray
    m: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, i: int) -> MomentState:
        return MomentState(n=float(self.n[i]), m=float(self.m[i]))

    def terminal(self) -> MomentState:
        return self.state_at(len(self) - 1)


def steady_state(bath: BathSpec) -> SqueezedThermalState:
    """Stationary squeezed thermal state of the bath-contact dynamics."""
    return SqueezedThermalState(n_th=bose_einstein(bath.tau), r=bath.r_bath)


def _fixed_point(bath: BathSpec) -> tuple[float, float]:
    cm = covariance_of(steady_state(bath))
    return cm.n_cm, cm.m_cm


def moment_derivatives(s: MomentState, bath: BathSpec) -> tuple[float, float]:
    """Right-hand side of the closed moment ODEs; zero at the bath CM."""
    n_env, m_env = _fixed_point(bath)
    return bath.gamma * (n_env - s.n), bath.gamma * (m_env - s.m)


def evolve(
    s0: MomentState,
    bath: BathSpec,
    t_final: float,
    dt_max: float,
) -> MomentTrajectory:
    """Classical fixed-step RK4 integration of the moment ODEs.

    The step is dt = t_final/ceil(t_final/dt_max) <= dt_max.  A step
    outside RK4's stability region, |R(-gamma dt)| > 1 with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (gamma dt above about 2.785),
    raises ValueError.  Every point is checked against the symplectic
    uncertainty relation and n >= 0; a violation beyond 1e-9, or a NaN
    moment, raises :class:`PhysicalityError` naming the first bad time.
    t_final = 0 returns just the initial state.
    """
    if t_final < 0.0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if not (dt_max > 0.0):
        raise ValueError(f"dt_max must be > 0, got {dt_max}")
    if not s0.is_physical():
        raise PhysicalityError(f"initial state {s0} is unphysical")

    if t_final == 0.0:
        return MomentTrajectory(
            times=np.array([0.0]), n=np.array([s0.n]), m=np.array([s0.m])
        )

    steps = max(1, math.ceil(t_final / dt_max))
    dt = t_final / steps
    gamma = bath.gamma
    z = -gamma * dt
    growth = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    if not abs(growth) <= 1.0:
        raise ValueError(f"RK4 step gamma*dt = {-z:.6g} is unstable (|R(-gamma*dt)| = "
                         f"{abs(growth):.6g} > 1); use dt_max <= {2.785 / gamma:.6g}")
    n_env, m_env = _fixed_point(bath)

    def rhs(y: np.ndarray) -> np.ndarray:
        return gamma * (np.array([n_env, m_env]) - y)

    times = np.linspace(0.0, t_final, steps + 1)
    out = np.empty((steps + 1, 2))
    y = np.array([s0.n, s0.m])
    out[0] = y
    for k in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y

    bad = ~is_physical_nm(out[:, 0], out[:, 1], PHYSICALITY_SLACK)
    if bad.any():
        k = int(np.argmax(bad))
        raise PhysicalityError(
            f"trajectory left the physical region at t={times[k]:.6g} "
            f"(n={out[k, 0]:.6g}, m={out[k, 1]:.6g})"
        )
    return MomentTrajectory(times=times, n=out[:, 0], m=out[:, 1])


def trajectory_columns(trajectory: MomentTrajectory) -> list[np.ndarray]:
    """The CSV columns of a trajectory, in the order of TRAJECTORY_COLUMNS."""
    n, m = trajectory.n, trajectory.m
    return [trajectory.times, n, m, classicality_nm(n, m), n + 0.5]


def write_csv(fh, header: tuple[str, ...], columns: list[np.ndarray]) -> None:
    """Write a header and one '\\n'-terminated line per row to the text file fh.

    Numbers are written as '%.15g' (the text of format(x, '.15g')), strings
    as they are; one row template formats CSV_BLOCK_ROWS rows at a time.
    """
    row = ",".join("%s" if col.dtype.kind == "U" else "%.15g" for col in columns) + "\n"
    fh.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = zip(*(col[start:start + CSV_BLOCK_ROWS].tolist() for col in columns))
        fh.write("".join(map(row.__mod__, block)))


def write_trajectory_csv(trajectory: MomentTrajectory, path) -> None:
    """Write a trajectory as CSV: time, n, m, classicality, energy."""
    with open(path, "w", newline="") as fh:
        write_csv(fh, TRAJECTORY_COLUMNS, trajectory_columns(trajectory))
