"""Moment dynamics of the mode coupled to a (squeezed) thermal reservoir.

The Lindblad master equation for a squeezed thermal bath closes on the
second moments: with n = <a^dag a> and m = -<a^2> (real for theta = 0),

    dn/dt = gamma * (n_env - n),      dm/dt = gamma * (m_env - m),

where (n_env, m_env) are the covariance parameters of the bath's squeezed
thermal state, n_env = (n_th + 1/2) cosh(2 r_R) - 1/2 and
m_env = (n_th + 1/2) sinh(2 r_R).  Free-rotation (Hamiltonian) terms drop
out in this frame and theta = 0 keeps m real.  Both moments relax
exponentially at rate gamma toward the bath values; the stationary state
is the squeezed thermal (generalized Gibbs) state.  :func:`evolve`
integrates them with fixed-step RK4, whose iterates for this linear ODE
are evaluated in closed form over the whole trajectory, at most
MAX_RK4_STEPS steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvformat import write_csv
from .errors import PhysicalityError
from .states import (SqueezedThermalState, bose_einstein, check_temperature, classicality,
                     covariance_of, is_physical_nm)

PHYSICALITY_SLACK = 1e-9

TRAJECTORY_COLUMNS = ("time", "n", "m", "classicality", "energy")

# Largest step count of evolve: one row of five float64 columns per step, about 400 MB.
MAX_RK4_STEPS = 10_000_000


@dataclass(frozen=True)
class BathSpec:
    """Reservoir parameters: temperature, squeezing and relaxation rate."""

    tau: float
    r_bath: float
    gamma: float

    def __post_init__(self):
        check_temperature(self.tau)
        if not (self.r_bath >= 0.0):
            raise ValueError(f"bath squeezing must be >= 0, got {self.r_bath}")
        if not (self.gamma > 0.0):
            raise ValueError(f"relaxation rate must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class MomentState:
    """Instantaneous second moments (n, m) of the mode."""

    n: float
    m: float

    def is_physical(self) -> bool:
        return bool(is_physical_nm(self.n, self.m, PHYSICALITY_SLACK))


@dataclass(frozen=True)
class MomentTrajectory:
    """Time series of the moments and of the classicality n - |m|; times strictly increasing."""

    times: np.ndarray
    n: np.ndarray
    m: np.ndarray
    classicality: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def terminal(self) -> MomentState:
        return MomentState(n=float(self.n[-1]), m=float(self.m[-1]))


def steady_state(bath: BathSpec) -> SqueezedThermalState:
    """Stationary squeezed thermal state of the bath-contact dynamics."""
    return SqueezedThermalState(n_th=bose_einstein(bath.tau), r=bath.r_bath)


def rk4_steps(t_final: float, dt_max: float) -> int:
    """ceil(t_final/dt_max), at least 1; ValueError above MAX_RK4_STEPS."""
    if not t_final / dt_max <= MAX_RK4_STEPS:
        raise ValueError(f"t_final/dt_max = {t_final / dt_max:.6g} exceeds the maximum of "
                         f"{MAX_RK4_STEPS} RK4 steps")
    return max(1, math.ceil(t_final / dt_max))


def evolve(s0: MomentState, bath: BathSpec, t_final: float, dt_max: float) -> MomentTrajectory:
    """Fixed-step RK4 integration of the moment ODEs, evaluated in closed form.

    The step is dt = t_final/ceil(t_final/dt_max) <= dt_max; more than
    MAX_RK4_STEPS steps raise ValueError.  For this linear ODE the k-th
    RK4 iterate is exactly y_0 R^k + y_env (1 - R^k), with the stability
    polynomial R = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = -gamma dt and
    R^k = exp(k log1p(R - 1)) over the whole trajectory at once.  |R| > 1
    (gamma dt above about 2.785) raises ValueError.  A point that breaks
    the uncertainty relation or n >= 0 beyond the slack, or is NaN, raises
    :class:`PhysicalityError` naming the first bad time.  t_final = 0
    returns just the initial state.

    The classicality C = n - |m| comes from the same closed form rather
    than from the rounded moments, which cancel once n is large: where m
    keeps the sign of m_0 >= 0, C = (n_0 - m_0) R^k + C_env (1 - R^k) with
    C_env = n_env - m_env = (n_th + 1/2) e^{-2 r_bath} - 1/2.
    """
    if t_final < 0.0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if not (dt_max > 0.0):
        raise ValueError(f"dt_max must be > 0, got {dt_max}")
    steps = rk4_steps(t_final, dt_max)
    if not s0.is_physical():
        raise PhysicalityError(f"initial state {s0} is unphysical")

    if t_final == 0.0:
        return MomentTrajectory(np.array([0.0]), np.array([s0.n]), np.array([s0.m]),
                                np.array([s0.n - abs(s0.m)]))

    z = -bath.gamma * (t_final / steps)
    growth_m1 = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    growth = 1.0 + growth_m1
    if not abs(growth) <= 1.0:
        raise ValueError(f"RK4 step gamma*dt = {-z:.6g} is unstable (|R(-gamma*dt)| = "
                         f"{abs(growth):.6g} > 1); use dt_max <= {2.785 / bath.gamma:.6g}")
    try:
        env = covariance_of(steady_state(bath))
        if not (math.isfinite(env.n_cm) and math.isfinite(env.m_cm)):  # 2 r_bath overflows
            raise OverflowError
    except OverflowError as exc:  # cosh 2r beyond the float range
        raise FloatingPointError(
            f"bath covariance overflows at r_bath={bath.r_bath:.6g}") from exc

    times = np.linspace(0.0, t_final, steps + 1)
    n, m, c = _iterates(s0, env.n_cm, env.m_cm, classicality(steady_state(bath)),
                        math.log1p(growth_m1), steps)
    bad = ~is_physical_nm(n, m, PHYSICALITY_SLACK)
    if bad.any():
        k = int(np.argmax(bad))
        raise PhysicalityError(f"trajectory left the physical region at t={times[k]:.6g} "
                               f"(n={n[k]:.6g}, m={m[k]:.6g})")
    return MomentTrajectory(times=times, n=n, m=m, classicality=c)


def _iterates(s0: MomentState, n_env: float, m_env: float, c_env: float, log_growth: float,
              steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n, m and C = n - |m| at RK4 steps 0..steps: y_0 R^k + y_env (1 - R^k).

    c_env = n_env - m_env; m_env >= 0, so C = n - m except where m < 0
    (from m_0 < 0), where C = n + m.
    """
    decay = np.arange(steps + 1, dtype=float)
    decay *= log_growth
    relaxed = -np.expm1(decay)
    np.exp(decay, out=decay)

    def iterate(y0: float, y_env: float) -> np.ndarray:
        y = y0 * decay
        y += y_env * relaxed
        return y

    n, m = iterate(s0.n, n_env), iterate(s0.m, m_env)
    c = iterate(s0.n - s0.m, c_env)
    if s0.m < 0.0:
        c = np.where(m < 0.0, iterate(s0.n + s0.m, n_env + m_env), c)
    return n, m, c


def trajectory_columns(trajectory: MomentTrajectory) -> list[np.ndarray]:
    """The CSV columns of a trajectory, in the order of TRAJECTORY_COLUMNS."""
    return [trajectory.times, trajectory.n, trajectory.m, trajectory.classicality,
            trajectory.n + 0.5]


def write_trajectory_csv(trajectory: MomentTrajectory, path) -> None:
    """Write a trajectory as CSV: time, n, m, classicality, energy."""
    with open(path, "w", newline="") as fh:
        write_csv(fh, TRAJECTORY_COLUMNS, trajectory_columns(trajectory))
