"""Single-mode Gaussian states and the P-representability / classicality machinery.

Natural units throughout: hbar = omega = k_B = 1, so temperatures are
dimensionless and energies are in units of hbar*omega.  All states carry
zero displacement and are fully described by the two covariance-matrix
parameters (n, m).  The squeezing phase is zero, which keeps m real and
non-negative.  A temperature is a plain float tau = k_B T / (hbar omega);
:func:`check_temperature` is the one check that it is positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# |C| below this counts as sitting on the classical/non-classical boundary,
# so that region labelling is deterministic under floating point.
BOUNDARY_TOL = 1e-12

# Slack allowed when checking the symplectic uncertainty relation.
PHYSICALITY_TOL = 1e-12

# Rounding allowance of (n + 1/2)^2 - m^2 in float64, relative to
# (n + 1/2)^2: the squares and their difference, plus a few ulps of error
# in n and m themselves.  It grows with n^2, which no fixed slack does.
SQUARE_ROUNDING = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class SqueezedThermalState:
    """Squeezed thermal state of a single bosonic mode, at zero squeezing phase.

    Thermal occupancy n_th >= 0 of the underlying thermal state and
    squeezing magnitude r >= 0.
    """

    n_th: float
    r: float

    def __post_init__(self):
        if not (self.n_th >= 0.0) or not math.isfinite(self.n_th):
            raise ValueError(f"thermal occupancy must be >= 0, got n_th={self.n_th}")
        if not (self.r >= 0.0) or not math.isfinite(self.r):
            raise ValueError(f"squeezing magnitude must be >= 0, got r={self.r}")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second moments of a zero-mean single-mode Gaussian state.

    n_cm is the diagonal entry minus 1/2 (the occupancy <a^dag a>) and
    m_cm the off-diagonal coherence parameter -<a^2>, real for theta = 0.
    Physical matrices satisfy (n_cm + 1/2)^2 - m_cm^2 >= 1/4.
    """

    n_cm: float
    m_cm: float

    def matrix(self) -> np.ndarray:
        """Full 2x2 covariance matrix in the (a, a^dag) ordering."""
        d = self.n_cm + 0.5
        return np.array([[d, self.m_cm], [self.m_cm, d]])

    def is_physical(self) -> bool:
        return bool(is_physical_nm(self.n_cm, self.m_cm, PHYSICALITY_TOL))


def is_physical_nm(n, m, slack: float):
    """Whether (n, m) obey the uncertainty relation, elementwise.

    True where (n + 1/2)^2 - m^2 >= 1/4 - slack - SQUARE_ROUNDING (n + 1/2)^2
    and n >= -slack; NaN fails both tests.  Takes floats or arrays of
    equal shape.  Both sides are scaled by 2^(-2k), (n + 1/2) 2^-k in
    [1/2, 1), which rounds exactly as the unscaled test but cannot
    overflow while n and m are finite.
    """
    n, m = np.asarray(n, dtype=float), np.asarray(m, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the comparisons judge inf and NaN
        square, k = np.frexp(n + 0.5)
        square *= square
        m = np.ldexp(m, -k)
        m *= m
        k *= -2
        bound = np.ldexp(0.25 - slack, k)
        bound -= SQUARE_ROUNDING * square
        square -= m
        return (n >= -slack) & (square >= bound)


def check_temperature(tau: float) -> float:
    """tau as a float; ValueError unless it is positive and finite."""
    tau = float(tau)
    if not (tau > 0.0) or not math.isfinite(tau):
        raise ValueError(f"temperature must be positive and finite, got tau={tau}")
    return tau


def bose_einstein(tau: float) -> float:
    """Thermal occupancy 1/(e^{1/tau} - 1) of the mode at temperature tau.

    Where e^{1/tau} overflows (1/tau > 709.78) the occupancy is e^{-1/tau}
    to double precision, and underflows to 0 for 1/tau > 745.
    """
    x = 1.0 / check_temperature(tau)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return math.exp(-x)


@dataclass(frozen=True)
class Baths:
    """The engine's bath temperatures, checked once: each tau positive and finite,
    then tau_hot >= tau_cold.  n_cold, n_hot, the hot contact's shift r_R - r_t =
    (1/2) ln((n_hot + 1/2)/(n_cold + 1/2)) and carnot are derived on first read."""

    tau_cold: float
    tau_hot: float
    n_cold = cached_property(lambda self: bose_einstein(self.tau_cold))
    n_hot = cached_property(lambda self: bose_einstein(self.tau_hot))
    shift = cached_property(lambda self: 0.5 * math.log((self.n_hot + 0.5) / (self.n_cold + 0.5)))
    carnot = cached_property(lambda self: 1.0 - self.tau_cold / self.tau_hot)

    def __post_init__(self):
        check_temperature(self.tau_cold)
        check_temperature(self.tau_hot)
        if self.tau_hot < self.tau_cold:
            raise ValueError(f"tau_hot ({self.tau_hot}) must be >= tau_cold ({self.tau_cold})")


def tau_of_occupancy(n_th: float) -> float:
    """Inverse of :func:`bose_einstein`: tau = 1 / ln(1 + 1/n_th).

    Raises for n_th <= 0 (a zero-occupancy state has no finite inverse
    temperature).
    """
    if not (n_th > 0.0):
        raise ValueError(f"occupancy must be positive to define a temperature, got n_th={n_th}")
    return 1.0 / math.log1p(1.0 / n_th)


def covariance_of(state: SqueezedThermalState) -> CovarianceMatrix:
    """Covariance-matrix parameters of a squeezed thermal state.

    n_cm = (n_th + 1/2) cosh 2r - 1/2 and m_cm = (n_th + 1/2) sinh 2r;
    r = 0 recovers the thermal covariance matrix (n_th, 0).
    """
    half = state.n_th + 0.5
    return CovarianceMatrix(
        n_cm=half * math.cosh(2.0 * state.r) - 0.5,
        m_cm=half * math.sinh(2.0 * state.r),
    )


def is_p_representable(cm: CovarianceMatrix) -> bool:
    """Whether the state admits a proper Glauber-Sudarshan P distribution.

    Positive semidefiniteness of V - I/2 reduces, for this CM shape, to
    the scalar condition n_cm >= |m_cm|.  The boundary n_cm = |m_cm| is
    counted as classical (V - I/2 singular but still PSD).
    """
    if not cm.is_physical():
        raise ValueError(
            f"unphysical covariance matrix (n_cm={cm.n_cm}, m_cm={cm.m_cm}) "
            "violates the symplectic uncertainty relation"
        )
    return cm.n_cm >= abs(cm.m_cm)


def classicality(state: SqueezedThermalState) -> float:
    """Classicality function of the state; the one-point :func:`classicality_grid`."""
    return float(classicality_grid(state.n_th, np.array([state.r]))[0])


def libm(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc (exp, expm1, cosh or sinh) of a 1-D array, bit for bit as math
    and the C library.

    numpy runs its SIMD kernels, which on AVX-512 can differ from the C
    library in the last bit, only where the input and output strides have
    the same sign; for a reversed view of a contiguous input it runs its
    per-element C-library loop into a fresh array, which is reversed back.
    A strided or reversed x is made contiguous first (a fresh array, as
    array arithmetic returns, is not copied), since the reverse of a
    negative stride is positive.  So a written value has the same bits on
    every dispatch path, also where a cancellation after the function (C
    near 0, the printed g near its sign change) would turn one ulp into
    hundreds.  Overflow follows the caller's np.errstate.
    """
    return ufunc(np.ascontiguousarray(x)[::-1])[::-1]


def classicality_grid(n_th, r: np.ndarray) -> np.ndarray:
    """Classicality C = (n_th + 1/2) e^{-2r} - 1/2 over a 1-D array of squeezings.

    Equal to n_cm - |m_cm|; C < 0 certifies non-classicality.  ``n_th`` is
    one occupancy, an array of r's shape, or a column of them (shape
    (k, 1)), which gives one row per occupancy.  -2r overflows only where
    e^{-2r} is 0.
    """
    with np.errstate(over="ignore"):
        decay = libm(np.exp, -2.0 * r)
    return (np.asarray(n_th) + 0.5) * decay - 0.5


def critical_squeezing(tau: float) -> float:
    """Squeezing r_c at which the squeezed thermal state turns non-classical.

    r_c = (1/2) ln(2 n_th + 1); classicality vanishes exactly at r = r_c
    and the threshold grows monotonically with temperature.
    """
    return 0.5 * math.log1p(2.0 * bose_einstein(tau))
