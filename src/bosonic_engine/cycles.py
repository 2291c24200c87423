"""Stroke ledgers for the Otto cycle and the constant-classicality cycle.

Both cycles run a single mode between a cold thermal bath at tau_cold and a
hot squeezed thermal bath at tau_hot, with the squeezing magnitude as the
work parameter:

* Otto: unitary squeeze 0 -> r at the cold occupancy, relaxation into the
  hot bath (squeezed with the same r) at fixed r, unitary unsqueeze r -> 0,
  relaxation back into the cold bath.
* Generalized: the hot-bath contact follows the iso-classicality path
  (n(r) + 1/2) = (n_cold + 1/2) e^{2(r - r_t)} from r_t up to the bath
  squeezing r_R, so the classicality function stays constant while heat is
  absorbed.

The cycles differ only in the hot contact, and all strokes have closed
forms.  :func:`generalized_ledger` books the generalized cycle at a whole
array of r_t values at once; the sweeps call it over their r grid and
:func:`run_generalized` at one point.  Bath-contact strokes are complete
relaxations to the bath steady state, at the bath's occupancy.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import SCHEMA_VERSION
from .csvformat import Labels, json_items
from .errors import CycleConsistencyError
from .states import (
    BOUNDARY_TOL,
    Baths,
    SqueezedThermalState,
    classicality_grid,
    critical_squeezing,
    libm,
)

FIRST_LAW_TOL = 1e-9
TRACE_POINTS_PER_STROKE = 256
STROKES = ("squeeze", "hot-contact", "unsqueeze", "cold-contact")
# The region labels; classify_regions gives codes into them.
REGIONS = ("i", "ii", "iii", "boundary")

# The largest x whose e^x is finite.
_EXP_ARG_MAX = math.log(sys.float_info.max)

@contextmanager
def _raising(quantity: str, r_name: str, r) -> Iterator[None]:
    """Raise FloatingPointError on overflow, 0/0 and division by zero, naming
    the quantity and the largest squeezing r.

    A fresh errstate per call: numpy 1.x keeps the state it replaces on the
    instance, so a shared one entered again would leave "raise" set after.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"{quantity} at {r_name} up to {np.max(r, initial=0.0):.6g}: {exc}") from exc


class CycleKind(str, Enum):
    OTTO = "otto"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class EngineConfig:
    """Cycle parameters: bath temperatures, working squeezing, cycle kind.

    r_work is the Otto modulation amplitude r, or the first-stroke target
    r_t of the generalized cycle.  tau_hot = tau_cold is allowed and gives
    a degenerate (zero-heat) cycle; ``baths`` (not a field) checks and converts them.
    """

    tau_cold: float
    tau_hot: float
    r_work: float
    kind: CycleKind = CycleKind.OTTO

    def __post_init__(self):
        object.__setattr__(self, "baths", Baths(self.tau_cold, self.tau_hot))
        if not (self.r_work >= 0.0):
            raise ValueError(f"r_work must be >= 0, got {self.r_work}")


@dataclass(frozen=True)
class StrokeRecord:
    """One cycle leg with its endpoint states and energy ledger."""

    label: str
    state_in: SqueezedThermalState
    state_out: SqueezedThermalState
    work_on: float
    heat_in: float


@dataclass(frozen=True)
class ClassicalityTrace:
    """Sampled (r, n_th, C) points over the cycle, in the rows of TRACE_STROKE_LABELS."""

    r: np.ndarray
    n: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class CycleReport:
    strokes: tuple[StrokeRecord, ...]
    w_net_extracted: float
    q_hot_in: float
    q_cold_out: float
    efficiency: float
    classicality_trace: ClassicalityTrace
    region: str


@dataclass(frozen=True)
class Ledger:
    """Checked four-stroke ledger at N working points (the columns).

    ``n`` and ``r`` (5 x N) hold the states A, B, C, D and A again;
    ``work_on`` and ``heat_in`` (4 x N) the strokes between them, in the
    order of ``STROKES``.  The totals are length-N arrays.
    """

    n: np.ndarray
    r: np.ndarray
    work_on: np.ndarray
    heat_in: np.ndarray
    w_net_extracted: np.ndarray
    q_hot_in: np.ndarray
    q_cold_out: np.ndarray
    efficiency: np.ndarray


def otto_efficiency(r):
    """Otto efficiency 1 - 1/cosh(2r), temperature independent.

    Evaluated as tanh(r) tanh(2r), which equals 2 sinh^2 r / cosh 2r
    without the cancellation of 1 - 1/cosh(2r) at small r and stays
    finite at large r.  Accepts a float or an array of squeezings.
    """
    rs = np.asarray(r, dtype=float)
    if np.any(rs < 0.0):
        raise ValueError(f"squeezing must be >= 0, got {rs.min()}")
    rs = np.minimum(rs, 20.0)  # both tanh read 1.0 from r = 19.1 on; 2r cannot overflow
    eta = np.tanh(rs) * np.tanh(2.0 * rs)
    return float(eta) if eta.ndim == 0 else eta


def carnot_efficiency(cfg: EngineConfig) -> float:
    """Classical Carnot benchmark 1 - tau_cold/tau_hot."""
    return cfg.baths.carnot


def generalized_r_hot(cfg: EngineConfig) -> float:
    """Hot-bath squeezing r_R = r_t + cfg.baths.shift that keeps classicality constant."""
    return float(generalized_ledger(cfg.baths, cfg.r_work).r[2, 0])


def _printed_fg(tau_cold: float, tau_hot: float, r_t: np.ndarray):
    x1 = 1.0 / (2.0 * tau_cold)
    x2 = 1.0 / (2.0 * tau_hot)
    coth1 = 1.0 / math.tanh(x1)
    coth2 = 1.0 / math.tanh(x2)
    e4 = libm(np.exp, 4.0 * r_t)
    f = 4.0 * libm(np.exp, 2.0 * r_t) * (coth2 - coth1)
    g = (e4 * math.tanh(x1) * coth2**2 - coth1) * (
        e4 - 2.0 * math.log(math.tanh(x1) * coth2)
    )
    return f, g


def closed_form_terms(cfg: EngineConfig) -> tuple[float, float]:
    """The printed numerator f and denominator g of the generalized
    efficiency, evaluated verbatim.

    These expressions do NOT reproduce the first-law ledger (g changes
    sign near r_t = 0 and the quotient can exceed 1); they are kept as a
    faithful record of the printed form.  :func:`run_generalized` is the
    authoritative efficiency.  Raises FloatingPointError where f or g
    overflows.
    """
    with _raising("printed terms f and g", "r_t", cfg.r_work):
        f, g = _printed_fg(cfg.tau_cold, cfg.tau_hot, np.array([cfg.r_work]))
    return float(f[0]), float(g[0])


def printed_efficiency(tau_cold: float, tau_hot: float, r_t: np.ndarray) -> np.ndarray:
    """Verbatim 1 - f/g of the printed closed form at every r_t of an array.

    Gives 1 where f = 0 (equal temperatures).  g grows like e^{8 r_t} and
    overflows first, from 8 r_t near 709; beyond that |f/g| < 4 e^{-6 r_t}
    < 2^-54, so 1 - f/g rounds to 1, which is given there, also where
    e^{4 r_t} itself overflows.  Not the ledger efficiency.
    """
    with _raising("eta_printed_fg", "r_t", r_t):
        eta = np.ones(r_t.shape)
        finite = np.flatnonzero(4.0 * r_t <= _EXP_ARG_MAX)
        with np.errstate(over="ignore"):         # g = +-inf: 1 - f/g = 1
            f, g = _printed_fg(tau_cold, tau_hot, r_t[finite])
        eta[finite] = 1.0 - np.divide(f, g, out=np.zeros_like(f), where=f != 0.0)
        return eta


def generalized_efficiency_closed_form(cfg: EngineConfig) -> float:
    """The one-point :func:`printed_efficiency` at r_work; not the ledger efficiency."""
    return float(printed_efficiency(cfg.tau_cold, cfg.tau_hot, np.array([cfg.r_work]))[0])


def classify_region(cfg: EngineConfig) -> str:
    """The region label of the working point r_work (see :func:`classify_regions`)."""
    return REGIONS[classify_regions(cfg.tau_cold, cfg.tau_hot, np.array([cfg.r_work])).codes[0]]


def classify_regions(tau_cold: float, tau_hot: float, r: np.ndarray) -> Labels:
    """Working-point labels against the two critical squeezings, as codes into REGIONS.

    'i': classical at both temperatures (r < r_c(tau_cold));
    'ii': non-classical only at tau_cold; 'iii': non-classical at both;
    'boundary': within 1e-12 of either threshold.  Array comparisons only;
    a NaN r is 'iii', as no comparison holds for it.
    """
    rc_cold = critical_squeezing(tau_cold)
    rc_hot = critical_squeezing(tau_hot)
    on_boundary = (np.abs(r - rc_cold) <= BOUNDARY_TOL) | (np.abs(r - rc_hot) <= BOUNDARY_TOL)
    # r < rc_cold is 'i' whatever rc_hot is
    codes = 2 - (r < rc_cold).view(np.uint8) - (r < max(rc_cold, rc_hot)).view(np.uint8)
    codes[on_boundary] = REGIONS.index("boundary")
    return Labels(codes, REGIONS)


def _book(n: np.ndarray, r: np.ndarray, work_on: np.ndarray,
          heat_in: np.ndarray) -> Ledger:
    """Check a four-stroke ledger and total it.

    Every stroke must obey the first law to 1e-9 of its larger end energy,
    the cycle must return to its initial state and its energy must close.
    Each test is written as ``~(gap <= tol)`` so that a NaN fails it.
    """
    energy = (n + 0.5) * np.cosh(2.0 * r)
    gap = np.abs(work_on + heat_in - np.diff(energy, axis=0))
    bad = ~(gap <= FIRST_LAW_TOL * np.maximum(1.0, np.maximum(energy[:-1], energy[1:])))
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise CycleConsistencyError(
            f"stroke '{STROKES[k]}' violates the first law by {gap[k, i]:.3e}"
        )
    bad = ~((np.abs(n[-1] - n[0]) <= 1e-12) & (r[-1] == r[0]))
    if bad.any():
        raise CycleConsistencyError("cycle did not return to its initial state")
    closure = (work_on + heat_in).sum(axis=0)
    scale = np.maximum(1.0, (np.abs(work_on) + np.abs(heat_in)).sum(axis=0))
    bad = ~(np.abs(closure) <= FIRST_LAW_TOL * scale)
    if bad.any():
        raise CycleConsistencyError(
            f"cycle energy closure off by {closure[np.argmax(bad)]:.3e}"
        )

    w_net = -work_on.sum(axis=0)
    q_hot = heat_in[1]
    efficiency = np.divide(w_net, q_hot, out=np.zeros_like(w_net), where=q_hot > 0.0)
    return Ledger(n=n, r=r, work_on=work_on, heat_in=heat_in, w_net_extracted=w_net,
                  q_hot_in=q_hot, q_cold_out=-heat_in[3], efficiency=efficiency)


def _four_strokes(n_cold: float, n_hot: float, r_t: np.ndarray, r_r: np.ndarray,
                  hot_work: np.ndarray, hot_heat: np.ndarray) -> Ledger:
    """Checked ledger of the four strokes at every working point.

    Squeeze 0 -> r_t at n_cold, hot contact to (r_R, n_hot) with the given
    work and heat, unsqueeze r_R -> 0 at n_hot, cold contact to n_cold.
    Runs, with :func:`_book`, under its caller's :func:`_raising`.
    """
    zero = np.zeros_like(r_t)
    n = np.array([n_cold, n_cold, n_hot, n_hot, n_cold])[:, None] + zero
    r = np.array([zero, r_t, r_r, zero, zero])
    work_on = np.array([2.0 * (n_cold + 0.5) * libm(np.sinh, r_t) ** 2, hot_work,
                        -2.0 * (n_hot + 0.5) * libm(np.sinh, r_r) ** 2, zero])
    heat_in = np.array([zero, hot_heat, zero, zero + (n_cold - n_hot)])
    return _book(n, r, work_on, heat_in)


def generalized_ledger(baths: Baths, r_t) -> Ledger:
    """Constant-classicality cycle ledger at every first-stroke squeezing in r_t.

    With a = n_cold + 1/2 and delta = r_R - r_t = ``baths.shift``, the
    hot-contact stroke (n + 1/2 = a e^{2(r - r_t)}) has the exact integrals

        W_on = a [e^{2 r_t} expm1(4 delta)/4 - e^{-2 r_t} delta]
        Q_in = a [e^{2 r_t} expm1(4 delta)/4 + e^{-2 r_t} delta]

    of 2 (n + 1/2) sinh 2r dr and cosh 2r dn; the other strokes are those
    of the Otto cycle.  Raises FloatingPointError on overflow.
    """
    r_t = np.array(r_t, dtype=float, ndmin=1)
    if not (r_t >= 0.0).all():
        raise ValueError("generalized_ledger needs every r_t >= 0")
    n_cold, n_hot, delta = baths.n_cold, baths.n_hot, baths.shift
    a = n_cold + 0.5
    with _raising("generalized cycle ledger", "r_t", r_t):
        try:
            growth = math.expm1(4.0 * delta) / 4.0
        except OverflowError as exc:
            raise FloatingPointError(f"hot-contact squeezing shift r_R - r_t = {delta:.6g} "
                                     "overflows e^{4(r_R - r_t)}") from exc
        rise = a * libm(np.exp, 2.0 * r_t) * growth
        shift = a * libm(np.exp, -2.0 * r_t) * delta
        return _four_strokes(n_cold, n_hot, r_t, r_t + delta, rise - shift, rise + shift)


_TRACE_U = np.linspace(0.0, 1.0, TRACE_POINTS_PER_STROKE)
_TRACE_U.flags.writeable = False  # shared by every trace
_TRACE_STROKES = tuple(label for label in STROKES for _ in _TRACE_U)
# The same strokes as a CSV label column.
TRACE_STROKE_LABELS = Labels(np.repeat(np.arange(len(STROKES), dtype=np.uint8), _TRACE_U.size),
                             STROKES)
TRACE_STROKE_LABELS.codes.flags.writeable = False


def _report(cfg: EngineConfig, ledger: Ledger,
            hot_n: Callable[[np.ndarray], np.ndarray]) -> CycleReport:
    """CycleReport of a one-point ledger; the last stroke ends in the first state.

    The trace samples each stroke at 256 uniform u in [0, 1]: r moves
    linearly along every stroke, n is constant on the unitaries, linear
    on the cold contact and ``hot_n(u)`` on the hot contact.
    """
    n1, n2 = ledger.n[1:3, 0].tolist()
    r_t, r_r = ledger.r[1:3, 0].tolist()
    u = _TRACE_U
    r = np.concatenate([u * r_t, r_t + u * (r_r - r_t), (1.0 - u) * r_r, np.zeros_like(u)])
    n = np.concatenate([np.full_like(u, n1), hot_n(u), np.full_like(u, n2), n2 + u * (n1 - n2)])
    trace = ClassicalityTrace(r=r, n=n, c=classicality_grid(n, r))
    states = [SqueezedThermalState(n_th=n, r=r)
              for n, r in zip(ledger.n[:4, 0].tolist(), ledger.r[:4, 0].tolist())]
    strokes = tuple(
        StrokeRecord(label, states[k], states[(k + 1) % 4], work_on=w, heat_in=q)
        for k, (label, w, q) in enumerate(
            zip(STROKES, ledger.work_on[:, 0].tolist(), ledger.heat_in[:, 0].tolist()))
    )
    return CycleReport(
        strokes=strokes,
        w_net_extracted=float(ledger.w_net_extracted[0]),
        q_hot_in=float(ledger.q_hot_in[0]),
        q_cold_out=float(ledger.q_cold_out[0]),
        efficiency=float(ledger.efficiency[0]),
        classicality_trace=trace,
        region=classify_region(cfg),
    )


def run_otto(cfg: EngineConfig) -> CycleReport:
    """Four-stroke Otto-like cycle with the squeezing as work parameter.

    All stroke energies are closed-form; the hot bath carries the same
    squeezing r as the mode, so the hot contact changes only the
    occupancy: it takes in (n_hot - n_cold) cosh 2r.  Net extracted work
    is 2 (n_hot - n_cold) sinh^2 r and the efficiency reduces to
    1 - 1/cosh(2r).
    """
    if cfg.kind is not CycleKind.OTTO:
        raise ValueError(f"run_otto requires kind=otto, got {cfg.kind}")
    n1, n2 = cfg.baths.n_cold, cfg.baths.n_hot
    r = np.array([cfg.r_work])
    with _raising("Otto cycle ledger", "r", r):
        ledger = _four_strokes(n1, n2, r, r, np.zeros_like(r), (n2 - n1) * libm(np.cosh, 2.0 * r))
    return _report(cfg, ledger, lambda u: n1 + u * (n2 - n1))


def run_generalized(cfg: EngineConfig) -> CycleReport:
    """Constant-classicality cycle; the hot contact co-varies (r, n_th).

    The B -> C stroke follows (n(r) + 1/2) = (n_cold + 1/2) e^{2(r - r_t)}
    for r from r_t to r_R, which holds C = (n + 1/2) e^{-2r} - 1/2 fixed;
    the ledger is :func:`generalized_ledger` at the single point r_t.
    """
    if cfg.kind is not CycleKind.GENERALIZED:
        raise ValueError(f"run_generalized requires kind=generalized, got {cfg.kind}")
    ledger = generalized_ledger(cfg.baths, [cfg.r_work])
    a, delta = cfg.baths.n_cold + 0.5, float(ledger.r[2, 0]) - cfg.r_work
    return _report(cfg, ledger, lambda u: a * libm(np.exp, 2.0 * u * delta) - 0.5)


def _state_dict(state: SqueezedThermalState) -> dict:
    return {"n_th": state.n_th, "r": state.r}


def _report_dict(report: CycleReport, trace: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "strokes": [
            {
                "label": s.label,
                "state_in": _state_dict(s.state_in),
                "state_out": _state_dict(s.state_out),
                "work_on": s.work_on,
                "heat_in": s.heat_in,
            }
            for s in report.strokes
        ],
        "w_net_extracted": report.w_net_extracted,
        "q_hot_in": report.q_hot_in,
        "q_cold_out": report.q_cold_out,
        "efficiency": report.efficiency,
        "region": report.region,
        "classicality_trace": trace,
    }


def report_to_dict(report: CycleReport) -> dict:
    """JSON-ready dictionary with stable field names."""
    trace = report.classicality_trace
    return _report_dict(report, {
        "stroke": list(_TRACE_STROKES),
        "r": trace.r.tolist(),
        "n": trace.n.tolist(),
        "classicality": trace.c.tolist(),
    })


# The JSON list of the shared trace labels.
_TRACE_STROKES_JSON = json.dumps(list(_TRACE_STROKES))


def report_to_json(report: CycleReport) -> str:
    """The text of json.dumps(report_to_dict(report)), byte for byte.

    The report is dumped with an empty trace, which comes last, and the
    trace lists follow the opening brace of the trace.  csvformat.json_items
    formats their numbers, separators included, with no Python float per
    value, and formats each run of equal values (n and r along a stroke
    that keeps them) once.  Indented text is
    json.dumps(report_to_dict(report), indent=...).
    """
    trace = report.classicality_trace
    head = json.dumps(_report_dict(report, {}))[:-2]     # without the closing '}}'
    r, n, c = json_items([trace.r, trace.n, trace.c])
    return (f'{head}"stroke": {_TRACE_STROKES_JSON}, "r": [{r}], "n": [{n}], '
            f'"classicality": [{c}]}}}}')
