"""Output checks for every benchmark operation, independent of the package.

Nothing here imports ``bosonic_engine``: each expected value comes from a
closed form of the physics (the Bose-Einstein occupancy, the classicality
function, the critical squeezing, the analytic antiderivatives of the
iso-classicality stroke, and the exact exponential solution of the moment
ODEs).  Tolerances are no looser than the acceptance gate in
``tests/test_acceptance.py``.

Each checker returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterable

import numpy as np

# Relative tolerance on the generalized-cycle efficiency.  The acceptance
# gate holds the ledger's heat and work to 1e-10 relative.
GEN_ETA_RTOL = 1e-10
# Absolute tolerance on closed-form efficiencies (acceptance criterion 01).
CLOSED_FORM_ATOL = 1e-12
# First-law closure of a cycle report (acceptance criterion 04).
CLOSURE_ATOL = 1e-9
# Classicality values, relative to the (n + 1/2) scale (criterion 05 uses 1e-10).
CLASSICALITY_RTOL = 1e-12
# Exact ties with a critical squeezing (cycles.classify_region's BOUNDARY_TOL).
BOUNDARY_TOL = 1e-12
# The gate holds the relaxed state to 1e-6 absolute (criterion 09).
RELAX_ATOL_CAP = 1e-6
# CSV rows parsed and checked at a time.
CHUNK_ROWS = 256

EPS = np.finfo(float).eps

SWEEP_COLUMNS = {
    "classicality-curve": ("r", "C_tau1", "C_tau2", "C_tau3"),
    "otto-sweep": ("r", "eta_otto", "region"),
    "generalized-sweep": ("r_t", "r_R", "eta_generalized_ledger", "eta_printed_fg",
                          "eta_otto", "eta_carnot", "region"),
    "relaxation": ("time", "n", "m", "classicality", "energy"),
    "phase-diagram": ("r", "region", "C_at_tau1", "C_at_tau2"),
}

# SweepSpec defaults the generators rely on by leaving the flag out.
DEFAULTS = {"tau_cold": 1.0, "tau_hot": 2.0, "tau_third": 3.0, "r_min": 0.0,
            "r_max": 3.0, "points": 201, "r_work": 0.0, "gamma": 1.0, "t_final": 20.0}

STROKES = ("squeeze", "hot-contact", "unsqueeze", "cold-contact")


def occupancy(tau: float) -> float:
    """Bose-Einstein occupancy 1/(e^{1/tau} - 1)."""
    return 1.0 / math.expm1(1.0 / tau)


def critical_r(tau: float) -> float:
    """r_c = 1/2 ln(2n + 1)."""
    return 0.5 * math.log(2.0 * occupancy(tau) + 1.0)


def otto_eta(r: np.ndarray | float):
    """Otto efficiency 1 - 1/cosh 2r in the cancellation-free form 2 sinh^2 r / cosh 2r."""
    return 2.0 * np.sinh(r) ** 2 / np.cosh(2.0 * r)


def generalized_oracle(tau_cold: float, tau_hot: float, r_t):
    """(q_hot, w_extracted) from the analytic stroke antiderivatives.

    Same formulas as the acceptance gate's ``generalized_stroke_oracle``,
    vectorized over r_t.
    """
    a = occupancy(tau_cold) + 0.5
    b = occupancy(tau_hot) + 0.5
    r_t = np.asarray(r_t, dtype=float)
    r_r = r_t + 0.5 * math.log(b / a)
    e4 = np.exp(4.0 * r_r) - np.exp(4.0 * r_t)
    q_hot = a * np.exp(-2.0 * r_t) * (e4 / 4.0 + (r_r - r_t))
    w_on_bc = a * np.exp(-2.0 * r_t) * (e4 / 4.0 - (r_r - r_t))
    w_on = 2.0 * a * np.sinh(r_t) ** 2 + w_on_bc - 2.0 * b * np.sinh(r_r) ** 2
    return q_hot, -w_on


def region_labels(r: float, rc_cold: float, rc_hot: float) -> set[str]:
    """Acceptable region labels at r; both sides of a tie within float noise."""
    labels = set()
    dist = min(abs(r - rc_cold), abs(r - rc_hot))
    for slack in (-1e-14, 1e-14):
        if dist <= BOUNDARY_TOL + slack:
            labels.add("boundary")
        elif r < rc_cold:
            labels.add("i")
        elif r < rc_hot:
            labels.add("ii")
        else:
            labels.add("iii")
    return labels


def _close(name: str, got: np.ndarray, want: np.ndarray, atol, first_row: int) -> list[str]:
    bad = ~(np.abs(got - want) <= atol)
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [f"{name}: {int(bad.sum())} value(s) off, first at row {first_row + i}: "
            f"got {got[i]!r}, expected {want[i]!r}"]


def _linspace_rows(lo: float, hi: float, num: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of np.linspace(lo, hi, num), computed the same way."""
    if num == 1:
        return np.full(stop - start, float(lo))
    values = np.arange(start, stop) * ((hi - lo) / (num - 1)) + lo
    if stop == num:
        values[-1] = hi
    return values


def _parse_rows(lines: list[str], columns: tuple[str, ...]):
    """Split CSV lines into their numeric columns and their 'region' column."""
    if not lines[-1].endswith("\n"):
        return None, None, ["last row is not newline-terminated"]
    cells = [line[:-1].split(",") for line in lines]
    if any(len(row) != len(columns) for row in cells):
        return None, None, ["a row has the wrong number of fields"]
    labels = None
    numeric = {}
    try:
        for j, name in enumerate(columns):
            column = [row[j] for row in cells]
            if name == "region":
                labels = column
            else:
                numeric[name] = np.array(column, dtype=float)
    except ValueError as exc:
        return None, None, [f"unparseable number: {exc}"]
    problems = [f"column {name} has {int((~np.isfinite(v)).sum())} non-finite value(s)"
                for name, v in numeric.items() if not np.isfinite(v).all()]
    return numeric, labels, problems


def _check_grid(r: np.ndarray, p: dict, start: int) -> list[str]:
    grid = _linspace_rows(p["r_min"], p["r_max"], p["points"], start, start + len(r))
    return _close("r grid", r, grid, 1e-14 * max(1.0, p["r_max"]), start + 1)


def _check_regions(labels, r, p, start) -> list[str]:
    rc_cold, rc_hot = critical_r(p["tau_cold"]), critical_r(p["tau_hot"])
    for i, (label, ri) in enumerate(zip(labels, r), start=start + 1):
        allowed = region_labels(float(ri), rc_cold, rc_hot)
        if label not in allowed:
            return [f"region at row {i} (r={ri!r}) is {label!r}, expected {sorted(allowed)}"]
    return []


def _check_classicality(name, c, r, tau, start) -> list[str]:
    half = occupancy(tau) + 0.5
    return _close(name, c, half * np.exp(-2.0 * r) - 0.5, CLASSICALITY_RTOL * max(1.0, half),
                  start + 1)


def _gen_sweep(cols, labels, p, start) -> list[str]:
    r = _linspace_rows(p["r_min"], p["r_max"], p["points"], start, start + len(cols["r_t"]))
    tc, th = p["tau_cold"], p["tau_hot"]
    q_hot, w_out = generalized_oracle(tc, th, r)
    eta = w_out / q_hot
    r_r = r + 0.5 * math.log((occupancy(th) + 0.5) / (occupancy(tc) + 0.5))
    row = start + 1
    return (
        _close("r_R", cols["r_R"], r_r, 1e-13 * np.maximum(1.0, r_r), row)
        + _close("eta_generalized_ledger", cols["eta_generalized_ledger"], eta,
                 GEN_ETA_RTOL * np.abs(eta), row)
        + _close("eta_otto", cols["eta_otto"], otto_eta(r), CLOSED_FORM_ATOL, row)
        + _close("eta_carnot", cols["eta_carnot"], np.full_like(r, 1.0 - tc / th),
                 CLOSED_FORM_ATOL, row)
        + _check_regions(labels, r, p, start)
    )


def _otto_sweep(cols, labels, p, start) -> list[str]:
    r = cols["r"]
    return _close("eta_otto", cols["eta_otto"], otto_eta(r), CLOSED_FORM_ATOL, start + 1) \
        + _check_regions(labels, r, p, start)


def _phase_diagram(cols, labels, p, start) -> list[str]:
    r = cols["r"]
    return (_check_regions(labels, r, p, start)
            + _check_classicality("C_at_tau1", cols["C_at_tau1"], r, p["tau_cold"], start)
            + _check_classicality("C_at_tau2", cols["C_at_tau2"], r, p["tau_hot"], start))


def _classicality_curve(cols, labels, p, start) -> list[str]:
    r = cols["r"]
    taus = (p["tau_cold"], p["tau_hot"], p["tau_third"])
    return [msg for k, tau in enumerate(taus, start=1)
            for msg in _check_classicality(f"C_tau{k}", cols[f"C_tau{k}"], r, tau, start)]


def relax_rows(p: dict) -> int:
    """Rows of a relaxation CSV: one per RK4 step plus the initial state."""
    dt_max = 1e-3 / p["gamma"]
    return max(1, math.ceil(p["t_final"] / dt_max)) + 1


def _relaxation(cols, labels, p, start) -> list[str]:
    rows = relax_rows(p)
    t = cols["time"]
    gamma, t_final = p["gamma"], p["t_final"]
    n0 = occupancy(p["tau_cold"])
    half = occupancy(p["tau_hot"]) + 0.5
    n_env = half * math.cosh(2.0 * p["r_work"]) - 0.5
    m_env = half * math.sinh(2.0 * p["r_work"])
    times = _linspace_rows(0.0, t_final, rows, start, start + len(t))
    decay = np.exp(-gamma * times)
    n = n_env + (n0 - n_env) * decay
    m = m_env * (1.0 - decay)
    # RK4 error bound: per-step truncation |R(z) - e^z| <= z^5/120 for
    # z = gamma*dt, plus a few roundings per step, over every step.
    steps = rows - 1
    z = gamma * t_final / steps
    scale = max(1.0, abs(n0), abs(n_env), abs(m_env))
    tol = min(RELAX_ATOL_CAP, scale * (steps * (z**5 / 120.0 + 4.0 * EPS) + 1e-14))
    row = start + 1
    return (
        _close("time", t, times, 1e-14 * max(1.0, t_final), row)
        + _close("n", cols["n"], n, tol, row)
        + _close("m", cols["m"], m, tol, row)
        + _close("classicality", cols["classicality"], n - np.abs(m), 2.0 * tol, row)
        + _close("energy", cols["energy"], n + 0.5, tol, row)
    )


_SWEEP_CHECKS = {
    "generalized-sweep": _gen_sweep,
    "otto-sweep": _otto_sweep,
    "phase-diagram": _phase_diagram,
    "classicality-curve": _classicality_curve,
    "relaxation": _relaxation,
}


def check_sweep(mode: str, params: dict, lines: Iterable[str]) -> tuple[int, list[str]]:
    """(data rows, problems) for the CSV one CLI sweep call wrote.

    ``lines`` yields the CSV's lines with their newlines, as an open text
    file does.  They are parsed and checked CHUNK_ROWS rows at a time, so
    the check holds far less memory than the program did making the file
    and does not raise the worker's peak RSS.  Checking stops at the first
    chunk with a problem.
    """
    p = {**DEFAULTS, **params}
    columns = SWEEP_COLUMNS[mode]
    expected = relax_rows(p) if mode == "relaxation" else p["points"]
    lines = iter(lines)
    header = next(lines, "")
    if header != ",".join(columns) + "\n":
        return 0, [f"header {header!r} differs from {','.join(columns)!r}"]
    rows = 0
    while chunk := list(itertools.islice(lines, CHUNK_ROWS)):
        cols, labels, problems = _parse_rows(chunk, columns)
        if not problems and rows + len(chunk) > expected:
            problems = [f"more than {expected} rows"]
        if not problems and mode != "relaxation":
            problems = _check_grid(cols[columns[0]], p, rows)
        if not problems:
            problems = _SWEEP_CHECKS[mode](cols, labels, p, rows)
        if problems:
            return rows, problems
        rows += len(chunk)
    return rows, ([] if rows == expected else [f"{rows} rows, expected {expected}"])


def check_report(params: dict, text: str) -> list[str]:
    """Problems in one ``report_to_json`` document for a cycle call."""
    try:
        doc = json.loads(text)
        strokes = doc["strokes"]
        labels = tuple(s["label"] for s in strokes)
        closure = sum(s["work_on"] + s["heat_in"] for s in strokes)
        w_net, q_hot, q_cold = doc["w_net_extracted"], doc["q_hot_in"], doc["q_cold_out"]
        eta, region, trace = doc["efficiency"], doc["region"], doc["classicality_trace"]
        tr = {k: np.array(trace[k], dtype=float) for k in ("r", "n", "classicality")}
        n_labels = len(trace["stroke"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a well-formed cycle report: {exc!r}"]

    tc, th, r = params["tau_cold"], params["tau_hot"], params["r_work"]
    problems = []
    if labels != STROKES:
        problems.append(f"stroke labels {labels}, expected {STROKES}")
    numbers = [closure, w_net, q_hot, q_cold, eta]
    if not all(math.isfinite(x) for x in numbers) or \
            not all(np.isfinite(v).all() for v in tr.values()):
        return problems + ["report holds a non-finite value"]
    if abs(closure) > CLOSURE_ATOL:
        problems.append(f"cycle closure off by {closure:.3e}")
    if abs(w_net - (q_hot - q_cold)) > CLOSURE_ATOL:
        problems.append(f"w_net - (q_hot - q_cold) = {w_net - (q_hot - q_cold):.3e}")
    if params["kind"] == "otto":
        want_q = (occupancy(th) - occupancy(tc)) * math.cosh(2.0 * r)
        want_eta = float(otto_eta(r))
        if abs(q_hot - want_q) > 1e-12 * abs(want_q):
            problems.append(f"q_hot_in {q_hot!r}, expected {want_q!r}")
        if abs(eta - want_eta) > CLOSED_FORM_ATOL:
            problems.append(f"efficiency {eta!r}, expected {want_eta!r}")
    else:
        want_q, want_w = (float(x) for x in generalized_oracle(tc, th, r))
        want_eta = want_w / want_q
        if abs(q_hot - want_q) > GEN_ETA_RTOL * abs(want_q):
            problems.append(f"q_hot_in {q_hot!r}, expected {want_q!r}")
        if abs(eta - want_eta) > GEN_ETA_RTOL * abs(want_eta):
            problems.append(f"efficiency {eta!r}, expected {want_eta!r}")
    allowed = region_labels(r, critical_r(tc), critical_r(th))
    if region not in allowed:
        problems.append(f"region {region!r}, expected {sorted(allowed)}")
    if not len(tr["r"]) == len(tr["n"]) == len(tr["classicality"]) == n_labels > 0:
        problems.append("classicality trace columns differ in length")
    else:
        half = tr["n"] + 0.5
        problems += _close("trace classicality", tr["classicality"],
                           half * np.exp(-2.0 * tr["r"]) - 0.5,
                           CLASSICALITY_RTOL * np.maximum(1.0, half), 1)
    return problems
