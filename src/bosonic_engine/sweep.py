"""Parameter sweeps and their CSV/manifest serialization.

Every sweep writes one CSV data file plus a JSON manifest
(``<output>.manifest.json``) giving the schema version and echoing the
spec, the column schema, the tool version, the natural-units convention,
the row count, and the wall-clock duration with its compute and CSV-write
phases.  CSV output is deterministic for one C library: every number
is the text of format(x, '.15g') with a '.' decimal separator, every
label is written as it is, with a header row, and every line ending in
'\\n' (LF) in every mode.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import SCHEMA_VERSION, __version__
from .cycles import (
    TRACE_STROKE_LABELS,
    CycleKind,
    EngineConfig,
    classify_regions,
    generalized_ledger,
    otto_efficiency,
    printed_efficiency,
    run_generalized,
    run_otto,
)
from .csvformat import Labels, write_csv
from .dynamics import (TRAJECTORY_COLUMNS, BathSpec, MomentState, evolve, rk4_steps,
                       trajectory_columns)
from .states import Baths, bose_einstein, classicality_grid

KINDS = tuple(kind.value for kind in CycleKind)

# Largest r grid.  generalized-sweep holds about 30 float64 arrays of the
# grid's length at once, so the cap bounds a run at about 250 MB.
MAX_POINTS = 1_000_000

UNITS_NOTE = (
    "natural units: hbar = omega = k_B = 1; temperatures dimensionless, "
    "energies in units of hbar*omega"
)


class UsageError(ValueError):
    """Invalid sweep specification or configuration document."""


@dataclass(frozen=True)
class SweepSpec:
    """Fully validated description of one sweep run.

    tau_third is only consumed by the classicality-curve mode (the third
    curve of the temperature comparison); kind and r_work select the cycle
    for cycle-trace; gamma, t_final, dt_max and r_work (bath squeezing)
    drive the relaxation mode.

    Every field but mode is also a flag ``--<name with '-' for '_'>``;
    field metadata may give its ``flag`` spelling, ``help`` and ``choices``.
    """

    mode: str
    tau_cold: float = 1.0
    tau_hot: float = 2.0
    tau_third: float = field(
        default=3.0, metadata={"help": "third temperature of the classicality-curve mode"})
    r_min: float = 0.0
    r_max: float = 3.0
    points: int = 201
    output_path: str = field(
        default="", metadata={"flag": "--output", "help": "CSV output path"})
    kind: str = field(
        default="otto", metadata={"choices": KINDS, "help": "cycle kind for cycle-trace"})
    r_work: float = field(default=0.0, metadata={
        "help": "working squeezing (cycle-trace) / bath squeezing (relaxation)"})
    gamma: float = field(default=1.0, metadata={"help": "relaxation rate"})
    t_final: float = 20.0
    dt_max: float | None = None


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SweepSpec)}


def build_spec(values: dict) -> SweepSpec:
    """Validate a key/value mapping into a SweepSpec, listing every violation."""
    problems = []
    unknown = sorted(set(values) - set(_DEFAULTS))
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in values.items() if k in _DEFAULTS})

    if "mode" not in values:
        problems.append("missing required key: mode")
    elif merged["mode"] not in MODES:
        problems.append(f"mode must be one of {MODES}, got {merged['mode']!r}")

    def number(key, cond, description) -> bool:
        v = merged[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not cond(v):
            problems.append(f"{key} {description}, got {v!r}")
            return False
        return True

    # Only numbers that passed their own test are ordered: each bad value is named once.
    taus = [number(key, lambda v: v > 0 and math.isfinite(v), "must be a positive number")
            for key in ("tau_cold", "tau_hot", "tau_third")]
    if all(taus[:2]) and merged["tau_hot"] < merged["tau_cold"]:
        problems.append(
            f"tau_hot ({merged['tau_hot']}) must be >= tau_cold ({merged['tau_cold']})"
        )
    bounds = [number("r_min", lambda v: v >= 0 and math.isfinite(v), "must be >= 0"),
              number("r_max", lambda v: math.isfinite(v), "must be finite")]
    if all(bounds) and not merged["r_min"] < merged["r_max"]:
        problems.append(f"r_min ({merged['r_min']}) must be < r_max ({merged['r_max']})")
    if not isinstance(merged["points"], int) or isinstance(merged["points"], bool) \
            or not 2 <= merged["points"] <= MAX_POINTS:
        problems.append(f"points must be an integer in [2, {MAX_POINTS}], "
                        f"got {merged['points']!r}")
    number("r_work", lambda v: v >= 0 and math.isfinite(v), "must be >= 0")
    steps_known = all([number("gamma", lambda v: v > 0 and math.isfinite(v), "must be > 0"),
                       number("t_final", lambda v: v >= 0 and math.isfinite(v), "must be >= 0"),
                       merged["dt_max"] is None
                       or number("dt_max", lambda v: v > 0, "must be > 0 when given")])
    if merged["kind"] not in KINDS:
        problems.append(f"kind must be 'otto' or 'generalized', got {merged['kind']!r}")
    if steps_known:
        try:
            rk4_steps(merged["t_final"], _dt_max(merged["dt_max"], merged["gamma"]))
        except ValueError as exc:
            problems.append(str(exc))
    if not isinstance(merged["output_path"], str):
        problems.append(f"output_path must be a string, got {merged['output_path']!r}")

    if problems:
        raise UsageError("invalid sweep spec: " + "; ".join(problems))

    if not merged["output_path"]:
        merged["output_path"] = f"{merged['mode']}.csv"
    return SweepSpec(**merged)


def load_config(text: str) -> dict:
    """The key/value mapping of a JSON configuration document, unvalidated."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("configuration must be a JSON object")
    return raw


def parse_config(text: str) -> SweepSpec:
    """Parse a JSON configuration document into a validated SweepSpec."""
    return build_spec(load_config(text))


def _occupancy_column(taus) -> np.ndarray:
    return np.array([[bose_einstein(tau)] for tau in taus])


def _grid(spec: SweepSpec) -> np.ndarray:
    return np.linspace(spec.r_min, spec.r_max, spec.points)


def _classicality_curve(spec: SweepSpec) -> list[np.ndarray]:
    grid = _grid(spec)
    taus = (spec.tau_cold, spec.tau_hot, spec.tau_third)
    return [grid, *classicality_grid(_occupancy_column(taus), grid)]


def _otto_sweep(spec: SweepSpec) -> list[np.ndarray | Labels]:
    grid = _grid(spec)
    return [grid, otto_efficiency(grid), classify_regions(spec.tau_cold, spec.tau_hot, grid)]


def _generalized_sweep(spec: SweepSpec) -> list[np.ndarray | Labels]:
    tc, th, grid = spec.tau_cold, spec.tau_hot, _grid(spec)
    baths = Baths(tc, th)
    ledger = generalized_ledger(baths, grid)
    return [grid, ledger.r[2], ledger.efficiency, printed_efficiency(tc, th, grid),
            otto_efficiency(grid), np.full_like(grid, baths.carnot),
            classify_regions(tc, th, grid)]


def _cycle_trace(spec: SweepSpec) -> list[np.ndarray | Labels]:
    kind = CycleKind(spec.kind)
    run = run_otto if kind is CycleKind.OTTO else run_generalized
    trace = run(EngineConfig(spec.tau_cold, spec.tau_hot, spec.r_work, kind)).classicality_trace
    return [TRACE_STROKE_LABELS, trace.r, trace.n, trace.c]


def _dt_max(dt_max: float | None, gamma: float) -> float:
    """The relaxation mode's largest RK4 step; 1e-3/gamma unless given."""
    return dt_max if dt_max is not None else 1e-3 / gamma


def _relaxation(spec: SweepSpec) -> list[np.ndarray]:
    bath = BathSpec(tau=spec.tau_hot, r_bath=spec.r_work, gamma=spec.gamma)
    s0 = MomentState(n=bose_einstein(spec.tau_cold), m=0.0)
    dt_max = _dt_max(spec.dt_max, spec.gamma)
    return trajectory_columns(evolve(s0, bath, t_final=spec.t_final, dt_max=dt_max))


def _phase_diagram(spec: SweepSpec) -> list[np.ndarray | Labels]:
    tc, th, grid = spec.tau_cold, spec.tau_hot, _grid(spec)
    c_cold, c_hot = classicality_grid(_occupancy_column((tc, th)), grid)
    return [grid, classify_regions(tc, th, grid), c_cold, c_hot]


# Each mode's CSV columns, and the function that computes them from the
# spec as one float array or Labels per column.
_MODE_TABLE = {
    "classicality-curve": (("r", "C_tau1", "C_tau2", "C_tau3"), _classicality_curve),
    "otto-sweep": (("r", "eta_otto", "region"), _otto_sweep),
    "generalized-sweep": (
        ("r_t", "r_R", "eta_generalized_ledger", "eta_printed_fg",
         "eta_otto", "eta_carnot", "region"),
        _generalized_sweep,
    ),
    "cycle-trace": (("stroke", "sample_r", "sample_n", "classicality"), _cycle_trace),
    "relaxation": (TRAJECTORY_COLUMNS, _relaxation),
    "phase-diagram": (("r", "region", "C_at_tau1", "C_at_tau2"), _phase_diagram),
}

MODES = tuple(_MODE_TABLE)
COLUMNS = {mode: columns for mode, (columns, _) in _MODE_TABLE.items()}


def _columns(spec: SweepSpec) -> list[np.ndarray | Labels]:
    """The CSV columns of the spec's mode, as float arrays and Labels."""
    return _MODE_TABLE[spec.mode][1](spec)


def run_sweep(spec: SweepSpec) -> str:
    """Execute a sweep, writing the CSV and its manifest; returns the CSV path.

    Every row is computed before any file is opened.  Both files are
    written under temporary names and renamed on success, so a sweep that
    fails leaves neither of them behind.
    """
    started = time.monotonic()
    columns = _columns(spec)
    computed = time.monotonic()

    path = spec.output_path
    manifest_path = path + ".manifest.json"
    tmp_csv, tmp_manifest = path + ".tmp", manifest_path + ".tmp"
    try:
        with open(tmp_csv, "wb") as fh:
            write_csv(fh, COLUMNS[spec.mode], columns)
        written = time.monotonic()
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "spec": vars(spec),
            "tool_version": __version__,
            "units_note": UNITS_NOTE,
            "columns": list(COLUMNS[spec.mode]),
            "rows": len(columns[0]),
            "duration_seconds": written - started,
            "phase_seconds": {"compute": computed - started, "write": written - computed},
        }
        with open(tmp_manifest, "wb") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True).encode() + b"\n")
        os.replace(tmp_csv, path)
        tmp_csv = path  # the CSV is in place; a failed manifest rename removes it
        os.replace(tmp_manifest, manifest_path)
    except BaseException:
        for tmp in (tmp_csv, tmp_manifest):
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    return path
