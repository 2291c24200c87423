"""Parameter sweeps and their CSV/manifest serialization.

Every sweep writes one CSV data file plus a JSON manifest
(``<output>.manifest.json``) echoing the spec, the column schema, the
tool version, the natural-units convention, and the wall-clock duration.
CSV output is deterministic: 15 significant digits, '.' decimal
separator, header row, newline-terminated rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cycles import (
    CycleKind,
    EngineConfig,
    carnot_efficiency,
    classify_regions,
    generalized_ledger,
    otto_efficiency,
    printed_efficiency,
    run_generalized,
    run_otto,
)
from .dynamics import BathSpec, MomentState, evolve, write_trajectory_csv
from .states import bose_einstein, classicality_grid

__all__ = ["SweepSpec", "UsageError", "parse_config", "serialize_spec", "run_sweep",
           "MODES", "COLUMNS"]

MODES = (
    "classicality-curve",
    "otto-sweep",
    "generalized-sweep",
    "cycle-trace",
    "relaxation",
    "phase-diagram",
)

COLUMNS = {
    "classicality-curve": ("r", "C_tau1", "C_tau2", "C_tau3"),
    "otto-sweep": ("r", "eta_otto", "region"),
    "generalized-sweep": (
        "r_t", "r_R", "eta_generalized_ledger", "eta_printed_fg",
        "eta_otto", "eta_carnot", "region",
    ),
    "cycle-trace": ("stroke", "sample_r", "sample_n", "classicality"),
    "relaxation": ("time", "n", "m", "classicality", "energy"),
    "phase-diagram": ("r", "region", "C_at_tau1", "C_at_tau2"),
}

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
    """

    mode: str
    tau_cold: float = 1.0
    tau_hot: float = 2.0
    tau_third: float = 3.0
    r_min: float = 0.0
    r_max: float = 3.0
    points: int = 201
    output_path: str = ""
    quad_tol: float = 1e-10
    kind: str = "otto"
    r_work: float = 0.0
    gamma: float = 1.0
    t_final: float = 20.0
    dt_max: float | None = None


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SweepSpec)}
_FIELD_NAMES = tuple(_DEFAULTS)


def build_spec(values: dict) -> SweepSpec:
    """Validate a key/value mapping into a SweepSpec, listing every violation."""
    problems = []
    unknown = sorted(set(values) - set(_FIELD_NAMES))
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in values.items() if k in _FIELD_NAMES})

    if "mode" not in values:
        problems.append("missing required key: mode")
    elif merged["mode"] not in MODES:
        problems.append(f"mode must be one of {MODES}, got {merged['mode']!r}")

    def number(key, cond, description):
        v = merged[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not cond(v):
            problems.append(f"{key} {description}, got {v!r}")

    number("tau_cold", lambda v: v > 0 and math.isfinite(v), "must be a positive number")
    number("tau_hot", lambda v: v > 0 and math.isfinite(v), "must be a positive number")
    number("tau_third", lambda v: v > 0 and math.isfinite(v), "must be a positive number")
    if (
        isinstance(merged["tau_cold"], (int, float))
        and isinstance(merged["tau_hot"], (int, float))
        and merged["tau_hot"] <= merged["tau_cold"]
    ):
        problems.append(
            f"tau_hot ({merged['tau_hot']}) must exceed tau_cold ({merged['tau_cold']})"
        )
    number("r_min", lambda v: v >= 0 and math.isfinite(v), "must be >= 0")
    number("r_max", lambda v: math.isfinite(v), "must be finite")
    if (
        isinstance(merged["r_min"], (int, float))
        and isinstance(merged["r_max"], (int, float))
        and not merged["r_min"] < merged["r_max"]
    ):
        problems.append(f"r_min ({merged['r_min']}) must be < r_max ({merged['r_max']})")
    if not isinstance(merged["points"], int) or isinstance(merged["points"], bool) \
            or merged["points"] < 2:
        problems.append(f"points must be an integer >= 2, got {merged['points']!r}")
    number("quad_tol", lambda v: 0 < v <= 1e-3, "must be in (0, 1e-3]")
    number("r_work", lambda v: v >= 0 and math.isfinite(v), "must be >= 0")
    number("gamma", lambda v: v > 0 and math.isfinite(v), "must be > 0")
    number("t_final", lambda v: v >= 0 and math.isfinite(v), "must be >= 0")
    if merged["kind"] not in ("otto", "generalized"):
        problems.append(f"kind must be 'otto' or 'generalized', got {merged['kind']!r}")
    if merged["dt_max"] is not None and not (
        isinstance(merged["dt_max"], (int, float)) and merged["dt_max"] > 0
    ):
        problems.append(f"dt_max must be > 0 when given, got {merged['dt_max']!r}")
    if not isinstance(merged["output_path"], str):
        problems.append(f"output_path must be a string, got {merged['output_path']!r}")

    if problems:
        raise UsageError("invalid sweep spec:\n  " + "\n  ".join(problems))

    if not merged["output_path"]:
        merged["output_path"] = f"{merged['mode']}.csv"
    return SweepSpec(**merged)


def parse_config(text: str) -> SweepSpec:
    """Parse a JSON configuration document into a validated SweepSpec."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("configuration must be a JSON object")
    return build_spec(raw)


def serialize_spec(spec: SweepSpec) -> str:
    """JSON document that round-trips through parse_config."""
    return json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True)


def _engine(spec: SweepSpec, r: float, kind: CycleKind = CycleKind.OTTO) -> EngineConfig:
    return EngineConfig(tau_cold=spec.tau_cold, tau_hot=spec.tau_hot,
                        r_work=r, kind=kind)


def _occupancy_column(taus) -> np.ndarray:
    return np.array([[bose_einstein(tau)] for tau in taus])


def _columns(spec: SweepSpec) -> list[np.ndarray]:
    """The CSV columns of every mode but relaxation, as arrays.

    Grid modes compute each column over the whole r grid at once;
    cycle-trace takes its columns from the cycle report's trace.
    """
    tc, th = spec.tau_cold, spec.tau_hot
    if spec.mode == "cycle-trace":
        if spec.kind == "otto":
            report = run_otto(_engine(spec, spec.r_work))
        else:
            report = run_generalized(_engine(spec, spec.r_work, CycleKind.GENERALIZED))
        trace = report.classicality_trace
        return [np.array(trace.stroke), trace.r, trace.n, trace.c]

    grid = np.linspace(spec.r_min, spec.r_max, spec.points)
    if spec.mode == "classicality-curve":
        taus = (tc, th, spec.tau_third)
        return [grid, *classicality_grid(_occupancy_column(taus), grid)]
    if spec.mode == "otto-sweep":
        return [grid, otto_efficiency(grid), classify_regions(tc, th, grid)]
    if spec.mode == "generalized-sweep":
        ledger = generalized_ledger(tc, th, grid)
        carnot = carnot_efficiency(_engine(spec, 0.0))
        return [grid, ledger.r[2], ledger.efficiency, printed_efficiency(tc, th, grid),
                otto_efficiency(grid), np.full_like(grid, carnot),
                classify_regions(tc, th, grid)]
    if spec.mode == "phase-diagram":
        c_cold, c_hot = classicality_grid(_occupancy_column((tc, th)), grid)
        return [grid, classify_regions(tc, th, grid), c_cold, c_hot]
    raise UsageError(f"unsupported mode {spec.mode!r}")  # pragma: no cover - build_spec


def _csv_text(header: tuple[str, ...], columns: list[np.ndarray]) -> str:
    """Header plus one line per row, numbers at 15 significant digits.

    One row template formats every row; '%.15g' gives the same text as
    format(x, '.15g').
    """
    row = ",".join("%s" if col.dtype.kind == "U" else "%.15g" for col in columns) + "\n"
    rows = zip(*(col.tolist() for col in columns))
    return ",".join(header) + "\n" + "".join(map(row.__mod__, rows))


def run_sweep(spec: SweepSpec) -> str:
    """Execute a sweep, writing the CSV and its manifest; returns the CSV path.

    Every row is computed before any file is opened.  Both files are
    written under temporary names and renamed on success, so a sweep that
    fails leaves neither of them behind.
    """
    started = time.monotonic()
    if spec.mode == "relaxation":
        bath = BathSpec(tau=spec.tau_hot, r_bath=spec.r_work, gamma=spec.gamma)
        s0 = MomentState(n=bose_einstein(spec.tau_cold), m=0.0)
        dt_max = spec.dt_max if spec.dt_max is not None else 1e-3 / spec.gamma
        trajectory = evolve(s0, bath, t_final=spec.t_final, dt_max=dt_max)
    else:
        text = _csv_text(COLUMNS[spec.mode], _columns(spec))

    path = spec.output_path
    manifest_path = path + ".manifest.json"
    tmp_csv, tmp_manifest = path + ".tmp", manifest_path + ".tmp"
    try:
        if spec.mode == "relaxation":
            write_trajectory_csv(trajectory, tmp_csv)
        else:
            with open(tmp_csv, "w", newline="") as fh:
                fh.write(text)
        manifest = {
            "spec": dataclasses.asdict(spec),
            "tool_version": __version__,
            "units_note": UNITS_NOTE,
            "columns": list(COLUMNS[spec.mode]),
            "duration_seconds": time.monotonic() - started,
        }
        with open(tmp_manifest, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_csv, path)
        os.replace(tmp_manifest, manifest_path)
    except BaseException:
        for tmp in (tmp_csv, tmp_manifest):
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    return path
