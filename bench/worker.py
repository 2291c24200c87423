"""One benchmark workload as a closed loop in a single, fresh process.

One caller issues one operation at a time and waits for it; there are no
extra threads or processes.  Operations run in whole blocks (see
workloads.py) until the operations' summed wall time reaches ``--seconds``
and at least MIN_OPS operations have run; a traced run (``--trace 1``) runs the
fixed workloads.TRACE_BLOCKS instead.  Each output is checked by oracles.py
after its timed region, and a failed check counts the operation as
failed.  The last line of standard output is one JSON object.

Run by run.py; by hand (from the repository root):

    PYTHONPATH=src python3 bench/worker.py --workload relax --seed 1 --seconds 2
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import workloads
from tracer import SPANS, STATES_FUNCTIONS, Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 20
# Stop starting blocks after this much wall time, whatever --seconds says,
# so a run (two workers when traced) always ends inside its time limit.
# A traced run stopped by it covers fewer than its fixed blocks and fails.
WALL_CAP_S = 55.0
# Operations whose raw spans are kept and written out with the trace.
KEEP_SPAN_OPS = 2
TAIL_BEYOND = 10
WINDOW_OPS = 256


def cpu_seconds() -> float:
    """CPU time (user + system) of this process, all its threads, and its
    reaped children, so that work handed to a thread or a child process
    still counts.

    Operations are timed by it, not by the wall clock: on a shared virtual
    machine the hypervisor gives the vCPU to other tenants for stretches
    that stretched single operations by up to 5x and whole runs by 20-35%,
    while the CPU time of the same operations repeated within 3%.  For
    this single-threaded, CPU-bound program (its file writes land in the
    page cache and count as system time) the two agree on an idle host.
    The wall time is recorded beside it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Executes and checks operations against the imported package."""

    def __init__(self, workdir: Path):
        import bosonic_engine.cli
        import bosonic_engine.cycles

        self.cli = bosonic_engine.cli
        self.cycles = bosonic_engine.cycles
        self.csv = str(workdir / "out.csv")

    def execute(self, op: workloads.Op, tracer: Tracer | None):
        """Run one operation; returns (cpu_s, wall_s, output), checked later by check()."""
        if op.kind == "cycle":
            p = op.params
            cfg = self.cycles.EngineConfig(p["tau_cold"], p["tau_hot"], p["r_work"],
                                           self.cycles.CycleKind(p["kind"]))
            run = self.cycles.run_otto if p["kind"] == "otto" else self.cycles.run_generalized
            to_json = self.cycles.report_to_json

            def call():
                return "json", to_json(run(cfg))
        else:
            argv, main = op.argv(self.csv), self.cli.main

            def call():
                return "exit", main(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            end = tracer.op_span() if tracer else None
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                output = call()
            except Exception as exc:  # the benchmark records every failure
                output = ("raised", repr(exc))
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            if end:
                end()
        if output[0] == "exit" and output[1] != 0:
            output = ("exit", f"{output[1]}: {err.getvalue().strip()}")
        return cpu, wall, output

    def check(self, op: workloads.Op, output) -> tuple[int, list[str]]:
        """(items completed, problems) for one operation's output."""
        status, value = output
        if status == "raised":
            return 0, [f"raised {value}"]
        if status == "json":
            return 1, oracles.check_report(op.params, value)
        if value != 0:
            return 0, [f"nonzero exit code {value}"]
        with open(self.csv) as fh:
            rows, problems = oracles.check_sweep(op.kind, op.params, fh)
        try:
            with open(self.csv + ".manifest.json") as fh:
                columns = json.load(fh)["columns"]
        except (OSError, ValueError, KeyError) as exc:
            return 0, problems + [f"manifest unreadable: {exc!r}"]
        if tuple(columns) != oracles.SWEEP_COLUMNS[op.kind]:
            problems.append(f"manifest columns {columns} differ from the CSV schema")
        return (0 if problems else rows), problems


def summarize(records: list[dict]) -> dict:
    """Throughput and latency metrics of a run.

    A record's latency is the operation's CPU time (see cpu_seconds).
    items_per_s is items completed over the summed latencies, and
    op_p50_ms the median latency over every operation.  For op_tail_ms
    the run is cut into windows of whole blocks (every block holds the
    same input mix) with at least WINDOW_OPS operations each, or one
    window if the run is shorter; the tail of a window is its latency at
    the highest percentile with TAIL_BEYOND samples beyond it, and
    op_tail_ms is the median over windows.  A whole-run tail of thousands
    of fast operations would sit at p99.7 and follow single host stalls.
    """
    by_block: dict[int, list[float]] = {}
    for r in records:
        by_block.setdefault(r["block"], []).append(r["latency_s"])
    blocks = list(by_block.values())
    per_window = math.ceil(WINDOW_OPS * len(blocks) / len(records))
    tails, percentiles, sizes = [], [], []
    for group in np.array_split(np.arange(len(blocks)), max(1, len(blocks) // per_window)):
        ordered = sorted(latency for k in group for latency in blocks[k])
        n = len(ordered)
        tails.append(ordered[n - TAIL_BEYOND - 1])
        percentiles.append(100.0 * (n - TAIL_BEYOND) / n)
        sizes.append(n)
    return {
        "items_per_s": sum(r["items"] for r in records) / sum(r["latency_s"] for r in records),
        "op_p50_ms": statistics.median(r["latency_s"] for r in records) * 1e3,
        "op_tail_ms": statistics.median(tails) * 1e3,
        "tail_percentile": statistics.median(percentiles),
        "samples": len(records),
        "windows": len(sizes),
        "window_ops": statistics.median(sizes),
    }


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict:
    """Per-layer totals over the traced run (see README.md for the table)."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    m = {}
    for name in ("thermo.work_heat_along", "cycles.run_generalized", "cycles.run_otto",
                 "cycles.report_to_json", "cycles.classify_region", "dynamics.evolve",
                 "cli.main"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("dynamics.write_trajectory_csv", "sweep.run_sweep", "sweep.build_spec"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    states = [f"states.{f}" for f in STATES_FUNCTIONS]
    m["states.calls"] = sum(calls.get(name, 0) for name in states)
    m["states.self_s"] = sum(self_s.get(name, 0.0) for name in states)
    for name in ("thermo.quad.calls", "thermo.quad.neval", "cycles.trace_points_built",
                 "cycles.report_to_json.bytes", "dynamics.evolve.steps",
                 "dynamics.write_trajectory_csv.bytes", "sweep.rows", "sweep.csv_bytes"):
        m[name] = counters.get(name, 0)
    built = counters.get("cycles.trace_points_built", 0)
    m["cycles.trace_use_ratio"] = (counters.get("cycles.trace_points_serialized", 0) / built
                                   if built else 0.0)
    op_total = sum(r["wall_s"] for r in records)  # the spans use the wall clock
    layer_self = sum(self_s.get(name, 0.0) for name in SPANS)
    m["trace.self_time_share"] = layer_self / op_total if op_total else 0.0
    m["trace.ops"] = len(records)
    m["trace.items"] = sum(r["items"] for r in records)
    return m


def bypass_violations(workload: str, m: dict) -> list[str]:
    """The layers each workload must not reach, by its design."""
    zero = []
    if workload == "relax":
        zero += ["thermo.quad.calls", "cycles.run_otto.calls", "cycles.run_generalized.calls"]
    if workload == "grid-sweeps":
        zero += ["thermo.quad.calls"]
    if workload != "relax":
        zero += ["dynamics.evolve.calls"]
    return [f"{name} is {m[name]}, expected 0 on {workload}" for name in zero if m[name]]


def run(workload: str, seed: int, workdir: Path, seconds: float = 0.0,
        blocks: int | None = None, trace: bool = False, tiny: bool = False) -> dict:
    """Warm up, run the closed loop, check every output; returns the result dict.

    The loop runs ``blocks`` blocks when given, else whole blocks until the
    timed time reaches ``seconds`` and MIN_OPS operations have run.
    ``tiny`` shrinks every operation, for smoke tests of the harness.
    """
    runner = Runner(workdir)
    warmup_problems = []
    for op in workloads.WARMUP[workload]:
        output = runner.execute(op, None)[2]
        warmup_problems += runner.check(op, output)[1]

    # Full collections re-scan every object numpy and scipy made at import;
    # that interpreter cost, not the package's, made the latency tail swing
    # from run to run.  Freezing leaves collection of new objects as it was.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    records, failures = [], []
    timed = 0.0
    truncated = None
    loop_start = time.perf_counter()
    with tracer if tracer else contextlib.nullcontext():
        for index, block in enumerate(workloads.blocks(workload, seed)):
            done = (index >= blocks if blocks is not None
                    else timed >= seconds and len(records) >= MIN_OPS)
            if done:
                break
            if records and time.perf_counter() - loop_start > WALL_CAP_S:
                if blocks is not None:
                    truncated = (f"run truncated after {index} of {blocks} blocks "
                                 f"by the {WALL_CAP_S:g} s wall-time cap")
                break
            for op in block:
                if tiny:
                    op = workloads.shrink(op)
                cpu, wall, output = runner.execute(op, tracer)
                if tracer:
                    tracer.fold(len(records), keep=len(records) < KEEP_SPAN_OPS)
                items, problems = runner.check(op, output)
                timed += wall
                records.append({"block": index, "latency_s": cpu, "wall_s": wall,
                                "items": items})
                if problems:
                    failures.append({"op": len(records) - 1, "kind": op.kind,
                                     "params": op.params, "problems": problems})
    gc.unfreeze()

    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "warmup_problems": warmup_problems,
        "truncated": truncated,
        "items": sum(r["items"] for r in records),
        "timed_s": timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_s": [r["latency_s"] for r in records],
        "wall_s": [r["wall_s"] for r in records],
        "wall_p50_ms": statistics.median(r["wall_s"] for r in records) * 1e3,
        "wall_over_cpu": timed / sum(r["latency_s"] for r in records),
        **summarize(records),
    }
    if tracer:
        layers = layer_metrics(tracer, records)
        result["layers"] = layers
        result["bypass_violations"] = bypass_violations(workload, layers)
        result["spans"] = tracer.kept
    return result


def environment() -> dict:
    import numpy
    import scipy

    import bosonic_engine

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bosonic_engine": bosonic_engine.__version__,
        "package_path": str(Path(bosonic_engine.__file__).resolve().parent),
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import bosonic_engine

    expected = (ROOT / "src" / "bosonic_engine").resolve()
    if Path(bosonic_engine.__file__).resolve().parent != expected:
        print(f"imported bosonic_engine from {bosonic_engine.__file__}, "
              f"not from {expected}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, workdir, seconds=args.seconds,
                     blocks=workloads.TRACE_BLOCKS[args.workload] if args.trace else None,
                     trace=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
