"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload gen-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  Every metric is printed by name with its unit, then, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics.  Full results, the environment record and the kept spans are
written to ``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Pin every BLAS/OpenMP pool to one thread in the measured processes.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Fresh interpreters timed per run for an import time; the median is reported.
# setup_s takes half of them before the worker and half after, so a slow
# spell of the host during one of the two stretches sways it less.
IMPORT_SAMPLES = 6
CHILD_TIMEOUT_S = 150


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    """The host environment with the pinned settings.  PYTHONDONTWRITEBYTECODE
    is dropped, so children write bytecode caches and the timed imports read
    them, whatever the host sets."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str]) -> str:
    """Run a Python child to completion; returns its standard output."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def import_seconds(module: str, samples: int, warm: bool = True) -> list[float]:
    """In-process import time of ``module`` in ``samples`` fresh interpreters,
    as CPU time for the reason worker.cpu_seconds gives.  An untimed import
    goes first unless ``warm`` is false, so the bytecode caches are warm, as
    an installed user's would be."""
    code = ("import time; t = time.process_time(); import " + module
            + "; print(time.process_time() - t)")
    if warm:
        run_child(["-c", code])
    return [float(run_child(["-c", code]).split()[-1]) for _ in range(samples)]


def worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = run_child([str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", repr(seconds), "--trace", str(int(trace))])
    return json.loads(out.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bosonic_engine").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def environment(args, child_env_record: dict) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **child_env_record,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "pinned_env": {**THREAD_ENV, "PYTHONHASHSEED": "0"},
        "params_sha256": workloads.params_digest(args.workload, args.seed),
    }


def end_to_end(args) -> tuple[dict, dict]:
    setup = import_seconds("bosonic_engine.cli", IMPORT_SAMPLES // 2)
    res = worker(args.workload, args.seed, args.seconds, trace=False)
    setup += import_seconds("bosonic_engine.cli", IMPORT_SAMPLES - IMPORT_SAMPLES // 2,
                            warm=False)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": res["items_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_tail_ms": res["op_tail_ms"],
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["setup_samples_s"] = setup
    return metrics, res


def per_layer(args) -> tuple[dict, dict]:
    plain = worker(args.workload, args.seed, args.seconds, trace=False)
    res = worker(args.workload, args.seed, args.seconds, trace=True)
    scipy_import = import_seconds("scipy.integrate", IMPORT_SAMPLES)
    metrics = dict(res["layers"])
    metrics["setup.scipy_integrate_import_s"] = statistics.median(scipy_import)
    metrics["trace.items_per_s"] = res["items_per_s"]
    metrics["trace.untraced_items_per_s"] = plain["items_per_s"]
    metrics["trace.overhead_ratio"] = plain["items_per_s"] / res["items_per_s"]
    res["untraced"] = {k: v for k, v in plain.items() if k != "environment"}
    res["scipy_import_samples_s"] = scipy_import
    return metrics, res


def not_applicable(metrics: dict) -> set[str]:
    """Per-layer metrics of layers the traced run never reached (they read 0)."""
    skipped = {name for name, value in metrics.items()
               if value == 0 and not name.endswith("ratio")}
    if metrics["cycles.trace_points_built"] == 0:
        skipped.add("cycles.trace_use_ratio")
    return skipped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bosonic-engine benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bosonic_engine" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'bosonic_engine'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    metrics, res = (per_layer if args.trace else end_to_end)(args)
    res["environment"] = environment(args, res.get("environment", {}))

    problems = [f"op {f['op']} {f['kind']} {f['params']}: {'; '.join(f['problems'])}"
                for f in res["failures"]]
    problems += [f"warm-up: {p}" for p in res["warmup_problems"]]
    problems += res.get("bypass_violations", [])
    if res["truncated"]:
        problems.append(res["truncated"])

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"metrics": metrics, "result": res}, indent=1) + "\n")

    env = res["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={env['commit']} "
          f"src={env['source_sha256'][:12]} params={env['params_sha256'][:12]} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} threads=1")
    units = declared_metrics(bool(args.trace))
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {name: metrics[name] for name in units}
    skipped = not_applicable(metrics) if args.trace else set()
    for name, value in metrics.items():
        note = "  n/a: layer not reached on this workload" if name in skipped else ""
        print(f"{name:42s} {value:>16.6g} {units[name]}{note}")
    if not args.trace:
        print(f"{'fail_frac':42s} {res['failed'] / res['attempted']:>16.6g} ratio "
              f"({res['failed']} of {res['attempted']} operations)")
        print(f"wall clock: op p50 {res['wall_p50_ms']:.6g} ms, summed wall / CPU time "
              f"{res['wall_over_cpu']:.3f}")
        print(f"op_tail_ms is p{res['tail_percentile']:.1f} of {res['window_ops']:g} samples, "
              f"median over {res['windows']} window(s); {res['samples']} samples in all")
    print(f"# ops={res['attempted']} items={res['items']} timed_s={res['timed_s']:.3f} "
          f"details={out_file.relative_to(ROOT)}")
    for p in problems:
        print(f"FAIL {p}")

    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
