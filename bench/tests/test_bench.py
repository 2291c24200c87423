"""Tests of the benchmark harness itself (not of the package).

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import importlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import oracles
import worker
import workloads
from tracer import SPANS, Tracer


def _run_op(tmp_path, op):
    runner = worker.Runner(tmp_path)
    output = runner.execute(op, None)[2]
    return runner, output


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_every_workload(tmp_path, name):
    result = worker.run(name, 3, tmp_path, seconds=0.0, tiny=True)
    assert result["attempted"] >= worker.MIN_OPS
    assert result["failed"] == 0, result["failures"]
    assert result["warmup_problems"] == []
    assert result["items"] > 0 and result["items_per_s"] > 0
    assert result["op_tail_ms"] >= result["op_p50_ms"] > 0
    assert result["wall_over_cpu"] > 0 and len(result["wall_s"]) == result["attempted"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_run_meets_bypass_predictions(tmp_path, name):
    result = worker.run(name, 4, tmp_path, blocks=2, trace=True, tiny=True)
    assert result["failed"] == 0, result["failures"]
    assert result["bypass_violations"] == []
    layers = result["layers"]
    assert 0.9 < layers["trace.self_time_share"] <= 1.0
    assert layers["trace.ops"] == result["attempted"] == 2 * len(next(workloads.blocks(name, 4)))
    assert result["spans"] and result["spans"][0]["names"][0] == "op"


def test_same_seed_same_inputs():
    first = next(workloads.blocks("grid-sweeps", 7))
    again = next(workloads.blocks("grid-sweeps", 7))
    other = next(workloads.blocks("grid-sweeps", 8))
    assert first == again and first != other
    assert workloads.params_digest("relax", 7) == workloads.params_digest("relax", 7)
    assert workloads.params_digest("relax", 7) != workloads.params_digest("relax", 8)


def test_blocks_cover_every_stratum():
    block = next(workloads.blocks("gen-sweep", 1))
    strata = sorted(int((op.params["points"] - 101) / (401 / len(block))) for op in block)
    assert strata == list(range(len(block)))


def _check(mode, params, text):
    return oracles.check_sweep(mode, params, io.StringIO(text))


def _sweep_csv(tmp_path, mode, **params):
    op = workloads.Op(mode, params)
    runner, output = _run_op(tmp_path, op)
    assert output == ("exit", 0)
    with open(runner.csv) as fh:
        return op, runner, fh.read()


@pytest.mark.parametrize("mode,params", [
    ("generalized-sweep", {"points": 9, "tau_cold": 0.5, "tau_hot": 1.7, "r_max": 2.0}),
    ("relaxation", {"gamma": 2.0, "t_final": 0.05, "r_work": 0.4}),
    ("otto-sweep", {"points": 9}),
    ("phase-diagram", {"points": 9}),
    ("classicality-curve", {"points": 9, "tau_third": 4.0}),
])
def test_checker_accepts_good_output_and_flags_corruption(tmp_path, mode, params):
    op, _, text = _sweep_csv(tmp_path, mode, **params)
    rows, problems = _check(mode, op.params, text)
    assert problems == [] and rows > 2

    lines = text.split("\n")
    cells = lines[2].split(",")
    j = next(k for k, c in enumerate(cells) if k > 0 and c not in ("i", "ii", "iii", "boundary"))
    cells[j] = repr(float(cells[j]) * (1 + 1e-6) + 1e-9)
    corrupted = "\n".join(lines[:2] + [",".join(cells)] + lines[3:])
    assert _check(mode, op.params, corrupted)[1]

    nan_row = ",".join("nan" if c not in ("i", "ii", "iii", "boundary") else c
                       for c in lines[3].split(","))
    with_nan = "\n".join(lines[:3] + [nan_row] + lines[4:])
    assert any("non-finite" in p for p in _check(mode, op.params, with_nan)[1])

    truncated = "\n".join(lines[:-2]) + "\n"
    assert _check(mode, op.params, truncated)[1]


def test_checker_reads_past_the_first_chunk(tmp_path):
    op, _, text = _sweep_csv(tmp_path, "relaxation", gamma=1.0, t_final=2.0)
    assert _check("relaxation", op.params, text) == (2001, [])
    lines = text.split("\n")
    row = 3 * oracles.CHUNK_ROWS + 5
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) + 1e-7)
    corrupted = "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:])
    problems = _check("relaxation", op.params, corrupted)[1]
    assert problems and f"first at row {row}:" in problems[0]


def test_checker_flags_wrong_region_label(tmp_path):
    op, _, text = _sweep_csv(tmp_path, "otto-sweep", points=9)
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[2] = "iii" if cells[2] != "iii" else "i"
    bad = "\n".join([lines[0], ",".join(cells)] + lines[2:])
    assert any("region" in p for p in _check("otto-sweep", op.params, bad)[1])


def test_traced_run_cut_by_the_wall_cap_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "WALL_CAP_S", 0.0)
    result = worker.run("cycle-reports", 5, tmp_path, blocks=3, trace=True, tiny=True)
    assert result["truncated"] == "run truncated after 1 of 3 blocks by the 0 s wall-time cap"
    untraced = worker.run("cycle-reports", 5, tmp_path, seconds=0.0, tiny=True)
    assert untraced["truncated"] is None


def test_nonzero_exit_code_is_a_failure(tmp_path):
    op = workloads.Op("relaxation", {"gamma": -1.0})
    runner, output = _run_op(tmp_path, op)
    assert output[0] == "exit" and output[1].startswith("2:")
    items, problems = runner.check(op, output)
    assert items == 0 and problems and "exit code" in problems[0]


@pytest.mark.parametrize("kind", ["otto", "generalized"])
def test_report_checker(tmp_path, kind):
    params = {"kind": kind, "tau_cold": 0.7, "tau_hot": 2.5, "r_work": 1.1}
    op = workloads.Op("cycle", params)
    runner, output = _run_op(tmp_path, op)
    assert runner.check(op, output) == (1, [])
    text = output[1]

    doc = json.loads(text)
    doc["efficiency"] *= 1 + 1e-6
    assert any("efficiency" in p for p in oracles.check_report(params, json.dumps(doc)))
    doc = json.loads(text)
    doc["strokes"][1]["heat_in"] += 1e-6
    assert any("closure" in p for p in oracles.check_report(params, json.dumps(doc)))
    doc = json.loads(text)
    doc["classicality_trace"]["n"][5] = float("nan")
    assert any("non-finite" in p for p in oracles.check_report(params, json.dumps(doc)))
    assert oracles.check_report(params, text[: len(text) // 2])


def test_oracles_match_acceptance_reference_values():
    q, w = oracles.generalized_oracle(1.0, 2.0, 0.5)
    assert float(q) == pytest.approx(2.008733449599167, abs=1e-12)
    assert float(w) == pytest.approx(1.0492160739316962, abs=1e-12)
    assert oracles.critical_r(2.0) == pytest.approx(0.7034145568736476, abs=1e-14)
    assert float(oracles.otto_eta(0.5)) == pytest.approx(1 - 1 / math.cosh(1.0), abs=1e-15)
    assert oracles.relax_rows({"gamma": 2.0, "t_final": 10.0}) == 20001


def _bound_attributes():
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bosonic_engine" or name.startswith("bosonic_engine.")]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    snapshot[("scipy.integrate", "quad")] = importlib.import_module("scipy.integrate").quad
    return snapshot


def test_tracer_restores_every_function(tmp_path):
    import bosonic_engine.cli  # noqa: F401  (loads every module)

    before = _bound_attributes()
    with Tracer() as tracer:
        import bosonic_engine.cycles as cycles
        assert cycles.run_otto is not before[("bosonic_engine.cycles", "run_otto")]
        assert tracer._patched
    after = _bound_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    end = tracer.op_span()
    wrapped_outer = tracer._wrap("cycles.classify_region", lambda: wrapped_inner())
    wrapped_inner = tracer._wrap("states.bose_einstein", lambda: sum(range(20000)))
    wrapped_outer()
    end()
    tracer.fold(0, keep=True)
    outer = tracer.calls["cycles.classify_region"], tracer.self_s["cycles.classify_region"]
    inner = tracer.calls["states.bose_einstein"], tracer.self_s["states.bose_einstein"]
    span = tracer.kept[0]
    total = span["end"][0] - span["start"][0]
    assert outer[0] == inner[0] == 1
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert inner[1] > outer[1] >= 0
    assert span["parent"] == [-1, 0, 1]


def test_spans_cover_every_layer_module():
    assert {name.split(".")[0] for name in SPANS} == {
        "states", "thermo", "dynamics", "cycles", "sweep", "cli"}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in worker.ROOT.joinpath("bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "relax",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_summary_tail_and_rate_definitions():
    records = [{"block": k // 8, "latency_s": float(k + 1), "items": 2} for k in range(40)]
    summary = worker.summarize(records)
    assert summary["samples"] == 40 and summary["windows"] == 1
    assert summary["op_tail_ms"] == 30_000.0  # ten samples (31..40) lie beyond it
    assert summary["tail_percentile"] == 75.0
    assert np.isclose(summary["op_p50_ms"], 20_500.0)
    assert summary["items_per_s"] == pytest.approx(80 / sum(range(1, 41)))

    many = [{"block": k // 16, "latency_s": 1e-3 * (1 + k % 16), "items": 1} for k in range(2560)]
    summary = worker.summarize(many)
    assert summary["windows"] == 10 and summary["window_ops"] == 256
    assert summary["op_tail_ms"] == pytest.approx(16.0)  # 16 copies of 16 ms per window
