import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from bosonic_engine import (CycleConsistencyError, PhysicalityError, cli,
                            piecewise_linear_path, work_heat_along)
from bosonic_engine.dynamics import (MAX_RK4_STEPS, BathSpec, MomentState, evolve,
                                     write_trajectory_csv)
from bosonic_engine.states import bose_einstein, critical_squeezing
from bosonic_engine.sweep import (
    COLUMNS,
    MAX_POINTS,
    MODES,
    SweepSpec,
    UsageError,
    build_spec,
    parse_config,
    run_sweep,
)
from textdiff import assert_equal_text


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        spec = parse_config('{"mode": "otto-sweep", "tau_cold": 1.0, "tau_hot": 2.0}')
        assert spec.mode == "otto-sweep"
        assert spec.points == 201
        assert spec.r_min == 0.0 and spec.r_max == 3.0
        assert spec.output_path == "otto-sweep.csv"

    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError, match="unknown keys"):
            parse_config('{"mode": "otto-sweep", "bananas": 3}')

    def test_inverted_temperatures_name_both_values(self):
        with pytest.raises(UsageError) as err:
            parse_config('{"mode": "otto-sweep", "tau_cold": 2.5, "tau_hot": 1.5}')
        assert "2.5" in str(err.value) and "1.5" in str(err.value)

    def test_all_violations_listed(self):
        doc = json.dumps(
            {"mode": "bad-mode", "points": 1, "r_min": 2.0, "r_max": 1.0, "gamma": -0.5}
        )
        with pytest.raises(UsageError) as err:
            parse_config(doc)
        message = str(err.value)
        for fragment in ("mode", "points", "r_min", "gamma"):
            assert fragment in message

    def test_missing_mode(self):
        with pytest.raises(UsageError, match="mode"):
            parse_config("{}")

    def test_malformed_json(self):
        with pytest.raises(UsageError, match="JSON"):
            parse_config("{not json")
        with pytest.raises(UsageError):
            parse_config("[1, 2]")

    @settings(max_examples=50, deadline=None)
    @given(
        mode=st.sampled_from(("otto-sweep", "classicality-curve", "relaxation")),
        tau_cold=st.floats(min_value=0.1, max_value=2.0),
        dtau=st.floats(min_value=0.1, max_value=3.0),
        r_max=st.floats(min_value=0.5, max_value=4.0),
        points=st.integers(min_value=2, max_value=500),
        r_work=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_round_trip(self, mode, tau_cold, dtau, r_max, points, r_work):
        spec = parse_config(
            json.dumps(
                {
                    "mode": mode,
                    "tau_cold": tau_cold,
                    "tau_hot": tau_cold + dtau,
                    "r_max": r_max,
                    "points": points,
                    "r_work": r_work,
                }
            )
        )
        assert parse_config(json.dumps(vars(spec))) == spec


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestRunSweep:
    def test_otto_sweep_row_at_half(self, tmp_path):
        out = tmp_path / "otto.csv"
        spec = parse_config(json.dumps({
            "mode": "otto-sweep", "r_min": 0.0, "r_max": 3.0, "points": 301,
            "output_path": str(out),
        }))
        run_sweep(spec)
        header, rows = read_csv(out)
        assert header == list(COLUMNS["otto-sweep"])
        assert len(rows) == 301
        row = rows[50]
        assert float(row[0]) == pytest.approx(0.5, abs=1e-12)
        assert float(row[1]) == pytest.approx(0.351946, abs=1e-6)
        assert row[2] == "ii"

    def test_classicality_curve_zero_crossings(self, tmp_path):
        out = tmp_path / "curve.csv"
        spec = parse_config(json.dumps({
            "mode": "classicality-curve", "tau_cold": 1.0, "tau_hot": 2.0,
            "tau_third": 3.0, "r_min": 0.0, "r_max": 1.2, "points": 3001,
            "output_path": str(out),
        }))
        run_sweep(spec)
        header, rows = read_csv(out)
        assert header == list(COLUMNS["classicality-curve"])
        data = np.array([[float(x) for x in row] for row in rows])
        for col, tau in zip((1, 2, 3), (1.0, 2.0, 3.0)):
            c = data[:, col]
            i = int(np.flatnonzero(np.diff(np.sign(c)) != 0)[0])
            r0, r1 = data[i, 0], data[i + 1, 0]
            crossing = r0 - c[i] * (r1 - r0) / (c[i + 1] - c[i])
            assert crossing == pytest.approx(critical_squeezing(tau), abs=1e-5)

    def test_generalized_sweep_schema(self, tmp_path):
        out = tmp_path / "gen.csv"
        spec = parse_config(json.dumps({
            "mode": "generalized-sweep", "points": 5, "r_min": 0.1, "r_max": 0.9,
            "output_path": str(out),
        }))
        run_sweep(spec)
        header, rows = read_csv(out)
        assert header == list(COLUMNS["generalized-sweep"])
        assert len(rows) == 5
        # ledger and printed efficiencies are distinct, inspectable columns
        assert float(rows[2][2]) != float(rows[2][3])

    def test_cycle_trace_schema(self, tmp_path):
        out = tmp_path / "trace.csv"
        spec = parse_config(json.dumps({
            "mode": "cycle-trace", "kind": "generalized", "r_work": 0.5,
            "output_path": str(out),
        }))
        run_sweep(spec)
        header, rows = read_csv(out)
        assert header == list(COLUMNS["cycle-trace"])
        assert len(rows) == 4 * 256
        assert rows[0][0] == "squeeze" and rows[-1][0] == "cold-contact"

    def test_relaxation_schema(self, tmp_path):
        out = tmp_path / "relax.csv"
        spec = parse_config(json.dumps({
            "mode": "relaxation", "tau_cold": 1.0, "tau_hot": 2.0, "r_work": 0.3,
            "gamma": 1.0, "t_final": 2.0, "dt_max": 0.01, "output_path": str(out),
        }))
        run_sweep(spec)
        header, rows = read_csv(out)
        assert header == list(COLUMNS["relaxation"])
        assert len(rows) == 201
        assert float(rows[0][1]) == pytest.approx(bose_einstein(1.0), rel=1e-12)

    def test_phase_diagram_schema(self, tmp_path):
        out = tmp_path / "phase.csv"
        spec = parse_config(json.dumps({
            "mode": "phase-diagram", "points": 31, "r_min": 0.0, "r_max": 1.2,
            "output_path": str(out),
        }))
        run_sweep(spec)
        header, rows = read_csv(out)
        assert header == list(COLUMNS["phase-diagram"])
        regions = [row[1] for row in rows]
        assert regions[0] == "i" and regions[-1] == "iii" and "ii" in regions

    def test_minimal_two_point_sweep(self, tmp_path):
        out = tmp_path / "tiny.csv"
        spec = parse_config(json.dumps({
            "mode": "otto-sweep", "points": 2, "r_min": 1.0, "r_max": 1.0 + 1e-6,
            "output_path": str(out),
        }))
        run_sweep(spec)
        header, rows = read_csv(out)
        assert header == list(COLUMNS["otto-sweep"])
        assert len(rows) == 2
        assert float(rows[0][0]) == pytest.approx(1.0)
        assert float(rows[1][0]) == pytest.approx(1.0 + 1e-6)

    def test_grid_includes_both_endpoints(self, tmp_path):
        out = tmp_path / "grid.csv"
        spec = parse_config(json.dumps({
            "mode": "otto-sweep", "points": 301, "r_min": 0.0, "r_max": 3.0,
            "output_path": str(out),
        }))
        run_sweep(spec)
        _, rows = read_csv(out)
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 3.0

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "otto.csv"
        spec = parse_config(json.dumps({
            "mode": "otto-sweep", "points": 3, "output_path": str(out),
        }))
        run_sweep(spec)
        manifest = json.loads((tmp_path / "otto.csv.manifest.json").read_text())
        assert manifest["columns"] == list(COLUMNS["otto-sweep"])
        assert manifest["spec"]["points"] == 3
        assert "natural units" in manifest["units_note"]
        assert manifest["duration_seconds"] >= 0.0
        assert manifest["tool_version"]
        assert manifest["schema_version"] == 2
        assert "quad_tol" not in manifest["spec"]

    def test_manifest_text_is_json_dump_text(self, tmp_path):
        # one json.dumps and one write give the text json.dump wrote, timings included
        spec = build_spec({"mode": "relaxation", "t_final": 0.5, "dt_max": 0.01,
                           "output_path": str(tmp_path / "r.csv")})
        run_sweep(spec)
        text = (tmp_path / "r.csv.manifest.json").read_text()
        manifest = json.loads(text)
        assert manifest["spec"] == dataclasses.asdict(spec)
        dumped = io.StringIO()
        json.dump({**manifest, "spec": dataclasses.asdict(spec)}, dumped, indent=2,
                  sort_keys=True)
        assert text == dumped.getvalue() + "\n"

    def test_deterministic_output(self, tmp_path):
        payloads = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            spec = parse_config(json.dumps({
                "mode": "generalized-sweep", "points": 11, "r_min": 0.0,
                "r_max": 1.5, "output_path": str(out),
            }))
            run_sweep(spec)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


class TestCliMain:
    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "otto.csv"
        code = cli.main(["otto-sweep", "--points", "5", "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert "otto.csv" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "otto-sweep", "points": 5,
            "output_path": str(tmp_path / "from-config.csv"),
        }))
        override = tmp_path / "override.csv"
        code = cli.main(["otto-sweep", "--config", str(cfg), "--output", str(override)])
        assert code == 0
        assert override.exists()
        assert not (tmp_path / "from-config.csv").exists()

    def test_usage_error_exit_two(self, tmp_path, capsys):
        code = cli.main([
            "otto-sweep", "--tau-cold", "2", "--tau-hot", "1",
            "--output", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "tau_hot" in capsys.readouterr().err

    def test_unknown_mode_exit_two(self, capsys):
        assert cli.main(["not-a-mode"]) == 2
        err = capsys.readouterr().err
        assert "not-a-mode" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, fragment", [
        ([], "required: MODE"),
        (["otto-sweep", "--points", "x"], "--points: invalid int value: 'x'"),
        (["cycle-trace", "--kind", "carnot"], "--kind: invalid choice: 'carnot'"),
    ])
    def test_argument_errors_are_one_line(self, capsys, argv, fragment):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert fragment in err and err.count("\n") == 1 and err.startswith("bosonic-engine")

    def test_removed_quad_tol_flag_exits_two(self, tmp_path, capsys):
        code = cli.main(["otto-sweep", "--quad-tol", "1e-8", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--quad-tol" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value, fragment", [
        ("quad_tol", 1e-10, "unknown keys: quad_tol"),  # a field of schema version 1
        ("dt_max", True, "dt_max must be > 0 when given, got True"),
        # numbers that fail their own test are not ordered; the whole list follows
        pytest.param(("tau_cold", "tau_hot"), (-1, -2), "spec: tau_cold must be a positive "
                     "number, got -1; tau_hot must be a positive number, got -2\n",
                     id="negative-taus"),
        pytest.param(("r_min", "r_max"), (2, math.nan), "spec: r_max must be finite, got nan\n",
                     id="nan-r_max"),
    ])
    def test_rejected_config_key_exits_two(self, tmp_path, capsys, key, value, fragment):
        keys, values = (key, value) if isinstance(key, tuple) else ((key,), (value,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "relaxation", "t_final": 1.0, **dict(zip(keys, values)),
                                   "output_path": str(tmp_path / "x.csv")}))
        assert cli.main(["relaxation", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert fragment in err and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert cli.main(["otto-sweep", "--config", str(cfg)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_io_failure_exit_four(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = cli.main(["otto-sweep", "--points", "3", "--output", str(missing)])
        assert code == 4
        assert "i/o" in capsys.readouterr().err

    def test_failed_write_removes_staged_files(self, tmp_path):
        out = tmp_path / "otto.csv"
        (tmp_path / "otto.csv.manifest.json.tmp").mkdir()  # the manifest cannot be staged
        assert cli.main(["otto-sweep", "--points", "3", "--output", str(out)]) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["otto.csv.manifest.json.tmp"]

    def test_failed_manifest_rename_removes_the_csv(self, tmp_path, capsys):
        out = tmp_path / "otto.csv"
        (tmp_path / "otto.csv.manifest.json").mkdir()  # the manifest cannot be renamed
        assert cli.main(["otto-sweep", "--points", "3", "--output", str(out)]) == 4
        assert "i/o" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["otto.csv.manifest.json"]

    @pytest.mark.parametrize("error", [PhysicalityError, CycleConsistencyError,
                                       FloatingPointError, OverflowError],
                             ids=lambda error: error.__name__)
    def test_numeric_failure_exit_three(self, tmp_path, monkeypatch, capsys, error):
        def boom(spec):
            raise error("did not converge")

        monkeypatch.setattr(cli, "run_sweep", boom)
        code = cli.main(["otto-sweep", "--output", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: did not converge\n"


class TestSizeCaps:
    """The validator rejects sizes above the caps; nothing of that size is allocated."""

    def test_points_cap(self):
        assert build_spec({"mode": "otto-sweep", "points": MAX_POINTS}).points == MAX_POINTS
        with pytest.raises(UsageError, match="points"):
            build_spec({"mode": "otto-sweep", "points": MAX_POINTS + 1})

    def test_step_cap(self):
        at_cap = {"mode": "relaxation", "t_final": float(MAX_RK4_STEPS), "dt_max": 1.0}
        assert build_spec(at_cap).t_final == MAX_RK4_STEPS
        with pytest.raises(UsageError, match="RK4 steps"):
            build_spec({**at_cap, "t_final": MAX_RK4_STEPS + 1.0})
        with pytest.raises(UsageError, match="RK4 steps"):  # default dt_max = 1e-3/gamma
            build_spec({"mode": "relaxation", "t_final": 1e4, "gamma": 2.0})
        with pytest.raises(UsageError, match="RK4 steps"):
            build_spec({"mode": "relaxation", "t_final": 1e308, "dt_max": 1e-300})

    def test_usage_error_is_one_line(self):
        with pytest.raises(UsageError) as err:
            build_spec({"mode": "otto-sweep", "points": 1, "gamma": -1.0})
        assert "\n" not in str(err.value)


def test_spec_defaults_match_documented_values():
    spec = SweepSpec(mode="otto-sweep")
    assert spec.tau_cold == 1.0 and spec.tau_hot == 2.0
    assert spec.points == 201 and spec.dt_max is None


class TestNumericRobustness:
    def test_overflowing_generalized_sweep_leaves_no_files(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code = cli.main(["generalized-sweep", "--r-max", "400", "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure") and err.count("\n") == 1
        assert "generalized cycle ledger at r_t up to 400:" in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_generalized_trace_names_the_ledger(self, tmp_path, capsys):
        code = cli.main(["cycle-trace", "--kind", "generalized", "--r-work", "350",
                         "--tau-cold", "1e-3", "--tau-hot", "1e3",
                         "--output", str(tmp_path / "trace.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: generalized cycle ledger at r_t up to 350:")
        assert err.count("\n") == 1 and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["otto-sweep", "phase-diagram", "classicality-curve"])
    def test_large_squeezing_rows_stay_finite(self, tmp_path, mode):
        out = tmp_path / "grid.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([mode, "--r-max", "400", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        numeric = [i for i, name in enumerate(header) if name != "region"]
        values = np.array([[float(row[i]) for i in numeric] for row in rows])
        assert len(rows) == 201 and np.all(np.isfinite(values))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "grid.csv", "grid.csv.manifest.json"]


# Runs with scipy unimportable: every CLI mode and one path integral.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # "import scipy" and its submodules now raise ImportError
from bosonic_engine import cli, piecewise_linear_path, work_heat_along
from bosonic_engine.sweep import MODES
for mode in MODES:
    code = cli.main([mode, "--points", "3", "--t-final", "0.05", "--output", mode + ".csv"])
    if code:
        sys.exit(f"{mode} exited {code}")
print(work_heat_along(piecewise_linear_path([(0.0, 0.5), (0.8, 0.5), (0.8, 1.5)])).work_on)
"""


def test_runs_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for mode in MODES for name in (f"{mode}.csv", f"{mode}.csv.manifest.json"))
    work = float(run.stdout.splitlines()[-1])
    assert work == work_heat_along(piecewise_linear_path([(0.0, 0.5), (0.8, 0.5),
                                                          (0.8, 1.5)])).work_on


class TestNumericEdges:
    def test_overflowing_otto_trace_exits_three(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["cycle-trace", "--kind", "otto", "--r-work", "400",
                             "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure") and err.count("\n") == 1
        assert "Otto cycle ledger at r up to 400:" in err
        assert list(tmp_path.iterdir()) == []

    def test_small_temperatures_give_finite_rows(self, tmp_path):
        out = tmp_path / "gen.csv"
        code = cli.main(["generalized-sweep", "--tau-cold", "1e-3", "--tau-hot", "2e-3",
                         "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        values = np.array([[float(x) for x in row[:-1]] for row in rows])
        assert len(rows) == 201 and np.all(np.isfinite(values))

    @pytest.mark.parametrize("flags", [
        ["--gamma", "10", "--t-final", "5", "--dt-max", "1"],
        ["--gamma", "1e308", "--t-final", "1e308", "--dt-max", "1e308"],
    ])
    def test_unstable_rk4_step_exits_two(self, tmp_path, capsys, flags):
        code = cli.main(["relaxation", *flags, "--output", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unstable" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_bath_covariance_exits_three(self, tmp_path, capsys):
        code = cli.main(["relaxation", "--r-work", "400", "--output", str(tmp_path / "r.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_large_bath_squeezing_stays_physical(self, tmp_path):
        # n reaches 5e15, where (n + 1/2)^2 - m^2 rounds to 0 or below 1/4
        out = tmp_path / "r.csv"
        code = cli.main(["relaxation", "--r-work", "20", "--t-final", "1", "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        values = np.array(rows, dtype=float)
        assert len(rows) == 1001 and np.all(np.isfinite(values))
        assert values[0, 1] == float(f"{bose_einstein(1.0):.15g}") and values[-1, 1] > 1e16

    def test_step_count_above_cap_exits_two(self, tmp_path, capsys):
        code = cli.main(["relaxation", "--t-final", "1e308", "--dt-max", "1e-300",
                         "--output", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "RK4 steps" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_large_stable_rk4_step_exits_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        code = cli.main(["relaxation", "--gamma", "2.7", "--t-final", "3", "--dt-max", "1",
                         "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 4 and all(float(row[1]) >= 0.0 for row in rows)

    def test_equal_temperatures_accepted(self, tmp_path):
        out = tmp_path / "gen.csv"
        code = cli.main(["generalized-sweep", "--tau-cold", "1", "--tau-hot", "1",
                         "--points", "11", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        assert all(float(x) == 0.0 for x in cols["eta_generalized_ledger"])
        assert all(float(x) == 1.0 for x in cols["eta_printed_fg"])
        assert all(float(x) == 0.0 for x in cols["eta_carnot"])

    @pytest.mark.parametrize("argv", [
        ["generalized-sweep", "--tau-cold", "1", "--tau-hot", "1.000001", "--r-max", "40",
         "--points", "3"],
        ["cycle-trace", "--kind", "generalized", "--tau-cold", "1", "--tau-hot", "1.000000001",
         "--r-work", "10"],
    ], ids=["generalized-sweep", "cycle-trace"])
    def test_near_equal_temperatures_at_large_squeezing(self, tmp_path, argv):
        # the hot contact's work and heat are small against its energies of order e^{2r}
        out = tmp_path / "near.csv"
        assert cli.main(argv + ["--output", str(out)]) == 0
        header, rows = read_csv(out)
        numeric = [i for i, name in enumerate(header) if name not in ("region", "stroke")]
        assert rows and np.all(np.isfinite([[float(row[i]) for i in numeric] for row in rows]))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "near.csv", "near.csv.manifest.json"]


# A sweep whose CSV has a non-ASCII header name and Labels name.
NON_ASCII_LABELS = """
import numpy as np
from bosonic_engine import sweep
from bosonic_engine.csvformat import Labels
sweep.COLUMNS["relaxation"] = ("t", "stroke\\u00b7name")
sweep._columns = lambda spec: [np.array([0.0, 0.5]),
                               Labels(np.array([1, 0]), ("squeeze", "chaud\\u2013froid"))]
sweep.run_sweep(sweep.build_spec({"mode": "relaxation", "output_path": "u.csv"}))
"""

SMALL_SPECS = {
    "classicality-curve": {"points": 7},
    "otto-sweep": {"points": 7},
    "generalized-sweep": {"points": 7},
    "cycle-trace": {"kind": "generalized", "r_work": 0.5},
    "relaxation": {"t_final": 0.05, "dt_max": 0.01, "r_work": 0.3},
    "phase-diagram": {"points": 7},
}


class TestOutputFormat:
    @pytest.mark.parametrize("mode", MODES)
    def test_lines_end_in_lf_and_header_matches(self, tmp_path, mode):
        out = tmp_path / "out.csv"
        run_sweep(build_spec({"mode": mode, **SMALL_SPECS[mode], "output_path": str(out)}))
        lines = out.read_bytes().split(b"\n")
        assert lines[-1] == b"" and len(lines) > 2
        assert not any(b"\r" in line for line in lines)
        assert lines[0].decode() == ",".join(COLUMNS[mode])

    def test_relaxation_csv_equals_trajectory_writer(self, tmp_path):
        out = tmp_path / "relax.csv"
        assert cli.main(["relaxation", "--tau-cold", "0.7", "--tau-hot", "2.5",
                         "--r-work", "0.4", "--gamma", "1.5", "--t-final", "3",
                         "--output", str(out)]) == 0
        traj = evolve(MomentState(bose_einstein(0.7), 0.0),
                      BathSpec(tau=2.5, r_bath=0.4, gamma=1.5), t_final=3.0, dt_max=1e-3 / 1.5)
        direct = tmp_path / "direct.csv"
        write_trajectory_csv(traj, direct)
        assert_equal_text(out.read_bytes(), direct.read_bytes())

    def test_files_are_the_bytes_of_their_text(self, tmp_path):
        out = tmp_path / "trace.csv"
        run_sweep(build_spec({"mode": "cycle-trace", **SMALL_SPECS["cycle-trace"],
                              "output_path": str(out)}))
        raw = (tmp_path / "trace.csv.manifest.json").read_bytes()
        assert b"\r" not in out.read_bytes() and b"\r" not in raw
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True).encode() + b"\n"

    def test_labels_are_utf8_under_an_ascii_locale(self, tmp_path):
        # In the C locale with UTF-8 mode off, a text-mode file encodes as ASCII.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LC_ALL="C",
                   PYTHONUTF8="0")
        run = subprocess.run([sys.executable, "-c", NON_ASCII_LABELS], env=env, cwd=tmp_path,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "u.csv").read_bytes() == \
            "t,stroke·name\n0,chaud–froid\n0.5,squeeze\n".encode()

    def test_subcommand_flags_unchanged(self):
        expected = {
            "-h", "--help", "--config", "--tau-cold", "--tau-hot", "--tau-third",
            "--r-min", "--r-max", "--points", "--output", "--kind",
            "--r-work", "--gamma", "--t-final", "--dt-max",
        }
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert tuple(sub.choices) == MODES
        for parser in sub.choices.values():
            assert {s for a in parser._actions for s in a.option_strings} == expected


def test_manifest_phases_and_rows(tmp_path):
    out = tmp_path / "relax.csv"
    run_sweep(build_spec({"mode": "relaxation", "t_final": 0.5, "output_path": str(out)}))
    manifest = json.loads((tmp_path / "relax.csv.manifest.json").read_text())
    assert manifest["rows"] == 501 == len(out.read_text().splitlines()) - 1
    phases = manifest["phase_seconds"]
    assert set(phases) == {"compute", "write"} and min(phases.values()) >= 0.0
    assert sum(phases.values()) <= manifest["duration_seconds"] + 1e-9


def test_bath_squeezing_beyond_square_overflow_exits_zero(tmp_path):
    # (n + 1/2)^2 overflows at r_work = 200 although every moment is finite
    out = tmp_path / "r.csv"
    code = cli.main(["relaxation", "--r-work", "200", "--t-final", "1", "--output", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    values = np.array(rows, dtype=float)
    assert len(rows) == 1001 and np.all(np.isfinite(values))
    assert values[-1, 1] > 1e170
    assert values[1, 3] == pytest.approx(0.5808952709705, abs=1e-12)


def physical_rows(n: np.ndarray, m: np.ndarray) -> bool:
    """The uncertainty relation on CSV values, each rounded to 15 digits.

    (n + 1/2)^2 - m^2 >= 1/4 divided by (n + 1/2)^2; the rounding of the
    printed digits moves its left side by up to about 2e-14.
    """
    half = n + 0.5
    ratio = np.abs(m) / half
    return bool(np.all(n >= -1e-9) and np.all((1 - ratio) * (1 + ratio) >= -3e-14))


R_VALUES = [0.0, 5e-324, 1e-9, 0.5, 3.0, 20.0, 177.0, 200.0, 354.0, 356.0, 1e3, 1e308]
TAU_VALUES = [5e-324, 1e-3, 1 / 709, 1 / 746, 0.1, 1.0, 2.0, 1e3, 1e15, 1e300]
GAMMA_DT_VALUES = [5e-324, 1e-9, 1e-3, 0.5, 2.7, 2.785, 2.8, 1e3, 1e308]
T_FINAL_VALUES = [0.0, 5e-324, 1e-3, 1.0, 20.0, 1e308]


# The domain documented in README.md in which cycle-trace and
# generalized-sweep exit 0: temperatures in [1e-3, 1e3] and r_work, or
# r_max, up to these squeezings.
DOMAIN_TAU = (1e-3, 1e3)
DOMAIN_R = {"cycle-trace": ("r-work", 300.0), "generalized-sweep": ("r-max", 300.0)}


def in_documented_domain(mode: str, flags: dict) -> bool:
    if mode not in DOMAIN_R:
        return False
    flag, r_limit = DOMAIN_R[mode]
    return (DOMAIN_TAU[0] <= flags["tau-cold"] <= flags["tau-hot"] <= DOMAIN_TAU[1]
            and flags[flag] <= r_limit)


@pytest.mark.parametrize("argv", [
    ["generalized-sweep", "--r-max", "8", "--points", "3"],
    ["generalized-sweep", "--r-max", "20"],
    ["generalized-sweep", "--r-max", "80", "--tau-cold", "1e-3", "--tau-hot", "1e3"],
    ["generalized-sweep", "--r-max", "80", "--tau-cold", "1e3", "--tau-hot", "1e3"],
    *[["cycle-trace", "--kind", kind, "--r-work", r] for kind in ("otto", "generalized")
      for r in ("8", "100", "300")],
    ["cycle-trace", "--kind", "generalized", "--r-work", "300", "--tau-cold", "1e-3",
     "--tau-hot", "1e3"],
    ["generalized-sweep", "--r-max", "300", "--tau-cold", "1e-3", "--tau-hot", "1e3"],
])
def test_large_squeezing_closes_the_cycle(tmp_path, argv):
    # the closure tolerance scales with the strokes' energies, which grow
    # like e^{2r} (Otto) and e^{4r} (generalized)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows
    for i, name in enumerate(header):
        if name not in ("region", "stroke"):
            assert np.all(np.isfinite([float(row[i]) for row in rows])), name


@pytest.mark.parametrize("r_max", ["100", "300"])
def test_printed_fg_past_its_overflow_is_one(tmp_path, r_max):
    # g grows like e^{8 r_t} and overflows near r_t = 88.7 (e^{4 r_t} near 177.4)
    out = tmp_path / "out.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generalized-sweep", "--r-max", r_max, "--output", str(out)]) == 0
    header, rows = read_csv(out)
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    for name in header[:-1]:
        assert np.all(np.isfinite(np.array(cols[name], dtype=float))), name
    tau_cold, tau_hot = 1.0, 2.0
    with mp.workdps(50):
        x1, x2 = 1 / (2 * mp.mpf(tau_cold)), 1 / (2 * mp.mpf(tau_hot))
        for r_t, eta in zip(cols["r_t"], cols["eta_printed_fg"]):
            if float(r_t) < 20.0:
                continue
            e4 = mp.exp(4 * mp.mpf(r_t))
            f = 4 * mp.exp(2 * mp.mpf(r_t)) * (mp.coth(x2) - mp.coth(x1))
            g = (e4 * mp.tanh(x1) * mp.coth(x2) ** 2 - mp.coth(x1)) * (
                e4 - 2 * mp.log(mp.tanh(x1) * mp.coth(x2)))
            assert float(1 - f / g) == 1.0 and eta == "1", r_t


class TestCliFuzz:
    """cli.main over extreme inputs: a documented exit code, one line, no traceback;
    exit 0 inside the documented domain."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mode=st.sampled_from(MODES),
           r_min=st.sampled_from(R_VALUES), r_max=st.sampled_from(R_VALUES),
           r_work=st.sampled_from(R_VALUES) | st.floats(0.0, 400.0),
           tau_cold=st.sampled_from(TAU_VALUES) | st.floats(1e-3, 1e3),
           tau_ratio=st.sampled_from([1.0, 1.5, 1e3, 1e300]),
           gamma=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]),
           gamma_dt=st.sampled_from(GAMMA_DT_VALUES),
           t_final=st.sampled_from(T_FINAL_VALUES),
           points=st.sampled_from([1, 2, 3, 101, 2000, MAX_POINTS + 1]),
           kind=st.sampled_from(["otto", "generalized"]))
    def test_exit_codes_and_rows(self, tmp_path, mode, r_min, r_max, r_work, tau_cold,
                                 tau_ratio, gamma, gamma_dt, t_final, points, kind):
        dt_max = gamma_dt / gamma
        steps = t_final / dt_max if dt_max > 0 else math.inf
        # keep accepted trajectories small: no run of 20k to MAX_RK4_STEPS steps
        assume(mode != "relaxation" or not 20_000 < steps <= MAX_RK4_STEPS)
        flags = {"r-min": r_min, "r-max": r_max, "r-work": r_work, "tau-cold": tau_cold,
                 "tau-hot": tau_cold * tau_ratio, "tau-third": tau_cold * tau_ratio,
                 "gamma": gamma, "dt-max": dt_max, "t-final": t_final, "points": points}
        argv = [mode, "--kind", kind]
        for flag, value in flags.items():
            argv += [f"--{flag}", repr(value)]
        run_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        run_dir.mkdir()
        out = run_dir / "out.csv"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--output", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4), (argv, code, err)
        try:
            build_spec({"mode": mode, "kind": kind,
                        **{flag.replace("-", "_"): value for flag, value in flags.items()}})
        except UsageError:
            assert code == 2, (argv, code, err)
        else:
            assert code == 0 or not in_documented_domain(mode, flags), (argv, code, err)
        assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
        if code != 0:
            assert err and list(run_dir.iterdir()) == [], (argv, err)
            return
        header, rows = read_csv(out)
        assert header == list(COLUMNS[mode]) and rows
        values = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        numeric = {name: np.array(col, dtype=float) for name, col in values.items()
                   if name not in ("region", "stroke")}
        for name, col in numeric.items():
            assert np.all(np.isfinite(col)), (argv, name)
        if mode == "relaxation":
            assert physical_rows(numeric["n"], numeric["m"]), argv
        if mode == "cycle-trace":
            assert np.all(numeric["sample_n"] >= 0.0), argv

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mode=st.sampled_from(sorted(DOMAIN_R)), kind=st.sampled_from(["otto", "generalized"]),
           tau_cold=st.floats(*DOMAIN_TAU), tau_hot=st.floats(*DOMAIN_TAU),
           r=st.floats(0.0, 1.0, exclude_min=True), points=st.integers(2, 50))
    def test_documented_domain_exits_zero(self, tmp_path, mode, kind, tau_cold, tau_hot, r,
                                          points):
        flag, r_limit = DOMAIN_R[mode]
        tau_cold, tau_hot = sorted([tau_cold, tau_hot])
        argv = [mode, "--kind", kind, "--tau-cold", repr(tau_cold), "--tau-hot", repr(tau_hot),
                f"--{flag}", repr(r * r_limit), "--points", str(points),
                "--output", str(tmp_path / "out.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


@pytest.mark.parametrize("argv, code", [
    # e^{4 (r_R - r_t)} overflows in the ledger: an OverflowError traceback before
    (["generalized-sweep", "--tau-cold", "0.001", "--tau-hot", "1e297"], 3),
    # the printed 1 - f/g overflows e^{4 r_t} where the ledger does not; it is 1 there
    (["generalized-sweep", "--tau-cold", "5e-324", "--tau-hot", "5e-324", "--r-max", "200"], 0),
    # 2 r_bath overflows to inf: NaN moments and a RuntimeWarning before
    (["relaxation", "--r-work", "1e308", "--t-final", "1"], 3),
    # -2r overflows where e^{-2r} is 0: C = -1/2, and a RuntimeWarning before
    (["classicality-curve", "--r-max", "1e308", "--points", "3"], 0),
    # 2r overflowed in eta_otto = tanh r tanh 2r, which is 1 there
    (["otto-sweep", "--r-max", "1e308", "--points", "3"], 0),
])
def test_overflow_found_by_fuzzing(tmp_path, capsys, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--output", str(tmp_path / "out.csv")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (code != 0) and "Traceback" not in err
