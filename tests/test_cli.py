import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonic_engine import cli
from bosonic_engine.states import bose_einstein, critical_squeezing
from bosonic_engine.sweep import (
    COLUMNS,
    SweepSpec,
    UsageError,
    parse_config,
    run_sweep,
    serialize_spec,
)


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        spec = parse_config('{"mode": "otto-sweep", "tau_cold": 1.0, "tau_hot": 2.0}')
        assert spec.mode == "otto-sweep"
        assert spec.points == 201
        assert spec.quad_tol == 1e-10
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
            {"mode": "bad-mode", "points": 1, "r_min": 2.0, "r_max": 1.0, "quad_tol": 0.5}
        )
        with pytest.raises(UsageError) as err:
            parse_config(doc)
        message = str(err.value)
        for fragment in ("mode", "points", "r_min", "quad_tol"):
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
        assert parse_config(serialize_spec(spec)) == spec


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

    def test_numeric_failure_exit_three(self, tmp_path, monkeypatch, capsys):
        from bosonic_engine.errors import QuadratureError

        def boom(spec):
            raise QuadratureError("did not converge")

        monkeypatch.setattr(cli, "run_sweep", boom)
        code = cli.main(["otto-sweep", "--output", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numeric" in capsys.readouterr().err


def test_spec_defaults_match_documented_values():
    spec = SweepSpec(mode="otto-sweep")
    assert spec.tau_cold == 1.0 and spec.tau_hot == 2.0
    assert spec.points == 201 and spec.quad_tol == 1e-10


class TestNumericRobustness:
    def test_overflowing_generalized_sweep_leaves_no_files(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code = cli.main(["generalized-sweep", "--r-max", "400", "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = ("import sys, bosonic_engine.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
