"""The package's public names and the README's library quick start."""

import ast
import contextlib
import io
import re
import types
from pathlib import Path

import bosonic_engine

README = Path(__file__).resolve().parent.parent / "README.md"

# The package __init__ imports are the one declaration of the public API;
# a name is added or removed here on purpose.
PUBLIC_NAMES = [
    "BOUNDARY_TOL", "BathSpec", "CovarianceMatrix", "CycleConsistencyError", "CycleKind",
    "CycleReport", "EnergyDelta", "EngineConfig", "MomentState", "MomentTrajectory",
    "PhysicalityError", "SCHEMA_VERSION", "SqueezedThermalState",
    "StrokeRecord", "SweepSpec", "ThermoPath", "UsageError", "bose_einstein",
    "carnot_efficiency", "classicality", "classify_region", "closed_form_terms",
    "covariance_of", "critical_squeezing", "evolve", "generalized_efficiency_closed_form",
    "generalized_r_hot", "internal_energy", "is_p_representable",
    "otto_efficiency", "parse_config", "piecewise_linear_path", "report_to_dict",
    "report_to_json", "run_generalized", "run_otto", "run_sweep",
    "steady_state", "tau_of_occupancy", "work_heat_along", "write_trajectory_csv",
]


def test_public_names_are_pinned():
    # submodules become attributes once imported anywhere, so they are left out
    names = sorted(name for name, value in vars(bosonic_engine).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_no_module_declares_all():
    # a second list of public names would drift from the package's imports
    for path in Path(bosonic_engine.__file__).parent.glob("*.py"):
        assert not re.search(r"^__all__\b", path.read_text(), re.M), path.name


def test_no_module_shares_an_errstate():
    # numpy 1.x keeps the state an errstate replaces on the instance, so an
    # instance built once (a decorator or a module-level name) and entered
    # again before its exit restores the wrong state; each call builds its own
    for path in Path(bosonic_engine.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        in_bodies = {id(node) for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for statement in fn.body for node in ast.walk(statement)}
        shared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "errstate"
                  and id(node) not in in_bodies]
        assert not shared, (path.name, shared)


def test_readme_quick_start_prints_the_documented_values():
    """Run the README's python block; each commented print shows its output.

    A comment `# 0.35194... = ...` gives the printed number to within one
    unit of its last digit, `# "ii"` the whole printed text.
    """
    text = README.read_text()
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    documented = re.findall(r"^print\(.*\)\s+# (\S+)", code, re.M)
    assert len(documented) == 3 and len(printed) == 4
    for line, doc in zip(printed, documented):
        if doc.endswith("..."):
            digits = doc[:-3]
            assert abs(float(line) - float(digits)) < 10.0 ** -len(digits.split(".")[1]), doc
        else:
            assert line == doc.strip('"'), (line, doc)
    assert printed[3].startswith('{"schema_version": 2, "strokes": [{"label": "squeeze"')
