"""Command-line front end.

One subcommand per sweep mode; flags mirror the SweepSpec fields and
``--config PATH`` loads a JSON document that the flags then override.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import CycleConsistencyError, PhysicalityError, QuadratureError
from .sweep import MODES, UsageError, build_spec, run_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="bosonic-engine",
        description="Gaussian heat-engine sweeps, cycle traces and relaxation "
        "trajectories (natural units hbar = omega = k_B = 1).",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} computation")
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--tau-cold", type=float, dest="tau_cold")
        p.add_argument("--tau-hot", type=float, dest="tau_hot")
        p.add_argument("--tau-third", type=float, dest="tau_third",
                       help="third temperature of the classicality-curve mode")
        p.add_argument("--r-min", type=float, dest="r_min")
        p.add_argument("--r-max", type=float, dest="r_max")
        p.add_argument("--points", type=int)
        p.add_argument("--output", dest="output_path", help="CSV output path")
        p.add_argument("--quad-tol", type=float, dest="quad_tol",
                       help="accepted and validated; no mode integrates a path")
        p.add_argument("--kind", choices=("otto", "generalized"),
                       help="cycle kind for cycle-trace")
        p.add_argument("--r-work", type=float, dest="r_work",
                       help="working squeezing (cycle-trace) / bath squeezing (relaxation)")
        p.add_argument("--gamma", type=float, help="relaxation rate")
        p.add_argument("--t-final", type=float, dest="t_final")
        p.add_argument("--dt-max", type=float, dest="dt_max")
    return parser


_SPEC_KEYS = (
    "tau_cold", "tau_hot", "tau_third", "r_min", "r_max", "points",
    "output_path", "quad_tol", "kind", "r_work", "gamma", "t_final", "dt_max",
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; normalize its usage code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        values: dict = {}
        if args.config:
            with open(args.config) as fh:
                text = fh.read()
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise UsageError(f"configuration is not valid JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise UsageError("configuration must be a JSON object")
            values.update(raw)
        values["mode"] = args.mode  # the subcommand always wins
        for key in _SPEC_KEYS:
            flag = getattr(args, key)
            if flag is not None:
                values[key] = flag
        spec = build_spec(values)
        path = run_sweep(spec)
    except (QuadratureError, PhysicalityError, CycleConsistencyError,
            FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {path} and {path}.manifest.json")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
