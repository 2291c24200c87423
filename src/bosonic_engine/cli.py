"""Command-line front end.

One subcommand per sweep mode; flags mirror the SweepSpec fields and
``--config PATH`` loads a JSON document that the flags then override.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .errors import CycleConsistencyError, PhysicalityError
from .sweep import MODES, SweepSpec, UsageError, build_spec, load_config, run_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, without the usage block
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _Parser(
        prog="bosonic-engine",
        description="Gaussian heat-engine sweeps, cycle traces and relaxation "
        "trajectories (natural units hbar = omega = k_B = 1).",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    fields = [f for f in dataclasses.fields(SweepSpec) if f.name != "mode"]
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} computation")
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for f in fields:
            meta = f.metadata
            p.add_argument(meta.get("flag", "--" + f.name.replace("_", "-")), dest=f.name,
                           type=float if f.default is None else type(f.default),  # dt_max: None
                           choices=meta.get("choices"), help=meta.get("help"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        flags = vars(parser.parse_args(argv))
    except SystemExit as exc:
        # argparse already printed its message; normalize its usage code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        values = {}
        if config := flags.pop("config"):
            with open(config) as fh:
                values = load_config(fh.read())
        # flags override the config; the subcommand always sets the mode
        values.update((key, flag) for key, flag in flags.items() if flag is not None)
        spec = build_spec(values)
        path = run_sweep(spec)
    except (PhysicalityError, CycleConsistencyError,
            ArithmeticError) as exc:  # FloatingPointError and OverflowError among them
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
