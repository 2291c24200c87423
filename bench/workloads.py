"""Seeded input generators for the four benchmark workloads.

Every workload is a stream of blocks.  Each block is a Latin-hypercube
sample of the workload's documented parameter ranges: every continuous
parameter is split into as many equal strata as the block has
operations, and each operation draws from a different stratum.  The seed
picks the stratum order and the position inside each stratum, so two
seeds give different inputs with the same size distribution.  That keeps
latency percentiles and throughput comparable across seeds while the
program still sees fresh inputs.

The program receives only what these generators produce: a CLI argv, or
the fields of an ``EngineConfig``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("gen-sweep", "relax", "grid-sweeps", "cycle-reports")

# Temperature ranges shared by every workload (tau_hot = tau_cold * ratio).
TAU_COLD = (0.2, 2.0)
TAU_RATIO = (1.2, 5.0)

GRID_MODES = ("otto-sweep", "phase-diagram", "classicality-curve")

# Number of blocks folded into the parameter digest; independent of how
# many blocks a run completes, so two runs of one seed always match.
DIGEST_BLOCKS = 16


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (``argv``) or a library cycle call (``cycle``)."""

    kind: str
    params: dict

    def argv(self, output: str) -> list[str]:
        """CLI argv for a sweep operation, writing its CSV to ``output``."""
        flags = [self.kind]
        for key, value in self.params.items():
            flags += ["--" + key.replace("_", "-"), repr(value)]
        return flags + ["--output", output]


def _lhs(rng: random.Random, size: int, lo: float, hi: float) -> list[float]:
    """One draw per stratum of [lo, hi), in a seeded order.

    Each draw falls in the middle half of its stratum, so the order
    statistics of a block (its median and its tail) move little from seed
    to seed.
    """
    order = list(range(size))
    rng.shuffle(order)
    width = (hi - lo) / size
    return [lo + (k + 0.25 + 0.5 * rng.random()) * width for k in order]


def _lhs_int(rng: random.Random, size: int, lo: int, hi: int) -> list[int]:
    return [min(hi, int(v)) for v in _lhs(rng, size, lo, hi + 1)]


def _temperatures(rng: random.Random, size: int) -> list[tuple[float, float]]:
    cold = _lhs(rng, size, *TAU_COLD)
    ratio = _lhs(rng, size, *TAU_RATIO)
    return [(c, c * q) for c, q in zip(cold, ratio)]


def _gen_sweep_block(rng: random.Random) -> list[Op]:
    size = 8
    temps = _temperatures(rng, size)
    points = _lhs_int(rng, size, 101, 501)
    r_max = _lhs(rng, size, 1.0, 3.0)
    return [
        Op("generalized-sweep", {"tau_cold": tc, "tau_hot": th,
                                 "r_max": rm, "points": p})
        for (tc, th), p, rm in zip(temps, points, r_max)
    ]


def _relax_block(rng: random.Random) -> list[Op]:
    # An odd size puts the run's median operation in the middle stratum of
    # gamma * t_final, which sets its step count; a run holds only 4-5 of
    # these blocks, and with 8 strata op_p50_ms swung by 12% between seeds.
    size = 9
    temps = _temperatures(rng, size)
    gamma = _lhs(rng, size, 0.2, 5.0)
    gamma_t = _lhs(rng, size, 5.0, 20.0)
    r_work = _lhs(rng, size, 0.0, 1.5)
    return [
        Op("relaxation", {"tau_cold": tc, "tau_hot": th, "r_work": r,
                          "gamma": g, "t_final": gt / g})
        for (tc, th), g, gt, r in zip(temps, gamma, gamma_t, r_work)
    ]


def _grid_block(rng: random.Random) -> list[Op]:
    per_mode = 4
    ops = []
    for mode in GRID_MODES:
        temps = _temperatures(rng, per_mode)
        points = _lhs_int(rng, per_mode, 301, 3001)
        r_max = _lhs(rng, per_mode, 1.0, 3.0)
        third = _lhs(rng, per_mode, *TAU_RATIO)
        for (tc, th), p, rm, q in zip(temps, points, r_max, third):
            params = {"tau_cold": tc, "tau_hot": th, "r_max": rm, "points": p}
            if mode == "classicality-curve":
                params["tau_third"] = th * q
            ops.append(Op(mode, params))
    rng.shuffle(ops)
    return ops


def _cycle_block(rng: random.Random) -> list[Op]:
    per_kind = 8
    ops = []
    for kind in ("otto", "generalized"):
        temps = _temperatures(rng, per_kind)
        r_work = _lhs(rng, per_kind, 0.0, 3.0)
        ops += [Op("cycle", {"kind": kind, "tau_cold": tc, "tau_hot": th, "r_work": r})
                for (tc, th), r in zip(temps, r_work)]
    rng.shuffle(ops)
    return ops


_BLOCKS = {
    "gen-sweep": _gen_sweep_block,
    "relax": _relax_block,
    "grid-sweeps": _grid_block,
    "cycle-reports": _cycle_block,
}

# A traced run does a fixed amount of work, the first TRACE_BLOCKS blocks
# of the seed's stream (about 10-15 s at the seed commit on 2 cores), so
# its counts repeat exactly for a seed and its self times compare across
# commits.
TRACE_BLOCKS = {"gen-sweep": 16, "relax": 3, "grid-sweeps": 30, "cycle-reports": 150}

# One small operation per operation kind, run untimed before the loop so
# first-call costs (file creation, lazy imports) are not measured.
WARMUP = {
    "gen-sweep": [Op("generalized-sweep", {"points": 11})],
    "relax": [Op("relaxation", {"gamma": 1.0, "t_final": 0.5})],
    "grid-sweeps": [Op(mode, {"points": 11}) for mode in GRID_MODES],
    "cycle-reports": [
        Op("cycle", {"kind": k, "tau_cold": 1.0, "tau_hot": 2.0, "r_work": 0.5})
        for k in ("otto", "generalized")
    ],
}


def blocks(workload: str, seed: int):
    """Endless, deterministic stream of operation blocks for one seed."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    make = _BLOCKS[workload]
    while True:
        yield make(rng)


def params_digest(workload: str, seed: int) -> str:
    """SHA-256 over the first DIGEST_BLOCKS blocks of the stream."""
    stream = blocks(workload, seed)
    head = [[(op.kind, op.params) for op in next(stream)] for _ in range(DIGEST_BLOCKS)]
    return hashlib.sha256(json.dumps(head, sort_keys=True).encode()).hexdigest()


def shrink(op: Op) -> Op:
    """A much smaller copy of an operation, for smoke tests of the harness."""
    params = dict(op.params)
    if "points" in params:
        params["points"] = 5 + params["points"] % 7
    if "t_final" in params:
        params["t_final"] = params["t_final"] / 200.0
    return Op(op.kind, params)
