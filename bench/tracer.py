"""Span tracer that wraps the package's public functions from outside.

The package modules bind each other's functions with ``from .x import y``,
so a function is reachable under several module attributes.  ``install``
replaces every attribute of every ``bosonic_engine`` module that holds a
traced function, and ``uninstall`` puts each original object back and
verifies that no wrapper is left anywhere.

Each wrapped call records a span (name, start, end, parent) in flat
in-memory lists.  The benchmark folds the spans of one operation into
per-name totals after the operation ends, outside its timed region, and
keeps the raw spans of the first few operations to write out at the end.
A span's self time is its duration minus the durations of its child
spans; children of one span run one after another in a single thread,
so their durations never overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layer spans: "<module>.<function>" for every public function the
# benchmark times.  errors.py holds only exception classes.
STATES_FUNCTIONS = ("bose_einstein", "classicality", "critical_squeezing",
                    "covariance_of", "tau_of_occupancy")
SPANS = (
    *(f"states.{name}" for name in STATES_FUNCTIONS),
    "thermo.work_heat_along",
    "dynamics.evolve",
    "dynamics.write_trajectory_csv",
    "cycles.run_otto",
    "cycles.run_generalized",
    "cycles.report_to_json",
    "cycles.classify_region",
    "sweep.build_spec",
    "sweep.run_sweep",
    "cli.main",
)

PACKAGE = "bosonic_engine"
_MARK = "__bench_traced__"


def _after_run_cycle(tracer, args, kwargs, report):
    tracer.counters["cycles.trace_points_built"] += len(report.classicality_trace.r)


def _after_report_to_json(tracer, args, kwargs, text):
    # json.dumps escapes non-ASCII by default, so characters are bytes.
    tracer.counters["cycles.report_to_json.bytes"] += len(text)
    report = args[0] if args else kwargs["report"]
    tracer.counters["cycles.trace_points_serialized"] += len(report.classicality_trace.r)


def _after_evolve(tracer, args, kwargs, trajectory):
    tracer.counters["dynamics.evolve.steps"] += len(trajectory) - 1


def _after_write_trajectory(tracer, args, kwargs, _):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["dynamics.write_trajectory_csv.bytes"] += os.path.getsize(path)


def _after_run_sweep(tracer, args, kwargs, path):
    # Counting rows reads the file; fold() does it outside the timed region.
    tracer.written.append(path)


_AFTER = {
    "cycles.run_otto": _after_run_cycle,
    "cycles.run_generalized": _after_run_cycle,
    "cycles.report_to_json": _after_report_to_json,
    "dynamics.evolve": _after_evolve,
    "dynamics.write_trajectory_csv": _after_write_trajectory,
    "sweep.run_sweep": _after_run_sweep,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.kept: list[dict] = []
        self.written: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        after = _AFTER.get(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _wrap_quad(self, quad):
        """Count scipy quad calls and integrand evaluations (no span)."""
        counters = self.counters

        @functools.wraps(quad)
        def counted_quad(func, *args, **kwargs):
            counters["thermo.quad.calls"] += 1

            def integrand(x, *extra):
                counters["thermo.quad.neval"] += 1
                return func(x, *extra)

            return quad(integrand, *args, **kwargs)

        setattr(counted_quad, _MARK, True)
        return counted_quad

    def op_span(self):
        """Open the root span of one benchmark operation; returns its end hook."""
        i = len(self.span_name)
        self.span_name.append(self._name_id("op"))
        self.span_parent.append(-1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(i)

        def end():
            self.span_end[i] = time.perf_counter()
            self.stack.pop()
        return end

    def fold(self, op_id: int, keep: bool) -> None:
        """Add the finished operation's spans to the totals and clear them."""
        if self.stack:
            raise RuntimeError("fold() called inside an open span")
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        calls = np.bincount(names, minlength=len(self.names))
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        for nid, name in enumerate(self.names):
            if calls[nid]:
                self.calls[name] += int(calls[nid])
                self.self_s[name] += float(own[nid])
        if keep:
            self.kept.append({
                "op": op_id,
                "names": [self.names[k] for k in self.span_name],
                "parent": list(self.span_parent),
                "start": list(self.span_start),
                "end": list(self.span_end),
            })
        for path in self.written:
            with open(path, "rb") as fh:
                data = fh.read()
            self.counters["sweep.rows"] += data.count(b"\n") - 1
            self.counters["sweep.csv_bytes"] += len(data)
        for buf in (self.span_name, self.span_parent, self.span_start, self.span_end,
                    self.written):
            buf.clear()

    # -- patching --------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper); holding it keeps ids unique
        for name in SPANS:
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        integrate = importlib.import_module("scipy.integrate")
        wrappers[id(integrate.quad)] = (integrate.quad, self._wrap_quad(integrate.quad))
        for module in self._modules() + [integrate]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        """Restore every patched attribute and verify nothing traced remains."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        leftovers = [f"{m.__name__}.{a}" for m, a, original in self._patched
                     if getattr(m, a) is not original]
        for module in self._modules() + [importlib.import_module("scipy.integrate")]:
            leftovers += [f"{module.__name__}.{attr}" for attr, value in vars(module).items()
                          if getattr(value, _MARK, False)]
        self._patched.clear()
        if leftovers:
            raise RuntimeError(f"tracer left wrapped functions behind: {leftovers}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
