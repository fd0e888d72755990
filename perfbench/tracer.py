"""In-memory span recorder for the traced benchmark run.

The package itself records nothing, so the traced run wraps its public
functions from the outside, under the name each caller looks up: the CLI
imported ``read_field`` into its own namespace, ``refine_zero`` looks up
``evaluate_continuous`` in ``bargzeros.simulate``, ``rho1`` looks up
``bargmann_closed_form`` in ``bargzeros.stats``, and so on.  A span is
``[name, start_ns, end_ns, parent_index, unit]``; spans stay in memory
until the run writes them out.

Counters taken at the same call boundaries turn into the computed
per-layer metrics (bytes, keep ratio, distinct quadratures).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import os
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute, span name).  Span
# names use the module that defines the function.
TARGETS = [
    ("bargzeros.cli", "draw_noise", "simulate.draw_noise"),
    ("bargzeros.cli", "synthesize_field", "simulate.synthesize_field"),
    ("bargzeros.cli", "write_field", "simulate.write_field"),
    ("bargzeros.cli", "read_field", "simulate.read_field"),
    ("bargzeros.cli", "subsample", "grid.subsample"),
    ("bargzeros.simulate", "draw_noise", "simulate.draw_noise"),
    ("bargzeros.simulate", "synthesize_field", "simulate.synthesize_field"),
    ("bargzeros.simulate", "evaluate_continuous", "simulate.evaluate_continuous"),
    ("bargzeros.simulate", "refine_zero", "simulate.refine_zero"),
    ("bargzeros.grid", "subsample", "grid.subsample"),
    ("bargzeros.detect", "amn_select", "detect.amn_select"),
    ("bargzeros.detect", "sieve", "detect.sieve"),
    ("bargzeros.detect", "amn", "detect.amn"),
    ("bargzeros.detect", "mgn", "detect.mgn"),
    ("bargzeros.detect", "st", "detect.st"),
    ("bargzeros.detect", "write_pointset_csv", "detect.write_pointset_csv"),
    ("bargzeros.detect", "read_pointset_csv", "detect.read_pointset_csv"),
    ("bargzeros.stats", "count_error_estimator", "stats.count_error_estimator"),
    ("bargzeros.stats", "expected_count", "stats.expected_count"),
    ("bargzeros.stats", "rho1", "stats.rho1"),
    ("bargzeros.stats", "bargmann_closed_form", "signal.bargmann_closed_form"),
    ("bargzeros.stats", "bargmann_derivative", "signal.bargmann_derivative"),
    ("bargzeros.consistency", "greedy_match", "consistency.greedy_match"),
    ("bargzeros.consistency", "wasserstein_within", "consistency.wasserstein_within"),
    ("bargzeros.consistency", "write_consistency_csv", "consistency.write_consistency_csv"),
]

# The CLI dispatches detectors through a dict filled at import time, so
# wrapping bargzeros.detect.amn does not reach it; its entries are wrapped
# in place when the dict exists.
DISPATCH_DICTS = [("bargzeros.cli", "_DETECTORS", "detect")]

LAYERS = sorted({span for _, _, span in TARGETS})

CLI_STAGES = ("simulate", "detect", "stats", "consistency")


# -- counters taken at call boundaries ---------------------------------------

def _synth_counts(tr, args, kwargs, out):
    # computed from array sizes: n^2 complex128 samples per field
    tr.add("simulate.synthesize_field.samples", out.values.size)
    tr.add("simulate.synthesize_field.out_bytes", out.values.nbytes)


def _write_field_counts(tr, args, kwargs, out):
    # counted at the call boundary: size of the cache file just written
    tr.add("simulate.write_field.bytes", os.path.getsize(args[1]))


def _read_field_counts(tr, args, kwargs, out):
    tr.add("simulate.read_field.bytes", os.path.getsize(args[0]))


def _sieve_counts(tr, args, kwargs, out):
    tr.add("detect.sieve.candidates", len(args[0]))
    tr.add("detect.sieve.kept", len(out))


def _expected_count_key(tr, args, kwargs, out):
    tr.distinct("stats.expected_count.args", repr((args, sorted(kwargs.items()))))


HOOKS = {
    "simulate.synthesize_field": _synth_counts,
    "simulate.write_field": _write_field_counts,
    "simulate.read_field": _read_field_counts,
    "detect.sieve": _sieve_counts,
    "stats.expected_count": _expected_count_key,
}


class Tracer:
    """Records spans and counters while ``unit`` is set (``None`` records
    nothing, so set-up and checks stay out of the trace)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.distincts: dict[tuple, set] = defaultdict(set)
        self.unit = None
        self.units = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def unit_span(self):
        """Root span of one unit; every unit run gets its own id, even when
        the loop repeats an input."""
        self.unit = self.units
        self.units += 1
        try:
            with self.span("unit"):
                yield
        finally:
            self.unit = None

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        if self.unit is None:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def distinct(self, key: str, item) -> None:
        """Count ``item`` once per unit under ``key``."""
        self.distincts[(self.unit, key)].add(item)

    def wrap(self, fn, name: str):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if callable(fn):
                    setattr(mod, attr, self.wrap(fn, name))
                    undo.append((mod, attr, fn))
            for modname, attr, prefix in DISPATCH_DICTS:
                table = getattr(importlib.import_module(modname), attr, None)
                if isinstance(table, dict):
                    saved = dict(table)
                    for key, fn in saved.items():
                        table[key] = self.wrap(fn, f"{prefix}.{fn.__name__}")
                    undo.append((table, None, saved))
            yield self
        finally:
            for target, attr, orig in reversed(undo):
                if attr is None:
                    target.update(orig)
                else:
                    setattr(target, attr, orig)

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span: duration minus the time its children
        cover (children of one span never overlap in this single-threaded
        run, so their durations add up)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [max(0, (s[2] - s[1]) - c) for s, c in zip(self.spans, child)]

    def layer_metrics(self, n_units: int, unit_wall_ns: int) -> dict:
        """Per-unit per-layer metrics, as ``name -> (value, unit)``."""
        self_ns = defaultdict(int)
        wall_ns = defaultdict(int)
        calls = defaultdict(int)
        for s, own in zip(self.spans, self.self_times()):
            self_ns[s[0]] += own
            wall_ns[s[0]] += s[2] - s[1]
            calls[s[0]] += 1
        total = self.counters
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self_ns[layer] / 1e6 / n_units, "ms")
            out[f"{layer}.calls"] = (calls[layer] / n_units, "count")
            out[f"{layer}.share"] = (self_ns[layer] / unit_wall_ns, "fraction")

        samples = total["simulate.synthesize_field.samples"]
        out["simulate.synthesize_field.ns_per_sample"] = (
            self_ns["simulate.synthesize_field"] / samples if samples else 0.0, "ns")
        out["simulate.synthesize_field.out_mb"] = (
            total["simulate.synthesize_field.out_bytes"] / 1e6 / n_units, "MB")
        out["simulate.write_field.mb"] = (total["simulate.write_field.bytes"] / 1e6 / n_units, "MB")
        out["simulate.read_field.mb"] = (total["simulate.read_field.bytes"] / 1e6 / n_units, "MB")
        cands = total["detect.sieve.candidates"]
        out["detect.sieve.keep_ratio"] = (total["detect.sieve.kept"] / cands if cands else 0.0, "ratio")
        ec_calls = calls["stats.expected_count"]
        n_distinct = sum(len(v) for (_, key), v in self.distincts.items()
                         if key == "stats.expected_count.args")
        out["stats.expected_count.distinct_ratio"] = (
            n_distinct / ec_calls if ec_calls else 0.0, "ratio")
        for stage in CLI_STAGES:
            out[f"cli.{stage}.wall_ms"] = (wall_ns[f"cli.{stage}"] / 1e6 / n_units, "ms")
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_ns", "end_ns", "parent", "unit"])
            for i, s in enumerate(self.spans):
                w.writerow([i, *s])
