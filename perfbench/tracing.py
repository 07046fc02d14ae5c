"""Per-layer spans for the traced benchmark run, recorded from outside ionchain.

A ``Tracer`` wraps each layer's public functions at the import sites their
callers use (``noise.run``, ``protocol.apply_pulse``, ``cli.build_run_report``
and so on), so nothing under ``src/`` changes and a refactor that inlines or
removes a function makes its metrics read 0 instead of breaking the run.
Spans stay in memory; a layer's self time is its span's duration minus the
time its direct child spans cover (calls are single-threaded and nested, so
children never overlap).

Run as a script, this module is the traced form of the ``ionchain`` CLI: it
installs the wrappers, calls ``ionchain.cli.main`` with the given arguments
and writes the layer metrics as one JSON line to stderr, prefixed by
``LAYER_PREFIX``, after the report has gone to stdout.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYER_PREFIX = "perfbench-layers "

# (module under ionchain, attribute, span name).  Several import sites feed
# one span name; e.g. protocol.run is reached as noise.run, cli.run and, from
# the benchmark's own call, protocol.run.
WRAPS = (
    ("noise", "monte_carlo", "noise.monte_carlo"),
    ("cli", "monte_carlo", "noise.monte_carlo"),
    ("protocol", "run", "protocol.run"),
    ("noise", "run", "protocol.run"),
    ("cli", "run", "protocol.run"),
    ("protocol", "new_register", "register.new_register"),
    ("protocol", "apply_pulse", "pulse.apply_pulse"),
    ("verify", "verify_run", "verify.verify_run"),
    ("cli", "verify_run", "verify.verify_run"),
    ("noise", "fidelity", "verify.fidelity"),
    ("verify", "fidelity", "verify.fidelity"),
    ("verify", "stabilizer_expectations", "verify.stabilizer_expectations"),
    ("verify", "reference_cluster", "verify.reference_cluster"),
    ("verify", "eprime_leakage", "verify.leakage"),
    ("verify", "mode_leakage", "verify.leakage"),
    ("cli", "build_run_report", "cli.build_run_report"),
    ("cli", "main", "cli.main"),
)

CALL_METRICS = (
    "pulse.apply_pulse",
    "register.new_register",
    "protocol.run",
    "verify.fidelity",
)
SELF_METRICS = (
    "pulse.apply_pulse",
    "register.new_register",
    "protocol.run",
    "noise.monte_carlo",
    "verify.verify_run",
    "verify.stabilizer_expectations",
    "verify.reference_cluster",
    "verify.leakage",
    "verify.fidelity",
    "cli.build_run_report",
    "cli.main",
)
COUNT_METRICS = ("pulse.amps_touched", "noise.draws", "cli.report_bytes")


class _CountingRng:
    """A numpy Generator that counts the Gaussian variates it hands out."""

    def __init__(self, rng: np.random.Generator, counts: Counter):
        self._rng = rng
        self._counts = counts

    def normal(self, *args, **kwargs):
        out = self._rng.normal(*args, **kwargs)
        self._counts["noise.draws"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """In-memory spans and counters for one traced operation."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap(self, fn, name):
        spans, open_ = self.spans, self._open
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "pulse.apply_pulse":
                counts["pulse.amps_touched"] += args[0].dim
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in WRAPS (missing ones are skipped), then restore."""
        saved = []
        real_rng = np.random.default_rng
        try:
            for module_name, attr, span in WRAPS:
                module = importlib.import_module(f"ionchain.{module_name}")
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, span))
            np.random.default_rng = lambda *a, **k: _CountingRng(
                real_rng(*a, **k), self.counts
            )
            yield self
        finally:
            np.random.default_rng = real_rng
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self seconds and counts per layer; absent layers read 0."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = dict.fromkeys(SELF_METRICS, 0.0)
        for (name, start, end, _), children in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += (end - start) - children
        metrics: dict[str, float] = {}
        for name in CALL_METRICS:
            metrics[f"{name}.calls"] = calls[name]
        for name in SELF_METRICS:
            metrics[f"{name}.self_s"] = self_s[name]
        for name in COUNT_METRICS:
            metrics[name] = self.counts[name]
        amps = metrics["pulse.amps_touched"]
        # A computed rate (self time over amplitudes handed to apply_pulse),
        # not a roofline: every vector here fits in the host's last-level cache.
        metrics["pulse.ns_per_amp"] = (
            metrics["pulse.apply_pulse.self_s"] / amps * 1e9 if amps else 0.0
        )
        return metrics


def main(argv: list[str]) -> int:
    from ionchain import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(LAYER_PREFIX + json.dumps(tracer.layer_metrics()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
