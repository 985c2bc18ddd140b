"""Per-layer tracing of ``gaussrd`` from outside the package.

:func:`install` replaces every public function of the traced modules, in
every ``gaussrd`` module that holds a reference to it, with a wrapper that
times the call.  Callers inside the package look those names up in their own
module globals at call time, so the wrappers see the same calls the library
makes, while nothing under ``src/`` changes.  :func:`install` returns a
function that puts the originals back.

Spans are aggregated in memory per name rather than kept one by one: a k=8
scan alone makes ~150k nested calls.  Each name keeps its call count, its
total time and the part of that time covered by child spans, which gives the
layer's self time.  Hooks on a few functions add work counts (grid points,
Monte Carlo samples, sweep rows, CLI subcommands).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "gaussrd"
#: The package modules whose public functions are traced.
LAYERS = ("regions", "channel", "mmse", "discrete", "analysis", "selfcheck",
          "cli")
#: Leaf helpers called in inner loops (up to four per ``rd_bound``, ~50 per
#: ``maximize_t_numeric``); a wrapper on them would inflate their callers'
#: times by more than the helpers' own cost tells.
UNTRACED = frozenset({"regions.rate_to_reach", "regions.t_of_epsilon"})


class Tracer:
    """Aggregated spans: calls, total and child nanoseconds per name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.child_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # One accumulator of child time per open span; the innermost is last.
        self._open: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        open_spans = self._open
        calls, total_ns, child_ns = self.calls, self.total_ns, self.child_ns
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter_ns() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                calls[name] += 1
                total_ns[name] += elapsed
                child_ns[name] += children
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self.counts, bound.arguments, result, elapsed)

        return traced

    def us_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.total_ns[name] / calls / 1e3 if calls else 0.0

    def self_us_per_call(self, name: str) -> float:
        calls = self.calls[name]
        if not calls:
            return 0.0
        return (self.total_ns[name] - self.child_ns[name]) / calls / 1e3

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for a fixed seed."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update((k, v) for k, v in self.counts.items()
                   if not k.endswith("_ns"))
        return dict(sorted(out.items()))


def _scan_hook(counts, arguments, report, elapsed) -> None:
    counts["regions.scan.points"] += arguments["grid"].total_points()
    if report is not None:
        counts["regions.scan.evaluated"] += report.evaluated
        counts["regions.scan.skipped_infeasible"] += report.skipped_infeasible
        counts["regions.scan.boundary"] += report.boundary


def _mc_hook(counts, arguments, result, elapsed) -> None:
    counts["mmse.mc_estimate_mse.samples"] += arguments["samples"]


def _sweep_hook(counts, arguments, rows, elapsed) -> None:
    counts["analysis.wz_md_sweep.rows"] += arguments["points"]


def _asymptote_hook(counts, arguments, rows, elapsed) -> None:
    counts["analysis.asymptote_convergence.rows"] += len(arguments["r_grid"])


def _main_hook(counts, arguments, code, elapsed) -> None:
    sub = arguments["argv"][0]
    counts[f"cli.main.{sub}.calls"] += 1
    counts[f"cli.main.{sub}_ns"] += elapsed


HOOKS = {
    "regions.equivalence_scan": _scan_hook,
    "mmse.mc_estimate_mse": _mc_hook,
    "analysis.wz_md_sweep": _sweep_hook,
    "analysis.asymptote_convergence": _asymptote_hook,
    "cli.main": _main_hook,
}


def install(tracer: Tracer):
    """Wrap the public functions of :data:`LAYERS`; returns the undo."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in vars(module).items():
            key = f"{layer}.{name}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_") and key not in UNTRACED):
                wrapped[id(fn)] = tracer.wrap(key, fn, HOOKS.get(key))
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    undo = []
    for module in holders:
        for name, value in list(vars(module).items()):
            replacement = wrapped.get(id(value))
            if replacement is not None:
                undo.append((module, name, value))
                setattr(module, name, replacement)

    def restore() -> None:
        for module, name, value in undo:
            setattr(module, name, value)

    return restore
