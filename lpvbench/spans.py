"""Span tracing of lpvembed's layers, installed from outside the package.

The tracer replaces public names with timing wrappers and restores them on
``uninstall``.  A name is wrapped in the namespace that calls it, so
``cli.simulate_nlfr`` is the CLI's call into the simulator and
``embed.factorize`` the embedding's call into factorization; calls the
benchmark itself makes go through a :class:`Lib` and are named ``bench.*``.

Each wrapped call becomes one span (name, start, end, parent span, run id)
kept in memory and written out by :meth:`Tracer.write`.  The per-point
expression methods (``Expression.evaluate`` and friends) run millions of
times per simulation, so they are not spans: their calls and time are
summed per method, and the time is charged to the enclosing span as child
time so that span self times stay exact.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# The package re-exports functions under some module names (``lpvembed.embed``
# is the function), so the modules are taken from the import system.
cli, embed, expr, factorize, model, offset, sim = (
    importlib.import_module(f"lpvembed.{name}")
    for name in ("cli", "embed", "expr", "factorize", "model", "offset", "sim")
)

# Public names wrapped where each module calls them, as far as the
# workloads reach them.
CALL_SITES = {
    cli: (
        "cmd_example", "cmd_embed", "cmd_compare", "builtin_example", "embed",
        "dc_gains", "solve_offsets", "check_hurwitz", "load_nlfr", "load_lpv",
        "save_model", "validate_nlfr", "simulate_nlfr", "simulate_lpv_self",
        "compare", "spectrum", "spectrum_csv", "multisine",
    ),
    embed: ("extract_offset", "solve_offsets_for", "factorize"),
    offset: ("dc_gains", "check_hurwitz", "solve_offsets"),
    model: ("parse", "schedule_from_raw", "schedule_to_raw", "validate_nlfr",
            "validate_lpv", "serialize_lpv"),
    factorize: ("parse",),
}

# Per-point methods summed instead of recorded one span per call.
HOT_METHODS = (
    (expr.Expression, "evaluate"),
    (expr.Expression, "evaluate_batch"),
    (expr.GuardedQuotient, "evaluate"),
    (expr.GuardedQuotient, "evaluate_batch"),
)


class Lib:
    """The library entry points the benchmark calls, one attribute each."""

    def __init__(self):
        self.cli_main = cli.main
        self.embed = embed.embed
        self.save_model = model.save_model
        self.load_lpv = model.load_lpv
        self.check_reconstruction = factorize.check_reconstruction
        self.simulate_nlfr = sim.simulate_nlfr
        self.simulate_lpv_self = sim.simulate_lpv_self
        self.simulate_lpv_exogenous = sim.simulate_lpv_exogenous
        self.compare = sim.compare
        self.spectrum = sim.spectrum
        self.trajectory_csv = sim.trajectory_csv


def _count_result(counters, fn: str, args, result) -> None:
    """Work counters read off a layer call's arguments and result."""
    if fn.startswith("simulate_"):
        counters["sim.steps"] += result.n_steps
    elif fn == "trajectory_csv":
        counters["sim.csv_bytes"] += len(result)
    elif fn == "save_model":
        counters["model.bytes_written"] += os.path.getsize(args[1])
    elif fn == "embed":
        counters["embed.n_p_sum"] += result.n_p
    elif fn == "factorize":
        for row in result.entries:
            for e in row:
                if isinstance(e, expr.GuardedQuotient):
                    counters["factorize.guarded_entries"] += 1
                    counters["factorize.entry_terms"] += len(e.numerator.terms)
                elif e is not None:
                    counters["factorize.entry_terms"] += len(e.terms)


class Tracer:
    """In-memory spans and counters for one traced benchmark run."""

    def __init__(self, run_prefix: str):
        self.run_prefix = run_prefix
        self.run_id = f"{run_prefix}/0"
        # span: [name, fn, start, end, parent index, run id, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hot = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counters = defaultdict(float)
        self.top_hot_s = 0.0  # hot-method time outside any span
        self._hot_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, lib: Lib) -> None:
        for owner, names in CALL_SITES.items():
            prefix = owner.__name__.rsplit(".", 1)[-1]
            for attr in names:
                self._patch(owner, attr, self._span_wrapper(
                    getattr(owner, attr), f"{prefix}.{attr}", attr))
        for attr in list(vars(lib)):
            self._patch(lib, attr, self._span_wrapper(
                getattr(lib, attr), f"bench.{attr}", attr))
        for cls, attr in HOT_METHODS:
            name = f"expr.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._hot_wrapper(getattr(cls, attr), name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_run(self, index: int) -> None:
        self.run_id = f"{self.run_prefix}/{index}"

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, short: str):
        spans, stack, counters = self.spans, self.stack, self.counters

        def traced(*args, **kwargs):
            rec = [name, short, perf_counter(), 0.0,
                   stack[-1] if stack else None, self.run_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            _count_result(counters, short, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, fn, name: str):
        acc = self.hot[name]
        spans, stack = self.spans, self.stack
        is_quotient = name.startswith("expr.GuardedQuotient")
        batch = name.endswith("_batch")
        tracer = self

        def traced(obj, z):
            if is_quotient:
                _count_band_hits(tracer, obj, z, batch)
            tracer._hot_depth += 1
            t0 = perf_counter()
            try:
                return fn(obj, z)
            finally:
                dt = perf_counter() - t0
                tracer._hot_depth -= 1
                acc[0] += 1
                acc[1] += dt
                if not tracer._hot_depth:
                    if stack:
                        spans[stack[-1]][6] += dt
                    else:
                        tracer.top_hot_s += dt

        traced.__wrapped__ = fn
        return traced

    # --- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans and hot calls cover."""
        child = [s[6] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per hot method's totals."""
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": s[0], "start": s[2], "end": s[3],
                    "parent": s[4], "run": s[5],
                }) + "\n")
            for name, (calls, secs) in sorted(self.hot.items()):
                fh.write(json.dumps({
                    "aggregate": name, "calls": calls, "seconds": secs,
                }) + "\n")


def _count_band_hits(tracer, q, z, batch: bool) -> None:
    """Guarded-quotient evaluations that take the derivative branch."""
    if batch:
        Z = np.asarray(z, dtype=float)
        zi = np.abs(Z[:, q.divisor_index - 1])
        band = zi <= q.tau * (1.0 + np.max(np.abs(Z), axis=1))
        tracer.counters["expr.guard_band_hits"] += int(np.count_nonzero(band))
    elif abs(z[q.divisor_index - 1]) <= q.effective_threshold(z):
        tracer.counters["expr.guard_band_hits"] += 1
