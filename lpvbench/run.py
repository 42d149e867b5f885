"""lpvembed benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 lpvbench/run.py --workload msd2dof-compare --seed 1 --seconds 40 --trace 0

The program under test is imported from the checkout's ``src/``; nothing
is installed.  The run is single-threaded: BLAS thread counts are pinned
to 1 before numpy loads.  It sets the workload up, then repeats the
workload's cycle for at most ``--seconds`` seconds, gating every output it
checks.

Times in the result are in reference units (``ref``): each cycle also
times a fixed kernel that does not touch lpvembed (``reference_seconds``
in workloads.py), and each timing is divided by the reference times taken
around it.  On a shared machine the speed of the CPU drifts (by up to 2x
within minutes on a 2-vCPU VM), and both times drift together, so the
ratio is steady where the seconds are not.  The report lines before the
result give the cycle walls and reference times in seconds.

``setup_s`` times only the program's calls in the set-up (see
workloads.py), SETUPS times, each between two reference timings.  Its unit
must be seconds, so each set-up is scaled to the speed at which the
reference kernel takes REF_NOMINAL_S, and the median is reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, reports the per-layer metrics (in
seconds and counts per cycle) with the tracing overhead and coverage, and
writes the spans and a per-layer table under ``.lpvbench/`` in the
checkout.  The last line of stdout is always the JSON result.  Exit status
is nonzero, with no result line, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 21
# The reference kernel's time on a quiet 2-vCPU VM (Python 3.11.7): set-up
# times are reported as if the machine ran at that speed.
REF_NOMINAL_S = 3.3e-3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Layer functions grouped into the metrics they feed; a span nested inside
# another span of the same group is not counted twice.
SIM_FNS = {"simulate_nlfr", "simulate_lpv_self", "simulate_lpv_exogenous",
           "compare", "spectrum", "spectrum_csv", "trajectory_csv", "multisine"}
OFFSET_FNS = {"solve_offsets_for", "solve_offsets", "dc_gains", "check_hurwitz"}
LOAD_FNS = {"load_lpv", "load_nlfr"}


def _import_program():
    """Import lpvembed from this checkout's src/, or explain why not."""
    src = ROOT / "src"
    if not (src / "lpvembed" / "__init__.py").is_file():
        raise SystemExit(f"lpvbench: no lpvembed sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import lpvembed

    if Path(lpvembed.__file__).resolve().parent != (src / "lpvembed").resolve():
        raise SystemExit(f"lpvbench: imported lpvembed from {lpvembed.__file__}, not {src}")
    return lpvembed


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99); 0 when every sampled op failed."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(workload, state, lib, seconds: float, cycles: list, tracer=None) -> None:
    """Repeat the cycle while the next one is expected to end within seconds."""
    from workloads import Cycle

    start = perf_counter()
    first = len(cycles)
    while True:
        cyc = Cycle()
        if tracer is not None:
            tracer.begin_run(len(cycles))
        t0 = perf_counter()
        cyc.tick(force=True)
        workload.cycle(state, lib, cyc)
        cyc.tick(force=True)
        cyc.wall = perf_counter() - t0 - cyc.tick_s
        cycles.append(cyc)
        typical = statistics.median(c.wall for c in cycles[first:])
        if perf_counter() - start + typical > seconds:
            return


def end_to_end(setups, cycles, peak_rss_mb):
    """The result metrics: times in reference units, set-up in nominal seconds."""
    rts = [t for c in cycles for t in c.in_ref("roundtrip")]
    return {
        "setup_s": (REF_NOMINAL_S * statistics.median(setups), "s"),
        "wall_ref": (statistics.median(c.wall / c.ref for c in cycles), "ref"),
        "steps_per_ref": (_ratio(sum(c.steps for c in cycles),
                                 sum(t for c in cycles for t in c.in_ref("sim"))), "1/ref"),
        "roundtrip_ref_p50": (_quantile(rts, 50), "ref"),
        "roundtrip_ref_p90": (_quantile(rts, 90), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def gate_metrics(cycles):
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    return {
        "gate.compare_max_err": (max(c.errors["compare"] for c in cycles), "abs"),
        "gate.playback_max_err": (max(c.errors["playback"] for c in cycles), "abs"),
        "gate.recon_max_rel_err": (max(c.errors["recon"] for c in cycles), "rel"),
        "gate.fail_ratio": (failed / attempted, "ratio"),
    }


def per_layer(tracer, untraced, traced):
    """Per-layer metrics per traced cycle, from the tracer's spans."""
    spans = tracer.spans
    selfs = tracer.self_times()
    n = len(traced)

    def outermost(fns):
        out = []
        for k, s in enumerate(spans):
            if s[1] not in fns:
                continue
            p = s[4]
            while p is not None and spans[p][1] not in fns:
                p = spans[p][4]
            if p is None:
                out.append(k)
        return out

    def time_of(*fns):
        return sum(spans[k][3] - spans[k][2] for k in outermost(set(fns))) / n

    def calls_of(*fns):
        return len(outermost(set(fns))) / n

    def self_of(fns):
        return sum(t for s, t in zip(spans, selfs) if s[1] in fns) / n

    c = tracer.counters
    hot = tracer.hot
    sim_s = {f: time_of(f) for f in ("simulate_nlfr", "simulate_lpv_self", "simulate_lpv_exogenous")}
    steps = c["sim.steps"] / n
    embeds = calls_of("embed")
    top = sum(s[3] - s[2] for s in spans if s[4] is None) + tracer.top_hot_s
    wall = sum(cy.wall for cy in traced)
    m = {
        "sim.nlfr_s": (sim_s["simulate_nlfr"], "s"),
        "sim.lpv_self_s": (sim_s["simulate_lpv_self"], "s"),
        "sim.lpv_exogenous_s": (sim_s["simulate_lpv_exogenous"], "s"),
        "sim.self_s": (self_of(SIM_FNS), "s"),
        "sim.us_per_step": (1e6 * sum(sim_s.values()) / steps if steps else 0.0, "us"),
        "sim.steps": (steps, "count"),
        "sim.trajectory_csv_s": (time_of("trajectory_csv"), "s"),
        "sim.csv_bytes": (c["sim.csv_bytes"] / n, "B"),
        "sim.compare_s": (time_of("compare"), "s"),
        "sim.spectrum_s": (time_of("spectrum"), "s"),
        "sim.multisine_s": (time_of("multisine"), "s"),
        "expr.evaluate_calls": (hot["expr.Expression.evaluate"][0] / n, "count"),
        "expr.evaluate_s": (hot["expr.Expression.evaluate"][1] / n, "s"),
        "expr.evaluate_batch_calls": (hot["expr.Expression.evaluate_batch"][0] / n, "count"),
        "expr.guard_band_hits": (c["expr.guard_band_hits"] / n, "count"),
        "expr.parse_s": (time_of("parse"), "s"),
        "expr.parse_calls": (calls_of("parse"), "count"),
        "factorize.factorize_s": (time_of("factorize"), "s"),
        "factorize.calls": (calls_of("factorize"), "count"),
        "factorize.guarded_entries": (c["factorize.guarded_entries"] / n, "count"),
        "factorize.entry_terms": (c["factorize.entry_terms"] / n, "count"),
        "factorize.check_reconstruction_s": (time_of("check_reconstruction"), "s"),
        "model.load_s": (time_of(*LOAD_FNS), "s"),
        "model.load_calls": (calls_of(*LOAD_FNS), "count"),
        "model.validate_lpv_s": (time_of("validate_lpv"), "s"),
        "model.save_s": (time_of("save_model"), "s"),
        "model.bytes_written": (c["model.bytes_written"] / n, "B"),
        "offset.solve_s": (time_of(*OFFSET_FNS), "s"),
        "offset.calls": (calls_of(*OFFSET_FNS), "count"),
        "embed.embed_s": (time_of("embed"), "s"),
        "embed.self_s": (self_of({"embed"}), "s"),
        "embed.n_p": (c["embed.n_p_sum"] / n / embeds if embeds else 0.0, "count"),
        "cli.embed_s": (time_of("cmd_embed"), "s"),
        "cli.compare_s": (time_of("cmd_compare"), "s"),
        "trace.overhead_s": (statistics.median(cy.wall for cy in traced)
                             - statistics.median(cy.wall for cy in untraced), "s"),
        "trace.coverage": (top / wall, "ratio"),
    }
    return m


def layer_table(tracer, n_cycles: int) -> str:
    """Calls, total and self time per span name and hot method, per cycle."""
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s, t in zip(tracer.spans, tracer.self_times()):
        r = rows[s[0]]
        r[0] += 1
        r[1] += s[3] - s[2]
        r[2] += t
    lines = [f"per-layer summary over {n_cycles} traced cycle(s), values per cycle",
             f"{'span':44s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}"]
    for name, (calls, total, self_t) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:44s} {calls / n_cycles:10.1f} {total / n_cycles:10.4f} "
                     f"{self_t / n_cycles:10.4f}")
    for name, (calls, secs) in sorted(tracer.hot.items()):
        lines.append(f"{name + ' (summed)':44s} {calls / n_cycles:10.1f} "
                     f"{secs / n_cycles:10.4f} {'':>10s}")
    for name, value in sorted(tracer.counters.items()):
        lines.append(f"{'counter ' + name:44s} {value / n_cycles:10.1f}")
    return "\n".join(lines)


def machine() -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, BLAS threads pinned to 1")


def set_up(workload, inputs, lib, work: Path):
    """Time the set-up SETUPS times; returns the last state and the times
    in reference units."""
    from workloads import reference_seconds

    setups = []
    ref = reference_seconds()
    for k in range(SETUPS):
        wdir = work / f"setup{k}"
        wdir.mkdir(parents=True)
        t0 = perf_counter()
        state = workload.setup(inputs, wdir, lib)
        t = perf_counter() - t0
        ref_after = reference_seconds()
        setups.append(t * 2.0 / (ref + ref_after))
        ref = ref_after
    return state, setups


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, measure and report one workload; returns the result object."""
    from spans import Lib, Tracer

    workload_name = workload.name
    work = out_dir / f"work-{os.getpid()}"
    lib = Lib()
    try:
        (work / "inputs").mkdir(parents=True)
        inputs = workload.prepare(seed, work / "inputs")
        state, setups = set_up(workload, inputs, lib, work)
        cycles: list = []
        if not trace:
            measure(workload, state, lib, seconds, cycles)
        else:
            measure(workload, state, lib, seconds / 2, cycles)
            untraced = list(cycles)
            tracer = Tracer(f"{workload_name}/seed{seed}")
            tracer.install(lib)
            try:
                measure(workload, state, lib, seconds / 2, cycles, tracer)
            finally:
                tracer.uninstall()
            traced = cycles[len(untraced):]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    unexpected = failed - sum(c.known_failed for c in cycles)
    measured = untraced if trace else cycles
    e2e = end_to_end(setups, measured, peak_rss_mb)
    gates = gate_metrics(cycles)
    rt_share = _ratio(sum(sum(c.seconds("roundtrip")) for c in measured),
                      sum(c.wall for c in measured))
    print(f"workload {workload_name}, seed {seed}, {machine()}")
    print(f"  cycle walls [s]: {' '.join(f'{c.wall:.3f}' for c in cycles)}")
    print(f"  reference [ms]: {' '.join(f'{1e3 * c.ref:.3f}' for c in cycles)}; "
          f"round trips {rt_share:.1%} of cycle walls")
    for name, (value, unit) in {**e2e, **gates}.items():
        print(f"  metric {name} {value:.6g} {unit}")
    print(f"  ops attempted {attempted}, failed {failed} ({unexpected} unexpected)")
    for note in sorted({f for c in cycles for f in c.failures}):
        print(f"  failed: {note}")
    metrics = e2e
    if trace:
        metrics = {**per_layer(tracer, untraced, traced), **gates}
        table = layer_table(tracer, len(traced))
        print(table)
        out_dir.mkdir(exist_ok=True)
        stem = f"{workload_name}-seed{seed}"
        tracer.write(out_dir / f"spans-{stem}.jsonl")
        (out_dir / f"layers-{stem}.txt").write_text(table + "\n")
        print(f"  wrote {out_dir / f'spans-{stem}.jsonl'}")
    return {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 ROOT / ".lpvbench")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
