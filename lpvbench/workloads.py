"""The benchmark's workloads: set-up once, then repeated cycles.

Each workload has three parts:

* ``prepare(seed, workdir) -> inputs`` makes what the benchmark itself
  needs from the seed (generated model files, sample points).  It is not
  timed.
* ``setup(inputs, workdir, lib) -> state`` makes the program's inputs with
  the program's own calls (writing the example, loading the model, building
  the excitation).  This is the timed set-up.
* ``cycle(state, lib, cyc)`` is one unit of measured work.  All library
  calls in a cycle go through ``lib`` (a :class:`spans.Lib`) so a traced
  run can time them from outside.

A cycle is a list of operations.  An operation that raises ``error[Code]``
or misses a correctness gate counts as failed; it is never retried, and
the operations that need its result are skipped.  Before an operation the
cycle may time the reference kernel (``Cycle.tick``), and its timings are
reported relative to the reference times around them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from pathlib import Path
from time import perf_counter

import numpy as np

from lpvembed.errors import LpvEmbedError
from lpvembed.factorize import RECONSTRUCTION_RTOL
from lpvembed.model import load_nlfr
from lpvembed.sim import COMPARE_TOL, multisine

from synth import model_json, synth_model

#: Seconds between reference-kernel timings inside a cycle (see tick).
REF_INTERVAL_S = 0.5

_REF_M = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_REF_V = np.ones(8)


def reference_seconds(repeats: int = 3) -> float:
    """Median time of a fixed kernel that does not touch lpvembed.

    Interpreted float arithmetic plus small numpy products: the same kind of
    work the program does.  On a shared machine its time tracks how fast the
    CPU is running at the moment, so dividing the program's times by it
    removes most of the machine's drift while keeping every change to the
    program's own cost.
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        for _ in range(1000):
            _REF_M @ _REF_V
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


#: Output bound of exogenous playback from the NLFR run's scheduling signal:
#: p is interpolated between samples, which adds O(dt^2) error, so the
#: repository's playback test allows 1e-6 rather than COMPARE_TOL.
PLAYBACK_TOL = 1e-6


class GateMiss(Exception):
    """An output outside its correctness bound."""


class Cycle:
    """Timings, outcomes and worst errors of one workload cycle."""

    def __init__(self):
        self.wall = 0.0  # excludes the reference timings
        self.steps = 0  # RK4 steps integrated
        # seconds of each timed call, with the index of the next tick
        self.samples: dict[str, list[tuple[float, int]]] = {"roundtrip": [], "sim": []}
        self.ref_s: list[float] = []  # reference-kernel times in this cycle
        self.tick_s = 0.0  # time spent taking them
        self._last_tick = float("-inf")
        self.errors = {"compare": 0.0, "playback": 0.0, "recon": 0.0}
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, what: str, known_defect: str | None = None):
        """One operation; a failure inside it is counted, not raised.

        Any exception from the program counts: a typed ``error[Code]``, a
        missed gate, or an untyped error that escaped the program.
        ``known_defect`` is the start of the failure detail the current
        program is known to produce here (``error[Code]`` or ``untyped
        Name``); such a failure is still counted as failed, and kept apart
        so it does not mark the run incorrect.
        """
        self.tick()
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            if isinstance(exc, LpvEmbedError):
                detail = f"error[{exc.code}]: {exc}"
            elif isinstance(exc, GateMiss):
                detail = str(exc)
            else:
                detail = f"untyped {type(exc).__name__}: {exc}"
            self.failed += 1
            if known_defect is not None and detail.startswith(known_defect):
                self.known_failed += 1
                self.failures.append(f"{what}: known defect: {detail}")
            else:
                self.failures.append(f"{what}: {detail}")

    def gate(self, ok: bool, detail: str) -> None:
        if not ok:
            raise GateMiss(detail)

    def tick(self, force: bool = False) -> None:
        """Time the reference kernel, at most once per REF_INTERVAL_S."""
        start = perf_counter()
        if force or start - self._last_tick >= REF_INTERVAL_S:
            self.ref_s.append(reference_seconds())
            self._last_tick = perf_counter()
            self.tick_s += self._last_tick - start

    def timed(self, kind: str, seconds: float) -> None:
        self.samples[kind].append((seconds, len(self.ref_s)))

    def seconds(self, kind: str) -> list[float]:
        return [t for t, _ in self.samples[kind]]

    def in_ref(self, kind: str) -> list[float]:
        """Samples over the mean of the reference times taken around each.

        A cycle starts and ends with a tick, so every sample lies between
        tick ``k - 1`` and tick ``k``.
        """
        return [t * 2.0 / (self.ref_s[k - 1] + self.ref_s[k]) for t, k in self.samples[kind]]

    @property
    def ref(self) -> float:
        """Mean reference time of the cycle, the unit of its wall time."""
        return sum(self.ref_s) / len(self.ref_s)

    def record(self, kind: str, value: float) -> None:
        self.errors[kind] = max(self.errors[kind], float(value))


def run_cli(lib, argv: list[str]) -> tuple[int, str]:
    """``lpvembed <argv>`` in process; returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli_main(argv)
    return rc, err.getvalue()


def cli_gate(rc: int, err: str) -> None:
    """A nonzero exit fails the op with the CLI's ``error[Code]`` line."""
    if rc != 0:
        raise GateMiss(err.strip().splitlines()[-1] if err.strip() else f"exit {rc}")


def sample_points(seed: int, n_z: int, n: int = 48) -> np.ndarray:
    """Seeded reconstruction points, including each guard band and z_i = 0."""
    rng = np.random.default_rng([seed, 7])
    Z = rng.uniform(-1.5, 1.5, (n, n_z))
    for i in range(n_z):
        Z[2 * i, i] = 0.0
        Z[2 * i + 1, i] = 1e-9
    return Z


def roundtrip(lib, cyc: Cycle, nlfr, orderings, path: Path, points):
    """embed -> save_model -> load_lpv -> check_reconstruction per ordering.

    One timed sample covers all the given orderings.  The file is removed
    after reading, so each save creates a new file: on ext4, truncating a
    file whose data is not yet on disk starts writing it out, which would
    time the disk rather than the program.  Returns the last LPV model read.
    """
    t0 = perf_counter()
    for ordering in orderings:
        lpv = lib.embed(nlfr, ordering)
        lib.save_model(lpv, path)
        back = lib.load_lpv(path)
        path.unlink()
        rep = lib.check_reconstruction(back.schedule, nlfr.f, points)
        cyc.record("recon", rep.max_rel_error)
        cyc.gate(rep.max_rel_error <= RECONSTRUCTION_RTOL,
                 f"reconstruction error {rep.max_rel_error:.3e} > {RECONSTRUCTION_RTOL:.0e}")
        cyc.gate(back.channels == lpv.channels, "LPV file lost scheduling channels")
    cyc.timed("roundtrip", perf_counter() - t0)
    return back


def simulate(cyc: Cycle, simulator, *args, **kwargs):
    """One timed simulator call; its steps count towards steps_per_ref."""
    t0 = perf_counter()
    traj = simulator(*args, **kwargs)
    cyc.timed("sim", perf_counter() - t0)
    cyc.steps += traj.n_steps
    return traj


def _max_compare_error(report_csv: Path) -> float:
    rows = report_csv.read_text().splitlines()[1:]
    return max(float(r.split(",")[1]) for r in rows)


# --- msd2dof-compare ------------------------------------------------------------


class Msd2dofCompare:
    """The CLI's example, embed and compare at defaults, both orderings."""

    name = "msd2dof-compare"
    orderings = ("1,2", "2,1")
    t_end = "20"  # the CLI default horizon; dt stays at its 1 ms default
    # Extra round trips, only to sample roundtrip_ref_*: 5 per compare
    # cost about 0.6% of a cycle's wall time (4 ms each against a 6-9 s cycle).
    roundtrips_per_compare = 5

    def prepare(self, seed: int, work: Path):
        return {"seed": seed, "points": sample_points(seed, len(self.orderings[0].split(",")))}

    def setup(self, inputs, work: Path, lib):
        rc, err = run_cli(lib, ["example", "msd2dof", "--out", str(work)])
        if rc != 0:
            raise RuntimeError(f"lpvembed example failed: {err.strip()}")
        path = work / "msd2dof_nlfr.json"
        return {**inputs, "work": work, "model": path, "nlfr": load_nlfr(path)}

    def cycle(self, st, lib, cyc: Cycle) -> None:
        # Round trips sit between the compares so their samples spread over
        # the whole run rather than falling in one stretch of it.  A sample
        # takes both orderings: 2,1 costs more (it has a guarded quotient),
        # and one ordering per sample would split the samples in two groups
        # with the median between them.
        rt_path = st["work"] / "roundtrip_lpv.json"
        both = [tuple(int(v) for v in text.split(",")) for text in self.orderings]
        for text in self.orderings:
            out = st["work"] / text.replace(",", "")
            lpv_path = out / "msd2dof_nlfr_lpv.json"
            with cyc.op(f"embed+compare {text}"):
                cli_gate(*run_cli(lib, [
                    "embed", "--model", str(st["model"]), "--ordering", text,
                    "--out", str(out)]))
                t0 = perf_counter()
                rc, err = run_cli(lib, [
                    "compare", "--model", str(st["model"]), "--lpv", str(lpv_path),
                    "--out", str(out), "--seed", str(st["seed"]), "--t-end", self.t_end])
                cyc.timed("sim", perf_counter() - t0)
                cyc.steps += 2 * round(float(self.t_end) / 1e-3)  # both models, CLI dt
                cli_gate(rc, err)
                err_max = _max_compare_error(out / "compare_report.csv")
                cyc.record("compare", err_max)
                cyc.gate(err_max <= COMPARE_TOL, f"compare error {err_max:.3e}")
            for _ in range(self.roundtrips_per_compare):
                with cyc.op("round trip 1,2 and 2,1"):
                    roundtrip(lib, cyc, st["nlfr"], both, rt_path, st["points"])


# --- synth64-simulate -------------------------------------------------------------


class Synth64Simulate:
    """A 64-state synthetic model through every simulator and the CSV writer."""

    name = "synth64-simulate"
    dims = dict(n_x=64, n_u=2, n_y=2, n_w=4, n_z=6)
    n_steps = 2000
    dt = 1e-3

    def prepare(self, seed: int, work: Path):
        path = work / "synth64_nlfr.json"
        path.write_text(model_json(synth_model(seed, **self.dims, terms_per_row=4)))
        return {"seed": seed, "model": path, "points": sample_points(seed, self.dims["n_z"])}

    def setup(self, inputs, work: Path, lib):
        return {**inputs, "work": work, "nlfr": load_nlfr(inputs["model"]),
                "u": multisine(self.dims["n_u"], 0.0, 2.0, 1.0, self.dt,
                               self.n_steps, inputs["seed"])}

    def cycle(self, st, lib, cyc: Cycle) -> None:
        nlfr, u, work = st["nlfr"], st["u"], st["work"]
        path = work / "synth64_lpv.json"

        def roundtrips(count):
            # Ten round trips per cycle, between the simulations so their
            # samples spread over the cycle; they take about a quarter of
            # the cycle's wall time.
            lpv = None
            for _ in range(count):
                with cyc.op("round trip"):
                    lpv = roundtrip(lib, cyc, nlfr, [None], path, st["points"])
            return lpv

        lpv = roundtrips(3)
        if lpv is None:
            return
        tn = tl = None
        with cyc.op("simulate nlfr"):
            tn = simulate(cyc, lib.simulate_nlfr, nlfr, u, dt=self.dt)
        roundtrips(2)
        if tn is None:
            return
        with cyc.op("simulate lpv and compare"):
            tl = simulate(cyc, lib.simulate_lpv_self, lpv, u, dt=self.dt)
            rep = lib.compare(tn, tl)
            cyc.record("compare", max(rep.max_abs_error))
            cyc.gate(rep.passed, f"compare error {max(rep.max_abs_error):.3e}")
        roundtrips(2)
        if tl is None:
            return
        with cyc.op("exogenous playback"):
            p = np.column_stack([lpv.schedule.entry(r, i).evaluate_batch(tn.z)
                                 for r, i in lpv.channels])
            te = simulate(cyc, lib.simulate_lpv_exogenous, lpv, u, p, dt=self.dt)
            rep = lib.compare(tn, te, tol=PLAYBACK_TOL)
            cyc.record("playback", max(rep.max_abs_error))
            cyc.gate(rep.passed, f"playback error {max(rep.max_abs_error):.3e}")
        roundtrips(2)
        with cyc.op("spectrum and trajectory csv"):
            spec = lib.spectrum(tl)
            cyc.gate(bool(np.all(np.isfinite(spec.magnitude))), "non-finite spectrum")
            text = lib.trajectory_csv(tl)
            (work / "synth64_lpv_traj.csv").write_text(text)
            cyc.gate(text.count("\n") == self.n_steps + 2, "trajectory CSV row count")
        roundtrips(1)


# --- synth5-orderings ---------------------------------------------------------------


class Synth5Orderings:
    """Every ordering of a five-variable offset model, plus three compares."""

    name = "synth5-orderings"
    dims = dict(n_x=16, n_u=5, n_y=2, n_w=3, n_z=5)
    n_steps = 2000
    dt = 1e-3
    probe_t_end = "0.5"
    # A fixed offset model without the strong direct path u -> z: its DC
    # gain is ill-conditioned, the input shift d is about 90, and the CLI's
    # zero-start compare over 1 s overflows inside expression evaluation.
    # Seed and sizes are fixed so the probe does not depend on --seed.
    overflow_probe = dict(seed=3, n_x=16, n_u=5, n_y=2, n_w=3, n_z=5,
                          terms_per_row=2, offset=True, dc_path=False)
    overflow_t_end = "1"

    def prepare(self, seed: int, work: Path):
        path = work / "synth5_nlfr.json"
        path.write_text(model_json(synth_model(seed, **self.dims, terms_per_row=2, offset=True)))
        ill = work / "synth5_ill_nlfr.json"
        ill.write_text(model_json(synth_model(**self.overflow_probe)))
        return {"seed": seed, "model": path, "ill_model": ill,
                "orderings": list(itertools.permutations(range(1, self.dims["n_z"] + 1))),
                "points": sample_points(seed, self.dims["n_z"])}

    def setup(self, inputs, work: Path, lib):
        return {**inputs, "work": work, "nlfr": load_nlfr(inputs["model"]),
                "u": multisine(self.dims["n_u"], 0.0, 2.0, 1.0, self.dt,
                               self.n_steps, inputs["seed"])}

    def cycle(self, st, lib, cyc: Cycle) -> None:
        nlfr, work = st["nlfr"], st["work"]
        lpv = None
        for ordering in st["orderings"]:
            with cyc.op(f"round trip {ordering}"):
                lpv = roundtrip(lib, cyc, nlfr, [ordering], work / "synth5_lpv.json",
                                st["points"])
        if lpv is not None:
            # The LPV core runs in coordinates shifted by the offset: started
            # at delta = A^-1 (Bw c + Bu d) it reproduces the NLFR started at
            # zero exactly, which checks the offset propagation end to end.
            with cyc.op("shifted-start compare"):
                delta = np.linalg.solve(nlfr.A, nlfr.Bw @ lpv.schedule.c + nlfr.Bu @ lpv.d)
                tn = simulate(cyc, lib.simulate_nlfr, nlfr, st["u"], dt=self.dt)
                tl = simulate(cyc, lib.simulate_lpv_self, lpv, st["u"], x0=delta, dt=self.dt)
                rep = lib.compare(tn, tl)
                cyc.record("compare", max(rep.max_abs_error))
                cyc.gate(rep.passed, f"compare error {max(rep.max_abs_error):.3e}")
        # The CLI compares from a zero start, which for a model with
        # f(0) != 0 is not the LPV state that matches the NLFR's; today this
        # reports ToleranceExceeded at sample 0.  On the ill-conditioned
        # model it raises an OverflowError that the CLI does not turn into
        # error[Code].  Both stay in the count of failures and out of the
        # timings.
        probes = (
            ("zero-start offset compare (CLI)", st["model"], str(st["seed"]),
             self.probe_t_end, "error[ToleranceExceeded]"),
            ("ill-conditioned offset compare (CLI)", st["ill_model"], "1",
             self.overflow_t_end, "untyped OverflowError"),
        )
        for what, model, seed, t_end, defect in probes:
            out = work / model.stem
            with cyc.op(what, known_defect=defect):
                cli_gate(*run_cli(lib, ["embed", "--model", str(model), "--out", str(out)]))
                cli_gate(*run_cli(lib, [
                    "compare", "--model", str(model),
                    "--lpv", str(out / f"{model.stem}_lpv.json"), "--out", str(out),
                    "--seed", seed, "--t-end", t_end]))


WORKLOADS = {w.name: w for w in (Msd2dofCompare(), Synth64Simulate(), Synth5Orderings())}

