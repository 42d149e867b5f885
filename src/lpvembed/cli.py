"""Command-line front end: validate, embed, simulate, compare, example.

Every failure exits nonzero after printing a single machine-greppable line
``error[<Code>]: <message>`` on stderr.  All artifacts (model files,
trajectory and spectrum CSVs, reports) are deterministic for a fixed
configuration and seed.  The output directory defaults to the LPVEMBED_OUT
environment variable, then the current directory.

validate runs embed at the default ordering and a reconstruction check at
8 seeded points, writing no file; it prints embed's report and the check's
line only after both have run, so a refused model leaves stdout empty.

Each artifact is written by model._write, which replaces an existing
regular file instead of truncating it: ext4 flushes a file that is
truncated and rewritten, about 50 ms per file, while a fresh file costs
well under 1 ms.  A hard link to an old output keeps the old bytes, and a
read-only output is refused with error[IOError].  A symlink, pipe or
device is written in place, as is a file whose directory forbids removing it.

compare runs the NLFR simulation and its spectrum in a forked child while
it runs the LPV's itself, on Linux with at least two CPUs in its affinity
mask and for runs of at least _FORK_MIN_STEPS steps; elsewhere the two run
one after the other.  The child sends back only the NLFR's y and its
spectrum text, so every artifact and message is byte-identical to the
sequential run.  A child that fails is replaced by the NLFR run in this
process, which raises its error again (see _run_pair).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import signal
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .embed import embed
from .errors import (
    Divergence,
    HurwitzWarning,
    InputFormatError,
    InvalidConfig,
    InvalidOrdering,
    LpvEmbedError,
    ToleranceExceeded,
)
from .examples import builtin_example
from .expr import GuardedQuotient
from .factorize import check_reconstruction
from .model import (
    LpvModel,
    _dump,
    _write,
    load_lpv,
    load_model,
    load_nlfr,
    save_model,
    validate_nlfr,
)
# dc_gains, solve_offsets: unused here, but lpvbench traces them by these names
from .offset import check_hurwitz, dc_gains, matching_start, solve_offsets
from .sim import (
    COMPARE_TOL,
    compare,
    multisine,
    simulate_lpv_self,
    simulate_nlfr,
    spectrum,
    spectrum_csv,
    trajectory_csv,
)

DEFAULT_DT = 1e-3
DEFAULT_T_END = 20.0
DEFAULT_INPUT = "multisine:0,2,1"


#: Most integration steps one run may take; larger horizons are refused
#: before any array is built.
MAX_STEPS = 10_000_000


def _grid(args) -> tuple[float, int]:
    """(dt, n_steps) of the run, checked before anything is allocated."""
    dt, t_end = args.dt, args.t_end
    # one comparison each that NaN also fails
    if not 0.0 < dt < math.inf:
        raise InvalidConfig(f"dt must be positive and finite, got {dt}")
    if not 0.0 < t_end < math.inf:
        raise InvalidConfig(f"t-end must be positive and finite, got {t_end}")
    steps = t_end / dt  # inf when the ratio overflows
    if not steps <= MAX_STEPS:
        raise InvalidConfig(
            f"t-end / dt = {steps:.3e} steps exceeds the limit of {MAX_STEPS}"
        )
    return dt, max(1, round(steps))


def _parse_ordering(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise InvalidOrdering(f"cannot parse ordering {text!r}: {exc}") from exc


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("LPVEMBED_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_input(args, n_u: int, dt: float, n_steps: int) -> np.ndarray:
    spec = args.input
    kind, _, rest = spec.partition(":")
    if kind == "multisine":
        try:
            f_min, f_max, amp = (float(v) for v in rest.split(","))
        except ValueError as exc:
            raise InputFormatError(
                f"multisine spec must be 'multisine:fmin,fmax,amp', got {spec!r}"
            ) from exc
        return multisine(n_u, f_min, f_max, amp, dt, n_steps, args.seed)
    if kind == "file":
        return _load_input_file(rest, n_u, n_steps)
    raise InputFormatError(
        f"unknown input spec {spec!r}; use 'multisine:fmin,fmax,amp' or 'file:path'"
    )


def _load_input_file(path: str, n_u: int, n_steps: int) -> np.ndarray:
    rows = []
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = [float(v) for v in line.split(",")]
                except ValueError:
                    if lineno == 1:
                        continue  # header row
                    raise InputFormatError(
                        f"{path}:{lineno}: non-numeric input row"
                    ) from None
                if len(row) != n_u:
                    raise InputFormatError(
                        f"{path}:{lineno}: expected {n_u} input columns, "
                        f"got {len(row)}"
                    )
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not a text file: {exc}") from None
    data = np.asarray(rows, dtype=float)
    if data.shape[0] < n_steps + 1:
        raise InputFormatError(
            f"{path}: need at least {n_steps + 1} samples, got {data.shape[0]}"
        )
    return data[: n_steps + 1]


def _entry_text(entry) -> str:
    if isinstance(entry, GuardedQuotient):
        return (
            f"({entry.numerator}) / z{entry.divisor_index}  "
            f"[derivative branch {entry.derivative} within "
            f"|z{entry.divisor_index}| <= {entry.tau:g}*(1+|z|_inf)]"
        )
    return str(entry)


# --- subcommands -------------------------------------------------------------


def cmd_example(args) -> int:
    out = _out_dir(args)
    raw = builtin_example(args.name)
    validate_nlfr(raw)
    path = out / f"{args.name}_nlfr.json"
    _write(path, _dump(raw))
    print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    model = load_nlfr(args.model)
    lpv = embed(model)
    samples = np.random.default_rng(20240915).uniform(-1.0, 1.0, (8, model.dims.n_z))
    check = check_reconstruction(lpv.schedule, model.f, samples)
    print(f"model: {args.model}")
    print(_embed_report(lpv), end="")
    print(check)
    if not check.passed:
        raise ToleranceExceeded("the sampled reconstruction check failed")
    print("RESULT: embeddable")
    return 0


def _embed_report(lpv: LpvModel) -> str:
    sched = lpv.schedule
    lines = ["LPV embedding report", f"ordering: {','.join(map(str, sched.ordering))}"]
    if np.any(sched.c != 0.0):
        hurwitz, max_re = check_hurwitz(lpv.A)
        lines.append(
            f"offset: c = {sched.c.tolist()} -> d = {lpv.d.tolist()}, "
            f"y0 = {lpv.y0.tolist()} (residual {lpv.offset.residual:.3e})"
        )
        lines.append(
            f"stability: max eigenvalue real part of A = {max_re:.6e}"
            + ("" if hurwitz else " (NOT Hurwitz; corrections propagated anyway)")
        )
    else:
        lines.append("offset: c = 0, no correction required (d = 0, y0 = 0)")
    total = sched.n_w * sched.n_z
    lines.append(
        f"scheduling channels: {lpv.n_p} of {total} grid entries retained "
        f"({total - lpv.n_p} pruned)"
    )
    for k, (r, i) in enumerate(lpv.channels, start=1):
        lines.append(f"  p{k} <- (r={r}, i={i}): {_entry_text(sched.entry(r, i))}")
    for r in range(1, sched.n_w + 1):
        for i in range(1, sched.n_z + 1):
            if sched.entry(r, i) is None:
                lines.append(f"  pruned (r={r}, i={i}): structurally zero")
    return "\n".join(lines) + "\n"


def cmd_embed(args) -> int:
    out = _out_dir(args)
    ordering = _parse_ordering(args.ordering)
    model = load_nlfr(args.model)
    lpv = embed(model, ordering)
    stem = Path(args.model).stem
    lpv_path = Path(args.lpv) if args.lpv else out / f"{stem}_lpv.json"
    save_model(lpv, lpv_path)
    report = _embed_report(lpv)
    report_path = out / f"{stem}_embed_report.txt"
    _write(report_path, report)
    print(report, end="")
    print(f"wrote {lpv_path}")
    print(f"wrote {report_path}")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    dt, n_steps = _grid(args)
    model = load_model(args.model)
    u = _build_input(args, model.dims.n_u, dt, n_steps)
    stem = Path(args.model).stem
    csv_path = out / f"{stem}_traj.csv"
    try:
        if isinstance(model, LpvModel):
            traj = simulate_lpv_self(model, u, dt=dt)
        else:
            traj = simulate_nlfr(model, u, dt=dt)
    except Divergence as div:
        _write(csv_path, trajectory_csv(div.trajectory))
        print(f"wrote partial {csv_path}", file=sys.stderr)
        raise
    _write(csv_path, trajectory_csv(traj))
    peak = np.max(np.abs(traj.y), axis=0)
    print(f"simulated {traj.n_steps} steps at dt = {dt}")
    for k, v in enumerate(peak, start=1):
        print(f"  max |y{k}| = {v:.6e}")
    print(f"wrote {csv_path}")
    return 0


#: Fewest steps for which compare runs the NLFR in a forked child.  Forking
#: and reaping one costs 1.5 to 3 ms in a 45 MB process, what some 300 to
#: 900 steps of one msd2dof simulation cost (3.3 to 5 microseconds each,
#: its step written in float statements), so shorter runs stay in this
#: process.
_FORK_MIN_STEPS = 2000


class _Outputs(NamedTuple):
    """The part of a trajectory that compare reads."""

    dt: float
    y: np.ndarray


def _nlfr_run(nlfr, u, dt):
    """The NLFR run of a compare and its spectrum CSV."""
    traj = simulate_nlfr(nlfr, u, dt=dt)
    return traj, spectrum_csv(spectrum(traj))


def _lpv_run(lpv, u, dt):
    """The LPV run of a compare, from the start matching the NLFR's, and
    its spectrum CSV."""
    traj = simulate_lpv_self(lpv, u, x0=matching_start(lpv), dt=dt)
    return traj, spectrum_csv(spectrum(traj))


def _forks(n_steps: int) -> bool:
    """Whether a compare of n_steps runs its NLFR in a forked child: on
    Linux only (Accelerate on macOS is not fork-safe), with a second CPU
    for the child, and for runs long enough to repay the fork."""
    return (
        n_steps >= _FORK_MIN_STEPS
        and sys.platform == "linux"
        and hasattr(os, "fork")
        and len(os.sched_getaffinity(0)) >= 2
    )


def _send(fd: int, *chunks) -> None:
    """Write the chunks to fd whole, however little each write takes."""
    for chunk in chunks:
        view = memoryview(chunk)
        while view:
            view = view[os.write(fd, view) :]


@contextlib.contextmanager
def _nlfr_child(nlfr, u, dt):
    """Run _nlfr_run in a forked child, which sends back the bytes of y and
    then the spectrum text on a pipe.

    Yields a function that waits for the child and returns (outputs,
    spectrum text), or None if the child failed; this process knows dt
    and y's shape already.  The child inherits the models and u, runs the
    same code on the same BLAS, and so computes the bits this process
    would.  It writes no file, prints nothing and leaves by os._exit,
    which runs no atexit handler and flushes no inherited buffer; a
    warning fails it, so that the rerun here shows the warning.
    On leaving the block the child is killed, if it still runs, and reaped.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            warnings.simplefilter("error")
            traj, text = _nlfr_run(nlfr, u, dt)
            _send(write_fd, traj.y.tobytes(), text.encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    status = None  # the child's wait status, once reaped

    def result():
        nonlocal status
        with open(read_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        n = u.shape[0] * nlfr.dims.n_y  # y has a row per row of u
        if status != 0 or len(data) < 8 * n:
            return None
        y = np.frombuffer(data, count=n).reshape(u.shape[0], nlfr.dims.n_y)
        return _Outputs(dt, y), data[8 * n :].decode()

    try:
        yield result
    finally:
        os.close(read_fd)
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_pair(nlfr, lpv, u, dt):
    """(NLFR run, LPV run) of a compare, each with its spectrum CSV.

    Where _forks allows, the NLFR runs in a forked child while this process
    runs the LPV, and the NLFR run is the (dt, y) that compare reads.  A
    child that fails is replaced by the NLFR run here, which raises its
    error again; as in the sequential order, an NLFR error is reported
    before an LPV one.
    """
    if not _forks(u.shape[0] - 1):
        return _nlfr_run(nlfr, u, dt), _lpv_run(lpv, u, dt)
    with _nlfr_child(nlfr, u, dt) as child_result:
        try:
            lpv_run = _lpv_run(lpv, u, dt)
        except Exception:
            # re-raised below unless the NLFR, run here, raises first
            if child_result() is None:
                _nlfr_run(nlfr, u, dt)
            raise
        return child_result() or _nlfr_run(nlfr, u, dt), lpv_run


def cmd_compare(args) -> int:
    """Simulate both models on one input (the NLFR in a forked child where
    _forks allows), compare their outputs and write the reports and both
    spectra, in that order."""
    out = _out_dir(args)
    dt, n_steps = _grid(args)
    nlfr = load_nlfr(args.model)
    lpv = load_lpv(args.lpv)
    u = _build_input(args, nlfr.dims.n_u, dt, n_steps)
    (traj_nlfr, spectrum_nlfr), (traj_lpv, spectrum_lpv) = _run_pair(nlfr, lpv, u, dt)
    report = compare(traj_nlfr, traj_lpv, tol=args.tol)

    _write(out / "compare_report.txt", str(report) + "\n")
    csv_lines = ["channel,max_abs_error,relative_rms"]
    for k, (ma, rr) in enumerate(zip(report.max_abs_error, report.relative_rms)):
        csv_lines.append(f"y{k + 1},{ma!r},{rr!r}")
    _write(out / "compare_report.csv", "\n".join(csv_lines) + "\n")
    _write(out / "spectrum_nlfr.csv", spectrum_nlfr)
    _write(out / "spectrum_lpv.csv", spectrum_lpv)
    print(report)
    print(f"wrote {out / 'compare_report.txt'}")
    if not report.passed:
        raise ToleranceExceeded(
            f"max abs output error {max(report.max_abs_error):.3e} exceeds "
            f"{args.tol:.1e}; first offending sample index {report.first_exceed}"
        )
    return 0


# --- entry point ----------------------------------------------------------------


def _add_common(p, with_tol=False):
    p.add_argument("--out", help="output directory (default: $LPVEMBED_OUT or .)")
    p.add_argument("--dt", type=float, default=DEFAULT_DT, help="step size [s]")
    p.add_argument(
        "--t-end", type=float, default=DEFAULT_T_END, help="simulation horizon [s]"
    )
    p.add_argument("--seed", type=int, default=0, help="excitation seed")
    p.add_argument(
        "--input",
        default=DEFAULT_INPUT,
        help="input spec: multisine:fmin,fmax,amp or file:path",
    )
    if with_tol:
        p.add_argument(
            "--tol", type=float, default=COMPARE_TOL, help="max abs output tolerance"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpvembed",
        description=(
            "Convert nonlinear-LFR models into exactly equivalent affine LPV "
            "models and verify the equivalence by simulation."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="write a built-in example model file")
    p.add_argument("name", help="example name (msd2dof)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("validate", help="check a model against the embedding rules")
    p.add_argument("--model", required=True, help="nonlinear model file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("embed", help="factorize and write the LPV model")
    p.add_argument("--model", required=True, help="nonlinear model file")
    p.add_argument("--lpv", help="output LPV model file path")
    p.add_argument("--ordering", help="factorization order, e.g. 2,1")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("simulate", help="simulate a model and write the trajectory")
    p.add_argument("--model", required=True, help="model file (either kind)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "compare", help="simulate both models on one input and compare outputs"
    )
    p.add_argument("--model", required=True, help="nonlinear model file")
    p.add_argument("--lpv", required=True, help="LPV model file")
    _add_common(p, with_tol=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", HurwitzWarning)
            return args.func(args)
    except LpvEmbedError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IOError]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
