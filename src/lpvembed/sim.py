"""Fixed-step simulation, trajectory comparison, and frequency-domain views.

Both model kinds integrate with classic fourth-order Runge-Kutta on a fixed
grid, sharing one stepping core for the field dx = A x + Bu u + Bw w so that
equivalence residuals measure only the difference between the rules for w
(f(z), or the rank-one LPV feedback P(z) z), never solver artifacts.  The
field is affine in x, u and w, so each RK4 step is unrolled once per run
into a linear map.  Each run then compiles its own step kernel: one Python
function whose loop writes the four stages out as float arithmetic -- the
stage z with its corrections, and the rule for w inlined from the model's
expressions by their ``emit`` methods, in the operation order of
``evaluate``.  The products M x and Psi w of the step take one of two
forms, chosen by their count n_x (4 n_z + n_x + 4 n_w): up to
_FLOAT_STEP_MAX they are float statements too and the state is held in
locals, so a step calls numpy only to read its input terms and store the
state; past it they are one numpy matvec each and the state an array,
since there numpy's per-call cost is the smaller.  Within a stage each
repeated pure value -- a function call, a power of a z, the guard
threshold -- is named at its first evaluation and read by that name where
the evaluation dominates (expr.ValueTable), so the kernel runs a subset of
``evaluate``'s float operations, in their order, and no value twice; a
value read once is not named.  The kernel tests the states for divergence
once per block of _BLOCK rows; after it stops, the simulator finds the
first state past the limit in the last block it wrote, so a run ends where
a test after every step would end it.
The steps a diverged run takes until its block ends, at most one block on
values that may be inf or NaN, run under np.errstate and are discarded.
The source holds only numeric literals, fixed local names, a few builtins
and the names of the six functions; no text from a model file reaches
``compile``.  The compile costs about 1 to 10 ms per run, and nothing is
cached between runs, so threads stay safe (np.errstate is thread-local).
Inputs are sampled at n_steps + 1 instants, interpolated linearly at the
half-steps.  In self-scheduled LPV simulation the scheduling vector is
recomputed from the current state and corrected input at every stage,
which keeps the LPV vector field pointwise equal to the nonlinear one; in
exogenous LPV simulation the kernel instead plays back the scheduling
samples, interpolated like the input.

Trajectories hold the raw input, states and raw outputs at the samples,
and the z and the w = f(z) (nonlinear runs) or scheduling vector p (LPV
runs) that stage 0 of the kernel computed; the readout reads that w.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
# numpy loads its fft module on first use; loaded here, so that a forked
# child running spectrum imports nothing
import numpy.fft

from .errors import (
    ChannelCountMismatch,
    Divergence,
    InvalidConfig,
    NyquistViolation,
    ShapeMismatch,
)
from .expr import EMITTED_FUNCTIONS, ValueTable
from .model import LpvModel, NlfrModel

__all__ = [
    "Trajectory",
    "CompareReport",
    "Spectrum",
    "simulate_nlfr",
    "simulate_lpv_self",
    "simulate_lpv_exogenous",
    "compare",
    "spectrum",
    "multisine",
    "trajectory_csv",
    "spectrum_csv",
]

#: State magnitude beyond which integration aborts.
DIVERGENCE_LIMIT = 1e12

# Rows of states the kernel tests for divergence at once: rows 1 to 1024,
# 1025 to 2048, ..., each block after the kernel writes its last row.
_BLOCK = 1024

# Most products in M x and Psi w, n_x (4 n_z + n_x + 4 n_w), for which the
# kernel writes them as float statements; past it the numpy calls of a step
# cost less than its float arithmetic (see _kernel).
_FLOAT_STEP_MAX = 192

#: Default comparison tolerance on per-channel max absolute output error.
COMPARE_TOL = 1e-9

#: Most samples, n_steps + 1, of a multisine.
MAX_MULTISINE_SAMPLES = 25_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled simulation result; all series share the same length, and z
    and w_or_p hold the values stage 0 of the kernel computed.  Every
    series is write-protected, and u is a copy of the input, not a view."""

    dt: float
    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w_or_p: np.ndarray
    w_or_p_label: str  # "w" for nonlinear runs, "p" for LPV runs

    @property
    def n_steps(self) -> int:
        return self.x.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.x.shape[0])


def _floats(value, what: str) -> np.ndarray:
    """value as a float array; ShapeMismatch if it is ragged, not numeric or
    not finite."""
    # OverflowError: an integer beyond the float range
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"{what} cannot be read as numbers: {exc}") from None
    if not np.isfinite(arr).all():
        verb = "contain" if what.endswith("s") else "contains"
        raise ShapeMismatch(f"{what} {verb} non-finite values")
    return arr


def _check_state(x0, n_x: int, what: str = "initial state") -> np.ndarray:
    if x0 is None:
        return np.zeros(n_x)
    arr = _floats(x0, what)
    if arr.shape != (n_x,):
        raise ShapeMismatch(f"{what} has shape {arr.shape}, expected ({n_x},)")
    return arr


def _check_samples(u, n_cols: int, name: str) -> np.ndarray:
    arr = _floats(u, f"{name} samples")
    if arr.ndim != 2 or arr.shape[1] != n_cols:
        raise ShapeMismatch(
            f"{name} samples have shape {arr.shape}, "
            f"expected (n_steps + 1, {n_cols})"
        )
    if arr.shape[0] < 2:
        raise ShapeMismatch(f"{name} needs at least 2 samples")
    return arr


def _step_map(core, dt: float):
    """One classic RK4 step of the field, unrolled into a linear map.

    With v = [u_k; u_k+1] and the input (u_k + u_k+1) / 2 at the half-step,
    the stage state is x_i = P_i x + (terms in v and w_1, ..., w_i-1), so
    stage i has z_i = Cz P_i x + K_i v + sum over j < i of H_ij w_j, and the
    step is the increment D x + K_x v + sum over j of Psi_j w_j.  Returns
    M = [Cz P_1; ...; Cz P_4; D], K = [K_1; ...; K_4; K_x], the corrections
    H_i = [H_i1 ... H_i,i-1] of stages 2 to 4 and Psi = [Psi_1 ... Psi_4].
    InvalidConfig if an entry overflows: the kernel's source holds the
    entries of H as float literals, which have no spelling for nan or inf.
    """
    n_x, n_u = core.Bu.shape
    n_w = core.Bw.shape[1]
    # columns of the map: x, u_k, u_k+1, w_1, ..., w_4
    cols = np.eye(n_x + 2 * n_u + 4 * n_w)
    X0 = cols[:n_x]
    u_k, u_n = cols[n_x : n_x + n_u], cols[n_x + n_u : n_x + 2 * n_u]
    u_m = 0.5 * (u_k + u_n)
    W = cols[n_x + 2 * n_u :].reshape(4, n_w, -1)
    X, rows, incr = X0, [], 0.0
    # an overflow is refused below, once, with the whole map
    with np.errstate(over="ignore", invalid="ignore"):
        for U, Wi, c, b in zip(
            (u_k, u_m, u_m, u_n), W, (0.5, 0.5, 1.0, 0.0), (1.0, 2.0, 2.0, 1.0)
        ):
            rows.append(core.Cz @ X + core.Dzu @ U)
            k = core.A @ X + core.Bu @ U + core.Bw @ Wi
            incr = incr + (b * dt / 6.0) * k
            X = X0 + (c * dt) * k
    G = np.vstack(rows + [incr])
    if not np.isfinite(G).all():
        raise InvalidConfig(f"the RK4 step map at dt = {dt} overflows the float range")
    n_z = core.Cz.shape[0]
    Gw = G[:, n_x + 2 * n_u :]
    H = [Gw[i * n_z : (i + 1) * n_z, : i * n_w] for i in (1, 2, 3)]
    return G[:, :n_x], G[:, n_x : n_x + 2 * n_u], H, Gw[4 * n_z :]


def _products(A, names, keep_zeros: bool = False) -> list[str]:
    """Each row of A v, v held in the locals names, as one float expression
    summed left to right over its coefficients, the zero ones only with
    keep_zeros; 0.0 for a row with no term."""
    return [
        " + ".join(
            f"{a!r} * {n}" for a, n in zip(row, names) if keep_zeros or a != 0.0
        ) or "0.0"
        for row in A.tolist()
    ]


def _kernel(M, H, Psi, rule, n_steps: int):
    """Compile one run's RK4 loop over the step map, closed by the rule.

    rule(i, z, w, values) gives the names of the scheduling values of stage
    i (0 to 3), none for a nonlinear run, and the statements that set them
    and the locals named w to the rule's w at the locals named z.  Each
    stage rebinds z, so each gets a new ValueTable, whose statements()
    finishes the rule's lines: a call, power or guard threshold that the
    stage reads again is named at its first evaluation and read by that
    name where the evaluation dominates, never evaluated earlier, more often
    or on a path where the rule's expressions do not evaluate it.  The stage
    z and its corrections H (from _step_map) are emitted as float
    arithmetic, nonzero coefficients only, summed left to right.

    M x and the increment Psi w take one of two forms, chosen by their
    count of products, M.size + Psi.size = n_x (4 n_z + n_x + 4 n_w).  Up
    to _FLOAT_STEP_MAX, the state is held in locals x0, x1, ..., and M x
    and Psi w are float statements (_products), M x over its nonzero
    coefficients like the stage corrections and Psi w over all of them, so
    a step calls numpy only to take its row of off and to store the new
    state.  Past it, where a step's float arithmetic costs more than
    numpy's per-call overhead, M x, the increment and the state stay numpy
    arrays.  Each row of the float form is the sum a BLAS gemv that sums
    left to right computes, but for the sign of a zero sum; other BLAS
    kernels may round M x and Psi w differently in the last bits.  After
    writing rows 1 to _BLOCK, _BLOCK + 1 to 2 _BLOCK, ... of states, the
    kernel tests that block with one abs(...).max() and stops if a row is
    past DIVERGENCE_LIMIT or NaN, without saying which (see _simulate).
    The source holds only float and integer literals, local names, a few
    builtins and the keys of EMITTED_FUNCTIONS; nothing is cached, so each
    run compiles its own kernel.

    kernel(x0, off, states, M, Psi, p, rec, record) fills states[1:] and
    has record pack stage 0's z, w and scheduling values of sample k into
    row k of rec (the last sample runs stage 0 only), reading a played-back
    p from the iterator p of pairs of sample rows.  It returns the count of
    recorded samples and the OverflowError or ValueError that stopped the
    run, else None.
    """
    n_z, n_w = H[0].shape
    n_x = M.shape[1]
    floats = M.size + Psi.size <= _FLOAT_STEP_MAX
    z = [f"z{j}" for j in range(n_z)]
    w = [[f"w{i}_{r}" for r in range(n_w)] for i in range(4)]
    flat_w = [name for stage in w for name in stage]
    x = [f"x{j}" for j in range(n_x)]
    s = [f"s{r}" if floats else f"s[{r}]" for r in range(M.shape[0])]
    body = []
    for i in range(4):
        for j in range(n_z):
            s_ij = s[i * n_z + j]
            terms = [] if i == 0 else [
                f"{float(h)!r} * {w[c // n_w][c % n_w]}"
                for c, h in enumerate(H[i - 1][j]) if h != 0.0
            ]
            if terms:
                body += ["c = 0.0", *(f"c += {t}" for t in terms),
                         f"{z[j]} = {s_ij} + c"]
            else:
                body.append(f"{z[j]} = {s_ij}")
        values = ValueTable()
        p, lines = rule(i, z, w[i], values)
        body += values.statements(lines)
        if i == 0:
            row = [*z, *w[0], *p]
            body += [f"record(rec, {8 * len(row)} * k, {', '.join(row)})",
                     "recorded = k + 1", f"if k == {n_steps}:", "    break"]
    # the new state is x plus an increment, so that the increment's O(dt)
    # terms are not rounded against x
    if floats:
        start = [f"[{', '.join(x)}] = x.tolist()"]
        head = ["o = off[k].tolist()"] + [
            f"{s[r]} = ({mx}) + o[{r}]" for r, mx in enumerate(_products(M, x))
        ]
        # Psi w keeps its zero coefficients, so that an inf or NaN w reaches
        # the state and its divergence test as through numpy's matvec, even
        # a w that drives no state
        tail = [
            f"{x_j} = {x_j} + ({s_j} + ({pw}))"
            for x_j, s_j, pw in zip(x, s[4 * n_z :], _products(Psi, flat_w, True))
        ] + [f"states[k + 1] = [{', '.join(x)}]"]
    else:
        start = []
        head = ["sa = M @ x + off[k]", "s = sa.tolist()"]
        tail = [f"x = x + (sa[{4 * n_z}:] + Psi.dot([{', '.join(flat_w)}]))",
                "states[k + 1] = x"]
    source = "\n".join([
        "def kernel(x, off, states, M, Psi, p, rec, record):",
        *("    " + line for line in start),
        "    recorded = 0",
        "    try:",
        f"        for k in range({n_steps + 1}):",
        *("            " + line for line in head + body + tail),
        # one comparison per block of rows, which NaN and inf also fail
        f"            if k % {_BLOCK} == {_BLOCK - 1} and not "
        f"abs(states[k - {_BLOCK - 2}:k + 2]).max() <= {DIVERGENCE_LIMIT!r}:",
        "                break",
        # Python float powers and math.exp raise on overflow, math.sin(inf)
        # on its domain
        "    except (OverflowError, ValueError) as exc:",
        "        return recorded, exc",
        "    return recorded, None",
    ])
    namespace = dict(EMITTED_FUNCTIONS)
    exec(compile(source, "<rk4 kernel>", "exec"), namespace)
    # popped, so the kernel and its namespace hold no reference cycle and
    # are freed with the run
    return namespace.pop("kernel")


def _simulate(core, rule, x0, u, u_c, dt, y0=0.0, p=None):
    """Integrate the core closed by the rule (see _kernel), driven by u_c.

    The trajectory holds the kernel's record; y = Cy x + Dyu u_c + Dyw w + y0
    reads its w, and a failed run raises Divergence with the samples recorded.
    The first state past the limit in the last block of states the kernel
    wrote ends the run at its step, before any overflow that stopped the
    kernel later; the blocks before it passed the kernel's test.
    """
    # one comparison that NaN also fails; the kernel's source holds dt's
    # coefficients as float literals, which have no spelling for nan or inf
    if not 0.0 < dt < math.inf:
        raise InvalidConfig(f"dt must be positive and finite, got {dt}")
    M, K, H, Psi = _step_map(core, dt)
    n_steps = u_c.shape[0] - 1
    kernel = _kernel(M, H, Psi, rule, n_steps)
    # the last sample is paired with the first; its stage 0 reads only u_c[n]
    off = np.hstack([u_c, np.roll(u_c, -1, axis=0)]) @ K.T
    states = np.zeros((n_steps + 1, x0.shape[0]))
    states[0] = x0
    n_z, n_w = core.Cz.shape[0], core.Bw.shape[1]
    rec = np.empty((n_steps + 1, n_z + n_w + core.n_p))
    # packs one row of doubles straight into rec's buffer, at a byte offset
    record = struct.Struct(f"{rec.shape[1]}d").pack_into
    # a run past the limit goes on for at most the rest of its block, on
    # values that may be inf or NaN; those steps are discarded below
    with np.errstate(over="ignore", invalid="ignore"):
        n, exc = kernel(x0, off, states, M, Psi, p, rec, record)
        # every block before the one holding the last row written passed
        # the kernel's test, so only that block can hold the first row past
        # the limit; rows not written are zero
        last = min(n, n_steps)
        start = max(1, last - (last - 1) % _BLOCK)
        beyond = ~(abs(states[start : last + 1]).max(axis=1) <= DIVERGENCE_LIMIT)
    if beyond.any():
        # the run stops at the step that wrote that row, as a per-step
        # test would have stopped it, before any overflow met later
        n = start + int(beyond.argmax())
        # a row that fails the test with no entry past the limit holds a NaN
        failure = (
            f"state exceeded {DIVERGENCE_LIMIT:.0e} at step {n}"
            if (abs(states[n]) > DIVERGENCE_LIMIT).any() else
            f"state became NaN at step {n}"
        )
    elif exc is not None:
        failure = f"nonlinearity evaluation overflowed at step {n} ({exc})"
    else:
        failure = None
    Z, W, P = np.hsplit(rec[:n], [n_z, n_z + n_w])
    states = states[:n]
    Y = states @ core.Cy.T + u_c[:n] @ core.Dyu.T + W @ core.Dyw.T + y0
    series, label = (P, "p") if isinstance(core, LpvModel) else (W, "w")
    # the input is copied, so that no series is a view of the caller's array
    arrays = (u[:n].copy(), states, Y, Z, series)
    for a in arrays:
        a.setflags(write=False)
    traj = Trajectory(dt, *arrays, label)
    if failure is not None:
        raise Divergence(failure, step=n, trajectory=traj)
    return traj


def simulate_nlfr(
    model: NlfrModel, u, x0=None, dt: float = 1e-3
) -> Trajectory:
    """Integrate xdot = A x + Bu u + Bw f(Cz x + Dzu u) over the input grid."""
    d = model.dims
    u = _check_samples(u, d.n_u, "input")
    x0 = _check_state(x0, d.n_x)
    f_rows = model.f

    def rule(i, z, w, values):
        return [], [
            line for row, w_r in zip(f_rows, w) for line in row.emit(w_r, z, values)
        ]

    return _simulate(model, rule, x0, u, u, dt)


def _simulate_lpv(lpv: LpvModel, u, x0, dt, p_stage, played=None):
    """LPV run on the rank-one feedback w_r = sum over (r, i) of p_ri z_i.

    p_stage(i, z, values) gives the names of p at stage i and the statements
    that set them, and played yields the pairs of sample rows a played-back
    p is read from.
    """
    d = lpv.dims
    x0 = _check_state(x0, d.n_x)
    rows = [[] for _ in range(d.n_w)]
    for k, (r, i) in enumerate(lpv.channels):
        rows[r - 1].append((k, i - 1))

    def rule(i, z, w, values):
        p, lines = p_stage(i, z, values)
        for w_r, row in zip(w, rows):
            lines += [f"{w_r} = 0.0", *(f"{w_r} += {p[k]} * {z[j]}" for k, j in row)]
        return p, lines

    return _simulate(lpv, rule, x0, u, u - lpv.d, dt, lpv.y0, played)


def simulate_lpv_self(lpv: LpvModel, u, x0=None, dt: float = 1e-3) -> Trajectory:
    """Self-scheduled LPV simulation on the raw input.

    The input correction u - d is applied internally; the scheduling vector
    is recomputed from (x, u_corrected) at every integration stage.  Outputs
    are returned in raw coordinates (y0 added back).
    """
    u = _check_samples(u, lpv.dims.n_u, "input")
    entries = [lpv.schedule.entry(r, i) for r, i in lpv.channels]
    p = [f"p{k}" for k in range(len(entries))]

    def p_stage(i, z, values):
        return p, [
            line for q, p_k in zip(entries, p) for line in q.emit(p_k, z, values)
        ]

    return _simulate_lpv(lpv, u, x0, dt, p_stage)


def simulate_lpv_exogenous(
    lpv: LpvModel, u, p, x0=None, dt: float = 1e-3
) -> Trajectory:
    """LPV simulation with the scheduling vector played back as a signal.

    p holds n_steps + 1 samples of the n_p retained channels and is
    linearly interpolated at the stage times, exactly like the input.
    """
    d = lpv.dims
    u = _check_samples(u, d.n_u, "input")
    p = _floats(p, "scheduling samples")
    if p.shape != (u.shape[0], d.n_p):
        raise ChannelCountMismatch(
            f"scheduling samples have shape {p.shape}, "
            f"expected ({u.shape[0]}, {d.n_p})"
        )
    # the rows of the four stages of each step: sample a, half-step h twice,
    # next sample b; the last sample is paired with itself
    a, h, b = ([f"{v}{k}" for k in range(d.n_p)] for v in "ahb")
    rows = p.tolist()

    def p_stage(i, z, values):
        if i == 0:
            return a, [f"[{', '.join(a)}], [{', '.join(b)}] = next(p)"]
        if i == 1:
            return h, [f"{h_k} = 0.5 * ({a_k} + {b_k})" for h_k, a_k, b_k in zip(h, a, b)]
        return (h, b)[i - 2], []

    return _simulate_lpv(lpv, u, x0, dt, p_stage, zip(rows, rows[1:] + rows[-1:]))


# --- comparison ----------------------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    """Per-output-channel discrepancy between two trajectories."""

    max_abs_error: tuple[float, ...]
    relative_rms: tuple[float, ...]
    first_exceed: int | None
    tol: float

    @property
    def passed(self) -> bool:
        return self.first_exceed is None

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"compare {status} (tol {self.tol:.1e} max abs per channel)"
        ]
        for k, (ma, rr) in enumerate(zip(self.max_abs_error, self.relative_rms)):
            lines.append(
                f"  y{k + 1}: max abs error {ma:.6e}, relative rms {rr:.6e}"
            )
        if self.first_exceed is not None:
            lines.append(f"  first sample exceeding tolerance: {self.first_exceed}")
        return "\n".join(lines)


def compare(a: Trajectory, b: Trajectory, tol: float = COMPARE_TOL) -> CompareReport:
    """Max-abs and relative-RMS output error of b against a."""
    if not 0.0 <= tol < math.inf:
        raise InvalidConfig(f"tolerance must be finite and >= 0, got {tol}")
    if a.dt != b.dt or a.y.shape != b.y.shape:
        raise ShapeMismatch(
            f"trajectories differ in grid or output shape: "
            f"dt {a.dt} vs {b.dt}, y {a.y.shape} vs {b.y.shape}"
        )
    err = np.abs(a.y - b.y)
    max_abs = np.max(err, axis=0)
    rms_a = np.sqrt(np.mean(a.y**2, axis=0))
    rms_e = np.sqrt(np.mean(err**2, axis=0))
    rel = np.where(
        rms_a > 0.0, rms_e / np.where(rms_a > 0.0, rms_a, 1.0),
        np.where(rms_e > 0.0, np.inf, 0.0),
    )
    exceed = np.any(err > tol, axis=1)
    first = int(np.argmax(exceed)) if bool(np.any(exceed)) else None
    return CompareReport(
        max_abs_error=tuple(float(v) for v in max_abs),
        relative_rms=tuple(float(v) for v in rel),
        first_exceed=first,
        tol=tol,
    )


# --- spectrum --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided amplitude spectrum of the output channels."""

    freqs_hz: np.ndarray
    magnitude: np.ndarray  # (n_bins, n_channels)
    names: tuple[str, ...]


def spectrum(traj: Trajectory) -> Spectrum:
    """Discrete Fourier amplitude spectrum of the trajectory's outputs y.

    The final sample is dropped before transforming: on a multisine input
    it repeats the period start exactly, and dropping it lands a periodic
    output exactly on the DFT bins.  Magnitudes are one-sided amplitudes
    (a unit sinusoid on a bin shows magnitude 1 there).
    """
    data = traj.y[:-1]
    n = data.shape[0]
    X = np.fft.rfft(data, axis=0)
    mags = np.abs(X) / n
    if n % 2 == 0:
        mags[1:-1] *= 2.0
    else:
        mags[1:] *= 2.0
    freqs = np.fft.rfftfreq(n, d=traj.dt)
    names = tuple(f"y{k + 1}" for k in range(data.shape[1]))
    return Spectrum(freqs_hz=freqs, magnitude=mags, names=names)


# --- excitation -------------------------------------------------------------------


def multisine(
    n_u: int,
    f_min: float,
    f_max: float,
    amplitude: float,
    dt: float,
    n_steps: int,
    seed: int = 0,
) -> np.ndarray:
    """Random-phase multisine samples, one independent realization per input.

    Equal-amplitude cosines on the DFT grid of the n_steps-sample period
    (DC excluded), with uniform random phases from the seeded generator,
    scaled so each channel has RMS equal to ``amplitude`` over one period.
    Each channel is one inverse real FFT of its lines.  Returns an
    (n_steps + 1, n_u) array; the extra sample is a copy of the first, the
    periodic signal's next value, for endpoint interpolation.
    """
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    nyquist = 0.5 / dt
    if not (0.0 <= f_min < f_max < nyquist):
        raise NyquistViolation(
            f"band [{f_min}, {f_max}] Hz does not satisfy "
            f"0 <= f_min < f_max < {nyquist} Hz (Nyquist for dt = {dt})"
        )
    if n_steps + 1 > MAX_MULTISINE_SAMPLES:
        raise InvalidConfig(
            f"multisine of {n_steps + 1} samples exceeds "
            f"{MAX_MULTISINE_SAMPLES} samples"
        )
    period = n_steps * dt
    k_lo = max(1, math.ceil(f_min * period))
    k_hi = min(math.floor(f_max * period), (n_steps - 1) // 2)
    if k_hi < k_lo:
        raise NyquistViolation(
            f"band [{f_min}, {f_max}] Hz contains no DFT grid lines for a "
            f"{period} s period"
        )
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_u, k_hi - k_lo + 1))
    if amplitude == 0.0:
        return np.zeros((n_steps + 1, n_u))
    out = np.empty((n_steps + 1, n_u))
    # irfft of (n_steps / 2) e^(i phi) on line k is cos(2 pi k n / n_steps + phi)
    row = np.zeros(n_steps // 2 + 1, dtype=complex)
    for j in range(n_u):
        row[k_lo : k_hi + 1] = (n_steps / 2) * np.exp(1j * phases[j])
        u = np.fft.irfft(row, n=n_steps)
        out[:n_steps, j] = u * (amplitude / math.sqrt(float(np.mean(u**2))))
    out[n_steps] = out[0]
    return out


# --- CSV emission ---------------------------------------------------------------


def _csv(header: list[str], columns) -> str:
    # rows are formatted one at a time from the 2-D columns, with no stacked
    # copy of them; repr of a Python float is its shortest round-trip text.
    # The empty last row ends the text with a newline, without copying it
    rows = [",".join(header)]
    for parts in zip(*columns):
        vals = []
        for part in parts:
            vals += part.tolist()
        rows.append(",".join(map(repr, vals)))
    rows.append("")
    return "\n".join(rows)


def trajectory_csv(traj: Trajectory) -> str:
    """Trajectory as CSV text: t, u..., x..., y..., z..., w.../p... columns."""
    label = traj.w_or_p_label
    header = (
        ["t"]
        + [f"u{k + 1}" for k in range(traj.u.shape[1])]
        + [f"x{k + 1}" for k in range(traj.x.shape[1])]
        + [f"y{k + 1}" for k in range(traj.y.shape[1])]
        + [f"z{k + 1}" for k in range(traj.z.shape[1])]
        + [f"{label}{k + 1}" for k in range(traj.w_or_p.shape[1])]
    )
    return _csv(
        header, [traj.times[:, None], traj.u, traj.x, traj.y, traj.z, traj.w_or_p]
    )


def spectrum_csv(spec: Spectrum) -> str:
    return _csv(
        ["freq_hz"] + list(spec.names), [spec.freqs_hz[:, None], spec.magnitude]
    )
