"""Fixed-step simulation, trajectory comparison, and frequency-domain views.

Both model kinds integrate with classic fourth-order Runge-Kutta on a fixed
grid, sharing one stepping core for the field dx = A x + Bu u + Bw w so that
equivalence residuals measure only the difference between the rules for w
(f(z), or the rank-one LPV feedback P(z) z), never solver artifacts.  The
field is affine in x, u and w, so each RK4 step is unrolled once per run
into a linear map; the loop evaluates only the rule for w, one call
rule(z) per stage, the four stages of each step in order.  Inputs are
sampled signals with n_steps + 1 samples, interpolated linearly at the
half-steps.  In self-scheduled LPV simulation the scheduling vector is
recomputed from the current state and corrected input at every stage,
which keeps the LPV vector field pointwise equal to the nonlinear one; in
exogenous LPV simulation the stage rule instead plays back the next
scheduling row, interpolated like the input.

Trajectories record the raw input, states, raw outputs, the nonlinearity
input z, and either w = f(z) (nonlinear runs) or the scheduling vector p
(LPV runs) at the sample instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelCountMismatch,
    Divergence,
    InvalidConfig,
    NyquistViolation,
    ShapeMismatch,
)
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

#: Default comparison tolerance on per-channel max absolute output error.
COMPARE_TOL = 1e-9

#: Most entries of the (n_steps + 1) x n_lines table a multisine builds.
MAX_MULTISINE_TABLE = 25_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled simulation result; all series share the same length."""

    dt: float
    t0: float
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
        return self.t0 + self.dt * np.arange(self.x.shape[0])


def _check_state(x0, n_x: int) -> np.ndarray:
    if x0 is None:
        return np.zeros(n_x)
    arr = np.atleast_1d(np.asarray(x0, dtype=float))
    if arr.shape != (n_x,):
        raise ShapeMismatch(
            f"initial state has shape {arr.shape}, expected ({n_x},)"
        )
    return arr


def _check_samples(u, n_cols: int, name: str) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != n_cols:
        raise ShapeMismatch(
            f"{name} samples have shape {np.asarray(u).shape}, "
            f"expected (n_steps + 1, {n_cols})"
        )
    if arr.shape[0] < 2:
        raise ShapeMismatch(f"{name} needs at least 2 samples")
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatch(f"{name} samples contain non-finite values")
    return arr


def _step_map(core, dt: float):
    """One classic RK4 step of the field, unrolled into a linear map.

    With v = [u_k; u_k+1] and the input (u_k + u_k+1) / 2 at the half-step,
    the stage state is x_i = P_i x + (terms in v and w_1, ..., w_i-1), so
    stage i has z_i = Cz P_i x + K_i v + sum over j < i of H_ij w_j, and the
    step is the increment D x + K_x v + sum over j of Psi_j w_j.  Returns
    M = [Cz P_1; ...; Cz P_4; D], K = [K_1; ...; K_4; K_x], the corrections
    H_i = [H_i1 ... H_i,i-1] of stages 2 to 4 and Psi = [Psi_1 ... Psi_4].
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
    for U, Wi, c, b in zip(
        (u_k, u_m, u_m, u_n), W, (0.5, 0.5, 1.0, 0.0), (1.0, 2.0, 2.0, 1.0)
    ):
        rows.append(core.Cz @ X + core.Dzu @ U)
        k = core.A @ X + core.Bu @ U + core.Bw @ Wi
        incr = incr + (b * dt / 6.0) * k
        X = X0 + (c * dt) * k
    G = np.vstack(rows + [incr])
    n_z = core.Cz.shape[0]
    Gw = G[:, n_x + 2 * n_u :]
    H = [Gw[i * n_z : (i + 1) * n_z, : i * n_w] for i in (1, 2, 3)]
    return G[:, :n_x], G[:, n_x : n_x + 2 * n_u], H, Gw[4 * n_z :]


def _integrate(step, rule, x0: np.ndarray, u_c: np.ndarray):
    """RK4 over the sample grid; w_i = rule(z_i) at each stage, in order.

    Returns (states, failure): failure is None for a complete run, else the
    reason the run stopped, with states holding the samples reached.
    """
    M, K, (H2, H3, H4), Psi = step
    # s = M x + off[k] holds z_1, ..., z_4 before the w corrections, then
    # the increment before Psi w
    n_z = H2.shape[0]
    z2, z3, z4, z5 = n_z, 2 * n_z, 3 * n_z, 4 * n_z
    n_steps = u_c.shape[0] - 1
    off = np.hstack([u_c[:-1], u_c[1:]]) @ K.T
    states = np.empty((n_steps + 1, x0.shape[0]))
    states[0] = x0
    x = x0
    try:
        for k in range(n_steps):
            s = M @ x + off[k]
            w = rule(s[:z2].tolist())
            w += rule((s[z2:z3] + H2.dot(w)).tolist())
            w += rule((s[z3:z4] + H3.dot(w)).tolist())
            w += rule((s[z4:z5] + H4.dot(w)).tolist())
            # an increment, so its O(dt) terms are not rounded against x
            x = x + (s[z5:] + Psi.dot(w))
            # one comparison that NaN and inf also fail
            if not abs(x).max() <= DIVERGENCE_LIMIT:
                failure = f"state exceeded {DIVERGENCE_LIMIT:.0e} at step {k + 1}"
                return states[: k + 1], failure
            states[k + 1] = x
    # Python float powers and math.exp raise on overflow, math.sin(inf) on
    # its domain
    except (OverflowError, ValueError) as exc:
        failure = f"nonlinearity evaluation overflowed at step {k + 1} ({exc})"
        return states[: k + 1], failure
    return states, None


def _simulate(core, rule, signals, x0, u, u_c, dt, y0=0.0):
    """Integrate the core closed by w = rule(z), driven by u_c.

    signals(Z) gives W, the recorded series and its label for the readout
    y = Cy x + Dyu u_c + Dyw W + y0.  A failed run raises Divergence.
    """
    states, failure = _integrate(_step_map(core, dt), rule, x0, u_c)
    n = states.shape[0]
    uc = u_c[:n]
    Z = states @ core.Cz.T + uc @ core.Dzu.T
    W, rec, label = signals(Z)
    Y = states @ core.Cy.T + uc @ core.Dyu.T + W @ core.Dyw.T + y0
    traj = Trajectory(dt, 0.0, u[:n], states, Y, Z, rec, label)
    if failure is not None:
        raise Divergence(failure, step=n, trajectory=traj)
    return traj


def _eval_rows(rows, Z: np.ndarray) -> np.ndarray:
    out = np.empty((Z.shape[0], len(rows)))
    for k, row in enumerate(rows):
        out[:, k] = row.evaluate_batch(Z)
    return out


def simulate_nlfr(
    model: NlfrModel, u, x0=None, dt: float = 1e-3
) -> Trajectory:
    """Integrate xdot = A x + Bu u + Bw f(Cz x + Dzu u) over the input grid."""
    d = model.dims
    u = _check_samples(u, d.n_u, "input")
    x0 = _check_state(x0, d.n_x)
    f_rows = model.f

    def rule(z):
        return [row.evaluate(z) for row in f_rows]

    def signals(Z):
        W = _eval_rows(f_rows, Z)
        return W, W, "w"

    return _simulate(model, rule, signals, x0, u, u, dt)


def _simulate_lpv(lpv: LpvModel, u, x0, dt, p_stage, p_samples):
    """LPV run on the rank-one feedback w_r = sum over (r, i) of p_ri z_i.

    p_stage(z) gives p at each stage, called in stage order, and
    p_samples(Z) gives p at the samples.
    """
    d = lpv.dims
    x0 = _check_state(x0, d.n_x)
    rows = [[] for _ in range(d.n_w)]
    for k, (r, i) in enumerate(lpv.channels):
        rows[r - 1].append((k, i - 1))

    def rule(z):
        p = p_stage(z)
        return [sum([p[k] * z[i] for k, i in row], 0.0) for row in rows]

    def signals(Z):
        P = p_samples(Z)
        W = np.zeros((Z.shape[0], d.n_w))
        for k, (r, i) in enumerate(lpv.channels):
            W[:, r - 1] += P[:, k] * Z[:, i - 1]
        return W, P, "p"

    return _simulate(lpv, rule, signals, x0, u, u - lpv.d, dt, lpv.y0)


def simulate_lpv_self(lpv: LpvModel, u, x0=None, dt: float = 1e-3) -> Trajectory:
    """Self-scheduled LPV simulation on the raw input.

    The input correction u - d is applied internally; the scheduling vector
    is recomputed from (x, u_corrected) at every integration stage.  Outputs
    are returned in raw coordinates (y0 added back).
    """
    u = _check_samples(u, lpv.dims.n_u, "input")
    entries = [lpv.schedule.entry(r, i) for r, i in lpv.channels]
    return _simulate_lpv(
        lpv, u, x0, dt, lambda z: [q.evaluate(z) for q in entries],
        lambda Z: _eval_rows(entries, Z),
    )


def simulate_lpv_exogenous(
    lpv: LpvModel, u, p, x0=None, dt: float = 1e-3
) -> Trajectory:
    """LPV simulation with the scheduling vector played back as a signal.

    p holds n_steps + 1 samples of the n_p retained channels and is
    linearly interpolated at the stage times, exactly like the input.
    """
    d = lpv.dims
    u = _check_samples(u, d.n_u, "input")
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    if p.shape != (u.shape[0], d.n_p):
        raise ChannelCountMismatch(
            f"scheduling samples have shape {p.shape}, "
            f"expected ({u.shape[0]}, {d.n_p})"
        )
    if not np.all(np.isfinite(p)):
        raise ShapeMismatch("scheduling samples contain non-finite values")

    def played():
        # the rows of the four stages of each step: sample, half-step twice,
        # next sample
        for a, b in zip(p[:-1], p[1:]):
            half = (0.5 * (a + b)).tolist()
            yield from (a.tolist(), half, half, b.tolist())

    stages = played()
    return _simulate_lpv(
        lpv, u, x0, dt, lambda z: next(stages), lambda Z: p[: Z.shape[0]]
    )


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

    The final sample is dropped before transforming: on the default grid it
    duplicates the period start, and dropping it lands periodic signals
    exactly on the DFT bins.  Magnitudes are one-sided amplitudes (a unit
    sinusoid on a bin shows magnitude 1 there).
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
    Returns an (n_steps + 1, n_u) array; the extra sample continues the
    periodic signal for endpoint interpolation.
    """
    nyquist = 0.5 / dt
    if not (0.0 <= f_min < f_max < nyquist):
        raise NyquistViolation(
            f"band [{f_min}, {f_max}] Hz does not satisfy "
            f"0 <= f_min < f_max < {nyquist} Hz (Nyquist for dt = {dt})"
        )
    period = n_steps * dt
    k_lo = max(1, math.ceil(f_min * period))
    k_hi = min(math.floor(f_max * period), (n_steps - 1) // 2)
    if k_hi < k_lo:
        raise NyquistViolation(
            f"band [{f_min}, {f_max}] Hz contains no DFT grid lines for a "
            f"{period} s period"
        )
    n_lines = k_hi - k_lo + 1
    if (n_steps + 1) * n_lines > MAX_MULTISINE_TABLE:
        raise InvalidConfig(
            f"multisine table of {n_steps + 1} samples x {n_lines} lines "
            f"exceeds {MAX_MULTISINE_TABLE} entries"
        )
    k = np.arange(k_lo, k_hi + 1)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_u, k.size))
    if amplitude == 0.0:
        return np.zeros((n_steps + 1, n_u))
    t = np.arange(n_steps + 1) * dt
    omega_t = 2.0 * np.pi * np.outer(t, k / period)
    out = np.empty((n_steps + 1, n_u))
    for j in range(n_u):
        sig = np.cos(omega_t + phases[j]).sum(axis=1)
        rms = math.sqrt(float(np.mean(sig[:n_steps] ** 2)))
        out[:, j] = (amplitude / rms) * sig
    return out


# --- CSV emission ---------------------------------------------------------------


def _csv(header: list[str], columns) -> str:
    # rows are formatted one at a time from the 2-D columns, with no stacked
    # copy of them; repr of a Python float is its shortest round-trip text
    rows = [",".join(header)]
    for parts in zip(*columns):
        vals = []
        for part in parts:
            vals += part.tolist()
        rows.append(",".join(map(repr, vals)))
    return "\n".join(rows) + "\n"


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
