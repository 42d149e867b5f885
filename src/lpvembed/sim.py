"""Fixed-step simulation, trajectory comparison, and frequency-domain views.

Both model kinds integrate with classic fourth-order Runge-Kutta on a fixed
grid, sharing one stepping core and one vector field dx = A x + Bu u + Bw w
so that equivalence residuals measure only the difference between the rules
for w (f(z), or the rank-one LPV feedback P(z) z), never solver artifacts.
Inputs are sampled signals with n_steps + 1 samples; the input drive
[Bu u; Dzu u] is formed for all samples before the loop and interpolated
linearly at the half-steps.  In self-scheduled LPV simulation the
scheduling vector is recomputed from the current state and corrected input
at every stage, which keeps the LPV vector field pointwise equal to the
nonlinear one.

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


class _Diverged(Exception):
    def __init__(self, message: str, step: int, states: np.ndarray):
        self.message = message
        self.step = step
        self.states = states


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


def _integrate(field, x0: np.ndarray, drive: np.ndarray, dt: float) -> np.ndarray:
    """RK4 over the sample grid; drive rows are interpolated at half-steps."""
    n_steps = drive.shape[0] - 1
    half = 0.5 * (drive[:-1] + drive[1:])
    states = np.empty((n_steps + 1, x0.shape[0]))
    states[0] = x0
    x = x0
    h2 = 0.5 * dt
    h6 = dt / 6.0
    try:
        for k in range(n_steps):
            ek = drive[k]
            em = half[k]
            en = drive[k + 1]
            k1 = field(x, ek)
            k2 = field(x + h2 * k1, em)
            k3 = field(x + h2 * k2, em)
            k4 = field(x + dt * k3, en)
            x = x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # one comparison that NaN and inf also fail
            if not abs(x).max() <= DIVERGENCE_LIMIT:
                raise _Diverged(
                    f"state exceeded {DIVERGENCE_LIMIT:.0e} at step {k + 1}",
                    k + 1,
                    states[: k + 1],
                )
            states[k + 1] = x
    # Python float powers and math.exp raise on overflow, math.sin(inf) on
    # its domain
    except (OverflowError, ValueError) as exc:
        raise _Diverged(
            f"nonlinearity evaluation overflowed at step {k + 1} ({exc})",
            k + 1,
            states[: k + 1],
        ) from None
    return states


def _field(core, rule):
    """The one field dx = A x + Bu u + Bw w, w = rule(z, e), of all runs.

    A drive row e is [Bu u; Dzu u] at the stage, then any played-back p.
    """
    n_x = core.A.shape[0]
    AC = np.vstack([core.A, core.Cz])
    n_s = AC.shape[0]
    Bw = core.Bw

    def field(x, e):
        s = AC @ x + e[:n_s]
        return s[:n_x] + Bw @ rule(s[n_x:].tolist(), e)

    return field


def _simulate(core, rule, signals, x0, u, u_c, dt, y0=0.0, played=None):
    """Integrate the field driven by u_c and any played-back columns.

    signals(Z) gives W, the recorded series and its label for the readout
    y = Cy x + Dyu u_c + Dyw W + y0.  A failed run raises Divergence.
    """

    def finish(states):
        n = states.shape[0]
        uc = u_c[:n]
        Z = states @ core.Cz.T + uc @ core.Dzu.T
        W, rec, label = signals(Z)
        Y = states @ core.Cy.T + uc @ core.Dyu.T + W @ core.Dyw.T + y0
        return Trajectory(dt, 0.0, u[:n], states, Y, Z, rec, label)

    drive = u_c @ np.vstack([core.Bu, core.Dzu]).T
    if played is not None:
        drive = np.hstack([drive, played])
    try:
        states = _integrate(_field(core, rule), x0, drive, dt)
    except _Diverged as div:
        raise Divergence(
            div.message, step=div.step, trajectory=finish(div.states)
        ) from None
    return finish(states)


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

    def rule(z, e):
        return [row.evaluate(z) for row in f_rows]

    def signals(Z):
        W = _eval_rows(f_rows, Z)
        return W, W, "w"

    return _simulate(model, rule, signals, x0, u, u, dt)


def _simulate_lpv(lpv: LpvModel, u, x0, dt, p_stage, p_samples, played=None):
    """LPV run on the rank-one feedback w_r = sum over (r, i) of p_ri z_i.

    p_stage(z, e) gives p at a stage and p_samples(Z) at the samples.
    """
    d = lpv.dims
    x0 = _check_state(x0, d.n_x)
    rows = [[] for _ in range(d.n_w)]
    for k, (r, i) in enumerate(lpv.channels):
        rows[r - 1].append((k, i - 1))

    def rule(z, e):
        p = p_stage(z, e)
        return [sum([p[k] * z[i] for k, i in row], 0.0) for row in rows]

    def signals(Z):
        P = p_samples(Z)
        W = np.zeros((Z.shape[0], d.n_w))
        for k, (r, i) in enumerate(lpv.channels):
            W[:, r - 1] += P[:, k] * Z[:, i - 1]
        return W, P, "p"

    return _simulate(lpv, rule, signals, x0, u, u - lpv.d, dt, lpv.y0, played)


def simulate_lpv_self(lpv: LpvModel, u, x0=None, dt: float = 1e-3) -> Trajectory:
    """Self-scheduled LPV simulation on the raw input.

    The input correction u - d is applied internally; the scheduling vector
    is recomputed from (x, u_corrected) at every integration stage.  Outputs
    are returned in raw coordinates (y0 added back).
    """
    u = _check_samples(u, lpv.dims.n_u, "input")
    entries = [lpv.schedule.entry(r, i) for r, i in lpv.channels]
    return _simulate_lpv(
        lpv, u, x0, dt, lambda z, e: [q.evaluate(z) for q in entries],
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
    return _simulate_lpv(
        lpv, u, x0, dt, lambda z, e: e[d.n_x + d.n_z :].tolist(),
        lambda Z: p[: Z.shape[0]], played=p,
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
    """One-sided amplitude spectrum of selected trajectory channels."""

    freqs_hz: np.ndarray
    magnitude: np.ndarray  # (n_bins, n_channels)
    names: tuple[str, ...]


def spectrum(traj: Trajectory, signal: str = "y") -> Spectrum:
    """Discrete Fourier amplitude spectrum of a trajectory signal.

    The final sample is dropped before transforming: on the default grid it
    duplicates the period start, and dropping it lands periodic signals
    exactly on the DFT bins.  Magnitudes are one-sided amplitudes (a unit
    sinusoid on a bin shows magnitude 1 there).
    """
    signals = {
        "u": traj.u,
        "x": traj.x,
        "y": traj.y,
        "z": traj.z,
        traj.w_or_p_label: traj.w_or_p,
    }
    if signal not in signals:
        raise ShapeMismatch(
            f"unknown signal {signal!r}; trajectory has {sorted(signals)}"
        )
    data = signals[signal][:-1]
    n = data.shape[0]
    X = np.fft.rfft(data, axis=0)
    mags = np.abs(X) / n
    if n % 2 == 0:
        mags[1:-1] *= 2.0
    else:
        mags[1:] *= 2.0
    freqs = np.fft.rfftfreq(n, d=traj.dt)
    names = tuple(f"{signal}{k + 1}" for k in range(data.shape[1]))
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


def _fmt(v: float) -> str:
    return repr(float(v))


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
    rows = [",".join(header)]
    times = traj.times
    for n in range(traj.x.shape[0]):
        vals = (
            [times[n]]
            + list(traj.u[n])
            + list(traj.x[n])
            + list(traj.y[n])
            + list(traj.z[n])
            + list(traj.w_or_p[n])
        )
        rows.append(",".join(_fmt(v) for v in vals))
    return "\n".join(rows) + "\n"


def spectrum_csv(spec: Spectrum) -> str:
    header = ["freq_hz"] + list(spec.names)
    rows = [",".join(header)]
    for n in range(spec.freqs_hz.shape[0]):
        vals = [spec.freqs_hz[n]] + list(spec.magnitude[n])
        rows.append(",".join(_fmt(v) for v in vals))
    return "\n".join(rows) + "\n"
