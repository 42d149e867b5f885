"""Simulation tests: solver order, equivalence, excitation, spectra."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import keyword
import math
import os
import re
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_nlfr_raw
from lpvembed import (
    compare,
    embed,
    matching_start,
    multisine,
    simulate_lpv_exogenous,
    simulate_lpv_self,
    simulate_nlfr,
    spectrum,
    validate_nlfr,
)
from lpvembed.errors import (
    ChannelCountMismatch,
    Divergence,
    HurwitzWarning,
    InvalidConfig,
    NyquistViolation,
    ShapeMismatch,
)
from lpvembed import expr, sim
from lpvembed.expr import (
    EMITTED_FUNCTIONS,
    FUNCTIONS,
    Expression,
    FuncFactor,
    GuardedQuotient,
    Term,
)
from lpvembed.sim import MAX_MULTISINE_SAMPLES, Trajectory


def first_order_raw():
    return {
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[0.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0"],
    }


def oscillator_raw(omega=2.0 * math.pi):
    return {
        "dims": {"n_x": 2, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[0.0, omega], [-omega, 0.0]],
        "Bw": [[0.0], [0.0]], "Bu": [[0.0], [0.0]],
        "Cz": [[1.0, 0.0]], "Cy": [[1.0, 0.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0"],
    }


# --- solver accuracy -----------------------------------------------------------


def test_first_order_step_response_accuracy():
    m = validate_nlfr(first_order_raw())
    n = 1000
    traj = simulate_nlfr(m, np.ones((n + 1, 1)), dt=1e-3)
    assert abs(traj.y[-1, 0] - (1.0 - math.exp(-1.0))) <= 1e-8


def test_rk4_fourth_order_on_oscillator():
    m = validate_nlfr(oscillator_raw())
    omega = 2.0 * math.pi
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = round(1.0 / dt)
        traj = simulate_nlfr(m, np.zeros((n + 1, 1)), x0=[1.0, 0.0], dt=dt)
        errs.append(float(np.max(np.abs(traj.y[:, 0] - np.cos(omega * traj.times)))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 16.0 * 0.8 <= coarse / fine <= 16.0 * 1.2, errs


def test_richardson_self_convergence_msd(msd_model):
    # refine the input by exact midpoint insertion so every resolution
    # integrates the same piecewise-linear input signal
    lpv_free = msd_model
    dt0 = 4e-3
    n0 = round(4.0 / dt0)
    u = multisine(2, 0.0, 2.0, 1.0, dt0, n0, seed=5)

    def refine(samples):
        fine = np.empty((2 * (samples.shape[0] - 1) + 1, samples.shape[1]))
        fine[0::2] = samples
        fine[1::2] = 0.5 * (samples[:-1] + samples[1:])
        return fine

    u2 = refine(u)
    u4 = refine(u2)
    y0 = simulate_nlfr(lpv_free, u, dt=dt0).y
    y1 = simulate_nlfr(lpv_free, u2, dt=dt0 / 2).y
    y2 = simulate_nlfr(lpv_free, u4, dt=dt0 / 4).y
    e01 = float(np.max(np.abs(y0 - y1[0::2])))
    e12 = float(np.max(np.abs(y1 - y2[0::2])))
    assert 16.0 * 0.75 <= e01 / e12 <= 16.0 * 1.25, (e01, e12)


def test_energy_drift_undamped_oscillator():
    m = validate_nlfr(oscillator_raw(omega=1.0))
    n = 10000
    traj = simulate_nlfr(m, np.zeros((n + 1, 1)), x0=[1.0, 0.0], dt=1e-3)
    energy = np.sum(traj.x**2, axis=1)
    assert float(np.max(np.abs(energy - energy[0]))) <= 1e-6


def textbook_rk4(m, u, x0, dt):
    """Stage-by-stage classic RK4 of the NLFR field, input linear in time."""

    def field(x, uu):
        z = m.Cz @ x + m.Dzu @ uu
        w = np.array([row.evaluate(z.tolist()) for row in m.f])
        return m.A @ x + m.Bu @ uu + m.Bw @ w

    xs = [np.asarray(x0, dtype=float)]
    for k in range(u.shape[0] - 1):
        x, um = xs[-1], 0.5 * (u[k] + u[k + 1])
        k1 = field(x, u[k])
        k2 = field(x + 0.5 * dt * k1, um)
        k3 = field(x + 0.5 * dt * k2, um)
        k4 = field(x + dt * k3, u[k + 1])
        xs.append(x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(xs)


def test_step_map_matches_textbook_rk4():
    rng = np.random.default_rng(11)
    for seed in range(6):
        m = validate_nlfr(random_nlfr_raw(rng, n_w=2))
        assert np.any(m.Dzu != 0.0)
        u = multisine(m.dims.n_u, 0.0, 5.0, 0.7, 1e-2, 500, seed=seed)
        x0 = rng.uniform(-1.0, 1.0, m.dims.n_x)
        ref = textbook_rk4(m, u, x0, 1e-2)
        x = simulate_nlfr(m, u, x0=x0, dt=1e-2).x
        assert float(np.max(np.abs(x - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


def test_equilibrium_held_over_long_run(msd_raw):
    # the step is applied as an increment; folding the identity into the
    # map (x+ = (I + D) x + ...) rounds each O(dt) step against x and lets
    # the state drift away from the equilibrium
    raw = copy.deepcopy(msd_raw)
    raw["f"] = ["0"]
    m = validate_nlfr(raw)
    u = np.tile([0.7, -0.3], (20001, 1))
    x_star = -np.linalg.solve(m.A, m.Bu @ u[0])
    x = simulate_nlfr(m, u, x0=x_star, dt=1e-3).x
    drift = float(np.max(np.abs(x - x_star))) / float(np.max(np.abs(x_star)))
    assert drift <= 5e-14


def test_divergence_reports_step_and_partial():
    raw = copy.deepcopy(first_order_raw())
    raw["A"] = [[1.0]]
    raw["Bw"] = [[1.0]]
    raw["f"] = ["z1^3"]
    m = validate_nlfr(raw)
    n = 5000
    with pytest.raises(Divergence) as exc_info:
        simulate_nlfr(m, np.zeros((n + 1, 1)), x0=[1.0], dt=1e-3)
    err = exc_info.value
    assert 0 < err.step < n
    assert err.trajectory is not None
    assert err.trajectory.x.shape[0] == err.step
    assert np.all(np.isfinite(err.trajectory.x))


@pytest.mark.parametrize("f", ["exp(z1)", "z1^5 + sin(z1)"])
def test_evaluation_overflow_is_divergence(f):
    # exp overflows, and sin of an infinite stage argument is out of domain,
    # before the state itself passes the divergence limit
    raw = copy.deepcopy(first_order_raw())
    raw["A"] = [[1.0]]
    raw["Bw"] = [[1.0]]
    raw["f"] = [f]
    m = validate_nlfr(raw)
    # exp(0) = 1 is an offset, propagated through an A that is not Hurwitz
    with pytest.warns(HurwitzWarning) if f == "exp(z1)" else contextlib.nullcontext():
        lpv = embed(m)
    u = np.zeros((2001, 1))
    for run in (lambda: simulate_nlfr(m, u, x0=[1.0], dt=1e-2),
                lambda: simulate_lpv_self(lpv, u, x0=[1.0], dt=1e-2)):
        with pytest.raises(Divergence, match="overflowed") as exc_info:
            run()
        err = exc_info.value
        assert 0 < err.step < 2000
        assert err.trajectory.x.shape[0] == err.step
        assert np.all(np.isfinite(err.trajectory.x))


# --- generated stage kernel -------------------------------------------------------

# every name a kernel may hold: its parameters and locals, the builtins and
# numpy methods it calls, and the stage variables z, w and p
KERNEL_NAMES = {
    "kernel", "x", "off", "states", "M", "Psi", "p", "rec", "record",
    "recorded", "k", "sa", "s", "o", "c", "exc", "range", "abs", "max", "next",
    "dot", "tolist", "OverflowError", "ValueError",
}
# the stage variables z, w and p, the played-back rows a, h and b, the values
# a stage names at their first evaluation (v), the state and the products
# M x of a float step (x and s) and the emitted functions
KERNEL_NAME_RE = re.compile(r"(z|p|a|h|b|v|x|s)\d+|w[0-3]_\d+|_fn[0-5]")

# _FLOAT_STEP_MAX values that put every model on one form of the step
STEP_FORMS = {"float": math.inf, "numpy": -1}


def kernel_sources(run):
    """The source of each kernel that run() compiles, in order."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "compile", spy, raising=False)
        run()
    return sources


def test_kernel_source_holds_only_allowed_names(msd_model, monkeypatch):
    rng = np.random.default_rng(5)
    toy = validate_nlfr(random_nlfr_raw(
        rng, n_x=3, n_u=2, n_y=2, n_w=2, n_z=2,
        f_rows=["exp(0.1*z1)*cos(z2) + cosh(0.2*z2) + 0.3",
                "0.2*sinh(z1)*tanh(z2) - 0.1*z2 + sin(z1 + z2)"],
    ))
    u = np.random.default_rng(4).uniform(-1.0, 1.0, (21, 2))

    def runs():
        for m in (msd_model, toy):
            ta = simulate_nlfr(m, u)
            for ordering in ((1, 2), (2, 1)):
                lpv = embed(m, ordering)
                simulate_lpv_self(lpv, u, x0=matching_start(lpv))
                p = np.column_stack([
                    lpv.schedule.entry(r, i).evaluate_batch(ta.z)
                    for r, i in lpv.channels
                ])
                simulate_lpv_exogenous(lpv, u, p)

    for form, limit in STEP_FORMS.items():
        monkeypatch.setattr(sim, "_FLOAT_STEP_MAX", limit)
        sources = kernel_sources(runs)
        assert len(sources) == 10
        text = "\n".join(sources)
        assert "if abs(" in text and all(f"_fn{k}(" in text for k in range(6))
        for source in sources:
            assert ("M @ x" in source) == (form == "numpy"), form
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
            assert not any(t.type == tokenize.STRING for t in tokens)
            names = {t.string for t in tokens if t.type == tokenize.NAME}
            assert all(
                keyword.iskeyword(n) or n in KERNEL_NAMES or KERNEL_NAME_RE.fullmatch(n)
                for n in names
            ), names


def test_five_thousand_term_row_simulates(msd_model):
    # built from terms, not parsed: one long sum in the generated kernel
    terms = [
        Term(1e-4, (0, 0), (FuncFactor("sin", (1.0, 0.5), 1e-3 * k),))
        for k in range(5000)
    ]
    row = Expression.from_terms(terms, 2)
    assert len(row.terms) == 5000
    m = dataclasses.replace(msd_model, f=(row,))
    u = np.random.default_rng(0).uniform(-1.0, 1.0, (11, 2))
    traj = simulate_nlfr(m, u)
    assert traj.n_steps == 10
    assert np.all(np.isfinite(traj.x)) and np.any(traj.w_or_p != 0.0)


# --- values named once per stage ------------------------------------------------------

# f rows whose guarded quotients share calls: sin(z1), cos(z2) and tanh(z2)
# each occur in several entries, and in both branches of a guard
SHARED_CALL_ROWS = [
    "0.2*sin(z1 + 0.5*z3)*cos(z2) + 0.1*tanh(z2 - z3)*z1 + 0.05*z3^2",
    "0.3*sin(z1 + 0.5*z3)*tanh(z2 - z3) - 0.1*cos(z2)*z3 + 0.1*z1^2*z2",
]


def shared_calls_model(**overrides):
    raw = random_nlfr_raw(
        np.random.default_rng(23), n_x=4, n_u=2, n_y=2, n_w=2, n_z=3,
        f_rows=SHARED_CALL_ROWS,
    )
    return validate_nlfr({**raw, **overrides})


def logged(log, name, fn):
    """fn of one argument, which first appends (name, argument) to log."""
    def call(a):
        log.append((name, a))
        return fn(a)
    return call


def stage_zero_calls(run):
    """run()'s trajectory, and for each recorded sample the (name, argument)
    pairs its kernel passed to the emitted functions in stage 0."""
    log = []

    def marked(mark, fn):
        def call(*args):
            log.append(mark)
            return fn(*args)
        return call

    class StepStart:  # off, which each step of either form indexes once, first
        def __init__(self, off):
            self.row = marked("step", off.__getitem__)

        def __getitem__(self, k):
            return self.row(k)

    kernel_for = sim._kernel

    def traced_kernel(*args):
        kernel = kernel_for(*args)

        def run_kernel(x, off, states, M, Psi, p, rec, record):
            # record ends stage 0
            return kernel(x, StepStart(off), states, M, Psi, p, rec,
                          marked("record", record))

        return run_kernel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_kernel", traced_kernel)
        mp.setattr(sim, "EMITTED_FUNCTIONS", {
            name: logged(log, name, fn) for name, fn in EMITTED_FUNCTIONS.items()
        })
        traj = run()
    stages, calls = [], []
    for event in log:
        if event == "record":
            stages.append(calls)
            calls = None  # stages 1 to 3
        elif event == "step":
            calls = []
        elif calls is not None:
            calls.append(event)
    return traj, stages


def evaluate_calls(entries, points):
    """For each point, the (name, argument) pairs that each entry's evaluate
    passes to the functions there, by the functions' emitted names."""
    log = []
    # copies with nothing cached, which look the functions up anew
    fresh = [
        GuardedQuotient(Expression(q.numerator.terms, q.numerator.n_vars),
                        q.divisor_index)
        if isinstance(q, GuardedQuotient) else Expression(q.terms, q.n_vars)
        for q in entries
    ]
    for q in fresh:
        if isinstance(q, GuardedQuotient):
            q.derivative  # built before the functions are wrapped
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "FUNCTIONS", {
            name: logged(log, emitted, fn)
            for (name, fn), emitted in zip(FUNCTIONS.items(), EMITTED_FUNCTIONS)
        })
        for z in points:
            log.clear()
            for q in fresh:
                q.evaluate(z)
            out.append(set(log))
    return out


@pytest.mark.parametrize("simulator", ["nlfr", "lpv_self"])
@pytest.mark.parametrize("case", ["msd 1,2", "msd 2,1", "shared 1,2,3", "shared 3,1,2"])
def test_stage_zero_calls_each_function_of_the_rule_once(
    msd_model, case, simulator, monkeypatch
):
    # z_1 starts inside the guard band, so the first sample takes the
    # derivative branch of each quotient by z_1 and the others take the
    # quotient branch; no coordinate is exactly zero, so distinct arguments
    # stay distinct floats
    name, ordering = case.split()
    if name == "msd":
        model = msd_model
        x0 = [1e-9, 0.1, 0.2, -0.05]  # z = (q1, q1dot)
    else:
        # z = the first three states
        model = shared_calls_model(Cz=np.eye(3, 4).tolist(), Dzu=np.zeros((3, 2)).tolist())
        x0 = [1e-9, 0.3, -0.4, 0.2]
    lpv = embed(model, tuple(int(v) for v in ordering.split(",")))
    u = multisine(2, 0.0, 5.0, 0.8, 1e-3, 1000, seed=3)
    entries = model.f if simulator == "nlfr" else [
        lpv.schedule.entry(r, i) for r, i in lpv.channels
    ]
    run = {
        "nlfr": lambda: simulate_nlfr(model, u, x0=x0),
        "lpv_self": lambda: simulate_lpv_self(lpv, u, x0=x0),
    }[simulator]
    for form, limit in STEP_FORMS.items():
        monkeypatch.setattr(sim, "_FLOAT_STEP_MAX", limit)
        traj, stages = stage_zero_calls(run)
        assert len(stages) == traj.x.shape[0] == 1001
        z = traj.z[0].tolist()
        quotients = [q for q in entries if isinstance(q, GuardedQuotient)]
        assert all(z) and any(
            abs(z[q.divisor_index - 1]) <= q.effective_threshold(z) for q in quotients
        ) == bool(quotients)
        want = evaluate_calls(entries, traj.z.tolist())
        for k, (calls, wanted) in enumerate(zip(stages, want)):
            assert len(calls) == len(set(calls)), (form, k)
            assert set(calls) == wanted, (form, k)


# Divergence of the model below under zero input from x0 = (1, 1), dt 1e-2,
# recorded before the kernel named repeated values: its quotient branches
# call sinh and their derivative branches cosh, which overflow at the same
# point, and the run overflows in a quotient branch
SINH_OVERFLOW = (268, "nonlinearity evaluation overflowed at step 268 (math range error)")


def test_overflow_in_the_taken_branch_keeps_its_step_and_message():
    m = validate_nlfr({
        "dims": {"n_x": 2, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 2},
        "A": [[0.5, 0.1], [0.0, 0.3]], "Bw": [[1.0], [0.5]], "Bu": [[1.0], [0.0]],
        "Cz": [[1.0, 0.0], [0.0, 1.0]], "Cy": [[1.0, 0.0]],
        "Dzu": [[0.0], [0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0.01*sinh(z1 + 0.5*z2)"],
    })
    u = np.zeros((3001, 1))
    runs = [lambda: simulate_nlfr(m, u, x0=[1.0, 1.0], dt=1e-2)]
    for ordering in ((1, 2), (2, 1)):
        lpv = embed(m, ordering)
        for r, i in lpv.channels:
            q = lpv.schedule.entry(r, i)
            assert {f.name for t in q.numerator.terms for f in t.factors} == {"sinh"}
            assert {f.name for t in q.derivative.terms for f in t.factors} == {"cosh"}
        runs.append(lambda lpv=lpv: simulate_lpv_self(lpv, u, x0=[1.0, 1.0], dt=1e-2))
    for run in runs:
        with pytest.raises(Divergence) as exc_info:
            run()
        err = exc_info.value
        assert (err.step, str(err)) == SINH_OVERFLOW
        assert err.trajectory.x.shape[0] == err.step


# sha256 of x, z and w_or_p of the shared-calls model started at rest, so
# the first sample takes every derivative branch.  Recorded before the
# kernel named repeated values, where they pinned that the naming changed no
# bit, again when the model's step became float statements, and again when
# the multisine input became one inverse FFT per channel
GOLDEN_SHARED_CALLS_SHA256 = {
    "nlfr": "94952f7754d3573cbac88d44018a628442066f603ab0cd4ed738e28e641cdacd",
    "lpv 1,2,3": "a5ba1a3bc5d9e801cbbc177ab999e05112aacce51dd63baeaffb231953202a8c",
    "lpv 3,1,2": "649be42c0cdc057cd4706be280660d391cdbbf32d0fc4b6e30f7434ca118af34",
}


def test_golden_shared_calls_trajectories():
    m = shared_calls_model()
    u = multisine(2, 0.0, 5.0, 0.8, 1e-3, 2000, seed=3)
    u[0] = 0.0

    def digest(t):
        h = hashlib.sha256()
        for a in (t.x, t.z, t.w_or_p):
            h.update(a.tobytes())
        return h.hexdigest()

    digests = {}

    def runs():
        digests["nlfr"] = digest(simulate_nlfr(m, u))
        for ordering in ((1, 2, 3), (3, 1, 2)):
            lpv = embed(m, ordering)
            name = "lpv " + ",".join(map(str, ordering))
            digests[name] = digest(simulate_lpv_self(lpv, u))

    sources = kernel_sources(runs)
    assert digests == GOLDEN_SHARED_CALLS_SHA256
    # each LPV kernel reads some value by its name, not only binds it
    for source in sources[1:]:
        assert len(re.findall(r"\bv\d+\b", source)) > source.count(":=")


def test_only_values_read_again_are_named(msd_model):
    # msd2dof's ordering 1,2 reads each call and power once per stage; the
    # shared-calls model reads some twice
    u = np.zeros((21, 2))
    m = shared_calls_model()
    sources = kernel_sources(lambda: [
        simulate_lpv_self(embed(msd_model, (1, 2)), u),
        simulate_nlfr(m, u),
        simulate_lpv_self(embed(m, (3, 1, 2)), u),
    ])
    assert ":=" not in sources[0]
    for source in sources[1:]:
        names = set(re.findall(r"\((v\d+) := ", source))
        assert names
        for name in names:
            assert len(re.findall(rf"\b{name}\b", source)) > source.count(f"({name} := ")


# --- the kernel's record -----------------------------------------------------------


def assert_record(model, lpv, u, ta, tb, tc, p):
    """Each recorded w or p is the rule's value at the recorded z, bit for
    bit, and each readout y reads the recorded w."""
    n = ta.x.shape[0]
    for t in (ta, tb, tc):
        assert {s.shape[0] for s in (t.u, t.x, t.y, t.z, t.w_or_p)} == {n}
    w = np.array([[row.evaluate(z) for row in model.f] for z in ta.z.tolist()])
    assert np.array_equal(ta.w_or_p, w)
    entries = [lpv.schedule.entry(r, i) for r, i in lpv.channels]
    p_self = np.array(
        [[q.evaluate(z) for q in entries] for z in tb.z.tolist()]
    ).reshape(n, lpv.n_p)
    assert np.array_equal(tb.w_or_p, p_self)
    assert np.array_equal(tc.w_or_p, p[:n])

    def readout(core, t, W, u_c, y0=0.0):
        return t.x @ core.Cy.T + u_c[:n] @ core.Dyu.T + W @ core.Dyw.T + y0

    def feedback(t):
        W = [[0.0] * lpv.dims.n_w for _ in range(n)]
        for W_k, z, p_k in zip(W, t.z.tolist(), t.w_or_p.tolist()):
            for p_ri, (r, i) in zip(p_k, lpv.channels):
                W_k[r - 1] += p_ri * z[i - 1]
        return np.array(W).reshape(n, lpv.dims.n_w)

    assert np.array_equal(ta.y, readout(model, ta, w, u))
    for t in (tb, tc):
        assert np.array_equal(t.y, readout(lpv, t, feedback(t), u - lpv.d, lpv.y0))


@pytest.mark.parametrize("ordering", [(1, 2), (2, 1)], ids=["1,2", "2,1"])
def test_record_is_what_the_kernel_integrated_msd(msd_model, ordering):
    lpv = embed(msd_model, ordering)
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, 4000, seed=0)
    ta = simulate_nlfr(msd_model, u)
    p = np.column_stack(
        [lpv.schedule.entry(r, i).evaluate_batch(ta.z) for r, i in lpv.channels]
    )
    tb = simulate_lpv_self(lpv, u)
    tc = simulate_lpv_exogenous(lpv, u, p)
    assert_record(msd_model, lpv, u, ta, tb, tc, p)


def test_record_with_guarded_quotient_and_feedthrough():
    # f(0) = 0, so there is no offset and z starts at exactly 0: the first
    # sample takes the quotient's derivative branch
    rng = np.random.default_rng(17)
    m = validate_nlfr(random_nlfr_raw(
        rng, n_x=3, n_u=2, n_y=2, n_w=2, n_z=2,
        f_rows=["0.2*sin(z1)*cos(z2) + 0.1*z2^2", "0.3*sin(z1 + 0.5*z2) - 0.1*z1"],
    ))
    assert np.any(m.Dyw != 0.0) and np.any(m.Dzu != 0.0)
    lpv = embed(m)
    quotients = [
        lpv.schedule.entry(r, i) for r, i in lpv.channels
        if isinstance(lpv.schedule.entry(r, i), GuardedQuotient)
    ]
    assert quotients and not np.any(lpv.d) and not np.any(lpv.y0)
    u = multisine(2, 0.0, 5.0, 0.7, 1e-3, 3000, seed=2)
    u[0] = 0.0
    ta = simulate_nlfr(m, u)
    tb = simulate_lpv_self(lpv, u)
    in_band = [
        abs(z[q.divisor_index - 1]) <= q.effective_threshold(z)
        for q in quotients for z in tb.z.tolist()
    ]
    assert any(in_band) and not all(in_band)
    p = np.column_stack(
        [lpv.schedule.entry(r, i).evaluate_batch(ta.z) for r, i in lpv.channels]
    )
    tc = simulate_lpv_exogenous(lpv, u, p)
    assert_record(m, lpv, u, ta, tb, tc, p)


def unstable_cubic():
    raw = copy.deepcopy(first_order_raw())
    raw["A"] = [[1.0]]
    raw["Bw"] = [[1.0]]
    raw["f"] = ["z1^3"]
    return validate_nlfr(raw)


@pytest.mark.parametrize("simulator", ["nlfr", "lpv_self", "lpv_exogenous"])
def test_failed_run_keeps_the_recorded_samples(simulator):
    m = unstable_cubic()
    lpv = embed(m)
    u = np.zeros((5001, 1))
    p = np.full((5001, 1), 50.0)
    run = {
        "nlfr": lambda: simulate_nlfr(m, u, x0=[1.0]),
        "lpv_self": lambda: simulate_lpv_self(lpv, u, x0=[1.0]),
        "lpv_exogenous": lambda: simulate_lpv_exogenous(lpv, u, p, x0=[1.0]),
    }[simulator]
    with pytest.raises(Divergence) as exc_info:
        run()
    err = exc_info.value
    t = err.trajectory
    assert 0 < err.step < 5000 and f"at step {err.step} " in f"{err} "
    assert {s.shape[0] for s in (t.u, t.x, t.y, t.z, t.w_or_p)} == {err.step}
    assert np.array_equal(t.z, t.x @ m.Cz.T)
    rule = {"nlfr": m.f[0], "lpv_self": lpv.schedule.entry(1, 1)}
    expected = (
        p[: err.step] if simulator == "lpv_exogenous" else
        np.array([[rule[simulator].evaluate(z)] for z in t.z.tolist()])
    )
    assert np.array_equal(t.w_or_p, expected)


def test_overflow_at_the_first_sample_keeps_no_sample():
    raw = copy.deepcopy(first_order_raw())
    raw["f"] = ["exp(z1)"]
    m = validate_nlfr(raw)
    with pytest.raises(Divergence, match="overflowed at step 0 ") as exc_info:
        simulate_nlfr(m, np.zeros((11, 1)), x0=[1000.0])
    err = exc_info.value
    t = err.trajectory
    assert err.step == 0
    assert {s.shape[0] for s in (t.u, t.x, t.y, t.z, t.w_or_p)} == {0}


def assert_write_protected(t, u):
    for name in ("u", "x", "y", "z", "w_or_p"):
        assert not getattr(t, name).flags.writeable, name
    assert not np.shares_memory(t.u, u)


def test_trajectories_are_write_protected_copies(msd_model):
    lpv = embed(msd_model)
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, 500, seed=0)
    tn = simulate_nlfr(msd_model, u)
    ts = simulate_lpv_self(lpv, u)
    # a read-only recorded p plays back like any other array
    for t in (tn, ts, simulate_lpv_exogenous(lpv, u, ts.w_or_p)):
        assert_write_protected(t, u)
        with pytest.raises(ValueError, match="read-only"):
            t.x[0, 0] = 7.0
        sim.trajectory_csv(t)
        spectrum(t)
        assert compare(tn, t, tol=1.0).passed
    # the recorded input does not follow a later edit of the caller's array
    u[0, 0] += 1.0
    assert tn.u[0, 0] == u[0, 0] - 1.0


@pytest.mark.parametrize("simulator", ["nlfr", "lpv_self", "lpv_exogenous"])
def test_partial_trajectory_is_write_protected(simulator):
    m = unstable_cubic()
    lpv = embed(m)
    u = np.zeros((5001, 1))
    run = {
        "nlfr": lambda: simulate_nlfr(m, u, x0=[1.0]),
        "lpv_self": lambda: simulate_lpv_self(lpv, u, x0=[1.0]),
        "lpv_exogenous": lambda: simulate_lpv_exogenous(
            lpv, u, np.full((5001, 1), 50.0), x0=[1.0]
        ),
    }[simulator]
    with pytest.raises(Divergence) as exc_info:
        run()
    t = exc_info.value.trajectory
    assert_write_protected(t, u)
    sim.trajectory_csv(t)
    spectrum(t)


# --- divergence tested once per block of rows -----------------------------------------


def growth_model(a, *f):
    """x' = a x + w_1 + ... + w_n, w = f(x): from x0 > 0 under zero input it
    grows by a factor near exp(a dt) per step."""
    n_w = len(f)
    return validate_nlfr({
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": n_w, "n_z": 1},
        "A": [[a]], "Bw": [[1.0] * n_w], "Bu": [[1.0]], "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.5] * n_w], "Dyu": [[0.0]], "f": list(f),
    })


def divergence(run):
    """Step, message and sha256 of the partial x, z, w_or_p and y of a run
    that diverges."""
    with pytest.raises(Divergence) as exc_info:
        run()
    err = exc_info.value
    h = hashlib.sha256()
    for a in (err.trajectory.x, err.trajectory.z, err.trajectory.w_or_p, err.trajectory.y):
        h.update(a.tobytes())
    return err.step, str(err), h.hexdigest()


def nlfr_and_lpv(m, u, x0, dt=1e-3):
    return {
        "nlfr": lambda: simulate_nlfr(m, u, x0=[x0], dt=dt),
        "lpv": lambda: simulate_lpv_self(embed(m), u, x0=[x0], dt=dt),
    }


# x0 that puts growth_model(10.0, "0.5*sin(z1)") past the divergence limit
# at each step, dt 1e-3, 2 100 steps: the first row of the first block, the
# last rows of and around the first block's end, the next to last row of the
# second, and a row in and at the end of the partial third block, which the
# kernel does not test
X0_AT_STEP = {
    1: 995012479193.0933,
    1023: 36252580.276508294,
    1024: 35891861.07576506,
    1025: 35534731.09103879,
    2047: 1294.6829496316539,
    2090: 842.2030335485226,
    2100: 762.0568183443945,
}

# each run's divergence, recorded when the kernel tested the state after
# every step; the partial trajectory of ("nlfr" and "lpv", "before") again
# when the step of one-state models became float statements
BLOCK_DIVERGENCE = {
    ("nlfr", 1): (
        1, "state exceeded 1e+12 at step 1",
        "c36bf131a06f0befa8d60e63361ef07e40e8dc0c71d9982bf73bb6d24db9f662",
    ),
    ("lpv", 1): (
        1, "state exceeded 1e+12 at step 1",
        "fc42489aca5254459e647802fcff9dd4d6601dd495cc7fdeb63be3967395f9fb",
    ),
    ("nlfr", 1023): (
        1023, "state exceeded 1e+12 at step 1023",
        "bf9ae3273de1621c260e25555b2a2b52dae0609df3083017aff8cd3b1489762f",
    ),
    ("lpv", 1023): (
        1023, "state exceeded 1e+12 at step 1023",
        "102ea9e0079ca1ef681c59d5d15241a2829c5ca55c3f8faf753df23c77af0b02",
    ),
    ("nlfr", 1024): (
        1024, "state exceeded 1e+12 at step 1024",
        "9348c3b4ad4b8400b49cd46310d646623e3f96fd0811ac522189183431941f91",
    ),
    ("lpv", 1024): (
        1024, "state exceeded 1e+12 at step 1024",
        "1a71243cd24ef84a25e1e57aab9545652339912293dd07b825ee3be6febd5917",
    ),
    ("nlfr", 1025): (
        1025, "state exceeded 1e+12 at step 1025",
        "eb8c32ace6a8a8d250a8968dbde96305ffa89081b9905868d49604664ddd1fb4",
    ),
    ("lpv", 1025): (
        1025, "state exceeded 1e+12 at step 1025",
        "8b7a5c44437f273164f2f42c0f006e2e1c1b47dc2c9372ed00c4ad3d0e4414ca",
    ),
    ("nlfr", 2047): (
        2047, "state exceeded 1e+12 at step 2047",
        "2d87880757ac10c763d8f0d72dc0f3b619fde854969b9a2cfb1681a94ccd7dfa",
    ),
    ("lpv", 2047): (
        2047, "state exceeded 1e+12 at step 2047",
        "6a9424219ffcf984ec95741d24c12d17091ee46dd9687e50fbe9d0b1710b6575",
    ),
    ("nlfr", 2090): (
        2090, "state exceeded 1e+12 at step 2090",
        "45005702d46082503899959c3a43af33c0403da1d5df953c966173286349a57e",
    ),
    ("lpv", 2090): (
        2090, "state exceeded 1e+12 at step 2090",
        "ef8eb3405534f6789751eb768a4f20a1a23cf4c6d6cc0f0e4b61763059cb791e",
    ),
    ("nlfr", 2100): (
        2100, "state exceeded 1e+12 at step 2100",
        "045296544a6506f4ba75361181d25531d8069f623d9dcdbb5e68c296e289b4e9",
    ),
    ("lpv", 2100): (
        2100, "state exceeded 1e+12 at step 2100",
        "b5fedc0363fd20321e9d0f4b1ad218153fd4f8c9acda8cd8982dec0cef9e935c",
    ),
    ("nlfr", "nan"): (
        1071, "state became NaN at step 1071",
        "06026100bec62615ba47f42b6968c44d550f950df406d8a9f3715fe44f5bf9ab",
    ),
    ("lpv", "nan"): (
        2022, "state became NaN at step 2022",
        "624f250f42ccb50b8d211b8f6ee45221b77e7e82ce1ade896e5cf2d1e8265862",
    ),
    ("nlfr", "inf"): (
        19, "state exceeded 1e+12 at step 19",
        "e875338447a69fc94034e0fdcf72d3b7f6065277ef817fc085a8fc3a4d499cde",
    ),
    ("lpv", "inf"): (
        19, "state exceeded 1e+12 at step 19",
        "737678b92dbadfffeda43f80929936a56e76874800397c41f04b3547880c94e0",
    ),
    ("nlfr", "after"): (
        1497, "state exceeded 1e+12 at step 1497",
        "3c576a8c4a48679178ab4bca0a5da60c4f7b005ce4e9ebcd984249bdf6572a1e",
    ),
    ("lpv", "after"): (
        1497, "state exceeded 1e+12 at step 1497",
        "02b4701e0430abfd410b7e0c2b41fd43ab0f6491c14371148b3fe11c9c8217cc",
    ),
    ("nlfr", "before"): (
        1434, "nonlinearity evaluation overflowed at step 1434 (math range error)",
        "681bfaaae113ed2eff5fe47fd80afee9e9172436d27101d9c11d606084f8379a",
    ),
    ("lpv", "before"): (
        1434, "nonlinearity evaluation overflowed at step 1434 (math range error)",
        "f0c6e709812c2d7d43c7327b726f3a6af0edce09254c45268710ae8ffe501246",
    ),
    ("exogenous", 1025): (
        1025, "state exceeded 1e+12 at step 1025",
        "afd1e8edff8132719ef08908f9af0cefdff702466f623c4b5e27e7db305b13be",
    ),
}


@pytest.mark.parametrize("step", list(X0_AT_STEP))
def test_divergence_at_each_step_of_a_block(step):
    u = np.zeros((2101, 1))
    runs = nlfr_and_lpv(growth_model(10.0, "0.5*sin(z1)"), u, X0_AT_STEP[step])
    for name, run in runs.items():
        assert divergence(run) == BLOCK_DIVERGENCE[name, step]
        assert BLOCK_DIVERGENCE[name, step][:2] == (
            step, f"state exceeded 1e+12 at step {step}"
        )


def test_divergence_to_nan():
    # cos(1e-300*z1) is 1.0, so w is 0.0 until 1e300*z1^2 overflows to inf,
    # and then inf - inf; the LPV's p = w / z1 overflows later
    m = growth_model(10.0, "1e300*z1^2*cos(1e-300*z1) - 1e300*z1^2")
    u = np.zeros((2101, 1))
    for name, run in nlfr_and_lpv(m, u, 0.3).items():
        assert divergence(run) == BLOCK_DIVERGENCE[name, "nan"]


def test_steps_past_a_divergence_run_on_inf_without_a_warning():
    # x grows 4.4-fold a step, passes 1e12 at step 19 and overflows in
    # numpy some 450 steps later, before its block ends; pytest turns a
    # RuntimeWarning into an error
    u = np.zeros((2101, 1))
    for name, run in nlfr_and_lpv(growth_model(50.0, "0.5*sin(z1)"), u, 1.0, 3e-2).items():
        assert divergence(run) == BLOCK_DIVERGENCE[name, "inf"]


@pytest.mark.parametrize("case", ["after", "before"])
def test_overflow_and_divergence_in_one_block(case):
    # sinh(1e-10*z1) overflows a few steps after x passes 1e12, sinh(z1)
    # long before; the earlier of the two is the run's divergence
    f = {"after": "sinh(1e-10*z1)", "before": "sinh(z1)"}[case]
    u = np.zeros((2001, 1))
    runs = nlfr_and_lpv(growth_model(405.0, f), u, 1.9783926528831333e-252)
    for name, run in runs.items():
        assert divergence(run) == BLOCK_DIVERGENCE[name, case]


def test_exogenous_divergence_after_a_block():
    lpv = embed(growth_model(10.0, "0.5*sin(z1)"))
    u = np.zeros((2101, 1))
    p = np.zeros((2101, 1))
    got = divergence(lambda: simulate_lpv_exogenous(lpv, u, p, x0=[X0_AT_STEP[1025]]))
    assert got == BLOCK_DIVERGENCE["exogenous", 1025]


# --- the two forms of the step ---------------------------------------------------

def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels at run
    time, and so honours OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy only prints its config
        return False
    return (
        "openblas" in blas.get("name", "")
        and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
    )


# OpenBLAS's Prescott gemv sums a row of up to 5 columns left to right, like
# the float step, so on msd2dof (M x over 4 columns, Psi w over 4) the two
# forms of the step compute the same bits under it
PRESCOTT = os.environ.get("OPENBLAS_CORETYPE") == "Prescott" and openblas_dynamic_arch()


def products(m) -> int:
    """The count of products in M x and Psi w, the size of a step."""
    d = m.dims
    return d.n_x * (4 * d.n_z + d.n_x + 4 * d.n_w)


def by_form(monkeypatch, run):
    """run()'s result with the step in each form."""
    out = {}
    for form, limit in STEP_FORMS.items():
        monkeypatch.setattr(sim, "_FLOAT_STEP_MAX", limit)
        out[form] = run()
    return out


def form_cases(msd_model):
    """Name -> (model, its LPV embedding), for models on each side of the
    size rule."""
    def toy(seed, n_x, n_w, n_z):
        rng = np.random.default_rng(seed)
        return validate_nlfr(random_nlfr_raw(rng, n_x=n_x, n_u=2, n_y=2, n_w=n_w, n_z=n_z))

    models = {
        "msd 1,2": (msd_model, (1, 2)),
        "msd 2,1": (msd_model, (2, 1)),
        "shared": (shared_calls_model(), (3, 1, 2)),
        "at the limit": (toy(31, 8, 2, 2), (2, 1)),
        "past the limit": (toy(32, 6, 3, 4), (4, 3, 2, 1)),
    }
    return {name: (m, embed(m, o)) for name, (m, o) in models.items()}


def test_step_form_follows_the_size_rule(msd_model):
    cases = form_cases(msd_model)
    counts = {name: products(m) for name, (m, _) in cases.items()}
    assert counts["msd 1,2"] == 64 and counts["shared"] == 96
    assert counts["at the limit"] == sim._FLOAT_STEP_MAX < counts["past the limit"] == 204
    u = np.zeros((11, 2))
    for name, (m, lpv) in cases.items():
        floats = counts[name] <= sim._FLOAT_STEP_MAX
        sources = kernel_sources(lambda: [
            simulate_nlfr(m, u), simulate_lpv_self(lpv, u, x0=matching_start(lpv))
        ])
        for source in sources:
            assert ("o = off[k].tolist()" in source) == floats, name
            assert ("sa = M @ x + off[k]" in source) != floats, name


# sha256 of the NLFR and LPV kernel sources of a model of synth64's size
# (n_x 64, n_z 6, n_w 4), whose step stays numpy; recorded before the float
# step existed.  Each sum in its step map has at most one nonzero term, so
# the H literals in the sources do not depend on the BLAS build.
GOLDEN_LARGE_KERNEL_SHA256 = [
    "c06a68f24ab9b724a9c1f2f46b753fcbcf406d98cbdd0fbee7315bd874da277d",
    "15ad7f135be94fe1690aa40a435a83f1c8c34b43f729b957ce3d98f75ac1f9dd",
]


def test_large_model_kernel_source_is_pinned():
    n_x, n_u, n_y, n_w, n_z = 64, 2, 2, 4, 6
    Bw = np.eye(n_x, n_w)
    Bu = np.zeros((n_x, n_u))
    Bu[np.arange(n_x), np.arange(n_x) % n_u] = 1.0
    m = validate_nlfr({
        "dims": {"n_x": n_x, "n_u": n_u, "n_y": n_y, "n_w": n_w, "n_z": n_z},
        "A": (-np.eye(n_x)).tolist(), "Bw": Bw.tolist(), "Bu": Bu.tolist(),
        "Cz": np.eye(n_z, n_x).tolist(), "Cy": np.eye(n_y, n_x).tolist(),
        "Dzu": np.zeros((n_z, n_u)).tolist(), "Dyw": np.zeros((n_y, n_w)).tolist(),
        "Dyu": np.zeros((n_y, n_u)).tolist(),
        "f": ["0.5*sin(z1)*z2 + 0.1*z3^2", "0.2*tanh(z2 - z4)*z5",
              "0.3*cos(z6)*z1", "0.1*z4*z5*z6"],
    })
    assert products(m) == 6656 > sim._FLOAT_STEP_MAX
    u = np.zeros((11, 2))
    sources = kernel_sources(lambda: [simulate_nlfr(m, u), simulate_lpv_self(embed(m), u)])
    assert [
        hashlib.sha256(source.encode()).hexdigest() for source in sources
    ] == GOLDEN_LARGE_KERNEL_SHA256


@pytest.mark.parametrize("case", ["msd 1,2", "msd 2,1", "shared", "at the limit",
                                  "past the limit"])
def test_step_forms_agree_to_rounding(msd_model, case, monkeypatch):
    m, lpv = form_cases(msd_model)[case]
    u = multisine(2, 0.0, 5.0, 0.8, 1e-3, 4000, seed=7)
    x0 = matching_start(lpv)
    runs = {
        "nlfr": lambda: simulate_nlfr(m, u),
        "lpv_self": lambda: simulate_lpv_self(lpv, u, x0=x0),
    }
    got = {name: by_form(monkeypatch, run) for name, run in runs.items()}
    p = got["lpv_self"]["numpy"].w_or_p
    got["lpv_exogenous"] = by_form(
        monkeypatch, lambda: simulate_lpv_exogenous(lpv, u, p, x0=x0)
    )
    exact = PRESCOTT and case.startswith("msd")
    for name, t in got.items():
        a, b = t["numpy"], t["float"]
        if exact:
            for series in ("u", "x", "y", "z", "w_or_p"):
                assert getattr(a, series).tobytes() == getattr(b, series).tobytes(), (
                    name, series
                )
        # p is not compared: a guarded quotient near its band divides the
        # rounding of z by a small z_i; the record tests pin p against z
        for series in ("x", "y", "z"):
            sa, sb = getattr(a, series), getattr(b, series)
            assert sa.shape == sb.shape
            scale = 1.0 + float(np.max(np.abs(sa)))
            assert float(np.max(np.abs(sa - sb))) <= 1e-14 * scale, (name, series)


# msd2dof at the CLI defaults, each run on both forms of the step; prints
# the runs whose trajectories differ in any byte
SAME_BITS_SCRIPT = """
from lpvembed import (builtin_example, embed, matching_start, multisine, sim,
                      simulate_lpv_exogenous, simulate_lpv_self, simulate_nlfr,
                      validate_nlfr)
m = validate_nlfr(builtin_example("msd2dof"))
u = multisine(2, 0.0, 2.0, 1.0, 1e-3, 20000, 0)
runs = {"nlfr": lambda: simulate_nlfr(m, u)}
for ordering in ((1, 2), (2, 1)):
    lpv = embed(m, ordering)
    x0 = matching_start(lpv)
    p = simulate_lpv_self(lpv, u, x0=x0).w_or_p
    runs[f"lpv_self {ordering}"] = lambda lpv=lpv, x0=x0: simulate_lpv_self(lpv, u, x0=x0)
    runs[f"lpv_exogenous {ordering}"] = (
        lambda lpv=lpv, x0=x0, p=p: simulate_lpv_exogenous(lpv, u, p, x0=x0))
differ = []
for name, run in runs.items():
    bits = []
    for limit in (float("inf"), -1):
        sim._FLOAT_STEP_MAX = limit
        t = run()
        bits.append(b"".join(a.tobytes() for a in (t.x, t.y, t.z, t.w_or_p)))
    if bits[0] != bits[1]:
        differ.append(name)
print(len(runs), differ)
"""


@pytest.mark.skipif(not openblas_dynamic_arch(), reason="needs OpenBLAS with DYNAMIC_ARCH")
def test_step_forms_same_bits_under_prescott_gemv():
    src = str(Path(sim.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", SAME_BITS_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5 []\n"


def test_divergence_is_the_same_on_both_forms(monkeypatch):
    u = np.zeros((2101, 1))
    cases = {
        step: nlfr_and_lpv(growth_model(10.0, "0.5*sin(z1)"), u, x0)
        for step, x0 in X0_AT_STEP.items()
    }
    cases["nan"] = nlfr_and_lpv(
        growth_model(10.0, "1e300*z1^2*cos(1e-300*z1) - 1e300*z1^2"), u, 0.3
    )
    cases["inf"] = nlfr_and_lpv(growth_model(50.0, "0.5*sin(z1)"), u, 1.0, 3e-2)
    for case, f in (("after", "sinh(1e-10*z1)"), ("before", "sinh(z1)")):
        cases[case] = nlfr_and_lpv(
            growth_model(405.0, f), u[:2001], 1.9783926528831333e-252
        )
    for case, runs in cases.items():
        for name, run in runs.items():
            got = by_form(monkeypatch, lambda: divergence(run)[:2])
            assert got["numpy"] == got["float"] == BLOCK_DIVERGENCE[name, case][:2]
    # w_2 drives no state, so each of its coefficients in Psi is 0; it turns
    # NaN as in test_divergence_to_nan, and the state must turn NaN with it
    m = validate_nlfr({
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 2, "n_z": 1},
        "A": [[10.0]], "Bw": [[1.0, 0.0]], "Bu": [[1.0]], "Cz": [[1.0]],
        "Cy": [[1.0]], "Dzu": [[0.0]], "Dyw": [[0.5, 0.0]], "Dyu": [[0.0]],
        "f": ["0.5*sin(z1)", "1e300*z1^2*cos(1e-300*z1) - 1e300*z1^2"],
    })
    got = by_form(monkeypatch, lambda: divergence(lambda: simulate_nlfr(m, u, x0=[0.3]))[:2])
    assert got["numpy"] == got["float"] == (1063, "state became NaN at step 1063")


# --- NLFR vs LPV equivalence -----------------------------------------------------


def test_linear_model_simulations_bit_identical():
    raw = first_order_raw()
    m = validate_nlfr(raw)
    lpv = embed(m)
    assert lpv.n_p == 0
    n = 2000
    u = multisine(1, 0.0, 5.0, 1.0, 1e-3, n, seed=1)
    ta = simulate_nlfr(m, u, dt=1e-3)
    tb = simulate_lpv_self(lpv, u, dt=1e-3)
    assert np.array_equal(ta.x, tb.x)
    assert np.array_equal(ta.y, tb.y)
    assert np.array_equal(ta.z, tb.z)


def test_linear_model_playback_without_channels():
    m = validate_nlfr(first_order_raw())
    lpv = embed(m)
    u = multisine(1, 0.0, 5.0, 1.0, 1e-3, 200, seed=1)
    ta = simulate_nlfr(m, u, dt=1e-3)
    tb = simulate_lpv_exogenous(lpv, u, np.zeros((201, 0)), dt=1e-3)
    assert np.array_equal(ta.x, tb.x) and np.array_equal(ta.y, tb.y)


def test_msd_equivalence_short_run(msd_model):
    lpv = embed(msd_model)
    n = 5000
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, n, seed=0)
    report = compare(
        simulate_nlfr(msd_model, u, dt=1e-3),
        simulate_lpv_self(lpv, u, dt=1e-3),
    )
    assert report.passed, str(report)


def test_random_toy_equivalence():
    rng = np.random.default_rng(103)
    accepted = 0
    while accepted < 20:
        raw = random_nlfr_raw(rng)
        m = validate_nlfr(raw)
        n = 10000
        u = multisine(m.dims.n_u, 0.0, 2.0, 0.7, 1e-3, n, seed=accepted)
        try:
            ta = simulate_nlfr(m, u, dt=1e-3)
        except Divergence:
            continue
        if float(np.max(np.abs(ta.x))) > 10.0:
            continue
        accepted += 1
        tb = simulate_lpv_self(embed(m), u, dt=1e-3)
        assert float(np.max(np.abs(ta.y - tb.y))) <= 1e-9


# --- exogenous scheduling ---------------------------------------------------------


def test_exogenous_zero_p_is_linear_response(msd_model, msd_raw):
    lpv = embed(msd_model)
    linear_raw = copy.deepcopy(msd_raw)
    linear_raw["f"] = ["0"]
    linear = validate_nlfr(linear_raw)
    n = 3000
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, n, seed=2)
    ta = simulate_nlfr(linear, u, dt=1e-3)
    tb = simulate_lpv_exogenous(lpv, u, np.zeros((n + 1, 2)), dt=1e-3)
    assert np.array_equal(ta.y, tb.y)


def test_exogenous_constant_p_is_frozen_lti(msd_model):
    from lpvembed import assemble

    lpv = embed(msd_model)
    p_star = np.array([0.8, -0.3])
    A, B, C, D = assemble(lpv, p_star)
    frozen_raw = {
        "dims": {"n_x": 4, "n_u": 2, "n_y": 2, "n_w": 1, "n_z": 2},
        "A": A.tolist(), "Bw": np.zeros((4, 1)).tolist(), "Bu": B.tolist(),
        "Cz": lpv.Cz.tolist(), "Cy": C.tolist(),
        "Dzu": np.zeros((2, 2)).tolist(), "Dyw": np.zeros((2, 1)).tolist(),
        "Dyu": D.tolist(),
        "f": ["0"],
    }
    frozen = validate_nlfr(frozen_raw)
    n = 2000
    u = multisine(2, 0.0, 2.0, 0.5, 1e-3, n, seed=3)
    ta = simulate_nlfr(frozen, u, dt=1e-3)
    tb = simulate_lpv_exogenous(lpv, u, np.tile(p_star, (n + 1, 1)), dt=1e-3)
    assert float(np.max(np.abs(ta.y - tb.y))) <= 1e-12


def test_exogenous_playback_from_nlfr_trajectory(msd_model):
    lpv = embed(msd_model)
    dt, n = 1e-3, 20000
    u = multisine(2, 0.0, 2.0, 1.0, dt, n, seed=0)
    ta = simulate_nlfr(msd_model, u, dt=dt)
    p = np.column_stack(
        [lpv.schedule.entry(r, i).evaluate_batch(ta.z) for r, i in lpv.channels]
    )
    tb = simulate_lpv_exogenous(lpv, u, p, dt=dt)
    # p is linearly interpolated between samples, so the playback run adds
    # O(dt^2) error on top of the (exact) self-scheduled equivalence
    assert float(np.max(np.abs(ta.y - tb.y))) <= 1e-6


def test_exogenous_playback_rank_one_with_offset():
    # two channels in each row, Dzu != 0, Dyw != 0 and an offset (d != 0,
    # y0 != 0): every term of the rank-one field and readout is exercised
    rng = np.random.default_rng(5)
    raw = random_nlfr_raw(
        rng, n_x=3, n_u=2, n_y=2, n_w=2, n_z=2,
        f_rows=["0.1*sin(z1) + 0.2*z2^2 + 0.3", "0.2*sin(z1) - 0.1*z2"],
    )
    m = validate_nlfr(raw)
    lpv = embed(m)
    assert lpv.channels == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert np.any(m.Dzu != 0.0) and np.any(m.Dyw != 0.0)
    assert np.any(lpv.d != 0.0) and np.any(lpv.y0 != 0.0)
    dt, n = 1e-3, 5000
    u = multisine(2, 0.0, 2.0, 0.5, dt, n, seed=4)
    ta = simulate_nlfr(m, u, dt=dt)
    p = np.column_stack(
        [lpv.schedule.entry(r, i).evaluate_batch(ta.z) for r, i in lpv.channels]
    )
    tb = simulate_lpv_exogenous(lpv, u, p, x0=matching_start(lpv), dt=dt)
    assert float(np.max(np.abs(ta.y - tb.y))) <= 1e-6


def test_simulation_builds_no_quadruples(msd_model):
    lpv = embed(msd_model)
    u = multisine(2, 0.0, 20.0, 1.0, 1e-3, 200, seed=0)
    ta = simulate_lpv_self(lpv, u, dt=1e-3)
    simulate_lpv_exogenous(lpv, u, ta.w_or_p, dt=1e-3)
    assert "basis" not in lpv.__dict__


def test_exogenous_channel_count_checked(msd_model):
    lpv = embed(msd_model)
    u = np.zeros((11, 2))
    with pytest.raises(ChannelCountMismatch):
        simulate_lpv_exogenous(lpv, u, np.zeros((11, 3)), dt=1e-3)


# --- comparison -------------------------------------------------------------------


def test_compare_identical_trajectories(msd_model):
    n = 500
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, n, seed=4)
    ta = simulate_nlfr(msd_model, u, dt=1e-3)
    report = compare(ta, ta)
    assert report.max_abs_error == (0.0, 0.0)
    assert report.relative_rms == (0.0, 0.0)
    assert report.first_exceed is None
    assert report.passed


def test_compare_shifted_trajectory_fails_at_zero(msd_model):
    n = 500
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, n, seed=4)
    ta = simulate_nlfr(msd_model, u, dt=1e-3)
    shifted = dataclasses.replace(ta, y=np.roll(ta.y, 1, axis=0))
    report = compare(ta, shifted)
    assert not report.passed
    assert report.first_exceed == 0


def test_compare_shape_mismatch(msd_model):
    n = 100
    u = multisine(2, 0.0, 50.0, 1.0, 1e-3, n, seed=4)
    ta = simulate_nlfr(msd_model, u, dt=1e-3)
    tb = dataclasses.replace(ta, y=ta.y[:-1])
    with pytest.raises(ShapeMismatch):
        compare(ta, tb)


# --- spectrum ---------------------------------------------------------------------


def synthetic_trajectory(y, dt):
    n = y.shape[0]
    zeros = np.zeros((n, 1))
    return Trajectory(dt, zeros, zeros, y, zeros, zeros, "w")


def test_spectrum_pure_sinusoid():
    dt = 1e-2
    t = np.arange(1001) * dt
    y = np.sin(2.0 * np.pi * 1.0 * t)[:, None]
    spec = spectrum(synthetic_trajectory(y, dt))
    k = int(np.argmax(spec.magnitude[:, 0]))
    assert spec.freqs_hz[k] == pytest.approx(1.0, abs=1e-12)
    assert spec.magnitude[k, 0] == pytest.approx(1.0, rel=1e-12)
    others = np.delete(spec.magnitude[:, 0], k)
    assert float(np.max(others)) <= 1e-12


def test_spectrum_constant_signal():
    y = np.full((401, 1), 2.5)
    spec = spectrum(synthetic_trajectory(y, 1e-2))
    assert spec.magnitude[0, 0] == pytest.approx(2.5, rel=1e-12)
    assert float(np.max(spec.magnitude[1:, 0])) <= 1e-12


def test_spectrum_msd_overlay(msd_model):
    lpv = embed(msd_model)
    n = 4000
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, n, seed=0)
    sa = spectrum(simulate_nlfr(msd_model, u, dt=1e-3))
    sb = spectrum(simulate_lpv_self(lpv, u, dt=1e-3))
    assert float(np.max(np.abs(sa.magnitude - sb.magnitude))) <= 1e-9


# --- multisine --------------------------------------------------------------------


def test_multisine_deterministic_per_seed():
    a = multisine(2, 0.0, 2.0, 1.0, 1e-3, 1000, seed=0)
    b = multisine(2, 0.0, 2.0, 1.0, 1e-3, 1000, seed=0)
    c = multisine(2, 0.0, 2.0, 1.0, 1e-3, 1000, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (1001, 2)
    # each channel is its own inverse FFT, so its bits do not depend on n_u
    one = multisine(1, 0.0, 2.0, 1.0, 1e-3, 1000, seed=0)
    assert np.array_equal(one[:, 0], a[:, 0])


def test_multisine_zero_amplitude():
    assert not np.any(multisine(1, 0.0, 50.0, 0.0, 1e-3, 100))


def test_multisine_rms_scaling():
    u = multisine(3, 0.5, 10.0, 1.7, 1e-3, 2000, seed=6)
    rms = np.sqrt(np.mean(u[:-1] ** 2, axis=0))
    assert np.allclose(rms, 1.7, rtol=1e-12)


def test_multisine_flat_band_spectrum():
    dt, n = 1e-3, 2000
    u = multisine(1, 0.0, 10.0, 1.0, dt, n, seed=7)
    spec = spectrum(synthetic_trajectory(u, dt))
    period = n * dt
    k_lo, k_hi = 1, math.floor(10.0 * period)
    band = spec.magnitude[k_lo : k_hi + 1, 0]
    assert float(np.max(band) - np.min(band)) <= 1e-10 * float(np.max(band))
    outside = spec.magnitude[k_hi + 1 :, 0]
    assert float(np.max(outside)) <= 1e-10 * float(np.max(band))


def test_multisine_band_violations():
    with pytest.raises(NyquistViolation):
        multisine(1, 0.0, 500.0, 1.0, 1e-3, 1000)  # at Nyquist
    with pytest.raises(NyquistViolation):
        multisine(1, -1.0, 2.0, 1.0, 1e-3, 1000)
    with pytest.raises(NyquistViolation):
        multisine(1, 2.0, 2.0, 1.0, 1e-3, 1000)
    with pytest.raises(NyquistViolation):
        multisine(1, 0.0001, 0.0002, 1.0, 1e-3, 1000)  # no grid line in band


# --- trajectory bookkeeping ---------------------------------------------------------


def test_trajectory_records_all_signals(msd_model):
    lpv = embed(msd_model)
    n = 50
    u = multisine(2, 0.0, 100.0, 1.0, 1e-3, n, seed=8)
    ta = simulate_nlfr(msd_model, u, dt=1e-3)
    assert ta.w_or_p_label == "w"
    assert ta.u.shape == (n + 1, 2)
    assert ta.x.shape == (n + 1, 4)
    assert ta.y.shape == (n + 1, 2)
    assert ta.z.shape == (n + 1, 2)
    assert ta.w_or_p.shape == (n + 1, 1)
    # recorded w equals f evaluated on recorded z
    w = np.array([msd_model.f[0].evaluate(z) for z in ta.z])
    assert np.array_equal(ta.w_or_p[:, 0], w)
    tb = simulate_lpv_self(lpv, u, dt=1e-3)
    assert tb.w_or_p_label == "p"
    assert tb.w_or_p.shape == (n + 1, 2)
    assert np.array_equal(tb.u, u)  # raw input recorded


def test_two_sample_trajectory(msd_model):
    u = np.zeros((2, 2))
    traj = simulate_nlfr(msd_model, u, dt=1e-3)
    assert traj.x.shape == (2, 4)
    assert traj.n_steps == 1


def test_wrong_initial_state_rejected(msd_model):
    u = np.zeros((3, 2))
    with pytest.raises(ShapeMismatch):
        simulate_nlfr(msd_model, u, x0=[1.0, 2.0], dt=1e-3)


_RAGGED = [[1.0, 2.0], [3.0]]
_TEXT = [["a", "b"], ["c", "d"]]


@pytest.mark.parametrize(
    "run",
    [
        lambda m, lpv: simulate_nlfr(m, _RAGGED),
        lambda m, lpv: simulate_nlfr(m, _TEXT),
        lambda m, lpv: simulate_nlfr(m, [[{}, 0.0], [0.0, 0.0]]),
        lambda m, lpv: simulate_nlfr(m, [[10**400, 0.0], [0.0, 0.0]]),
        lambda m, lpv: simulate_nlfr(m, np.zeros((3, 2)), x0=[[1.0, 2.0], [3.0]]),
        lambda m, lpv: simulate_nlfr(m, np.zeros((3, 2)), x0=["a", "b", "c", "d"]),
        lambda m, lpv: simulate_lpv_self(lpv, _RAGGED),
        lambda m, lpv: simulate_lpv_exogenous(lpv, np.zeros((2, 2)), _RAGGED),
        lambda m, lpv: simulate_lpv_exogenous(lpv, np.zeros((2, 2)), _TEXT),
    ],
    ids=["u-ragged", "u-text", "u-object", "u-huge-int", "x0-ragged", "x0-text",
         "lpv-u-ragged", "p-ragged", "p-text"],
)
def test_malformed_simulator_input_is_typed(msd_model, run):
    # numpy's own ValueError, TypeError or OverflowError would escape untyped
    with pytest.raises(ShapeMismatch, match="cannot be read as numbers"):
        run(msd_model, embed(msd_model))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_exogenous_nonfinite_p_rejected(msd_model, bad):
    lpv = embed(msd_model)
    u = np.zeros((11, 2))
    p = np.zeros((11, 2))
    p[5, 0] = bad
    with pytest.raises(ShapeMismatch, match="non-finite"):
        simulate_lpv_exogenous(lpv, u, p, x0=[0.1, 0.0, 0.0, 0.0], dt=1e-3)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
@pytest.mark.parametrize("simulator", ["nlfr", "lpv_self", "lpv_exogenous"])
def test_library_dt_must_be_positive_finite(msd_model, simulator, dt):
    # NaN and inf have no float literal for the generated kernel's source,
    # and a zero or negative step would integrate nothing or backwards
    u = np.zeros((11, 2))
    run = {
        "nlfr": lambda: simulate_nlfr(msd_model, u, dt=dt),
        "lpv_self": lambda: simulate_lpv_self(embed(msd_model), u, dt=dt),
        "lpv_exogenous": lambda: simulate_lpv_exogenous(
            embed(msd_model), u, np.zeros((11, 2)), dt=dt),
    }[simulator]
    with pytest.raises(InvalidConfig, match="dt must be positive and finite"):
        run()


def _runs(model, u, **kw):
    """The three simulators on model (embedded for the LPV two), played-back
    p zero."""
    lpv = embed(model)
    return {
        "nlfr": lambda: simulate_nlfr(model, u, **kw),
        "lpv_self": lambda: simulate_lpv_self(lpv, u, **kw),
        "lpv_exogenous": lambda: simulate_lpv_exogenous(
            lpv, u, np.zeros((np.shape(u)[0], lpv.n_p)), **kw),
    }


@pytest.mark.parametrize("simulator", ["nlfr", "lpv_self", "lpv_exogenous"])
def test_nonfinite_initial_state_is_typed(msd_model, simulator):
    # a NaN x0 used to run until Divergence at step 1
    run = _runs(msd_model, np.zeros((11, 2)), x0=[math.nan, 0.0, 0.0, 0.0])[simulator]
    with pytest.raises(ShapeMismatch, match="initial state contains non-finite values"):
        run()


@pytest.mark.parametrize(
    "model, u, x0, message",
    [
        (first_order_raw(), np.zeros(11), None, "input samples have shape (11,), "
         "expected (n_steps + 1, 1)"),
        (None, np.zeros((11, 3)), None, "input samples have shape (11, 3), "
         "expected (n_steps + 1, 2)"),
        (None, np.zeros((1, 2)), None, "input needs at least 2 samples"),
        (first_order_raw(), np.zeros((11, 1)), 0.5, "initial state has shape (), "
         "expected (1,)"),
    ],
    ids=["one-input-1d", "three-columns", "one-sample", "one-state-scalar"],
)
@pytest.mark.parametrize("simulator", ["nlfr", "lpv_self", "lpv_exogenous"])
def test_simulator_input_shapes_are_typed(msd_model, simulator, model, u, x0, message):
    # samples are 2-D, (n_steps + 1, n_u), and an initial state 1-D, even
    # for a one-input or one-state model
    model = msd_model if model is None else validate_nlfr(model)
    with pytest.raises(ShapeMismatch, match=re.escape(message)):
        _runs(model, u, x0=x0)[simulator]()


def test_one_channel_p_must_be_2d():
    lpv = embed(validate_nlfr(dict(first_order_raw(), Bw=[[1.0]], f=["z1^2"])))
    assert lpv.n_p == 1
    with pytest.raises(ChannelCountMismatch, match=re.escape("shape (11,)")):
        simulate_lpv_exogenous(lpv, np.zeros((11, 1)), np.zeros(11))


@pytest.mark.parametrize("a", [-1e200, -1e80])
@pytest.mark.parametrize("simulator", ["nlfr", "lpv_self", "lpv_exogenous"])
def test_overflowing_step_map_is_typed(simulator, a):
    # the model validates and embeds, but its RK4 step map at dt = 1e-3
    # overflows: -1e200 reaches inf at the second stage, -1e80 at the
    # fourth, through dt^3 A^4; an inf in the kernel's source was a
    # NameError, and the overflow a RuntimeWarning
    model = validate_nlfr(dict(first_order_raw(), A=[[a]], Bw=[[1.0]], f=["z1^2"]))
    with pytest.raises(InvalidConfig, match="RK4 step map at dt = 0.001 overflows"):
        _runs(model, np.zeros((11, 1)))[simulator]()


def test_multisine_sample_bound_is_typed(monkeypatch):
    # one sample past the bound is refused before any array is built: the
    # 200 MB the output alone would take never shows in the peak
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfig, match="exceeds 25000000 samples"):
            multisine(2, 0.0, 2.0, 1.0, 1e-3, MAX_MULTISINE_SAMPLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # at a bound small enough to build, n_steps + 1 samples at the bound pass
    monkeypatch.setattr(sim, "MAX_MULTISINE_SAMPLES", 1001)
    assert multisine(1, 0.0, 2.0, 1.0, 1e-3, 1000).shape == (1001, 1)
    with pytest.raises(InvalidConfig, match="multisine of 1002 samples"):
        multisine(1, 0.0, 2.0, 1.0, 1e-3, 1001)


def test_multisine_memory_is_bounded():
    # the CLI's default run: 20 001 samples of 40 lines on 2 inputs, held
    # as the output (320 kB) and one spectrum row and inverse FFT at a time
    tracemalloc.start()
    try:
        multisine(2, 0.0, 2.0, 1.0, 1e-3, 20_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_multisine_negative_seed_is_typed():
    with pytest.raises(InvalidConfig, match="seed must be >= 0"):
        multisine(1, 0.0, 2.0, 1.0, 1e-3, 1000, seed=-1)


def exact_multisine(f_min, f_max, dt, n_steps, seed):
    """multisine's first channel at unit RMS, each sample an exactly rounded
    sum (math.fsum) of its cosines, whose phase k n / n_steps is reduced
    exactly in integers, so each argument is below 4 pi."""
    period = n_steps * dt
    k_lo = max(1, math.ceil(f_min * period))
    k_hi = min(math.floor(f_max * period), (n_steps - 1) // 2)
    lines = range(k_lo, k_hi + 1)
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(1, len(lines)))
    # the exact mean square of n_lines unit cosines on distinct DFT lines
    rms = math.sqrt(len(lines) / 2)
    return np.array([
        math.fsum(
            math.cos(2.0 * math.pi * ((n * k) % n_steps) / n_steps + phase)
            for k, phase in zip(lines, phases[0].tolist())
        ) / rms
        for n in range(n_steps + 1)
    ])


@pytest.mark.parametrize("band", [(0.0, 2.0), (0.1, 5.0)], ids=["0-2Hz", "0.1-5Hz"])
def test_multisine_matches_exact_sum(band):
    # the inverse FFT is within 2.3e-15 of the exact sum on both bands (the
    # sum itself within 2.2e-15 of a 40-digit mpmath reference); summing
    # cosines of the unreduced arguments 2 pi k t + phi, up to 2 pi k_hi t,
    # is off by 5.8e-14 and 1.6e-13
    u = multisine(1, *band, 1.0, 1e-3, 20_000, seed=0)[:, 0]
    assert float(np.max(np.abs(u - exact_multisine(*band, 1e-3, 20_000, 0)))) <= 1e-14


@pytest.mark.parametrize("n_steps", [999, 1000, 20_000])
def test_multisine_end_sample_repeats_the_first(n_steps):
    u = multisine(3, 0.0, 20.0, 1.3, 1e-3, n_steps, seed=n_steps)
    assert u[n_steps].tobytes() == u[0].tobytes()


def test_multisine_long_band():
    # 2 501 lines (k = 1..2501 for f_max = 250.15 Hz over the 9.999 s
    # period) over 10 000 samples: only the sample count is bounded, not
    # samples times lines; exactly those lines carry the signal, at equal
    # amplitude
    n = 9_999
    u = multisine(1, 0.0, 250.15, 1.0, 1e-3, n, seed=2)
    assert u.shape == (n + 1, 1)
    mags = np.abs(np.fft.rfft(u[:n, 0]))
    band = mags[1:2502]
    assert float(np.max(band) - np.min(band)) <= 1e-12 * float(np.max(band))
    assert float(max(mags[0], np.max(mags[2502:]))) <= 1e-12 * float(np.max(band))
    assert math.sqrt(float(np.mean(u[:n, 0] ** 2))) == pytest.approx(1.0, rel=1e-14)


def synth64_trajectory():
    """A trajectory of synth64's width, 2 001 rows of 93 columns, filled
    with seeded normal draws."""
    rng = np.random.default_rng(64)
    n = 2001
    u, x, y, z, p = (rng.standard_normal((n, m)) for m in (2, 64, 2, 6, 18))
    return Trajectory(1e-3, u, x, y, z, p, "p")


def joined_csv(header, columns):
    """The CSV text as _csv built it before it stopped copying the joined
    rows: one line per row of columns, and a newline after the last."""
    rows = [",".join(header)] + [
        ",".join(repr(v) for c in columns for v in c[r].tolist())
        for r in range(len(columns[0]))
    ]
    return "\n".join(rows) + "\n"


def test_csv_text_is_unchanged():
    t = synth64_trajectory()
    text = sim.trajectory_csv(t)
    header = text[: text.index("\n")].split(",")
    assert header[:4] == ["t", "u1", "u2", "x1"] and header[-1] == "p18"
    columns = [t.times[:, None], t.u, t.x, t.y, t.z, t.w_or_p]
    assert text == joined_csv(header, columns)
    spec = spectrum(t)
    assert sim.spectrum_csv(spec) == joined_csv(
        ["freq_hz", "y1", "y2"], [spec.freqs_hz[:, None], spec.magnitude]
    )


def test_csv_peak_memory_is_bounded():
    # the rows and the text they join into: 2.04 times the 3.8 MB text;
    # appending the last newline after the join would make a third copy
    # (3.04 times)
    t = synth64_trajectory()
    tracemalloc.start()
    try:
        text = sim.trajectory_csv(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_compare_tolerance_must_be_finite_nonnegative(msd_model, tol):
    u = multisine(2, 0.0, 50.0, 1.0, 1e-3, 100, seed=4)
    ta = simulate_nlfr(msd_model, u, dt=1e-3)
    with pytest.raises(InvalidConfig, match="tolerance"):
        compare(ta, ta, tol=tol)
