"""Acceptance suite: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import itertools
import math
import time

import numpy as np

from conftest import guard_sweep_results, random_expression, random_expression_vector
from lpvembed import (
    assemble,
    builtin_example,
    check_reconstruction,
    compare,
    embed,
    factorize,
    multisine,
    simulate_lpv_self,
    simulate_nlfr,
    solve_offsets,
    validate_nlfr,
)
from lpvembed.errors import ColumnSpaceViolation
from lpvembed.expr import GuardedQuotient
from lpvembed.offset import DcGains


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def _msd_compare(ordering):
    model = validate_nlfr(builtin_example("msd2dof"))
    lpv = embed(model, ordering)
    dt, t_end, seed = 1e-3, 20.0, 0
    n = round(t_end / dt)
    u = multisine(2, 0.0, 2.0, 1.0, dt, n, seed)
    ta = simulate_nlfr(model, u, dt=dt)
    tb = simulate_lpv_self(lpv, u, dt=dt)
    return compare(ta, tb, tol=1e-9)


def test_criterion_1_exact_match_reproduction():
    start = time.perf_counter()
    report = _msd_compare((1, 2))
    elapsed = time.perf_counter() - start
    ok = report.passed and len(report.max_abs_error) == 2
    _report(
        "criterion-1 exact-match reproduction",
        ok,
        f"max abs per channel {report.max_abs_error} <= 1e-9, "
        f"runtime {elapsed:.2f} s",
    )


def test_criterion_2_scheduling_map_identity():
    model = validate_nlfr(builtin_example("msd2dof"))
    lpv = embed(model, (1, 2))
    rng = np.random.default_rng(202)
    Z = rng.uniform(-2.0, 2.0, (1000, 2))
    e1 = lpv.schedule.entry(1, 1).evaluate_batch(Z)
    e2 = lpv.schedule.entry(1, 2).evaluate_batch(Z)
    ref1 = 10.0 * Z[:, 0] ** 2
    ref2 = 0.1 * np.sin(10.0 * Z[:, 0]) + 0.2 * Z[:, 1]
    rel1 = float(np.max(np.abs(e1 - ref1) / (1.0 + np.abs(ref1))))
    rel2 = float(np.max(np.abs(e2 - ref2) / (1.0 + np.abs(ref2))))
    _report(
        "criterion-2 scheduling-map identity",
        rel1 <= 1e-13 and rel2 <= 1e-13,
        f"max rel deviation from closed forms {max(rel1, rel2):.2e} <= 1e-13",
    )


_CRIT3_CACHE = None


def _reconstruction_suite():
    """100 random nonlinearities, all orderings for n_z <= 3, 500 points."""
    global _CRIT3_CACHE
    if _CRIT3_CACHE is not None:
        return _CRIT3_CACHE
    rng = np.random.default_rng(303)
    worst = 0.0
    guards = []
    checks = 0
    for _ in range(100):
        n_z = int(rng.integers(1, 5))
        n_w = int(rng.integers(1, 4))
        f = random_expression_vector(rng, n_w, n_z)
        Z = rng.uniform(-3.0, 3.0, (500, n_z))
        if n_z <= 3:
            orderings = list(itertools.permutations(range(1, n_z + 1)))
        else:
            orderings = [tuple(rng.permutation(n_z) + 1)]
        for ordering in orderings:
            m = factorize(f, ordering)
            rep = check_reconstruction(m, f, Z)
            checks += 1
            worst = max(worst, rep.max_rel_error)
            guards.extend(
                e for row in m.entries for e in row
                if isinstance(e, GuardedQuotient)
            )
    _CRIT3_CACHE = (worst, checks, guards)
    return _CRIT3_CACHE


def test_criterion_3_reconstruction_property():
    start = time.perf_counter()
    worst, checks, guards = _reconstruction_suite()
    elapsed = time.perf_counter() - start
    _report(
        "criterion-3 factorization reconstruction",
        worst <= 1e-12,
        f"{checks} factorizations, worst rel error {worst:.2e} <= 1e-12, "
        f"runtime {elapsed:.1f} s",
    )


def test_criterion_4_guard_continuity():
    _, _, guards = _reconstruction_suite()
    rng = np.random.default_rng(404)
    worst_ratio = 0.0
    for q in guards:
        for jump, bound in guard_sweep_results(q, rng, n_contexts=3):
            worst_ratio = max(worst_ratio, jump / bound)
            if jump > bound:
                _report(
                    "criterion-4 guard continuity",
                    False,
                    f"jump {jump:.3e} exceeds bound {bound:.3e}",
                )
    _report(
        "criterion-4 guard continuity",
        True,
        f"{len(guards)} guarded quotients swept, worst jump/bound "
        f"{worst_ratio:.3f}",
    )


def test_criterion_5_affinity():
    from conftest import random_nlfr_raw

    rng = np.random.default_rng(505)
    worst = 0.0
    done = 0
    while done < 100:
        lpv = embed(validate_nlfr(random_nlfr_raw(rng)))
        if lpv.n_p == 0:
            continue
        done += 1
        p = rng.uniform(-2.0, 2.0, lpv.n_p)
        q = rng.uniform(-2.0, 2.0, lpv.n_p)
        alpha, beta = rng.uniform(-1.5, 1.5, 2)
        left = assemble(lpv, alpha * p + beta * q)
        rp = assemble(lpv, p)
        rq = assemble(lpv, q)
        nom = assemble(lpv, np.zeros(lpv.n_p))
        for L, Rp, Rq, N in zip(left, rp, rq, nom):
            rhs = alpha * Rp + beta * Rq + (1.0 - alpha - beta) * N
            scale = 1.0 + np.abs(rhs)
            worst = max(worst, float(np.max(np.abs(L - rhs) / scale)))
    _report(
        "criterion-5 affinity",
        worst <= 1e-14,
        f"100 (model, p, q) triples, worst rel deviation {worst:.2e} <= 1e-14",
    )


def test_criterion_6_offset_propagation():
    # scalar toy: G2 d = -G4 c with G2 = 2, G4 = 1, c = 4 gives d = -2
    # and y0 = G3 c + G1 d = 4 - 6 = -2 (frozen hand-solved values)
    gains = DcGains(
        G1_0=np.array([[3.0]]),
        G2_0=np.array([[2.0]]),
        G3_0=np.array([[1.0]]),
        G4_0=np.array([[1.0]]),
    )
    sol = solve_offsets(gains, [4.0])
    toy_ok = (
        sol.d[0] == -2.0 and sol.y0[0] == -2.0 and sol.residual <= 1e-14
    )

    # end-to-end: raw nonlinear model vs offset-corrected LPV at steady state
    raw = {
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[-1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["z1 + 1"],
    }
    m = validate_nlfr(raw)
    lpv = embed(m)
    n = 30000
    u = np.full((n + 1, 1), 0.7)
    y_nlfr = simulate_nlfr(m, u, dt=1e-3).y[-1, 0]
    y_lpv = simulate_lpv_self(lpv, u, dt=1e-3).y[-1, 0]
    e2e_err = abs(y_nlfr - y_lpv)

    # unreachable offset must be rejected
    bad = DcGains(
        G1_0=np.zeros((1, 1)),
        G2_0=np.array([[1.0], [0.0]]),
        G3_0=np.zeros((1, 1)),
        G4_0=np.array([[0.0], [1.0]]),
    )
    try:
        solve_offsets(bad, [1.0])
        rejected = False
    except ColumnSpaceViolation:
        rejected = True

    _report(
        "criterion-6 offset propagation",
        toy_ok and e2e_err <= 1e-6 and rejected,
        f"scalar toy (d, y0) = ({sol.d[0]}, {sol.y0[0]}), steady-state "
        f"mismatch {e2e_err:.2e} <= 1e-6, violation rejected = {rejected}",
    )


def test_criterion_7_derivative_oracle():
    rng = np.random.default_rng(707)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        e = random_expression(rng, n)
        partials = [e.partial(i) for i in range(1, n + 1)]
        for _ in range(20):
            z = [float(v) for v in rng.uniform(-2.0, 2.0, n)]
            i = int(rng.integers(1, n + 1))
            sym = partials[i - 1].evaluate(z)
            zp, zm = list(z), list(z)
            zp[i - 1] += h
            zm[i - 1] -= h
            fd = (e.evaluate(zp) - e.evaluate(zm)) / (2.0 * h)
            worst = max(worst, abs(sym - fd) / (1.0 + abs(sym)))
    _report(
        "criterion-7 derivative oracle",
        worst <= 1e-6,
        f"200 expressions x 20 points, worst rel deviation {worst:.2e} <= 1e-6",
    )


def test_criterion_8_rk4_order():
    omega = 2.0 * math.pi
    raw = {
        "dims": {"n_x": 2, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[0.0, omega], [-omega, 0.0]],
        "Bw": [[0.0], [0.0]], "Bu": [[0.0], [0.0]],
        "Cz": [[1.0, 0.0]], "Cy": [[1.0, 0.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0"],
    }
    m = validate_nlfr(raw)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = round(1.0 / dt)
        traj = simulate_nlfr(m, np.zeros((n + 1, 1)), x0=[1.0, 0.0], dt=dt)
        errs.append(float(np.max(np.abs(traj.y[:, 0] - np.cos(omega * traj.times)))))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios)
    _report(
        "criterion-8 RK4 order",
        ok,
        f"error ratios per dt halving {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"within 16 +/- 20%",
    )


def test_criterion_9_ordering_invariance():
    report = _msd_compare((2, 1))
    _report(
        "criterion-9 ordering invariance",
        report.passed,
        f"reversed-ordering embedding max abs {report.max_abs_error} <= 1e-9",
    )
