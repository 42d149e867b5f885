"""Offset propagation: DC gains, stability check, correction solving."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from conftest import random_nlfr_raw
from lpvembed import (
    compare,
    embed,
    multisine,
    simulate_lpv_self,
    simulate_nlfr,
    serialize_lpv,
    validate_lpv,
    validate_nlfr,
)
from lpvembed.errors import (
    ColumnSpaceViolation,
    Divergence,
    HurwitzWarning,
    NonFiniteEntry,
    SingularA,
)
from lpvembed.offset import (
    DcGains,
    check_hurwitz,
    dc_gains,
    matching_start,
    solve_offsets,
)
from lpvembed.sim import COMPARE_TOL


def lti_raw(A, Bw, Bu, Cz, Cy, f_rows, Dzu=None, Dyw=None, Dyu=None):
    A = np.atleast_2d(np.asarray(A, float))
    Bw = np.atleast_2d(np.asarray(Bw, float))
    Bu = np.atleast_2d(np.asarray(Bu, float))
    Cz = np.atleast_2d(np.asarray(Cz, float))
    Cy = np.atleast_2d(np.asarray(Cy, float))
    n_x, n_w = Bw.shape
    n_u = Bu.shape[1]
    n_z = Cz.shape[0]
    n_y = Cy.shape[0]
    return {
        "dims": {"n_x": n_x, "n_u": n_u, "n_y": n_y, "n_w": n_w, "n_z": n_z},
        "A": A.tolist(), "Bw": Bw.tolist(), "Bu": Bu.tolist(),
        "Cz": Cz.tolist(), "Cy": Cy.tolist(),
        "Dzu": (np.zeros((n_z, n_u)) if Dzu is None else np.asarray(Dzu, float)).tolist(),
        "Dyw": (np.zeros((n_y, n_w)) if Dyw is None else np.asarray(Dyw, float)).tolist(),
        "Dyu": (np.zeros((n_y, n_u)) if Dyu is None else np.asarray(Dyu, float)).tolist(),
        "f": f_rows,
    }


# --- DC gains ---------------------------------------------------------------


def test_dc_gains_identity_case():
    raw = lti_raw(-np.eye(2), np.zeros((2, 1)), np.eye(2), np.zeros((1, 2)) + [[1.0, 0.0]],
                  np.eye(2), ["0"])
    g = dc_gains(validate_nlfr(raw))
    assert np.array_equal(g.G1_0, np.eye(2))


def test_dc_gains_msd_nonsingular(msd_model):
    # determinant oracle: block triangular-like structure gives det(A) = k1*k2
    det = np.linalg.det(msd_model.A)
    k1 = np.pi**2
    k2 = (1.2 * np.pi) ** 2
    assert det == pytest.approx(k1 * k2, rel=1e-12)
    g = dc_gains(msd_model)
    assert np.all(np.isfinite(g.G2_0))


def test_dc_gains_singular_a():
    raw = lti_raw([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], ["0"])
    with pytest.raises(SingularA):
        dc_gains(validate_nlfr(raw))


def test_dc_gains_ill_conditioned_a():
    # invertible, but past the condition limit
    raw = lti_raw(np.diag([-1.0, -1e-13]), [[1.0], [1.0]], [[1.0], [1.0]],
                  [[1.0, 1.0]], [[1.0, 1.0]], ["0"])
    with pytest.raises(SingularA, match=re.escape("condition estimate 1.000e+13")):
        dc_gains(validate_nlfr(raw))


def test_dc_gains_match_low_frequency_limit():
    rng = np.random.default_rng(67)
    for _ in range(15):
        n_x = int(rng.integers(1, 6))
        raw = random_nlfr_raw(rng, n_x=n_x)
        m = validate_nlfr(raw)
        g = dc_gains(m)
        s = 1e-8
        resolvent = np.linalg.solve(s * np.eye(n_x) - m.A, m.Bu)
        g1_freq = m.Cy @ resolvent + m.Dyu
        assert np.allclose(g1_freq, g.G1_0, rtol=1e-5, atol=1e-8)


# --- Hurwitz ------------------------------------------------------------------


def test_hurwitz_examples(msd_model):
    ok, max_re = check_hurwitz(-np.eye(3))
    assert ok and max_re == -1.0
    ok, max_re = check_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not ok
    assert abs(max_re) < 1e-9
    ok, max_re = check_hurwitz(msd_model.A)
    assert np.isfinite(max_re)
    assert ok  # lightly damped chain, but strictly stable


# --- offset solving ------------------------------------------------------------


def test_solve_offsets_zero_offset_skips():
    g = DcGains(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    sol = solve_offsets(g, [0.0])
    assert np.array_equal(sol.d, [0.0])
    assert np.array_equal(sol.y0, [0.0])
    assert sol.residual == 0.0


def test_solve_offsets_scalar_toy():
    # G2 d = -G4 c  =>  2 d = -4  =>  d = -2;  y0 = G3 c + G1 d = 4 - 6 = -2
    g = DcGains(
        G1_0=np.array([[3.0]]),
        G2_0=np.array([[2.0]]),
        G3_0=np.array([[1.0]]),
        G4_0=np.array([[1.0]]),
    )
    sol = solve_offsets(g, [4.0])
    assert sol.d == pytest.approx([-2.0], abs=0.0)
    assert sol.y0 == pytest.approx([-2.0], abs=0.0)
    assert sol.residual <= 1e-14


def test_solve_offsets_square_inverse_property():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        G2 = rng.uniform(-1, 1, (n, n)) + 3.0 * np.eye(n)
        G4 = rng.uniform(-1, 1, (n, n))
        c = rng.uniform(-1, 1, n)
        g = DcGains(np.zeros((1, n)), G2, np.zeros((1, n)), G4)
        sol = solve_offsets(g, c)
        expected = -np.linalg.solve(G2, G4 @ c)
        assert np.allclose(sol.d, expected, rtol=1e-12, atol=1e-15)


def test_solve_offsets_column_space_violation():
    g = DcGains(
        G1_0=np.zeros((1, 1)),
        G2_0=np.array([[1.0], [0.0]]),
        G3_0=np.zeros((1, 1)),
        G4_0=np.array([[0.0], [-1.0]]),
    )
    # target -G4 c = (0, 1): second component unreachable through G2
    with pytest.raises(ColumnSpaceViolation) as exc_info:
        solve_offsets(g, [1.0])
    assert exc_info.value.residual == pytest.approx(1.0, rel=1e-12)


def huge_offset_gains(G2):
    n_u = np.shape(G2)[1]
    return DcGains(np.zeros((1, n_u)), np.array(G2, float), np.zeros((1, 2)), -np.eye(2))


def test_unreachable_huge_offset_is_refused():
    # |target| is about 1.4e200, so its squared norm overflows; inf <= inf
    # must not accept the unreachable second component
    g = huge_offset_gains([[1.0], [0.0]])
    with pytest.raises(ColumnSpaceViolation):
        solve_offsets(g, [1e200, 1e200])
    # an unreachable part 1e-20 of |target| is within the relative tolerance
    sol = solve_offsets(g, [1e200, 1e180])
    assert sol.d == pytest.approx([1e200], rel=1e-15)


def test_reachable_huge_offset_solves():
    sol = solve_offsets(huge_offset_gains(np.eye(2)), [1e200, 1e200])
    assert sol.d == pytest.approx([1e200, 1e200], rel=1e-15)
    assert np.array_equal(sol.y0, [0.0])
    assert sol.residual <= 1e-9 * 1e200


# --- sample correction ------------------------------------------------------------


def test_correct_inputs_identity_and_constant():
    sol_zero = solve_offsets(
        DcGains(np.eye(1), np.eye(1), np.eye(1), np.eye(1)), [0.0]
    )
    u = np.full((5, 1), 5.0)
    assert np.array_equal(u - sol_zero.d, u)
    g = DcGains(np.eye(1), np.eye(1), np.eye(1), -2.0 * np.eye(1))
    sol = solve_offsets(g, [1.0])  # d = 2
    assert np.array_equal(sol.d, [2.0])
    assert np.array_equal(u - sol.d, np.full((5, 1), 3.0))
    y = np.full((4, 1), 1.5)
    assert np.array_equal((y - sol.y0) + sol.y0, y)


# --- end-to-end equivalence ---------------------------------------------------------


def offset_toy_raw():
    # closed loop xdot = -2x + u - 1 (stable); f(0) = 1 forces the offset path
    return lti_raw([[-1.0]], [[-1.0]], [[1.0]], [[1.0]], [[1.0]], ["z1 + 1"])


def test_offset_toy_steady_state_equivalence():
    m = validate_nlfr(offset_toy_raw())
    lpv = embed(m)
    dt, n = 1e-3, 30000
    u = np.full((n + 1, 1), 0.7)
    y_nlfr = simulate_nlfr(m, u, dt=dt).y[-1]
    y_lpv = simulate_lpv_self(lpv, u, dt=dt).y[-1]
    assert abs(y_nlfr[0] - y_lpv[0]) <= 1e-6
    # brute-force steady state of xdot = -2x + u - 1
    assert y_nlfr[0] == pytest.approx((0.7 - 1.0) / 2.0, abs=1e-9)


def test_offset_equivalence_random_affine_toys():
    # the state trajectories differ by a constant shift, so only the steady
    # states are compared; reject slowly settling closed loops
    rng = np.random.default_rng(73)
    accepted = 0
    while accepted < 8:
        a = float(rng.uniform(-0.4, 0.4))
        b = float(rng.uniform(-1.0, 1.0))
        raw = random_nlfr_raw(
            rng, n_w=1, n_z=1, f_rows=[f"({a!r})*z1 + ({b!r})"]
        )
        m = validate_nlfr(raw)
        closed = m.A + a * np.outer(m.Bw[:, 0], m.Cz[0, :])
        if np.max(np.linalg.eigvals(closed).real) > -0.5:
            continue
        accepted += 1
        lpv = embed(m)
        dt, n = 5e-3, 8000  # 40 s horizon; fixed point accuracy, not resolution
        u = np.tile(rng.uniform(-1.0, 1.0, m.dims.n_u), (n + 1, 1))
        y_nlfr = simulate_nlfr(m, u, dt=dt).y[-1]
        y_lpv = simulate_lpv_self(lpv, u, dt=dt).y[-1]
        assert np.max(np.abs(y_nlfr - y_lpv)) <= 1e-6


def test_non_hurwitz_with_offset_warns_but_proceeds():
    # A invertible but unstable; offset correction algebra still well-defined
    raw = lti_raw([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], ["0.1*z1 + 0.5"])
    m = validate_nlfr(raw)
    from lpvembed.errors import HurwitzWarning

    with pytest.warns(HurwitzWarning):
        lpv = embed(m)
    assert np.all(np.isfinite(lpv.d))
    assert np.any(lpv.d != 0.0)


@pytest.mark.parametrize(
    "a, f, warns",
    [(1.0, "0.1*z1 + 0.5 + z1^3", True), (-1.0, "0.1*z1 + 0.5 + z1^3", False),
     (1.0, "0.1*z1 + z1^3", False), (0.0, "0.1*z1 + z1^3", False)],
    ids=["offset-unstable", "offset-stable", "no-offset-unstable", "no-offset-singular"],
)
def test_hurwitz_warning_only_for_an_offset_through_unstable_a(a, f, warns):
    m = validate_nlfr(lti_raw([[a]], [[-1.0]], [[1.0]], [[1.0]], [[1.0]], [f]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        embed(m)
    assert [(w.category, str(w.message)) for w in caught] == ([(
        HurwitzWarning,
        "A is not Hurwitz (max eigenvalue real part 1.000e+00); offset "
        "corrections are propagated anyway but their steady-state "
        "interpretation is not guaranteed",
    )] if warns else [])


def test_offset_equivalence_with_guard_and_feedthrough():
    # offset, guarded-quotient channel, pruned channel, and nonzero
    # Dzu/Dyw/Dyu all at once; equivalence still holds at steady state
    rng = np.random.default_rng(107)
    from lpvembed.expr import GuardedQuotient

    accepted = 0
    while accepted < 3:
        raw = random_nlfr_raw(
            rng, n_x=3, n_u=2, n_y=2, n_w=1, n_z=2,
            f_rows=["0.1*sin(z1)*z2 + 0.1*z1^2 + 0.3"],
        )
        m = validate_nlfr(raw)
        try:
            lpv = embed(m, ordering=(2, 1))
        except ColumnSpaceViolation:
            continue  # this draw genuinely cannot absorb the offset
        assert isinstance(lpv.schedule.entry(1, 1), GuardedQuotient)
        assert lpv.schedule.entry(1, 2) is None
        assert np.any(lpv.d != 0.0)
        dt, n = 5e-3, 12000
        u = np.tile(rng.uniform(-0.5, 0.5, 2), (n + 1, 1))
        try:
            ta = simulate_nlfr(m, u, dt=dt)
            tb = simulate_lpv_self(lpv, u, dt=dt)
        except Divergence:
            continue
        drift = np.max(np.abs(ta.y[-1] - ta.y[-1000]))
        if drift > 1e-9 or np.max(np.abs(ta.x)) > 10.0:
            continue
        accepted += 1
        assert np.max(np.abs(ta.y[-1] - tb.y[-1])) <= 1e-6


def test_shifted_start_reproduces_whole_trajectory():
    # started at A^-1 (Bw c + Bu d), the offset-free LPV core reproduces the
    # nonlinear model's trajectory from zero at every sample, not only at
    # steady state
    rng = np.random.default_rng(211)
    models = [validate_nlfr(offset_toy_raw())]
    while len(models) < 3:
        raw = random_nlfr_raw(
            rng, n_x=3, n_u=2, n_y=2, n_w=1, n_z=2,
            f_rows=["0.1*sin(z1)*z2 + 0.1*z1^2 + 0.3"],
        )
        m = validate_nlfr(raw)
        if np.max(np.linalg.eigvals(m.A).real) < -0.1:
            models.append(m)
    checked = 0
    for m in models:
        try:
            lpv = embed(m, ordering=(2, 1) if m.dims.n_z == 2 else None)
        except ColumnSpaceViolation:
            continue  # this draw genuinely cannot absorb the offset
        checked += 1
        assert np.any(lpv.d != 0.0)
        u = multisine(m.dims.n_u, 0.0, 2.0, 0.5, 1e-3, 2000, seed=3)
        ta = simulate_nlfr(m, u, dt=1e-3)
        tb = simulate_lpv_self(lpv, u, x0=matching_start(lpv), dt=1e-3)
        assert compare(ta, tb, tol=COMPARE_TOL).passed
        assert np.allclose(tb.x - ta.x, matching_start(lpv), rtol=0.0, atol=1e-12)
    assert checked >= 2


def test_matching_start_is_none_without_offset(msd_model):
    assert matching_start(embed(msd_model)) is None


@pytest.mark.parametrize(
    "change, error",
    [({"A": [[1e-309]]}, SingularA),
     ({"A": [[1e-300]], "c": [1e10]}, NonFiniteEntry),
     ({"Bu": [[1e-300]], "c": [1e10]}, NonFiniteEntry)],
    ids=["gain", "target", "d"],
)
def test_overflowing_offset_solution_is_typed(change, error):
    # Loading an LPV file re-solves its offsets.  Finite blocks whose DC
    # gain, offset target or input shift overflow fail typed, with no
    # RuntimeWarning and no LinAlgError from LAPACK.
    raw = serialize_lpv(embed(validate_nlfr(offset_toy_raw())))
    validate_lpv(raw)
    for key, value in change.items():
        (raw["schedule"] if key == "c" else raw)[key] = value
    with pytest.raises(error, match="overflow"):
        validate_lpv(raw)


def test_matching_start_singular_a_is_typed():
    # an offset model whose A is singular has no offset start; the loader
    # refuses such a file before (its DC gains need A^-1), so the model is
    # built here with A replaced after embedding
    lpv = embed(validate_nlfr(offset_toy_raw()))
    lpv = dataclasses.replace(lpv, A=np.zeros((1, 1)))
    with pytest.raises(SingularA, match="A is singular: Singular matrix"):
        matching_start(lpv)
