"""LPV assembly: basis construction, affinity, scheduling."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from conftest import random_nlfr_raw
from lpvembed import (
    assemble,
    check_reconstruction,
    compare,
    embed,
    load_lpv,
    multisine,
    save_model,
    scheduling_from_state,
    simulate_lpv_self,
    simulate_nlfr,
    validate_nlfr,
)
from lpvembed.errors import ArityMismatch, ChannelCountMismatch, ShapeMismatch


def test_msd_basis_placement(msd_model):
    lpv = embed(msd_model, (1, 2))
    assert lpv.n_p == 2
    assert lpv.channels == ((1, 1), (1, 2))
    a1 = np.zeros((4, 4))
    a1[2, 0] = -1.0
    a2 = np.zeros((4, 4))
    a2[2, 2] = -1.0
    assert np.array_equal(lpv.basis[0].Ak, a1)
    assert np.array_equal(lpv.basis[1].Ak, a2)
    for b in lpv.basis:
        assert not np.any(b.Bk)
        assert not np.any(b.Ck)
        assert not np.any(b.Dk)


def test_linear_model_embeds_to_lti():
    raw = {
        "dims": {"n_x": 2, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[0.0, 1.0], [-1.0, -0.5]],
        "Bw": [[0.0], [1.0]],
        "Bu": [[0.0], [1.0]],
        "Cz": [[1.0, 0.0]],
        "Cy": [[1.0, 0.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0"],
    }
    lpv = embed(validate_nlfr(raw))
    assert lpv.n_p == 0
    A, B, C, D = assemble(lpv, np.zeros(0))
    assert np.array_equal(A, lpv.A)
    assert np.array_equal(B, lpv.Bu)


def test_feedthrough_quadruples_match_hand_construction():
    rng = np.random.default_rng(79)
    raw = random_nlfr_raw(rng, n_x=2, n_u=2, n_y=2, n_w=2, n_z=2,
                          f_rows=["z1*z2 + 0.1*z1^2", "0.2*z2^2"])
    m = validate_nlfr(raw)
    lpv = embed(m)
    for b in lpv.basis:
        E = np.zeros((2, 2))
        E[b.r - 1, b.i - 1] = 1.0
        assert np.array_equal(b.Ak, m.Bw @ E @ m.Cz)
        assert np.array_equal(b.Bk, m.Bw @ E @ m.Dzu)
        assert np.array_equal(b.Ck, m.Dyw @ E @ m.Cz)
        assert np.array_equal(b.Dk, m.Dyw @ E @ m.Dzu)
    assert any(np.any(b.Ck) for b in lpv.basis)  # Dyw != 0 exercises C_k


# --- assemble -----------------------------------------------------------------


def test_assemble_nominal_at_zero(msd_model):
    lpv = embed(msd_model)
    A, B, C, D = assemble(lpv, np.zeros(2))
    assert np.array_equal(A, lpv.A)
    assert np.array_equal(B, lpv.Bu)
    assert np.array_equal(C, lpv.Cy)
    assert np.array_equal(D, lpv.Dyu)


def test_assemble_msd_matches_paperlike_placement(msd_model):
    lpv = embed(msd_model)
    p = np.array([3.0, -2.0])
    A, _, _, _ = assemble(lpv, p)
    delta = A - lpv.A
    expected = np.zeros((4, 4))
    expected[2, 0] = -p[0]
    expected[2, 2] = -p[1]
    assert np.array_equal(delta, expected)


def test_assemble_channel_count_checked(msd_model):
    lpv = embed(msd_model)
    with pytest.raises(ChannelCountMismatch):
        assemble(lpv, np.zeros(3))


def test_assemble_affine_identity():
    rng = np.random.default_rng(83)
    for _ in range(25):
        raw = random_nlfr_raw(rng)
        lpv = embed(validate_nlfr(raw))
        if lpv.n_p == 0:
            continue
        p = rng.uniform(-2.0, 2.0, lpv.n_p)
        q = rng.uniform(-2.0, 2.0, lpv.n_p)
        alpha, beta = rng.uniform(-1.5, 1.5, 2)
        left = assemble(lpv, alpha * p + beta * q)
        right_p = assemble(lpv, p)
        right_q = assemble(lpv, q)
        nominal = assemble(lpv, np.zeros(lpv.n_p))
        for L, Rp, Rq, N in zip(left, right_p, right_q, nominal):
            rhs = alpha * Rp + beta * Rq + (1.0 - alpha - beta) * N
            assert np.allclose(L, rhs, rtol=1e-14, atol=1e-14)


def test_basis_reconstructs_full_products():
    rng = np.random.default_rng(89)
    for _ in range(10):
        raw = random_nlfr_raw(rng, n_w=2, n_z=2,
                              f_rows=["z1^2 + z1*z2", "z2^2 + 0.5*z1*z2"])
        m = validate_nlfr(raw)
        lpv = embed(m)
        for _ in range(10):
            P = np.zeros((2, 2))
            pvec = rng.uniform(-1.0, 1.0, lpv.n_p)
            for val, (r, i) in zip(pvec, lpv.channels):
                P[r - 1, i - 1] = val
            A, B, C, D = assemble(lpv, pvec)
            assert np.allclose(A, m.A + m.Bw @ P @ m.Cz, rtol=1e-14, atol=1e-14)
            assert np.allclose(B, m.Bu + m.Bw @ P @ m.Dzu, rtol=1e-14, atol=1e-14)
            assert np.allclose(C, m.Cy + m.Dyw @ P @ m.Cz, rtol=1e-14, atol=1e-14)
            assert np.allclose(D, m.Dyu + m.Dyw @ P @ m.Dzu, rtol=1e-14, atol=1e-14)


# --- scheduling from state --------------------------------------------------------


def test_scheduling_from_state_msd(msd_model):
    lpv = embed(msd_model)
    x = np.array([1.0, 0.0, 2.0, 0.0])
    p = scheduling_from_state(lpv, x, np.zeros(2))
    assert p[0] == 10.0
    assert p[1] == pytest.approx(0.1 * np.sin(10.0) + 0.4, rel=1e-15)
    assert np.array_equal(scheduling_from_state(lpv, np.zeros(4), np.zeros(2)),
                          np.zeros(2))


def test_scheduling_from_state_with_feedthrough():
    rng = np.random.default_rng(97)
    raw = random_nlfr_raw(rng, n_w=1, n_z=2, f_rows=["z1^2 + z2^2"])
    m = validate_nlfr(raw)
    lpv = embed(m)
    x = rng.uniform(-1, 1, m.dims.n_x)
    u = rng.uniform(-1, 1, m.dims.n_u)
    z = m.Cz @ x + m.Dzu @ u  # independent matrix-product oracle
    p = scheduling_from_state(lpv, x, u)
    expected = [lpv.schedule.entry(r, i).evaluate(z) for r, i in lpv.channels]
    assert np.allclose(p, expected, rtol=1e-15)


@pytest.mark.parametrize("ordering", [(1, 2), (2, 1)], ids=["1,2", "2,1"])
def test_scheduling_from_state_overflow_raises(msd_model, ordering):
    # z is a numpy vector; its entries evaluate as Python floats, so the
    # power z1^2 (ordering 1,2) or z1^3 (2,1) raises instead of giving inf
    lpv = embed(msd_model, ordering)
    with pytest.raises(OverflowError):
        scheduling_from_state(lpv, np.array([1e200, 0.0, 0.0, 0.0]), np.zeros(2))
    p = scheduling_from_state(lpv, np.array([1e100, 0.0, 0.0, 0.0]), np.zeros(2))
    assert np.all(np.isfinite(p))


@pytest.mark.parametrize(
    "x, u, message",
    [
        (np.zeros(3), np.zeros(2), "state has shape (3,), expected (4,)"),
        (np.zeros(4), np.zeros(3), "corrected input has shape (3,), expected (2,)"),
        (np.zeros((4, 1)), np.zeros(2), "state has shape (4, 1), expected (4,)"),
        ([[0.0, 1.0], [2.0], 0.0, 0.0], np.zeros(2), "state cannot be read as numbers"),
        (np.zeros(4), ["a", "b"], "corrected input cannot be read as numbers"),
    ],
    ids=["x-short", "u-long", "x-column", "x-ragged", "u-text"],
)
def test_scheduling_from_state_shapes_are_typed(msd_model, x, u, message):
    # read as the simulators read an initial state; numpy's matmul would
    # raise an untyped ValueError or broadcast a column
    with pytest.raises(ShapeMismatch, match=re.escape(message)):
        scheduling_from_state(embed(msd_model), x, u)


RAGGED = [[0.1, 0.2], [0.3]]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda lpv, f: assemble(lpv, ["a", "b"]), ShapeMismatch,
         "scheduling vector cannot be read as numbers"),
        (lambda lpv, f: check_reconstruction(lpv.schedule, f, RAGGED), ArityMismatch,
         "samples cannot be read as numbers"),
        (lambda lpv, f: check_reconstruction(lpv.schedule, f, np.zeros((0, 2))),
         ArityMismatch, "samples have shape (0, 2), expected (m >= 1, 2)"),
        (lambda lpv, f: f[0].evaluate_batch(RAGGED), ArityMismatch,
         "batch cannot be read as numbers"),
        (lambda lpv, f: lpv.schedule.entry(1, 1).evaluate_batch(RAGGED), ArityMismatch,
         "batch cannot be read as numbers"),
        (lambda lpv, f: assemble(lpv, [math.nan, 0.0]), ShapeMismatch,
         "scheduling vector contains non-finite values"),
        (lambda lpv, f: scheduling_from_state(lpv, [math.nan, 0, 0, 0], [0, 0]),
         ShapeMismatch, "state contains non-finite values"),
        (lambda lpv, f: scheduling_from_state(lpv, np.zeros(4), [math.inf, 0.0]),
         ShapeMismatch, "corrected input contains non-finite values"),
        (lambda lpv, f: f[0].evaluate_batch(np.zeros((2, 3))), ArityMismatch,
         "batch shape (2, 3) incompatible with arity 2"),
    ],
    ids=["assemble-text", "reconstruction-ragged", "reconstruction-empty",
         "batch-ragged", "quotient-batch-ragged", "assemble-nan",
         "scheduling-x-nan", "scheduling-u-inf", "batch-wide"],
)
def test_library_inputs_are_typed(msd_model, call, error, message):
    # each input is read through a try, where numpy would raise an untyped
    # ValueError, and a NaN or inf is refused where it would give NaN; at
    # ordering 2,1 entry (1, 1) is a guarded quotient
    with pytest.raises(error, match=re.escape(message)):
        call(embed(msd_model, (2, 1)), msd_model.f)


@pytest.mark.parametrize("ordering", [(1, 2), (2, 1)], ids=["1,2", "2,1"])
def test_scheduling_from_state_is_the_simulated_p(msd_model, ordering):
    # the scheduling vector the simulator recorded at each sample, from that
    # sample's state and corrected input, bit for bit
    lpv = embed(msd_model, ordering)
    u = multisine(2, 0.0, 2.0, 1.0, 1e-3, 2000, seed=0)
    t = simulate_lpv_self(lpv, u, dt=1e-3)
    for k in range(t.n_steps + 1):
        p = scheduling_from_state(lpv, t.x[k], t.u[k] - lpv.d)
        assert np.array_equal(p, t.w_or_p[k]), k


# --- pruning ------------------------------------------------------------------------


def test_pruned_channels_structurally_inert():
    raw = {
        "dims": {"n_x": 2, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 2},
        "A": [[-1.0, 0.0], [0.0, -2.0]],
        "Bw": [[1.0], [0.0]],
        "Bu": [[1.0], [1.0]],
        "Cz": [[1.0, 0.0], [0.0, 1.0]],
        "Cy": [[1.0, 0.0]],
        "Dzu": [[0.0], [0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["z1*z2"],
    }
    lpv = embed(validate_nlfr(raw))
    assert lpv.channels == ((1, 2),)
    assert lpv.schedule.entry(1, 1) is None  # structurally zero, not merely small


@pytest.mark.parametrize("ordering", [(1, 2), (2, 1)], ids=["1,2", "2,1"])
def test_rounded_removable_numerator_embeds(tmp_path, ordering):
    # 0.3 + 0.1 + 0.2 - 0.6 is not 0 in floating point: with ordering 1,2
    # the numerator of entry (1, 2) restricts to about -5.55e-17*sin(z1) at
    # z2 = 0 instead of the exact zero, and the removability check must
    # still accept it
    raw = random_nlfr_raw(
        np.random.default_rng(11), n_x=2, n_u=1, n_y=1, n_w=1, n_z=2,
        f_rows=["0.3*sin(z1 + z2) + 0.1*sin(z1 - z2) + 0.2*sin(z1)"],
    )
    m = validate_nlfr(raw)
    lpv = embed(m, ordering)
    if ordering == (1, 2):
        at_zero = lpv.schedule.entry(1, 2).numerator.restrict([1])
        assert at_zero.terms
        assert 0.0 < abs(at_zero.terms[0].coeff) < 1e-15
    save_model(lpv, tmp_path / "lpv.json")
    back = load_lpv(tmp_path / "lpv.json")
    assert back.schedule.ordering == ordering
    u = multisine(1, 0.0, 2.0, 1.0, 1e-3, 2000, seed=0)
    report = compare(
        simulate_nlfr(m, u, dt=1e-3), simulate_lpv_self(back, u, dt=1e-3)
    )
    assert report.passed, report  # within COMPARE_TOL


@pytest.mark.parametrize(
    "f, n_z",
    [("exp(800*z1) - 1", 1), ("exp(800*z2)*sin(z1)", 2), ("exp(800*z1) - 1 + z2", 2)],
)
def test_overflowing_removability_probe_embeds(tmp_path, f, n_z):
    # these quotient numerators overflow on part of their planes z_i = 0
    # (exp(800*z) for z > 0.89); the removability check restricts to the
    # plane and evaluates nothing, so each ordering embeds, saves and loads
    # with no warning and no exception
    raw = random_nlfr_raw(
        np.random.default_rng(5), n_x=2, n_u=1, n_y=1, n_w=1, n_z=n_z, f_rows=[f]
    )
    m = validate_nlfr(raw)
    for ordering in itertools.permutations(range(1, n_z + 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lpv = embed(m, ordering)
            save_model(lpv, tmp_path / "lpv.json")
            back = load_lpv(tmp_path / "lpv.json")
        assert back.schedule.ordering == ordering
        assert back.channels == lpv.channels
