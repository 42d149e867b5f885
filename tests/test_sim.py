"""Simulation tests: solver order, equivalence, excitation, spectra."""

import copy
import dataclasses
import math

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
    NyquistViolation,
    ShapeMismatch,
)
from lpvembed.sim import Trajectory


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
    u = np.zeros((2001, 1))
    for run in (lambda: simulate_nlfr(m, u, x0=[1.0], dt=1e-2),
                lambda: simulate_lpv_self(embed(m), u, x0=[1.0], dt=1e-2)):
        with pytest.raises(Divergence, match="overflowed") as exc_info:
            run()
        err = exc_info.value
        assert 0 < err.step < 2000
        assert err.trajectory.x.shape[0] == err.step
        assert np.all(np.isfinite(err.trajectory.x))


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
    return Trajectory(dt, 0.0, zeros, zeros, y, zeros, zeros, "w")


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
