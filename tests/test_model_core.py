"""Model validation, dimension checking, and file-format round trips."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from conftest import random_nlfr_raw
from lpvembed import (
    embed,
    load_lpv,
    load_nlfr,
    save_model,
    serialize_lpv,
    serialize_nlfr,
    validate_lpv,
    validate_nlfr,
)
from lpvembed.errors import (
    DimensionMismatch,
    ExpressionArityMismatch,
    ModelFormatError,
    NonFiniteEntry,
    NonzeroDzw,
)
from lpvembed.model import Dims


def test_msd_validates(msd_raw):
    m = validate_nlfr(msd_raw)
    assert m.dims == Dims(n_x=4, n_u=2, n_y=2, n_w=1, n_z=2, n_p=0)


def test_dims_examples(msd_model):
    lpv = embed(msd_model)
    assert lpv.dims.n_p == 2
    raw = {
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["z1"],
    }
    assert validate_nlfr(raw).dims == Dims(1, 1, 1, 1, 1, 0)


def test_bool_dimension_rejected(msd_raw):
    with pytest.raises(DimensionMismatch):
        Dims(True, 1, 1, 1, 1)
    raw = copy.deepcopy(msd_raw)
    raw["dims"]["n_w"] = True  # equals 1, the example's n_w
    with pytest.raises(DimensionMismatch, match="n_w"):
        validate_nlfr(raw)


def test_wrong_shape_names_offender(msd_raw):
    raw = copy.deepcopy(msd_raw)
    raw["Bw"] = [[0.0], [0.0], [-1.0]]  # 3x1 instead of 4x1
    with pytest.raises(DimensionMismatch, match="Bw"):
        validate_nlfr(raw)


def test_nonzero_dzw_rejected(msd_raw):
    raw = copy.deepcopy(msd_raw)
    raw["Dzw"] = [[0.1], [0.0]]
    with pytest.raises(NonzeroDzw):
        validate_nlfr(raw)
    raw["Dzw"] = [[0.0], [0.0]]
    validate_nlfr(raw)  # explicit all-zero Dzw is fine


def test_nonfinite_rejected(msd_raw):
    raw = copy.deepcopy(msd_raw)
    raw["A"][0][0] = float("nan")
    with pytest.raises(NonFiniteEntry, match="A"):
        validate_nlfr(raw)


def test_f_row_count_and_arity(msd_raw):
    raw = copy.deepcopy(msd_raw)
    raw["f"] = []
    with pytest.raises(ExpressionArityMismatch):
        validate_nlfr(raw)
    raw = copy.deepcopy(msd_raw)
    raw["f"] = ["z1 + z3"]  # n_z = 2
    with pytest.raises(Exception):
        validate_nlfr(raw)


def test_missing_blocks_rejected(msd_raw):
    for key in ("dims", "A", "f"):
        raw = copy.deepcopy(msd_raw)
        del raw[key]
        with pytest.raises(ModelFormatError):
            validate_nlfr(raw)


def test_random_dimension_tuples_consistent():
    rng = np.random.default_rng(31)
    for _ in range(25):
        raw = random_nlfr_raw(
            rng,
            n_x=int(rng.integers(1, 6)),
            n_u=int(rng.integers(1, 6)),
            n_y=int(rng.integers(1, 6)),
            n_w=int(rng.integers(1, 6)),
            n_z=int(rng.integers(1, 6)),
        )
        m = validate_nlfr(raw)
        d = m.dims
        assert m.A.shape == (d.n_x, d.n_x)
        assert m.Bw.shape == (d.n_x, d.n_w)
        assert m.Cz.shape == (d.n_z, d.n_x)
        # corrupting any one matrix shape trips the validator
        bad = copy.deepcopy(raw)
        name = ("A", "Bw", "Bu", "Cz", "Cy", "Dzu", "Dyw", "Dyu")[
            int(rng.integers(0, 8))
        ]
        bad[name] = np.asarray(bad[name]).tolist() + [
            list(np.zeros(np.asarray(bad[name]).shape[1]))
        ]
        with pytest.raises(DimensionMismatch):
            validate_nlfr(bad)


# --- round trips ------------------------------------------------------------------


def test_nlfr_round_trip_bit_exact(msd_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(msd_model, path)
    again = load_nlfr(path)
    for name in ("A", "Bw", "Bu", "Cz", "Cy", "Dzu", "Dyw", "Dyu"):
        assert np.array_equal(getattr(msd_model, name), getattr(again, name))
    assert again.f == msd_model.f
    # a second round trip writes identical bytes
    path2 = tmp_path / "m2.json"
    save_model(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def assert_lpv_equal(a, b):
    for name in ("A", "Bw", "Bu", "Cz", "Cy", "Dzu", "Dyw", "Dyu", "d", "y0"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.channels == b.channels
    for ba, bb in zip(a.basis, b.basis):
        for name in ("Ak", "Bk", "Ck", "Dk"):
            assert np.array_equal(getattr(ba, name), getattr(bb, name))
    assert a.schedule.ordering == b.schedule.ordering
    assert np.array_equal(a.schedule.c, b.schedule.c)
    assert a.schedule.entries == b.schedule.entries


@pytest.mark.parametrize("ordering", [(1, 2), (2, 1)])
def test_lpv_round_trip(msd_model, tmp_path, ordering):
    lpv = embed(msd_model, ordering)
    path = tmp_path / "lpv.json"
    save_model(lpv, path)
    assert_lpv_equal(lpv, load_lpv(path))


def test_lpv_round_trip_with_offsets(tmp_path):
    raw = {
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[-1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["z1 + 1"],
    }
    lpv = embed(validate_nlfr(raw))
    assert np.any(lpv.d != 0.0)
    path = tmp_path / "lpv.json"
    save_model(lpv, path)
    again = load_lpv(path)
    assert np.array_equal(lpv.d, again.d)
    assert np.array_equal(lpv.y0, again.y0)
    assert np.array_equal(lpv.schedule.c, again.schedule.c)


def test_lpv_empty_basis_round_trip(tmp_path):
    raw = {
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["0"],
    }
    lpv = embed(validate_nlfr(raw))
    assert lpv.n_p == 0
    path = tmp_path / "lin.json"
    save_model(lpv, path)
    again = load_lpv(path)
    assert again.n_p == 0
    assert again.dims.n_p == 0


def test_basis_reconstruction_enforced(msd_model):
    lpv = embed(msd_model)
    raw = serialize_lpv(lpv)
    raw = json.loads(json.dumps(raw))
    raw["basis"][0]["Ak"][2][0] = -0.5  # tamper with a stored quadruple
    with pytest.raises(ModelFormatError, match="reconstruct"):
        validate_lpv(raw)


def test_basis_is_derived_once_and_read_only(msd_model):
    lpv = embed(msd_model)
    assert "basis" not in {f.name for f in dataclasses.fields(lpv)}
    assert lpv.basis is lpv.basis
    with pytest.raises(dataclasses.FrozenInstanceError):
        lpv.basis = ()
    with pytest.raises(ValueError):
        lpv.basis[0].Ak[0, 0] = 1.0


def test_stored_channel_order_enforced(msd_model):
    raw = json.loads(json.dumps(serialize_lpv(embed(msd_model))))
    raw["basis"].reverse()
    with pytest.raises(ModelFormatError, match="row-major"):
        validate_lpv(raw)


@pytest.mark.parametrize(
    "tamper",
    [lambda b: b.pop("Ak"), lambda b: b.update(r="x"), lambda b: b.update(r=1.7),
     lambda b: b.update(r=True)],
    ids=["missing-Ak", "r-text", "r-float", "r-bool"],
)
def test_malformed_basis_entry_is_typed(msd_model, tamper):
    raw = json.loads(json.dumps(serialize_lpv(embed(msd_model))))
    tamper(raw["basis"][0])
    with pytest.raises(ModelFormatError, match="basis channel 0"):
        validate_lpv(raw)


def test_tampered_schedule_derivative_rejected(msd_model):
    lpv = embed(msd_model, ordering=(2, 1))
    raw = json.loads(json.dumps(serialize_lpv(lpv)))
    cell = raw["schedule"]["entries"][0][0]
    assert cell["type"] == "quotient"
    cell["derivative"] = "z2*cos(10*z1)"  # missing the 30*z1^2 part
    with pytest.raises(ModelFormatError, match="derivative"):
        validate_lpv(raw)


def test_random_toys_basis_recomputes(msd_model):
    rng = np.random.default_rng(37)
    for _ in range(10):
        raw = random_nlfr_raw(rng)
        lpv = embed(validate_nlfr(raw))
        for b in lpv.basis:
            assert np.array_equal(
                b.Ak, np.outer(lpv.Bw[:, b.r - 1], lpv.Cz[b.i - 1, :])
            )
            assert np.array_equal(
                b.Dk, np.outer(lpv.Dyw[:, b.r - 1], lpv.Dzu[b.i - 1, :])
            )
        # serialized form revalidates
        validate_lpv(json.loads(json.dumps(serialize_lpv(lpv))))


def test_serialize_nlfr_matches_raw(msd_raw, msd_model):
    out = serialize_nlfr(msd_model)
    assert out["dims"] == msd_raw["dims"]
    assert out["A"] == msd_raw["A"]
