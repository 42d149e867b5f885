"""Model validation, dimension checking, and file-format round trips."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_expression_vector, random_nlfr_raw
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
    HurwitzWarning,
    InvalidOrdering,
    LpvEmbedError,
    ModelFormatError,
    NonFiniteEntry,
    NonzeroDzw,
)
from lpvembed.examples import EXAMPLES, builtin_example
from lpvembed.expr import DEFAULT_GUARD_TAU, Expression, GuardedQuotient, Term
from lpvembed.factorize import extract_offset
from lpvembed.model import Dims, _dump


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


def test_loaded_offset_solution_equals_embeds(tmp_path):
    # embed and the loader solve the offset in one place, so d, y0 and the
    # residual of a loaded file are embed's, bit for bit, under every ordering
    raw = random_nlfr_raw(
        np.random.default_rng(19), n_x=3, n_u=3, n_y=2, n_w=2, n_z=3,
        f_rows=["0.2*z1*z2 + 0.1*sin(z3) - 0.3", "z2*z3^2 + 0.1*z1 + 0.7"],
    )
    m = validate_nlfr(raw)
    path = tmp_path / "lpv.json"
    for ordering in itertools.permutations((1, 2, 3)):
        lpv = embed(m, ordering)
        assert np.any(lpv.d != 0.0) and lpv.offset.residual > 0.0
        save_model(lpv, path)
        loaded = load_lpv(path).offset
        assert np.array_equal(loaded.d, lpv.offset.d)
        assert np.array_equal(loaded.y0, lpv.offset.y0)
        assert loaded.residual == lpv.offset.residual


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


# --- the model-file writer ----------------------------------------------------------


def assert_written_as_json(doc):
    assert _dump(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_writer_matches_json_on_examples(name):
    model = validate_nlfr(builtin_example(name))
    assert_written_as_json(builtin_example(name))
    assert_written_as_json(serialize_nlfr(model))
    n_z = model.dims.n_z
    for ordering in itertools.permutations(range(1, n_z + 1)):
        assert_written_as_json(serialize_lpv(embed(model, ordering)))


def test_writer_matches_json_on_embed_outputs():
    # seeded random models, each embedded without and with a constant
    # offset, under every ordering
    rng = np.random.default_rng(8)
    offsets = set()
    for n_z, count in ((1, 4), (2, 4), (3, 3), (4, 1)):
        for _ in range(count):
            n_w = int(rng.integers(1, 4))
            rows, _ = extract_offset(random_expression_vector(rng, n_w, n_z))
            for shift in ("", " + 0.25"):
                raw = random_nlfr_raw(
                    rng, n_u=n_z, n_w=n_w, n_z=n_z,
                    f_rows=[str(r) + shift for r in rows],
                )
                model = validate_nlfr(raw)
                assert_written_as_json(serialize_nlfr(model))
                for ordering in itertools.permutations(range(1, n_z + 1)):
                    lpv = embed(model, ordering)
                    offsets.add(bool(np.any(lpv.schedule.c)))
                    assert_written_as_json(serialize_lpv(lpv))
    assert offsets == {False, True}


def test_writer_matches_json_on_edge_values():
    # r is one list object at two positions of a parent and at two depths;
    # the writer encodes a repeated item once per parent, at that indent
    r = [0.5, -0.0]
    s = [1, None, r]
    assert_written_as_json({"a": [r, r], "b": [[r]], "c": [s, [s, s], {"k": s}]})
    assert_written_as_json({
        "floats": [-0.0, 5e-324, 1e16, 1e22, sys.float_info.max, 0.1, -2.5],
        "scalars": [0, -7, 10**30, True, False, None, 1.5],
        "empty": [[], {}, [[]], [{}]],
        "bare": {"l": [], "d": {}},
        "tuple": (1.5, (2.5, "x"), ()),
        "text": ['say "hi"\\n', "é", "∑ z1", ""],
        "clé ∑": 1.0,
        "nonfinite": [1.0, math.nan, math.inf, -math.inf],
        "subclass": [np.float64(0.1), 2.0],
    })
    assert_written_as_json({})
    assert _dump({"p": [math.nan, -math.inf]}) == (
        '{\n  "p": [\n    NaN,\n    -Infinity\n  ]\n}\n'
    )
    assert _dump({"t": (1.0, 2.0)}) == '{\n  "t": [\n    1.0,\n    2.0\n  ]\n}\n'


# A model whose zero rows of Bw and zero entries of Cz and Dzu have both
# signs, so its basis rows repeat with and without a sign.
SIGNED_ZERO_RAW = {
    "dims": {"n_x": 3, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 2},
    "A": [[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
    "Bw": [[0.0], [-0.0], [1.5]],
    "Bu": [[1.0], [0.0], [0.0]],
    "Cz": [[0.0, 2.0, -1.0], [-0.0, 0.5, 1.0]],
    "Cy": [[1.0, 0.0, 0.0]],
    "Dzu": [[0.0], [-0.0]],
    "Dyw": [[-0.0]],
    "Dyu": [[0.0]],
    "f": ["z1^2 + z2^2"],
}

# sha256 of its LPV file under each ordering, recorded before equal basis
# rows were written once
SIGNED_ZERO_LPV_SHA256 = {
    (1, 2): "4322d4072d6260f55319324c22645ccd01380282c19eac364ce48593ee92adca",
    (2, 1): "69cec9810f190f294b0217549be66766252f7ed6edd6de1b5503ccca72fc53eb",
}


@pytest.mark.parametrize("ordering", [(1, 2), (2, 1)], ids=["1,2", "2,1"])
def test_signed_zero_basis_rows_keep_their_signs(tmp_path, ordering):
    lpv = embed(validate_nlfr(SIGNED_ZERO_RAW), ordering)
    content = serialize_lpv(lpv)
    assert json.dumps(content["basis"][0]["Ak"]) == (
        "[[0.0, 0.0, -0.0], [-0.0, -0.0, 0.0], [0.0, 3.0, -1.5]]"
    )
    assert_written_as_json(content)
    path = tmp_path / "lpv.json"
    save_model(lpv, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SIGNED_ZERO_LPV_SHA256[ordering]
    back = load_lpv(path)
    assert back.channels == lpv.channels == ((1, 1), (1, 2))
    for b, again in zip(lpv.basis, back.basis):
        for q in ("Ak", "Bk", "Ck", "Dk"):
            assert getattr(again, q).tobytes() == getattr(b, q).tobytes()


def test_equal_basis_rows_are_one_list():
    # rows equal in their bytes share a list; 0.0 and -0.0 rows do not
    channel = serialize_lpv(embed(validate_nlfr(SIGNED_ZERO_RAW)))["basis"][0]
    assert json.dumps(channel["Bk"]) == "[[0.0], [-0.0], [0.0]]"
    assert channel["Bk"][0] is channel["Bk"][2]
    assert channel["Bk"][0] is not channel["Bk"][1]
    assert len({*map(id, channel["Ak"])}) == 3


# scalars json.dumps writes in every form it has: signed zeros, the least
# subnormal, NaN and the infinities, ints, bools, None and text
_SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)


def _picks(items):
    """Lists of items drawn from items itself, so an object may recur."""
    return st.lists(st.sampled_from(items), max_size=5) if items else st.just([])


@st.composite
def _documents(draw):
    # a pool of lists that the document may hold at several places and
    # depths, some all finite floats (the writer's joined branch)
    pool = draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4)
        | st.lists(_SCALARS, max_size=4),
        min_size=1, max_size=3,
    ))
    values = st.recursive(
        _SCALARS | st.sampled_from(pool),
        lambda kids: st.lists(kids, max_size=4).flatmap(_picks)
        | st.dictionaries(st.text(max_size=5), kids, max_size=4),
        max_leaves=24,
    )
    return draw(st.dictionaries(st.text(max_size=5), values, max_size=4))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_documents())
def test_writer_matches_json_on_random_documents(doc):
    assert_written_as_json(doc)


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


def _tampered_schedule(model, tamper):
    # ordering 2,1 gives msd2dof a quotient entry at (1, 1)
    raw = json.loads(json.dumps(serialize_lpv(embed(model, ordering=(2, 1)))))
    schedule = raw["schedule"]
    assert schedule["entries"][0][0]["type"] == "quotient"
    tamper(schedule, schedule["entries"][0][0])
    validate_lpv(raw)


@pytest.mark.parametrize(
    "act, error",
    [
        (lambda m: _tampered_schedule(
            m, lambda s, q: s.update(ordering=[2.9, 1.2])), InvalidOrdering),
        (lambda m: _tampered_schedule(
            m, lambda s, q: q.update(divisor=1.7)), ModelFormatError),
        (lambda m: _tampered_schedule(
            m, lambda s, q: q.update(divisor=True)), ModelFormatError),
        (lambda m: _tampered_schedule(
            m, lambda s, q: q.update(tau=True)), ModelFormatError),
        (lambda m: embed(m, (1.7, 2)), InvalidOrdering),
    ],
    ids=["ordering-float", "divisor-float", "divisor-bool", "tau-bool",
         "embed-ordering-float"],
)
def test_non_integral_schedule_index_rejected(msd_model, act, error):
    with pytest.raises(error):
        act(msd_model)


def test_numpy_integer_ordering_accepted(msd_model):
    lpv = embed(msd_model, np.array([2, 1]))
    assert lpv.schedule.ordering == (2, 1)


def _key_paths(node, prefix=()):
    """Every key path of a JSON document, the root () first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _key_paths(child, (*prefix, key))


_DELETE = object()
_MUTATIONS = (_DELETE, "x", 7, 1.5, True, float("nan"), [], {}, None)


def _mutated(doc, path, value):
    if not path:
        return {} if value is _DELETE else copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def test_mutated_documents_load_or_fail_typed(msd_raw, msd_model):
    # Every key path of four documents, under nine mutations: a load either
    # succeeds or raises a typed error, never a bare Python exception.
    toy = validate_nlfr({
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[-1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["z1 + 1"],
    })
    docs = [(validate_nlfr, msd_raw)] + [
        (validate_lpv, json.loads(json.dumps(serialize_lpv(lpv))))
        for lpv in (embed(msd_model, (1, 2)), embed(msd_model, (2, 1)), embed(toy))
    ]
    assert np.any(docs[-1][1]["schedule"]["c"])
    loads, untyped = 0, []
    for load, doc in docs:
        for path in _key_paths(doc):
            for value in _MUTATIONS:
                loads += 1
                try:
                    load(_mutated(doc, path, value))
                except LpvEmbedError:
                    pass
                except Exception as exc:
                    untyped.append((path, value, exc))
    assert loads == 5436
    assert untyped == []


def test_mutated_offset_documents_load_or_fail_typed():
    # The same sweep over a model whose files carry what the msd2dof and
    # toy documents lack together: guarded quotients with an offset c != 0,
    # and nonzero Dzu and Dyw blocks.
    raw = random_nlfr_raw(
        np.random.default_rng(7), n_x=2, n_u=2, n_y=1, n_w=1, n_z=2,
        f_rows=["sin(z1 + z2) + 0.5"],
    )
    lpv = embed(validate_nlfr(raw))
    lpv_raw = json.loads(json.dumps(serialize_lpv(lpv)))
    assert lpv_raw["schedule"]["c"] == [0.5]
    assert [e["type"] for e in lpv_raw["schedule"]["entries"][0]] == [
        "quotient", "quotient"
    ]
    assert np.all(lpv.Dzu != 0.0) and np.all(lpv.Dyw != 0.0)
    loads, untyped = 0, []
    for load, doc in ((validate_nlfr, raw), (validate_lpv, lpv_raw)):
        for path in _key_paths(doc):
            for value in _MUTATIONS:
                loads += 1
                try:
                    load(_mutated(doc, path, value))
                except LpvEmbedError:
                    pass
                except Exception as exc:
                    untyped.append((path, value, exc))
    assert loads == 1629
    assert untyped == []


@pytest.mark.parametrize(
    "path",
    [("A", 0, 0), ("schedule", "c", 0), ("schedule", "entries", 0, 0, "tau")],
    ids=["A", "c", "tau"],
)
def test_integer_beyond_float_range_is_typed(msd_model, path):
    # ordering 2,1 gives msd2dof a quotient entry at (1, 1)
    raw = json.loads(json.dumps(serialize_lpv(embed(msd_model, (2, 1)))))
    # a JSON integer literal beyond the float range
    with pytest.raises(ModelFormatError):
        validate_lpv(_mutated(raw, path, 10**400))


@pytest.mark.parametrize("kind", ["nlfr", "lpv"])
def test_integer_beyond_str_limit_is_typed(msd_model, tmp_path, kind):
    # json reads an integer of more than 4 300 digits as a ValueError
    model = msd_model if kind == "nlfr" else embed(msd_model)
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    key = '"n_x": 4,'
    assert key in text
    path.write_text(text.replace(key, '"n_x": ' + "9" * 5000 + ","))
    load = load_nlfr if kind == "nlfr" else load_lpv
    with pytest.raises(ModelFormatError, match="cannot be read as JSON"):
        load(path)


def test_bool_n_p_rejected():
    raw = random_nlfr_raw(
        np.random.default_rng(3), n_x=1, n_u=1, n_y=1, n_w=1, n_z=1,
        f_rows=["z1"],
    )
    lpv_raw = json.loads(json.dumps(serialize_lpv(embed(validate_nlfr(raw)))))
    assert lpv_raw["dims"]["n_p"] == 1
    validate_lpv(lpv_raw)
    lpv_raw["dims"]["n_p"] = True  # equals 1, the channel count
    with pytest.raises(DimensionMismatch, match="n_p"):
        validate_lpv(lpv_raw)


@pytest.mark.parametrize("tau", [7, 1.5, 1e-6, 0.0])
def test_foreign_tau_rejected(msd_model, tau):
    # ordering 2,1 gives msd2dof a quotient entry at (1, 1); tau 7 puts every
    # point inside its guard band, so f would no longer be reconstructed
    raw = json.loads(json.dumps(serialize_lpv(embed(msd_model, (2, 1)))))
    cell = raw["schedule"]["entries"][0][0]
    assert cell["tau"] == DEFAULT_GUARD_TAU
    validate_lpv(raw)
    cell["tau"] = tau
    with pytest.raises(ModelFormatError, match="tau"):
        validate_lpv(raw)


@pytest.mark.parametrize(
    "path",
    [("A", 0, 0), ("Dzu", 1, 0), ("d", 0), ("y0", 0), ("schedule", "c", 0),
     ("basis", 0, "Ak", 0, 0)],
    ids=["A", "Dzu", "d", "y0", "c", "basis"],
)
@pytest.mark.parametrize("value", [True, False, "1.5"], ids=["true", "false", "text"])
def test_non_number_entry_rejected(path, value):
    # numpy would read true as 1.0 and "1.5" as 1.5
    raw = random_nlfr_raw(
        np.random.default_rng(7), n_x=2, n_u=2, n_y=1, n_w=1, n_z=2,
        f_rows=["sin(z1 + z2) + 0.5"],
    )
    lpv_raw = json.loads(json.dumps(serialize_lpv(embed(validate_nlfr(raw)))))
    validate_lpv(lpv_raw)
    load = validate_nlfr if path[0] in raw else validate_lpv
    doc = raw if path[0] in raw else lpv_raw
    with pytest.raises(ModelFormatError):
        load(_mutated(doc, path, value))


# --- the LPV file as a checked copy of embed's output --------------------------


def _offset_toy_file():
    # f(0) = 1 is propagated to d = [0.5] and y0 = [0.5]
    toy = validate_nlfr({
        "dims": {"n_x": 1, "n_u": 1, "n_y": 1, "n_w": 1, "n_z": 1},
        "A": [[-1.0]], "Bw": [[-1.0]], "Bu": [[1.0]],
        "Cz": [[1.0]], "Cy": [[1.0]],
        "Dzu": [[0.0]], "Dyw": [[0.0]], "Dyu": [[0.0]],
        "f": ["z1 + 1"],
    })
    return json.loads(json.dumps(serialize_lpv(embed(toy))))


@pytest.mark.parametrize("key", ["d", "y0"])
def test_tampered_offset_correction_rejected(key):
    raw = _offset_toy_file()
    validate_lpv(raw)
    assert raw[key] != [7]
    raw[key] = [7]
    with pytest.raises(ModelFormatError, match=rf"has {key} \[7\]"):
        validate_lpv(raw)


def test_divisible_quotient_cell_rejected(msd_model):
    # ordering 1,2 gives msd2dof the exact entry 10*z1^2 at (1, 1); written as
    # a quotient, with its true derivative, its numerator divides exactly, so
    # embed would never write it
    raw = json.loads(json.dumps(serialize_lpv(embed(msd_model, (1, 2)))))
    cells = raw["schedule"]["entries"][0]
    assert cells[0] == {"type": "exact", "expr": "10*z1^2"}
    cells[0] = {"type": "quotient", "numerator": "10*z1^3",
                "derivative": "30*z1^2", "divisor": 1, "tau": 1e-07}
    with pytest.raises(ModelFormatError, match="type 'quotient'"):
        validate_lpv(raw)


def test_primary_text_may_use_any_spelling(msd_model):
    lpv = embed(msd_model, (2, 1))
    raw = json.loads(json.dumps(serialize_lpv(lpv)))
    quotient, exact = raw["schedule"]["entries"][0]
    quotient["numerator"] = "z1*z1*z1*10 + z2*sin(10*z1)*0.1"
    exact["expr"] = "z2*0.2"
    assert validate_lpv(raw).schedule.entries == lpv.schedule.entries


def test_singular_a_without_offset_loads(msd_model):
    # c = 0 needs no offset solution, so A is never inverted
    raw = json.loads(json.dumps(serialize_lpv(embed(msd_model))))
    raw["A"] = [[0.0] * 4 for _ in range(4)]
    assert validate_lpv(raw).A.shape == (4, 4)


def test_non_hurwitz_offset_file_loads_without_warning():
    raw = random_nlfr_raw(
        np.random.default_rng(3), n_x=1, n_u=1, n_y=1, n_w=1, n_z=1,
        f_rows=["exp(z1)"],
    )
    raw["A"] = [[1.0]]
    with pytest.warns(HurwitzWarning):
        lpv = embed(validate_nlfr(raw))
    lpv_raw = json.loads(json.dumps(serialize_lpv(lpv)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(validate_lpv(lpv_raw).d, lpv.d)


def _twinned_rows(rng, n_w, n_z):
    """Random rows in which each term with function factors has a twin: its
    bare monomial, scaled by 1e-3 to 1.  Restricting a row folds the
    factors of a term whose variables are dropped into its coefficient and
    adds it to the twin's, so a row rebuilt from its cells differs from the
    original in the last bit.  Half the rows also get a constant offset."""
    rows = []
    for row in random_expression_vector(rng, n_w, n_z):
        extra = [
            Term(t.coeff * 10.0 ** rng.uniform(-3.0, 0.0), t.exponents, ())
            for t in row.terms if t.factors
        ]
        if rng.random() < 0.5:
            extra.append(Term(rng.uniform(-0.5, 0.5), (0,) * n_z, ()))
        rows.append(Expression.from_terms(row.terms + tuple(extra), n_z))
    return rows


def test_every_embed_output_loads():
    # Random models with biased exp, cos, sinh, ... factors and offsets,
    # under every ordering: each file embed writes loads back to the same
    # model.  Re-factorizing rows rebuilt from the cells would refuse some.
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    files = offsets = rebuilt_differs = 0
    for n_z, count in ((1, 12), (2, 12), (3, 10), (4, 6), (5, 2)):
        for _ in range(count):
            n_w = int(rng.integers(1, 4))
            rows = _twinned_rows(rng, n_w, n_z)
            m = validate_nlfr(random_nlfr_raw(
                rng, n_u=n_z, n_w=n_w, n_z=n_z, f_rows=[str(r) for r in rows],
            ))
            f_tilde, _ = extract_offset(m.f)
            for ordering in itertools.permutations(range(1, n_z + 1)):
                lpv = embed(m, ordering)
                back = validate_lpv(json.loads(json.dumps(serialize_lpv(lpv))))
                assert back.schedule.entries == lpv.schedule.entries
                assert np.array_equal(back.schedule.c, lpv.schedule.c)
                assert np.array_equal(back.d, lpv.d)
                assert np.array_equal(back.y0, lpv.y0)
                files += 1
                offsets += bool(np.any(lpv.schedule.c))
                for row, cells in zip(f_tilde, lpv.schedule.entries):
                    rebuilt = Expression.from_terms((), n_z)
                    for i, e in enumerate(cells, start=1):
                        if isinstance(e, GuardedQuotient):
                            rebuilt = rebuilt + e.numerator
                        elif e is not None:
                            rebuilt = rebuilt + e * Expression.variable(i, n_z)
                    rebuilt_differs += rebuilt != row
    assert (files, offsets > files // 2, rebuilt_differs > 0) == (480, True, True)
    assert time.perf_counter() - start < 5.0


def test_mutated_synthetic_document_loads_or_fails_typed():
    # The sweep of test_mutated_documents_load_or_fail_typed over a model with
    # an offset, two rows, exact, guarded and zero cells, and nonzero Dzu and
    # Dyw blocks.
    start = time.perf_counter()
    raw = random_nlfr_raw(
        np.random.default_rng(11), n_x=2, n_u=2, n_y=1, n_w=2, n_z=2,
        f_rows=["sin(z1 + z2) + 0.5", "0.2*z2*exp(0.3*z2 - 0.1) - 0.3"],
    )
    lpv = embed(validate_nlfr(raw))
    doc = json.loads(json.dumps(serialize_lpv(lpv)))
    kinds = [e["type"] for row in doc["schedule"]["entries"] for e in row]
    assert kinds == ["quotient", "quotient", "zero", "exact"]
    assert np.all(lpv.schedule.c != 0.0) and np.all(lpv.d != 0.0)
    assert np.all(lpv.Dzu != 0.0) and np.all(lpv.Dyw != 0.0)
    loads, untyped = 0, []
    for path in _key_paths(doc):
        for value in _MUTATIONS:
            loads += 1
            try:
                validate_lpv(_mutated(doc, path, value))
            except LpvEmbedError:
                pass
            except Exception as exc:
                untyped.append((path, value, exc))
    assert untyped == []
    assert loads == 1467
    assert time.perf_counter() - start < 5.0
