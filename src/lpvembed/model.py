"""Model containers, dimension validation, and the JSON model-file format.

A nonlinear-LFR model is an LTI core in feedback with a static nonlinearity:

    xdot = A x + Bw w + Bu u
    z    = Cz x + Dzu u          (no w -> z feedthrough: Dzw = 0)
    y    = Cy x + Dyw w + Dyu u
    w    = f(z)

An LPV model keeps the nominal matrices, the scheduling map and the
constant input/output corrections (d, y0).  Its basis quadruple per
retained scheduling channel (r, i) is derived, not stored:

    Ak = Bw E_ri Cz,  Bk = Bw E_ri Dzu,  Ck = Dyw E_ri Cz,  Dk = Dyw E_ri Dzu

where E_ri has a single 1 at row r, column i.  An LPV file is a checked
copy of embed's output: the loader rebuilds every field other than the
core, the schedule's ordering and c and its cells' expression text, and
refuses the file unless each stored copy is what serialize_lpv writes.

Both live on disk as a single self-describing JSON document with named
matrices stored as row-major arrays of arrays, in the layout json.dumps
writes with an indent of 2.  One direct writer, _dump, produces exactly
those bytes, and _write puts them (and every other file lpvembed writes)
on disk, replacing an existing regular file.  Matrices round-trip bit-exactly (floats are
written with shortest-repr precision); numeric tolerances belong to
analysis operations, never to the format layer.
Indices in the file (variable numbers, channel rows/columns, orderings)
are 1-based to match the expression variables z1, z2, ...

This module owns the file format whole: the schedule's file form
(schedule_to_raw, schedule_from_raw) and every field and copy check live
here, and the algebra they call (the entry rule, the ordering check) is
imported from :mod:`lpvembed.factorize`.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import reprlib
import stat
import struct
from dataclasses import dataclass
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    ExpressionArityMismatch,
    ModelFormatError,
    NonFiniteEntry,
    NonzeroDzw,
)
from .expr import Expression, GuardedQuotient, parse
from .factorize import SchedulingMap, _entry, _validate_ordering
from .offset import OffsetSolution, solve_offsets_for

__all__ = [
    "Dims",
    "NlfrModel",
    "BasisChannel",
    "LpvModel",
    "validate_nlfr",
    "serialize_nlfr",
    "validate_lpv",
    "serialize_lpv",
    "load_model",
    "load_nlfr",
    "load_lpv",
    "save_model",
    "schedule_to_raw",
    "schedule_from_raw",
]

_DIM_KEYS = ("n_x", "n_u", "n_y", "n_w", "n_z")

_MATRIX_SHAPES = {
    "A": ("n_x", "n_x"),
    "Bw": ("n_x", "n_w"),
    "Bu": ("n_x", "n_u"),
    "Cz": ("n_z", "n_x"),
    "Cy": ("n_y", "n_x"),
    "Dzu": ("n_z", "n_u"),
    "Dyw": ("n_y", "n_w"),
    "Dyu": ("n_y", "n_u"),
    "Dzw": ("n_z", "n_w"),
}

#: The eight stored core matrices; Dzw is structurally zero and not kept.
_CORE = tuple(name for name in _MATRIX_SHAPES if name != "Dzw")


# --- fields and checked copies ---------------------------------------------


def _field(doc, key: str, kind=object, where: str = "model file"):
    """``doc[key]``; ModelFormatError unless doc is a JSON object holding key
    with a value of ``kind``.  A bool is never an int or a number."""
    if not isinstance(doc, Mapping):
        raise ModelFormatError(f"{where} is not a JSON object")
    if key not in doc:
        raise ModelFormatError(f"{where} is missing {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not object):
        raise ModelFormatError(
            f"{where}: {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_array(name: str, raw, shape: tuple[int, ...]) -> np.ndarray:
    kind = "vector" if len(shape) == 1 else "matrix"
    # OverflowError: an integer beyond the float range
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{kind} {name} is not numeric: {exc}") from exc
    if m.shape != shape:
        raise DimensionMismatch(f"{kind} {name} has shape {m.shape}, expected {shape}")
    # numpy reads true as 1.0 and "1" as 1.0; as in _field, an entry is a
    # number and never a bool
    flat = raw
    for _ in shape[1:]:
        flat = itertools.chain.from_iterable(flat)
    for t in set(map(type, flat)) - {float, int}:
        if t is bool or not issubclass(t, numbers.Real):
            raise ModelFormatError(f"{kind} {name} has an entry of type {t.__name__}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteEntry(f"{kind} {name} contains non-finite entries")
    return _freeze(m)


@cache
def _packer(n: int):
    """Packs n floats into their bytes, in C; one per length of list read."""
    return struct.Struct(f"{n}d").pack


def _is_copy(stored, written) -> bool:
    """Whether stored is the JSON value written (no objects inside), type for
    type: true is not 1 and 1 is not 1.0.  Floats compare by their bits, so
    -0.0 is not 0.0.  A float vector or matrix, written as a list or as its
    rows, is given as the array itself, whose bytes are read instead of
    packed."""
    if type(written) is np.ndarray:
        # n_rows items, or rows of n_cols items each, all floats, packed at once
        if type(stored) is not list or len(stored) != len(written):
            return False
        flat = stored
        if written.ndim == 2:
            if not ({*map(type, stored)} <= {list}
                    and {*map(len, stored)} <= {written.shape[1]}):
                return False
            flat = [*itertools.chain.from_iterable(stored)]
        return {*map(type, flat)} <= {float} and (
            _packer(len(flat))(*flat) == written.tobytes()
        )
    if type(stored) is not type(written):
        return False
    if type(written) is float:
        return _packer(1)(stored) == _packer(1)(written)
    if type(written) is list:
        return len(stored) == len(written) and all(map(_is_copy, stored, written))
    return stored == written


def _listed(value):
    """value, with an array as the lists it is written as."""
    return value.tolist() if type(value) is np.ndarray else value


def _check_copy(stored, written: dict, where: str) -> None:
    """ModelFormatError unless the JSON object stored holds exactly the keys
    of written, each with a copy of its value (:func:`_is_copy`)."""
    if not isinstance(stored, Mapping):
        raise ModelFormatError(f"{where} is not a JSON object")
    for key in {**written, **stored}:
        if key not in stored or key not in written or not _is_copy(
            stored[key], written[key]
        ):
            has, gives = (
                f"{key} {reprlib.repr(_listed(doc[key]))}" if key in doc else f"no {key}"
                for doc in (stored, written)
            )
            raise ModelFormatError(
                f"{where} has {has}, but reconstructing it from the file's "
                f"primary data gives {gives}"
            )


# --- model containers ----------------------------------------------------------


@dataclass(frozen=True)
class Dims:
    """Signal dimensions; n_p is the retained scheduling channel count."""

    n_x: int
    n_u: int
    n_y: int
    n_w: int
    n_z: int
    n_p: int = 0

    def __post_init__(self):
        for name in (*_DIM_KEYS, "n_p"):
            v = getattr(self, name)
            low = 0 if name == "n_p" else 1
            if isinstance(v, bool) or not isinstance(v, int) or v < low:
                raise DimensionMismatch(
                    f"dimension {name} must be an integer >= {low}, got {v!r}"
                )


def _read_core(raw: Mapping) -> tuple[Dims, dict]:
    """Dimensions and the eight core matrices, with the Dzw = 0 rule."""
    d = _field(raw, "dims")
    dims = Dims(**{key: _field(d, key, where="dims block") for key in _DIM_KEYS})
    mats = {}
    for name, (rows, cols) in _MATRIX_SHAPES.items():
        if name != "Dzw" or name in raw:
            shape = (getattr(dims, rows), getattr(dims, cols))
            mats[name] = _as_array(name, _field(raw, name), shape)
    if np.any(mats.pop("Dzw", 0.0) != 0.0):
        raise NonzeroDzw(
            "Dzw has nonzero entries; the nonlinearity must be explicit "
            "(no w -> z feedthrough)"
        )
    return dims, mats


def _core_raw(model, dim_keys) -> dict:
    """The file's dims block and core matrices, in file key order."""
    d = model.dims
    return {
        "dims": {k: getattr(d, k) for k in dim_keys},
        **{name: m.tolist() for name, m in core_matrices(model).items()},
    }


@dataclass(frozen=True, eq=False)
class _Core:
    """The LTI core shared by both model kinds (Dzw = 0 implied)."""

    A: np.ndarray
    Bw: np.ndarray
    Bu: np.ndarray
    Cz: np.ndarray
    Cy: np.ndarray
    Dzu: np.ndarray
    Dyw: np.ndarray
    Dyu: np.ndarray

    #: Retained scheduling channels; a nonlinear model has none.
    n_p = 0

    @property
    def dims(self) -> Dims:
        return Dims(
            n_x=self.A.shape[0],
            n_u=self.Bu.shape[1],
            n_y=self.Cy.shape[0],
            n_w=self.Bw.shape[1],
            n_z=self.Cz.shape[0],
            n_p=self.n_p,
        )


def core_matrices(model) -> dict:
    """The eight core matrices of a model, by name."""
    return {name: getattr(model, name) for name in _CORE}


@dataclass(frozen=True, eq=False)
class NlfrModel(_Core):
    """Validated nonlinear-LFR model; immutable after construction."""

    f: tuple[Expression, ...]


_QUADRUPLE = ("Ak", "Bk", "Ck", "Dk")


@dataclass(frozen=True, eq=False)
class BasisChannel:
    """Basis quadruple of one scheduling channel (r, i), 1-based indices."""

    r: int
    i: int
    Ak: np.ndarray
    Bk: np.ndarray
    Ck: np.ndarray
    Dk: np.ndarray


def _basis_quadruple(core: _Core, r: int, i: int) -> BasisChannel:
    bw = core.Bw[:, r - 1]
    cz = core.Cz[i - 1, :]
    dzu = core.Dzu[i - 1, :]
    dyw = core.Dyw[:, r - 1]
    quads = (
        np.outer(bw, cz),
        np.outer(bw, dzu),
        np.outer(dyw, cz),
        np.outer(dyw, dzu),
    )
    return BasisChannel(r, i, *(_freeze(q) for q in quads))


def _shared_rows(m: np.ndarray) -> list:
    """m.tolist(), with one list per distinct row of m.

    Rows are told apart by their bytes, so a row of 0.0 and a row of -0.0
    stay two lists.  A basis matrix is a rank-one product whose zero
    factors repeat whole rows; the writer turns each list into text once.
    """
    rows, lists = [], {}
    for row in m:
        key = row.tobytes()
        if key not in lists:
            lists[key] = row.tolist()
        rows.append(lists[key])
    return rows


def _channel_raw(b: BasisChannel) -> dict:
    """One basis channel as the file stores it; equal rows are one list."""
    return {"r": b.r, "i": b.i, **{q: _shared_rows(getattr(b, q)) for q in _QUADRUPLE}}


@dataclass(frozen=True, eq=False)
class LpvModel(_Core):
    """Affine LPV model: nominal LTI part + scheduling basis + offsets.

    The structural matrices Bw, Cz, Dzu, Dyw are retained so the scheduling
    input z = Cz x + Dzu u_corrected can be formed during self-scheduled
    simulation.  The basis quadruples are not stored: they follow from the
    structural matrices and the schedule's nonzero entries.  d and y0
    are read from the offset solution, which also keeps its residual.
    """

    schedule: SchedulingMap
    offset: OffsetSolution

    @property
    def d(self) -> np.ndarray:
        return self.offset.d

    @property
    def y0(self) -> np.ndarray:
        return self.offset.y0

    @property
    def n_p(self) -> int:
        return len(self.channels)

    @property
    def channels(self) -> tuple[tuple[int, int], ...]:
        """(r, i) of each retained channel, in basis order (row-major)."""
        return self.schedule.channels()

    @cached_property
    def basis(self) -> tuple[BasisChannel, ...]:
        """One quadruple per channel, built on first use and then kept."""
        return tuple(_basis_quadruple(self, r, i) for r, i in self.channels)


# --- NLFR validation ---------------------------------------------------------


def validate_nlfr(raw: Mapping) -> NlfrModel:
    """Validate parsed model-file content and build an NlfrModel.

    Checks dimension consistency of every matrix (naming the offender),
    rejects any nonzero Dzw, rejects non-finite entries, and parses the
    nonlinearity rows, enforcing their count and arity.
    """
    dd, mats = _read_core(raw)
    f_raw = _field(raw, "f")
    if not isinstance(f_raw, (list, tuple)) or len(f_raw) != dd.n_w:
        raise ExpressionArityMismatch(
            f"nonlinearity 'f' must be a list of n_w = {dd.n_w} expression rows"
        )
    f = tuple(parse(text, dd.n_z) for text in f_raw)
    return NlfrModel(f=f, **mats)


def serialize_nlfr(model: NlfrModel) -> dict:
    return {
        **_core_raw(model, _DIM_KEYS),
        "f": [str(row) for row in model.f],
    }


# --- LPV validation -----------------------------------------------------------


def _cell_raw(e, text: str | None = None) -> dict:
    """One schedule entry as the file stores it; ``text``, if given, is the
    entry's own expression or numerator as the file spells it, written
    instead of printing the entry's."""
    if e is None:
        return {"type": "zero"}
    if isinstance(e, GuardedQuotient):
        return {
            "type": "quotient",
            "numerator": str(e.numerator) if text is None else text,
            "derivative": str(e.derivative),
            "divisor": e.divisor_index,
            "tau": e.tau,
        }
    return {"type": "exact", "expr": str(e) if text is None else text}


def schedule_to_raw(m: SchedulingMap) -> dict:
    """Schedule as plain JSON-ready data: printed expressions + guard metadata."""
    return {
        "ordering": list(m.ordering),
        "c": [float(v) for v in m.c],
        "entries": [[_cell_raw(e) for e in row] for row in m.entries],
    }


def schedule_from_raw(raw: dict, n_w: int, n_z: int) -> SchedulingMap:
    """Rebuild a SchedulingMap from file data, each entry as factorize builds it.

    An exact cell's entry is ``parse(expr)``, None if that has no terms; a
    quotient's is :func:`~lpvembed.factorize._entry` of ``parse(numerator)``.
    Either text may be spelled any way the parser reads; the cell's other
    keys must be what :func:`schedule_to_raw` writes.  Only derived text, a
    quotient's derivative, is printed: a cell whose entry is of another
    type than the file says fails on its type, the first key compared.
    """
    ordering = _validate_ordering(_field(raw, "ordering", list, "schedule"), n_z)
    c = _as_array("c", _field(raw, "c", where="schedule"), (n_w,))
    rows_raw = _field(raw, "entries", list, "schedule")
    if len(rows_raw) != n_w or any(
        not isinstance(r, list) or len(r) != n_z for r in rows_raw
    ):
        raise ModelFormatError(f"schedule grid is not {n_w} x {n_z}")
    grid = []
    for r, row_raw in enumerate(rows_raw):
        row: list = []
        for i, cell in enumerate(row_raw, start=1):
            where = f"schedule entry ({r + 1},{i})"
            kind = _field(cell, "type", where=where)
            # the primary text, which the file may spell its own way; any
            # other cell has none and must be what a zero entry writes
            text, entry = None, None
            if kind == "exact":
                text = _field(cell, "expr", where=where)
                entry = parse(text, n_z)
                entry = entry if entry.terms else None
            elif kind == "quotient":
                text = _field(cell, "numerator", where=where)
                entry = _entry(parse(text, n_z), i)
            _check_copy(cell, _cell_raw(entry, text), where)
            row.append(entry)
        grid.append(tuple(row))
    return SchedulingMap(tuple(grid), ordering, c)


def validate_lpv(raw: Mapping) -> LpvModel:
    """Validate parsed LPV file content and build an LpvModel.

    Every derived field is rebuilt as embed builds it and must be exactly
    what :func:`serialize_lpv` writes: the schedule cells (checked in
    :func:`schedule_from_raw`), dims.n_p, the basis, and d and y0, which
    are re-solved from the core and c by embed's own solve_offsets_for.
    """
    dd, mats = _read_core(raw)
    schedule = schedule_from_raw(_field(raw, "schedule"), dd.n_w, dd.n_z)
    offset = solve_offsets_for(_Core(**mats), schedule.c)
    lpv = LpvModel(schedule=schedule, offset=offset, **mats)

    n_p = _field(raw["dims"], "n_p", where="dims block")
    basis_raw = _field(raw, "basis", list)
    if not _is_copy(n_p, lpv.n_p) or len(basis_raw) != n_p:
        raise DimensionMismatch(
            f"dims.n_p is {n_p!r} and the basis has {len(basis_raw)} channels, "
            f"but the schedule has {lpv.n_p} nonzero entries"
        )
    for k, (stored, b) in enumerate(zip(basis_raw, lpv.basis)):
        # each matrix as the array, whose bytes the stored rows must pack to
        matrices = {q: getattr(b, q) for q in _QUADRUPLE}
        _check_copy(stored, {"r": b.r, "i": b.i, **matrices},
                    f"basis channel {k} (row-major over the nonzero schedule entries)")
    _check_copy({"d": _field(raw, "d"), "y0": _field(raw, "y0")},
                {"d": lpv.d, "y0": lpv.y0}, "model file")
    return lpv


def serialize_lpv(model: LpvModel) -> dict:
    """LPV model as JSON-ready file content; exact round-trip guaranteed.

    The derived fields are written for verification only: the loader
    derives them again and rejects a file whose stored copies differ.
    Equal rows of a basis matrix may be one list object, so editing one
    row in place edits them all: copy the content before editing it.
    """
    return {
        **_core_raw(model, (*_DIM_KEYS, "n_p")),
        "basis": [_channel_raw(b) for b in model.basis],
        "schedule": schedule_to_raw(model.schedule),
        "d": model.d.tolist(),
        "y0": model.y0.tolist(),
    }


# --- file I/O -------------------------------------------------------------


def _encode(value, nl: str) -> str:
    """value as json.dumps writes it with an indent of 2, nested at nl.

    json's encoder runs in pure Python once indent is set and yields each
    float on its own; here a list of finite floats is joined in one call,
    and an item that recurs in one list is encoded once.  Every other
    scalar goes through json.dumps, so its bytes are json's.  Keys must
    be str, as they are in every model document.
    """
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            encode_basestring_ascii(key) + ": " + _encode(item, inner)
            for key, item in value.items()
        )
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # exact, finite floats only: json writes NaN and inf as NaN and
        # Infinity, and any other item is left to json.dumps
        if {*map(type, value)} == {float} and all(map(math.isfinite, value)):
            items = map(float.__repr__, value)
        else:
            # an object that recurs in value is encoded once: value keeps
            # it alive, so its id is not reused, and every item is at inner
            texts = {}
            for item in value:
                if id(item) not in texts:
                    texts[id(item)] = _encode(item, inner)
            items = (texts[id(item)] for item in value)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(value)


def _dump(content: dict) -> str:
    """File text of content: json.dumps's text at indent 2, plus a newline."""
    return _encode(content, "\n") + "\n"


def _write(path, text: str) -> None:
    """Write text to path, replacing a regular file there instead of
    truncating it.

    Every file lpvembed writes goes through here.  On ext4 (auto_da_alloc)
    rewriting a file in place flushes its data to disk, about 50 ms per
    file on a 2-vCPU VM, where a fresh file costs well under 1 ms.  So a
    regular file the user may write is removed first.  Anything else -- no
    file, a symlink, a directory, a pipe or device, a read-only file, or a
    file whose directory forbids the removal -- is opened in place, and
    open raises what it always raised.
    """
    try:
        st = os.lstat(path)
    except OSError:
        pass
    else:
        if stat.S_ISREG(st.st_mode) and os.access(path, os.W_OK):
            try:
                os.remove(path)
            except PermissionError:
                pass
    with open(path, "w") as fh:
        fh.write(text)


def save_model(model, path) -> None:
    if isinstance(model, LpvModel):
        content = serialize_lpv(model)
    else:
        content = serialize_nlfr(model)
    _write(path, _dump(content))


def _load_raw(path) -> dict:
    with open(path) as fh:
        # ValueError covers bad JSON, bytes that are not text and integers
        # longer than the int-string limit; a recursion error is raised for
        # arrays or objects nested too deep to read
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(f"{path}: cannot be read as JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: model file must be a JSON object")
    return raw


def load_nlfr(path) -> NlfrModel:
    raw = _load_raw(path)
    if "basis" in raw:
        raise ModelFormatError(f"{path}: expected a nonlinear model, found an LPV model")
    return validate_nlfr(raw)


def load_lpv(path) -> LpvModel:
    raw = _load_raw(path)
    if "basis" not in raw:
        raise ModelFormatError(f"{path}: expected an LPV model, found a nonlinear model")
    return validate_lpv(raw)


def load_model(path):
    """Load either model kind, detected by the presence of a basis block."""
    raw = _load_raw(path)
    if "basis" in raw:
        return validate_lpv(raw)
    return validate_nlfr(raw)
