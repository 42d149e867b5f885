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
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    ExpressionArityMismatch,
    ModelFormatError,
    NonzeroDzw,
)
from .expr import Expression, parse
from .factorize import (
    SchedulingMap,
    _as_array,
    _check_copy,
    _field,
    _freeze,
    _is_copy,
    schedule_from_raw,
    schedule_to_raw,
)
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
        _check_copy(stored, _channel_raw(b),
                    f"basis channel {k} (row-major over the nonzero schedule entries)")
    _check_copy({"d": _field(raw, "d"), "y0": _field(raw, "y0")},
                {"d": lpv.d.tolist(), "y0": lpv.y0.tolist()}, "model file")
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
