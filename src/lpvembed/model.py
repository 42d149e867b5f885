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

where E_ri has a single 1 at row r, column i.  The file still carries the
quadruples, and the loader checks them against the derived ones.

Both live on disk as a single self-describing JSON document with named
matrices stored as row-major arrays of arrays.  Matrices round-trip
bit-exactly (floats are written with shortest-repr precision); numeric
tolerances belong to analysis operations, never to the format layer.
Indices in the file (variable numbers, channel rows/columns, orderings)
are 1-based to match the expression variables z1, z2, ...
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    ExpressionArityMismatch,
    ModelFormatError,
    NonFiniteEntry,
    NonzeroDzw,
)
from .expr import Expression, parse
from .factorize import (
    SchedulingMap,
    _field,
    _is_index,
    schedule_from_raw,
    schedule_to_raw,
)

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
    """The eight core matrices of a model or LFR view, by name."""
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


@dataclass(frozen=True, eq=False)
class LpvModel(_Core):
    """Affine LPV model: nominal LTI part + scheduling basis + offsets.

    The structural matrices Bw, Cz, Dzu, Dyw are retained so the scheduling
    input z = Cz x + Dzu u_corrected can be formed during self-scheduled
    simulation.  The basis quadruples are not stored: they follow from the
    structural matrices and the schedule's nonzero entries.
    """

    schedule: SchedulingMap
    d: np.ndarray
    y0: np.ndarray

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

    The stored basis must enumerate the nonzero schedule entries row-major,
    and every stored quadruple must equal, exactly, the one derived from
    (Bw, Cz, Dzu, Dyw) at its (r, i) index.
    """
    dd, mats = _read_core(raw)
    schedule = schedule_from_raw(_field(raw, "schedule"), dd.n_w, dd.n_z)
    d = _as_array("d", _field(raw, "d"), (dd.n_u,))
    y0 = _as_array("y0", _field(raw, "y0"), (dd.n_y,))

    basis_raw = _field(raw, "basis", list)
    if len(basis_raw) > dd.n_w * dd.n_z:
        raise DimensionMismatch(
            f"basis has {len(basis_raw)} channels, more than "
            f"n_w * n_z = {dd.n_w * dd.n_z}"
        )
    n_p = raw["dims"].get("n_p")
    if n_p is not None and (not _is_index(n_p) or n_p != len(basis_raw)):
        raise DimensionMismatch(
            f"dims.n_p = {n_p!r} disagrees with {len(basis_raw)} basis channels"
        )
    stored = []
    for k, b in enumerate(basis_raw):
        r, i = (_field(b, key, int, f"basis channel {k}") for key in ("r", "i"))
        if not (1 <= r <= dd.n_w and 1 <= i <= dd.n_z):
            raise ModelFormatError(
                f"basis channel {k} index ({r},{i}) out of range"
            )
        stored.append((r, i))
    if tuple(stored) != schedule.channels():
        raise ModelFormatError(
            f"basis channels {tuple(stored)} do not match the nonzero schedule "
            f"entries {schedule.channels()} in row-major order"
        )
    lpv = LpvModel(schedule=schedule, d=d, y0=y0, **mats)
    for k, (b, expect) in enumerate(zip(basis_raw, lpv.basis)):
        for name in _QUADRUPLE:
            exp = getattr(expect, name)
            raw_q = _field(b, name, where=f"basis channel {k}")
            got = _as_array(f"basis[{k}].{name}", raw_q, exp.shape)
            if not np.array_equal(got, exp):
                raise ModelFormatError(
                    f"basis channel {k} matrix {name} does not reconstruct "
                    f"from (Bw, Cz, Dzu, Dyw) at ({expect.r},{expect.i})"
                )
    return lpv


def serialize_lpv(model: LpvModel) -> dict:
    """LPV model as JSON-ready file content; exact round-trip guaranteed.

    The basis quadruples are written for verification only: the loader
    derives them again and rejects a file whose stored copies differ.
    """
    return {
        **_core_raw(model, (*_DIM_KEYS, "n_p")),
        "basis": [
            {"r": b.r, "i": b.i, **{q: getattr(b, q).tolist() for q in _QUADRUPLE}}
            for b in model.basis
        ],
        "schedule": schedule_to_raw(model.schedule),
        "d": model.d.tolist(),
        "y0": model.y0.tolist(),
    }


# --- file I/O -------------------------------------------------------------


def _dump(content: dict) -> str:
    return json.dumps(content, indent=2) + "\n"


def save_model(model, path) -> None:
    if isinstance(model, LpvModel):
        content = serialize_lpv(model)
    else:
        content = serialize_nlfr(model)
    with open(path, "w") as fh:
        fh.write(_dump(content))


def _load_raw(path) -> dict:
    with open(path) as fh:
        # a decode error for bytes that are not text, a recursion error for
        # arrays or objects nested too deep to read
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"{path}: not valid JSON: {exc}") from exc
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
