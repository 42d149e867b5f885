"""Ordered factorization of a static nonlinearity into a scheduling map.

Given a vector nonlinearity f with f = f_tilde + c and f_tilde(0) = 0, and
a variable ordering m_1, ..., m_n, the ordered scheme writes each row as

    f_tilde(z) = sum_k  entry_{m_k}(z_{m_1}, ..., z_{m_k}) * z_{m_k}

by taking successive restriction differences, each restriction keeping the
first k ordered variables and setting the others to zero, and dividing each
difference by its variable.  The division is exact whenever every term of
the difference carries the variable; otherwise the entry is a
:class:`~lpvembed.expr.GuardedQuotient`, whose derivative branch keeps the
entry finite and continuous through z_i = 0.  Entries with a structurally
empty numerator are stored as ``None`` (zero) and later pruned from the LPV
basis.

Every expression stays in the model's own variables z_1, ..., z_n, and the
grid is indexed by them; only the order of the restrictions follows the
ordering.  Different orderings give different but equally valid scheduling
maps; the defining property, checked by :func:`check_reconstruction`, is

    entries(z) @ z + c == f(z)      (to floating-point accuracy).
"""

from __future__ import annotations

import itertools
import numbers
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    InvalidOrdering,
    ModelFormatError,
    NonFiniteEntry,
    NonzeroAtOrigin,
)
from .expr import Expression, GuardedQuotient, parse

__all__ = [
    "SchedulingMap",
    "ReconstructionReport",
    "extract_offset",
    "factorize",
    "check_reconstruction",
    "schedule_to_raw",
    "schedule_from_raw",
]

#: Relative tolerance of the reconstruction identity; pure evaluation noise.
RECONSTRUCTION_RTOL = 1e-12


def extract_offset(f: Sequence[Expression]):
    """Split f into (f_tilde, c) with c = f(0) and f_tilde(0) = 0 exactly.

    c is computed by evaluation; subtracting it as a constant term makes the
    remainder vanish at the origin bit-exactly.
    """
    rows = tuple(f)
    if not rows:
        raise ValueError("empty nonlinearity")
    n_z = rows[0].n_vars
    origin = (0.0,) * n_z
    c = np.array([row.evaluate(origin) for row in rows])
    f_tilde = tuple(
        row - Expression.constant(cv, n_z) if cv != 0.0 else row
        for row, cv in zip(rows, c)
    )
    c.setflags(write=False)
    return f_tilde, c


def _is_index(v) -> bool:
    """A Python or numpy integer; bool and integral floats are not."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _validate_ordering(ordering, n_z: int) -> tuple[int, ...]:
    ordering = tuple(ordering)
    if not all(map(_is_index, ordering)):
        raise InvalidOrdering(f"{ordering} has entries that are not integers")
    ordering = tuple(int(i) for i in ordering)
    if sorted(ordering) != list(range(1, n_z + 1)):
        raise InvalidOrdering(
            f"{ordering} is not a permutation of 1..{n_z}"
        )
    return ordering


def _check_removable(numerator: Expression, i: int):
    """Numerically verify the numerator vanishes on the plane z_i = 0."""
    rng = np.random.default_rng(20240915)
    probes = rng.uniform(-1.0, 1.0, size=(8, numerator.n_vars))
    probes[:, i - 1] = 0.0
    scale_probe = probes.copy()
    scale_probe[:, i - 1] = 1.0
    try:
        vals = numerator.evaluate_batch(probes)
        scale = np.max(np.abs(numerator.evaluate_batch(scale_probe)))
    except (OverflowError, ValueError):  # an overflow leaves no bound: pass
        return
    if np.max(np.abs(vals)) > 1e-9 * (1.0 + scale):
        raise ModelFormatError(
            f"quotient numerator does not vanish on z{i} = 0: "
            f"max |N| = {np.max(np.abs(vals)):.3e}"
        )


@dataclass(frozen=True, eq=False)
class SchedulingMap:
    """n_w x n_z grid of scheduling entries plus the constant offset.

    ``entries[r][i]`` is indexed 0-based internally; ``None`` marks a
    structurally zero entry.  ``ordering`` records the 1-based variable
    order used during construction.  ``c`` is the constant offset removed
    from the nonlinearity (f = entries . z + c).
    """

    entries: tuple[tuple[object, ...], ...]
    ordering: tuple[int, ...]
    c: np.ndarray

    @property
    def n_w(self) -> int:
        return len(self.entries)

    @property
    def n_z(self) -> int:
        return len(self.entries[0])

    def entry(self, r: int, i: int):
        """Entry at output row r, variable column i (both 1-based)."""
        return self.entries[r - 1][i - 1]

    def channels(self) -> tuple[tuple[int, int], ...]:
        """(r, i) pairs of nonzero entries, row-major, 1-based."""
        return tuple(
            (r + 1, i + 1)
            for r, row in enumerate(self.entries)
            for i, e in enumerate(row)
            if e is not None
        )


def factorize(
    f_tilde: Sequence[Expression],
    ordering: Sequence[int] | None = None,
    c: np.ndarray | None = None,
) -> SchedulingMap:
    """Factorize a vanishing-at-zero nonlinearity along a variable ordering.

    For each output row and each position k in the ordering, with i the
    k-th ordered variable, the numerator is the row with only the first k
    ordered variables kept minus the row with only the first k-1 kept, both
    in the model's own variables; the entry (r, i) is the exact quotient by
    z_i when possible, else a guarded quotient with the symbolic partial
    derivative as its z_i = 0 branch.

    Raises :class:`NonzeroAtOrigin` when some row has |f_tilde(0)| > 1e-14
    (run :func:`extract_offset` first).
    """
    rows = tuple(f_tilde)
    if not rows:
        raise ValueError("empty nonlinearity")
    n_z = rows[0].n_vars
    for row in rows:
        if row.n_vars != n_z:
            raise ModelFormatError("nonlinearity rows have differing arity")
    if ordering is None:
        ordering = range(1, n_z + 1)
    ordering = _validate_ordering(ordering, n_z)
    if c is None:
        c_arr = np.zeros(len(rows))
    else:
        c_arr = np.array(c, dtype=float)
        if c_arr.shape != (len(rows),):
            raise ModelFormatError(
                f"offset vector has shape {c_arr.shape}, expected ({len(rows)},)"
            )
    c_arr.setflags(write=False)

    origin = (0.0,) * n_z
    for r, row in enumerate(rows):
        v = row.evaluate(origin)
        if abs(v) > 1e-14:
            raise NonzeroAtOrigin(
                f"row {r + 1} evaluates to {v:.3e} at z = 0; "
                "extract the constant offset first"
            )

    grid = []
    for row in rows:
        row_entries: list = [None] * n_z
        prev = row.restrict(())
        for k, i in enumerate(ordering):
            cur = row.restrict(ordering[: k + 1])
            row_entries[i - 1] = _entry(cur - prev, i)
            prev = cur
        grid.append(tuple(row_entries))
    return SchedulingMap(tuple(grid), ordering, c_arr)


def _entry(num: Expression, i: int):
    """The entry num / z_i: None for no terms, the exact quotient when every
    term carries z_i, else a guarded quotient; factorize and the loader share it."""
    if not num.terms:
        return None
    exact = num.try_exact_divide(i)
    if exact is not None:
        return exact
    _check_removable(num, i)
    return GuardedQuotient(num, i)


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of sampling the reconstruction identity entries.z + c = f."""

    max_abs_error: float
    max_rel_error: float
    row_max_rel_error: tuple[float, ...]
    worst_sample: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= RECONSTRUCTION_RTOL

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        rows = ", ".join(f"{v:.3e}" for v in self.row_max_rel_error)
        return (
            f"reconstruction {status}: max abs {self.max_abs_error:.3e}, "
            f"max rel {self.max_rel_error:.3e} (tol {RECONSTRUCTION_RTOL:.1e}), "
            f"per-row rel [{rows}], worst sample #{self.worst_sample}"
        )


def check_reconstruction(
    m: SchedulingMap, f: Sequence[Expression], samples
) -> ReconstructionReport:
    """Sample |entries(z) @ z + c - f(z)| / (1 + |f(z)|) over the points;
    NonFiniteEntry names the first sample at which f or an entry overflows
    or the reconstruction is not finite."""
    Z = np.asarray(samples, dtype=float)
    if Z.ndim != 2:
        raise ArityMismatch(f"samples have shape {Z.shape}, expected (m, {m.n_z})")
    P, F = [], []
    for n, z in enumerate(Z.tolist()):
        try:
            P.append([[0.0 if e is None else e.evaluate(z) for e in row]
                      for row in m.entries])
            F.append([row.evaluate(z) for row in f])
        except (OverflowError, ValueError) as exc:
            raise NonFiniteEntry(f"overflow at sample #{n}: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        abs_err = np.abs(np.einsum("nwz,nz->nw", P, Z) + m.c - F)
    bad = np.flatnonzero(~np.all(np.isfinite(abs_err), axis=1))
    if bad.size:
        raise NonFiniteEntry(f"reconstruction is not finite at sample #{bad[0]}")
    rel_err = abs_err / (1.0 + np.abs(F))
    worst = int(np.argmax(np.max(rel_err, axis=1)))
    return ReconstructionReport(
        max_abs_error=float(np.max(abs_err)),
        max_rel_error=float(np.max(rel_err)),
        row_max_rel_error=tuple(float(v) for v in np.max(rel_err, axis=0)),
        worst_sample=worst,
    )


# --- model-file (de)serialization --------------------------------------------


def _cell_raw(e) -> dict:
    """One schedule entry as the file stores it."""
    if e is None:
        return {"type": "zero"}
    if isinstance(e, GuardedQuotient):
        return {
            "type": "quotient",
            "numerator": str(e.numerator),
            "derivative": str(e.derivative),
            "divisor": e.divisor_index,
            "tau": e.tau,
        }
    return {"type": "exact", "expr": str(e)}


def schedule_to_raw(m: SchedulingMap) -> dict:
    """Schedule as plain JSON-ready data: printed expressions + guard metadata."""
    return {
        "ordering": list(m.ordering),
        "c": [float(v) for v in m.c],
        "entries": [[_cell_raw(e) for e in row] for row in m.entries],
    }


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


def _is_copy(stored, written) -> bool:
    """Whether stored is the JSON value written (no objects inside), type for
    type: true is not 1 and 1 is not 1.0.  Floats compare as numbers."""
    if type(stored) is not type(written):
        return False
    if not isinstance(written, list):
        return stored == written
    kinds = list(map(type, written))
    if list(map(type, stored)) != kinds:
        return False
    # nested lists recurse; a list of numbers or text compares in C
    return all(map(_is_copy, stored, written)) if list in kinds else stored == written


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
                f"{key} {reprlib.repr(doc[key])}" if key in doc else f"no {key}"
                for doc in (stored, written)
            )
            raise ModelFormatError(
                f"{where} has {has}, but reconstructing it from the file's "
                f"primary data gives {gives}"
            )


def schedule_from_raw(raw: dict, n_w: int, n_z: int) -> SchedulingMap:
    """Rebuild a SchedulingMap from file data, each entry as factorize builds it.

    Each entry is :func:`_entry` of its numerator, ``parse(expr) * z_i`` or
    ``parse(numerator)``, whose text may be spelled any way the parser
    reads; the cell's other keys must be what :func:`schedule_to_raw` writes.
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
            text, entry = {}, None
            if kind == "exact":
                text = {"expr": _field(cell, "expr", where=where)}
                num = parse(text["expr"], n_z) * Expression.variable(i, n_z)
                entry = _entry(num, i)
            elif kind == "quotient":
                text = {"numerator": _field(cell, "numerator", where=where)}
                entry = _entry(parse(text["numerator"], n_z), i)
            _check_copy(cell, {**_cell_raw(entry), **text}, where)
            row.append(entry)
        grid.append(tuple(row))
    return SchedulingMap(tuple(grid), ordering, c)
