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

    evaluate(entries, z) @ z + c == f(z)      (to floating-point accuracy).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidOrdering, ModelFormatError, NonzeroAtOrigin
from .expr import DEFAULT_GUARD_TAU, Expression, GuardedQuotient, parse

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


def _is_finite(v) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    try:
        return (
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v)
        )
    except OverflowError:  # an integer beyond the float range
        return False


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
    vals = numerator.evaluate_batch(probes)
    scale_probe = probes.copy()
    scale_probe[:, i - 1] = 1.0
    scale = np.max(np.abs(numerator.evaluate_batch(scale_probe)))
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

    def evaluate(self, z: Sequence[float]) -> np.ndarray:
        """The scheduling matrix p = entries(z), shape (n_w, n_z)."""
        out = np.zeros((self.n_w, self.n_z))
        for r, row in enumerate(self.entries):
            for i, e in enumerate(row):
                if e is not None:
                    out[r, i] = e.evaluate(z)
        return out

    def evaluate_batch(self, points) -> np.ndarray:
        Z = np.asarray(points, dtype=float)
        out = np.zeros((Z.shape[0], self.n_w, self.n_z))
        for r, row in enumerate(self.entries):
            for i, e in enumerate(row):
                if e is not None:
                    out[:, r, i] = e.evaluate_batch(Z)
        return out


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
            num = cur - prev
            prev = cur
            if not num.terms:
                continue
            exact = num.try_exact_divide(i)
            if exact is not None:
                row_entries[i - 1] = exact
            else:
                _check_removable(num, i)
                row_entries[i - 1] = GuardedQuotient(
                    num, i, num.partial(i), DEFAULT_GUARD_TAU
                )
        grid.append(tuple(row_entries))
    return SchedulingMap(tuple(grid), ordering, c_arr)


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
    """Sample |entries(z) @ z + c - f(z)| / (1 + |f(z)|) over the points."""
    Z = np.asarray(samples, dtype=float)
    P = m.evaluate_batch(Z)
    recon = np.einsum("nwz,nz->nw", P, Z) + m.c
    F = np.column_stack([row.evaluate_batch(Z) for row in f])
    abs_err = np.abs(recon - F)
    rel_err = abs_err / (1.0 + np.abs(F))
    worst = int(np.argmax(np.max(rel_err, axis=1)))
    return ReconstructionReport(
        max_abs_error=float(np.max(abs_err)),
        max_rel_error=float(np.max(rel_err)),
        row_max_rel_error=tuple(float(v) for v in np.max(rel_err, axis=0)),
        worst_sample=worst,
    )


# --- model-file (de)serialization --------------------------------------------


def schedule_to_raw(m: SchedulingMap) -> dict:
    """Schedule as plain JSON-ready data: printed expressions + guard metadata."""
    entries = []
    for row in m.entries:
        out_row = []
        for i, e in enumerate(row):
            if e is None:
                out_row.append({"type": "zero"})
            elif isinstance(e, GuardedQuotient):
                out_row.append(
                    {
                        "type": "quotient",
                        "numerator": str(e.numerator),
                        "derivative": str(e.derivative),
                        "divisor": e.divisor_index,
                        "tau": e.tau,
                    }
                )
            else:
                out_row.append({"type": "exact", "expr": str(e)})
        entries.append(out_row)
    return {
        "ordering": list(m.ordering),
        "c": [float(v) for v in m.c],
        "entries": entries,
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


def schedule_from_raw(raw: dict, n_w: int, n_z: int) -> SchedulingMap:
    """Rebuild a SchedulingMap from file data, re-validating its structure.

    Quotient entries must carry a numerator that vanishes on z_i = 0, a
    derivative that matches the recomputed symbolic partial exactly, and
    the guard scale DEFAULT_GUARD_TAU.
    """
    ordering = _validate_ordering(_field(raw, "ordering", list, "schedule"), n_z)
    c = _field(raw, "c", list, "schedule")
    if len(c) != n_w or not all(map(_is_finite, c)):
        raise ModelFormatError("schedule offset c has wrong length or bad values")
    c = np.array(c, dtype=float)
    rows_raw = _field(raw, "entries", list, "schedule")
    if len(rows_raw) != n_w or any(
        not isinstance(r, list) or len(r) != n_z for r in rows_raw
    ):
        raise ModelFormatError(f"schedule grid is not {n_w} x {n_z}")
    c.setflags(write=False)
    grid = []
    for r, row_raw in enumerate(rows_raw):
        row: list = []
        for i, cell in enumerate(row_raw, start=1):
            where = f"schedule entry ({r + 1},{i})"
            kind = _field(cell, "type", where=where)
            if kind == "zero":
                row.append(None)
            elif kind == "exact":
                row.append(parse(_field(cell, "expr", where=where), n_z))
            elif kind == "quotient":
                num = parse(_field(cell, "numerator", where=where), n_z)
                der = parse(_field(cell, "derivative", where=where), n_z)
                divisor = _field(cell, "divisor", int, where)
                if divisor != i:
                    raise ModelFormatError(f"{where} divides by z{divisor}")
                # the one guard scale factorize writes; a simulation kernel
                # compiles it in as a literal
                tau = _field(cell, "tau", numbers.Real, where)
                if tau != DEFAULT_GUARD_TAU:
                    raise ModelFormatError(
                        f"{where} has tau {tau!r}, expected {DEFAULT_GUARD_TAU!r}"
                    )
                if der != num.partial(i):
                    raise ModelFormatError(
                        f"{where} derivative does not "
                        "match the numerator's partial derivative"
                    )
                _check_removable(num, i)
                row.append(GuardedQuotient(num, i, der))
            else:
                raise ModelFormatError(f"{where} has unknown type {kind!r}")
        grid.append(tuple(row))
    return SchedulingMap(tuple(grid), ordering, c)
