"""Ordered factorization of a static nonlinearity into a scheduling map.

Given a vector nonlinearity f with f = f_tilde + c and f_tilde(0) = 0, and
a variable ordering m_1, ..., m_n, the ordered scheme writes each row as

    f_tilde(z) = sum_k  entry_{m_k}(z_{m_1}, ..., z_{m_k}) * z_{m_k}

by taking successive restriction differences, each restriction keeping the
first k ordered variables and setting the others to zero, and dividing each
difference by its variable.  The division is exact whenever every term of
the difference carries the variable; otherwise the entry is a
:class:`~lpvembed.expr.GuardedQuotient`, whose derivative branch keeps the
entry finite and continuous through z_i = 0, where :func:`_check_removable`
proves its numerator zero by restriction.  Entries with a structurally
empty numerator are stored as ``None`` (zero) and later pruned from the LPV
basis.

Every expression stays in the model's own variables z_1, ..., z_n, and the
grid is indexed by them; only the order of the restrictions follows the
ordering.  Different orderings give different but equally valid scheduling
maps; the defining property, checked by :func:`check_reconstruction`, is

    entries(z) @ z + c == f(z)      (to floating-point accuracy).

This module holds the algebra only; the schedule's file form, and the
whole LPV file format, belong to :mod:`lpvembed.model`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    InvalidOrdering,
    ModelFormatError,
    NonFiniteEntry,
    NonzeroAtOrigin,
)
from .expr import Expression, GuardedQuotient, parse  # parse: lpvbench traces it here

__all__ = [
    "SchedulingMap",
    "ReconstructionReport",
    "extract_offset",
    "factorize",
    "check_reconstruction",
]

#: Relative tolerance of the reconstruction identity; pure evaluation noise.
RECONSTRUCTION_RTOL = 1e-12


def _at_origin(rows: Sequence[Expression]) -> list[float]:
    """Each row's value at z = 0; NonFiniteEntry names the first row whose
    value there overflows or is not finite."""
    origin = (0.0,) * rows[0].n_vars
    values = []
    for r, row in enumerate(rows, start=1):
        try:
            v = row.evaluate(origin)
        except OverflowError as exc:
            raise NonFiniteEntry(f"row {r} overflows at z = 0: {exc}") from None
        if not math.isfinite(v):
            raise NonFiniteEntry(f"row {r} evaluates to {v} at z = 0")
        values.append(v)
    return values


def extract_offset(f: Sequence[Expression]):
    """Split f into (f_tilde, c) with c = f(0) and f_tilde(0) = 0 exactly.

    c is computed by evaluation; subtracting it as a constant term makes the
    remainder vanish at the origin bit-exactly.  A row that overflows at the
    origin, or is not finite there, is NonFiniteEntry.
    """
    rows = tuple(f)
    if not rows:
        raise ValueError("empty nonlinearity")
    n_z = rows[0].n_vars
    c = np.array(_at_origin(rows))
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
    """Prove numerator = 0 on z_i = 0 by restriction.  A term left must be
    rounding residue: |coeff| <= 1e-9 * the summed |coeff| of the terms that
    restrict, each alone, to its key.  An overflowing fold: NonFiniteEntry."""
    keep = {*range(1, numerator.n_vars + 1)} - {i}
    rest = numerator.restrict(keep)
    bound: dict = {}
    for t in numerator.terms if rest.terms else ():  # no term left: a proof
        for r in Expression((t,), numerator.n_vars).restrict(keep).terms:
            bound[r.key()] = bound.get(r.key(), 0.0) + abs(r.coeff)
    if any(abs(t.coeff) > 1e-9 * bound[t.key()] for t in rest.terms):
        raise ModelFormatError(
            f"quotient numerator does not vanish on z{i} = 0: it restricts to {rest}"
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
    (run :func:`extract_offset` first), and :class:`NonFiniteEntry` when
    some row overflows there or is not finite.
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

    for r, v in enumerate(_at_origin(rows), start=1):
        if abs(v) > 1e-14:
            raise NonzeroAtOrigin(
                f"row {r} evaluates to {v:.3e} at z = 0; "
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
