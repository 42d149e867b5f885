"""Propagation of a constant nonlinearity offset to input/output corrections.

When the static nonlinearity carries a constant part c = f(0) != 0, the
core model (with the offset stripped) is driven in shifted coordinates.
The input shift d is chosen so that its steady-state effect on the
nonlinearity input z cancels the offset's:

    G2_0 d + G4_0 c = 0,

where G2_0 is the DC gain from u to z and G4_0 the DC gain from w to z.
The corrected signals are then

    u_corrected = u - d
    y           = y_corrected + y0,   y0 = G3_0 c + G1_0 d,

which makes the offset-free model exactly equivalent to the original (the
state trajectories differ by the constant shift A^-1 (Bw c + Bu d)).  A
solution d exists whenever G4_0 c lies in the column space of G2_0; the
minimum-norm least-squares solution is the deterministic canonical pick.

DC gains require A to be invertible.  The stability check on A is advisory:
embed warns when an offset is propagated through a non-Hurwitz A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ColumnSpaceViolation,
    EigenvalueFailure,
    NonFiniteEntry,
    SingularA,
)

if TYPE_CHECKING:  # model imports this module to re-solve a file's offsets
    from .model import LpvModel, NlfrModel

__all__ = [
    "DcGains",
    "OffsetSolution",
    "dc_gains",
    "check_hurwitz",
    "solve_offsets",
    "matching_start",
]

#: Condition number above which A is treated as numerically singular.
_COND_LIMIT = 1e12

#: Relative consistency tolerance for the column-space membership test.
OFFSET_RTOL = 1e-9

#: Margin on eigenvalue real parts for the strict Hurwitz test.
HURWITZ_MARGIN = -1e-9


@dataclass(frozen=True, eq=False)
class DcGains:
    """Steady-state gains of the four LTI channel pairings.

    G1_0: u -> y,  G2_0: u -> z,  G3_0: w -> y,  G4_0: w -> z,
    each equal to D - C A^-1 B for its channel pairing.
    """

    G1_0: np.ndarray
    G2_0: np.ndarray
    G3_0: np.ndarray
    G4_0: np.ndarray


@dataclass(frozen=True, eq=False)
class OffsetSolution:
    """Input shift d, output correction y0, and the consistency residual."""

    d: np.ndarray
    y0: np.ndarray
    residual: float


def dc_gains(model: NlfrModel) -> DcGains:
    """DC gains via one linear solve per input block; requires invertible A
    and finite gains (a gain that overflows is SingularA)."""
    A = model.A
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        sign, _ = np.linalg.slogdet(A)
        if sign == 0.0:
            raise SingularA("A is singular: the model has a pole at s = 0")
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularA(
                f"A is numerically singular (condition estimate {cond:.3e})"
            )
        ai_bu = np.linalg.solve(A, model.Bu)
        ai_bw = np.linalg.solve(A, model.Bw)
        g1 = model.Dyu - model.Cy @ ai_bu
        g2 = model.Dzu - model.Cz @ ai_bu
        g3 = model.Dyw - model.Cy @ ai_bw
        g4 = -model.Cz @ ai_bw  # Dzw is structurally zero
    for g in (g1, g2, g3, g4):
        if not np.all(np.isfinite(g)):
            raise SingularA("A is numerically singular: a DC gain overflows")
        g.setflags(write=False)
    return DcGains(G1_0=g1, G2_0=g2, G3_0=g3, G4_0=g4)


def check_hurwitz(A: np.ndarray):
    """(is_hurwitz, max eigenvalue real part) with a strict numeric margin."""
    try:
        eig = np.linalg.eigvals(np.asarray(A, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EigenvalueFailure(f"eigenvalue computation failed: {exc}") from exc
    max_re = float(np.max(eig.real))
    return max_re < HURWITZ_MARGIN, max_re


def _no_offset(n_u: int, n_y: int) -> OffsetSolution:
    """The exact skip path for c = 0: zero corrections, zero residual."""
    d = np.zeros(n_u)
    y0 = np.zeros(n_y)
    d.setflags(write=False)
    y0.setflags(write=False)
    return OffsetSolution(d=d, y0=y0, residual=0.0)


def solve_offsets(gains: DcGains, c) -> OffsetSolution:
    """Solve for the input/output corrections induced by the offset c.

    c = 0 takes the exact skip path (zero corrections, zero residual).
    Otherwise d is the minimum-norm least-squares solution of
    G2_0 d = -G4_0 c; the solution is rejected when the residual shows
    G4_0 c to be outside the column space of G2_0 (both norms taken in
    units of max |G4_0 c| when they overflow), or a value overflows.
    """
    c = np.asarray(c, dtype=float)
    if not np.any(c != 0.0):
        return _no_offset(gains.G2_0.shape[1], gains.G1_0.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        target = -gains.G4_0 @ c
        if not np.all(np.isfinite(target)):  # lstsq would fail untyped
            raise NonFiniteEntry(f"offset target -G4_0 c = {target} overflows")
        d, *_ = np.linalg.lstsq(gains.G2_0, target, rcond=None)
        unreachable = gains.G2_0 @ d - target
        residual = float(np.linalg.norm(unreachable))
        tol = OFFSET_RTOL * (1.0 + float(np.linalg.norm(target)))
        reachable = residual <= tol  # a NaN residual is refused too
        if np.isinf(tol):  # the norms overflow; compare them scaled
            scale = np.max(np.abs(target))
            tol = OFFSET_RTOL * (1.0 / scale + np.linalg.norm(target / scale))
            reachable = np.linalg.norm(unreachable / scale) <= tol
        y0 = gains.G3_0 @ c + gains.G1_0 @ d
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(y0))):
        raise NonFiniteEntry(f"offset corrections d = {d}, y0 = {y0} overflow")
    if not reachable:
        raise ColumnSpaceViolation(
            f"offset target is outside the column space of the u->z DC gain "
            f"(residual {residual:.3e}, unreachable component {unreachable})",
            residual=residual,
            unreachable=unreachable,
        )
    d.setflags(write=False)
    y0.setflags(write=False)
    return OffsetSolution(d=d, y0=y0, residual=residual)


def solve_offsets_for(core, c) -> OffsetSolution:
    """The offset solution of a model's core for its constant c = f(0).

    c = 0 takes the exact skip path, which never inverts A; otherwise the
    core's DC gains are solved for d and y0.  embed and the LPV loader both
    solve here.  The stability advice is embed's: no eigenvalues here.
    """
    c = np.asarray(c, dtype=float)
    if not np.any(c != 0.0):
        return _no_offset(core.Bu.shape[1], core.Cy.shape[0])
    return solve_offsets(dc_gains(core), c)


def matching_start(lpv: LpvModel) -> np.ndarray | None:
    """LPV start state that matches the nonlinear model started at zero.

    The offset-free core runs in coordinates shifted by the constant
    A^-1 (Bw c + Bu d), so that is where the LPV model starts.  None for
    c = 0: the shift vanishes and the zero start already matches.
    """
    c = lpv.schedule.c
    if not np.any(c != 0.0):
        return None
    try:
        return np.linalg.solve(lpv.A, lpv.Bw @ c + lpv.Bu @ lpv.d)
    except np.linalg.LinAlgError as exc:
        raise SingularA(f"A is singular: {exc}") from exc
