"""Assembly of the affine LPV model from a validated nonlinear-LFR model.

The pipeline is: factorize the nonlinearity into a scheduling map, which
splits off its constant offset c = f(0), then propagate c to input/output
corrections (zero when c is).  Each nonzero scheduling entry is one
channel, whose basis quadruple the LPV model derives from its structural
matrices.  The scheduling vector is the flattened nonzero part of the
n_w x n_z map, row-major over (r, i); structurally zero entries contribute
nothing and are pruned.  The assembled matrices

    A(p) = A + sum_k p_k Ak,   B(p) = Bu + sum_k p_k Bk,
    C(p) = Cy + sum_k p_k Ck,  D(p) = Dyu + sum_k p_k Dk

are affine in p by construction.  The LpvModel is itself the LPV-LFR, the
LTI core closed by the gain w = P(z) z, and assemble closes it at p.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import ChannelCountMismatch, HurwitzWarning
# extract_offset: unused here, but lpvbench traces it by this name
from .factorize import extract_offset, factorize
from .model import LpvModel, NlfrModel, core_matrices
from .offset import check_hurwitz, solve_offsets_for
from .sim import _check_state, _floats

__all__ = ["embed", "assemble", "scheduling_from_state"]


def embed(model: NlfrModel, ordering: Sequence[int] | None = None) -> LpvModel:
    """Convert a nonlinear-LFR model into an exactly equivalent LPV model.

    The offset solution is kept as lpv.offset.  Propagating an offset
    through a non-Hurwitz A gives a HurwitzWarning, not a failure.
    """
    schedule = factorize(model.f, ordering)
    offset = solve_offsets_for(model, schedule.c)
    if np.any(schedule.c != 0.0):
        hurwitz, max_re = check_hurwitz(model.A)
        if not hurwitz:
            warnings.warn(
                f"A is not Hurwitz (max eigenvalue real part {max_re:.3e}); "
                "offset corrections are propagated anyway but their "
                "steady-state interpretation is not guaranteed",
                HurwitzWarning,
                stacklevel=2,
            )
    return LpvModel(schedule=schedule, offset=offset, **core_matrices(model))


def assemble(lpv: LpvModel, p):
    """Frozen system matrices (A(p), B(p), C(p), D(p)) at scheduling value p.

    p is the flattened scheduling vector over the retained channels;
    ShapeMismatch if it is not numbers or not finite.
    """
    p = _floats(p, "scheduling vector")
    if p.shape != (lpv.n_p,):
        raise ChannelCountMismatch(
            f"scheduling vector has shape {p.shape}, model has {lpv.n_p} channels"
        )
    A = lpv.A.copy()
    B = lpv.Bu.copy()
    C = lpv.Cy.copy()
    D = lpv.Dyu.copy()
    for pk, b in zip(p, lpv.basis):
        A += pk * b.Ak
        B += pk * b.Bk
        C += pk * b.Ck
        D += pk * b.Dk
    return A, B, C, D


def scheduling_from_state(lpv: LpvModel, x, u_corrected) -> np.ndarray:
    """Scheduling vector p from the current state and corrected input.

    Forms z = Cz x + Dzu u_corrected, each read as an initial state is
    (ShapeMismatch), and evaluates the retained scheduling entries at it.
    """
    x = _check_state(x, lpv.dims.n_x, "state")
    u_corrected = _check_state(u_corrected, lpv.dims.n_u, "corrected input")
    z = lpv.Cz @ x + lpv.Dzu @ u_corrected
    return np.array(
        [lpv.schedule.entry(r, i).evaluate(z) for r, i in lpv.channels]
    )
