"""Assembly of the affine LPV model from a validated nonlinear-LFR model.

The pipeline is: extract the constant offset, propagate it to input/output
corrections when nonzero, and factorize the remainder into a scheduling
map.  Each nonzero scheduling entry is one channel, whose basis quadruple
the LPV model derives from its structural matrices.  The scheduling vector
is the flattened nonzero part of the n_w x n_z map, row-major over (r, i);
structurally zero entries contribute nothing and are pruned.  The
assembled matrices

    A(p) = A + sum_k p_k Ak,   B(p) = Bu + sum_k p_k Bk,
    C(p) = Cy + sum_k p_k Ck,  D(p) = Dyu + sum_k p_k Dk

are affine in p by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ChannelCountMismatch, EmbeddingDegenerate
from .factorize import extract_offset, factorize
from .model import LpvModel, NlfrModel, core_matrices
from .offset import solve_offsets_for

__all__ = ["embed", "assemble", "scheduling_from_state", "LfrView", "lpv_lfr_view"]


def embed(model: NlfrModel, ordering: Sequence[int] | None = None) -> LpvModel:
    """Convert a nonlinear-LFR model into an exactly equivalent LPV model."""
    f_tilde, c = extract_offset(model.f)
    sol = solve_offsets_for(model, c)
    schedule = factorize(f_tilde, ordering, c=c)

    if not schedule.channels() and not all(row.is_constant() for row in f_tilde):
        raise EmbeddingDegenerate(
            "every scheduling entry was pruned although the nonlinearity "
            "depends on z; factorization is internally inconsistent"
        )
    return LpvModel(schedule=schedule, d=sol.d, y0=sol.y0, **core_matrices(model))


def assemble(lpv: LpvModel, p):
    """Frozen system matrices (A(p), B(p), C(p), D(p)) at scheduling value p.

    p is the flattened scheduling vector over the retained channels.
    """
    p = np.asarray(p, dtype=float)
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

    Forms z = Cz x + Dzu u_corrected and evaluates the retained scheduling
    entries at it.
    """
    x = np.asarray(x, dtype=float)
    u_corrected = np.asarray(u_corrected, dtype=float)
    z = lpv.Cz @ x + lpv.Dzu @ u_corrected
    return np.array(
        [lpv.schedule.entry(r, i).evaluate(z) for r, i in lpv.channels]
    )


@dataclass(frozen=True, eq=False)
class LfrView:
    """The LPV model re-drawn as an LFR: LTI core closed by the gain p(t).

    The original constant matrices are exposed unchanged; the nonlinear
    block position carries the time-varying matrix gain w = P z with P the
    n_w x n_z scheduling matrix (zero at the pruned positions).
    """

    A: np.ndarray
    Bw: np.ndarray
    Bu: np.ndarray
    Cz: np.ndarray
    Cy: np.ndarray
    Dzu: np.ndarray
    Dyw: np.ndarray
    Dyu: np.ndarray
    gain_shape: tuple[int, int]
    channels: tuple[tuple[int, int], ...]

    @property
    def n_active(self) -> int:
        return len(self.channels)

    def close(self, P):
        """System matrices with the gain block frozen at the full matrix P."""
        P = np.asarray(P, dtype=float)
        if P.shape != self.gain_shape:
            raise ChannelCountMismatch(
                f"gain has shape {P.shape}, expected {self.gain_shape}"
            )
        return (
            self.A + self.Bw @ P @ self.Cz,
            self.Bu + self.Bw @ P @ self.Dzu,
            self.Cy + self.Dyw @ P @ self.Cz,
            self.Dyu + self.Dyw @ P @ self.Dzu,
        )

    def gain_from_channels(self, p) -> np.ndarray:
        """Full n_w x n_z gain matrix from the flattened channel values."""
        p = np.asarray(p, dtype=float)
        if p.shape != (len(self.channels),):
            raise ChannelCountMismatch(
                f"scheduling vector has shape {p.shape}, "
                f"view has {len(self.channels)} channels"
            )
        P = np.zeros(self.gain_shape)
        for pk, (r, i) in zip(p, self.channels):
            P[r - 1, i - 1] = pk
        return P


def lpv_lfr_view(lpv: LpvModel) -> LfrView:
    """Structural re-labeling of the LPV model as an LFR with gain block p."""
    return LfrView(
        gain_shape=(lpv.Bw.shape[1], lpv.Cz.shape[0]),
        channels=lpv.channels,
        **core_matrices(lpv),
    )
