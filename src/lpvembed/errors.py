"""Exception types shared across the package.

Class names double as stable, machine-greppable error codes: the CLI prints
failures as ``error[<ClassName>]: <message>``.
"""

from __future__ import annotations


class LpvEmbedError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- expression language -----------------------------------------------

class ParseError(LpvEmbedError):
    """Expression text does not match the grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnsupportedFunction(ParseError):
    """Function name outside the supported smooth set."""


class NonAffineFunctionArgument(ParseError):
    """Function applied to an argument that is not affine in the variables."""


class NegativeExponent(ParseError):
    """A power with a negative exponent (the term language has none)."""


class ArityMismatch(LpvEmbedError):
    """Evaluation point length differs from the expression arity."""


# --- model format ------------------------------------------------------

class DimensionMismatch(LpvEmbedError):
    """A matrix shape is inconsistent with the declared dimensions."""


class NonzeroDzw(LpvEmbedError):
    """Direct feedthrough from w to z present; the nonlinearity must be explicit."""


class NonFiniteEntry(LpvEmbedError):
    """A matrix, vector or expression coefficient is NaN or infinite."""


class ExpressionArityMismatch(LpvEmbedError):
    """Nonlinearity row count or variable count disagrees with the dimensions."""


class ModelFormatError(LpvEmbedError):
    """Structurally malformed or internally inconsistent model file."""


class UnknownExample(LpvEmbedError):
    """No built-in example with the requested name."""


# --- factorization / embedding -----------------------------------------

class ChannelCountMismatch(LpvEmbedError):
    """Scheduling vector length differs from the model's channel count."""


class InvalidOrdering(LpvEmbedError):
    """Factorization ordering is not a permutation of 1..n_z."""


# --- offset propagation -------------------------------------------------

class SingularA(LpvEmbedError):
    """A is singular (pole at s = 0); steady-state gains are undefined."""


class ColumnSpaceViolation(LpvEmbedError):
    """Offset target lies outside the column space of the u-to-z DC gain."""

    def __init__(self, message: str, residual: float, unreachable=None):
        super().__init__(message)
        self.residual = residual
        self.unreachable = unreachable


class EigenvalueFailure(LpvEmbedError):
    """Eigenvalue computation did not converge."""


class HurwitzWarning(UserWarning):
    """Offset propagation requested on a model whose A is not Hurwitz."""


# --- simulation ---------------------------------------------------------

class Divergence(LpvEmbedError):
    """State magnitude blew past the divergence threshold during integration."""

    def __init__(self, message: str, step: int, trajectory=None):
        super().__init__(message)
        self.step = step
        self.trajectory = trajectory


class ShapeMismatch(LpvEmbedError):
    """Trajectories or sample arrays are not shape-compatible."""


class NyquistViolation(LpvEmbedError):
    """Requested excitation band is not realizable on the sampling grid."""


# --- CLI -----------------------------------------------------------------

class InvalidConfig(LpvEmbedError):
    """Run configuration violates a basic constraint (dt, t_end, run size)."""


class InputFormatError(LpvEmbedError):
    """Input sample file is malformed or has the wrong number of columns."""


class ToleranceExceeded(LpvEmbedError):
    """Trajectory comparison exceeded the configured tolerance."""
