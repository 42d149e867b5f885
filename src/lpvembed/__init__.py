"""Exact LPV embedding of MIMO nonlinear-LFR models.

Converts continuous-time state-space models with a static nonlinear
feedback block into exactly equivalent affine linear parameter-varying
models: the constant part of the nonlinearity becomes input/output
corrections, the remainder is factorized into a scheduling map, and the
equivalence is verifiable by side-by-side fixed-step simulation.
"""

__version__ = "0.1.0"

from . import errors
from .embed import assemble, embed, lpv_lfr_view, scheduling_from_state
from .examples import builtin_example
from .expr import Expression, FuncFactor, GuardedQuotient, Term, parse
from .factorize import (
    SchedulingMap,
    check_reconstruction,
    extract_offset,
    factorize,
)
from .model import (
    Dims,
    LpvModel,
    NlfrModel,
    load_lpv,
    load_model,
    load_nlfr,
    save_model,
    serialize_lpv,
    serialize_nlfr,
    validate_lpv,
    validate_nlfr,
)
from .offset import (
    DcGains,
    OffsetSolution,
    check_hurwitz,
    dc_gains,
    matching_start,
    solve_offsets,
)
from .sim import (
    CompareReport,
    Spectrum,
    Trajectory,
    compare,
    multisine,
    simulate_lpv_exogenous,
    simulate_lpv_self,
    simulate_nlfr,
    spectrum,
)

__all__ = [
    "errors",
    "__version__",
    "parse",
    "Expression",
    "Term",
    "FuncFactor",
    "GuardedQuotient",
    "Dims",
    "NlfrModel",
    "LpvModel",
    "validate_nlfr",
    "validate_lpv",
    "serialize_nlfr",
    "serialize_lpv",
    "load_model",
    "load_nlfr",
    "load_lpv",
    "save_model",
    "SchedulingMap",
    "extract_offset",
    "factorize",
    "check_reconstruction",
    "DcGains",
    "OffsetSolution",
    "dc_gains",
    "check_hurwitz",
    "solve_offsets",
    "matching_start",
    "embed",
    "assemble",
    "scheduling_from_state",
    "lpv_lfr_view",
    "Trajectory",
    "CompareReport",
    "Spectrum",
    "simulate_nlfr",
    "simulate_lpv_self",
    "simulate_lpv_exogenous",
    "compare",
    "spectrum",
    "multisine",
    "builtin_example",
]
