"""frameopt: optimal frame completions and trace-constrained optimal duals.

The library computes, for a finite vector family in C^d, the completion by
vectors of prescribed norms whose frame operator is minimal for
majorization, and for a spanning frame the dual frame of minimal
submajorization among duals with an operator-trace lower bound.  Both rest
on a waterfilling spectral model over rank-limited positive perturbations.
"""

from . import errors
from .completion import (
    CompletionPlan,
    CompletionProblem,
    CompletionResult,
    complete,
    completion_to_json,
    lower_bound,
    optimal_B,
    plan,
)
from .core_linalg import HermitianPSD, eig_hermitian, psd_rank
from .duals import (
    DualProblem,
    DualResult,
    dual_to_json,
    inverse_operator,
    optimal_dual,
    optimal_dual_spectrum,
    parseval_dual_exists,
    tight_dual_exists,
)
from .frames import (
    Frame,
    canonical_dual,
    duality_residual,
    frame_bounds,
    frame_from_json,
    frame_operator,
    frame_to_json,
    is_dual,
    potential,
)
from .majorization import (
    DEFAULT_TOL,
    PotentialKind,
    SpectrumVec,
    entrywise_leq,
    majorizes,
    sort_desc,
    submajorizes,
    trace_f,
)
from .schur_horn import realize_frame, rotation_chain, unitary_for_diagonal
from .spectra import (
    NuBreakdown,
    Regime,
    c_lambda,
    c_lambda_m,
    in_lambda_set,
    irregularity,
    minimizer_is_unique,
    nu,
    r_lambda_m,
    s_star,
    s_star_star,
    sample_lambda_set,
)

__version__ = "0.1.0"

__all__ = [
    "CompletionPlan",
    "CompletionProblem",
    "CompletionResult",
    "DEFAULT_TOL",
    "DualProblem",
    "DualResult",
    "Frame",
    "HermitianPSD",
    "NuBreakdown",
    "PotentialKind",
    "Regime",
    "SpectrumVec",
    "c_lambda",
    "c_lambda_m",
    "canonical_dual",
    "complete",
    "completion_to_json",
    "dual_to_json",
    "duality_residual",
    "eig_hermitian",
    "entrywise_leq",
    "errors",
    "frame_bounds",
    "frame_from_json",
    "frame_operator",
    "frame_to_json",
    "in_lambda_set",
    "inverse_operator",
    "irregularity",
    "is_dual",
    "lower_bound",
    "majorizes",
    "minimizer_is_unique",
    "nu",
    "optimal_B",
    "optimal_dual",
    "optimal_dual_spectrum",
    "parseval_dual_exists",
    "plan",
    "potential",
    "psd_rank",
    "r_lambda_m",
    "realize_frame",
    "rotation_chain",
    "s_star",
    "s_star_star",
    "sample_lambda_set",
    "sort_desc",
    "submajorizes",
    "tight_dual_exists",
    "trace_f",
    "unitary_for_diagonal",
]
