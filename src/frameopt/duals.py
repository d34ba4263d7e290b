"""Trace-constrained optimal dual frames.

Every dual of a spanning frame F has frame operator S = S_F^{-1} + B with
B positive semidefinite of rank at most n - d.  Among duals whose operator
trace is at least t, the submajorization-minimal operator spectrum is the
waterfilling spectrum of the inverse-operator eigenvalues with rank bound
m = 2d - n, and a dual attaining it is built from the canonical dual by
adding mass supported on ker(synthesis) paired with the trailing
eigenvectors of S_F^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_linalg import HermitianPSD, null_space_onb
from .errors import BadTrace, InsufficientCorank, NotSpanning
from .frames import Frame, frame_operator, frame_to_json, inverse_operator
from .majorization import DEFAULT_TOL, TIE_TOL, SpectrumVec
from .spectra import NuBreakdown, minimizer_is_unique, nu


@dataclass(frozen=True)
class DualProblem:
    """Spanning frame plus a lower bound t on the dual operator trace."""

    frame: Frame
    t: float

    @property
    def m(self) -> int:
        return 2 * self.frame.d - self.frame.n


@dataclass(frozen=True)
class DualResult:
    dual: Frame
    operator: HermitianPSD
    nu: SpectrumVec
    unique_S: bool


def _solve_spectrum(problem: DualProblem, tol: float):
    """S_F^{-1}, the clamped trace bound and the minimal spectrum."""
    if problem.frame.n <= problem.frame.d:
        raise InsufficientCorank(
            "a basis has no redundancy: its only dual is the canonical dual"
        )
    sinv = inverse_operator(problem.frame)
    t0 = sinv.eigenvalues.trace()
    if problem.t < t0 * (1.0 - tol):
        raise BadTrace(
            f"trace bound {problem.t} is below tr(S_F^-1) = {t0}; "
            "the constraint would be vacuous"
        )
    t = max(float(problem.t), t0)
    return sinv, t, nu(sinv.eigenvalues, problem.m, t, tol)


def optimal_dual_spectrum(problem: DualProblem, tol: float = DEFAULT_TOL) -> NuBreakdown:
    """Minimal dual-operator spectrum among duals with trace >= t (relative tol)."""
    return _solve_spectrum(problem, tol)[2]


def optimal_dual(problem: DualProblem, tol: float = DEFAULT_TOL) -> DualResult:
    """Dual frame whose operator attains the minimal spectrum.

    The construction adds, on top of the canonical dual's analysis matrix,
    a block Z = sum_i sqrt(mass_i) u_i h_i* that maps the trailing
    eigenvectors h_i of S_F^{-1} onto orthonormal kernel directions u_i of
    the synthesis, so S_W = S_F^{-1} + Z*Z and duality is untouched.  The
    masses are the increment of the minimal spectrum, as in completion.

    ``tol`` is relative: t may fall short of tr(S_F^{-1}) by that fraction
    (it is then raised to it), and BadTrace is raised below that.
    """
    frame = problem.frame
    sinv, t, breakdown = _solve_spectrum(problem, tol)
    d, n = frame.d, frame.n
    lam = sinv.eigenvalues
    kept = breakdown.kept
    q = d - kept
    if q > n - d:
        raise InsufficientCorank(f"need {q} kernel directions, frame offers {n - d}")
    # summation-order residue would be amplified by the square root below
    mass = breakdown.increment
    mass = np.where(mass <= TIE_TOL * breakdown.c, 0.0, mass)
    h = sinv.eigenvectors
    # analysis matrix of the canonical dual S_F^{-1} F
    dual_analysis = frame.analysis @ sinv.matrix
    if q > 0:
        kernel = null_space_onb(frame.synthesis)
        z = (kernel[:, :q] * np.sqrt(mass)) @ h[:, kept:].conj().T
        dual_analysis = dual_analysis + z
    operator = HermitianPSD.from_eigensystem(
        np.concatenate((lam.values[:kept], np.full(q, breakdown.c))), h
    )
    return DualResult(
        dual=Frame(dual_analysis.conj().T),
        operator=operator,
        nu=breakdown.nu,
        unique_S=minimizer_is_unique(lam, problem.m, t, tol),
    )


def tight_dual_exists(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """Whether some dual of the frame is tight.

    Always true for n >= 2d; otherwise the smallest frame-operator
    eigenvalue must have multiplicity at least m = 2d - n, within
    tol times the largest eigenvalue.
    """
    if not frame.spanning:
        raise NotSpanning("duality needs a spanning frame")
    d, n = frame.d, frame.n
    m = 2 * d - n
    if m <= 0:
        return True
    w = frame_operator(frame).eigenvalues.values
    return bool(w[d - m] - w[d - 1] <= tol * w[0])


def parseval_dual_exists(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """Whether some dual of the frame has identity frame operator.

    For n >= 2d this is S_F >= I; otherwise the m = 2d - n smallest
    frame-operator eigenvalues must all equal 1 exactly.  ``tol`` is
    absolute: the comparison is against the identity, whose scale is 1.
    """
    if not frame.spanning:
        raise NotSpanning("duality needs a spanning frame")
    d, n = frame.d, frame.n
    m = 2 * d - n
    w = frame_operator(frame).eigenvalues.values
    if m <= 0:
        return bool(w[d - 1] >= 1.0 - tol)
    return bool(abs(w[d - m] - 1.0) <= tol and abs(w[d - 1] - 1.0) <= tol)


def dual_to_json(result: DualResult) -> dict:
    """Serialized form {"nu", "unique_S", "W", "trace"}."""
    return {
        "nu": [float(x) for x in result.nu.values],
        "unique_S": result.unique_S,
        "W": frame_to_json(result.dual),
        "trace": result.operator.trace(),
    }
