"""Trace-constrained optimal dual frames.

Every dual of a spanning frame F has frame operator S = S_F^{-1} + B with
B positive semidefinite of rank at most n - d.  Among duals whose operator
trace is at least t, the submajorization-minimal operator spectrum is the
waterfilling spectrum of the inverse-operator eigenvalues with rank bound
m = 2d - n, and a dual attaining it is built from the canonical dual by
adding mass supported on ker(synthesis) paired with the trailing
eigenvectors of S_F^{-1}.  ``nu`` owns the trace rule (BadTrace below
tr(S_F^{-1})) and cuts the increment that becomes the dual's mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_linalg import HermitianPSD, null_space_onb
from .errors import InsufficientCorank, NotSpanning
from .frames import Frame, frame_operator, frame_to_json, inverse_operator
from .majorization import DEFAULT_TOL, SpectrumVec
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
    """S_F^{-1} and the minimal spectrum at the trace bound."""
    if problem.frame.n <= problem.frame.d:
        raise InsufficientCorank(
            "a basis has no redundancy: its only dual is the canonical dual"
        )
    sinv = inverse_operator(problem.frame)
    return sinv, nu(sinv.eigenvalues, problem.m, problem.t, tol)


def optimal_dual_spectrum(problem: DualProblem, tol: float = DEFAULT_TOL) -> NuBreakdown:
    """Minimal dual-operator spectrum among duals with trace >= t (relative tol)."""
    return _solve_spectrum(problem, tol)[1]


def optimal_dual(problem: DualProblem, tol: float = DEFAULT_TOL) -> DualResult:
    """Dual frame whose operator attains the minimal spectrum.

    The construction adds, on top of the canonical dual's analysis matrix,
    a block Z = sum_i sqrt(mass_i) u_i h_i* that maps the trailing
    eigenvectors h_i of S_F^{-1} onto orthonormal kernel directions u_i of
    the synthesis, so S_W = S_F^{-1} + Z*Z and duality is untouched.  The
    masses are the increment of the minimal spectrum, as in completion.

    ``tol`` is relative, as in ``nu``: t may fall short of tr(S_F^{-1}) by
    that fraction, and BadTrace is raised below that.  The q = d - kept
    masses always fit the n - d kernel directions, since kept >= m = 2d - n.
    """
    frame = problem.frame
    sinv, breakdown = _solve_spectrum(problem, tol)
    lam = sinv.eigenvalues
    kept = breakdown.kept
    q = frame.d - kept
    h = sinv.eigenvectors
    # analysis matrix of the canonical dual S_F^{-1} F
    dual_analysis = frame.analysis @ sinv.matrix
    if q > 0:
        kernel = null_space_onb(frame.synthesis)
        z = (kernel[:, :q] * np.sqrt(breakdown.increment)) @ h[:, kept:].conj().T
        dual_analysis = dual_analysis + z
    operator = HermitianPSD._trusted(
        np.concatenate((lam.values[:kept], np.full(q, breakdown.c))), h
    )
    return DualResult(
        dual=Frame(dual_analysis.conj().T),
        operator=operator,
        nu=breakdown.nu,
        unique_S=minimizer_is_unique(lam, problem.m, problem.t, tol),
    )


def _operator_spectrum(frame: Frame):
    """Frame-operator eigenvalues of a spanning frame, and m = 2d - n."""
    if not frame.spanning:
        raise NotSpanning("duality needs a spanning frame")
    return frame_operator(frame).eigenvalues.values, 2 * frame.d - frame.n


def tight_dual_exists(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """Whether some dual of the frame is tight.

    Always true for n >= 2d; otherwise the smallest frame-operator
    eigenvalue must have multiplicity at least m = 2d - n, within
    tol times the largest eigenvalue.
    """
    w, m = _operator_spectrum(frame)
    return m <= 0 or bool(w[-m] - w[-1] <= tol * w[0])


def parseval_dual_exists(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """Whether some dual of the frame has identity frame operator.

    For n >= 2d this is S_F >= I; otherwise the m = 2d - n smallest
    frame-operator eigenvalues must all equal 1 exactly.  ``tol`` is
    absolute: the comparison is against the identity, whose scale is 1.
    """
    w, m = _operator_spectrum(frame)
    if m <= 0:
        return bool(w[-1] >= 1.0 - tol)
    return bool(abs(w[-m] - 1.0) <= tol and abs(w[-1] - 1.0) <= tol)


def dual_to_json(result: DualResult) -> dict:
    """Serialized form {"nu", "unique_S", "W", "trace"}."""
    return {
        "nu": result.nu.values.tolist(),
        "unique_S": result.unique_S,
        "W": frame_to_json(result.dual),
        "trace": result.operator.trace(),
    }
