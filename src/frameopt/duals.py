"""Trace-constrained optimal dual frames.

Every dual of a spanning frame F has frame operator S = S_F^{-1} + B with
B positive semidefinite of rank at most n - d.  Among duals whose operator
trace is at least t, the submajorization-minimal operator spectrum is the
waterfilling spectrum of the inverse-operator eigenvalues with rank bound
m = 2d - n, and a dual attaining it is built from the canonical dual by
adding mass on ker(T) paired with the trailing eigenvectors of S_F^{-1},
all read off one SVD of T, so errors grow like cond(S_F)^(1/2), not
cond(S_F).  ``nu`` applies the trace rule (t finite, and not below tr(S_F^{-1})).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_linalg import HermitianPSD, _fix_phases
from .errors import InsufficientCorank
from .frames import Frame, _operator_svd, _svd, canonical_dual, frame_to_json, inverse_operator
from .majorization import DEFAULT_TOL, SpectrumVec
from .spectra import NuBreakdown, nu


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


def _solve_spectrum(problem: DualProblem):
    """S_F^{-1} and the minimal spectrum at the trace bound."""
    if problem.frame.n <= problem.frame.d:
        raise InsufficientCorank(
            "a basis has no redundancy: its only dual is the canonical dual"
        )
    sinv = inverse_operator(problem.frame)
    return sinv, nu(sinv.eigenvalues, problem.m, problem.t)


def optimal_dual_spectrum(problem: DualProblem) -> NuBreakdown:
    """Minimal dual-operator spectrum among duals with trace >= t."""
    return _solve_spectrum(problem)[1]


def optimal_dual(problem: DualProblem) -> DualResult:
    """Dual frame whose operator attains the minimal spectrum.

    The construction adds, on top of the canonical dual's analysis matrix,
    a block Z = sum_i sqrt(mass_i) u_i h_i* that maps the trailing
    eigenvectors h_i of S_F^{-1} onto orthonormal kernel directions u_i of
    the synthesis (right singular vectors of T past the d-th), so S_W =
    S_F^{-1} + Z*Z and duality is untouched.  The masses are the increment.

    BadTrace is ``nu``'s: below tr(S_F^{-1}) * (1 - DEFAULT_TOL).  The q = d - kept
    masses always fit the n - d kernel directions, since kept >= m = 2d - n.
    """
    d = problem.frame.d
    sinv, breakdown = _solve_spectrum(problem)
    lam, h, kept = sinv.eigenvalues, sinv.eigenvectors, breakdown.kept
    q = d - kept
    synthesis = canonical_dual(problem.frame).synthesis
    if q > 0:
        vh = _svd(problem.frame)[2]  # the SVD canonical_dual read
        kernel = _fix_phases(vh[d : d + q].conj().T.copy())  # the u_i
        synthesis = synthesis + (h[:, kept:] * np.sqrt(breakdown.increment)) @ kernel.conj().T
    operator = HermitianPSD._trusted(
        np.concatenate((lam.values[:kept], np.full(q, breakdown.c))), h
    )
    # No copy or finiteness test: 1/sigma is finite, as sigma_d^2 >= tiny passed
    # inverse_operator's gate, and so is the increment, as c is for a finite t.
    return DualResult(
        dual=Frame._trusted(synthesis),
        operator=operator,
        nu=breakdown.nu,
        unique_S=breakdown.unique,
    )


def _singular_values(frame: Frame):
    """Singular values sigma of a spanning frame (S_F's eigenvalues are sigma^2), and m = 2d - n."""
    return _operator_svd(frame, "duality")[1], 2 * frame.d - frame.n


def tight_dual_exists(frame: Frame) -> bool:
    """Whether some dual of the frame is tight.

    Always true for n >= 2d; otherwise the smallest frame-operator
    eigenvalue must have multiplicity at least m = 2d - n, within
    DEFAULT_TOL times the largest eigenvalue.
    """
    s, m = _singular_values(frame)
    return m <= 0 or bool((s[-m] / s[0]) ** 2 - (s[-1] / s[0]) ** 2 <= DEFAULT_TOL)


def parseval_dual_exists(frame: Frame) -> bool:
    """Whether some dual of the frame has identity frame operator.

    For n >= 2d this is S_F >= I; otherwise the m = 2d - n smallest
    frame-operator eigenvalues must all equal 1, each within DEFAULT_TOL:
    the comparison is against the identity, whose scale is 1.
    """
    s, m = _singular_values(frame)
    w = s**2
    if m <= 0:
        return bool(w[-1] >= 1.0 - DEFAULT_TOL)
    return bool(abs(w[-m] - 1.0) <= DEFAULT_TOL and abs(w[-1] - 1.0) <= DEFAULT_TOL)


def dual_to_json(result: DualResult) -> dict:
    """Serialized form {"nu", "unique_S", "W", "trace"}."""
    return {
        "nu": result.nu.values.tolist(),
        "unique_S": result.unique_S,
        "W": frame_to_json(result.dual),
        "trace": result.operator.trace(),
    }
