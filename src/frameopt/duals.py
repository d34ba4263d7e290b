"""Trace-constrained optimal dual frames.

Every dual of a spanning frame F has frame operator S = S_F^{-1} + B with
B positive semidefinite of rank at most n - d.  Among duals whose operator
trace is at least t, the submajorization-minimal operator spectrum is the
waterfilling spectrum of the inverse-operator eigenvalues with rank bound
m = 2d - n, and a dual attaining it is the canonical dual plus mass on
ker(T) paired with the trailing eigenvectors of S_F^{-1}, all read off one
SVD of T behind one spanning gate, so errors grow like cond(S_F)^(1/2), not
cond(S_F).  ``nu`` applies the trace rule (t finite, and not below tr(S_F^{-1})).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_linalg import HermitianPSD, _fix_phases
from .errors import InsufficientCorank
from .frames import Frame, _operator_svd, _svd, frame_to_json, inverse_operator
from .majorization import DEFAULT_TOL, SpectrumVec
from .spectra import NuBreakdown, _check_trace, nu


@dataclass(frozen=True)
class DualProblem:
    """Spanning frame plus a lower bound t on the dual operator trace, read as a float by the
    trace rule (real and finite, else ValueError); ``nu`` tests it against tr(S_F^{-1})."""

    frame: Frame
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", _check_trace(self.t))

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
    """S_F^{-1} and the minimal spectrum at the trace bound; the spanning gate comes first."""
    sinv = inverse_operator(problem.frame)
    if problem.frame.n == problem.frame.d:
        raise InsufficientCorank("a basis has no redundancy: its only dual is the canonical dual")
    return sinv, nu(sinv.eigenvalues, problem.m, problem.t)


def optimal_dual_spectrum(problem: DualProblem) -> NuBreakdown:
    """Minimal dual-operator spectrum among duals with trace >= t."""
    return _solve_spectrum(problem)[1]


def optimal_dual(problem: DualProblem) -> DualResult:
    """Dual frame whose operator attains the minimal spectrum.

    Its analysis matrix is the canonical dual's, V_1 diag(1/sigma) U*, plus a block
    Z = sum_i sqrt(mass_i) u_i h_i* mapping the trailing eigenvectors h_i of S_F^{-1} onto
    kernel directions u_i (orthonormal rows of V* past the d-th), all read off the one gated
    SVD T = U diag(sigma) V*, so S_W = S_F^{-1} + Z*Z and duality is untouched.  (h_i, mass_i)
    is the pair (eigenvectors[:, kept:], increment) from ``nu`` that ``complete`` factors too.

    Not rechecked, as neither can fail: ``canonical_dual``'s gate would test the sigma that
    ``inverse_operator``'s gate has just passed (spanning, sigma_1^2 finite, sigma_d^2 >= tiny);
    W is finite, as 1/sigma is by that gate, the increment is as c is for a finite t, and the
    u_i are orthonormal.  BadTrace is ``nu``'s: below tr(S_F^{-1}) * (1 - DEFAULT_TOL).
    """
    d = problem.frame.d
    sinv, breakdown = _solve_spectrum(problem)
    lam, h, kept = sinv.eigenvalues, sinv.eigenvectors, breakdown.kept
    q = d - kept  # 1 <= q <= n - d, the kernel rows: m = 2d - n <= kept <= d - 1 as n > d
    u, s, vh = _svd(problem.frame)  # the cached SVD whose sigma inverse_operator's gate passed
    kernel = _fix_phases(vh[d : d + q].conj().T.copy())  # the u_i
    synthesis = (u / s) @ vh[:d] + (h[:, kept:] * np.sqrt(breakdown.increment)) @ kernel.conj().T
    operator = HermitianPSD._trusted(
        np.concatenate((lam.values[:kept], np.full(q, breakdown.c))), h
    )
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
