"""Optimal frame completion with prescribed norms.

Given an initial family F0 in C^d and k prescribed squared norms beta, the
spectra reachable by appending k vectors with those norms are governed by
the waterfilling model with rank bound m = d - k and trace
t = tr(S_F0) + sum(beta).  When the sorted norms are majorized by the gap
vector mu_hat the problem is feasible, the minimal spectrum nu is attained,
and the optimal added operator B is an explicit rank-one sum over the
trailing eigenvectors of S_F0.  Infeasibility is reported as a result, not
an error, together with the potential lower bounds that nu always provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_linalg import HermitianPSD, psd_rank
from .errors import DomainError, Infeasible, RankDeficient
from .frames import Frame, frame_operator, frame_to_json
from .majorization import (
    DEFAULT_TOL,
    PotentialKind,
    SpectrumVec,
    majorizes,
    sort_desc,
    trace_f,
)
from .schur_horn import realize_frame
from .spectra import NuBreakdown, minimizer_is_unique, nu


@dataclass(frozen=True)
class CompletionProblem:
    """Initial family plus the squared norms prescribed for the new vectors."""

    initial: Frame
    beta: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.beta, dtype=float).reshape(-1)
        if arr.size == 0 or np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("prescribed squared norms must be finite and positive")
        arr.flags.writeable = False
        object.__setattr__(self, "beta", arr)

    @property
    def d(self) -> int:
        return self.initial.d

    @property
    def k(self) -> int:
        return self.beta.size

    @property
    def m(self) -> int:
        return self.d - self.k

    @property
    def t(self) -> float:
        return frame_operator(self.initial).trace() + float(self.beta.sum())


@dataclass(frozen=True)
class CompletionPlan:
    """Feasibility analysis: cutoff, level, gap vector and target spectrum."""

    r_hat: int
    c_hat: float
    mu_hat: np.ndarray  # nondecreasing, length d - r_hat
    nu: SpectrumVec
    feasible: bool
    unique_B: bool
    breakdown: NuBreakdown


@dataclass(frozen=True)
class CompletionResult:
    feasible: bool
    nu: SpectrumVec
    unique_B: bool
    added: np.ndarray | None  # d x k block of new vectors
    completed: Frame | None
    plan: CompletionPlan
    lower_bounds: dict


def plan(problem: CompletionProblem, tol: float = DEFAULT_TOL) -> CompletionPlan:
    """Compute the optimal target spectrum and test feasibility.

    ``tol`` is relative; the majorization test gets tol * t, t the completed
    trace.  Raises RankDeficient when rank(S_F0) < d - k, which no completion by k
    vectors can repair.
    """
    s0 = frame_operator(problem.initial)
    lam = s0.eigenvalues
    d, k, m, t = problem.d, problem.k, problem.m, problem.t
    if psd_rank(lam) < d - k:
        raise RankDeficient(f"rank(S_F0) must be at least d - k = {d - k}")
    breakdown = nu(lam, m, t, tol)
    mu_hat = breakdown.increment
    padded = np.zeros(k)
    padded[: mu_hat.size] = sort_desc(mu_hat)[:k]
    feasible = majorizes(padded, sort_desc(problem.beta), tol * t)
    unique = minimizer_is_unique(lam, m, t, tol)
    return CompletionPlan(
        r_hat=breakdown.kept,
        c_hat=breakdown.c,
        mu_hat=mu_hat,
        nu=breakdown.nu,
        feasible=feasible,
        unique_B=unique,
        breakdown=breakdown,
    )


def optimal_B(s0: HermitianPSD, completion_plan: CompletionPlan) -> HermitianPSD:
    """Added operator carried by the trailing eigenvectors of S_F0.

    B places the gap masses mu_hat on the eigenvectors of the d - r_hat
    smallest eigenvalues, so the completed operator S_F0 + B has exactly
    the planned spectrum.
    """
    if not completion_plan.feasible:
        raise Infeasible("optimal added operator exists only for feasible plans")
    r_hat = completion_plan.r_hat
    d = s0.dim
    values = np.zeros(d)
    values[r_hat:] = completion_plan.mu_hat
    return HermitianPSD.from_eigensystem(values, s0.eigenvectors)


def lower_bound(nu_spectrum, kind: PotentialKind) -> float:
    """Potential value of the minimal spectrum: a bound every completion obeys.

    Attained exactly when the problem is feasible and the completed frame
    realizes the minimal spectrum.
    """
    return trace_f(nu_spectrum, kind)


def lower_bounds(nu_spectrum: SpectrumVec) -> dict:
    """Frame-potential and mean-square-error bounds; MSE is inf when singular."""
    bounds = {"fp": lower_bound(nu_spectrum, PotentialKind.FRAME_POTENTIAL)}
    try:
        bounds["mse"] = lower_bound(nu_spectrum, PotentialKind.MEAN_SQUARE_ERROR)
    except DomainError:
        bounds["mse"] = math.inf
    return bounds


def complete(problem: CompletionProblem, tol: float = DEFAULT_TOL) -> CompletionResult:
    """Solve the completion problem; infeasibility is a result, not an error.

    ``tol`` is relative, as in ``plan``; Schur-Horn gets tol * t.
    """
    completion_plan = plan(problem, tol)
    bounds = lower_bounds(completion_plan.nu)
    added = completed = None
    if completion_plan.feasible:
        s0 = frame_operator(problem.initial)
        added = realize_frame(optimal_B(s0, completion_plan), problem.beta, tol * problem.t)
        synth = problem.initial.synthesis
        dtype = np.result_type(synth.dtype, added.dtype)
        completed = Frame(np.hstack([synth.astype(dtype), added.astype(dtype)]))
    return CompletionResult(
        feasible=completion_plan.feasible,
        nu=completion_plan.nu,
        unique_B=completion_plan.unique_B,
        added=added,
        completed=completed,
        plan=completion_plan,
        lower_bounds=bounds,
    )


def completion_to_json(result: CompletionResult) -> dict:
    """Serialized form {"feasible", "nu", "unique_B", "F1", "lower_bounds"}."""
    f1 = None
    if result.added is not None:
        f1 = frame_to_json(Frame(result.added))
    return {
        "feasible": result.feasible,
        "nu": [float(x) for x in result.nu.values],
        "unique_B": result.unique_B,
        "F1": f1,
        "lower_bounds": {
            "fp": result.lower_bounds["fp"],
            "mse": result.lower_bounds["mse"],
        },
    }
