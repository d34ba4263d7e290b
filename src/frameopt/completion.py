"""Optimal frame completion with prescribed norms.

Given an initial family F0 in C^d and k prescribed squared norms beta, the
spectra reachable by appending k vectors with those norms are governed by
the waterfilling model with rank bound m = d - k and trace
t = tr(S_F0) + sum(beta).  When the sorted norms are majorized by the gap
vector mu_hat (``nu``'s increment) the problem is feasible, and the minimal
spectrum nu is attained by factoring mu_hat on the trailing eigenvectors of
S_F0.  Infeasibility is a result, with the lower bounds nu always provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_linalg import HermitianPSD, psd_rank
from .errors import Infeasible, RankDeficient
from .frames import Frame, frame_operator, frame_to_json
from .majorization import PotentialKind, SpectrumVec, _reals, majorizes, trace_f
from .schur_horn import _chain, _realize
from .spectra import NuBreakdown, nu


@dataclass(frozen=True)
class CompletionProblem:
    """Initial family plus the squared norms ``beta`` for the new vectors, kept as a read-only copy."""

    initial: Frame
    beta: np.ndarray

    def __post_init__(self):
        arr = _reals(self.beta).copy()  # a view would follow later writes to the caller's array
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


def plan(problem: CompletionProblem) -> CompletionPlan:
    """Compute the optimal target spectrum and test feasibility.

    Feasible iff beta is majorized by mu_hat padded with zeros: ``rotation_chain``'s test.
    Raises RankDeficient when rank(S_F0) < d - k, which no completion by k vectors can repair.
    """
    s0 = frame_operator(problem.initial)
    lam = s0.eigenvalues
    d, k, m, t = problem.d, problem.k, problem.m, problem.t
    if psd_rank(lam) < d - k:
        raise RankDeficient(f"rank(S_F0) must be at least d - k = {d - k}")
    breakdown = nu(lam, m, t)
    mu_hat = breakdown.increment
    padded = np.zeros(k)  # mu_hat.size = d - kept <= d - m = k
    padded[: mu_hat.size] = mu_hat[::-1]  # nonincreasing: _realize's sigma, bit for bit
    return CompletionPlan(
        r_hat=breakdown.kept,
        c_hat=breakdown.c,
        mu_hat=mu_hat,
        nu=breakdown.nu,
        feasible=majorizes(padded, problem.beta),
        unique_B=breakdown.unique,
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
    values = np.zeros(s0.dim)
    values[completion_plan.r_hat :] = completion_plan.mu_hat
    return HermitianPSD._trusted(values, s0.eigenvectors)


def lower_bounds(nu_spectrum: SpectrumVec) -> dict:
    """Frame-potential and mean-square-error values of the minimal spectrum.

    Every completion's potential is at least these, with equality when the
    problem is feasible.  Each is ``trace_f`` of its kind, except that MSE
    is inf on a singular spectrum, where ``trace_f`` raises DomainError.
    """
    v = _reals(nu_spectrum)
    mse = math.inf if np.minimum.reduce(v) <= 0.0 else trace_f(v, PotentialKind.MEAN_SQUARE_ERROR)
    return {"fp": trace_f(v, PotentialKind.FRAME_POTENTIAL), "mse": mse}


def complete(problem: CompletionProblem) -> CompletionResult:
    """Solve the completion problem; infeasibility is a result, not an error.

    Factors the pair ``nu`` gives (S_F0's eigenvectors[:, r_hat:], mu_hat) with no operator
    built, as B = ``optimal_B(S_F0, plan)``'s top eigenpairs in B's order, zero masses kept
    (their rows hold signed zeros): the bits of ``realize_frame(B, beta)``, checked by ``plan``.
    """
    completion_plan = plan(problem)
    bounds = lower_bounds(completion_plan.nu)
    added = completed = None
    if completion_plan.feasible:
        mass = np.zeros(problem.d)
        mass[completion_plan.r_hat :] = completion_plan.mu_hat
        top = np.argsort(-mass, kind="stable")[: problem.k]
        added = _realize(frame_operator(problem.initial).eigenvectors[:, top], mass[top],
                         problem.beta, _chain)
        # No second finiteness test: F0 passed Frame's, and added = V sigma^1/2 U*
        # (orthonormal V, orthogonal U, sum(sigma) <= t, which nu found finite)
        # has no entry above sqrt(t).  Both parts are real, or both complex.
        completed = Frame._trusted(np.hstack([problem.initial.synthesis, added]))
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
        "nu": result.nu.values.tolist(),
        "unique_B": result.unique_B,
        "F1": f1,
        "lower_bounds": dict(result.lower_bounds),
    }
