"""Waterfilling spectral model for rank-limited PSD perturbations.

Given a base spectrum ``lam`` (nonincreasing, nonnegative, length d), an
integer rank bound ``m < d`` and a trace target ``t >= tr(lam)``, the set of
reachable spectra is

    {mu nonincreasing : mu >= lam entrywise, tr(mu) >= t,
     and (if m >= 1) mu_{d-m+i} <= lam_i for i = 1..m}.

This module computes the unique spectrum ``nu`` in that set which is
minimal for submajorization.  It has a waterfilling shape: the trailing
eigenvalues are raised to a common level ``c`` while at most the top ``r``
entries of ``lam`` survive unchanged.  One private kernel, ``_waterfill``,
computes the cutoff ``r`` and the level ``c`` for a batch of traces; every
public function validates its inputs once (spectrum, ``m``, trace) and then
calls it.  ``irregularity`` and ``c_lambda`` are its ``m = 0`` cases, and
``s_star`` / ``s_star_star`` are the trace thresholds where the rank bound
starts to bite and where the level passes the top of the spectrum.  The
solvers' ``tol`` is relative to the trace; ``in_lambda_set``'s is absolute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BadIndex, BadM, BadTrace, LengthMismatch
from .majorization import DEFAULT_TOL, TIE_TOL, SpectrumVec, spectrum_values


class Regime(enum.Enum):
    """Which piece of the minimal-spectrum rule applies at trace t."""

    AT_OR_BELOW_S_STAR = "at_or_below_s_star"
    BETWEEN = "between"
    AT_OR_ABOVE_S_STAR_STAR = "at_or_above_s_star_star"


@dataclass(frozen=True)
class NuBreakdown:
    """Minimal spectrum at trace t together with its building blocks.

    ``kept`` is r' = max(r, m): the top ``kept`` entries of ``lam`` stay as
    they are.  ``increment`` holds the masses c - lam_i, i > kept (clamped
    at 0, read-only), that both solvers place on the trailing ``d - kept``
    eigenvectors: completion factors them into vectors of prescribed norms,
    the optimal dual into orthonormal kernel directions.
    """

    r: int
    c: float
    s_star: float | None
    s_star_star: float | None
    nu: SpectrumVec
    regime: Regime
    kept: int
    increment: np.ndarray


def _clamped_trace(values: np.ndarray, t, tol: float):
    """Validate t >= tr(values) * (1 - tol) and clamp upstream rounding."""
    t0 = float(values.sum())
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < t0 * (1.0 - tol)):
        raise BadTrace(f"trace target below tr(lambda) = {t0}")
    return np.maximum(t_arr, t0)


def _check_m(values: np.ndarray, m) -> int:
    if not isinstance(m, (int, np.integer)):
        raise BadM("m must be an integer")
    if m >= values.size:
        raise BadM(f"m must be smaller than d = {values.size}")
    return int(m)


def _thresholds(values: np.ndarray, m: int) -> tuple[float, float]:
    """(s*, s**) for a validated spectrum and 1 <= m < d."""
    head, tail = values[:m].sum(), values.size - m
    return float(head + tail * values[m - 1]), float(tail * values[0] + head)


def _checked_thresholds(lam, m) -> tuple[float, float]:
    values = spectrum_values(lam)
    mm = _check_m(values, m)
    if mm < 1:
        raise BadM("m must be at least 1")
    return _thresholds(values, mm)


def _waterfill(values: np.ndarray, m: int, tt: np.ndarray):
    """Cutoff r and level c at each trace of ``tt`` (1-d, already clamped).

    For m >= 1, past s* the level rises from lam_m and the cutoff is the
    first entry at or below it.  The last row of each test holds exactly
    (t >= tr(lam) gives p(d-1, t) >= lam_d, and c >= lam_d), so it is set
    true rather than left to rounding.  Ties are decided within 1e-12 t, so
    exact-rational ties resolve the way the closed-form math dictates.
    """
    d = values.size
    prefix = np.concatenate(([0.0], np.cumsum(values)))[:d]
    denom = (d - np.arange(d)).astype(float)
    levels = (tt[None, :] - prefix[:, None]) / denom[:, None]
    slack = TIE_TOL * tt
    fits = levels >= values[:, None] - slack
    fits[-1] = True
    r = np.argmax(fits, axis=0)
    c = levels[r, np.arange(tt.size)]
    if m >= 1:
        sst = _thresholds(values, m)[0]
        c = np.where(tt <= sst, c, values[m - 1] + (tt - sst) / (d - m))
        below = values[:, None] <= c[None, :] + slack
        below[-1] = True
        r = np.argmax(below, axis=0)
    return r, c


def _solve(lam, m, t, tol: float):
    values = spectrum_values(lam)
    mm = _check_m(values, m)
    tt = _clamped_trace(values, t, tol)
    return _waterfill(values, mm, tt.reshape(-1))


def _shaped_like(x: np.ndarray, t, scalar):
    """``scalar(x[0])`` for a scalar trace, else ``x`` in the shape of ``t``."""
    if np.ndim(t) == 0:
        return scalar(x[0])
    return x.reshape(np.shape(t))


def p_lambda(lam, r: int, t) -> float:
    """Average mass left for the last d - r slots after keeping lam_1..lam_r."""
    values = spectrum_values(lam)
    d = values.size
    if not isinstance(r, (int, np.integer)) or not (0 <= r <= d - 1):
        raise BadIndex(f"r must be an integer in [0, {d - 1}]")
    head = float(values[:r].sum())
    return (np.asarray(t, dtype=float) - head) / (d - r)


def irregularity(lam, t, tol: float = DEFAULT_TOL):
    """Smallest r such that the waterfilling level p(r, t) clears lam_{r+1}.

    Equals 0 once t >= d * lam_1.  Accepts a scalar trace or an array of
    traces (an array comes back for an array).
    """
    return r_lambda_m(lam, 0, t, tol)


def c_lambda(lam, t, tol: float = DEFAULT_TOL):
    """Waterfilling level p(r_lambda(t), t); strictly increasing in t."""
    return c_lambda_m(lam, 0, t, tol)


def s_star(lam, m: int) -> float:
    """Trace at which the waterfilling level reaches lam_m."""
    return _checked_thresholds(lam, m)[0]


def s_star_star(lam, m: int) -> float:
    """Trace at which the rank-limited level reaches lam_1."""
    return _checked_thresholds(lam, m)[1]


def c_lambda_m(lam, m: int, t, tol: float = DEFAULT_TOL):
    """Waterfilling level under a rank-(d-m) budget for the added mass."""
    return _shaped_like(_solve(lam, m, t, tol)[1], t, float)


def r_lambda_m(lam, m: int, t, tol: float = DEFAULT_TOL):
    """Smallest r with lam_{r+1} <= the rank-limited waterfilling level."""
    return _shaped_like(_solve(lam, m, t, tol)[0], t, int)


def nu(lam, m: int, t, tol: float = DEFAULT_TOL) -> NuBreakdown:
    """Submajorization-minimal spectrum reachable at trace t.

    The top ``kept`` = max(r, m) entries of ``lam`` stay, the rest are
    raised to the level c; ``regime`` names the piece of the rule (t
    against s* and s**).  The result has trace t and is nonincreasing;
    whether it is entrywise above ``lam`` at the capped positions is the
    caller's membership question.  ``tol`` is relative: t may fall short
    of tr(lam) by tol * tr(lam), and an increment may come out below zero
    by tol * t from rounding (it is then clamped at 0).
    """
    values = spectrum_values(lam)
    return _nu(values, _check_m(values, m), t, tol)


def _nu(values: np.ndarray, m: int, t, tol: float) -> NuBreakdown:
    d = values.size
    t = float(_clamped_trace(values, np.float64(t), tol))
    r_arr, c_arr = _waterfill(values, m, np.array([t]))
    r, c = int(r_arr[0]), float(c_arr[0])
    kept = max(r, m)
    sst = sstst = None
    regime = Regime.AT_OR_BELOW_S_STAR
    if m >= 1:
        sst, sstst = _thresholds(values, m)
        if t > sst:
            regime = Regime.AT_OR_ABOVE_S_STAR_STAR if t >= sstst else Regime.BETWEEN
    spectrum = SpectrumVec(np.concatenate((values[:r], np.full(d - kept, c), values[r:kept])))
    if abs(spectrum.trace() - t) > DEFAULT_TOL * t:
        raise ArithmeticError("assembled spectrum lost trace mass")
    increment = c - values[kept:]
    if np.any(increment < -tol * t):
        raise ArithmeticError("gap vector came out negative")
    increment = np.maximum(increment, 0.0)
    increment.flags.writeable = False
    return NuBreakdown(r=r, c=c, s_star=sst, s_star_star=sstst, nu=spectrum, regime=regime,
                       kept=kept, increment=increment)


def minimizer_is_unique(lam, m: int, t, tol: float = DEFAULT_TOL) -> bool:
    """Whether the minimal spectrum is reached by a unique perturbed operator.

    True when m <= 0, when lam_m exceeds lam_{m+1}, or when t does not
    exceed the rank threshold s*; otherwise the perturbation can be rotated
    inside the tied eigenspace.  Ties are decided within tol * lam_1.
    """
    values = spectrum_values(lam)
    mm = _check_m(values, m)
    if mm <= 0:
        return True
    tie = tol * float(values[0])
    if values[mm - 1] - values[mm] > tie:
        return True
    return float(t) <= _thresholds(values, mm)[0] + tie


def _is_member(values: np.ndarray, m: int, t, mu_v: np.ndarray, tol: float) -> bool:
    if not np.all(mu_v >= values - tol):
        return False
    if mu_v.sum() < float(t) - tol:
        return False
    if m >= 1 and not np.all(mu_v[values.size - m :] <= values[:m] + tol):
        return False
    return True


def in_lambda_set(lam, m: int, t, mu, tol: float = DEFAULT_TOL) -> bool:
    """Membership test for the reachable-spectra set at trace t.

    Checks mu >= lam entrywise, tr(mu) >= t, and for m >= 1 the shifted
    caps mu_{d-m+i} <= lam_i, all within tol.
    """
    values = spectrum_values(lam)
    mm = _check_m(values, m)
    mu_v = np.asarray(getattr(mu, "values", mu), dtype=float).reshape(-1)
    if mu_v.size != values.size:
        raise LengthMismatch(f"lengths differ: {mu_v.size} vs {values.size}")
    return _is_member(values, mm, t, spectrum_values(mu_v), tol)


def sample_lambda_set(lam, m: int, t, rng_seed, scale: float | None = None) -> SpectrumVec:
    """Random member of the reachable-spectra set at trace t.

    Perturbs the minimal spectrum upward with nonnegative mass, respecting
    the shifted caps and the nonincreasing order, so the result is a member
    by construction (verified; falls back to the minimal spectrum itself).
    ``scale=0`` returns the minimal spectrum unchanged.
    """
    values = spectrum_values(lam)
    mm = _check_m(values, m)
    minimal = _nu(values, mm, t, DEFAULT_TOL).nu
    base = minimal.values
    d = values.size
    if scale is None:  # a perturbation size, not a tolerance
        scale = 0.25 * (1.0 + float(values[0]))
    if scale == 0.0:
        return minimal
    rng = np.random.default_rng(rng_seed)
    cap = np.full(d, np.inf)
    if mm >= 1:
        cap[d - mm :] = values[:mm]
    draw = rng.uniform(0.0, scale, size=d) * (rng.random(d) < 0.7)
    out = np.empty(d)
    for j in range(d - 1, -1, -1):
        lower = base[j] if j == d - 1 else max(base[j], out[j + 1])
        out[j] = min(cap[j], lower + draw[j])
    sample = SpectrumVec(out)
    if not _is_member(values, mm, t, sample.values, DEFAULT_TOL * float(t)):
        return minimal
    return sample
