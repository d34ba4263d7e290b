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
computes the cutoff ``r`` and the level ``c`` for a batch of B traces, with
its tests laid out (B, d), one row per trace: the scalar ``nu`` runs the same
code on one contiguous row.  Every public function validates its inputs once
(spectrum and ``m`` by ``_check_m``, trace) and then calls it; ``nu`` wraps the spectrum it
assembles by ``SpectrumVec._trusted``, with no second test.  ``irregularity`` and
``c_lambda`` are its ``m = 0`` cases, and ``s_star`` / ``s_star_star`` are
the trace thresholds where the rank bound starts to bite and where the level
passes the top of the spectrum.  ``_check_trace`` owns the trace rule, which
every entry point taking a trace applies before any kernel runs: t real and finite
even times 1 + DEFAULT_TOL, which keeps c + TIE_TOL * t and tr(nu) finite (ValueError),
and at least tr(lam) * (1 - DEFAULT_TOL) (BadTrace), then clamped up to tr(lam);
``in_lambda_set`` applies only the real and finite part.  The slack of the solvers
and of membership is DEFAULT_TOL times the trace.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import BadM, BadTrace, LengthMismatch
from .majorization import DEFAULT_TOL, TIE_TOL, SpectrumVec, _real, _reals, spectrum_values


class Regime(enum.Enum):
    """Which piece of the minimal-spectrum rule applies at trace t."""

    AT_OR_BELOW_S_STAR = "at_or_below_s_star"
    BETWEEN = "between"
    AT_OR_ABOVE_S_STAR_STAR = "at_or_above_s_star_star"


class NuBreakdown(NamedTuple):
    """Minimal spectrum at trace t together with its building blocks.

    ``kept`` is r' = max(r, m): the top ``kept`` entries of ``lam`` stay as
    they are.  ``increment`` holds the masses c - lam_i, i > kept (read-only),
    that both solvers place on the trailing ``d - kept`` eigenvectors:
    completion factors them into vectors of prescribed norms, the optimal
    dual into orthonormal kernel directions.  A mass at most TIE_TOL * c is
    summation-order residue, which a square root would amplify: it is cut to 0.
    ``unique`` tells whether a single perturbed operator reaches ``nu``: true
    when m <= 0, when lam_m exceeds lam_{m+1}, or when t does not exceed s*,
    with ties decided within DEFAULT_TOL * lam_1.  Both solvers report it.
    """

    r: int
    c: float
    s_star: float | None
    s_star_star: float | None
    nu: SpectrumVec
    regime: Regime
    kept: int
    increment: np.ndarray
    unique: bool


def _check_trace(t, t0: float | None = None) -> float:
    """The trace rule, and t as a float: t real by ``_reals``' rule, finite, also times
    1 + DEFAULT_TOL (ValueError), and t >= t0 * (1 - DEFAULT_TOL) (BadTrace)."""
    t = _real(t)
    if not math.isfinite(t) or t * (1.0 + DEFAULT_TOL) == math.inf:
        raise ValueError(f"trace target must be finite, even times 1 + {DEFAULT_TOL}, got t = {t}")
    if t0 is not None and t < t0 * (1.0 - DEFAULT_TOL):
        raise BadTrace(f"trace target below tr(lambda) = {t0}")
    return t


def _check_m(lam, m) -> tuple[np.ndarray, int]:
    """The (lam, m) rule: lam's validated values, then m an integer below d (BadM)."""
    values = spectrum_values(lam)
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise BadM("m must be an integer")
    if m >= values.size:
        raise BadM(f"m must be smaller than d = {values.size}")
    return values, int(m)


def _thresholds(values: np.ndarray, m: int) -> tuple[float, float]:
    """(s*, s**) for a validated spectrum and 1 <= m < d."""
    head, tail = float(np.add.reduce(values[:m])), values.size - m
    return head + tail * float(values[m - 1]), tail * float(values[0]) + head


def _checked_thresholds(lam, m) -> tuple[float, float]:
    values, mm = _check_m(lam, m)
    if mm < 1:
        raise BadM("m must be at least 1")
    return _thresholds(values, mm)


def _waterfill(values: np.ndarray, m: int, tt: np.ndarray, sst: float | None = None):
    """Cutoff r and level c at each trace of ``tt`` (1-d, already clamped).

    The tests are laid out (B, d), one row per trace, so a single trace is
    one contiguous row.  For m >= 1 the level past s* has a closed form: it
    rises from lam_m, and the waterfilling search (the m = 0 case) runs only
    on the traces at or below s*; a caller holding s* passes it as ``sst``.
    The cutoff is then the first entry at or below the level.  The last
    column of each test holds exactly (t >= tr(lam) gives p(d-1, t) >= lam_d,
    and c >= lam_d), so it is set true rather than left to rounding.  Ties
    are decided within 1e-12 t, so exact-rational ties resolve the way the
    closed-form math dictates.
    """
    d = values.size
    slack = TIE_TOL * tt[:, None]
    if m >= 1:
        if sst is None:
            sst = _thresholds(values, m)[0]
        c = float(values[m - 1]) + (tt - sst) / (d - m)
        low = tt <= sst
        if np.count_nonzero(low):
            c[low] = _waterfill(values, 0, tt[low])[1]
        below = values <= c[:, None] + slack
        below[:, -1] = True
        return below.argmax(axis=1), c
    prefix = np.zeros(d)
    np.add.accumulate(values[:-1], out=prefix[1:])
    levels = np.subtract.outer(tt, prefix)
    levels /= np.arange(d, 0, -1, dtype=float)
    fits = levels >= values - slack
    fits[:, -1] = True
    r = fits.argmax(axis=1)
    return r, levels[np.arange(tt.size), r]


def _solve(lam, m, t):
    values, mm = _check_m(lam, m)
    t0, tt = float(values.sum()), _reals(t)
    if tt.size:  # min and max carry a NaN, and the extremes of the rest
        _check_trace(float(tt.min()), t0)
        _check_trace(float(tt.max()))
    return _waterfill(values, mm, np.maximum(tt, t0))


def _shaped_like(x: np.ndarray, t, scalar):
    """``scalar(x[0])`` for a scalar trace, else ``x`` in the shape of ``t``."""
    if np.ndim(t) == 0:
        return scalar(x[0])
    return x.reshape(np.shape(t))


def irregularity(lam, t):
    """Smallest r such that the level p(r, t) clears lam_{r+1}.

    p(r, t) = (t - lam_1 - ... - lam_r) / (d - r) is the average mass left
    for the last d - r slots.

    Equals 0 once t >= d * lam_1.  Accepts a scalar trace or an array of
    traces (an array comes back for an array).
    """
    return r_lambda_m(lam, 0, t)


def c_lambda(lam, t):
    """Waterfilling level p(r_lambda(t), t); strictly increasing in t."""
    return c_lambda_m(lam, 0, t)


def s_star(lam, m: int) -> float:
    """Trace at which the waterfilling level reaches lam_m."""
    return _checked_thresholds(lam, m)[0]


def s_star_star(lam, m: int) -> float:
    """Trace at which the rank-limited level reaches lam_1."""
    return _checked_thresholds(lam, m)[1]


def c_lambda_m(lam, m: int, t):
    """Waterfilling level under a rank-(d-m) budget for the added mass."""
    return _shaped_like(_solve(lam, m, t)[1], t, float)


def r_lambda_m(lam, m: int, t):
    """Smallest r with lam_{r+1} <= the rank-limited waterfilling level."""
    return _shaped_like(_solve(lam, m, t)[0], t, int)


def nu(lam, m: int, t) -> NuBreakdown:
    """Submajorization-minimal spectrum reachable at trace t.

    The top ``kept`` = max(r, m) entries of ``lam`` stay, the rest are
    raised to the level c; ``regime`` names the piece of the rule (t
    against s* and s**).  The result has trace t and is nonincreasing;
    whether it is entrywise above ``lam`` at the capped positions is the
    caller's membership question.  ``nu`` applies both solvers' trace rule
    (``_check_trace``), and an increment may fall below zero by
    DEFAULT_TOL * t (it is then cut to 0).  A t whose level c underflows
    (``nu([0, 0], 0, 5e-324)``) raises BadTrace too.
    """
    return _nu(*_check_m(lam, m), t)


def _nu(values: np.ndarray, m: int, t) -> NuBreakdown:
    d = values.size
    t0 = float(np.add.reduce(values))
    t = _check_trace(t, t0)
    t = t0 if t <= t0 else t  # as np.maximum: -0.0 becomes t0
    sst = sstst = None
    regime, unique = Regime.AT_OR_BELOW_S_STAR, True
    if m >= 1:
        sst, sstst = _thresholds(values, m)
        if t > sst:
            regime = Regime.AT_OR_ABOVE_S_STAR_STAR if t >= sstst else Regime.BETWEEN
            tie = DEFAULT_TOL * float(values[0])  # past s*, a tie at lam_m lets B rotate
            unique = float(values[m - 1]) - float(values[m]) > tie or t <= sst + tie
    # At or below s* the rank bound does not bite: the m = 0 search gives r and c at once.
    bites = regime is not Regime.AT_OR_BELOW_S_STAR
    r_arr, c_arr = _waterfill(values, m if bites else 0, np.array([t]), sst)
    r, c = int(r_arr[0]), float(c_arr[0])  # finite, as t and tr(lam) are
    kept = max(r, m)
    capped = r + d - kept  # the entries lam[r:kept] close the spectrum from here
    raised = np.empty(d)
    raised[:r] = values[:r]
    raised[r:capped] = c
    raised[capped:] = values[r:kept]
    # Trusted: raised holds validated entries of lam and the finite level c,
    # in order, since the cutoff rule leaves lam_1..lam_r above c and the
    # rest at most TIE_TOL * t above it; a c below 0 is rounding residue
    # (about -4e-19 at t = tr(lam) with a zero tail), which the clamp zeroes.
    spectrum = SpectrumVec._trusted(raised)
    if abs(spectrum.trace() - t) > DEFAULT_TOL * t:
        if c < np.finfo(float).tiny:
            raise BadTrace(f"trace target {t} underflows the level c = {c}")
        raise ArithmeticError("assembled spectrum lost trace mass")
    increment = c - values[kept:]  # kept <= d - 1, so never empty
    if np.minimum.reduce(increment) < -DEFAULT_TOL * t:
        raise ArithmeticError("gap vector came out negative")
    increment[increment <= TIE_TOL * c] = 0.0
    increment.setflags(write=False)
    return NuBreakdown(r, c, sst, sstst, spectrum, regime, kept, increment, unique)


def minimizer_is_unique(lam, m: int, t) -> bool:
    """Whether one perturbed operator reaches the minimal spectrum: ``nu(lam, m, t).unique``."""
    return _nu(*_check_m(lam, m), t).unique


def _is_member(values: np.ndarray, m: int, t: float, mu_v: np.ndarray) -> bool:
    tol = DEFAULT_TOL * max(t, float(np.add.reduce(values)))  # a member's trace tops both
    if not np.all(mu_v >= values - tol):
        return False
    if mu_v.sum() < t - tol:
        return False
    if m >= 1 and not np.all(mu_v[values.size - m :] <= values[:m] + tol):
        return False
    return True


def in_lambda_set(lam, m: int, t, mu) -> bool:
    """Membership test for the reachable-spectra set at trace t.

    Checks mu >= lam entrywise, tr(mu) >= t, and for m >= 1 the shifted
    caps mu_{d-m+i} <= lam_i, all within DEFAULT_TOL * max(t, tr(lam)).
    ValueError for a non-finite t; a t below tr(lam) is allowed.
    """
    (values, mm), t = _check_m(lam, m), _check_trace(t)
    mu_v = _reals(mu)
    if mu_v.size != values.size:
        raise LengthMismatch(f"lengths differ: {mu_v.size} vs {values.size}")
    return _is_member(values, mm, t, spectrum_values(mu_v))


def sample_lambda_set(lam, m: int, t, rng_seed, scale: float | None = None) -> SpectrumVec:
    """Random member of the reachable-spectra set at trace t.

    Perturbs the minimal spectrum upward with nonnegative mass, respecting
    the shifted caps and the nonincreasing order, so the result is a member
    by construction (verified; falls back to the minimal spectrum itself).
    ``scale`` defaults to a quarter of the minimal spectrum's top entry, so
    samples follow a rescaling of lam and t; ``scale=0`` returns it unchanged.
    ``scale`` is real by ``_reals``' rule; ValueError for a non-finite or negative one.
    """
    (values, mm), t = _check_m(lam, m), _check_trace(t)  # _is_member reads t as a float
    minimal = _nu(values, mm, t).nu
    base = minimal.values
    d = values.size
    scale = 0.25 * float(base[0]) if scale is None else _real(scale)
    if not 0.0 <= scale < math.inf:  # NaN fails both
        raise ValueError(f"scale must be finite and nonnegative, got {scale}")
    if scale == 0.0:
        return minimal
    rng = np.random.default_rng(rng_seed)
    cap = np.full(d, np.inf)
    if mm >= 1:
        cap[d - mm :] = values[:mm]
    draw = rng.uniform(0.0, scale, size=d) * (rng.random(d) < 0.7)
    out = np.empty(d)
    with np.errstate(over="ignore"):  # a sample whose mass overflows is no member
        for j in range(d - 1, -1, -1):
            lower = base[j] if j == d - 1 else max(base[j], out[j + 1])
            out[j] = min(cap[j], lower + draw[j])
        member = float(np.add.reduce(out)) < math.inf and _is_member(values, mm, t, out)
    return SpectrumVec(out) if member else minimal
