"""Vector preorders (majorization, submajorization, entrywise) and tracial sums.

All predicates work on plain 1-d real arrays, read by ``_reals``: complex input
only when every imaginary part is exactly 0 (else ValueError), as its real part.
``SpectrumVec`` is the container used wherever a vector is known to be an
eigenvalue list (nonincreasing, nonnegative): validated when it comes from
outside, trusted when the library has just made it.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

from .errors import DomainError, LengthMismatch

# Tolerance factors: every slack is one of them times the scale of what it
# compares (a norm, top eigenvalue or trace, never 1 + scale), so answers
# follow a rescaling F -> aF.  No public function takes a ``tol``: DEFAULT_TOL is
# scaled by a trace in the solvers, Schur-Horn and ``in_lambda_set``, by ||y||_1 or
# max|entry| in the predicates here, and by 1 in ``parseval_dual_exists`` (against I).
DEFAULT_TOL = 1e-9  # solver and predicate slack; traces, spectrum order and sign
TIE_TOL = 1e-12  # waterfilling ties, the increment cut, unit rotations
PSD_TOL = 1e-10  # symmetry, positive semidefiniteness, numerical rank
GATE_TOL = 1e-8  # conditioning gates, orthonormality, phase pivots, the duality test


def _numbers(x, error=ValueError) -> np.ndarray:
    """x's entries as a float array, or a complex one when any entry is complex: the library's
    one cast of an argument.  ``error`` for text, bytes or another entry that is not a number
    (an object array is read entry by entry) and for an integer past the float range."""
    if type(x) is np.ndarray and x.dtype == np.float64:  # already what the cast makes
        return x
    v = np.asarray(x)
    kind = v.dtype.kind
    if kind == "O" and all(isinstance(e, numbers.Number) for e in v.flat):  # as for 10**400
        kind = "c" if any(isinstance(e, (complex, np.complexfloating)) for e in v.flat) else "f"
    if kind not in "biufc":
        raise error(f"entries must be numbers, got {v.dtype}")
    try:
        return np.asarray(v, dtype=complex if kind == "c" else float)
    except OverflowError as exc:  # an integer past the float range
        raise error("entries must be finite") from exc


def _reals(x) -> np.ndarray:
    """x (a SpectrumVec, or array-like) read by ``_numbers`` as a 1-d float array: ValueError for
    a nonzero imaginary part, a fresh copy of the real part when all are 0."""
    v = _numbers(x.values if isinstance(x, SpectrumVec) else x)
    if v.dtype.kind == "c":
        if np.count_nonzero(v.imag):
            raise ValueError("entries must be real, got a nonzero imaginary part")
        v = v.real.copy()
    return v.reshape(-1)


def _real(x) -> float:
    """x (a number, or a 1-element array-like) as a float, by ``_reals``' rule."""
    return float(x) if isinstance(x, float) else _reals(x).item()  # floats skip the array


class SpectrumVec:
    """Nonincreasing, nonnegative real vector (an eigenvalue list).

    Order and sign are checked with a slack of DEFAULT_TOL * max|v|;
    entries within it below zero are clamped to zero, and genuinely
    negative or out-of-order input is rejected.  The input is copied.

    ``SpectrumVec._trusted`` wraps a spectrum the library has just made
    and clamped (``nu``'s assembled result, sorted ``eigh`` output) without
    these tests: it only marks the array read-only.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = _reals(values)
        vals = v.tolist()  # the tests run on Python floats, the same IEEE operations
        if not vals:
            raise ValueError("spectrum must have at least one entry")
        if not all(map(math.isfinite, vals)):  # max would skip a NaN inside the list
            raise ValueError("spectrum entries must be finite")
        slack = DEFAULT_TOL * max(map(abs, vals))
        if any(b > a + slack for a, b in zip(vals, vals[1:])):
            raise ValueError("spectrum entries must be nonincreasing")
        if vals[-1] < -slack:
            raise ValueError("spectrum entries must be nonnegative")
        v = np.maximum(v, 0.0)  # the one copy: v may be the caller's array
        v.setflags(write=False)
        self.values = v

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "SpectrumVec":
        """Wrap a fresh, finite, nonincreasing 1-d float array, marked read-only here.

        No copy and no finiteness, order or sign test: the caller vouches for
        them, and has clamped a rounding residue such as a level of -4e-19 to
        0 (+0.0, as ``np.maximum(v, 0.0)`` in the validating constructor).
        """
        values.setflags(write=False)
        self = cls.__new__(cls)
        self.values = values
        return self

    def trace(self) -> float:
        return float(np.add.reduce(self.values))

    def __repr__(self) -> str:
        return f"SpectrumVec({self.values.tolist()!r})"


def spectrum_values(x) -> np.ndarray:
    """Coerce a SpectrumVec or array-like spectrum to its validated ndarray."""
    return x.values if isinstance(x, SpectrumVec) else SpectrumVec(x).values


class PotentialKind(enum.Enum):
    """Convex potentials applied entrywise to a spectrum."""

    FRAME_POTENTIAL = "fp"  # x^2
    MEAN_SQUARE_ERROR = "mse"  # 1/x, needs x > 0
    NEG_ENTROPY = "xlogx"  # x log x, with 0 log 0 := 0


def sort_desc(x) -> np.ndarray:
    """Rearrangement of x in nonincreasing order (stable, returns a copy)."""
    return _sorted_desc(_reals(x))


def _sorted_desc(v: np.ndarray) -> np.ndarray:
    """``sort_desc`` on a 1-d float array ``_reals`` has already read."""
    if not np.isfinite(v).all():
        raise ValueError("entries must be finite")
    return -np.sort(-v, kind="stable")


def _pair(x, y):
    xv, yv = _reals(x), _reals(y)
    if xv.size != yv.size:
        raise LengthMismatch(f"lengths differ: {xv.size} vs {yv.size}")
    return xv, yv


def _prefix_sums_within(y, x):
    """Descending rearrangements of x and y, the slack DEFAULT_TOL * ||y||_1, and whether every
    prefix sum of x's is at most y's plus it.  Lengths and finiteness are checked first, then
    an ||y||_1 that overflows raises DomainError: that slack would accept any x."""
    xv, yv = _pair(x, y)
    xs, ys = _sorted_desc(xv), _sorted_desc(yv)
    with np.errstate(over="ignore"):  # an x whose prefix sum overflows is not within
        tol = DEFAULT_TOL * float(np.add.reduce(np.abs(yv)))
        if tol == math.inf:
            raise DomainError("the 1-norm of y overflows")
        return xs, ys, tol, bool((xs.cumsum() <= ys.cumsum() + tol).all())


def submajorizes(y, x) -> bool:
    """True iff x is submajorized by y: every k-prefix sum of the descending
    rearrangement of x is at most that of y, within DEFAULT_TOL * ||y||_1."""
    return _prefix_sums_within(y, x)[3]


def majorizes(y, x) -> bool:
    """True iff x is majorized by y: submajorized plus equal trace within
    DEFAULT_TOL * ||y||_1 (the traces are summed over the descending rearrangements)."""
    xs, ys, tol, within = _prefix_sums_within(y, x)
    return within and not abs(float(np.add.reduce(xs)) - float(np.add.reduce(ys))) > tol


def entrywise_leq(x, y) -> bool:
    """True iff every x_i <= y_i + DEFAULT_TOL * max|entry|; ValueError for a non-finite one."""
    xv, yv = _pair(x, y)
    top = float(np.maximum.reduce(np.abs(np.concatenate((xv, yv))), initial=0.0))
    if not math.isfinite(top):  # NaN and +-inf propagate through max
        raise ValueError("entries must be finite")
    with np.errstate(over="ignore"):  # a y_i + slack past the float range is inf, above x_i
        return bool(np.all(xv <= yv + DEFAULT_TOL * top))


def trace_f(x, kind: PotentialKind) -> float:
    """Sum of f(x_i) for the potential ``kind``; a sum that overflows (x huge,
    or x subnormal for 1/x) is inf."""
    v = _reals(x)
    if kind is PotentialKind.FRAME_POTENTIAL:
        with np.errstate(over="ignore"):
            return float(np.add.reduce(v * v))
    if kind is PotentialKind.MEAN_SQUARE_ERROR:
        if (v <= 0.0).any():
            raise DomainError("mean square error needs strictly positive entries")
        with np.errstate(over="ignore"):
            return float(np.add.reduce(1.0 / v))
    if kind is PotentialKind.NEG_ENTROPY:
        if (v < 0.0).any():
            raise DomainError("x log x needs nonnegative entries")
        pos = v[v > 0.0]
        with np.errstate(over="ignore"):
            return float(np.add.reduce(pos * np.log(pos)))
    raise TypeError(f"unsupported potential kind {kind!r}")
