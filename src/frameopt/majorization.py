"""Vector preorders (majorization, submajorization, entrywise) and tracial sums.

All predicates work on plain 1-d real arrays; ``SpectrumVec`` is the
validated container used wherever a vector is known to be an eigenvalue
list (nonincreasing, nonnegative).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError, LengthMismatch

# Tolerance factors: every slack is one of them times the scale of what it
# compares (a norm, top eigenvalue or trace, never 1 + scale), so answers
# follow a rescaling F -> aF.  A solver's ``tol`` is relative too; a
# predicate's ``tol`` is absolute (the caller supplies both sides).
DEFAULT_TOL = 1e-9  # solver default; traces, spectrum order and sign
TIE_TOL = 1e-12  # waterfilling ties, the increment cut, unit rotations
PSD_TOL = 1e-10  # symmetry, positive semidefiniteness, numerical rank
GATE_TOL = 1e-8  # conditioning gates, orthonormality, phase pivots, the duality test


class SpectrumVec:
    """Nonincreasing, nonnegative real vector (an eigenvalue list).

    Order and sign are checked with a slack of DEFAULT_TOL * max|v|;
    entries within it below zero are clamped to zero, and genuinely
    negative or out-of-order input is rejected.  The input is copied.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=float).reshape(-1)
        if v.size == 0:
            raise ValueError("spectrum must have at least one entry")
        top = float(np.maximum.reduce(np.abs(v)))  # NaN and +-inf propagate through max
        if not math.isfinite(top):
            raise ValueError("spectrum entries must be finite")
        slack = DEFAULT_TOL * top
        if np.count_nonzero(v[1:] > v[:-1] + slack):
            raise ValueError("spectrum entries must be nonincreasing")
        if float(v[-1]) < -slack:
            raise ValueError("spectrum entries must be nonnegative")
        np.maximum(v, 0.0, out=v)
        v.setflags(write=False)
        self.values = v

    @property
    def d(self) -> int:
        return self.values.size

    def trace(self) -> float:
        return float(np.add.reduce(self.values))

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectrumVec):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __repr__(self) -> str:
        return f"SpectrumVec({self.values.tolist()!r})"


def spectrum_values(x) -> np.ndarray:
    """Coerce a SpectrumVec or array-like spectrum to its validated ndarray."""
    if isinstance(x, SpectrumVec):
        return x.values
    return SpectrumVec(x).values


class PotentialKind(enum.Enum):
    """Convex potentials applied entrywise to a spectrum."""

    FRAME_POTENTIAL = "fp"  # x^2
    MEAN_SQUARE_ERROR = "mse"  # 1/x, needs x > 0
    NEG_ENTROPY = "xlogx"  # x log x, with 0 log 0 := 0

    @classmethod
    def from_name(cls, name: str) -> "PotentialKind":
        return cls(name)


def sort_desc(x) -> np.ndarray:
    """Rearrangement of x in nonincreasing order (stable, returns a copy)."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    return -np.sort(-v, kind="stable")


def _pair(x, y):
    xv = np.asarray(getattr(x, "values", x), dtype=float).reshape(-1)
    yv = np.asarray(getattr(y, "values", y), dtype=float).reshape(-1)
    if xv.size != yv.size:
        raise LengthMismatch(f"lengths differ: {xv.size} vs {yv.size}")
    return xv, yv


def submajorizes(y, x, tol: float = DEFAULT_TOL) -> bool:
    """True iff x is submajorized by y: every k-prefix sum of the descending
    rearrangement of x is at most that of y, within tol."""
    xv, yv = _pair(x, y)
    cx = np.cumsum(sort_desc(xv))
    cy = np.cumsum(sort_desc(yv))
    return bool(np.all(cx <= cy + tol))


def majorizes(y, x, tol: float = DEFAULT_TOL) -> bool:
    """True iff x is majorized by y: submajorized plus equal trace within tol."""
    xv, yv = _pair(x, y)
    if abs(xv.sum() - yv.sum()) > tol:
        return False
    return submajorizes(yv, xv, tol)


def entrywise_leq(x, y, tol: float = DEFAULT_TOL) -> bool:
    """True iff x_i <= y_i + tol for every position i."""
    xv, yv = _pair(x, y)
    return bool(np.all(xv <= yv + tol))


def trace_f(x, kind: PotentialKind) -> float:
    """Sum of f(x_i) for the potential ``kind``; a frame potential or mean square
    error that overflows (x huge, or x subnormal for 1/x) is inf."""
    v = np.asarray(getattr(x, "values", x), dtype=float).reshape(-1)
    if kind is PotentialKind.FRAME_POTENTIAL:
        with np.errstate(over="ignore"):
            return float(np.sum(v * v))
    if kind is PotentialKind.MEAN_SQUARE_ERROR:
        if np.any(v <= 0.0):
            raise DomainError("mean square error needs strictly positive entries")
        with np.errstate(over="ignore"):
            return float(np.sum(1.0 / v))
    if kind is PotentialKind.NEG_ENTROPY:
        if np.any(v < 0.0):
            raise DomainError("x log x needs nonnegative entries")
        pos = v[v > 0.0]
        return float(np.sum(pos * np.log(pos)))
    raise TypeError(f"unsupported potential kind {kind!r}")
