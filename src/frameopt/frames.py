"""Finite frame algebra: frame operators, duals, potentials, JSON format.

A frame is an ordered list of n vectors in C^d stored as the columns of a
d x n synthesis matrix.  Nothing is ever normalized implicitly.
"""

from __future__ import annotations

import numpy as np

from .core_linalg import HermitianPSD
from .errors import NotSpanning, ShapeMismatch, SingularFrameOperator
from .majorization import GATE_TOL, PotentialKind, trace_f


class Frame:
    """Ordered vector family in C^d, stored as a d x n synthesis matrix."""

    __slots__ = ("_synthesis", "_operator")

    def __init__(self, synthesis):
        arr = np.asarray(synthesis)
        if arr.ndim != 2:
            raise ShapeMismatch(f"synthesis must be a matrix, got shape {arr.shape}")
        d, n = arr.shape
        if d < 1 or n < 1:
            raise ShapeMismatch("frame needs at least one vector in dimension >= 1")
        dtype = complex if np.iscomplexobj(arr) else float
        mat = np.array(arr, dtype=dtype, copy=True)
        if not np.isfinite(mat).all():
            raise ShapeMismatch("frame entries must be finite")
        mat.flags.writeable = False
        self._synthesis = mat
        self._operator = None

    @property
    def d(self) -> int:
        return self._synthesis.shape[0]

    @property
    def n(self) -> int:
        return self._synthesis.shape[1]

    @property
    def synthesis(self) -> np.ndarray:
        return self._synthesis

    @property
    def analysis(self) -> np.ndarray:
        return self._synthesis.conj().T

    def vector(self, i: int) -> np.ndarray:
        return self._synthesis[:, i]

    def operator(self) -> HermitianPSD:
        if self._operator is None:
            s = self._synthesis @ self._synthesis.conj().T
            self._operator = HermitianPSD((s + s.conj().T) / 2.0, _symmetrized=True)
        return self._operator

    @property
    def spanning(self) -> bool:
        """Whether the smallest operator eigenvalue clears 1e-8 times the largest."""
        w = self.operator().eigenvalues.values
        return bool(w[-1] > GATE_TOL * w[0])

    def __repr__(self) -> str:
        return f"Frame(d={self.d}, n={self.n})"


def frame_operator(frame: Frame) -> HermitianPSD:
    """Sum of the rank-one outer products f_i f_i*."""
    return frame.operator()


def frame_bounds(frame: Frame):
    """Optimal constants (A, B) = (smallest, largest) operator eigenvalues."""
    if not frame.spanning:
        raise NotSpanning("frame bounds need a spanning frame")
    w = frame.operator().eigenvalues.values
    return float(w[-1]), float(w[0])


def inverse_operator(frame: Frame) -> HermitianPSD:
    """S_F^{-1} on the frame operator's eigenbasis; SingularFrameOperator if S is subnormal."""
    if not frame.spanning:
        raise NotSpanning("inverse frame operator needs a spanning frame")
    op = frame.operator()
    w = op.eigenvalues.values
    if w[-1] < np.finfo(float).tiny:
        raise SingularFrameOperator(f"frame operator eigenvalue {w[-1]:.3e} is subnormal")
    return HermitianPSD._trusted(1.0 / w, op.eigenvectors)


def canonical_dual(frame: Frame) -> Frame:
    """Frame whose vectors are S^{-1} f_i."""
    return Frame(inverse_operator(frame).matrix @ frame.synthesis)


def duality_residual(frame: Frame, other: Frame) -> float:
    """Frobenius distance of synthesis(other) @ analysis(frame) from identity."""
    if frame.d != other.d or frame.n != other.n:
        raise ShapeMismatch("frames must share the same (d, n)")
    prod = other.synthesis @ frame.analysis
    return float(np.linalg.norm(prod - np.eye(frame.d)))


def is_dual(frame: Frame, other: Frame, tol: float = GATE_TOL) -> bool:
    """Whether ``other`` reconstructs with ``frame``: sum g_i f_i* = identity within tol."""
    return duality_residual(frame, other) <= tol


def potential(frame: Frame, kind: PotentialKind) -> float:
    """Convex potential tr f(S) evaluated on the frame-operator spectrum."""
    if kind is PotentialKind.MEAN_SQUARE_ERROR and not frame.spanning:
        raise SingularFrameOperator("mean square error needs an invertible frame operator")
    return trace_f(frame.operator().eigenvalues, kind)


def frame_to_json(frame: Frame) -> dict:
    """JSON object {"d", "n", "vectors"} with entries as [re, im] pairs."""
    arr = frame.synthesis
    vectors = []
    for i in range(frame.n):
        col = arr[:, i]
        vectors.append([[float(z.real), float(z.imag)] for z in col])
    return {"d": frame.d, "n": frame.n, "vectors": vectors}


def _entry_to_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry, 0.0)
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(p, (int, float)) for p in entry)
    ):
        return complex(entry[0], entry[1])
    raise ValueError(f"vector entry must be a number or [re, im], got {entry!r}")


def frame_from_json(obj) -> Frame:
    """Parse the frame JSON format; bare numbers mean zero imaginary part."""
    if not isinstance(obj, dict):
        raise ValueError("frame JSON must be an object")
    try:
        d = int(obj["d"])
        n = int(obj["n"])
        vectors = obj["vectors"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"frame JSON needs integer d, n and vectors: {exc}") from exc
    if not isinstance(vectors, list) or len(vectors) != n:
        raise ValueError(f"expected {n} vectors")
    cols = np.zeros((d, n), dtype=complex)
    for i, vec in enumerate(vectors):
        if not isinstance(vec, list) or len(vec) != d:
            raise ValueError(f"vector {i} must have {d} entries")
        for row, entry in enumerate(vec):
            cols[row, i] = _entry_to_complex(entry)
    if np.all(cols.imag == 0.0):
        return Frame(cols.real)
    return Frame(cols)
