"""Finite frame algebra: frame operators, duals, potentials, JSON format.

A frame is an ordered list of n vectors in C^d stored as the columns of a
d x n synthesis matrix.  Nothing is ever normalized implicitly.  The
spanning gate, ``potential`` and the dual side read S_F's spectrum as
sigma^2 from one cached SVD T = U diag(sigma) V*; the completion side and
``frame_operator`` read Gram plus ``eigh`` (``operator``), cheaper there.
"""

from __future__ import annotations

import numpy as np

from .core_linalg import HermitianPSD, _eigh, _fix_phases
from .errors import DomainError, NotSpanning, ShapeMismatch, SingularFrameOperator
from .majorization import GATE_TOL, PotentialKind, _numbers, trace_f


class Frame:
    """Ordered vector family in C^d, stored as a d x n synthesis matrix."""

    __slots__ = ("_synthesis", "_operator", "_svd")

    def __init__(self, synthesis):
        arr = _numbers(synthesis, ShapeMismatch)  # raw: a list may mix bools with numbers
        if arr.ndim != 2:
            raise ShapeMismatch(f"synthesis must be a matrix, got shape {arr.shape}")
        d, n = arr.shape
        if d < 1 or n < 1:
            raise ShapeMismatch("frame needs at least one vector in dimension >= 1")
        mat = arr.copy()  # the caller's float array is read as is
        if not np.isfinite(mat).all():
            raise ShapeMismatch("frame entries must be finite")
        mat.flags.writeable = False
        self._synthesis = mat
        self._operator = self._svd = None

    @classmethod
    def _trusted(cls, synthesis: np.ndarray) -> "Frame":
        """Wrap a fresh, finite, nonempty d x n float or complex array: no copy, no test."""
        synthesis.flags.writeable = False
        self = cls.__new__(cls)
        self._synthesis = synthesis
        self._operator = self._svd = None
        return self

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
        """S = T T*, made once; DomainError where its entries overflow."""
        if self._operator is None:
            with np.errstate(over="ignore", invalid="ignore"):  # complex inf - inf is nan
                s = self._synthesis @ self._synthesis.conj().T
            if not np.isfinite(s).all():
                raise DomainError("frame operator entries overflow")
            # HermitianPSD(s) without _check_square's second test and a copy of s
            self._operator = HermitianPSD.__new__(HermitianPSD)._set(*_eigh(s), s)
        return self._operator

    @property
    def spanning(self) -> bool:
        """Whether n >= d and sigma_d^2 > 1e-8 sigma_1^2, as a ratio that cannot overflow."""
        s = _svd(self)[1]
        return bool(self.n >= self.d and s[0] > 0.0 and (s[-1] / s[0]) ** 2 > GATE_TOL)

    def __repr__(self) -> str:
        return f"Frame(d={self.d}, n={self.n})"


def _svd(frame: Frame):
    """The frame's SVD T = U diag(sigma) V*, made once, read-only, with min(d, n) sigma.

    Past its d-th row V* holds min(d, n - d) kernel rows, as many as a dual uses: the
    full SVD up to n = 2d, beyond that one of T over d zero rows, so V* stays 2d x n.
    """
    if frame._svd is None:
        d, n = frame.d, frame.n
        stacked = np.vstack((frame.synthesis, np.zeros((d if n > 2 * d else 0, n))))
        u, s, vh = np.linalg.svd(stacked, full_matrices=n <= 2 * d)
        frame._svd = u[:d, :d], s[:d], vh
        for arr in frame._svd:
            arr.flags.writeable = False
    return frame._svd


def frame_operator(frame: Frame) -> HermitianPSD:
    """Sum of the rank-one outer products f_i f_i*."""
    return frame.operator()


def _operator_svd(frame: Frame, what: str):
    """(U, sigma, V*) of a spanning frame whose sigma^2 is a finite float."""
    if not frame.spanning:
        raise NotSpanning(f"{what} needs a spanning frame")
    u, s, vh = _svd(frame)
    if s[0] > np.sqrt(np.finfo(float).max):
        raise DomainError(f"frame operator eigenvalue {s[0]:.3e}^2 overflows")
    return u, s, vh


def _inverse_svd(frame: Frame, what: str):
    """``_operator_svd``, and SingularFrameOperator unless sigma^-2 is finite too."""
    u, s, vh = _operator_svd(frame, what)
    if s[-1] ** 2 < np.finfo(float).tiny:
        raise SingularFrameOperator(f"frame operator eigenvalue {s[-1] ** 2:.3e} is subnormal")
    return u, s, vh


def frame_bounds(frame: Frame):
    """Optimal constants (A, B) = (sigma_d^2, sigma_1^2), the extreme operator eigenvalues."""
    s = _operator_svd(frame, "frame bounds")[1]
    return float(s[-1] ** 2), float(s[0] ** 2)


def inverse_operator(frame: Frame) -> HermitianPSD:
    """S_F^{-1} = U diag(sigma^-2) U*, U phase-fixed; SingularFrameOperator if S is subnormal."""
    u, s, _ = _inverse_svd(frame, "inverse frame operator")
    return HermitianPSD._trusted(1.0 / s**2, _fix_phases(u.copy()))


def canonical_dual(frame: Frame) -> Frame:
    """Frame whose vectors are S^{-1} f_i, with synthesis U diag(1/sigma) V_1*."""
    u, s, vh = _inverse_svd(frame, "canonical dual")
    return Frame._trusted((u / s) @ vh[: frame.d])  # finite: the gate keeps sigma_d^2 >= tiny


def duality_residual(frame: Frame, other: Frame) -> float:
    """Frobenius distance of synthesis(other) @ analysis(frame) from identity.

    inf when the product or the distance is past the float range.
    """
    if frame.d != other.d or frame.n != other.n:
        raise ShapeMismatch("frames must share the same (d, n)")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the product is nan
        prod = other.synthesis @ frame.analysis
        if not np.isfinite(prod).all():
            return np.inf
        return float(np.linalg.norm(prod - np.eye(frame.d)))


def is_dual(frame: Frame, other: Frame) -> bool:
    """Whether ``other`` reconstructs with ``frame``: ``duality_residual`` <= GATE_TOL."""
    return _duality(frame, other)[0]


def _duality(frame: Frame, other: Frame) -> tuple[bool, float]:
    """``is_dual``'s verdict together with the residual it reads."""
    residual = duality_residual(frame, other)
    return residual <= GATE_TOL, residual


def potential(frame: Frame, kind: PotentialKind) -> float:
    """Convex potential tr f(S) on the spectrum sigma^2 of S (its d - n zeros, if n < d, add 0)."""
    if kind is PotentialKind.MEAN_SQUARE_ERROR and not frame.spanning:
        raise SingularFrameOperator("mean square error needs an invertible frame operator")
    with np.errstate(over="ignore"):  # sigma^2 past the float range is inf, as its potential
        return trace_f(_svd(frame)[1] ** 2, kind)


def frame_to_json(frame: Frame) -> dict:
    """JSON object {"d", "n", "vectors"} with entries as [re, im] pairs."""
    arr = frame.synthesis
    vectors = np.stack((arr.real, arr.imag), axis=-1).transpose(1, 0, 2).tolist()
    return {"d": frame.d, "n": frame.n, "vectors": vectors}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry_to_complex(entry) -> complex:
    try:
        if _is_real(entry):
            return complex(entry, 0.0)
        if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_is_real, entry)):
            return complex(entry[0], entry[1])
    except OverflowError as exc:  # an integer past the float range
        raise ValueError("frame entries must be finite") from exc
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
    for key, size in (("d", d), ("n", n)):  # int() truncates 2.7 and reads "2" and true
        if isinstance(obj[key], bool) or size != obj[key] or size < 1:
            raise ValueError(f"frame JSON needs integer d, n >= 1, got {key} = {obj[key]!r}")
    if not isinstance(vectors, list) or len(vectors) != n:
        raise ValueError(f"expected {n} vectors")
    for i, vec in enumerate(vectors):  # before d x n is allocated: d may be huge
        if not isinstance(vec, list) or len(vec) != d:
            raise ValueError(f"vector {i} must have {d} entries")
    cols = np.zeros((d, n), dtype=complex)
    for i, vec in enumerate(vectors):
        for row, entry in enumerate(vec):
            cols[row, i] = _entry_to_complex(entry)
    if np.all(cols.imag == 0.0):
        return Frame(cols.real)
    return Frame(cols)
