"""Dense complex-Hermitian kernels: eigensystems, null spaces, rotations.

Eigensystems come from one LAPACK ``eigh`` call (the completion side's S_F = T T*), then a
stable descending sort and one phase rule, the same for real and complex columns: each column's
first significant entry is made real positive (the dual side fixes its SVD factors the same way).
Identical inputs therefore produce identical outputs on one machine; across BLAS/LAPACK
builds the results agree to rounding, not bitwise.  Real symmetric input
yields real output arrays.  Input equal to its adjoint bit for bit is used
as is; any other is tested and replaced by its overflow-safe Hermitian
part (A + A*)/2.

``givens_left`` and ``null_space_onb`` (a kernel from the trailing right
singular vectors of one full SVD) have no caller in the library.  They
stay public only while the benchmark's tracer (``perfbench/tracer.py``)
names them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    IndexOutOfRange,
    NotHermitian,
    NotPositiveSemidefinite,
    RankDeficient,
)
from .majorization import GATE_TOL, PSD_TOL, TIE_TOL, SpectrumVec, _numbers, _reals


def _check_square(a) -> np.ndarray:
    arr = _numbers(a, NotHermitian)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NotHermitian("matrix entries must be finite")
    return arr


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 with each term halved first, so that it cannot overflow.

    Bitwise equal to ``(a + a.conj().T) / 2`` unless a half is subnormal.
    """
    return a / 2.0 + a.conj().T / 2.0


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make each column's first significant entry p real positive, in place.

    An entry is significant when its modulus exceeds ``GATE_TOL * ||column||``; columns with
    none are left as is.  One rule: multiply by conj(p) / |p|, write |p| in p's place.  Real
    columns need no branch: conj is the identity and p / |p| exactly +-1, a sign flip.
    """
    if v.size == 0:
        return v
    mag = np.abs(v)
    mask = mag > GATE_TOL * np.sqrt(np.add.reduce((v.conj() * v).real, 0))  # norm(v, axis=0)
    rows = mask.argmax(axis=0)  # first significant entry; 0 in a column with none
    cols = np.arange(v.shape[1])
    pivoted = mask[rows, cols]
    size = np.where(pivoted, mag[rows, cols], 1.0)  # a column with no pivot gets phase 1
    v *= np.conj(np.where(pivoted, v[rows, cols], 1.0)) / size  # not conj(p / |p|): it flips signed zeros
    v[rows[pivoted], cols[pivoted]] = size[pivoted]
    return v


def _norm(a) -> float:
    """Frobenius norm taken on |a| / max|a|: no square, nor a complex divide, overflows."""
    mag = np.abs(a)
    top = float(mag.max(initial=0.0))
    return top * float(np.linalg.norm(mag / top)) if top > 0.0 else 0.0


def _eigh(arr: np.ndarray):
    """``eig_hermitian`` on a finite square float or complex array, used as is."""
    # exactly Hermitian input would pass the test, and (A + A*)/2 == A bit for bit
    if not np.array_equal(arr, arr.conj().T):
        if _norm(arr / 2.0 - arr.conj().T / 2.0) > PSD_TOL * _norm(arr / 2.0):
            raise NotHermitian("matrix is not equal to its adjoint")
        arr = _hermitian_part(arr)
    w, v = np.linalg.eigh(arr)
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Returns ``(w, v)`` with eigenvalues ``w`` in nonincreasing order and the
    columns of ``v`` the matching orthonormal eigenvectors.  The solver runs
    once: on ``a`` itself when it equals its adjoint exactly, otherwise on
    its Hermitian part (A + A*)/2.  Its ascending output is reversed by a
    stable sort, so exactly tied eigenvalues keep LAPACK's order, and each
    eigenvector's first significant entry is made real positive.  Output is
    deterministic for a given input on one machine.  Real input yields real
    output.

    Raises NotHermitian when ``a`` differs from its adjoint beyond
    1e-10 * ||a||_F, compared as halves (A - A*)/2 that cannot overflow.
    """
    return _eigh(_check_square(a))


class HermitianPSD:
    """Hermitian positive-semidefinite matrix with cached eigendecomposition.

    ``eigenvalues`` is a descending SpectrumVec and the columns of
    ``eigenvectors`` pair with it.  Real input matrices keep real storage.
    ``matrix`` is a read-only float or complex copy of the input, or for an
    object built from an eigensystem the Hermitian part of V diag(w) V*,
    assembled on first access.  Every constructor ends in ``_set``, which
    tests the eigenvalues once: ValueError unless they are finite (and at
    least one), NotPositiveSemidefinite when the least is below -1e-10
    times their norm.  A smaller negative eigenvalue is clamped to 0, and
    the sorted result is wrapped by ``SpectrumVec._trusted`` without a
    second test.
    """

    __slots__ = ("_matrix", "eigenvalues", "eigenvectors")

    def __init__(self, matrix):
        self._set(*_eigh(arr := _check_square(matrix)), arr.copy())

    @classmethod
    def _trusted(cls, w, v) -> "HermitianPSD":
        """From orthonormal eigenpairs (as from ``eigh``), stably sorted here; no orthonormality check."""
        order = np.argsort(-w, kind="stable")
        return cls.__new__(cls)._set(w[order], v[:, order])

    def _set(self, w, v, matrix=None) -> "HermitianPSD":
        # Every constructor's spectrum test.  w is fresh from a stable
        # argsort(-w), descending with any NaN last, so its two ends bound it.
        if not (w.size and math.isfinite(w[0]) and math.isfinite(w[-1])):
            raise ValueError("spectrum entries must be finite" if w.size else
                             "spectrum must have at least one entry")
        # _norm runs only when an eigenvalue is negative
        if w[-1] < 0.0 and w[-1] < -PSD_TOL * _norm(w):
            raise NotPositiveSemidefinite(f"minimum eigenvalue {w[-1]:.3e} below tolerance")
        for arr in (v, matrix):
            if arr is not None:
                arr.flags.writeable = False
        self._matrix = matrix  # None: assembled on first access
        self.eigenvalues = SpectrumVec._trusted(np.maximum(w, 0.0, out=w))  # sorted, finite
        self.eigenvectors = v
        return self

    @classmethod
    def from_eigensystem(cls, values, vectors) -> "HermitianPSD":
        """Build from known eigenvalues and an orthonormal eigenbasis.

        Skips the eigensolver; pairs are sorted into nonincreasing
        eigenvalue order (stable in the given column order).  The PSD test
        is the constructor's: ``from_eigensystem([-1.0, 2.0], np.eye(2))``
        raises NotPositiveSemidefinite, while -1e-20 next to 2.0 reads as 0.
        """
        w = _reals(values)
        v = _numbers(vectors)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] != w.size:
            raise ValueError("eigensystem shapes do not match")
        d = w.size
        # V*V - I is dimensionless, so this slack does not scale with w; NaN > slack is False
        if not np.isfinite(v).all() or (
                np.linalg.norm(v.conj().T @ v - np.eye(d)) > GATE_TOL * (1.0 + d)):
            raise ValueError("eigenvector columns must be finite and orthonormal")
        return cls._trusted(w, v)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            v = self.eigenvectors
            self._matrix = _hermitian_part((v * self.eigenvalues.values) @ v.conj().T)
            self._matrix.flags.writeable = False
        return self._matrix

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def trace(self) -> float:
        return self.eigenvalues.trace()

    def __repr__(self) -> str:
        return f"HermitianPSD(dim={self.dim}, eigenvalues={self.eigenvalues.values.tolist()!r})"


def psd_rank(values) -> int:
    """Number of eigenvalues (descending) above 1e-10 times the top one."""
    w = _reals(values)
    if w.size == 0:
        return 0
    return int(np.count_nonzero(w > PSD_TOL * float(w[0])))


def givens_left(m, i: int, j: int, c, s) -> np.ndarray:
    """Apply a plane rotation to rows i and j of ``m`` (returns a new array).

    The 2x2 block is [[c, s], [-conj(s), conj(c)]], so |c|^2 + |s|^2 must
    be 1.  Only rows i and j change; the Frobenius norm is preserved.
    """
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise IndexOutOfRange("expected a matrix")
    rows = arr.shape[0]
    if not (0 <= i < rows) or not (0 <= j < rows) or i == j:
        raise IndexOutOfRange(f"rows ({i}, {j}) invalid for {rows}-row matrix")
    if abs(abs(c) ** 2 + abs(s) ** 2 - 1.0) > TIE_TOL:  # dimensionless
        raise ValueError("rotation parameters must satisfy |c|^2 + |s|^2 = 1")
    dtype = np.result_type(arr.dtype, type(c), type(s))
    out = arr.astype(dtype, copy=True)
    ri = out[i, :].copy()
    out[i, :] = c * ri + s * out[j, :]
    out[j, :] = -np.conj(s) * ri + np.conj(c) * out[j, :]
    return out


def null_space_onb(m) -> np.ndarray:
    """Orthonormal basis of the kernel of a full-row-rank d x n matrix.

    Returns an n x (n - d) matrix whose columns u satisfy m @ u = 0: the
    trailing n - d right singular vectors of one full SVD m = U S V*, each
    with its first significant entry made real positive.  Deterministic for
    a given input on one machine.

    Raises RankDeficient unless its d-th singular value exceeds 1e-8 times the largest.
    """
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise RankDeficient("expected a matrix")
    d, n = arr.shape
    _, sigma, vh = np.linalg.svd(arr)  # min(d, n) singular values
    if d == 0 or d > n or sigma[d - 1] <= GATE_TOL * sigma[0]:
        raise RankDeficient("matrix does not have full row rank")
    return _fix_phases(vh[d:].conj().T)
