"""Dense complex-Hermitian kernels: eigensystems, null spaces, rotations.

Eigensystems come from LAPACK (``np.linalg.eigh``) and kernels from one
full SVD, followed by a canonicalization step: a stable descending sort and
a fixed eigenvector phase convention.  Identical inputs therefore produce
identical outputs on one machine; across BLAS/LAPACK builds the results
agree to rounding, not bitwise.  Real symmetric input yields real output
arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IndexOutOfRange,
    NotHermitian,
    NotPositiveSemidefinite,
    RankDeficient,
)
from .majorization import GATE_TOL, PSD_TOL, TIE_TOL, SpectrumVec


def _check_square(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or (
        np.iscomplexobj(arr) and not np.all(np.isfinite(arr.imag))
    ):
        raise NotHermitian("matrix entries must be finite")
    return arr


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make each column's first significant entry real positive, in place.

    An entry is significant when its modulus exceeds
    ``GATE_TOL * max(||column||, 1)``; columns with none are left as is.
    """
    if v.size == 0:
        return v
    mag = np.abs(v)
    # max(||col||, 1) is kept: test_fix_phases_matches_loop pins this rule
    mask = mag > GATE_TOL * np.maximum(np.linalg.norm(v, axis=0), 1.0)
    cols = np.flatnonzero(mask.any(axis=0))
    rows = mask[:, cols].argmax(axis=0)
    pivot = v[rows, cols]
    if np.iscomplexobj(v):
        v[:, cols] *= np.conj(pivot) / mag[rows, cols]
        v[rows, cols] = mag[rows, cols]
    else:
        v[:, cols] *= np.where(pivot < 0.0, -1.0, 1.0)
    return v


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Returns ``(w, v)`` with eigenvalues ``w`` in nonincreasing order and the
    columns of ``v`` the matching orthonormal eigenvectors.  The solver runs
    once on the symmetrized matrix (A + A*)/2; its ascending output is
    reversed by a stable sort, so exactly tied eigenvalues keep LAPACK's
    order, and each eigenvector's first significant entry is made real
    positive.  Output is deterministic for a given input on one machine.
    Real input yields real output.

    Raises NotHermitian when ``a`` differs from its adjoint beyond
    1e-10 * ||a||_F.
    """
    arr = _check_square(a)
    if float(np.linalg.norm(arr - arr.conj().T)) > PSD_TOL * float(np.linalg.norm(arr)):
        raise NotHermitian("matrix is not equal to its adjoint")
    dtype = complex if np.iscomplexobj(arr) else float
    work = (arr + arr.conj().T).astype(dtype) / 2.0
    w, v = np.linalg.eigh(work)
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


class HermitianPSD:
    """Hermitian positive-semidefinite matrix with cached eigendecomposition.

    ``eigenvalues`` is a descending SpectrumVec and the columns of
    ``eigenvectors`` pair with it.  Real input matrices keep real storage.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors")

    def __init__(self, matrix):
        arr = _check_square(matrix)
        w, v = eig_hermitian(arr)
        if w.size and w[-1] < -PSD_TOL * float(np.linalg.norm(arr)):
            raise NotPositiveSemidefinite(
                f"minimum eigenvalue {w[-1]:.3e} below tolerance"
            )
        mat = np.array(arr, copy=True)
        mat.flags.writeable = False
        v.flags.writeable = False
        self.matrix = mat
        self.eigenvalues = SpectrumVec(np.maximum(w, 0.0))
        self.eigenvectors = v

    @classmethod
    def from_eigensystem(cls, values, vectors) -> "HermitianPSD":
        """Build from known eigenvalues and an orthonormal eigenbasis.

        Skips the eigensolver; pairs are sorted into nonincreasing
        eigenvalue order (stable in the given column order).
        """
        w = np.asarray(values, dtype=float).reshape(-1)
        v = np.array(vectors, copy=True)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] != w.size:
            raise ValueError("eigensystem shapes do not match")
        d = w.size
        # V*V - I is dimensionless, so this slack does not scale with w
        if np.linalg.norm(v.conj().T @ v - np.eye(d)) > GATE_TOL * (1.0 + d):
            raise ValueError("eigenvector columns must be orthonormal")
        order = np.argsort(-w, kind="stable")
        w = np.maximum(w[order], 0.0)
        v = v[:, order]
        mat = (v * w) @ v.conj().T
        mat = (mat + mat.conj().T) / 2.0
        obj = cls.__new__(cls)
        mat.flags.writeable = False
        v.flags.writeable = False
        obj.matrix = mat
        obj.eigenvalues = SpectrumVec(w)
        obj.eigenvectors = v
        return obj

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return self.eigenvalues.trace()

    def __repr__(self) -> str:
        return f"HermitianPSD(dim={self.dim}, eigenvalues={self.eigenvalues.values.tolist()!r})"


def psd_rank(values) -> int:
    """Number of eigenvalues (descending) above 1e-10 times the top one."""
    w = np.asarray(getattr(values, "values", values), dtype=float).reshape(-1)
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
    rj = out[j, :].copy()
    out[i, :] = c * ri + s * rj
    out[j, :] = -np.conj(s) * ri + np.conj(c) * rj
    return out


def null_space_onb(m) -> np.ndarray:
    """Orthonormal basis of the kernel of a full-row-rank d x n matrix.

    Returns an n x (n - d) matrix whose columns u satisfy m @ u = 0: the
    trailing n - d right singular vectors from one full SVD
    m = U diag(sigma) V*, each with its first significant entry made real
    positive.  Deterministic for a given input on one machine.

    Raises RankDeficient when the d-th singular value is at most
    1e-8 times the largest.
    """
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise RankDeficient("expected a matrix")
    d, n = arr.shape
    if d > n:
        raise RankDeficient(f"a {d} x {n} matrix cannot have row rank {d}")
    _, sigma, vh = np.linalg.svd(arr)
    if d == 0 or sigma[d - 1] <= GATE_TOL * sigma[0]:
        raise RankDeficient("matrix does not have full row rank")
    return _fix_phases(vh[d:].conj().T)
