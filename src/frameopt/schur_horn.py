"""Constructive Schur-Horn: prescribed diagonal from a prescribed spectrum.

``rotation_chain`` produces at most k - 1 plane rotations that conjugate
diag(spectrum) into a matrix with a given diagonal (possible exactly when
the target is majorized by the spectrum: ``majorizes``, which ``plan`` asks
too), pinning one diagonal entry per rotation.  ``_rotate`` applies them to
k rows: of the identity in ``unitary_for_diagonal``, and of (V diag(sigma)^1/2)^T
in ``realize_frame``, which so factors a PSD operator into k vectors of
prescribed squared norms in dimension d in O(k d), without forming the unitary.
"""

from __future__ import annotations

import math

import numpy as np

from .core_linalg import HermitianPSD, _fix_phases, psd_rank
from .errors import NotMajorized, RankTooLarge
from .majorization import _reals, majorizes, spectrum_values


def rotation_chain(spectrum, target):
    """Plan the plane rotations that move diag(spectrum) onto ``target``.

    Returns ``(rotations, rows)``: ``rotations`` is a list of
    ``(i, j, c, s)`` row rotations to apply in order starting from the
    identity, and ``rows[p]`` names the matrix row that ends up holding
    ``target[p]``.  Targets are pinned largest first (equal targets in
    index order), each time rotating the two active diagonal values that
    straddle the target with the smallest gap: the smallest value at or
    above it and the largest at or below it, the lowest row winning a tie.
    A target equal to an active value is pinned there without a rotation.
    A target within the slack above every active value takes the largest
    one, and one below every active value the smallest, again without a
    rotation.  The chain is deterministic and numerically gentle.

    Raises NotMajorized unless target is majorized by spectrum within
    DEFAULT_TOL * tr(spectrum) (``majorizes``), LengthMismatch on unequal
    lengths, and DomainError when tr(spectrum) overflows.
    """
    lam = spectrum_values(spectrum)
    tgt = _reals(target)
    if not majorizes(lam, tgt):
        raise NotMajorized("target diagonal is not majorized by the spectrum")
    return _chain(lam, tgt)


def _chain(lam: np.ndarray, tgt: np.ndarray):
    """``rotation_chain`` past its checks, planned on Python floats."""
    k = lam.size
    vals = lam.tolist()  # vals[row] = current diagonal value
    targets = tgt.tolist()
    active = list(range(k))
    rows = [0] * k
    rotations: list[tuple[int, int, float, float]] = []
    order = np.argsort(-tgt, kind="stable").tolist()
    for idx in order[:-1]:
        b = targets[idx]
        hi = lo = -1
        for row in active:
            v = vals[row]
            if v >= b and (hi < 0 or v < vals[hi]):
                hi = row
            if v <= b and (lo < 0 or v > vals[lo]):
                lo = row
        if hi < 0:  # b above every active value by at most the slack: lo is the largest
            hi = lo
        if lo < 0:  # and below every one: hi is the smallest
            lo = hi
        gap = vals[hi] - vals[lo]
        if hi != lo and gap > 0.0:
            c2 = min(max((b - vals[lo]) / gap, 0.0), 1.0)
            rotations.append((hi, lo, math.sqrt(c2), math.sqrt(1.0 - c2)))
            vals[lo] = vals[hi] + vals[lo] - b
            vals[hi] = b
        # gap == 0 means the active value already equals the target: pin as is.
        rows[idx] = hi
        active.remove(hi)
    rows[order[-1]] = active[0]
    return rotations, np.array(rows)


def _rotate(x: np.ndarray, rotations, rows) -> np.ndarray:
    """The rotations applied in place to the rows of ``x`` (k rows), then ``x[rows]``."""
    # on row views: c and s are real, so rows i, j become [c, s; -s, c] times them
    for i, j, c, s in rotations:
        ri, rj = x[i], x[j]
        t = s * ri
        ri *= c
        ri += s * rj
        rj *= c
        rj -= t
    return x[rows]


def unitary_for_diagonal(spectrum, target) -> np.ndarray:
    """Real orthogonal U with diag(U diag(spectrum) U*) equal to ``target``;
    ``rotation_chain``'s errors, its slack DEFAULT_TOL * tr(spectrum)."""
    rotations, rows = rotation_chain(spectrum, target)
    return _rotate(np.eye(rows.size), rotations, rows)


def _realize(b: HermitianPSD, beta: np.ndarray, planner) -> np.ndarray:
    """V diag(sigma)^1/2 U*, phase-fixed: V is B's top p = min(dim B, k) eigenvectors, sigma
    its spectrum padded with zeros (or cut) to k = beta.size, U real from planner(sigma, beta),
    so the chain rotates the k x d rows of (V diag(sigma)^1/2)^T, zero past p."""
    k = beta.size
    p = min(b.dim, k)
    sigma = np.zeros(k)
    sigma[:p] = b.eigenvalues.values[:p]
    x = np.zeros((k, b.dim), b.eigenvectors.dtype)
    x[:p] = (b.eigenvectors[:, :p] * np.sqrt(sigma[:p])).T
    return _fix_phases(_rotate(x, *planner(sigma, beta)).T.copy())


def realize_frame(b: HermitianPSD, beta) -> np.ndarray:
    """Vectors g_1..g_k with frame operator ``b`` and squared norms ``beta``.

    Returns a d x k matrix whose columns are the vectors.  The spectrum of
    ``b`` is padded with zeros (or truncated past its rank) to length k;
    ``beta`` must be positive and majorized by that spectrum, as ``rotation_chain``
    tests.  Each column's first significant coordinate is made real positive.
    """
    beta = _reals(beta)
    k = beta.size
    if k == 0 or np.any(beta <= 0.0):
        raise ValueError("squared norms must be strictly positive")
    rank = psd_rank(b.eigenvalues)
    if rank > k:
        raise RankTooLarge(f"rank {rank} operator cannot be carried by {k} vectors")
    return _realize(b, beta, rotation_chain)
