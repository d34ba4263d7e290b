"""Constructive Schur-Horn: prescribed diagonal from a prescribed spectrum.

``rotation_chain`` produces at most k - 1 plane rotations that conjugate
diag(spectrum) into a matrix with a given diagonal (possible exactly when
the target is majorized by the spectrum: ``_reachable``, which ``plan`` asks
too), pinning one diagonal entry per rotation.  ``realize_frame`` uses the
resulting unitary to factor a PSD operator into prescribed squared norms.
"""

from __future__ import annotations

import math

import numpy as np

from .core_linalg import HermitianPSD, _fix_phases, psd_rank
from .errors import DomainError, NotMajorized, RankTooLarge
from .majorization import DEFAULT_TOL, majorizes, spectrum_values


def _reachable(spectrum: np.ndarray, target) -> bool:
    """Whether ``target`` is majorized by ``spectrum`` within DEFAULT_TOL * tr(spectrum).

    DomainError when tr(spectrum) overflows: an infinite slack would accept any target.
    """
    with np.errstate(over="ignore"):
        trace = float(np.add.reduce(spectrum))
    if trace == math.inf:
        raise DomainError("spectrum trace overflows")
    return majorizes(spectrum, target, DEFAULT_TOL * trace)


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
    DEFAULT_TOL * tr(spectrum), and LengthMismatch on unequal lengths.
    """
    lam = spectrum_values(spectrum)
    tgt = np.asarray(target, dtype=float).reshape(-1)
    if not _reachable(lam, tgt):
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
        if hi < 0:  # b above every active value by at most the slack
            hi = max(active, key=lambda rr: (vals[rr], -rr))
        if lo < 0:
            lo = min(active, key=lambda rr: (vals[rr], rr))
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


def _unitary(rotations, rows, cols: int | None = None) -> np.ndarray:
    """The rotations applied to the identity, rows reordered by ``rows``.

    With ``cols``, only the identity's first ``cols`` columns: a rotation
    mixes rows, so these come out bit for bit as in the full matrix.
    """
    u = np.eye(rows.size, cols)
    # in place on row views: c and s are real, so rows i, j become
    # [c, s; -s, c] times them
    for i, j, c, s in rotations:
        ri, rj = u[i], u[j]
        t = s * ri
        ri *= c
        ri += s * rj
        rj *= c
        rj -= t
    return u[rows]


def unitary_for_diagonal(spectrum, target) -> np.ndarray:
    """Real orthogonal U with diag(U diag(spectrum) U*) equal to ``target``;
    ``rotation_chain``'s errors, its slack DEFAULT_TOL * tr(spectrum)."""
    return _unitary(*rotation_chain(spectrum, target))


def _factor(vectors: np.ndarray, sigma: np.ndarray, chain) -> np.ndarray:
    """V diag(sigma)^1/2 U*, phase-fixed, with U from ``chain`` planned on sigma (padded to k)."""
    p = vectors.shape[1]
    u = _unitary(*chain, p)
    return _fix_phases((vectors * np.sqrt(sigma[:p])) @ u.conj().T)


def _leading(b: HermitianPSD, k: int):
    """B's top min(dim B, k) eigenvectors, and its spectrum padded with zeros
    (or cut) to length k: the step both ``realize_frame`` and ``complete`` take."""
    p = min(b.dim, k)
    sigma = np.zeros(k)
    sigma[:p] = b.eigenvalues.values[:p]
    return b.eigenvectors[:, :p], sigma


def realize_frame(b: HermitianPSD, beta) -> np.ndarray:
    """Vectors g_1..g_k with frame operator ``b`` and squared norms ``beta``.

    Returns a d x k matrix whose columns are the vectors.  The spectrum of
    ``b`` is padded with zeros (or truncated past its rank) to length k;
    ``beta`` must be positive and majorized by that spectrum, as ``rotation_chain``
    tests.  Each column's first significant coordinate is made real positive.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    k = beta.size
    if k == 0 or np.any(beta <= 0.0):
        raise ValueError("squared norms must be strictly positive")
    rank = psd_rank(b.eigenvalues)
    if rank > k:
        raise RankTooLarge(f"rank {rank} operator cannot be carried by {k} vectors")
    vectors, sigma = _leading(b, k)
    return _factor(vectors, sigma, rotation_chain(sigma, beta))
