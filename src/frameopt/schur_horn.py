"""Constructive Schur-Horn: prescribed diagonal from a prescribed spectrum.

``rotation_chain`` produces at most k - 1 plane rotations that conjugate
diag(spectrum) into a matrix with a given diagonal (possible exactly when
the target is majorized by the spectrum), pinning one diagonal entry per
rotation.  ``realize_frame`` uses the resulting unitary to factor a PSD
operator into vectors with prescribed squared norms.
"""

from __future__ import annotations

import numpy as np

from .core_linalg import HermitianPSD, _fix_phases, _rotate_rows, psd_rank
from .errors import NotMajorized, RankTooLarge
from .majorization import DEFAULT_TOL, majorizes, sort_desc, spectrum_values


def rotation_chain(spectrum, target, tol: float = DEFAULT_TOL):
    """Plan the plane rotations that move diag(spectrum) onto ``target``.

    Returns ``(rotations, rows)``: ``rotations`` is a list of
    ``(i, j, c, s)`` row rotations to apply in order starting from the
    identity, and ``rows[p]`` names the matrix row that ends up holding
    ``target[p]``.  Targets are pinned largest first, each time rotating
    the two active diagonal values that straddle the target with the
    smallest gap, so the chain is deterministic and numerically gentle.

    Raises NotMajorized unless target (sorted) is majorized by spectrum.
    """
    lam = spectrum_values(spectrum)
    tgt = np.asarray(target, dtype=float).reshape(-1)
    k = lam.size
    if tgt.size != k:
        raise NotMajorized(f"target length {tgt.size} != spectrum length {k}")
    if not majorizes(lam, sort_desc(tgt), tol):
        raise NotMajorized("target diagonal is not majorized by the spectrum")

    vals = lam.astype(float).copy()  # vals[row] = current diagonal value
    active = list(range(k))
    rows = np.empty(k, dtype=int)
    rotations: list[tuple[int, int, float, float]] = []
    order = np.argsort(-tgt, kind="stable")
    for idx in order[:-1]:
        b = float(tgt[idx])
        hi = lo = -1
        for row in active:
            if vals[row] >= b and (hi < 0 or vals[row] < vals[hi]):
                hi = row
            if vals[row] <= b and (lo < 0 or vals[row] > vals[lo]):
                lo = row
        if hi < 0:  # b above every active value by at most the slack
            hi = max(active, key=lambda rr: (vals[rr], -rr))
        if lo < 0:
            lo = min(active, key=lambda rr: (vals[rr], rr))
        gap = vals[hi] - vals[lo]
        if hi != lo and gap > 0.0:
            c2 = float(np.clip((b - vals[lo]) / gap, 0.0, 1.0))
            c = float(np.sqrt(c2))
            s = float(np.sqrt(1.0 - c2))
            rotations.append((hi, lo, c, s))
            vals[lo] = vals[hi] + vals[lo] - b
            vals[hi] = b
        # gap == 0 means the active value already equals the target: pin as is.
        rows[idx] = hi
        active.remove(hi)
    rows[order[-1]] = active[0]
    return rotations, rows


def unitary_for_diagonal(spectrum, target, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real orthogonal U with diag(U diag(spectrum) U*) equal to ``target``."""
    rotations, rows = rotation_chain(spectrum, target, tol)
    k = np.asarray(target).size
    u = np.eye(k)
    for i, j, c, s in rotations:
        _rotate_rows(u, i, j, c, s)
    return u[rows, :]


def realize_frame(b: HermitianPSD, beta, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectors g_1..g_k with frame operator ``b`` and squared norms ``beta``.

    Returns a d x k matrix whose columns are the vectors.  The spectrum of
    ``b`` is padded with zeros (or truncated past its rank) to length k;
    ``beta`` must be positive and majorized by that spectrum.  Each
    column's first significant coordinate is made real positive.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    k = beta.size
    if k == 0 or np.any(beta <= 0.0):
        raise ValueError("squared norms must be strictly positive")
    w = b.eigenvalues.values
    d = b.dim
    rank = psd_rank(w)
    if rank > k:
        raise RankTooLarge(f"rank {rank} operator cannot be carried by {k} vectors")
    p = min(d, k)
    sigma = np.zeros(k)
    sigma[:p] = w[:p]
    u = unitary_for_diagonal(sigma, beta, tol)
    g = (b.eigenvectors[:, :p] * np.sqrt(sigma[:p])) @ u[:, :p].conj().T
    return _fix_phases(g)
