import warnings

import numpy as np
import pytest

import frameopt as fo
from frameopt import (
    HermitianPSD,
    realize_frame,
    rotation_chain,
    unitary_for_diagonal,
)
from frameopt.errors import DomainError, LengthMismatch, NotMajorized, RankTooLarge

from conftest import mixed_toward_average, random_psd


def _diag_of_conjugation(u, lam):
    return np.einsum("ij,j,ij->i", u, np.asarray(lam, dtype=float), u.conj()).real


class TestUnitaryForDiagonal:
    def test_identity_when_target_equals_spectrum(self):
        lam = [5.0, 3.0, 1.0]
        u = unitary_for_diagonal(lam, lam)
        assert np.allclose(_diag_of_conjugation(u, lam), lam, atol=1e-12)
        assert np.allclose(np.abs(u), np.eye(3))

    def test_two_by_two_closed_form(self):
        # splitting (2, 0) evenly needs the quarter-turn mixing
        u = unitary_for_diagonal([2.0, 0.0], [1.0, 1.0])
        assert np.allclose(np.abs(u), np.full((2, 2), np.sqrt(0.5)), atol=1e-12)
        assert np.allclose(_diag_of_conjugation(u, [2.0, 0.0]), [1.0, 1.0], atol=1e-12)

    def test_reference_pair(self):
        u = unitary_for_diagonal([3.25, 2.25], [3.0, 2.5])
        assert np.allclose(
            _diag_of_conjugation(u, [3.25, 2.25]), [3.0, 2.5], atol=1e-10
        )

    def test_unsorted_target_positions(self):
        lam = [4.0, 2.0, 0.0]
        target = [1.0, 2.0, 3.0]
        u = unitary_for_diagonal(lam, target)
        assert np.allclose(_diag_of_conjugation(u, lam), target, atol=1e-10)

    def test_not_majorized(self):
        with pytest.raises(NotMajorized):
            unitary_for_diagonal([2.0, 1.0], [2.5, 0.5])
        with pytest.raises(NotMajorized):
            unitary_for_diagonal([2.0, 1.0], [1.5, 1.0])  # trace gap
        with pytest.raises(LengthMismatch):  # as the majorization predicates
            rotation_chain([2.0, 1.0], [1.5, 1.0, 0.5])

    def test_rotation_count_bound(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 10))
            lam = np.sort(rng.uniform(0.0, 4.0, size=k))[::-1]
            target = mixed_toward_average(rng, lam)
            rotations, rows = rotation_chain(lam, target)
            assert len(rotations) <= k - 1 if k > 1 else len(rotations) == 0
            assert sorted(rows.tolist()) == list(range(k))

    def test_orthogonality(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 9))
            lam = np.sort(rng.uniform(0.0, 4.0, size=k))[::-1]
            target = mixed_toward_average(rng, lam)
            u = unitary_for_diagonal(lam, target)
            assert np.linalg.norm(u @ u.T - np.eye(k)) <= 1e-12 * k
            assert np.allclose(_diag_of_conjugation(u, lam), target, atol=1e-9 * k)


class TestRealizeFrame:
    def test_rank_one_split(self):
        b = HermitianPSD(np.diag([2.0, 0.0]))
        g = realize_frame(b, [1.0, 1.0])
        assert np.allclose(g @ g.T, b.matrix, atol=1e-12)
        assert np.allclose(np.sum(g**2, axis=0), [1.0, 1.0], atol=1e-12)
        # both vectors live on the first coordinate axis
        assert np.allclose(np.abs(g[0]), [1.0, 1.0], atol=1e-12)
        assert np.allclose(g[1], [0.0, 0.0], atol=1e-12)

    def test_identity_gives_orthonormal_basis(self):
        g = realize_frame(HermitianPSD(np.eye(4)), np.ones(4))
        assert np.allclose(g @ g.T, np.eye(4), atol=1e-10)
        assert np.allclose(g.T @ g, np.eye(4), atol=1e-10)

    def test_reference_completion_block(self, ej1_frame):
        # the optimal 2-vector completion operator for norms (3, 2.5)
        s0 = fo.frame_operator(ej1_frame)
        h = s0.eigenvectors
        b = HermitianPSD.from_eigensystem([0.0, 0.0, 0.0, 2.25, 3.25], h)
        g = realize_frame(b, [3.0, 2.5])
        assert np.linalg.norm(g @ g.T - b.matrix) <= 1e-8
        assert np.allclose(np.sum(g**2, axis=0), [3.0, 2.5], atol=1e-9)

    def test_phase_convention(self, rng):
        b = HermitianPSD(random_psd(rng, 4, rank=3, cplx=True))
        lam = b.eigenvalues.values
        beta = mixed_toward_average(rng, np.concatenate([lam[:3], [0.0]]) , positive=True)
        g = realize_frame(b, beta)
        for j in range(g.shape[1]):
            col = g[:, j]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-8 * np.linalg.norm(col))[0]]
            assert abs(pivot.imag) <= 1e-12 and pivot.real > 0.0

    def test_rank_too_large(self, rng):
        b = HermitianPSD(random_psd(rng, 4, rank=3))
        with pytest.raises(RankTooLarge):
            realize_frame(b, [b.trace() / 2.0, b.trace() / 2.0])

    def test_not_majorized(self):
        b = HermitianPSD(np.diag([3.0, 1.0]))
        with pytest.raises(NotMajorized):
            realize_frame(b, [3.5, 0.5])

    def test_positive_norms_required(self):
        b = HermitianPSD(np.eye(2))
        with pytest.raises(ValueError):
            realize_frame(b, [2.0, 0.0])

    @pytest.mark.parametrize("cplx", [False, True])
    def test_round_trip_random(self, rng, cplx):
        for _ in range(60):
            d = int(rng.integers(1, 8))
            k = int(rng.integers(1, 10))
            rank = int(rng.integers(1, min(d, k) + 1))
            b = HermitianPSD(random_psd(rng, d, rank=rank, cplx=cplx))
            lam = b.eigenvalues.values
            sigma = np.zeros(k)
            sigma[: min(d, k)] = lam[: min(d, k)]
            beta = mixed_toward_average(rng, sigma, positive=True)
            g = realize_frame(b, beta)
            assert g.shape == (d, k)
            scale = 1.0 + np.linalg.norm(b.matrix)
            assert np.linalg.norm(g @ g.conj().T - b.matrix) <= 1e-8 * scale
            assert np.max(np.abs(np.sum(np.abs(g) ** 2, axis=0) - beta)) <= 1e-9

    def test_real_input_keeps_real_output(self, rng):
        b = HermitianPSD(random_psd(rng, 3, rank=2))
        beta = np.full(3, b.trace() / 3.0)
        g = realize_frame(b, beta)
        assert g.dtype == np.float64


@pytest.mark.parametrize("alpha", [2.0**-200, 1e-12, 1.0, 1e8, 2.0**200],
                         ids=["2^-200", "1e-12", "1", "1e8", "2^200"])
def test_verdicts_follow_rescaling(rng, alpha):
    # the slack is DEFAULT_TOL * tr(spectrum): an absolute 1e-9 once rejected
    # barycenters at scale 1e8 and accepted (2.5, 0.5) against (2, 1) at 1e-12
    for _ in range(40):
        k = int(rng.integers(1, 9))
        lam = alpha * np.sort(rng.uniform(0.5, 4.0, k))[::-1]
        barycenter = np.full(k, lam.sum() / k)
        u = unitary_for_diagonal(lam, barycenter)
        assert np.allclose(_diag_of_conjugation(u, lam), barycenter, rtol=1e-9 * k, atol=0.0)
        g = realize_frame(HermitianPSD.from_eigensystem(lam, np.eye(k)), barycenter)
        assert np.allclose(np.sum(g**2, axis=0), barycenter, rtol=1e-9 * k, atol=0.0)
    with pytest.raises(NotMajorized):
        unitary_for_diagonal(alpha * np.array([2.0, 1.0]), alpha * np.array([2.5, 0.5]))
    with pytest.raises(NotMajorized):
        realize_frame(HermitianPSD.from_eigensystem(alpha * np.array([2.0, 1.0]), np.eye(2)),
                      alpha * np.array([2.5, 0.5]))


def _givens_left(m, i, j, c, s):
    # rows i, j of a copy of m become [c, s; -s, c] times them (c, s real)
    out = m.copy()
    out[i, :] = c * m[i, :] + s * m[j, :]
    out[j, :] = -s * m[i, :] + c * m[j, :]
    return out


def test_unitary_matches_a_chain_of_givens_left(rng):
    # the in-place rotations do this plane rotation's arithmetic: bitwise the same
    for k in list(range(1, 9)) + [16, 31, 48]:
        for _ in range(3):
            lam = np.sort(rng.uniform(0.0, 2.0, k))[::-1] * 10.0 ** rng.uniform(-3, 3)
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            target = _diag_of_conjugation(q, lam)  # majorized by lam (Schur)
            rotations, rows = rotation_chain(lam, target)
            ref = np.eye(k)
            for i, j, c, s in rotations:
                ref = _givens_left(ref, i, j, c, s)
            assert np.array_equal(unitary_for_diagonal(lam, target), ref[rows, :])
            # _factor's k x p block: the first p columns, bit for bit
            for p in {1, (k + 1) // 2, k}:
                block = fo.schur_horn._unitary(rotations, rows, p)
                assert np.array_equal(block, ref[rows, :p])


def test_norms_of_any_family_are_majorized_by_operator_spectrum(rng):
    # necessity direction: squared norms are always majorized by the
    # frame-operator spectrum padded with zeros
    for _ in range(100):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        w, _ = fo.eig_hermitian(g @ g.conj().T)
        sigma = np.zeros(max(d, k))
        sigma[:d] = np.maximum(w, 0.0)
        norms = np.zeros(max(d, k))
        norms[:k] = np.sum(np.abs(g) ** 2, axis=0)
        assert fo.majorizes(sigma, norms, 1e-8)


# Exact chains: (i, j, c.hex(), s.hex()) per rotation, then rows.  The chain
# is plain IEEE arithmetic (one division, clip and two square roots per
# rotation), so these bits hold on every machine.
GOLDEN_CHAINS = {
    # tied spectrum entries: of the rows with equal values the lowest wins
    "ties": (
        [2.0, 2.0, 1.0, 1.0, 0.0],
        [1.2, 1.2, 1.2, 1.2, 1.2],
        [
            (0, 2, "0x1.c9f25c5bfedd8p-2", "0x1.c9f25c5bfedd9p-1"),
            (2, 3, "0x1.fffffffffffffp-2", "0x1.bb67ae8584caap-1"),
            (3, 4, "0x1.bb67ae8584caap-1", "0x1.0000000000000p-1"),
            (1, 4, "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp-1"),
        ],
        [0, 2, 3, 1, 4],
    ),
    # the first target equals an active value: pinned without a rotation
    "pinned": (
        [3.0, 2.0, 1.0],
        [2.0, 2.0, 2.0],
        [(0, 2, "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp-1")],
        [1, 0, 2],
    ),
    # the first target lies within tol above every active value
    "above": (
        [1.0, 1.0, 0.5],
        [1.0 + 1e-12, 0.9, 0.6 - 1e-12],
        [(1, 2, "0x1.c9f25c5bfedd9p-1", "0x1.c9f25c5bfedd8p-2")],
        [0, 1, 2],
    ),
    # every target lies within tol below every active value
    "below": ([1.0, 1.0, 1.0], [1.0 - 1e-12] * 3, [], [0, 1, 2]),
    # unsorted target with a tie of its own: stable order, lowest index first
    "mixed": (
        [4.0, 3.0, 3.0, 0.5, 0.0],
        [0.5, 2.0, 3.0, 2.5, 2.5],
        [
            (2, 3, "0x1.c9f25c5bfedd9p-1", "0x1.c9f25c5bfedd8p-2"),
            (0, 3, "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp-1"),
            (3, 4, "0x1.c9f25c5bfedd9p-1", "0x1.c9f25c5bfedd8p-2"),
        ],
        [4, 3, 1, 2, 0],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHAINS))
def test_rotation_chain_golden(name):
    lam, target, chain, rows = GOLDEN_CHAINS[name]
    rotations, got_rows = rotation_chain(lam, target)
    assert [(i, j, c.hex(), s.hex()) for i, j, c, s in rotations] == chain
    assert got_rows.tolist() == rows


def test_overflowing_spectrum_trace_raises_without_warning():
    # tr = 2e308 is inf: a slack of DEFAULT_TOL * inf would accept any target
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            rotation_chain([1e308, 1e308], [0.0, 0.0])
        with pytest.raises(DomainError, match="overflows"):
            unitary_for_diagonal([1e308, 1e308], [1e308, 1e308])
        b = HermitianPSD.from_eigensystem([1e308, 1e308], np.eye(2))
        with pytest.raises(DomainError, match="overflows"):
            realize_frame(b, [1.0, 1.0])
