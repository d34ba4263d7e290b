import warnings

import numpy as np
import pytest

from frameopt import Frame, HermitianPSD, eig_hermitian
from frameopt.core_linalg import _fix_phases, givens_left, null_space_onb, psd_rank
from frameopt.errors import (
    IndexOutOfRange,
    NotHermitian,
    NotPositiveSemidefinite,
    RankDeficient,
)

from conftest import (
    DUAL_SYNTHESIS,
    EJ1_SYNTHESIS,
    check_real_input_rule,
    fix_phases_loop,
    random_hermitian,
    random_psd,
)


class TestEigHermitian:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v, np.eye(3))

    def test_diagonal_sorts(self):
        w, v = eig_hermitian(np.diag([2.0, 5.0, 3.0]))
        assert np.allclose(w, [5.0, 3.0, 2.0])
        # columns are signed standard basis vectors matching the permutation
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_ej1_frame_operator_spectrum(self):
        s = EJ1_SYNTHESIS @ EJ1_SYNTHESIS.T
        w, _ = eig_hermitian(s)
        assert np.allclose(w, [9.0, 5.0, 4.0, 2.0, 1.0], atol=5e-3)

    def test_rejects_non_hermitian(self):
        # A - A* would overflow on the second: it must not warn, but raise
        # so are a non-square and a non-finite matrix
        for a in ([[1.0, 2.0], [0.0, 1.0]], [[0.0, 1e308], [-1e308, 0.0]], np.ones((2, 3)),
                  [[np.inf]]):
            with pytest.raises(NotHermitian):
                eig_hermitian(np.array(a))

    def test_real_path_stays_real(self):
        a = random_hermitian(np.random.default_rng(3), 6)
        w, v = eig_hermitian(a)
        assert w.dtype == np.float64 and v.dtype == np.float64

    def test_deterministic(self, rng):
        a = random_hermitian(rng, 7, cplx=True)
        w1, v1 = eig_hermitian(a)
        w2, v2 = eig_hermitian(a.copy())
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_sign_convention(self, rng):
        for cplx in (False, True):
            a = random_hermitian(rng, 5, cplx=cplx)
            _, v = eig_hermitian(a)
            for j in range(5):
                col = v[:, j]
                pivot = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
                assert abs(pivot.imag) < 1e-14 and pivot.real > 0.0

    @pytest.mark.parametrize("cplx", [False, True])
    def test_roundtrip_random(self, rng, cplx):
        for _ in range(40):
            d = int(rng.integers(1, 13))
            a = random_hermitian(rng, d, cplx=cplx)
            w, v = eig_hermitian(a)
            scale = 1.0 + np.linalg.norm(a)
            assert np.all(np.diff(w) <= 1e-14)
            assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10 * scale
            assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-9 * scale
            assert np.linalg.norm(a @ v - v * w) <= 1e-10 * scale
            # independent solver agrees on the spectrum
            assert np.allclose(w, np.linalg.eigvalsh(a)[::-1], atol=1e-9 * scale)


def _random_unitary(rng, rows, cols, cplx):
    z = rng.standard_normal((rows, cols))
    if cplx:
        z = z + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
def test_graded_operator_smallest_eigenvalue(rng, cplx, kappa):
    # T = U diag(sigma) W has frame operator U diag(sigma^2) U*, so the
    # smallest eigenvalue is known exactly; kappa = cond(S) = (s_max/s_min)^2
    for d in (4, 9):
        n = 2 * d
        sigma = np.geomspace(1.0, kappa**-0.5, d)
        u = _random_unitary(rng, d, d, cplx)
        w = _random_unitary(rng, n, d, cplx).conj().T
        op = Frame((u * sigma) @ w).operator()
        smallest = op.eigenvalues.values[-1]
        assert abs(smallest - sigma[-1] ** 2) <= 1e-9 * sigma[-1] ** 2


@pytest.mark.parametrize("cplx", [False, True])
def test_fix_phases_matches_loop(rng, cplx):
    for scale in (1e-3, 1.0, 1e3):
        wide = scale * rng.standard_normal((6, 12))
        if cplx:
            wide = wide + 1j * scale * rng.standard_normal((6, 12))
        wide[:2, 5] = 0.0  # pivot further down
        wide[:3, 6] = 1e-12  # entries below the threshold are skipped
        unpivoted = wide[:, 4:].copy()
        unpivoted[:, 3] = 0.0  # no pivot at all: column left as is
        layouts = (
            unpivoted.copy,
            wide[:, 4:].copy,  # every column has a pivot
            lambda: wide.copy()[:, 4:],  # strided column slice, as null_space_onb passes
        )
        for make in layouts:
            v = make()
            mag, ref = np.abs(v), fix_phases_loop(v)
            fast = _fix_phases(v)
            if cplx:
                # the broadcast complex product may round differently in the last bit
                assert np.all(np.abs(fast - ref) <= 4 * np.finfo(float).eps * mag)
            else:
                assert np.array_equal(fast, ref)


def _fix_phases_norm(v):
    # the formula before the column norms were summed without np.linalg.norm
    if v.size == 0:
        return v
    mag = np.abs(v)
    mask = mag > 1e-8 * np.linalg.norm(v, axis=0)
    rows = mask.argmax(axis=0)
    cols = np.arange(v.shape[1])
    pivoted = mask[rows, cols]
    pivot = np.where(pivoted, v[rows, cols], 1.0)
    if np.iscomplexobj(v):
        v *= np.conj(pivot) / np.where(pivoted, mag[rows, cols], 1.0)
        rows, cols = rows[pivoted], cols[pivoted]
        v[rows, cols] = mag[rows, cols]
    else:
        v *= np.where(pivot < 0.0, -1.0, 1.0)
    return v


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cplx", [False, True])
def test_fix_phases_matches_the_norm_formula(rng, cplx):
    tiny = np.finfo(float).tiny
    for scale in (1e-3, 1.0, 1e3):
        v = scale * rng.standard_normal((7, 10))
        if cplx:
            v = v + 1j * scale * rng.standard_normal(v.shape)
        v[:2, 1] = -0.0  # pivot further down, past signed zeros
        v[:, 2] = 0.0  # zero column: no entry above the gate
        v[:, 3] *= 1e300  # its squared norm overflows: no entry above the gate
        v[:, 4] *= tiny / 8.0  # subnormal: its squared norm underflows to 0
        v[:3, 5] = 1e-12 * scale  # below the gate, then a pivot
        v[::2, 6] = tiny / 8.0  # subnormal entries beside normal ones
        for w in (v, v[:, 4:], v[:, :2]):  # with and without unpivoted columns
            with np.errstate(over="ignore", invalid="ignore"):  # column 3 only
                ref = _fix_phases_norm(w.copy())
                got = _fix_phases(w.copy())
            assert _same_bits(got, ref)


class TestHermitianPSD:
    def test_invariants(self, rng):
        z = rng.standard_normal((5, 5))
        op = HermitianPSD(z @ z.T)
        scale = 1.0 + np.linalg.norm(op.matrix)
        v = op.eigenvectors
        w = op.eigenvalues.values
        assert np.all(w >= 0.0)
        assert np.linalg.norm(op.matrix @ v - v * w) <= 1e-9 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) <= 1e-10 * scale

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            HermitianPSD(np.diag([1.0, -1.0]))

    def test_from_eigensystem_applies_the_same_psd_test(self):
        with pytest.raises(NotPositiveSemidefinite):
            HermitianPSD.from_eigensystem([-1.0, 2.0], np.eye(2))
        # rounding residue below zero is clamped, as for a matrix input
        op = HermitianPSD.from_eigensystem([-1e-20, 2.0], np.eye(2))
        assert op.eigenvalues.values.tolist() == [2.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_eigensystem_rejects_non_finite_eigenvalues(self, bad):
        # the spectrum is trusted past _set's test of its sorted ends
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in ([bad, 1.0], [1.0, bad]):
                with pytest.raises(ValueError, match="must be finite"):
                    HermitianPSD.from_eigensystem(values, np.eye(2))

    def test_eigenvalue_past_the_float_range_is_rejected(self):
        # finite entries whose eigenvalue 2e308 overflows in eigh
        with pytest.raises(ValueError, match="must be finite"):
            HermitianPSD(np.full((2, 2), 1e308))
        with pytest.raises(ValueError, match="at least one entry"):
            HermitianPSD.from_eigensystem([], np.eye(0))

    def test_from_eigensystem_matches(self, rng):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = HermitianPSD(z @ z.conj().T)
        rebuilt = HermitianPSD.from_eigensystem(op.eigenvalues.values, op.eigenvectors)
        assert np.linalg.norm(rebuilt.matrix - op.matrix) <= 1e-10 * (
            1.0 + np.linalg.norm(op.matrix)
        )
        # what is not an eigensystem: mismatched shapes, non-orthonormal columns
        for vectors in (op.eigenvectors[:, :3], 2.0 * op.eigenvectors):
            with pytest.raises(ValueError):
                HermitianPSD.from_eigensystem(op.eigenvalues.values, vectors)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_trusted_matrix_is_built_on_first_access(self, rng, cplx):
        for d in (1, 4, 12):
            z = rng.standard_normal((d, d + 2))
            if cplx:
                z = z + 1j * rng.standard_normal(z.shape)
            op = Frame(z).operator()
            w, v = op.eigenvalues.values[::-1], op.eigenvectors[:, ::-1]
            trusted = HermitianPSD._trusted(w, v)  # sorts the pairs itself
            assert trusted._matrix is None
            assert np.array_equal(trusted.eigenvalues.values, op.eigenvalues.values)
            ref = HermitianPSD.from_eigensystem(w, v).matrix
            scale = np.linalg.norm(op.matrix)
            assert np.linalg.norm(trusted.matrix - ref) <= 1e-12 * scale
            assert np.linalg.norm(trusted.matrix - op.matrix) <= 1e-12 * scale
            assert not trusted.matrix.flags.writeable

    @pytest.mark.parametrize("cplx", [False, True])
    def test_frame_operator_matches_the_symmetrized_gram_matrix(self, rng, cplx):
        # T T* may or may not be Hermitian bit for bit, depending on the BLAS;
        # either way its eigenpairs are those of (S + S*)/2
        for d in (2, 5, 16):
            z = rng.standard_normal((d, d + 2))
            if cplx:
                z = z + 1j * rng.standard_normal(z.shape)
            s = z @ z.conj().T
            ref, op = HermitianPSD((s + s.conj().T) / 2.0), Frame(z).operator()
            assert np.array_equal(op.eigenvalues.values, ref.eigenvalues.values)
            assert np.array_equal(op.eigenvectors, ref.eigenvectors)
            # the operator skips HermitianPSD's input test and copy, nothing else
            direct = HermitianPSD(s)
            assert _same_bits(op.eigenvalues.values, direct.eigenvalues.values)
            assert _same_bits(op.eigenvectors, direct.eigenvectors)
            assert _same_bits(op.matrix, direct.matrix) and not op.matrix.flags.writeable

    @pytest.mark.parametrize("cplx", [False, True])
    def test_nearly_hermitian_input_is_factored_on_its_hermitian_part(self, rng, cplx):
        a = random_psd(rng, 6, cplx=cplx)
        skew = rng.standard_normal(a.shape)
        a = a + 1e-14 * np.linalg.norm(a) / np.linalg.norm(skew) * skew
        assert not np.array_equal(a, a.conj().T)
        w, v = eig_hermitian(a)
        w_ref, v_ref = eig_hermitian((a + a.conj().T) / 2.0)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        op = HermitianPSD(a)
        assert np.array_equal(op.eigenvalues.values, np.maximum(w, 0.0))
        assert np.array_equal(op.matrix, a) and not op.matrix.flags.writeable
        assert not np.shares_memory(op.matrix, a)

    def test_from_eigensystem_sorts(self):
        op = HermitianPSD.from_eigensystem([1.0, 3.0], np.eye(2))
        assert op.eigenvalues.values.tolist() == [3.0, 1.0]
        assert np.allclose(op.matrix, np.diag([1.0, 3.0]))

    def test_eigenvalues_are_read_by_the_real_input_rule(self):
        q = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
        check_real_input_rule(lambda w: HermitianPSD.from_eigensystem(w, q), [1.0, 3.0, 0.5])
        check_real_input_rule(psd_rank, [3.0, 1.0, 1e-12])


class TestGivensLeft:
    def test_zero_rotation(self, rng):
        m = rng.standard_normal((3, 4))
        assert np.array_equal(givens_left(m, 0, 2, 1.0, 0.0), m)

    def test_swap_rotation(self):
        m = np.eye(2)
        out = givens_left(m, 0, 1, 0.0, 1.0)
        assert np.allclose(out, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_norm_preserved(self, rng):
        # oracle: unitary row mixing cannot change the Frobenius norm
        for _ in range(25):
            m = rng.standard_normal((3, 3))
            angle = rng.uniform(0.0, 2 * np.pi)
            out = givens_left(m, 1, 2, np.cos(angle), np.sin(angle))
            assert abs(np.linalg.norm(out) - np.linalg.norm(m)) <= 1e-12 * (
                1.0 + np.linalg.norm(m)
            )
            others = [i for i in range(3) if i not in (1, 2)]
            assert np.array_equal(out[others], m[others])

    def test_complex_parameters(self, rng):
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        c = np.sqrt(0.5)
        s = np.sqrt(0.5) * np.exp(1j * 0.3)
        out = givens_left(m, 0, 3, c, s)
        assert abs(np.linalg.norm(out) - np.linalg.norm(m)) <= 1e-12 * (
            1.0 + np.linalg.norm(m)
        )

    def test_bad_indices(self):
        m = np.zeros((2, 2))
        with pytest.raises(IndexOutOfRange):
            givens_left(m, 0, 0, 1.0, 0.0)
        with pytest.raises(IndexOutOfRange):
            givens_left(m, 0, 5, 1.0, 0.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            givens_left(np.zeros((2, 2)), 0, 1, 1.0, 1.0)


class TestNullSpace:
    def test_two_by_three(self):
        m = np.hstack([np.eye(2), np.zeros((2, 1))])
        basis = null_space_onb(m)
        assert basis.shape == (3, 1)
        assert np.allclose(np.abs(basis[:, 0]), [0.0, 0.0, 1.0])

    def test_unitary_has_empty_kernel(self):
        basis = null_space_onb(np.eye(4))
        assert basis.shape == (4, 0)

    def test_reference_synthesis(self):
        basis = null_space_onb(DUAL_SYNTHESIS)
        assert basis.shape == (8, 3)
        assert np.linalg.norm(DUAL_SYNTHESIS @ basis) <= 1e-8
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(3)) <= 1e-10

    @pytest.mark.parametrize("cplx", [False, True])
    def test_random_full_rank(self, rng, cplx):
        for scale in np.repeat([1e-3, 1.0, 1e3], 20):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(d, 3 * d + 1))
            m = rng.standard_normal((d, n))
            if cplx:
                m = m + 1j * rng.standard_normal((d, n))
            m = scale * m
            basis = null_space_onb(m)
            assert basis.shape == (n, n - d)
            if n > d:
                assert np.linalg.norm(m @ basis) <= 1e-12 * np.linalg.norm(m)
                assert np.linalg.norm(basis.conj().T @ basis - np.eye(n - d)) <= 1e-12

    def test_rank_deficient_rejected(self):
        m = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(RankDeficient):
            null_space_onb(m)

    def test_tall_matrix_rejected(self):
        with pytest.raises(RankDeficient):
            null_space_onb(np.ones((3, 2)))


def test_interlacing_under_compression(rng):
    # eigenvalues of a compressed Hermitian matrix interlace the originals
    for _ in range(25):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d))
        a = random_hermitian(rng, d, cplx=bool(rng.integers(0, 2)))
        w_full, _ = eig_hermitian(a)
        q = np.linalg.qr(
            rng.standard_normal((d, k))
            + (1j * rng.standard_normal((d, k)) if np.iscomplexobj(a) else 0.0)
        )[0]
        compressed = q.conj().T @ a @ q
        w_comp, _ = eig_hermitian((compressed + compressed.conj().T) / 2.0)
        for i in range(k):
            assert w_full[d - k + i] - 1e-9 <= w_comp[i] <= w_full[i] + 1e-9


def test_top_k_trace_is_maximal(rng):
    # compressing onto any k directions never beats the top-k eigenvalue sum,
    # and the leading eigenvectors attain it
    for _ in range(25):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d))
        a = random_hermitian(rng, d)
        w, v = eig_hermitian(a)
        best = np.sum(w[:k])
        attained = np.trace(v[:, :k].T @ a @ v[:, :k]).real
        assert attained == pytest.approx(best, abs=1e-9)
        for _ in range(10):
            q = np.linalg.qr(rng.standard_normal((d, k)))[0]
            assert np.trace(q.T @ a @ q).real <= best + 1e-9
