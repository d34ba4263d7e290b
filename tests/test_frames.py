import math

import numpy as np
import pytest

import frameopt as fo
from frameopt import (
    Frame,
    PotentialKind,
    canonical_dual,
    frame_bounds,
    frame_from_json,
    frame_operator,
    frame_to_json,
    is_dual,
    potential,
)
from frameopt.errors import DomainError, NotSpanning, ShapeMismatch, SingularFrameOperator


def _random_spanning(rng, d, n, cplx=False):
    m = rng.standard_normal((d, n))
    if cplx:
        m = m + 1j * rng.standard_normal((d, n))
    return Frame(m)


class TestFrameOperator:
    def test_onb(self):
        op = frame_operator(Frame(np.eye(2)))
        assert np.allclose(op.matrix, np.eye(2))
        assert np.allclose(op.eigenvalues.values, [1.0, 1.0])

    def test_ej1_spectrum(self, ej1_frame):
        w = frame_operator(ej1_frame).eigenvalues.values
        assert np.allclose(w, [9.0, 5.0, 4.0, 2.0, 1.0], atol=5e-3)

    def test_dual_example_spectrum(self, dual_frame):
        w = frame_operator(dual_frame).eigenvalues.values
        assert np.allclose(w, [2.5, 2.0, 2.0 / 3.0, 1.0 / 3.0, 0.25], atol=5e-3)

    def test_trace_is_norm_sum(self, rng):
        frame = _random_spanning(rng, 4, 7, cplx=True)
        op = frame_operator(frame)
        assert op.trace() == pytest.approx(
            float(np.sum(np.abs(frame.synthesis) ** 2)), abs=1e-10
        )


class TestFrameBounds:
    def test_onb(self):
        assert frame_bounds(Frame(np.eye(3))) == pytest.approx((1.0, 1.0))

    def test_two_onbs(self):
        frame = Frame(np.hstack([np.eye(3), np.eye(3)]))
        assert frame_bounds(frame) == pytest.approx((2.0, 2.0))

    def test_ej1(self, ej1_frame):
        a, b = frame_bounds(ej1_frame)
        assert a == pytest.approx(1.0, abs=5e-3)
        assert b == pytest.approx(9.0, abs=5e-3)

    def test_not_spanning(self):
        with pytest.raises(NotSpanning):
            frame_bounds(Frame(np.array([[1.0], [0.0]])))

    def test_spectrum_outside_the_float_range(self):
        # the frame spans at both scales; sigma^2 overflows at 1e200, so every
        # reader of it raises, T T* on the completion side too, while at 1e-160
        # only the readers that invert sigma^2 raise, and the others still answer
        a = np.random.default_rng(5).standard_normal((3, 5))
        inverting = (fo.inverse_operator, canonical_dual,
                     lambda f: fo.optimal_dual(fo.DualProblem(f, 1.0)))
        answering = (frame_bounds, fo.tight_dual_exists, fo.parseval_dual_exists,
                     fo.frame_operator, lambda f: fo.plan(fo.CompletionProblem(f, [1.0, 1.0])))
        for scale, error in ((1e200, DomainError), (1e-160, SingularFrameOperator)):
            frame = Frame(scale * a)
            assert frame.spanning
            for reader in inverting + answering if scale > 1.0 else inverting:
                with pytest.raises(error):
                    reader(frame)
        tiny, unit = Frame(1e-160 * a), Frame(a)
        lo, hi = frame_bounds(unit)
        assert frame_bounds(tiny) == pytest.approx((lo * 1e-320, hi * 1e-320), rel=1e-3)
        assert fo.tight_dual_exists(tiny) == fo.tight_dual_exists(unit)
        assert not fo.parseval_dual_exists(tiny)
        # potential reads sigma^2 too: past the float range it is inf, with no warning
        assert potential(Frame(1e200 * a), PotentialKind.FRAME_POTENTIAL) == np.inf

    @pytest.mark.parametrize("cplx", [False, True])
    def test_inverse_operator_at_the_subnormal_gate(self, cplx):
        # its spectrum is trusted: the gate sigma_d^2 >= tiny keeps 1/sigma^2 finite
        root = np.sqrt(np.finfo(float).tiny)
        phase = 1j if cplx else 1.0
        for factor in (1.0, 1.5, 3.0):
            s = factor * root * np.array([2.0, 1.0])
            sinv = fo.inverse_operator(Frame(phase * np.diag(s)))
            w = sinv.eigenvalues.values
            assert np.isfinite(w).all() and w.tolist() == (1.0 / s[::-1] ** 2).tolist()
        with pytest.raises(SingularFrameOperator, match="subnormal"):
            fo.inverse_operator(Frame(phase * np.diag(0.5 * root * np.array([2.0, 1.0]))))

    def test_long_frame(self):
        # n >> d: every reader costs O(n d^2), with no n x n factor
        t = np.random.default_rng(8).standard_normal((2, 20000)) / 100.0
        frame = Frame(t)
        w = np.linalg.eigvalsh(t @ t.T)
        assert frame.spanning
        assert frame_bounds(frame) == pytest.approx(tuple(w), rel=1e-12)
        assert np.allclose(fo.inverse_operator(frame).eigenvalues.values, 1.0 / w, rtol=1e-12)
        assert is_dual(frame, canonical_dual(frame))
        assert fo.tight_dual_exists(frame) and fo.parseval_dual_exists(frame)
        mse = potential(frame, PotentialKind.MEAN_SQUARE_ERROR)
        assert mse == pytest.approx(float(np.sum(1.0 / w)), rel=1e-12)


class TestCanonicalDual:
    def test_onb_self_dual(self):
        frame = Frame(np.eye(3))
        dual = canonical_dual(frame)
        assert np.allclose(dual.synthesis, frame.synthesis)

    def test_tight_frame_scales(self):
        frame = Frame(np.hstack([np.eye(2), np.eye(2)]))  # S = 2 I
        dual = canonical_dual(frame)
        assert np.allclose(dual.synthesis, frame.synthesis / 2.0)

    def test_random_duality(self, rng):
        for cplx in (False, True):
            frame = _random_spanning(rng, 4, 7, cplx)
            assert is_dual(frame, canonical_dual(frame), 1e-8)

    def test_involution(self, rng):
        frame = _random_spanning(rng, 3, 6)
        again = canonical_dual(canonical_dual(frame))
        assert np.linalg.norm(again.synthesis - frame.synthesis) <= 1e-8

    def test_dual_operator_is_inverse(self, rng):
        frame = _random_spanning(rng, 4, 6)
        s = frame_operator(frame).matrix
        sdual = frame_operator(canonical_dual(frame)).matrix
        assert np.linalg.norm(sdual @ s - np.eye(4)) <= 1e-8


class TestIsDual:
    def test_onb_pair(self):
        frame = Frame(np.eye(3))
        assert is_dual(frame, frame)

    def test_non_parseval_not_self_dual(self):
        frame = Frame(np.hstack([np.eye(2), np.eye(2)]))
        assert not is_dual(frame, frame)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            is_dual(Frame(np.eye(2)), Frame(np.eye(3)))

    @pytest.mark.parametrize(
        "frame, other",
        [
            ([[1e200 + 1e200j]], [[1e200 - 1e200j]]),  # complex product inf - inf
            ([[1e200, 1e200]], [[1e200, -1e200]]),  # real sum inf - inf
            ([[1e100]], [[1e100]]),  # finite product, its distance from I overflows
        ],
    )
    def test_residual_past_the_float_range_is_inf(self, frame, other):
        frame, other = Frame(np.array(frame)), Frame(np.array(other))
        assert fo.duality_residual(frame, other) == math.inf
        assert fo.duality_residual(other, frame) == math.inf
        assert not is_dual(frame, other)


class TestPotential:
    def test_onb_values(self):
        frame = Frame(np.eye(4))
        assert potential(frame, PotentialKind.FRAME_POTENTIAL) == pytest.approx(4.0)
        assert potential(frame, PotentialKind.MEAN_SQUARE_ERROR) == pytest.approx(4.0)

    def test_gram_identity(self, rng):
        # frame potential equals the double sum of squared inner products
        for cplx in (False, True):
            frame = _random_spanning(rng, 3, 6, cplx)
            gram = frame.analysis @ frame.synthesis
            double_sum = float(np.sum(np.abs(gram) ** 2))
            assert potential(frame, PotentialKind.FRAME_POTENTIAL) == pytest.approx(
                double_sum, rel=1e-8
            )

    def test_singular_mse(self):
        with pytest.raises(SingularFrameOperator):
            potential(Frame(np.array([[1.0], [0.0]])), PotentialKind.MEAN_SQUARE_ERROR)


class TestJson:
    def test_round_trip_real(self, ej1_frame):
        obj = frame_to_json(ej1_frame)
        back = frame_from_json(obj)
        assert np.array_equal(back.synthesis, ej1_frame.synthesis)
        assert back.synthesis.dtype == np.float64

    def test_round_trip_complex(self, rng):
        frame = _random_spanning(rng, 3, 5, cplx=True)
        back = frame_from_json(frame_to_json(frame))
        assert np.allclose(back.synthesis, frame.synthesis)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_emission_matches_the_per_entry_loop(self, rng, cplx):
        # reference: one [float(re), float(im)] pair per entry, column by column
        for _ in range(20):
            z = rng.standard_normal((3, 4)) * 10.0 ** rng.uniform(-300, 300, (3, 4))
            if cplx:
                z = z + 1j * rng.standard_normal(z.shape)
            z[rng.random(z.shape) < 0.3] = complex(-0.0, -0.0) if cplx else -0.0
            frame = Frame(z)
            arr = frame.synthesis
            want = [[[float(x.real), float(x.imag)] for x in arr[:, j]] for j in range(frame.n)]
            assert repr(frame_to_json(frame)["vectors"]) == repr(want)

    def test_bare_number_shorthand(self):
        obj = {"d": 2, "n": 2, "vectors": [[1, 0], [[0, 0], [2, 0]]]}
        frame = frame_from_json(obj)
        assert np.array_equal(frame.synthesis, np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert frame.synthesis.dtype == np.float64

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            frame_from_json({"d": 2, "n": 1, "vectors": [[1.0]]})
        with pytest.raises(ValueError):
            frame_from_json({"d": 2, "n": 1, "vectors": [["x", 1.0]]})
        with pytest.raises(ValueError):
            frame_from_json([1, 2, 3])


def test_frame_basics():
    frame = Frame(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
    assert frame.d == 2 and frame.n == 3
    assert np.array_equal(frame.vector(2), [2.0, 0.0])
    assert frame.spanning
    for synthesis in (np.zeros(3), np.zeros((0, 3)), [[np.nan]]):
        with pytest.raises(ShapeMismatch):
            Frame(synthesis)
