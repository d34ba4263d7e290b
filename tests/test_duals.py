import numpy as np
import pytest

import frameopt as fo
from frameopt import (
    DEFAULT_TOL,
    DualProblem,
    Frame,
    PotentialKind,
    canonical_dual,
    dual_to_json,
    duality_residual,
    inverse_operator,
    optimal_dual,
    optimal_dual_spectrum,
    parseval_dual_exists,
    tight_dual_exists,
)
from frameopt.errors import BadTrace, InsufficientCorank, NotSpanning, SingularFrameOperator

from conftest import DUAL_SYNTHESIS, count_calls, frame_with_spectrum, null_space_onb

NU_REF = [4.0, 19.0 / 6.0, 19.0 / 6.0, 19.0 / 6.0, 3.0]


class TestOptimalDualSpectrum:
    def test_reference(self, dual_frame):
        breakdown = optimal_dual_spectrum(DualProblem(dual_frame, 16.5))
        assert np.allclose(breakdown.nu.values, NU_REF, atol=5e-3)

    def test_base_trace_gives_canonical_spectrum(self, dual_frame):
        sinv = inverse_operator(dual_frame)
        breakdown = optimal_dual_spectrum(DualProblem(dual_frame, sinv.trace()))
        assert np.allclose(breakdown.nu.values, sinv.eigenvalues.values, atol=1e-10)

    def test_parseval_redundant_frame(self, rng):
        frame = frame_with_spectrum(rng, np.ones(3), 7)  # S = I, n >= 2d
        breakdown = optimal_dual_spectrum(DualProblem(frame, 3.0))
        assert np.allclose(breakdown.nu.values, np.ones(3), atol=1e-8)

    def test_rejects_low_trace(self, dual_frame):
        with pytest.raises(BadTrace):
            optimal_dual_spectrum(DualProblem(dual_frame, 5.0))


class TestOptimalDual:
    def test_reference(self, dual_frame):
        res = optimal_dual(DualProblem(dual_frame, 16.5))
        assert duality_residual(dual_frame, res.dual) <= 1e-6
        w = fo.frame_operator(res.dual).eigenvalues.values
        assert np.allclose(w, NU_REF, atol=5e-3)
        assert np.allclose(w, res.nu.values, atol=1e-8)
        assert np.allclose(res.operator.matrix, fo.frame_operator(res.dual).matrix, atol=1e-8)
        assert res.unique_S
        assert res.operator.trace() >= 16.5 - 1e-9

    def test_base_trace_returns_canonical(self, dual_frame):
        sinv = inverse_operator(dual_frame)
        res = optimal_dual(DualProblem(dual_frame, sinv.trace()))
        assert np.linalg.norm(
            res.dual.synthesis - canonical_dual(dual_frame).synthesis
        ) <= 1e-8

    def test_two_copies_of_onb(self):
        frame = Frame(np.hstack([np.eye(3), np.eye(3)]))
        t = 4.5  # above d * lam_1(S^-1) = 1.5, so the level is flat
        res = optimal_dual(DualProblem(frame, t))
        assert duality_residual(frame, res.dual) <= 1e-8
        assert np.allclose(res.nu.values, np.full(3, 1.5), atol=1e-10)
        assert np.allclose(res.operator.matrix, 1.5 * np.eye(3), atol=1e-8)

    def test_complex_frame(self, rng):
        m = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        frame = Frame(m)
        t = inverse_operator(frame).trace() + 1.0
        res = optimal_dual(DualProblem(frame, t))
        assert duality_residual(frame, res.dual) <= 1e-8
        w = fo.frame_operator(res.dual).eigenvalues.values
        assert np.max(np.abs(w - res.nu.values)) <= 1e-8

    def test_base_trace_on_small_frames(self):
        # At t = tr(S_F^-1) with S_F^-1 of size ~1e4, rounding in the level's
        # prefix sums can fail every cutoff test; the dual must still attain
        # the reported spectrum.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 2 * d + 1))
            frame = Frame(1e-2 * rng.standard_normal((d, n)))
            res = optimal_dual(DualProblem(frame, inverse_operator(frame).trace()))
            assert duality_residual(frame, res.dual) <= 1e-8
            w = np.sort(np.linalg.eigvalsh(fo.frame_operator(res.dual).matrix))[::-1]
            assert np.max(np.abs(w - res.nu.values)) <= 1e-9 * w[0]

    def test_real_frame_real_dual(self, dual_frame):
        res = optimal_dual(DualProblem(dual_frame, 16.5))
        assert res.dual.synthesis.dtype == np.float64

    def test_rejects_low_trace(self, dual_frame):
        with pytest.raises(BadTrace):
            optimal_dual(DualProblem(dual_frame, 9.0))

    def test_trace_slack_is_relative(self, dual_frame):
        # nu's rule: t may fall short of tr(S_F^-1) by the fraction DEFAULT_TOL, no more
        w = inverse_operator(dual_frame).eigenvalues.values
        t0 = float(w.sum())
        res = optimal_dual(DualProblem(dual_frame, t0 * (1.0 - DEFAULT_TOL / 2)))
        assert np.max(np.abs(res.nu.values - w)) <= 1e-12 * w[0]
        with pytest.raises(BadTrace):
            optimal_dual(DualProblem(dual_frame, t0 * (1.0 - 2 * DEFAULT_TOL)))

    def test_subnormal_operator(self):
        # at scale 1e-160 the spanning gate passes, but 1 / S would overflow
        frame = Frame(1e-160 * np.random.default_rng(5).standard_normal((3, 5)))
        assert frame.spanning
        with pytest.raises(SingularFrameOperator):
            inverse_operator(frame)
        with pytest.raises(SingularFrameOperator):
            optimal_dual(DualProblem(frame, 1e300))

    def test_rejects_basis(self):
        with pytest.raises(InsufficientCorank):
            optimal_dual(DualProblem(Frame(np.eye(3)), 4.0))

    def test_not_spanning(self):
        frame = Frame(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(NotSpanning):
            optimal_dual(DualProblem(frame, 4.0))


def _random_dual(rng, frame, t=None, slack=1.0):
    """Member of the dual set: canonical dual plus kernel-supported noise.

    With ``t`` given, the noise mass is scaled so the operator trace is
    exactly slack * (t - t0) above the canonical dual's.
    """
    kernel = null_space_onb(frame.synthesis)
    coeffs = rng.standard_normal((kernel.shape[1], frame.d))
    if np.iscomplexobj(frame.synthesis):
        coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    z = kernel @ coeffs
    if t is not None:
        t0 = inverse_operator(frame).trace()
        mass = float(np.sum(np.abs(z) ** 2))
        z = z * np.sqrt(slack * max(t - t0, 0.0) / mass)
    analysis = canonical_dual(frame).analysis + z
    return Frame(analysis.conj().T)


@pytest.mark.parametrize("cplx", [False, True])
def test_one_svd_and_no_eigh_or_qr_per_dual(monkeypatch, cplx):
    synthesis = DUAL_SYNTHESIS * (1.0 + 1j) if cplx else DUAL_SYNTHESIS
    t = 2.0 * inverse_operator(Frame(synthesis)).trace()
    assert optimal_dual_spectrum(DualProblem(Frame(synthesis), t)).kept < 5  # kernel used
    calls = {name: count_calls(monkeypatch, np.linalg, name) for name in ("eigh", "svd", "qr")}
    res = optimal_dual(DualProblem(Frame(synthesis), t))
    assert not calls["eigh"] and not calls["qr"]
    assert len(calls["svd"]) == 1 and calls["svd"][0].get("compute_uv", True)
    assert fo.is_dual(Frame(synthesis), res.dual)


def test_long_frame_dual(monkeypatch, rng):
    # n >> d: the kernel directions come from the frame's one SVD, with no n x n factor
    svd = count_calls(monkeypatch, np.linalg, "svd")
    frame = Frame((rng.standard_normal((3, 20000)) + 1j * rng.standard_normal((3, 20000))) / 200)
    res = optimal_dual(DualProblem(frame, 2.0 * inverse_operator(frame).trace()))
    assert len(svd) == 1
    assert fo.is_dual(frame, res.dual)
    assert res.nu.values == pytest.approx(res.dual.operator().eigenvalues.values, rel=1e-10)


@pytest.mark.parametrize("d, n", [(3, 5), (8, 13), (20, 30), (8, 20), (48, 60)])
def test_duals_near_the_spanning_gate_pass_is_dual(rng, d, n):
    # S = T T* with spectrum geometric down to 1 / 9e7 and 1 / 9.9e7, just inside
    # the gate (cond(S) < 1e8): forming T T* would cost a factor cond(S), and a
    # residual near 3e-8
    for cond in (9e7, 9.9e7):
        w = np.geomspace(1.0, 1.0 / cond, d)
        for i in range(100 if d < 48 else 10):
            frame = frame_with_spectrum(rng, w, n, cplx=bool(i % 2))
            assert frame.spanning
            t = 1.5 * inverse_operator(frame).trace()
            assert fo.is_dual(frame, canonical_dual(frame))
            assert fo.is_dual(frame, optimal_dual(DualProblem(frame, t)).dual)


def test_canonical_dual_operator_is_minimal(rng):
    # every dual operator exceeds the canonical one by a PSD rank <= n - d part
    for _ in range(25):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d + 1, d + 5))
        frame = Frame(rng.standard_normal((d, n)))
        dual = _random_dual(rng, frame)
        assert duality_residual(frame, dual) <= 1e-8
        gap = fo.frame_operator(dual).matrix - inverse_operator(frame).matrix
        w, _ = fo.eig_hermitian((gap + gap.conj().T) / 2.0)
        assert w[-1] >= -1e-9
        assert np.count_nonzero(w > 1e-8 * (1.0 + w[0])) <= n - d


def test_optimal_dual_beats_random_duals(dual_frame, rng):
    t = 16.5
    res = optimal_dual(DualProblem(dual_frame, t))
    fp_opt = fo.potential(res.dual, PotentialKind.FRAME_POTENTIAL)
    mse_opt = fo.potential(res.dual, PotentialKind.MEAN_SQUARE_ERROR)
    for _ in range(60):
        # at trace exactly t the rival spectrum majorizes nu with equal
        # trace, so every convex potential is dominated
        rival = _random_dual(rng, dual_frame, t=t)
        assert fo.frame_operator(rival).trace() >= t - 1e-9
        assert fo.potential(rival, PotentialKind.FRAME_POTENTIAL) >= fp_opt - 1e-9
        assert fo.potential(rival, PotentialKind.MEAN_SQUARE_ERROR) >= mse_opt - 1e-9
        assert fo.submajorizes(fo.frame_operator(rival).eigenvalues, res.nu)
        # above t, submajorization still pins every increasing potential
        rival_up = _random_dual(rng, dual_frame, t=t, slack=float(rng.uniform(1.0, 2.0)))
        assert fo.potential(rival_up, PotentialKind.FRAME_POTENTIAL) >= fp_opt - 1e-9
        assert fo.submajorizes(fo.frame_operator(rival_up).eigenvalues, res.nu)


def test_condition_number_decreases_until_flat(dual_frame):
    # on the reference frame the spread nu_1 / nu_d shrinks as t grows,
    # until the spectrum pins at (.., lam_m) and stays there
    t0 = inverse_operator(dual_frame).trace()
    ratios = []
    for t in np.linspace(t0, 19.0, 60):
        breakdown = optimal_dual_spectrum(DualProblem(dual_frame, float(t)))
        v = breakdown.nu.values
        ratios.append(v[0] / v[-1])
    ratios = np.array(ratios)
    assert np.all(np.diff(ratios) <= 1e-9)


class TestTightAndParseval:
    def test_onb(self):
        frame = Frame(np.eye(3))
        assert tight_dual_exists(frame)
        assert parseval_dual_exists(frame)

    def test_reference_frame_has_neither(self, dual_frame):
        # smallest eigenvalue of S is simple, and m = 2 requires multiplicity 2
        assert not tight_dual_exists(dual_frame)
        assert not parseval_dual_exists(dual_frame)

    def test_high_redundancy_always_tight(self, rng):
        frame = Frame(rng.standard_normal((3, 7)))
        assert tight_dual_exists(frame)

    def test_parseval_with_redundancy_needs_operator_above_identity(self, rng):
        above = frame_with_spectrum(rng, [2.0, 1.4, 1.0], 7)
        below = frame_with_spectrum(rng, [2.0, 1.4, 0.8], 7)
        assert parseval_dual_exists(above)
        assert not parseval_dual_exists(below)

    def test_parseval_with_rank_condition(self, rng):
        # n = 8, d = 5, m = 2: the two smallest eigenvalues must equal 1
        good = frame_with_spectrum(rng, [3.0, 2.0, 1.5, 1.0, 1.0], 8)
        bad = frame_with_spectrum(rng, [3.0, 2.0, 1.5, 1.2, 1.0], 8)
        assert parseval_dual_exists(good)
        assert not parseval_dual_exists(bad)

    def test_tight_with_tied_bottom(self, rng):
        frame = frame_with_spectrum(rng, [3.0, 1.0, 1.0], 4)  # m = 2
        assert tight_dual_exists(frame)
        frame2 = frame_with_spectrum(rng, [3.0, 2.0, 1.0], 4)
        assert not tight_dual_exists(frame2)


def test_parseval_flag_matches_identity_dual_search(rng):
    # cross-check: a Parseval dual exists iff the minimal spectrum at
    # trace d is the all-ones vector
    for _ in range(40):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d + 1, 2 * d + 3))
        m = 2 * d - n
        if rng.random() < 0.5:
            sigma = np.sort(rng.uniform(1.0, 3.0, size=d))[::-1]
            if m >= 1:
                sigma[d - max(m, 1) :] = 1.0
        else:
            sigma = np.sort(rng.uniform(0.5, 3.0, size=d))[::-1]
            sigma[-1] = min(sigma[-1], float(rng.uniform(0.5, 0.95)))
        frame = frame_with_spectrum(rng, sigma, n)
        sinv = inverse_operator(frame)
        t0 = sinv.trace()
        if t0 <= d + 1e-9:
            breakdown = fo.nu(sinv.eigenvalues, m, max(float(d), t0))
            directly = bool(np.allclose(breakdown.nu.values, 1.0, atol=1e-6))
        else:
            directly = False
        assert parseval_dual_exists(frame) == directly


def test_dual_section_continuous_between_jumps(dual_frame):
    # away from the cutoff's jump traces, the constructed dual moves
    # continuously with the trace bound
    for t in (10.5, 14.0, 17.5):
        w1 = optimal_dual(DualProblem(dual_frame, t)).dual.synthesis
        w2 = optimal_dual(DualProblem(dual_frame, t + 1e-6)).dual.synthesis
        assert np.linalg.norm(w2 - w1) <= 1e-4


def test_unique_flag_degenerate_case(rng):
    # inverse-operator spectrum (4, 3, 3, 1, 0.5) with m = 2 ties lam_m and
    # lam_{m+1}; above s* = 16 the optimal operator is no longer unique
    sigma = 1.0 / np.array([0.5, 1.0, 3.0, 3.0, 4.0])  # spectrum of S itself
    frame = frame_with_spectrum(rng, np.sort(sigma)[::-1], 8)
    res_low = optimal_dual(DualProblem(frame, 15.0))
    res_high = optimal_dual(DualProblem(frame, 17.0))
    assert res_low.unique_S
    assert not res_high.unique_S
    assert duality_residual(frame, res_high.dual) <= 1e-8


def test_dual_json(dual_frame):
    res = optimal_dual(DualProblem(dual_frame, 16.5))
    obj = dual_to_json(res)
    assert list(obj) == ["nu", "unique_S", "W", "trace"]
    assert obj["W"]["d"] == 5 and obj["W"]["n"] == 8
    assert obj["trace"] == pytest.approx(16.5, abs=1e-6)
