import warnings

import numpy as np
import pytest

import frameopt as fo
from frameopt import (
    Regime,
    c_lambda,
    c_lambda_m,
    in_lambda_set,
    irregularity,
    minimizer_is_unique,
    nu,
    r_lambda_m,
    s_star,
    s_star_star,
    sample_lambda_set,
    submajorizes,
)
from frameopt.errors import BadM, BadTrace, LengthMismatch

from conftest import random_psd, random_spectrum, random_unitary

LAM_A = [9.0, 5.0, 4.0, 2.0, 1.0]
LAM_B = [7.0, 4.0, 4.0, 3.0, 1.0]
LAM_DUAL = [4.0, 3.0, 1.5, 0.5, 0.4]


class TestIrregularity:
    def test_reference(self):
        assert irregularity(LAM_A, 23.75) == 3

    def test_at_base_trace(self):
        # independent rule: at t = tr(lam) it is the count of entries above lam_d
        lam = np.array(LAM_A)
        expected = int(np.max(np.where(lam > lam[-1])[0])) + 1
        assert expected == 4
        assert irregularity(LAM_A, float(lam.sum())) == expected

    def test_saturated(self):
        assert irregularity(LAM_A, 45.0) == 0
        assert irregularity(LAM_A, 60.0) == 0

    def test_bad_trace(self):
        with pytest.raises(BadTrace):
            irregularity(LAM_A, 20.0)

    def test_trace_clamp(self):
        # recoverable rounding below the base trace clamps instead of raising
        assert irregularity(LAM_A, 21.0 - 1e-12) == 4


class TestCLambda:
    def test_at_base_trace_gives_smallest(self):
        assert c_lambda(LAM_A, 21.0) == pytest.approx(1.0)

    def test_reference(self):
        assert c_lambda(LAM_A, 23.75) == pytest.approx(2.875)

    def test_saturated_average(self):
        assert c_lambda(LAM_A, 45.0) == pytest.approx(9.0)

    def test_hand_value(self):
        # lam_1 = 7 survives: (24 - 7) / 4
        assert c_lambda(LAM_B, 24.0) == pytest.approx(4.25)


class TestSStar:
    def test_reference_pair(self):
        assert s_star(LAM_B, 2) == pytest.approx(23.0)

    def test_hand_values(self):
        assert s_star(LAM_DUAL, 2) == pytest.approx(16.0)
        assert s_star_star(LAM_DUAL, 2) == pytest.approx(19.0)

    def test_constant_spectrum_collapses(self):
        lam = [2.5] * 4
        for m in (1, 2, 3):
            assert s_star(lam, m) == pytest.approx(10.0)
            assert s_star_star(lam, m) == pytest.approx(10.0)

    def test_bad_m(self):
        with pytest.raises(BadM):
            s_star(LAM_A, 0)
        with pytest.raises(BadM):
            s_star(LAM_A, 5)


class TestRankLimitedLevel:
    def test_ej1_point(self):
        assert c_lambda_m(LAM_A, 3, 26.5) == pytest.approx(4.25)
        assert r_lambda_m(LAM_A, 3, 26.5) == 2

    def test_third_example_point(self):
        assert c_lambda_m(LAM_B, 2, 24.0) == pytest.approx(13.0 / 3.0)
        assert r_lambda_m(LAM_B, 2, 24.0) == 1

    def test_dual_example_point(self):
        assert c_lambda_m(LAM_DUAL, 2, 16.5) == pytest.approx(19.0 / 6.0)
        assert r_lambda_m(LAM_DUAL, 2, 16.5) == 1

    def test_nonpositive_m_delegates(self):
        t = 24.0
        assert c_lambda_m(LAM_A, 0, t) == c_lambda(LAM_A, t)
        assert r_lambda_m(LAM_A, -2, t) == irregularity(LAM_A, t)


def _nu_entrywise(lam, m, t):
    # independent form: entry k is max(lam_k, c), capped by lam_i on the
    # last m positions
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    c = c_lambda_m(lam, m, t)
    out = np.maximum(lam, c)
    if m >= 1:
        for i in range(1, m + 1):
            out[d - m + i - 1] = min(max(lam[d - m + i - 1], c), lam[i - 1])
    return np.sort(out)[::-1]


class TestNu:
    def test_ej1(self):
        breakdown = nu(LAM_A, 3, 26.5)
        assert np.allclose(breakdown.nu.values, [9.0, 5.0, 4.25, 4.25, 4.0])
        assert breakdown.r == 2
        assert breakdown.regime is Regime.BETWEEN
        assert breakdown.s_star == pytest.approx(26.0)
        assert breakdown.s_star_star == pytest.approx(36.0)

    def test_dual_example(self):
        breakdown = nu(LAM_DUAL, 2, 16.5)
        assert np.allclose(
            breakdown.nu.values, [4.0, 3.1667, 3.1667, 3.1667, 3.0], atol=1e-3
        )

    def test_zero_mass(self):
        breakdown = nu(LAM_A, 0, 21.0)
        assert np.allclose(breakdown.nu.values, LAM_A)
        assert breakdown.s_star is None and breakdown.s_star_star is None
        assert breakdown.regime is Regime.AT_OR_BELOW_S_STAR

    def test_subnormal_trace_on_zero_spectrum(self):
        # c = t / d underflows to 0 and would lose the whole trace
        with pytest.raises(BadTrace):
            nu([0.0, 0.0], 0, 5e-324)
        assert nu([0.0, 0.0], 0, 1e-300).nu.values.tolist() == [5e-301, 5e-301]

    def test_increment_cuts_summation_residue(self):
        # at t = tr(lam) the raw mass c - lam_3 is ~8e-17, below TIE_TOL * c
        breakdown = nu([0.9, 0.4, 0.1], 1, 1.4)
        assert breakdown.increment.tolist() == [0.0]

    def test_regime_classification(self):
        assert nu(LAM_B, 2, 22.0).regime is Regime.AT_OR_BELOW_S_STAR
        assert nu(LAM_B, 2, 23.0).regime is Regime.AT_OR_BELOW_S_STAR
        assert nu(LAM_B, 2, 30.0).regime is Regime.BETWEEN
        assert nu(LAM_B, 2, 32.0).regime is Regime.AT_OR_ABOVE_S_STAR_STAR
        assert nu(LAM_B, 2, 40.0).regime is Regime.AT_OR_ABOVE_S_STAR_STAR
        assert nu(LAM_B, -1, 40.0).regime is Regime.AT_OR_BELOW_S_STAR

    def test_trace_is_exact(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            lam = random_spectrum(rng, d)
            m = int(rng.integers(-3, d))
            t = float(lam.sum() + rng.uniform(0.0, 4.0 * d))
            breakdown = nu(lam, m, t)
            assert breakdown.nu.trace() == pytest.approx(t, abs=1e-9)

    def test_matches_entrywise_form(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 9))
            lam = random_spectrum(rng, d)
            m = int(rng.integers(-3, d))
            t = float(lam.sum() + rng.uniform(0.0, 4.0 * d))
            got = nu(lam, m, t).nu.values
            assert np.allclose(got, _nu_entrywise(lam, m, t), atol=1e-9)

    def test_monotone_and_continuous_in_t(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 9))
            lam = random_spectrum(rng, d)
            m = int(rng.integers(-2, d))
            t0 = float(lam.sum())
            grid = t0 + np.linspace(0.0, 3.0 * d, 25)
            prev = None
            for t in grid:
                cur = nu(lam, m, float(t)).nu.values
                if prev is not None:
                    assert np.all(prev <= cur + 1e-12)
                prev = cur
            t = float(t0 + rng.uniform(0.1, 2.0 * d))
            jump = np.abs(
                nu(lam, m, t + 1e-6).nu.values - nu(lam, m, t).nu.values
            ).max()
            assert jump <= 1e-4

    @pytest.mark.parametrize("m", [-1, 0, 1, 3])
    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_trace_raises_without_warning(self, m, t):
        # nu rejects the non-finite level c computed from t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                nu(LAM_B, m, t)

    def test_bad_m(self):
        with pytest.raises(BadM):
            nu(LAM_A, 5, 30.0)
        with pytest.raises(BadM):  # not an integer
            nu([2.0, 1.0], 0.5, 3.0)

    def test_base_trace_returns_lambda_at_every_scale(self, rng):
        # rounding in the cumulative sums once failed every cutoff test at
        # large scales, which gave r = 0 and c = t / d
        for _ in range(300):
            d = int(rng.integers(1, 12))
            lam = random_spectrum(rng, d) * 10.0 ** rng.uniform(-6.0, 6.0)
            m = int(rng.integers(-2, d))
            got = nu(lam, m, float(lam.sum())).nu.values
            assert np.max(np.abs(got - lam)) <= 1e-10 * lam[0]
        # with a zero tail the level rounds a few ulps below 0 at large
        # scales, which an absolute increment slack once rejected
        for _ in range(300):
            d = int(rng.integers(2, 12))
            lam = random_spectrum(rng, d)
            lam[d - int(rng.integers(1, d)) :] = 0.0
            lam *= 10.0 ** rng.uniform(-8.0, 8.0)
            m = int(rng.integers(-2, d))
            got = nu(lam, m, float(lam.sum())).nu.values
            assert np.max(np.abs(got - lam)) <= 1e-12 * lam[0]

    def test_increment_certificate(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 10))
            lam = random_spectrum(rng, d) * 10.0 ** rng.uniform(-3.0, 3.0)
            if rng.random() < 0.3:
                lam = np.sort(rng.choice(lam, size=d))[::-1]
            m = int(rng.integers(-2, d))
            t = float(lam.sum() + rng.uniform(0.0, 3.0 * d) * lam[0])
            b = nu(lam, m, t)
            assert b.kept == max(b.r, m)
            assert b.increment.shape == (d - b.kept,)
            assert np.all(b.increment >= 0.0)
            raised = np.concatenate((lam[: b.kept], lam[b.kept :] + b.increment))
            assert np.max(np.abs(np.sort(raised)[::-1] - b.nu.values)) <= 1e-9 * b.nu.values[0]


def _grid_cases(rng):
    for _ in range(40):
        d = int(rng.integers(1, 9))
        lam = random_spectrum(rng, d)
        if rng.random() < 0.3:
            lam = np.sort(rng.choice(lam, size=d))[::-1]
        m = int(rng.integers(-2, d))
        top = float(lam.sum() + 2.0 * d * lam[0])
        yield lam, m, np.linspace(float(lam.sum()), top, 12)


@pytest.mark.parametrize(
    "fn, kind",
    [
        (lambda lam, m, t: irregularity(lam, t), int),
        (lambda lam, m, t: c_lambda(lam, t), float),
        (r_lambda_m, int),
        (c_lambda_m, float),
    ],
    ids=["irregularity", "c_lambda", "r_lambda_m", "c_lambda_m"],
)
def test_array_traces_match_scalar_calls(rng, fn, kind):
    for lam, m, grid in _grid_cases(rng):
        scalars = [fn(lam, m, float(t)) for t in grid]
        assert all(type(x) is kind for x in scalars)
        assert type(fn(lam, m, np.float64(grid[3]))) is kind
        zero_d = fn(lam, m, np.array(grid[5]))
        assert type(zero_d) is kind and zero_d == scalars[5]
        flat = fn(lam, m, grid)
        assert flat.shape == grid.shape
        assert flat.tolist() == scalars
        square = fn(lam, m, grid.reshape(3, 4))
        assert square.shape == (3, 4)
        assert square.ravel().tolist() == scalars


def test_nu_matches_batched_cutoff_and_level(rng):
    # a scalar nu call and one batched call over the same grid must agree
    # exactly, also at tied entries, zero tails and the breakpoints s*, s**
    for _ in range(60):
        d = int(rng.integers(1, 10))
        lam = random_spectrum(rng, d) * 10.0 ** rng.uniform(-4.0, 4.0)
        if rng.random() < 0.5:
            lam = np.sort(rng.choice(lam, size=d))[::-1]
        if d > 1 and rng.random() < 0.5:
            lam[d - int(rng.integers(1, d)) :] = 0.0
        m = int(rng.integers(-2, d))
        tr = float(lam.sum())
        grid = list(np.linspace(tr, tr + 3.0 * d * lam[0], 13))
        if m >= 1:
            grid += [s_star(lam, m), s_star_star(lam, m)]
        grid = np.array(grid)
        rs, cs = r_lambda_m(lam, m, grid), c_lambda_m(lam, m, grid)
        for i, t in enumerate(grid):
            b = nu(lam, m, float(t))
            assert b.r == rs[i] and b.c == cs[i]


@pytest.mark.parametrize(
    "lam",
    [LAM_B, [5.0, 2.0, 2.0, 0.0, 0.0, 0.0], [3.0, 3.0, 3.0, 3.0], [1.0, 0.0]],
    ids=["tied", "tied-zero-tail", "constant", "d2-zero-tail"],
)
def test_batched_kernel_equals_scalar_nu(lam):
    # one batch mixes traces at, just below and just past s* (and s**), so
    # the kernel's rows take both the waterfilling search and the closed
    # form past s*; each row must equal the scalar nu at that trace exactly
    d, tr = len(lam), float(sum(lam))
    for m in sorted({-2, 0, 1, d - 1}):
        edges = [s_star(lam, m), s_star_star(lam, m)] if m >= 1 else [d * lam[0]]
        grid = [tr, *edges, *np.linspace(tr, 2.0 * max(edges) - tr, 9)]
        for e in edges:
            grid += [np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
        grid = np.array([t for t in grid if t >= tr])
        rs, cs = r_lambda_m(lam, m, grid), c_lambda_m(lam, m, grid)
        for i, t in enumerate(grid):
            b = nu(lam, m, float(t))
            assert (b.r, b.c) == (rs[i], cs[i]), (m, t)


def test_nu_validates_each_spectrum_once(monkeypatch):
    # one validated SpectrumVec for the input, none if it already is one;
    # nu's own result is built by the trusted constructor
    built = []
    init = fo.SpectrumVec.__init__

    def counting_init(self, values):
        built.append(1)
        init(self, values)

    monkeypatch.setattr(fo.SpectrumVec, "__init__", counting_init)
    lam = np.array(LAM_B)
    for m, t in [(-1, 19.0), (0, 40.0), (2, 19.0), (2, 22.0), (2, 30.0), (4, 60.0)]:
        for given, expected in ((lam, 1), (LAM_B, 1), (fo.SpectrumVec(lam), 0)):
            built.clear()
            nu(given, m, t)
            assert len(built) == expected


class TestMembership:
    def test_simple_member(self):
        assert in_lambda_set([2.0, 1.0], 1, 3.0, [3.0, 1.5])

    def test_cap_violation(self):
        assert not in_lambda_set([2.0, 1.0], 1, 3.0, [3.0, 2.5])

    def test_base_point(self):
        for m in (-1, 0, 1):
            for t in (3.0, 0.0, -1.0):  # below tr(lam) the slack still follows lam's scale
                assert in_lambda_set([2.0, 1.0], m, t, [2.0, 1.0])

    def test_trace_shortfall(self):
        assert not in_lambda_set([2.0, 1.0], 0, 5.0, [2.5, 1.5])

    def test_entrywise_violation(self):
        assert not in_lambda_set([2.0, 1.0], 0, 3.0, [3.0, 0.5])
        # an absolute slack of 1e-9 once let this pass; DEFAULT_TOL * t is 3e-21
        assert not in_lambda_set([2e-12, 1e-12], 0, 3e-12, [2e-12, 0.5e-12])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            in_lambda_set([2.0, 1.0], 0, 3.0, [2.0, 1.0, 0.0])

    def test_nu_is_always_a_member(self, rng):
        # at every scale: an absolute slack once rejected nu at 1e10
        for _ in range(200):
            d = int(rng.integers(1, 9))
            lam = random_spectrum(rng, d)
            m = int(rng.integers(-3, d))
            t = float(lam.sum() + rng.uniform(0.0, 4.0 * d))
            for alpha in (1.0, 1e5, 1e10):
                assert in_lambda_set(alpha * lam, m, alpha * t, nu(alpha * lam, m, alpha * t).nu)


class TestSampler:
    def test_zero_scale_returns_nu(self):
        got = sample_lambda_set(LAM_A, 3, 26.5, rng_seed=5, scale=0.0)
        assert np.allclose(got.values, nu(LAM_A, 3, 26.5).nu.values)

    def test_seeded_samples_are_members(self):
        for seed in range(30):
            mu = sample_lambda_set(LAM_A, 3, 26.5, rng_seed=seed)
            assert in_lambda_set(LAM_A, 3, 26.5, mu)

    def test_default_perturbation_follows_rescaling(self):
        lam = np.array([3.0, 2.0, 1.0])
        ref = sample_lambda_set(lam, 0, 7.0, rng_seed=3).values
        assert np.any(ref > nu(lam, 0, 7.0).nu.values)
        for alpha in (1e-8, 1.0, 1e8):
            got = sample_lambda_set(alpha * lam, 0, 7.0 * alpha, rng_seed=3).values
            assert np.max(np.abs(got / alpha - ref)) <= 1e-12 * np.max(ref)

    def test_upward_mass_without_rank_bound(self):
        mu = sample_lambda_set(LAM_A, 0, 24.0, rng_seed=11, scale=10.0)
        assert in_lambda_set(LAM_A, 0, 24.0, mu)
        assert mu.trace() > 24.0


def test_minimality_of_nu(rng):
    # the assembled spectrum is submajorized by every sampled member
    for _ in range(150):
        d = int(rng.integers(1, 9))
        lam = random_spectrum(rng, d)
        m = int(rng.integers(-3, d))
        t = float(lam.sum() + rng.uniform(0.0, 4.0 * d))
        minimal = nu(lam, m, t).nu
        for seed in range(8):
            mu = sample_lambda_set(lam, m, t, rng_seed=seed)
            assert submajorizes(mu, minimal, 1e-9)


def test_equal_trace_minimizer_is_unique(rng):
    # an admissible trace-preserving transfer away from nu breaks minimality
    found = 0
    for _ in range(300):
        d = int(rng.integers(3, 9))
        lam = random_spectrum(rng, d)
        m = int(rng.integers(-2, d))
        t = float(lam.sum() + rng.uniform(0.2, 2.0 * d))
        base = nu(lam, m, t).nu.values.copy()
        cap = np.full(d, np.inf)
        if m >= 1:
            cap[d - m :] = lam[:m]
        moved = None
        for i in range(d - 1):
            for j in range(i + 1, d):
                room_up = (base[i - 1] if i > 0 else np.inf) - base[i]
                room_up = min(room_up, cap[i] - base[i])
                room_down = base[j] - max(
                    lam[j], base[j + 1] if j + 1 < d else 0.0
                )
                delta = 0.25 * min(room_up, room_down)
                if delta > 1e-6:
                    moved = base.copy()
                    moved[i] += delta
                    moved[j] -= delta
                    break
            if moved is not None:
                break
        if moved is None:
            continue
        found += 1
        assert in_lambda_set(lam, m, t, moved)
        assert submajorizes(moved, nu(lam, m, t).nu, 1e-9)
        assert not submajorizes(nu(lam, m, t).nu, moved, 1e-9)
    assert found > 50


def test_membership_set_is_convex(rng):
    for _ in range(100):
        d = int(rng.integers(2, 8))
        lam = random_spectrum(rng, d)
        m = int(rng.integers(-2, d))
        t = float(lam.sum() + rng.uniform(0.0, 2.0 * d))
        mu1 = sample_lambda_set(lam, m, t, rng_seed=int(rng.integers(0, 1 << 30)))
        mu2 = sample_lambda_set(lam, m, t, rng_seed=int(rng.integers(0, 1 << 30)))
        theta = rng.uniform(0.0, 1.0)
        mix = theta * mu1.values + (1.0 - theta) * mu2.values
        assert in_lambda_set(lam, m, t, mix)


def test_spectrum_of_rank_limited_perturbation_is_member(rng):
    # forward direction of the membership characterization
    for _ in range(150):
        d = int(rng.integers(2, 7))
        lam = random_spectrum(rng, d)
        m = int(rng.integers(-2, d))
        rank_cap = d - max(m, 0) if m >= 1 else d
        rank = int(rng.integers(0, rank_cap + 1)) if m >= 1 else int(rng.integers(0, d + 1))
        cplx = bool(rng.integers(0, 2))
        v = random_unitary(rng, d, cplx)
        s0 = (v * lam) @ v.conj().T
        b = random_psd(rng, d, rank=rank, cplx=cplx) if rank else np.zeros((d, d))
        w, _ = fo.eig_hermitian((s0 + b + (s0 + b).conj().T) / 2.0)
        assert in_lambda_set(lam, m, float(w.sum()), np.maximum(w, 0.0))


def test_cutoff_right_continuous_at_jump_traces(rng):
    # at each predicted jump trace the cutoff takes its new, smaller value
    for _ in range(50):
        d = int(rng.integers(2, 10))
        lam = np.cumsum(rng.uniform(0.05, 1.0, size=d))[::-1].copy()
        t0 = float(lam.sum())
        for k in range(1, d):
            if lam[k - 1] <= lam[k]:
                continue
            s_k = float(np.sum(lam[:k]) + (d - k) * lam[k])
            if s_k <= t0 + 1e-6:
                continue
            assert irregularity(lam, s_k) == k
            assert irregularity(lam, s_k + 1e-7) == k
            assert irregularity(lam, s_k - 1e-7) > k
            assert c_lambda(lam, s_k) == pytest.approx(lam[k], abs=1e-9)


class TestUniqueness:
    # nu decides uniqueness too: its verdict is minimizer_is_unique's
    def test_nonpositive_m(self):
        assert minimizer_is_unique(LAM_A, 0, 40.0)
        assert nu(LAM_A, 0, 40.0).unique

    def test_gap_at_m(self):
        # lam_2 = 3 > lam_3 = 1.5: unique for any t
        assert minimizer_is_unique(LAM_DUAL, 2, 18.0)
        assert nu(LAM_DUAL, 2, 18.0).unique

    def test_tie_below_threshold(self):
        # lam_2 = lam_3 = 4 but t <= s* keeps it unique
        assert minimizer_is_unique(LAM_B, 2, 22.5)
        assert nu(LAM_B, 2, 22.5).unique

    def test_tie_above_threshold(self):
        assert not minimizer_is_unique(LAM_B, 2, 24.0)
        assert not nu(LAM_B, 2, 24.0).unique

    def test_follows_the_trace_rule_of_nu(self):
        # tr(LAM_B) = 19: below it there is no minimal spectrum to be unique
        with pytest.raises(BadTrace):
            minimizer_is_unique(LAM_B, 2, 18.0)
