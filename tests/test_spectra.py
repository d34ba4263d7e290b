import math
import warnings

import numpy as np
import pytest

import frameopt as fo
import frameopt.spectra
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
from frameopt.majorization import DEFAULT_TOL, TIE_TOL

from conftest import (
    check_real_input_rule,
    count_calls,
    prefix_sums_within,
    random_psd,
    random_spectrum,
    random_unitary,
)

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
        # nu rejects a non-finite t before its kernel runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                nu(LAM_B, m, t)

    def test_bad_m(self):
        with pytest.raises(BadM):
            nu(LAM_A, 5, 30.0)
        with pytest.raises(BadM):  # not an integer
            nu([2.0, 1.0], 0.5, 3.0)
        with pytest.raises(BadM):  # a bool is not a rank bound, as in frame JSON
            nu([2.0, 1.0], True, 3.0)

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


_TRACE_ENTRY_POINTS = {
    "nu": lambda t: nu(LAM_B, 2, t),
    "irregularity": lambda t: irregularity(LAM_B, t),
    "c_lambda": lambda t: c_lambda(LAM_B, t),
    "r_lambda_m": lambda t: r_lambda_m(LAM_B, 2, t),
    "c_lambda_m": lambda t: c_lambda_m(LAM_B, 2, t),
    "minimizer_is_unique": lambda t: minimizer_is_unique(LAM_B, 2, t),
    "sample_lambda_set": lambda t: sample_lambda_set(LAM_B, 2, t, rng_seed=1),
    "optimal_dual": lambda t: fo.optimal_dual(
        fo.DualProblem(fo.Frame(np.hstack([np.eye(3), np.eye(3)])), t)
    ),
    "optimal_dual_spectrum": lambda t: fo.optimal_dual_spectrum(
        fo.DualProblem(fo.Frame(np.hstack([np.eye(3), np.eye(3)])), t)
    ),
}
_BATCH_ENTRY_POINTS = ["irregularity", "c_lambda", "r_lambda_m", "c_lambda_m"]


@pytest.mark.parametrize("t", [np.nan, np.inf, np.array(np.nan), np.finfo(float).max],
                         ids=["nan", "inf", "array", "max"])
@pytest.mark.parametrize("entry", sorted(_TRACE_ENTRY_POINTS))
def test_every_entry_point_rejects_a_non_finite_trace(entry, t):
    # one trace rule, checked before any kernel runs: no warning, one message;
    # at the float maximum, t * (1 + DEFAULT_TOL) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^trace target must be finite"):
            _TRACE_ENTRY_POINTS[entry](t)
    if np.ndim(t) == 0 and np.isfinite(t):  # just below the margin, t is a trace again
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _TRACE_ENTRY_POINTS[entry](1.79e308)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", _BATCH_ENTRY_POINTS)
def test_one_non_finite_trace_fails_the_whole_batch(entry, bad):
    grid = np.array([19.0, 24.0, bad, 30.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^trace target must be finite"):
            _TRACE_ENTRY_POINTS[entry](grid)
    with pytest.raises(BadTrace):  # a finite batch still meets the floor at its min
        _TRACE_ENTRY_POINTS[entry](np.array([24.0, 18.0]))
    assert _TRACE_ENTRY_POINTS[entry](np.array([])).shape == (0,)


@pytest.mark.parametrize("entry", sorted(_TRACE_ENTRY_POINTS))
def test_every_entry_point_reads_a_real_trace(entry):
    # float(t) once read np.complex128(24 + 1j) as 24, with only a ComplexWarning
    check_real_input_rule(_TRACE_ENTRY_POINTS[entry], 24.0)


@pytest.mark.parametrize("entry", _BATCH_ENTRY_POINTS)
def test_batches_of_traces_are_read_by_the_real_input_rule(entry):
    check_real_input_rule(_TRACE_ENTRY_POINTS[entry], [19.0, 24.0, 30.0])


def test_spectra_are_read_by_the_real_input_rule():
    # through SpectrumVec: nu([2 + 5j, 1], 0, 4) once returned nu = [2, 2]
    check_real_input_rule(lambda lam: nu(lam, 2, 24.0), LAM_B)


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


def test_nu_at_or_below_s_star_searches_once(monkeypatch):
    # below s* the rank bound does not bite, so nu runs the m = 0 search alone
    lam = [5.0, 4.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.0]
    assert s_star(lam, 4) == 31.0
    calls = count_calls(monkeypatch, frameopt.spectra, "_waterfill")
    b = nu(lam, 4, 25.0)
    assert len(calls) == 1
    assert b.regime is Regime.AT_OR_BELOW_S_STAR
    assert (b.r, b.c) == (r_lambda_m(lam, 4, 25.0), c_lambda_m(lam, 4, 25.0))


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


def _waterfill_rows(values, m, tt):
    # the (B, d) mask kernel the scalar one replaced: one row per clamped trace of tt
    d = values.size
    slack = TIE_TOL * tt[:, None]
    if m >= 1:
        sst = s_star(values, m)
        c = float(values[m - 1]) + (tt - sst) / (d - m)
        low = tt <= sst
        if np.count_nonzero(low):
            c[low] = _waterfill_rows(values, 0, tt[low])[1]
        below = values <= c[:, None] + slack
        below[:, -1] = True
        return below.argmax(axis=1), c
    prefix = np.zeros(d)
    np.add.accumulate(values[:-1], out=prefix[1:])
    levels = np.subtract.outer(tt, prefix)
    levels /= np.arange(d, 0, -1, dtype=float)
    fits = levels >= values - slack
    fits[:, -1] = True
    r = fits.argmax(axis=1)
    return r, levels[np.arange(tt.size), r]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernel_cases(rng):
    for d in [*range(1, 21), 200]:
        base = random_spectrum(rng, d)
        tail = base.copy()
        tail[d - d // 2 :] = 0.0
        tied = np.sort(rng.choice(base, size=d))[::-1]
        for k, lam in enumerate((tied, tail, np.full(d, 2.5), np.zeros(d))):
            yield lam * 2.0 ** (-500, 0, 500)[(d + k) % 3]


def test_scalar_kernel_equals_the_mask_kernel(rng):
    # bitwise, at tr(lam), s*, s** and d * lam_1 and the floats next to each,
    # for nu (which runs the m = 0 search at or below s*) and the batch functions
    for lam in _kernel_cases(rng):
        d, tr = lam.size, float(np.add.reduce(lam))
        for m in range(-2, d) if d <= 20 else (-2, 0, 1, 2, d // 2, d - 2, d - 1):
            edges = [tr, d * float(lam[0])]
            if m >= 1:
                edges += [s_star(lam, m), s_star_star(lam, m)]
            grid = [t for x in edges for t in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
            grid = np.concatenate((grid, np.linspace(tr, 2.0 * max(edges), 4)))
            ref_r, ref_c = _waterfill_rows(lam, m, np.maximum(grid, tr))
            assert _same_bits(r_lambda_m(lam, m, grid), ref_r), (d, m)
            assert _same_bits(c_lambda_m(lam, m, grid), ref_c), (d, m)
            if m == 0:
                assert _same_bits(irregularity(lam, grid), ref_r)
                assert _same_bits(c_lambda(lam, grid), ref_c)
            for t in grid[grid >= np.finfo(float).tiny]:  # nu's level underflows below
                b, tc = nu(lam, m, float(t)), np.array([max(float(t), tr)])
                bites = m >= 1 and tc[0] > s_star(lam, m)
                r, c = _waterfill_rows(lam, m if bites else 0, tc)
                assert b.r == r[0] and _same_bits(np.array([b.c]), c), (d, m, t)


def test_batch_setup_runs_once_per_call_and_keeps_its_shapes(monkeypatch):
    lam = [5.0, 4.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.0]
    grid = np.linspace(19.7, 60.0, 100)
    for fn in (r_lambda_m, c_lambda_m):
        calls = count_calls(monkeypatch, frameopt.spectra, "_thresholds")
        assert fn(lam, 3, grid).shape == (100,)
        assert len(calls) == 1  # s* once per call, not once per trace
    empty = r_lambda_m(lam, 1, [])
    assert empty.shape == (0,) and empty.dtype == np.intp
    levels = c_lambda_m(lam, 1, np.empty((0, 3)))
    assert levels.shape == (0, 3) and levels.dtype == np.float64
    assert type(r_lambda_m(lam, 1, np.array(20.0))) is int
    assert type(c_lambda_m(lam, 1, np.array(20.0))) is float


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


def _array_spectrum(lam):
    # reference: SpectrumVec's checks run by numpy on the array, not on a list of floats
    v = np.asarray(lam, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("spectrum must have at least one entry")
    top = float(np.maximum.reduce(np.abs(v)))  # NaN and +-inf propagate through max
    if not math.isfinite(top):
        raise ValueError("spectrum entries must be finite")
    slack = DEFAULT_TOL * top
    if np.count_nonzero(v[1:] > v[:-1] + slack):
        raise ValueError("spectrum entries must be nonincreasing")
    if float(v[-1]) < -slack:
        raise ValueError("spectrum entries must be nonnegative")
    return np.maximum(v, 0.0)


def _array_nu(lam, m, t):
    # reference: nu's assembly with the spectrum built as an array and clamped in
    # place, its level not clamped in Python, and the gaps taken in a pass of their own
    values = _array_spectrum(lam)
    d, vals = values.size, values.tolist()
    t0 = float(np.add.reduce(values))
    t = frameopt.spectra._check_trace(t, t0)
    t = t0 if t <= t0 else t
    sst = sstst = None
    regime, unique = Regime.AT_OR_BELOW_S_STAR, True
    if m >= 1:
        head = float(np.add.reduce(values[:m]))
        sst, sstst = head + (d - m) * float(values[m - 1]), (d - m) * float(values[0]) + head
        if t > sst:
            regime = Regime.AT_OR_ABOVE_S_STAR_STAR if t >= sstst else Regime.BETWEEN
            tie = DEFAULT_TOL * vals[0]
            unique = vals[m - 1] - vals[m] > tie or t <= sst + tie
    r, c = frameopt.spectra._waterfill(vals, m, t, sst)
    kept = max(r, m)
    raised = np.array(vals[:r] + [c] * (d - kept) + vals[r:kept])
    np.maximum(raised, 0.0, out=raised)
    if abs(float(np.add.reduce(raised)) - t) > DEFAULT_TOL * t:
        if c < np.finfo(float).tiny:
            raise BadTrace(f"trace target {t} underflows the level c = {c}")
        raise ArithmeticError("assembled spectrum lost trace mass")
    gaps = [c - v for v in vals[kept:]]
    if min(gaps) < -DEFAULT_TOL * t:
        raise ArithmeticError("gap vector came out negative")
    cut = TIE_TOL * c
    increment = np.array([g if g > cut else 0.0 for g in gaps])
    return r, c, sst, sstst, raised, regime, kept, increment, unique


def _outcome(solve, lam, m, t):
    # every field as bits, or the error's type and message
    try:
        r, c, sst, sstst, spectrum, regime, kept, increment, unique = solve(lam, m, t)
    except (ValueError, ArithmeticError, BadTrace) as exc:
        return type(exc), str(exc)
    if isinstance(spectrum, fo.SpectrumVec):
        assert not (spectrum.values.flags.writeable or increment.flags.writeable)
        spectrum = spectrum.values
    edges = [None if x is None else float(x).hex() for x in (c, sst, sstst)]
    return r, edges, spectrum.tobytes(), regime, kept, increment.tobytes(), unique


# at t = tr its level comes out -4.4e-16, by rounding, and nu clamps it to 0
LEVEL_RESIDUE = [4.860993145997813, 4.498722332075987, 2.4667412258256167, 0.995290062545162,
                 0.0, 0.0, 0.0, 0.0]


def _pinned_spectra(rng):
    yield from ([3.0, 3.0, 3.0, 1.0], [0.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [5.0, 5.0])
    yield from ([1.0, 1.0 + 4e-10, 0.5, 0.5 - 3e-10], [2.0, 1.0, 1.0 + 1.5e-9])  # near-tied
    yield from ([2.0, -0.0, -0.0], [-0.0], [1.0, -0.0, 0.0, -0.0])  # signed zeros
    yield from ([1.0, 0.5, -5e-10], [4.0, -3.9e-9], [1e-6, 2e-7, -1e-16])  # just below zero
    yield LEVEL_RESIDUE
    for d, scale in ((6, 2.0**-500), (9, 1e-6), (12, 1.0), (16, 2.0**500)):
        lam = random_spectrum(rng, d)
        lam[d - d // 3 :] = 0.0
        yield (lam * scale).tolist()


def test_nu_is_pinned_to_the_array_path(rng):
    # bitwise: the validation on Python floats and the list assembly give every
    # field of the array path, at tr, s*, s**, d * lam_1, their neighbours and between
    residue = nu(LEVEL_RESIDUE, 0, float(np.add.reduce(LEVEL_RESIDUE)))
    assert residue.c < 0.0 and residue.nu.values[-1] == 0.0
    for lam in _pinned_spectra(rng):
        d = len(lam)
        values = _array_spectrum(lam)
        tr = float(np.add.reduce(values))
        for m in range(-2, d):
            edges = [tr, d * float(values[0])]
            if m >= 1:
                edges += [s_star(lam, m), s_star_star(lam, m)]
            grid = [t for x in edges for t in (np.nextafter(x, -1.0), x, np.nextafter(x, np.inf))]
            grid += [*np.linspace(tr, 2.0 * max(edges), 5), tr * (1.0 - 5e-10), -0.0, 5e-324]
            for t in grid:
                for given in (lam, np.array(lam)):
                    want = _outcome(_array_nu, given, m, float(t))
                    assert _outcome(nu, given, m, float(t)) == want, (lam, m, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_anywhere_fails_as_before(bad):
    # Python's max skips a NaN inside a list; the finite test must still come first
    bases = ([3.0, 2.0, 1.0, 0.0], [1.0, 5.0, 2.0], [-3.0, 1.0, 2.0], [2.0, -1.0])
    for base in bases:
        for i in range(len(base)):
            lam = list(base)
            lam[i] = bad
            for given in (lam, np.array(lam)):
                want = _outcome(_array_nu, given, 0, 10.0)
                assert want == (ValueError, "spectrum entries must be finite")
                assert _outcome(nu, given, 0, 10.0) == want
    for lam in ([1.0, 2.0], [1.0, 1.0 + 2e-9], [1.0, -0.5], [1.0, -2e-9], []):
        want = _outcome(_array_nu, lam, 0, 10.0)
        assert want[0] is ValueError and _outcome(nu, lam, 0, 10.0) == want


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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_trace(self, t):
        # an infinite slack DEFAULT_TOL * t once accepted the base point at t = inf
        with pytest.raises(ValueError, match="^trace target must be finite"):
            in_lambda_set([2.0, 1.0], 0, t, [2.0, 1.0])

    def test_mu_and_t_are_read_by_the_real_input_rule(self):
        # in_lambda_set([2, 1], 0, 3, [2 + 9j, 1]) once returned True
        check_real_input_rule(lambda mu: in_lambda_set([2.0, 1.0], 1, 3.0, mu), [2.0, 1.0])
        check_real_input_rule(lambda t: in_lambda_set([2.0, 1.0], 1, t, [2.0, 1.5]), 3.0)

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

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0])
    def test_rejects_a_non_finite_or_negative_scale(self, scale):
        with pytest.raises(ValueError, match="^scale must be finite and nonnegative"):
            sample_lambda_set(LAM_A, 3, 26.5, rng_seed=5, scale=scale)

    def test_scale_is_read_by_the_real_input_rule(self):
        # the parse once took np.complex128(0.5 + 1j) as 0.5, with no error
        check_real_input_rule(lambda s: sample_lambda_set(LAM_A, 3, 26.5, 5, scale=s), 0.5)

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
            assert submajorizes(mu, minimal) and prefix_sums_within(mu, minimal, 1e-9)


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
        assert submajorizes(moved, base) and prefix_sums_within(moved, base, 1e-9)
        assert not submajorizes(base, moved)
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
