import warnings

import numpy as np
import pytest

import frameopt as fo
from frameopt import (
    HermitianPSD,
    PotentialKind,
    SpectrumVec,
    eig_hermitian,
    entrywise_leq,
    majorizes,
    sort_desc,
    submajorizes,
    trace_f,
)
from frameopt.errors import DomainError, LengthMismatch, NotHermitian, ShapeMismatch

from conftest import check_real_input_rule, prefix_sums_within


class TestSortDesc:
    def test_basic(self):
        assert sort_desc([1, 3, 2]).tolist() == [3, 2, 1]

    def test_reference_pair(self):
        # the gap vector of the 2-vector completion example comes listed ascending
        assert sort_desc([2.25, 3.25]).tolist() == [3.25, 2.25]

    def test_sorted_input_unchanged(self):
        x = [5.0, 4.0, 4.0, 1.0]
        assert sort_desc(x).tolist() == x

    def test_negative_entries_allowed(self):
        assert sort_desc([-2.0, 1.0, -0.5]).tolist() == [1.0, -0.5, -2.0]


class TestSubmajorizes:
    def test_reference_feasible_pair(self):
        y, x = [2.25, 3.25], [3.0, 2.5]
        assert submajorizes(y, x) and prefix_sums_within(y, x, 1e-9)
        # traces agree, so this is full majorization too
        assert majorizes(y, x) and prefix_sums_within(y, x, 1e-9, equal_trace=True)

    def test_reference_infeasible_pair(self):
        assert not submajorizes([2.25, 3.25], [3.5, 2.0])

    def test_reflexive(self):
        x = [4.0, 2.0, 1.0]
        assert submajorizes(x, x)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            submajorizes([1.0, 2.0], [1.0])


class TestMajorizes:
    def test_flat_below_spiked(self):
        assert majorizes([2.0, 0.0], [1.0, 1.0])

    def test_four_norms_against_padded_gap_vector(self):
        padded = [1.875, 0.875, 0.0, 0.0]
        assert majorizes(padded, [1.0, 1.0, 0.5, 0.25])

    def test_infeasible_four_norms(self):
        padded = [1.875, 0.875, 0.0, 0.0]
        assert not majorizes(padded, [2.0, 0.25, 0.25, 0.25])

    def test_trace_gap_fails(self):
        assert not majorizes([3.0, 1.0], [2.0, 1.0])


@pytest.mark.parametrize("predicate", [majorizes, submajorizes, entrywise_leq])
class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_raises_on_either_side(self, predicate, bad):
        # validation comes before the trace test: inf is an error, not False
        for y, x in (([1.0, 0.0], [bad, 0.0]), ([bad, 0.0], [1.0, 0.0])):
            with pytest.raises(ValueError, match="finite"):
                predicate(y, x)

    def test_length_mismatch_comes_first(self, predicate):
        with pytest.raises(LengthMismatch):
            predicate([1.0, np.inf], [1.0])


class TestEntrywise:
    def test_equal(self):
        assert entrywise_leq([1.0, 2.0], [1.0, 2.0])

    def test_leq(self):
        assert entrywise_leq([1.0, 2.0], [2.0, 2.0])

    def test_not_leq(self):
        assert not entrywise_leq([3.0, 1.0], [2.0, 2.0])

    @pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
    def test_slack_follows_the_largest_entry(self, scale):
        # DEFAULT_TOL * max|entry| = 2e-9 * scale: an absolute 1e-9 once made
        # 2^-40 * [2, 1] <= 2^-40 * [1, 1] true
        y = scale * np.array([2.0, 1.0])
        assert not entrywise_leq(y, scale * np.array([1.0, 1.0]))
        assert entrywise_leq(scale * np.array([2.0 + 1.9e-9, 1.0]), y)
        assert not entrywise_leq(scale * np.array([2.0 + 2.1e-9, 1.0]), y)

    def test_no_warning_near_the_float_maximum(self):
        top = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entrywise_leq([top, -top], [top, top])
            assert not entrywise_leq([top, top], [top, -top])
            assert entrywise_leq([], [])


class TestTraceF:
    def test_frame_potential_hand_sum(self):
        # 81 + 25 + 2 * 18.0625 + 16
        value = trace_f([9.0, 5.0, 4.25, 4.25, 4.0], PotentialKind.FRAME_POTENTIAL)
        assert value == pytest.approx(158.125, abs=1e-12)

    def test_mse_of_ones(self):
        assert trace_f([1.0, 1.0, 1.0], PotentialKind.MEAN_SQUARE_ERROR) == pytest.approx(3.0)

    def test_neg_entropy_of_ones(self):
        assert trace_f([1.0, 1.0], PotentialKind.NEG_ENTROPY) == 0.0

    def test_neg_entropy_zero_is_zero(self):
        assert trace_f([1.0, 0.0], PotentialKind.NEG_ENTROPY) == 0.0
        with pytest.raises(DomainError):  # but a negative entry has no x log x
            trace_f([-1.0, 1.0], PotentialKind.NEG_ENTROPY)

    def test_mse_rejects_zero(self):
        with pytest.raises(DomainError):
            trace_f([1.0, 0.0], PotentialKind.MEAN_SQUARE_ERROR)

    def test_kind_from_name(self):
        assert PotentialKind("fp") is PotentialKind.FRAME_POTENTIAL
        with pytest.raises(ValueError):
            PotentialKind("nope")


def test_overflowing_frame_potential_is_inf_without_warning():
    assert trace_f([1e200, 1.0], PotentialKind.FRAME_POTENTIAL) == np.inf


class TestSpectrumVec:
    def test_clamps_tiny_negative(self):
        v = SpectrumVec([1.0, 1e-12, -1e-12])
        assert v.values[-1] == 0.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SpectrumVec([1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SpectrumVec([1.0, -0.5])

    def test_read_only(self):
        v = SpectrumVec([2.0, 1.0])
        with pytest.raises(ValueError):
            v.values[0] = 3.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        for entries in ([bad], [bad, 1.0], [3.0, bad, 1.0], [3.0, 2.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                SpectrumVec(entries)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SpectrumVec([])

    def test_flattens_2d_input(self):
        v = SpectrumVec([[3.0, 2.0], [1.0, 0.0]])
        assert v.values.shape == (4,)
        assert v.values.tolist() == [3.0, 2.0, 1.0, 0.0]

    def test_copies_caller_array(self):
        a = np.array([2.0, 1.0, -1e-12])
        v = SpectrumVec(a)
        assert not np.shares_memory(a, v.values)
        assert a.flags.writeable and a[-1] == -1e-12
        a[0] = 5.0
        assert v.values.tolist() == [2.0, 1.0, 0.0]

    def test_all_zero_accepted(self):
        assert SpectrumVec(np.zeros(3)).values.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tiny_negative_becomes_positive_zero(self, scale):
        for tail in (-0.5e-9 * scale, -0.0):
            v = SpectrumVec([scale, tail])
            assert v.values[-1] == 0.0 and not np.signbit(v.values[-1])
        with pytest.raises(ValueError, match="nonnegative"):
            SpectrumVec([scale, -2e-9 * scale])

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_order_slack_is_relative_to_the_top_entry(self, scale):
        top, slack = 4.0 * scale, 4e-9 * scale
        inside = [top, scale, scale + 0.9 * slack]
        assert SpectrumVec(inside).values.tolist() == inside
        with pytest.raises(ValueError, match="nonincreasing"):
            SpectrumVec([top, scale, scale + 1.1 * slack])

    def test_no_warning_near_the_float_maximum(self):
        # an entry plus the order slack past the float range is inf, above the next entry
        top = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in ([top, top], [top, 1.0]):
                assert SpectrumVec(lam).values.tolist() == lam
            with pytest.raises(ValueError, match="nonincreasing"):
                SpectrumVec([1.0, top])


_REAL_VECTOR_READERS = {
    "SpectrumVec": SpectrumVec,
    "sort_desc": sort_desc,
    "majorizes y": lambda v: majorizes(v, [2.0, 2.0, 2.0]),
    "majorizes x": lambda v: majorizes([3.0, 2.0, 1.0], v),
    "submajorizes y": lambda v: submajorizes(v, [2.0, 2.0, 1.5]),
    "submajorizes x": lambda v: submajorizes([3.0, 2.0, 1.0], v),
    "entrywise_leq x": lambda v: entrywise_leq(v, [3.0, 2.5, 1.0]),
    "entrywise_leq y": lambda v: entrywise_leq([2.0, 2.0, 1.0], v),
    "trace_f": lambda v: trace_f(v, PotentialKind.NEG_ENTROPY),
}


@pytest.mark.parametrize("entry", sorted(_REAL_VECTOR_READERS))
def test_vectors_are_read_by_the_real_input_rule(entry):
    # a float cast once dropped a nonzero imaginary part with only a ComplexWarning
    check_real_input_rule(_REAL_VECTOR_READERS[entry], [3.0, 2.0, 1.0])


_HUGE = [[1, 10**400], [10**400, 1]]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: fo.nu([2, 1], 0, 10**400), ValueError),
        (lambda: fo.c_lambda([2, 1], [10**400]), ValueError),
        (lambda: fo.nu([10**400, 1], 0, 5.0), ValueError),
        (lambda: sort_desc([10**400, 1]), ValueError),
        (lambda: fo.CompletionProblem(fo.Frame(np.eye(2)), [10**400]), ValueError),
        (lambda: fo.Frame([[10**400, 1]]), ShapeMismatch),
        (lambda: eig_hermitian(_HUGE), NotHermitian),
        (lambda: HermitianPSD(_HUGE), NotHermitian),
        (lambda: HermitianPSD.from_eigensystem([2, 1], _HUGE), ValueError),
    ],
    ids=["nu t", "c_lambda t", "nu lam", "sort_desc", "CompletionProblem beta", "Frame",
         "eig_hermitian", "HermitianPSD", "from_eigensystem"],
)
def test_an_integer_past_the_float_range_is_not_finite(call, error):
    # the float cast of such an integer once raised a bare OverflowError or TypeError
    with pytest.raises(error, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: fo.nu([2, 1], 0, "5"), ValueError),
        (lambda: SpectrumVec(["2", "1"]), ValueError),
        (lambda: fo.Frame([["1", "2"]]), ShapeMismatch),
        (lambda: eig_hermitian([["1", "0"], ["0", "1"]]), NotHermitian),
        (lambda: HermitianPSD.from_eigensystem([2, 1], [["1", "0"], ["0", "1"]]), ValueError),
        (lambda: fo.Frame([[1j, 10**400], [0, 1]]), ShapeMismatch),
        (lambda: HermitianPSD.from_eigensystem([2, 1], [[np.nan, 0], [0, 1]]), ValueError),
    ],
    ids=["nu t text", "SpectrumVec text", "Frame text", "eig_hermitian text",
         "from_eigensystem text", "Frame complex and huge", "from_eigensystem NaN"],
)
def test_each_reader_takes_numbers_only(call, error):
    # text was once parsed as numbers, the mixed Frame raised a bare TypeError and a
    # NaN eigenvector passed the orthonormality test
    with pytest.raises(error):
        call()


def test_a_hermitian_matrix_is_stored_as_read():
    # the stored matrix was once a second copy of the raw argument, here int64
    assert HermitianPSD([[2, 0], [0, 1]]).matrix.dtype == np.float64


def test_entrywise_implies_submajorized(rng):
    for _ in range(200):
        d = int(rng.integers(1, 9))
        x = rng.uniform(-2.0, 4.0, size=d)
        y = x + rng.uniform(0.0, 2.0, size=d)
        assert entrywise_leq(x, y)
        assert submajorizes(y, x)


def test_submajorization_transitive(rng):
    for _ in range(200):
        d = int(rng.integers(1, 7))
        x = rng.uniform(0.0, 3.0, size=d)
        y = x + rng.uniform(0.0, 1.0, size=d)
        z = y + rng.uniform(0.0, 1.0, size=d)
        assert submajorizes(y, x) and submajorizes(z, y)
        assert submajorizes(z, x)


def test_concatenation_preserves_submajorization(rng):
    # If gamma is submajorized by alpha, x sits below every gamma entry and
    # the traces line up, then (gamma, x 1_q) is submajorized by (alpha, beta).
    for _ in range(300):
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        alpha = rng.uniform(0.0, 4.0, size=p)
        gamma = np.sort(alpha)[::-1] - rng.uniform(0.0, 0.3, size=p)
        gamma = np.maximum.accumulate(gamma[::-1])[::-1]  # keep it a valid vector
        if not submajorizes(alpha, gamma):
            continue
        x = float(gamma.min() - rng.uniform(0.0, 1.0))
        slack = np.sum(alpha) - np.sum(gamma)
        beta = rng.uniform(0.0, 1.0, size=q)
        beta = beta * ((q * x + slack) / max(np.sum(beta), 1e-12))
        if np.sum(np.concatenate((gamma, np.full(q, x)))) > np.sum(
            np.concatenate((alpha, beta))
        ):
            continue
        assert submajorizes(
            np.concatenate((alpha, beta)), np.concatenate((gamma, np.full(q, x)))
        )


def test_strict_convexity_rigidity(rng):
    # If x is submajorized by y and the strictly convex f = x^2 has equal
    # trace sums, x must be a permutation of y.  Rational entries keep the
    # arithmetic exact; a genuine flattening must strictly drop the sum.
    fp = PotentialKind.FRAME_POTENTIAL
    for _ in range(300):
        d = int(rng.integers(2, 7))
        y = rng.integers(0, 12, size=d).astype(float) / 4.0
        x = np.array(sorted(y, reverse=True))[rng.permutation(d)]
        assert submajorizes(y, x)
        assert trace_f(x, fp) == pytest.approx(trace_f(y, fp), abs=1e-12)
        assert sort_desc(x).tolist() == sort_desc(y).tolist()
        if y.max() > y.min():
            i, j = int(np.argmax(y)), int(np.argmin(y))
            z = y.copy()
            z[i] = z[j] = (y[i] + y[j]) / 2.0
            assert submajorizes(y, z)
            assert trace_f(z, fp) < trace_f(y, fp) - 1e-12
            assert sort_desc(z).tolist() != sort_desc(y).tolist()
