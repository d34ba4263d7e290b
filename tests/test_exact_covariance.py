"""Bitwise covariance of both solvers under scaling by a power of two.

Scaling F by 2^e (with beta by 4^e, t by 4^-e) is exact in floating point
while every value stays normal, so each answer scaled back must equal the
unscaled answer bit for bit, not only to rounding.  A factorization that
rescales its input by other factors (as LAPACK does far from norm 1) or a
tolerance that is not relative would break this inside the range below.
The majorization predicates give the same verdict at every 2^e times their inputs.
"""

import numpy as np
import pytest

from frameopt import (
    CompletionProblem,
    DualProblem,
    Frame,
    complete,
    entrywise_leq,
    majorizes,
    optimal_dual,
    submajorizes,
)

from test_symmetries import _completion_case, _dual_case

POWERS = (-150, -20, 3, 20, 150)


def test_completion_is_exactly_covariant(rng):
    for _ in range(160):
        a, beta = _completion_case(rng)
        base = complete(CompletionProblem(Frame(a), beta))
        for e in POWERS:
            alpha = 2.0**e
            res = complete(CompletionProblem(Frame(alpha * a), alpha**2 * beta))
            assert np.array_equal(res.nu.values / alpha**2, base.nu.values)
            assert res.feasible == base.feasible
            if base.feasible:
                assert np.array_equal(res.added / alpha, base.added)


def test_dual_is_exactly_covariant(rng):
    for _ in range(160):
        a, t = _dual_case(rng)
        base = optimal_dual(DualProblem(Frame(a), t))
        for e in POWERS:
            alpha = 2.0**e
            res = optimal_dual(DualProblem(Frame(alpha * a), t / alpha**2))
            assert np.array_equal(res.nu.values * alpha**2, base.nu.values)
            assert np.array_equal(res.dual.synthesis * alpha, base.dual.synthesis)


_ULP = np.spacing(2.0)  # 4.4e-16, the rounding of the entry 2
# (predicate, first, second, verdict at scale 1): real violations, which an absolute
# slack of 1e-9 once accepted at 2^-40, and excesses of one rounding, which it once
# rejected at 2^40 and above
PREDICATE_CASES = [
    (majorizes, [2.0, 1.0], [3.0, 0.0], False),
    (submajorizes, [2.0, 1.0], [3.0, 0.0], False),
    (entrywise_leq, [2.0, 1.0], [1.0, 1.0], False),
    (majorizes, [2.0, 1.0], [3.0, 1.0], False),
    (majorizes, [2.0, 1.0], [1.5, 1.5], True),
    (majorizes, [2.0, 1.0], [2.0 + _ULP, 1.0], True),
    (majorizes, [2.0, 1.0], [1.5 + _ULP, 1.5], True),
    (submajorizes, [2.0, 1.0], [2.0 + _ULP, 1.0 + _ULP], True),
    (entrywise_leq, [2.0 + _ULP, 1.0 + _ULP], [2.0, 1.0], True),
]


@pytest.mark.parametrize("case", range(len(PREDICATE_CASES)))
def test_predicates_are_exactly_covariant(case):
    predicate, a, b, verdict = PREDICATE_CASES[case]
    a, b = np.array(a), np.array(b)
    assert predicate(a, b) is verdict
    for e in POWERS + (-40, 40):
        assert predicate(2.0**e * a, 2.0**e * b) is verdict, e


def test_predicates_keep_their_verdicts_on_random_pairs(rng):
    for _ in range(300):
        d = int(rng.integers(1, 7))
        y = rng.uniform(-1.0, 3.0, size=d)
        x = y[rng.permutation(d)] + rng.integers(-2, 3, size=d) * np.spacing(y)
        for predicate, first, second in ((majorizes, y, x), (submajorizes, y, x),
                                         (entrywise_leq, x, y)):
            verdict = predicate(first, second)
            for e in POWERS:
                assert predicate(2.0**e * first, 2.0**e * second) is verdict
