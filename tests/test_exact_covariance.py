"""Bitwise covariance of both solvers under scaling by a power of two.

Scaling F by 2^e (with beta by 4^e, t by 4^-e) is exact in floating point
while every value stays normal, so each answer scaled back must equal the
unscaled answer bit for bit, not only to rounding.  A factorization that
rescales its input by other factors (as LAPACK does far from norm 1) or a
tolerance that is not relative would break this inside the range below.
"""

import numpy as np

from frameopt import CompletionProblem, DualProblem, Frame, complete, optimal_dual

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
