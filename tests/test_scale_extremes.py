"""Both solvers at frame scales 1e+-80, 1e+-100 and 1e+-150, with no warning.

There the frame operator sits as low as 1e-300 or as high as 1e300, so
a Frobenius norm of S, or a frame potential, that squares its entries
leaves the float range.  Warnings are errors in this suite, so a
spurious overflow fails here.  Every answer is checked with the
certificates of ``test_symmetries`` and against the unscaled problem.
"""

import numpy as np

import frameopt as fo

from conftest import random_psd
from test_symmetries import (
    REL,
    _certified_completion,
    _certified_dual,
    _completion_case,
    _dual_case,
    _rel,
)

EXTREMES = (1e-80, 1e80, 1e-100, 1e100, 1e-150, 1e150)


def test_completion_at_extreme_scales(rng):
    for _ in range(10):
        a, beta = _completion_case(rng)
        base = _certified_completion(a, beta)
        for alpha in EXTREMES:
            res = _certified_completion(alpha * a, alpha**2 * beta)
            assert res.feasible == base.feasible
            assert _rel(res.nu.values / alpha**2, base.nu.values) <= REL
            assert res.unique_B == base.unique_B
        # nu ~ 1e160: its frame potential overflows and is reported as inf
        assert res.lower_bounds["fp"] == np.inf


def test_completion_near_underflow(rng):
    # nu ~ 1e-310 is subnormal: 1 / nu overflows, so the MSE bound is inf
    alpha = 1e-155
    for _ in range(10):
        a, beta = _completion_case(rng)
        base = _certified_completion(a, beta)
        res = _certified_completion(alpha * a, alpha**2 * beta)
        assert res.feasible == base.feasible
        assert _rel(res.nu.values / alpha**2, base.nu.values) <= REL
        assert res.unique_B == base.unique_B
        assert res.lower_bounds["mse"] == np.inf


def test_dual_at_extreme_scales(rng):
    for _ in range(10):
        a, t = _dual_case(rng)
        base = _certified_dual(a, t)
        for alpha in EXTREMES:
            res = _certified_dual(alpha * a, t / alpha**2)
            assert _rel(res.nu.values * alpha**2, base.nu.values) <= REL
            assert res.unique_S == base.unique_S


def test_eigensystem_of_a_huge_matrix(rng):
    for cplx in (False, True):
        s = random_psd(rng, 5, cplx=cplx)
        w, _ = fo.eig_hermitian(s)
        for alpha in (1e-160, 1e160):
            op = fo.HermitianPSD(alpha * s)
            assert _rel(op.eigenvalues.values / alpha, w) <= 1e-12
