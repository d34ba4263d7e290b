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


def test_overflowing_neg_entropy_is_inf_without_warning():
    assert fo.trace_f(np.full(4, 1e306), fo.PotentialKind.NEG_ENTROPY) == np.inf
    # S = 1e306 I: x log x ~ 7e308 overflows on every eigenvalue
    frame = fo.Frame(1e153 * np.eye(3))
    assert fo.potential(frame, fo.PotentialKind.NEG_ENTROPY) == np.inf


def test_subnormal_matrices_factor_without_warning(rng):
    # the adjoint test's norm divided complex entries by a subnormal max,
    # and 1 / max overflowed
    for cplx in (False, True):
        s = random_psd(rng, 4, cplx=cplx)
        w, _ = fo.eig_hermitian(s)
        for alpha in (1e-300, 1e-310, 1e-315):
            a = alpha * s
            a[0, 1] *= 1.0 + 1e-13  # off its mirror, so the checked path runs
            if alpha >= 1e-310:
                assert not np.array_equal(a, a.conj().T)
            got, _ = fo.eig_hermitian(a)
            op = fo.HermitianPSD(a)
            assert np.array_equal(op.eigenvalues.values, np.maximum(got, 0.0))
            # subnormals are spaced 4.9e-324 apart: 5e-9 of an entry at 1e-315
            assert _rel(got / alpha, w) <= (1e-12 if alpha >= 1e-310 else 1e-8)


def test_hermitian_part_of_a_huge_matrix_does_not_overflow(rng):
    # A + A* overflows once entries pass 9e307; halving first does not
    z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    z[0] *= 3.0
    g = z @ z.conj().T
    w, _ = fo.eig_hermitian(g)
    scale = 1.6e308 / w[0]
    a = scale * g
    a[0, 1] = np.nextafter(a[0, 1].real, 0.0) + 1j * a[0, 1].imag
    assert not np.array_equal(a, a.conj().T)  # Hermitian only to rounding
    assert np.abs(a).max() > np.finfo(float).max / 2.0
    op = fo.HermitianPSD(a)
    assert _rel(op.eigenvalues.values / scale, w) <= 1e-12


def test_frame_at_scale_1e154_has_finite_bounds():
    # S = 1e308 I; frame scales from 1e155 overflow T T* itself
    frame = fo.Frame(1e154 * np.eye(3))
    assert fo.frame_bounds(frame) == (1e308, 1e308)
    assert fo.potential(frame, fo.PotentialKind.NEG_ENTROPY) == np.inf
