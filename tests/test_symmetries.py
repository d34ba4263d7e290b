"""Covariance of both solvers under the problem's symmetries.

Rescaling F -> aF (with beta -> a^2 beta and t -> t / a^2), a unitary
change of basis, a permutation of the vectors and the embedding of real
data as complex data map a completion or dual problem to one whose answer
is the same, moved by the same map: nu scales by a^2 (a^-2 for the dual)
and is otherwise unchanged.  Every solved instance is also checked
against its certificates, all with bounds relative to the problem's scale:
the achieved spectrum equals nu, the added squared norms equal beta, the
duality residual is near zero, and the dual's added part lies on
orthogonal kernel directions carrying the increment.
"""

import numpy as np

import frameopt as fo
from frameopt import CompletionProblem, DualProblem, Frame, complete, optimal_dual

from conftest import frame_with_spectrum, random_unitary

SCALES = [10.0**e for e in range(-8, 9)]
REL = 1e-8


def _rel(got, want):
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def _eig_desc(s):
    return np.linalg.eigvalsh((s + s.conj().T) / 2.0)[::-1]


def _completion_case(rng):
    d = int(rng.integers(2, 7))
    k = int(rng.integers(1, d))
    cplx = bool(rng.random() < 0.5)
    lam = np.sort(rng.uniform(0.2, 3.0, d))[::-1]
    if rng.random() < 0.3:
        j = int(rng.integers(0, d - 1))
        lam[j + 1] = lam[j]
    a = frame_with_spectrum(rng, lam, d + int(rng.integers(0, 3)), cplx).synthesis
    beta = rng.uniform(0.1, 3.0, k)
    if rng.random() < 0.5:
        beta[:] = beta[0]  # uniform norms are always feasible
    return a, beta


def _dual_case(rng):
    d = int(rng.integers(2, 6))
    n = int(rng.integers(d + 1, 2 * d + 2))
    cplx = bool(rng.random() < 0.5)
    lam = np.sort(rng.uniform(0.2, 3.0, d))[::-1]
    if rng.random() < 0.3:
        j = int(rng.integers(0, d - 1))
        lam[j + 1] = lam[j]
    frame = frame_with_spectrum(rng, lam, n, cplx)
    t0 = fo.inverse_operator(frame).trace()
    t = t0 if rng.random() < 0.25 else t0 * (1.0 + rng.uniform(0.0, 2.0))
    return frame.synthesis, t


def _certified_completion(a, beta):
    res = complete(CompletionProblem(Frame(a), beta))
    nu = res.nu.values
    if res.feasible:
        g = res.added
        assert _rel(np.sum(np.abs(g) ** 2, axis=0), beta) <= REL
        assert _rel(_eig_desc(a @ a.conj().T + g @ g.conj().T), nu) <= REL
    return res


def _certified_dual(a, t):
    frame = Frame(a)
    res = optimal_dual(DualProblem(frame, t))
    d = frame.d
    w = res.dual.synthesis
    nu = res.nu.values
    assert np.linalg.norm(w @ a.conj().T - np.eye(d)) <= REL * np.sqrt(d)
    assert _rel(_eig_desc(w @ w.conj().T), nu) <= REL
    # the added part maps onto kernel directions: orthogonal to the frame,
    # and its operator carries exactly the increment of nu
    added = w - fo.canonical_dual(frame).synthesis
    assert np.linalg.norm(a @ added.conj().T) <= REL * np.linalg.norm(a) * np.linalg.norm(w)
    breakdown = fo.optimal_dual_spectrum(DualProblem(frame, t))
    masses = np.zeros(d)
    masses[: breakdown.increment.size] = np.sort(breakdown.increment)[::-1]
    assert np.max(np.abs(_eig_desc(added @ added.conj().T) - masses)) <= REL * nu[0]
    return res


def test_completion_is_scale_covariant(rng):
    for _ in range(25):
        a, beta = _completion_case(rng)
        base = _certified_completion(a, beta)
        for alpha in SCALES:
            res = _certified_completion(alpha * a, alpha**2 * beta)
            assert res.feasible == base.feasible
            assert _rel(res.nu.values / alpha**2, base.nu.values) <= REL
            assert res.unique_B == base.unique_B


def test_dual_is_scale_covariant(rng):
    for _ in range(25):
        a, t = _dual_case(rng)
        base = _certified_dual(a, t)
        for alpha in SCALES:
            res = _certified_dual(alpha * a, t / alpha**2)
            assert _rel(res.nu.values * alpha**2, base.nu.values) <= REL
            assert res.unique_S == base.unique_S


def test_unitary_permutation_and_complex_embedding_keep_the_completion(rng):
    for _ in range(15):
        a, beta = _completion_case(rng)
        base = _certified_completion(a, beta)
        d, n = a.shape
        u = random_unitary(rng, d, cplx=True)
        variants = [
            (u @ a, beta),
            (a[:, rng.permutation(n)], beta[rng.permutation(beta.size)]),
            (a.astype(complex), beta),
        ]
        for a2, beta2 in variants:
            res = _certified_completion(a2, beta2)
            assert res.feasible == base.feasible
            assert _rel(res.nu.values, base.nu.values) <= REL


def test_unitary_permutation_and_complex_embedding_keep_the_dual(rng):
    for _ in range(15):
        a, t = _dual_case(rng)
        base = _certified_dual(a, t)
        d, n = a.shape
        u = random_unitary(rng, d, cplx=True)
        for a2 in (u @ a, a[:, rng.permutation(n)], a.astype(complex)):
            res = _certified_dual(a2, t)
            assert _rel(res.nu.values, base.nu.values) <= REL
