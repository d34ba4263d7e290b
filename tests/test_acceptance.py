"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import contextlib

import numpy as np
import pytest

import frameopt as fo
from frameopt import (
    CompletionProblem,
    DualProblem,
    Frame,
    PotentialKind,
)

from conftest import (
    DUAL_SYNTHESIS,
    EJ1_SYNTHESIS,
    frame_with_spectrum,
    mixed_toward_average,
    null_space_onb,
    prefix_sums_within,
    random_psd,
    random_unitary,
    spread_away_from,
)


@contextlib.contextmanager
def report(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def test_criterion_01_two_vector_completion():
    with report("01", "reference two-vector completion"):
        frame = Frame(EJ1_SYNTHESIS)
        lam = fo.frame_operator(frame).eigenvalues
        assert fo.r_lambda_m(lam, 3, 26.5) == 2
        pl = fo.plan(CompletionProblem(frame, [3.0, 2.5]))
        assert pl.r_hat == 3
        assert pl.c_hat == pytest.approx(4.25, abs=5e-3)
        assert np.allclose(pl.mu_hat, [2.25, 3.25], atol=5e-3)
        assert pl.feasible
        res = fo.complete(CompletionProblem(frame, [3.0, 2.5]))
        w = fo.frame_operator(res.completed).eigenvalues.values
        assert np.allclose(w, [9.0, 5.0, 4.25, 4.25, 4.0], atol=5e-3)
        assert not fo.plan(CompletionProblem(frame, [3.5, 2.0])).feasible


def test_criterion_02_four_vector_completion():
    with report("02", "four-vector completion, m = 1"):
        frame = Frame(EJ1_SYNTHESIS)
        prob = CompletionProblem(frame, [1.0, 1.0, 0.5, 0.25])
        assert prob.m == 1
        pl = fo.plan(prob)
        assert pl.r_hat == 3
        assert np.allclose(pl.mu_hat, [0.875, 1.875], atol=5e-3)
        res = fo.complete(prob)
        w = fo.frame_operator(res.completed).eigenvalues.values
        assert np.allclose(w, [9.0, 5.0, 4.0, 2.875, 2.875], atol=5e-3)
        assert not fo.plan(
            CompletionProblem(frame, [2.0, 0.25, 0.25, 0.25])
        ).feasible


def test_criterion_03_tied_spectrum_completion():
    with report("03", "tied-spectrum completion, m = 2"):
        lam = [7.0, 4.0, 4.0, 3.0, 1.0]
        assert fo.r_lambda_m(lam, 2, 24.0) == 1
        assert fo.c_lambda_m(lam, 2, 24.0) == pytest.approx(4.3333, abs=1e-3)
        synth = np.zeros((5, 6))
        synth[0, 0] = synth[0, 1] = np.sqrt(3.5)
        synth[1, 2] = 2.0
        synth[2, 3] = 2.0
        synth[3, 4] = np.sqrt(3.0)
        synth[4, 5] = 1.0
        pl = fo.plan(CompletionProblem(Frame(synth), [2.0, 2.0, 1.0]))
        assert np.allclose(pl.mu_hat, [0.3333, 1.3333, 3.3333], atol=1e-3)
        assert np.allclose(
            pl.nu.values, [7.0, 4.3333, 4.3333, 4.3333, 4.0], atol=1e-3
        )
        assert pl.feasible
        assert not pl.unique_B  # s* = 23 < 24 and lam_2 == lam_3


def test_criterion_04_reference_optimal_dual():
    with report("04", "reference optimal dual at t = 16.5"):
        frame = Frame(DUAL_SYNTHESIS)
        sinv = fo.inverse_operator(frame)
        assert np.allclose(
            sinv.eigenvalues.values, [4.0, 3.0, 1.5, 0.5, 0.4], atol=5e-3
        )
        prob = DualProblem(frame, 16.5)
        assert prob.m == 2
        res = fo.optimal_dual(prob)
        assert fo.duality_residual(frame, res.dual) <= 1e-6
        w = fo.frame_operator(res.dual).eigenvalues.values
        assert np.allclose(w, [4.0, 3.1667, 3.1667, 3.1667, 3.0], atol=5e-3)


def test_criterion_05_minimality_property_suite():
    with report("05", "minimal spectrum submajorized by members"):
        rng = np.random.default_rng(501)
        configs = 0
        samples = 0
        while configs < 200:
            d = int(rng.integers(1, 9))
            lam = np.sort(rng.uniform(0.0, 5.0, size=d))[::-1]
            m = int(rng.integers(-3, d))
            t = float(lam.sum() + rng.uniform(0.0, 4.0 * d))
            minimal = fo.nu(lam, m, t).nu
            configs += 1
            for k in range(52):
                mu = fo.sample_lambda_set(lam, m, t, rng_seed=int(rng.integers(1 << 31)))
                assert fo.in_lambda_set(lam, m, t, mu)
                assert fo.submajorizes(mu, minimal) and prefix_sums_within(mu, minimal, 1e-9)
                samples += 1
        assert configs >= 200 and samples >= 10_000


def _completion_rivals(rng, frame, beta, count):
    d = frame.d
    beta = np.asarray(beta, dtype=float)
    k = beta.size
    for _ in range(count):
        sigma = spread_away_from(rng, np.sort(beta)[::-1])
        v = random_unitary(rng, d)[:, :k]
        b_alt = fo.HermitianPSD((v * sigma) @ v.T)
        g = fo.realize_frame(b_alt, beta)
        yield Frame(np.hstack([frame.synthesis, g]))


def test_criterion_06_optimality_against_random_rivals():
    with report("06", "reference optima beat random rivals"):
        rng = np.random.default_rng(601)
        fp, mse = PotentialKind.FRAME_POTENTIAL, PotentialKind.MEAN_SQUARE_ERROR
        ej1 = Frame(EJ1_SYNTHESIS)
        third = np.zeros((5, 6))
        third[0, 0] = third[0, 1] = np.sqrt(3.5)
        third[1, 2] = 2.0
        third[2, 3] = 2.0
        third[3, 4] = np.sqrt(3.0)
        third[4, 5] = 1.0
        completion_cases = [
            (ej1, [3.0, 2.5]),
            (ej1, [1.0, 1.0, 0.5, 0.25]),
            (Frame(third), [2.0, 2.0, 1.0]),
        ]
        for frame, beta in completion_cases:
            res = fo.complete(CompletionProblem(frame, beta))
            best_fp = fo.potential(res.completed, fp)
            best_mse = fo.potential(res.completed, mse)
            for rival in _completion_rivals(rng, frame, np.asarray(beta), 1000):
                assert fo.potential(rival, fp) >= best_fp - 1e-9
                assert fo.potential(rival, mse) >= best_mse - 1e-9

        dual_frame = Frame(DUAL_SYNTHESIS)
        t = 16.5
        res = fo.optimal_dual(DualProblem(dual_frame, t))
        best_fp = fo.potential(res.dual, fp)
        best_mse = fo.potential(res.dual, mse)
        kernel = null_space_onb(dual_frame.synthesis)
        t0 = fo.inverse_operator(dual_frame).trace()
        dual_analysis = fo.canonical_dual(dual_frame).analysis
        for _ in range(1000):
            coeffs = rng.standard_normal((kernel.shape[1], dual_frame.d))
            mass = float(np.sum(coeffs**2))
            # rival dual sitting exactly on the trace bound: both potentials
            # are dominated there (the spectra majorize with equal trace)
            exact = dual_analysis + kernel @ (coeffs * np.sqrt((t - t0) / mass))
            rival = Frame(exact.conj().T)
            assert fo.frame_operator(rival).trace() >= t - 1e-9
            assert fo.potential(rival, fp) >= best_fp - 1e-9
            assert fo.potential(rival, mse) >= best_mse - 1e-9
            # above the bound only the increasing potential stays dominated
            loose = dual_analysis + kernel @ (
                coeffs * np.sqrt((t - t0) / mass) * rng.uniform(1.0, 1.5)
            )
            rival_up = Frame(loose.conj().T)
            assert fo.frame_operator(rival_up).trace() >= t - 1e-9
            assert fo.potential(rival_up, fp) >= best_fp - 1e-9


def test_criterion_07_schur_horn_round_trip():
    with report("07", "prescribed-norm factorization round trip"):
        rng = np.random.default_rng(701)
        for _ in range(500):
            d = int(rng.integers(1, 11))
            k = int(rng.integers(1, 15))
            rank = int(rng.integers(1, min(d, k) + 1))
            cplx = bool(rng.integers(0, 2))
            b = fo.HermitianPSD(random_psd(rng, d, rank=rank, cplx=cplx))
            sigma = np.zeros(k)
            p = min(d, k)
            sigma[:p] = b.eigenvalues.values[:p]
            beta = mixed_toward_average(rng, sigma, positive=True)
            rotations, _ = fo.rotation_chain(sigma, beta)
            assert len(rotations) <= max(k - 1, 0)
            g = fo.realize_frame(b, beta)
            scale = 1.0 + np.linalg.norm(b.matrix)
            assert np.linalg.norm(g @ g.conj().T - b.matrix) <= 1e-8 * scale
            assert np.max(np.abs(np.sum(np.abs(g) ** 2, axis=0) - beta)) <= 1e-9


def test_criterion_08_level_and_cutoff_analytics():
    with report("08", "waterfilling level and cutoff analytics"):
        rng = np.random.default_rng(801)
        step = 1e-3
        for _ in range(100):
            d = int(rng.integers(2, 11))
            gaps = rng.uniform(0.02, 0.25, size=d)
            lam = np.cumsum(gaps)[::-1].copy()
            t0 = float(lam.sum())
            t_max = d * lam[0] + 0.25
            grid = np.arange(t0, t_max, step)
            r = fo.irregularity(lam, grid)
            c = fo.c_lambda(lam, grid)
            # strictly increasing level, nonincreasing cutoff
            assert np.all(np.diff(c) > 0.0)
            assert np.all(np.diff(r) <= 0)
            # circular identity at every grid point
            rhs = np.argmax(
                lam[:, None] <= c[None, :] + 1e-12, axis=0
            )
            assert np.array_equal(rhs, r)
            # cutoff discontinuities sit exactly at the predicted traces
            # (k = 0 contributes d * lam_1, where the cutoff finally hits 0)
            predicted = []
            for kk in range(0, d):
                if kk == 0:
                    if lam[0] <= lam[-1]:
                        continue
                    s_k = float(d * lam[0])
                elif lam[kk - 1] > lam[kk]:
                    s_k = float(np.sum(lam[:kk]) + (d - kk) * lam[kk])
                else:
                    continue
                if t0 + step < s_k < grid[-1]:
                    predicted.append(s_k)
            jumps = np.flatnonzero(r[:-1] != r[1:])
            jump_cells = {int(j) for j in jumps}
            matched = set()
            for s_k in predicted:
                idx = int(np.searchsorted(grid, s_k))
                cell = idx - 1
                assert cell in jump_cells, "predicted discontinuity missing"
                matched.add(cell)
            assert jump_cells == matched, "unpredicted discontinuity found"


def test_criterion_09_membership_characterization():
    with report("09", "rank-limited perturbation spectra membership"):
        rng = np.random.default_rng(901)
        # forward: spectra of rank-limited perturbations are members
        for _ in range(10_000):
            d = int(rng.integers(2, 7))
            lam = np.sort(rng.uniform(0.0, 4.0, size=d))[::-1]
            m = int(rng.integers(-2, d))
            max_rank = d if m <= 0 else d - m
            rank = int(rng.integers(0, max_rank + 1))
            cplx = bool(rng.integers(0, 2))
            v = random_unitary(rng, d, cplx)
            s0 = (v * lam) @ v.conj().T
            total = s0 if rank == 0 else s0 + random_psd(rng, d, rank=rank, cplx=cplx)
            w, _ = fo.eig_hermitian((total + total.conj().T) / 2.0)
            assert fo.in_lambda_set(lam, m, float(w.sum()), np.maximum(w, 0.0))

        # converse: equal-trace members are realized when they show the
        # minimal-spectrum pattern (always, via a commuting perturbation,
        # when there is no rank bound)
        realized = 0
        for i in range(1000):
            d = int(rng.integers(2, 7))
            lam = np.sort(rng.uniform(0.1, 4.0, size=d))[::-1]
            m = int(rng.integers(-2, d))
            t = float(lam.sum() + rng.uniform(0.0, 2.0 * d))
            scale = 0.0 if i % 3 == 0 else None
            mu = fo.sample_lambda_set(lam, m, t, rng_seed=i, scale=scale).values
            t_eq = float(mu.sum())
            assert fo.in_lambda_set(lam, m, t_eq, mu)
            v = random_unitary(rng, d)
            s0 = (v * lam) @ v.T
            if m <= 0:
                b = (v * (mu - lam)) @ v.T
                w, _ = fo.eig_hermitian((s0 + b + (s0 + b).T) / 2.0)
                assert np.max(np.abs(w - mu)) <= 1e-8
                realized += 1
            else:
                breakdown = fo.nu(lam, m, t_eq)
                if np.max(np.abs(breakdown.nu.values - mu)) <= 1e-9:
                    r_prime = max(breakdown.r, m)
                    vals = np.concatenate(
                        (np.zeros(r_prime), breakdown.c - lam[r_prime:])
                    )
                    b = (v * np.maximum(vals, 0.0)) @ v.T
                    w, _ = fo.eig_hermitian((s0 + b + (s0 + b).T) / 2.0)
                    assert np.max(np.abs(w - np.sort(mu)[::-1])) <= 1e-8
                    realized += 1
        assert realized >= 300

        # violators of any single inequality are rejected
        for i in range(1000):
            d = int(rng.integers(2, 7))
            lam = np.sort(rng.uniform(0.5, 4.0, size=d))[::-1]
            m = int(rng.integers(1, d))
            mode = i % 3
            if mode == 0:  # entrywise failure
                mu = lam.copy()
                mu[int(rng.integers(0, d))] -= 0.2
                mu = np.sort(mu)[::-1]
                assert not fo.in_lambda_set(lam, m, float(mu.sum()), mu)
            elif mode == 1:  # cap failure: flat spectrum above lam_1
                mu = np.full(d, lam[0] + 0.5)
                assert not fo.in_lambda_set(lam, m, float(mu.sum()), mu)
            else:  # trace shortfall
                mu = lam + 0.1
                assert not fo.in_lambda_set(lam, m, float(mu.sum()) + 1.0, mu)


def test_criterion_10_parseval_dual_criterion():
    with report("10", "identity-dual existence criterion"):
        rng = np.random.default_rng(1001)
        agreements = 0
        for i in range(100):
            d = int(rng.integers(2, 6))
            if i % 2 == 0:
                n = int(rng.integers(d + 1, 2 * d))  # m >= 1
            else:
                n = int(rng.integers(2 * d, 2 * d + 4))  # m <= 0
            m = 2 * d - n
            sigma = np.sort(rng.uniform(1.05, 3.0, size=d))[::-1]
            style = i % 4
            if style == 0 and m >= 1:
                sigma[d - m :] = 1.0  # exact identity block: satisfies
            elif style == 1:
                sigma[-1] = float(rng.uniform(0.5, 0.9))  # dips below one
            elif style == 2 and m >= 1:
                sigma[d - m :] = 1.3  # above one but no identity block
            elif m <= 0 and style == 0:
                pass  # S >= I with margin: satisfies
            frame = frame_with_spectrum(rng, sigma, n, cplx=bool(rng.integers(0, 2)))
            flag = fo.parseval_dual_exists(frame)
            sinv = fo.inverse_operator(frame)
            t0 = sinv.trace()
            if t0 <= d + 1e-9:
                breakdown = fo.nu(sinv.eigenvalues, m, max(float(d), t0))
                search = bool(np.allclose(breakdown.nu.values, 1.0, atol=1e-6))
            else:
                search = False
            assert flag == search
            agreements += 1
        assert agreements == 100
