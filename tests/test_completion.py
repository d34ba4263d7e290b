import sys

import numpy as np
import pytest

import frameopt as fo
from frameopt import (
    CompletionPlan,
    CompletionProblem,
    Frame,
    PotentialKind,
    complete,
    completion_to_json,
    optimal_B,
    plan,
    trace_f,
)
from frameopt.completion import lower_bounds
from frameopt.errors import DomainError, Infeasible, RankDeficient

from conftest import (
    EJ1_SYNTHESIS,
    check_real_input_rule,
    count_calls,
    frame_with_spectrum,
    random_unitary,
    spread_away_from,
)


def _third_example_frame():
    # six vectors whose frame operator is diag(7, 4, 4, 3, 1)
    synth = np.zeros((5, 6))
    synth[0, 0] = synth[0, 1] = np.sqrt(3.5)
    synth[1, 2] = 2.0
    synth[2, 3] = 2.0
    synth[3, 4] = np.sqrt(3.0)
    synth[4, 5] = 1.0
    return Frame(synth)


class TestPlan:
    def test_reference_two_vector(self, ej1_frame):
        pl = plan(CompletionProblem(ej1_frame, [3.0, 2.5]))
        assert pl.r_hat == 3
        assert pl.c_hat == pytest.approx(4.25, abs=5e-3)
        assert np.allclose(pl.mu_hat, [2.25, 3.25], atol=5e-3)
        assert pl.feasible
        assert pl.unique_B
        assert np.allclose(pl.nu.values, [9.0, 5.0, 4.25, 4.25, 4.0], atol=5e-3)

    def test_reference_infeasible(self, ej1_frame):
        pl = plan(CompletionProblem(ej1_frame, [3.5, 2.0]))
        assert pl.r_hat == 3
        assert np.allclose(pl.mu_hat, [2.25, 3.25], atol=5e-3)
        assert not pl.feasible

    def test_reference_four_vector(self, ej1_frame):
        pl = plan(CompletionProblem(ej1_frame, [1.0, 1.0, 0.5, 0.25]))
        assert pl.r_hat == 3
        assert np.allclose(pl.mu_hat, [0.875, 1.875], atol=5e-3)
        assert pl.feasible
        assert np.allclose(pl.nu.values, [9.0, 5.0, 4.0, 2.875, 2.875], atol=5e-3)

    def test_reference_four_vector_infeasible(self, ej1_frame):
        pl = plan(CompletionProblem(ej1_frame, [2.0, 0.25, 0.25, 0.25]))
        assert not pl.feasible

    def test_tied_spectrum_example(self):
        pl = plan(CompletionProblem(_third_example_frame(), [2.0, 2.0, 1.0]))
        assert pl.r_hat == 2
        assert pl.c_hat == pytest.approx(13.0 / 3.0, abs=1e-3)
        assert np.allclose(pl.mu_hat, [1.0 / 3.0, 4.0 / 3.0, 10.0 / 3.0], atol=1e-3)
        assert pl.feasible
        assert not pl.unique_B
        assert np.allclose(
            pl.nu.values, [7.0, 13.0 / 3.0, 13.0 / 3.0, 13.0 / 3.0, 4.0], atol=1e-3
        )

    def test_rank_deficient(self):
        # two vectors cannot lift a rank-2 operator to rank 5 with k = 2
        synth = np.zeros((5, 2))
        synth[0, 0] = 1.0
        synth[1, 1] = 1.0
        with pytest.raises(RankDeficient):
            plan(CompletionProblem(Frame(synth), [1.0, 1.0]))

    def test_beta_validation(self, ej1_frame):
        with pytest.raises(ValueError):
            CompletionProblem(ej1_frame, [1.0, -1.0])
        with pytest.raises(ValueError):
            CompletionProblem(ej1_frame, [])

    def test_beta_is_read_by_the_real_input_rule(self, ej1_frame):
        # CompletionProblem(F, [1 + 1j]) once kept beta = [1]
        check_real_input_rule(lambda b: complete(CompletionProblem(ej1_frame, b)), [3.0, 2.5])


class TestOptimalB:
    def test_reference_structure(self, ej1_frame):
        prob = CompletionProblem(ej1_frame, [3.0, 2.5])
        s0 = fo.frame_operator(ej1_frame)
        b = optimal_B(s0, plan(prob))
        assert np.allclose(
            b.eigenvalues.values, [3.25, 2.25, 0.0, 0.0, 0.0], atol=5e-3
        )
        # supported on the eigenvectors of the two smallest eigenvalues
        h = s0.eigenvectors
        assert np.linalg.norm(b.matrix @ h[:, :3]) <= 1e-8
        assert np.allclose(b.matrix @ h[:, 3], 2.25 * h[:, 3], atol=5e-3)
        assert np.allclose(b.matrix @ h[:, 4], 3.25 * h[:, 4], atol=5e-3)
        w, _ = fo.eig_hermitian(s0.matrix + b.matrix)
        assert np.allclose(w, plan(prob).nu.values, atol=1e-8)

    def test_zero_mass_edge(self, ej1_frame):
        # with no mass to add the optimal perturbation is zero
        s0 = fo.frame_operator(ej1_frame)
        lam = s0.eigenvalues
        breakdown = fo.nu(lam, 3, lam.trace())
        edge = CompletionPlan(
            r_hat=4,
            c_hat=breakdown.c,
            mu_hat=np.zeros(1),
            nu=breakdown.nu,
            feasible=True,
            unique_B=True,
            breakdown=breakdown,
        )
        b = optimal_B(s0, edge)
        assert np.linalg.norm(b.matrix) == 0.0

    def test_third_example_spectrum(self):
        frame = _third_example_frame()
        s0 = fo.frame_operator(frame)
        b = optimal_B(s0, plan(CompletionProblem(frame, [2.0, 2.0, 1.0])))
        w, _ = fo.eig_hermitian(s0.matrix + b.matrix)
        assert np.allclose(w, [7.0, 4.33, 4.33, 4.33, 4.0], atol=5e-3)

    def test_requires_feasible(self, ej1_frame):
        pl = plan(CompletionProblem(ej1_frame, [3.5, 2.0]))
        with pytest.raises(Infeasible):
            optimal_B(fo.frame_operator(ej1_frame), pl)


class TestComplete:
    def test_reference_two_vector(self, ej1_frame):
        res = complete(CompletionProblem(ej1_frame, [3.0, 2.5]))
        assert res.feasible
        assert res.completed.n == 9
        w = fo.frame_operator(res.completed).eigenvalues.values
        assert np.allclose(w, [9.0, 5.0, 4.25, 4.25, 4.0], atol=5e-3)
        assert np.allclose(w, res.nu.values, atol=1e-6)
        assert np.allclose(np.sum(res.added**2, axis=0), [3.0, 2.5], atol=1e-9)

    def test_reference_four_vector(self, ej1_frame):
        res = complete(CompletionProblem(ej1_frame, [1.0, 1.0, 0.5, 0.25]))
        w = fo.frame_operator(res.completed).eigenvalues.values
        assert np.allclose(w, [9.0, 5.0, 4.0, 2.875, 2.875], atol=5e-3)
        assert np.allclose(
            np.sum(res.added**2, axis=0), [1.0, 1.0, 0.5, 0.25], atol=1e-9
        )

    def test_reference_two_vector_at_large_scale(self, ej1_frame):
        # an absolute trace slack once reported this rescaled problem infeasible
        base = complete(CompletionProblem(ej1_frame, [3.0, 2.5]))
        res = complete(CompletionProblem(Frame(1e6 * EJ1_SYNTHESIS), [3e12, 2.5e12]))
        assert res.feasible
        assert np.max(np.abs(res.nu.values - 1e12 * base.nu.values)) <= 1e-9 * res.nu.values[0]

    def test_reference_two_vector_at_small_scale(self):
        # an absolute rank cutoff once raised RankDeficient on this problem
        res = complete(CompletionProblem(Frame(1e-6 * EJ1_SYNTHESIS), [3e-12, 2.5e-12]))
        assert res.feasible
        assert res.completed.n == 9

    @pytest.mark.parametrize("beta", [[3.0, 2.5], [1.0, 1.0, 0.5, 0.25]])
    def test_added_vectors_follow_rescaling(self, ej1_frame, beta):
        # a phase-pivot threshold floored at 1 once left the added vectors'
        # signs unfixed below frame scale ~1e-8, flipping whole columns
        base = complete(CompletionProblem(ej1_frame, beta)).added
        for alpha in (1e-12, 1e-10, 1e-9, 1e-6, 1.0, 1e4, 1e8):
            scaled = Frame(alpha * EJ1_SYNTHESIS)
            res = complete(CompletionProblem(scaled, alpha**2 * np.array(beta)))
            err = np.max(np.abs(res.added / alpha - base))
            assert err <= 1e-12 * np.max(np.abs(base))

    def test_infeasible_returns_result(self, ej1_frame):
        res = complete(CompletionProblem(ej1_frame, [3.5, 2.0]))
        assert not res.feasible
        assert res.added is None and res.completed is None
        assert np.allclose(res.nu.values, [9.0, 5.0, 4.25, 4.25, 4.0], atol=5e-3)
        assert res.lower_bounds["fp"] == pytest.approx(158.125, abs=0.05)
        # the slack is DEFAULT_TOL * tr(B) = 1e-9: DEFAULT_TOL * t = 2e-3 once passed this
        prob = CompletionProblem(Frame(1e3 * np.eye(2)), [0.5001, 0.4999])
        res = complete(prob)
        assert not plan(prob).feasible and not res.feasible
        assert res.added is None and res.completed is None

    def test_onb_uniform_completion(self):
        # completing an orthonormal basis with d unit vectors doubles it
        frame = Frame(np.eye(4))
        res = complete(CompletionProblem(frame, np.ones(4)))
        assert res.feasible
        w = fo.frame_operator(res.completed).eigenvalues.values
        assert np.allclose(w, 2.0 * np.ones(4), atol=1e-9)

    def test_random_uniform_instances_hit_both_postconditions(self, rng):
        # uniform prescribed norms are always feasible, so the spectrum and
        # norm postconditions must hold simultaneously on every draw
        for _ in range(30):
            d = int(rng.integers(2, 7))
            n0 = int(rng.integers(d, d + 4))
            k = int(rng.integers(1, d + 2))
            frame = Frame(rng.standard_normal((d, n0)))
            prob = CompletionProblem(frame, np.full(k, float(rng.uniform(0.3, 2.0))))
            res = complete(prob)
            assert res.feasible
            w = fo.frame_operator(res.completed).eigenvalues.values
            assert np.max(np.abs(w - res.nu.values)) <= 1e-8
            assert np.max(
                np.abs(np.sum(np.abs(res.added) ** 2, axis=0) - prob.beta)
            ) <= 1e-9

    def test_unique_flag_means_basis_independent(self, rng):
        # when the flag holds, re-randomizing tied eigenvectors leaves B fixed
        lam = np.array([5.0, 3.0, 3.0, 2.0, 1.0])
        for _ in range(10):
            frame = frame_with_spectrum(rng, lam, 7)
            prob = CompletionProblem(frame, [1.5, 1.5])  # m = 3, t = 17: below s* = 17... adjust
            pl = plan(prob)
            if not pl.unique_B:
                continue
            s0 = fo.frame_operator(frame)
            b1 = optimal_B(s0, pl)
            # rotate inside the tied (3, 3) eigenspace: still an eigenbasis
            v = s0.eigenvectors.copy()
            angle = rng.uniform(0.0, 2 * np.pi)
            rot = np.array(
                [[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]]
            )
            v[:, 1:3] = v[:, 1:3] @ rot
            b2 = fo.HermitianPSD.from_eigensystem(
                np.concatenate((np.zeros(pl.r_hat), pl.mu_hat)), v
            )
            assert np.linalg.norm(b1.matrix - b2.matrix) <= 1e-8


class TestLowerBound:
    def test_reference_bounds(self):
        nu = [9.0, 5.0, 4.25, 4.25, 4.0]
        assert trace_f(nu, PotentialKind.FRAME_POTENTIAL) == pytest.approx(158.125)
        hand = 1.0 / 9.0 + 1.0 / 5.0 + 2.0 / 4.25 + 1.0 / 4.0
        assert trace_f(nu, PotentialKind.MEAN_SQUARE_ERROR) == pytest.approx(hand)

    def test_constant_spectrum(self):
        assert trace_f(np.full(4, 2.0), PotentialKind.FRAME_POTENTIAL) == pytest.approx(16.0)
        assert trace_f(np.full(4, 2.0), PotentialKind.MEAN_SQUARE_ERROR) == pytest.approx(2.0)

    def test_spectrum_is_read_by_the_real_input_rule(self):
        check_real_input_rule(lower_bounds, [9.0, 5.0, 4.25, 4.25, 4.0])


def _random_alternative(rng, frame, beta):
    """Completion with the same norms but an arbitrary admissible operator."""
    d = frame.d
    k = beta.size
    sigma = spread_away_from(rng, np.sort(beta)[::-1])
    assert k <= d
    v = random_unitary(rng, d)[:, :k]
    b_alt = fo.HermitianPSD((v * sigma) @ v.T)
    g = fo.realize_frame(b_alt, beta)
    return Frame(np.hstack([frame.synthesis, g]))


def test_optimal_completion_beats_random_alternatives(ej1_frame, rng):
    prob = CompletionProblem(ej1_frame, np.array([3.0, 2.5]))
    res = complete(prob)
    fp_opt = fo.potential(res.completed, PotentialKind.FRAME_POTENTIAL)
    mse_opt = fo.potential(res.completed, PotentialKind.MEAN_SQUARE_ERROR)
    for _ in range(60):
        alt = _random_alternative(rng, ej1_frame, prob.beta)
        w_alt = fo.frame_operator(alt).eigenvalues
        assert fo.potential(alt, PotentialKind.FRAME_POTENTIAL) >= fp_opt - 1e-9
        assert fo.potential(alt, PotentialKind.MEAN_SQUARE_ERROR) >= mse_opt - 1e-9
        # spectral minimality, not just potential minimality
        assert fo.majorizes(w_alt, res.nu)


@pytest.mark.parametrize("cplx", [False, True])
def test_one_eigensolve_per_completion(monkeypatch, cplx):
    synthesis = EJ1_SYNTHESIS * (1.0 + 1j) if cplx else EJ1_SYNTHESIS
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    # plan asks Schur-Horn's own rule, which complete reuses without asking again:
    # majorizes is counted under every frameopt module that holds it
    majorizes, real = [], fo.majorization.majorizes
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "frameopt" and getattr(module, "majorizes", None) is real:
            count_calls(monkeypatch, module, "majorizes", majorizes)
    # B is built once, by optimal_B, and its eigenpairs factored as they are
    builds_b = count_calls(monkeypatch, fo.completion, "optimal_B")
    res = complete(CompletionProblem(Frame(synthesis), [1.0, 1.0, 1.0]))
    assert res.feasible and res.added.shape == (5, 3)
    assert len(eigh) == 1
    assert len(majorizes) == 1
    assert len(builds_b) == 1


@pytest.mark.parametrize("cplx", [False, True])
def test_no_spectrum_validation_per_completion(monkeypatch, cplx):
    # S_F0's sorted eigenvalues and nu's result are built trusted
    synthesis = EJ1_SYNTHESIS * (1.0 + 1j) if cplx else EJ1_SYNTHESIS
    built = count_calls(monkeypatch, fo.SpectrumVec, "__init__")
    res = complete(CompletionProblem(Frame(synthesis), [1.0, 1.0, 1.0]))
    assert res.feasible and len(built) == 0


@pytest.mark.parametrize("shape", [(2,), (1, 2)])
def test_problem_keeps_a_copy_of_beta(shape):
    # a later write to the caller's array reaches neither the problem nor its solve
    beta = np.array([1.0, 1.0]).reshape(shape)
    problem = CompletionProblem(Frame(np.eye(3)), beta)
    ref = complete(CompletionProblem(Frame(np.eye(3)), [1.0, 1.0]))
    beta.flat[0] = -5.0
    assert problem.beta.tolist() == [1.0, 1.0]
    res = complete(problem)
    assert res.feasible and res.added.tobytes() == ref.added.tobytes()
    assert res.nu.values.tobytes() == ref.nu.values.tobytes()
    assert res.lower_bounds == ref.lower_bounds


def _bounds_cases():
    big = np.sqrt(np.finfo(float).max)
    tiny = np.finfo(float).tiny
    yield [4.0, 2.0, 0.0, 0.0]  # zero tail
    yield [1.0, 0.0, 1e-12]  # a zero before a positive entry, within the order slack
    yield [3.0, 2.0, 1.0]
    yield [1e-300, tiny, tiny / 4.0, 5e-324]  # subnormal entries: 1/x overflows
    yield [tiny / 2.0, 0.0]
    yield [big, big]  # x^2 overflows
    yield [np.nextafter(big, 0.0), 1.0]  # the largest whose square is finite
    yield [1.5 * big, big / 2.0, 1e-200]


def test_lower_bounds_match_lower_bound_of_each_kind():
    for values in _bounds_cases():
        spectrum = fo.SpectrumVec(values)
        try:
            mse = trace_f(spectrum, PotentialKind.MEAN_SQUARE_ERROR)
        except DomainError:
            mse = np.inf
        ref = {"fp": trace_f(spectrum, PotentialKind.FRAME_POTENTIAL), "mse": mse}
        got = lower_bounds(spectrum)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in ref.items()}


def _path_cases(rng):
    """Seeded problems, real and complex, with tied spectra and tied or cut increments."""
    for cplx in (False, True):
        phase = 1j if cplx else 1.0
        for lam in ([5.0, 3.0, 3.0, 2.0, 1.0], [4.0, 4.0, 4.0, 4.0], [4.0, 1.0, 1.0, 0.0],
                    [3.0, 3.0, 1.0, 1.0, 1.0, 0.5]):
            d = len(lam)
            frames = (
                Frame(phase * np.diag(np.sqrt(lam))),  # exact ties in S0 and the increment
                frame_with_spectrum(rng, lam, d + 2, cplx),
                Frame(rng.standard_normal((d, d + 1)) * phase + rng.standard_normal((d, d + 1))),
            )
            for frame in frames:
                for k in range(1, d + 2):
                    yield frame, np.full(k, 0.25)
                    yield frame, np.full(k, 2.0)
                    yield frame, rng.uniform(0.2, 3.0, k)


def test_complete_adds_what_optimal_B_and_realize_frame_add(rng):
    seen = {"tied": 0, "cut": 0, "infeasible": 0}
    for frame, beta in _path_cases(rng):
        prob = CompletionProblem(frame, beta)
        res = complete(prob)
        if not res.feasible:
            seen["infeasible"] += 1
            assert res.added is None
            continue
        b = optimal_B(fo.frame_operator(frame), res.plan)
        ref = fo.realize_frame(b, prob.beta)
        assert res.added.dtype == ref.dtype and res.added.tobytes() == ref.tobytes()
        assert np.array_equal(res.completed.synthesis, np.hstack([frame.synthesis, ref]))
        mu = res.plan.mu_hat
        seen["tied"] += bool(np.any((mu[1:] == mu[:-1]) & (mu[1:] > 0.0)))
        seen["cut"] += bool(np.any(mu == 0.0))
    assert min(seen.values()) > 0, seen


def test_json_schema(ej1_frame):
    res = complete(CompletionProblem(ej1_frame, [3.0, 2.5]))
    obj = completion_to_json(res)
    assert list(obj) == ["feasible", "nu", "unique_B", "F1", "lower_bounds"]
    assert obj["feasible"] is True
    assert obj["F1"]["d"] == 5 and obj["F1"]["n"] == 2
    assert set(obj["lower_bounds"]) == {"fp", "mse"}
    bad = complete(CompletionProblem(ej1_frame, [3.5, 2.0]))
    assert completion_to_json(bad)["F1"] is None
