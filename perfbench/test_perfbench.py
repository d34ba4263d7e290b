"""Tests of the benchmark itself: inputs, checker, tracer and metrics.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

import frameopt as fo  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_digest(workload):
    first = gen.digest(gen.make_pool(workload, 7))
    assert gen.digest(gen.make_pool(workload, 7)) == first
    assert gen.digest(gen.make_pool(workload, 8)) != first


def test_generator_never_imports_frameopt():
    code = (
        "import sys; import gen\n"
        "for w in gen.WORKLOADS: gen.make_instance(w, 1, 0)\n"
        "assert not [m for m in sys.modules if m.startswith('frameopt')]"
    )
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)


def test_reference_nu_matches_library_at_unit_scale():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(2, 10))
        lam = np.sort(rng.random(d))[::-1]
        m = int(rng.integers(-1, d))
        t = float(lam.sum()) * (1.0 + 2.0 * rng.random())
        want = fo.nu(lam, m, t).nu.values
        assert np.allclose(gen.ref_nu(lam, m, t)[0], want, rtol=0, atol=1e-12)


def _cli_duals(seed):
    """The `dual` CLI instances of a pool, with their trace bounds."""
    for inst in gen.make_pool("cli", seed):
        if inst["cmd"] == "dual":
            yield inst, float(inst["argv"][inst["argv"].index("--t") + 1])


def test_verdicts_and_regimes_are_fixed_by_construction():
    pool = gen.make_pool("complete", 1)
    assert sum(inst["feasible"] for inst in pool) == 3 * len(pool) // 4
    for inst, t in _cli_duals(1):
        assert np.isclose(inst["nu"].sum(), t, rtol=1e-12)


def test_nu_off_by_1e6_relative_is_rejected():
    inst = gen.make_instance("nu-grid", 1, 20)
    assert check.check_nu_grid(inst, inst["nu"]).ok
    wrong = inst["nu"].copy()
    wrong[3, 0] *= 1.0 + 1e-6
    assert check.check_nu_grid(inst, wrong).status == check.RESIDUAL


def test_non_dual_is_rejected():
    inst, t = next(_cli_duals(1))
    res = fo.optimal_dual(fo.DualProblem(fo.Frame(inst["A"]), t))
    w = res.dual.synthesis
    assert check.check_dual(inst, res.nu.values, w).ok
    a = inst["A"]
    wrong = w + 1e-3 * np.linalg.solve(a @ a.conj().T, a)  # reconstructs 1.001 I
    out = check.check_dual(inst, res.nu.values, wrong)
    assert out.status == check.RESIDUAL and out.certs["duality_rel"] > check.TOL


def test_wrong_squared_norm_is_rejected():
    inst = gen.make_instance("complete", 1, 0)
    assert inst["feasible"]
    res = fo.complete(fo.CompletionProblem(fo.Frame(inst["A"]), inst["beta"]))
    added = res.completed.synthesis[:, inst["A"].shape[1] :].copy()
    assert check.check_completion(inst, True, res.nu.values, added).ok
    added[:, 0] *= np.sqrt(1.0 + 1e-6)
    out = check.check_completion(inst, True, res.nu.values, added)
    assert out.status == check.RESIDUAL and out.certs["norm_rel"] > check.TOL


def test_wrong_verdict_is_rejected():
    inst = gen.make_instance("complete", 1, 30)
    assert not inst["feasible"]
    assert check.check_completion(inst, True, inst["nu"], None).status == check.VERDICT


def test_wrong_cli_exit_code_is_rejected(tmp_path):
    inst = next(i for i in gen.make_pool("cli", 1) if i["cmd"] == "feasible" and i["exit"] == 4)
    for name, text in inst["files"].items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{dir}", str(tmp_path)) for a in inst["argv"]]
    proc = subprocess.run(
        [sys.executable, "-m", "frameopt.cli", *argv],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True,
        text=True,
    )
    assert check.check_cli(inst, proc.returncode, proc.stdout).ok
    assert check.check_cli(inst, 0, proc.stdout).status == check.VERDICT


@pytest.mark.parametrize("workload", ["complete", "nu-grid"])
def test_timed_pools_stay_below_the_defect_and_the_probe_reaches_it(workload):
    timed = gen.make_pool(workload, 1)
    assert not any(check.known_defect(inst) for inst in timed)
    probe = gen.make_probe(workload, 1)
    assert any(check.known_defect(inst) for inst in probe)
    assert not all(check.known_defect(inst) for inst in probe)
    # The probe holds the timed pool's first instances, rescaled.
    for small, wide in zip(timed, probe):
        key = "A" if workload == "complete" else "lam"
        ratio = wide[key].flat[0] / small[key].flat[0]
        assert np.allclose(wide[key], ratio * small[key], rtol=1e-12)


def test_probe_shows_the_known_defect_and_nothing_else():
    out = worker.probe(1)
    for workload, res in out.items():
        assert res["unexplained"] == 0
        assert 0 < res["passed"] < res["attempted"] == gen.PROBE_SIZE[workload]


def test_a_broken_solver_fails_every_operation(monkeypatch):
    def broken(lam, m, t):
        raise ValueError("planted")

    monkeypatch.setattr(fo, "nu", broken)
    res = worker.loop("nu-grid", 1, 0.3, trace=False)
    assert res["ok"] and not any(res["ok"])
    assert res["statuses"] == {check.ERROR: len(res["ok"])}


def _traced_complete(tr, inst):
    tr.begin_op(0)
    fo.complete(fo.CompletionProblem(fo.Frame(inst["A"]), inst["beta"]))
    tr.end_op()


def test_tracer_spans_add_up_and_catch_imported_names():
    tr = tracing.Tracer()
    tr.install()
    try:
        assert getattr(fo.duals.null_space_onb, "__wrapped__", None) is not None
        _traced_complete(tr, gen.make_instance("complete", 1, 0))
    finally:
        tr.uninstall()
    assert getattr(fo.duals.null_space_onb, "__wrapped__", None) is None
    agg = tracing.aggregate(tr, 1)
    assert agg["sum_error"] < 1e-9
    layers = agg["layers"]
    assert layers["completion.complete.calls"] == 1
    assert layers["core_linalg.eig_hermitian.calls"] >= 1
    top = max((k for k in layers if k.endswith(".self_ms")), key=layers.get)
    assert top == "core_linalg.eig_hermitian.self_ms"


def test_tracer_tolerates_names_that_no_longer_exist(monkeypatch):
    gone = (("core_linalg", "no_such_helper", "core_linalg.no_such_helper"),
            ("no_such_module", "f", "no_such_module.f"))
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + gone)
    tr = tracing.Tracer()
    tr.install()
    try:
        _traced_complete(tr, gen.make_instance("complete", 1, 0))
    finally:
        tr.uninstall()
    agg = tracing.aggregate(tr, 1)
    assert agg["missing"] == ["core_linalg.no_such_helper", "no_such_module.f"]
    assert agg["layers"]["core_linalg.no_such_helper.calls"] == 0


def test_self_time_subtracts_children():
    spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0], ["b", 2.0, 3.0, 1, 0]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_tail_is_p95_with_at_least_ten_samples_beyond():
    lat = [0.001 * (i + 1) for i in range(400)]
    res = {"latencies": lat, "ok": [True] * 400, "peak_rss_mb": 40.0,
           "probes": [run.PROBE_NOMINAL_S] * 400, "setup_runs_s": [0.1], "setup_at": [0]}
    metrics, detail = run.end_to_end(res)
    assert metrics["lat_tail_ms"][0] == pytest.approx(380.0)
    assert detail["tail_samples_beyond"] == 20 and detail["tail_percentile"] == 95.0

    lat = [0.001 * (i + 1) for i in range(100)]
    res = {"latencies": lat + [5.0], "ok": [True] * 100 + [False], "peak_rss_mb": 40.0,
           "probes": [run.PROBE_NOMINAL_S] * 101, "setup_runs_s": [0.2, 0.1, 0.3],
           "setup_at": [0, 50, 101]}
    metrics, detail = run.end_to_end(res)
    assert metrics["lat_tail_ms"][0] == pytest.approx(90.0)
    assert detail["tail_samples_beyond"] == 10 and detail["tail_percentile"] == 90.0
    assert detail["fail_ratio"] == pytest.approx(1 / 101)
    assert metrics["setup_s"][0] == 0.2


def test_times_are_scaled_by_the_probes_around_them():
    slow = 2 * run.PROBE_NOMINAL_S
    probes = [run.PROBE_NOMINAL_S] * 10 + [slow] * 10
    scales = run.speed_scales(probes)
    assert scales[:8] == [1.0] * 8 and scales[-8:] == [0.5] * 8
    assert run.speed_scales(probes, local=False) == pytest.approx([1 / 1.5] * 20)
    res = {"latencies": [0.01] * 10 + [0.02] * 10, "ok": [True] * 20, "peak_rss_mb": 40.0,
           "probes": probes, "setup_runs_s": [0.1, 0.2], "setup_at": [0, 19]}
    metrics, _ = run.end_to_end(res)
    assert metrics["lat_p50_ms"][0] == pytest.approx(10.0)
    assert metrics["setup_s"][0] == pytest.approx(0.1)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "complete", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in proc.stdout.splitlines())


def test_benchmark_json_names_match_run_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)
    res = {"latencies": [0.01] * 20, "ok": [True] * 20, "peak_rss_mb": 40.0,
           "probes": [1e-3] * 20, "setup_runs_s": [0.1], "setup_at": [10]}
    metrics, _ = run.end_to_end(res)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, u) for k, (_, u) in metrics.items()
    ]
    tr = tracing.Tracer()
    res["cert_max"] = dict.fromkeys(check.CERTS, 0.0)
    res["trace"] = tracing.aggregate(tr, 1)
    probe = {w: {"attempted": 10, "passed": 9} for w in ("complete", "nu-grid")}
    layers, _ = run.per_layer(res, res, 200.0, probe)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in layers.items()
    ]
