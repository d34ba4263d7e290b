"""frameopt benchmark: one workload per run, timed or traced.

    python3 perfbench/run.py --workload complete --seed 1 --seconds 38 --trace 0

Workloads: complete, nu-grid, cli (see README.md).  Every workload is a
closed loop with one caller in one process.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the same seed
once untraced and once traced, each for TRACE_SHARE of the time, then the
defect probe, and prints the per-layer metrics.  The last line of stdout is the result object; the
line before it holds the details (fail_ratio, tail percentile and sample
count, unscaled figures, input digest, failure kinds).  Run it from the
root of a checkout; it exits non-zero without a result when the checkout
has no frameopt sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes per run whose median gives setup_s and cli.startup_ms.
SETUP_REPEATS = 11

# The tail is this percentile, or a lower one where that is needed to leave
# TAIL_SAMPLES samples above it.
TAIL_PERCENTILE = 95
TAIL_SAMPLES = 10

# The speed probe's typical time on the machine in README.md.  Times are
# reported as if every probe around them had taken this long.
PROBE_NOMINAL_S = 7.0e-4

# Probe samples on each side of an operation whose median sets its scale.
PROBE_HALF_WINDOW = 2

# A CLI operation is a child process, on either vCPU; the parent's probes
# next to it track its speed poorly, op by op, but well over a run.  Its
# scale is the median of all probes of the run (README.md, Speed probe).
WHOLE_RUN_SCALE = {"cli"}

# Share of --seconds that each loop of a --trace 1 run measures; the rest
# goes to the defect probe.
TRACE_SHARE = 0.3

# A child that outlives its measuring time by this much is stuck.
_GRACE_S = 60


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One caller, one BLAS thread: the matrices are small, and a second
    # thread on a two-core machine only adds noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(args: list[str], timeout: float) -> str:
    """Run a child in its own process group and return its stdout.

    Whatever ends the wait (success, a timeout, an interrupt), the group is
    killed if still alive, so no process a worker started outlives the run.
    """
    proc = subprocess.Popen(
        args,
        cwd=ROOT,
        env=_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:]} failed:\n{err}")
    return out


def _loop(workload: str, seed: int, seconds: float, trace: bool = False,
          setups: int = 0) -> dict:
    """A timed loop, which also samples set-up `setups` times."""
    args = ["loop", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--setups", str(setups), *(["--trace"] if trace else [])]
    out = _run([sys.executable, str(HERE / "worker.py"), *args], seconds + _GRACE_S)
    return json.loads(out.splitlines()[-1])


def _probe(seed: int) -> dict:
    """The defect probe's results, per in-process workload."""
    out = _run([sys.executable, str(HERE / "worker.py"), "probe", "--seed", str(seed)],
               _GRACE_S * 2)
    return json.loads(out.splitlines()[-1])


def _startup_ms() -> float:
    """Median wall time of a process that only imports frameopt.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "import frameopt.cli"], _GRACE_S)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def speed_scales(probes: list[float], local: bool = True) -> list[float]:
    """Per operation: nominal probe time over the median probe time around it.

    The machine's speed drifts by a third within seconds; times scaled by
    the probes taken around them are steady across runs (README.md).
    Without `local`, every operation takes the median of all the probes.
    """
    n, h = len(probes), PROBE_HALF_WINDOW
    if not local:
        return [PROBE_NOMINAL_S / statistics.median(probes)] * n
    return [PROBE_NOMINAL_S / statistics.median(probes[max(0, i - h) : i + h + 1])
            for i in range(n)]


def end_to_end(res: dict, local: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics, and the figures printed beside them."""
    scales = speed_scales(res["probes"], local)
    lat = [x * k for x, k in zip(res["latencies"], scales)]
    setups = [x * scales[min(i, len(scales) - 1)]
              for x, i in zip(res["setup_runs_s"], res["setup_at"])]
    ok = res["ok"]
    passed = sorted(x for x, good in zip(lat, ok) if good)
    if not passed:
        raise RuntimeError(f"no operation passed its check: {res['failures']}")
    n = len(passed)
    # Latency figures are over operations that passed: a failed one has no
    # meaningful time, and treating it as infinitely slow would make the
    # tail infinite whenever more than TAIL_SAMPLES operations fail.
    tail_index = max(min(math.ceil(TAIL_PERCENTILE / 100 * n) - 1, n - 1 - TAIL_SAMPLES), 0)
    metrics = {
        "ok_per_s": (n / sum(lat), "1/s"),
        "lat_p50_ms": (1e3 * statistics.median(passed), "ms"),
        "lat_tail_ms": (1e3 * passed[tail_index], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail = {
        "fail_ratio": 1.0 - n / len(lat),
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples_beyond": n - 1 - tail_index,
        "passed_samples": n,
        "setup_runs_s": setups,
        "raw_ok_per_s": n / sum(res["latencies"]),
        "raw_setup_s": statistics.median(res["setup_runs_s"]),
        "speed_scale_median": statistics.median(scales),
    }
    return metrics, detail


def per_layer(base: dict, traced: dict, startup_ms: float, probe: dict,
              local: bool = True) -> tuple[dict, dict]:
    """Per-layer metrics of the traced run, per operation unless noted."""
    layers = traced["trace"]["layers"]
    units = {"calls": "1/op", "self_ms": "ms/op", "built": "1/op", "order_sum": "1/op",
             "rotations": "1/op", "hit_ratio": "ratio"}
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    common = min(len(base["latencies"]), len(traced["latencies"]))
    extra = {
        "cli.startup_ms": (startup_ms, "ms"),
        "trace.overhead_ratio": (
            sum(x * k for x, k in zip(traced["latencies"][:common],
                                      speed_scales(traced["probes"], local)))
            / sum(x * k for x, k in zip(base["latencies"][:common],
                                        speed_scales(base["probes"], local))),
            "ratio",
        ),
    }
    for name, value in traced["cert_max"].items():
        extra[f"cert.{name}_max"] = (value, "rel")
    for workload, key in (("complete", "complete"), ("nu-grid", "nu")):
        extra[f"defect.{key}_wide_ok_ratio"] = (
            probe[workload]["passed"] / probe[workload]["attempted"], "ratio")
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name in extra:
            metrics[name] = extra[name]
        else:
            metrics[name] = (layers[name], units[name.rsplit(".", 1)[1]])
    total = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    shares = {
        k[: -len(".self_ms")]: round(v / total, 4)
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
        if k.endswith(".self_ms") and v > 0
    }
    detail = {"self_time_share": shares, "missing_names": traced["trace"]["missing"],
              "self_time_sum_error": traced["trace"]["sum_error"], "defect_probe": probe}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="frameopt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so `_run` reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "frameopt" / "__init__.py").is_file():
        print(f"run.py: no frameopt sources under {SRC}", file=sys.stderr)
        return 2

    local = args.workload not in WHOLE_RUN_SCALE
    if args.trace:
        base = _loop(args.workload, args.seed, args.seconds * TRACE_SHARE)
        res = _loop(args.workload, args.seed, args.seconds * TRACE_SHARE, trace=True)
        probe = _probe(args.seed)
        metrics, detail = per_layer(base, res, _startup_ms(), probe, local)
        digests = {base["digest"], res["digest"]}
        # Self times of each operation's spans must add up to its duration.
        accounted = res["trace"]["sum_error"] < 1e-6
        base_failed = len(base["ok"]) - sum(base["ok"])
        unexplained = sum(p["unexplained"] for p in probe.values())
    else:
        res = _loop(args.workload, args.seed, args.seconds, setups=SETUP_REPEATS)
        metrics, detail = end_to_end(res, local)
        digests, accounted, base_failed, unexplained = {res["digest"]}, True, 0, 0

    attempted = len(res["ok"])
    failed = attempted - sum(res["ok"])
    detail.update(
        workload=args.workload,
        seed=args.seed,
        input_digest=res["digest"],
        statuses=res["statuses"],
        failures=res["failures"],
        cert_max=res["cert_max"],
    )
    print(json.dumps(detail))
    result = {
        # Every operation was judged against its expected answer and passed,
        # the run's bookkeeping holds, and every failure of the defect probe
        # is the known large-scale defect (check.known_defect).
        "correct": (
            len(digests) == 1
            and accounted
            and sum(res["statuses"].values()) == attempted
            and failed == 0
            and base_failed == 0
            and unexplained == 0
        ),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
