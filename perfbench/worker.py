"""One benchmark process: a set-up measurement or a closed loop of operations.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py loop --workload W --seed N --seconds T [--setups K] [--trace]
    python3 perfbench/worker.py probe --seed N

Each prints one JSON object on stdout.  ``run.py`` starts the loops; a loop
starts its K set-up processes itself, spread evenly over its measuring
time and outside it, so that set-up is sampled under the same conditions
of the machine as the operations.  Set-up, the timed loop, the traced
loop and the defect probe each begin from a fresh interpreter.

Before every operation, outside its timed region, a loop times a fixed
piece of the benchmark's own numpy code (``gen.speed_probe``).  ``run.py``
scales each operation's time by the probe times around it, so the figures
follow the library and not the speed the machine happened to run at.

numpy and the generator are imported only after frameopt, so the set-up
time includes numpy's import, as a user of frameopt pays it.  Every
in-process operation builds its ``Frame`` from the raw arrays inside the
timed region, so a per-frame cache cannot carry over between operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A single operation never takes this long; a CLI process that does is stuck.
_PROCESS_TIMEOUT_S = 120


def import_frameopt():
    """Import frameopt from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import frameopt

    if Path(frameopt.__file__).resolve().parent != SRC / "frameopt":
        raise SystemExit(f"frameopt imported from {frameopt.__file__}, not {SRC}")
    return frameopt


# ------------------------------------------------------------------ operations


def _op_complete(fo, inst):
    return fo.complete(fo.CompletionProblem(fo.Frame(inst["A"]), inst["beta"]))


def _op_nu_grid(fo, inst):
    lam, m = inst["lam"], inst["m"]
    return [fo.nu(lam, m, float(t)) for t in inst["ts"]]


IN_PROCESS = {"complete": _op_complete, "nu-grid": _op_nu_grid}


class CliRunner:
    """Runs `python -m frameopt.cli` on instances whose files it writes first.

    With a tracer, each process runs through ``cli_child.py`` instead, which
    records the library's spans and hands them back through a file.
    """

    def __init__(self, pool, tracer=None):
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.tracer = tracer
        self.spans = self.dir / "spans.json"
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        for i, inst in enumerate(pool):
            for name, text in inst["files"].items():
                (self.dir / f"{i}-{name}").write_text(text)

    def __call__(self, i: int, inst):
        prefix = str(self.dir / f"{i}-")
        argv = [a.replace("{dir}/", prefix) for a in inst["argv"]]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "frameopt.cli", *argv]
        else:
            self.spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.spans), *argv]
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=_PROCESS_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def adopt_spans(self) -> None:
        if self.spans.exists():  # absent only if the process was killed
            data = json.loads(self.spans.read_text())
            self.tracer.adopt(data["spans"], data["counters"])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ------------------------------------------------------------------ modes


def setup(workload: str, seed: int) -> dict:
    """Time `import frameopt` plus the first, untimed warm-up operation.

    For the CLI workload it is the wall time of the first warm-up process.
    """
    if workload == "cli":
        import gen

        inst = gen.make_instance("cli", seed, 0)
        runner = CliRunner([inst])
        try:
            t0 = time.perf_counter()
            runner(0, inst)
            return {"setup_s": time.perf_counter() - t0}
        finally:
            runner.close()
    t0 = time.perf_counter()
    fo = import_frameopt()
    imported = time.perf_counter() - t0
    import gen

    inst = gen.make_instance(workload, seed, 0)
    t1 = time.perf_counter()
    try:
        IN_PROCESS[workload](fo, inst)
    except Exception:  # not judged here: the timed loop runs and judges it first
        pass
    return {"setup_s": imported + time.perf_counter() - t1}


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh `setup` process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "setup", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=_PROCESS_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def loop(workload: str, seed: int, seconds: float, trace: bool, setups: int = 0) -> dict:
    """Run operations back to back for `seconds`, checking each answer.

    `setups` set-up processes run at even intervals of the measuring time;
    the time they take is not part of it.
    """
    fo = None if workload == "cli" else import_frameopt()
    import check
    import gen

    pool = gen.make_pool(workload, seed)
    tracer = None
    if trace:
        from tracer import Tracer, aggregate

        tracer = Tracer()
    runner = CliRunner(pool, tracer) if workload == "cli" else None

    def run(i, inst):
        return runner(i, inst) if runner is not None else IN_PROCESS[workload](fo, inst)

    def judge(inst, out):
        if runner is not None:
            return check.check_cli(inst, *out)
        return check.check_result(workload, inst, out)

    try:
        try:
            run(0, pool[0])  # warm-up, untimed and not judged
        except Exception:  # the timed loop runs and judges instance 0 first
            pass
        # The pool is the benchmark's data, not the program's: keep it out
        # of the garbage collector's scans during the timed loop.
        gc.collect()
        gc.freeze()
        if tracer is not None and runner is None:
            tracer.install()
        latencies, probes, oks = [], [], []
        statuses, details = Counter(), Counter()
        cert_max = dict.fromkeys(check.CERTS, 0.0)
        setup_runs, setup_at = [], []
        start, paused = time.perf_counter(), 0.0
        i = 0
        while (elapsed := time.perf_counter() - start - paused) < seconds:
            if len(setup_runs) < setups and elapsed >= seconds * (len(setup_runs) + 0.5) / setups:
                t0 = time.perf_counter()
                setup_runs.append(_setup_sample(workload, seed))
                setup_at.append(i)
                paused += time.perf_counter() - t0
                continue
            inst = pool[i % len(pool)]
            probes.append(gen.speed_probe())
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                out, exc = run(i % len(pool), inst), None
            except Exception as err:  # an operation's failure is a result here
                out, exc = None, err
            t1 = time.perf_counter()
            if tracer is not None:
                if runner is not None and exc is None:
                    runner.adopt_spans()
                tracer.end_op()
            if exc is None:
                outcome = judge(inst, out)
            else:
                outcome = check.Outcome(check.ERROR, detail=type(exc).__name__)
            latencies.append(t1 - t0)
            oks.append(outcome.ok)
            statuses[outcome.status] += 1
            if not outcome.ok:
                details[f"{outcome.status}: {outcome.detail.split('=')[0]}"] += 1
            for name, value in outcome.certs.items():
                cert_max[name] = max(cert_max[name], value)
            i += 1
        while len(setup_runs) < setups:  # only if an operation outlasted an interval
            setup_runs.append(_setup_sample(workload, seed))
            setup_at.append(i - 1)
    finally:
        if runner is not None:
            runner.close()
    who = resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF
    result = {
        "digest": gen.digest(pool),
        "latencies": latencies,
        "probes": probes,
        "ok": oks,
        "statuses": dict(statuses),
        "failures": dict(details.most_common(8)),
        "cert_max": cert_max,
        "setup_runs_s": setup_runs,
        "setup_at": setup_at,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = aggregate(tracer, len(latencies))
    return result


def probe(seed: int) -> dict:
    """Run the defect probe of each in-process workload once, untimed.

    Each probe instance is judged like a timed one; a failure is counted as
    the known defect of ROADMAP item 4 if ``check.known_defect`` allows it,
    and as unexplained otherwise.
    """
    fo = import_frameopt()
    import check
    import gen

    out = {}
    for workload in IN_PROCESS:
        passed = unexplained = 0
        details = Counter()
        for inst in gen.make_probe(workload, seed):
            try:
                outcome = check.check_result(workload, inst, IN_PROCESS[workload](fo, inst))
            except Exception as err:  # a failure is a result here
                outcome = check.Outcome(check.ERROR, detail=type(err).__name__)
            passed += outcome.ok
            if not outcome.ok:
                known = check.known_defect(inst)
                unexplained += not known
                kind = f"{outcome.status}: {outcome.detail.split('=')[0]}"
                details[kind if known else f"{kind} (unexplained)"] += 1
        out[workload] = {
            "attempted": gen.PROBE_SIZE[workload],
            "passed": passed,
            "unexplained": unexplained,
            "failures": dict(details),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "loop", "probe"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--setups", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = setup(args.workload, args.seed)
    elif args.mode == "probe":
        out = probe(args.seed)
    else:
        out = loop(args.workload, args.seed, args.seconds, args.trace, args.setups)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
