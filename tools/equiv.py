"""Bitwise digest of frameopt's outputs, for comparing two checkouts.

    python3 tools/equiv.py [--seeds 1 2 20261017]

Run it in each checkout: it imports frameopt from the ``src/`` next to it,
and the benchmark's generator and checks from ``perfbench/gen.py`` and
``perfbench/check.py`` for its inputs and certificates.  It prints one JSON
object holding a SHA-256 prefix per family of outputs:

- ``complete``: ``complete`` on the benchmark's ``complete`` pools (timed and
  wide) of each seed: plan, lower bounds, added block, completed synthesis;
- ``nu-grid``: every ``NuBreakdown`` field at every trace of the ``nu-grid``
  pools (timed and wide);
- ``dual``: a fixed corpus of 300 frames (d in [2, 10], n in (d, 3d], real
  and complex): canonical and optimal duals at 1, 1.3 and 3 times tr(S^-1),
  and the existence and duality predicates;
- ``cli``: exit code, stdout and stderr of every ``cli`` pool invocation,
  run in process through ``frameopt.cli.main``;
- ``batch``: ``r_lambda_m`` and ``c_lambda_m`` on each ``nu-grid`` instance's
  whole trace grid at once, at its m and at m = 0.

An exception the library raises is recorded by its type name.  Equal digests
mean equal bits.  Under ``worst``, the object also holds the largest
certificate of each family that has them, as ``perfbench/check.py`` defines
them against its numpy reference: for ``complete``, ``spectrum_rel`` (the
completed spectrum and the reported nu against the reference nu) and
``norm_rel`` (the added squared norms against beta); for ``nu-grid``,
``spectrum_rel`` (each nu against ``gen.ref_nu``'s); for ``dual``'s optimal
duals, ``duality_rel`` (||W F* - I|| relative), ``spectrum_rel`` (spec(W W*)
and the reported nu against the reference nu) and ``kernel_orth``; for
``cli``, ``complete``'s certificates on what its ``complete`` invocations
print.  They say how far outputs that differ in their bits are from the answer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import check  # noqa: E402
import frameopt as fo  # noqa: E402
import frameopt.cli  # noqa: E402
import gen  # noqa: E402


def _feed(h, x) -> None:
    """Hash x by its bits: arrays by dtype, shape and bytes, the rest by repr."""
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        for item in x:
            _feed(h, item)
    else:
        h.update(repr(x).encode())
    h.update(b"|")


def _record(h, fn):
    """Hash fn()'s output, or the name of the library error it raised; return the output or None."""
    try:
        out = fn()
    except (fo.errors.FrameOptError, ValueError, ArithmeticError) as exc:
        _feed(h, type(exc).__name__)
        return None
    _feed(h, out)
    return out


def _certify(worst: dict, outcome) -> None:
    """Collect an outcome's certificates; ``main`` keeps the largest of each (NaN wins)."""
    for name, value in outcome.certs.items():
        worst.setdefault(name, []).append(value)


def _pools(workload: str, seeds):
    for seed in seeds:
        yield from gen.make_pool(workload, seed)
        yield from gen.make_probe(workload, seed)


def _complete(inst):
    res = fo.complete(fo.CompletionProblem(fo.Frame(inst["A"]), inst["beta"]))
    p = res.plan
    done = None if res.completed is None else res.completed.synthesis
    bounds = res.lower_bounds["fp"], res.lower_bounds["mse"]
    return (res.feasible, res.nu.values, res.unique_B, p.mu_hat, p.r_hat, p.c_hat,
            bounds, res.added, done)


def _breakdown(lam, m, t):
    b = fo.nu(lam, m, float(t))
    return b._replace(nu=b.nu.values, regime=b.regime.value)


def _dual(frame, worst: dict):
    canonical = fo.canonical_dual(frame)
    out = [canonical.synthesis, fo.tight_dual_exists(frame), fo.parseval_dual_exists(frame),
           fo.is_dual(frame, canonical)]
    a = frame.synthesis
    lam = np.sort(1.0 / np.linalg.eigvalsh(a @ a.conj().T))[::-1]  # reference spec(S^-1)
    t0 = fo.inverse_operator(frame).trace()
    for scale in (1.0, 1.3, 3.0):
        problem = fo.DualProblem(frame, scale * t0)
        res = fo.optimal_dual(problem)
        op = res.operator
        out += [res.dual.synthesis, res.nu.values, res.unique_S,
                op.eigenvalues.values, op.eigenvectors, fo.is_dual(frame, res.dual)]
        nu_ref, masses = gen.gaps(lam, problem.m, problem.t)
        inst = {"A": a, "nu": nu_ref, "masses": masses}
        _certify(worst, check.check_dual(inst, res.nu.values, res.dual.synthesis))
    return out


def _dual_corpus():
    rng = np.random.default_rng(20261019)
    for i in range(300):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(d + 1, 3 * d + 1))
        a = rng.standard_normal((d, n))
        if i % 2:
            a = a + 1j * rng.standard_normal((d, n))
        yield fo.Frame(a)


def _cli(workdir: Path, i: int, inst):
    prefix = f"{workdir}/{i}-"
    for name, text in inst["files"].items():
        Path(prefix + name).write_text(text)
    argv = [a.replace("{dir}/", prefix) for a in inst["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = frameopt.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().replace(prefix, "{dir}/"), err.getvalue().replace(prefix, "{dir}/")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 20261017])
    seeds = parser.parse_args().seeds
    hashes = {name: hashlib.sha256() for name in ("complete", "nu-grid", "dual", "cli", "batch")}
    worst: dict = {name: {} for name in hashes}
    for inst in _pools("complete", seeds):
        out = _record(hashes["complete"], lambda: _complete(inst))
        if out is not None:
            feasible, nu_values, *_, added, _ = out
            _certify(worst["complete"], check.check_completion(inst, feasible, nu_values, added))
    for inst in _pools("nu-grid", seeds):
        for t, nu_ref in zip(inst["ts"], inst["nu"]):
            out = _record(hashes["nu-grid"], lambda: _breakdown(inst["lam"], inst["m"], t))
            if out is not None:
                _certify(worst["nu-grid"], check.check_nu({"nu": nu_ref}, out.nu))
        for m in (inst["m"], 0):
            for fn in (fo.r_lambda_m, fo.c_lambda_m):
                _record(hashes["batch"], lambda: fn(inst["lam"], m, inst["ts"]))
    for frame in _dual_corpus():
        _record(hashes["dual"], lambda: _dual(frame, worst["dual"]))
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for i, inst in enumerate(gen.make_pool("cli", seed)):
                code, out, err = _cli(Path(workdir), i, inst)
                _feed(hashes["cli"], (code, out, err))
                if inst["cmd"] == "complete":
                    _certify(worst["cli"], check.check_cli(inst, code, out))
    digest = {name: h.hexdigest()[:16] for name, h in hashes.items()}
    worst = {family: {name: float(np.max(values)) for name, values in certs.items()}
             for family, certs in worst.items()}
    print(json.dumps({"seeds": seeds, **digest, "worst": worst}))


if __name__ == "__main__":
    main()
