"""Seeded input generator for the frameopt benchmark.

It uses numpy only and never imports frameopt, so a change to the library
cannot change the inputs.  Every instance carries its expected answer,
fixed by construction and computed here from a closed-form reference of
the waterfilling rule ``ref_nu``.

Instance ``i`` of a workload is drawn from its own generator, seeded by
``(seed, workload, i)``, so one instance can be made without the rest of
the pool.  The properties that set an operation's cost or verdict (d, real
or complex, regime, size fractions, log-scale) are stratified over ``i``:
they cycle in an interleaved order and the fractions follow a shifted
van der Corput sequence.  Any prefix of a pool is then a balanced sample,
so the figures of a fixed-length run depend little on the seed.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

WORKLOADS = ("complete", "nu-grid", "cli")

# Random stream of each workload; part of every instance's seed.
_STREAM = {"complete": 0, "nu-grid": 2, "cli": 3}

# Pools are cycled when a run gets through all of them.
POOL_SIZE = {"complete": 280, "nu-grid": 720, "cli": 144}

# Log10 range of the frame scale (`complete`) and the spectrum scale
# (`nu-grid`).  Timed pools stop at unit scale: from a frame scale of about
# 1e2 and a spectrum scale of about 2e3 the library fails on the absolute
# tolerances of ROADMAP item 4, and no timed operation may fail.  The defect
# probe draws the first PROBE_SIZE instances of the same pools over the
# full ranges, where the defect shows (README.md, Known defect).
DECADES = {"complete": (-3.0, 0.0), "nu-grid": (-6.0, 0.0)}
WIDE_DECADES = {"complete": (-3.0, 3.0), "nu-grid": (-6.0, 6.0)}
PROBE_SIZE = {"complete": 120, "nu-grid": 90}

# One size repeats in each cycle of dimensions so that the median operation
# falls inside one size class, not in the gap between two, where it would
# jump with the seed.
COMPLETE_DIMS = (8, 16, 16, 32, 48)
CLI_COMMANDS = ("nu", "feasible", "complete", "dual", "check-dual", "potential")
POTENTIAL_KINDS = ("fp", "mse", "xlogx")

# Relative margin by which an infeasible completion misses majorization.
_INFEASIBLE_MARGIN = 0.05


# ---------------------------------------------------------------- reference


def ref_nu(lam, m: int, t: float):
    """Minimal reachable spectrum nu(lam, m, t) by the closed-form rule.

    ``lam`` is nonincreasing and nonnegative.  Returns ``(nu, r, c)``: the
    spectrum in nonincreasing order, the number of leading entries of
    ``lam`` kept below the level (before the rank cap), and the level.
    """
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    t = max(float(t), float(lam.sum()))
    if m >= 1:
        head = float(lam[:m].sum())
        s_star = head + (d - m) * float(lam[m - 1])
        s_star_star = (d - m) * float(lam[0]) + head
        if t > s_star:
            c = float(lam[m - 1]) + (t - s_star) / (d - m)
            if t >= s_star_star:
                return np.concatenate((np.full(d - m, c), lam[:m])), 0, c
            r = int(np.argmax(lam <= c))
            return np.concatenate((lam[:r], np.full(d - m, c), lam[r:m])), r, c
    prefix = np.concatenate(([0.0], np.cumsum(lam)))
    for r in range(d):
        c = (t - prefix[r]) / (d - r)
        if c >= lam[r] or r == d - 1:
            return np.concatenate((lam[:r], np.full(d - r, c))), r, c
    raise AssertionError("unreachable")


def breakpoints(lam, m: int):
    """Traces s* and s** at which the rank cap starts to bind and saturates."""
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    head = float(lam[:m].sum())
    return head + (d - m) * float(lam[m - 1]), (d - m) * float(lam[0]) + head


def gaps(lam, m: int, t: float):
    """Reference nu and the masses c - lam_i the optimum adds on trailing slots.

    The masses sit on the last d - max(r, m) eigenvectors (d - r when
    m <= 0): they are the gap vector mu_hat of a completion and the
    eigenvalues of the kernel block of an optimal dual.
    """
    nu_vals, r, c = ref_nu(lam, m, t)
    r_hat = max(r, m) if m >= 1 else r
    return nu_vals, np.maximum(c - np.asarray(lam, dtype=float)[r_hat:], 0.0)


def majorized_by(x, y, rel: float = 0.0) -> bool:
    """Whether sorted x is majorized by sorted y (equal totals assumed)."""
    cx = np.cumsum(np.sort(x)[::-1])
    cy = np.cumsum(np.sort(y)[::-1])
    return bool(np.all(cx <= cy + rel * cy[-1]))


def potential_terms(lam, kind: str) -> np.ndarray:
    """Entrywise terms f(lam_i) of the convex potential tr f(S)."""
    lam = np.asarray(lam, dtype=float)
    if kind == "fp":
        return lam * lam
    if kind == "mse":
        return 1.0 / lam
    pos = lam[lam > 0.0]
    return pos * np.log(pos)


# ---------------------------------------------------------------- speed probe

_PROBE_LAM = np.sort(np.exp(np.random.default_rng(0).standard_normal(12)))[::-1]


def speed_probe() -> float:
    """Seconds taken by 40 reference waterfilling solves on a fixed spectrum.

    Python-level numpy code like the library's, but not the library's, so
    a change to frameopt cannot change what it measures: the speed of the
    machine at the moment.
    """
    ts = trace_grid(_PROBE_LAM, 5, 0.3)[:40]
    t0 = time.perf_counter()
    for t in ts:
        ref_nu(_PROBE_LAM, 5, t)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- helpers


def _vdc(j: int, base: int) -> float:
    """Van der Corput radical inverse of j in the given base."""
    out, denom = 0.0, 1.0
    while j:
        j, digit = divmod(j, base)
        denom *= base
        out += digit / denom
    return out


def _strata(seed: int, workload: str, cells: int, i: int, bases, widths):
    """Stratified fractions in [0, 1) for instance i, one per base.

    Visit j of a cell takes the van der Corput point j in each base,
    shifted by a seed-drawn amount in [0, width).  A narrow width keeps a
    cost-setting fraction nearly the same for every seed; a width of 1 is a
    full random shift.
    """
    shifts = np.random.default_rng([seed, _STREAM[workload], 1 << 20]).random(
        (cells, len(bases))
    )
    cell, j = i % cells, i // cells
    return [
        float((_vdc(j, b) + w * shifts[cell, q]) % 1.0)
        for q, (b, w) in enumerate(zip(bases, widths))
    ]


# Width of the seed's shift for fractions that set an operation's cost.
_COST_JITTER = 1.0 / 16


def _unitary(rng, n: int, cplx: bool) -> np.ndarray:
    z = rng.standard_normal((n, n))
    if cplx:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _spectrum(rng, d: int) -> np.ndarray:
    return np.sort(np.exp(rng.standard_normal(d)))[::-1]


def _frame(rng, lam, n: int, cplx: bool) -> np.ndarray:
    """d x n synthesis matrix whose frame operator has spectrum lam."""
    d = lam.size
    u = _unitary(rng, d, cplx)
    w = _unitary(rng, n, cplx)[:d, :]
    return (u * np.sqrt(lam)) @ w


def _norms(rng, mu_hat, k: int, total: float, feasible: bool):
    """Squared norms majorized by the padded gap vector, or missing it by a margin."""
    padded = np.zeros(k)
    padded[: mu_hat.size] = mu_hat
    if feasible:
        a = rng.uniform(0.0, 0.9)
        return (1.0 - a) * total / k + a * rng.permutation(padded)
    top = float(padded.max()) + _INFEASIBLE_MARGIN * total
    rest = np.full(k - 1, (total - top) / (k - 1))
    return rng.permutation(np.concatenate(([top], rest)))


def _completion(rng, d: int, k: int, cplx: bool, feasible: bool):
    """Initial frame and norms with the given verdict, at unit scale."""
    while True:
        lam = _spectrum(rng, d)
        n0 = int(rng.integers(d, 2 * d + 1))
        total = float(lam.sum()) * 10.0 ** rng.uniform(-1.0, 0.5)
        nu_vals, mu_hat = gaps(lam, d - k, float(lam.sum()) + total)
        positive = mu_hat[mu_hat > 1e-9 * total]
        if feasible or (
            positive.size >= 2
            and k >= 2
            and positive.max() <= (1.0 - 3 * _INFEASIBLE_MARGIN) * total
        ):
            break
    beta = _norms(rng, mu_hat, k, total, feasible)
    padded = np.zeros(k)
    padded[: mu_hat.size] = mu_hat
    if majorized_by(beta, padded, 1e-12) != feasible:
        raise ArithmeticError("generated norms do not have the intended verdict")
    return _frame(rng, lam, n0, cplx), beta, nu_vals


# ---------------------------------------------------------------- workloads


def _log_scale(decades, u: float) -> float:
    lo, hi = decades
    return 10.0 ** (lo + (hi - lo) * u)


def _make_complete(seed: int, i: int, decades) -> dict:
    d = COMPLETE_DIMS[i % 5]
    cplx = bool((i // 5) % 2)
    feasible = (i // 10) % 4 != 3  # three in four feasible
    k_frac, u = _strata(seed, "complete", 40, i, (2, 3), (_COST_JITTER, 1.0))
    rng = np.random.default_rng([seed, _STREAM["complete"], i])
    lo = 1 if feasible else 2
    k = lo + int(k_frac * (d - lo))
    a, beta, nu_vals = _completion(rng, d, k, cplx, feasible)
    scale = _log_scale(decades, u)
    return {
        "A": scale * a,
        "beta": scale**2 * beta,
        "feasible": feasible,
        "nu": scale**2 * nu_vals,
    }


def _dual_trace(lam, m: int, slot: int, frac: float) -> float:
    """Trace bound in the regime named by slot: 0 <= s*, 1 between, 2 >= s**."""
    tr = float(lam.sum())
    if m <= 0 or lam[0] == lam[m - 1]:
        return tr * (1.0 + 2.0 * frac)
    s1, s2 = breakpoints(lam, m)
    if slot == 0:
        return tr + max(frac, 0.05) * (s1 - tr)
    if slot == 1:
        return s1 + (0.05 + 0.9 * frac) * (s2 - s1)
    return s2 * (1.0 + frac)


def _tied_spectrum(rng, d: int) -> np.ndarray:
    """Nonincreasing spectrum with random ties and trailing zeros."""
    lam = _spectrum(rng, d)
    for j in range(1, d):
        if rng.random() < 0.3:
            lam[j] = lam[j - 1]
    zeros = int(rng.integers(0, d // 2 + 1)) if rng.random() < 0.4 else 0
    if zeros:
        lam[d - zeros :] = 0.0
    return lam


def trace_grid(lam, m: int, frac: float) -> np.ndarray:
    """tr(lam), s* and s** exactly, then 12d traces across every regime."""
    tr = float(lam.sum())
    points = [tr]
    top = 4.0 * tr
    if m >= 1:
        s1, s2 = breakpoints(lam, m)
        points += [s1, s2]
        top = max(2.0 * s2 - tr, top)
    count = 12 * lam.size
    points += [tr + (j + frac) / count * (top - tr) for j in range(count)]
    return np.array(points)


def _make_nu_grid(seed: int, i: int, decades) -> dict:
    d = 2 + i % 15
    m_frac, u, t_frac = _strata(seed, "nu-grid", 15, i, (2, 3, 5), (_COST_JITTER, 1.0, 1.0))
    rng = np.random.default_rng([seed, _STREAM["nu-grid"], i])
    lam = _tied_spectrum(rng, d)
    m = -2 + int(m_frac * (d + 1))  # m in [-2, d - 1]
    ts = trace_grid(lam, m, t_frac)
    scale = _log_scale(decades, u)
    nu_vals = np.array([ref_nu(lam, m, t)[0] for t in ts])
    return {"lam": scale * lam, "m": m, "ts": scale * ts, "nu": scale * nu_vals}


def frame_json(a) -> str:
    """Frame file text with every entry an [re, im] pair, full precision."""
    a = np.asarray(a)
    vectors = [[[float(z.real), float(z.imag)] for z in a[:, j]] for j in range(a.shape[1])]
    return json.dumps({"d": a.shape[0], "n": a.shape[1], "vectors": vectors})


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _make_cli(seed: int, i: int, decades=None) -> dict:
    cmd = CLI_COMMANDS[i % 6]
    cplx = bool((i // 6) % 2)
    jitter = (_COST_JITTER, _COST_JITTER, 1.0)
    d_frac, x_frac, y_frac = _strata(seed, "cli", 12, i, (2, 3, 5), jitter)
    rng = np.random.default_rng([seed, _STREAM["cli"], i])
    d = 3 + int(d_frac * 10)  # d in [3, 12]
    inst = {"cmd": cmd, "files": {}, "exit": 0}
    if cmd == "nu":
        lam = _tied_spectrum(rng, d)
        m = -1 + int(x_frac * d)
        grid = trace_grid(lam, m, x_frac)
        t = float(grid[int(y_frac * grid.size)])
        inst["argv"] = ["nu", "--lambda", _csv(lam), f"--m={m}", "--t", repr(t)]
        inst["nu"] = ref_nu(lam, m, t)[0]
    elif cmd in ("feasible", "complete"):
        feasible = x_frac < 0.75
        k = (1 if feasible else 2) + int(y_frac * (d - (1 if feasible else 2)))
        a, beta, nu_vals = _completion(rng, d, k, cplx, feasible)
        inst["files"]["f0.json"] = frame_json(a)
        inst["argv"] = [cmd, "--frame", "{dir}/f0.json", "--beta", _csv(beta)]
        inst.update(A=a, beta=beta, nu=nu_vals, feasible=feasible, exit=0 if feasible else 4)
    elif cmd == "dual":
        n = d + 1 + int(x_frac * (2 * d - 1))  # n in [d + 1, 3d]
        sigma2 = _spectrum(rng, d)
        a = _frame(rng, sigma2, n, cplx)
        lam = np.sort(1.0 / sigma2)[::-1]
        m = 2 * d - n
        t = _dual_trace(lam, m, int(y_frac * 3), x_frac)
        inst["files"]["f.json"] = frame_json(a)
        inst["argv"] = ["dual", "--frame", "{dir}/f.json", "--t", repr(t)]
        nu_vals, masses = gaps(lam, m, t)
        inst.update(A=a, nu=nu_vals, masses=masses)
    elif cmd == "check-dual":
        n = d + int(x_frac * (2 * d + 1))  # n in [d, 3d]
        sigma2 = _spectrum(rng, d)
        a = _frame(rng, sigma2, n, cplx)
        w = np.linalg.solve(a @ a.conj().T, a)  # canonical dual S^-1 F
        is_dual = y_frac < 0.5
        if not is_dual:
            w = 1.1 * w  # reconstructs 1.1 times the input
        inst["files"]["f.json"] = frame_json(a)
        inst["files"]["w.json"] = frame_json(w)
        inst["argv"] = ["check-dual", "--frame", "{dir}/f.json", "--dual", "{dir}/w.json"]
        inst["is_dual"] = is_dual
    else:
        n = d + int(x_frac * (2 * d + 1))
        sigma2 = _spectrum(rng, d)
        kind = POTENTIAL_KINDS[int(y_frac * 3)]
        inst["files"]["f.json"] = frame_json(_frame(rng, sigma2, n, cplx))
        inst["argv"] = ["potential", "--frame", "{dir}/f.json", "--kind", kind]
        terms = potential_terms(sigma2, kind)
        inst["value"] = float(terms.sum())
        inst["value_scale"] = float(np.abs(terms).sum())
    return inst


_MAKERS = {
    "complete": _make_complete,
    "nu-grid": _make_nu_grid,
    "cli": _make_cli,
}


def make_instance(workload: str, seed: int, i: int, wide: bool = False) -> dict:
    """Instance i of a workload; the same (workload, seed, i) gives the same data.

    With `wide`, it is the same instance drawn over the full scale range.
    """
    table = WIDE_DECADES if wide else DECADES
    return _MAKERS[workload](seed, i, table.get(workload))


def make_pool(workload: str, seed: int) -> list[dict]:
    return [make_instance(workload, seed, i) for i in range(POOL_SIZE[workload])]


def make_probe(workload: str, seed: int) -> list[dict]:
    """The defect probe: the first PROBE_SIZE instances over the full scale range."""
    return [make_instance(workload, seed, i, wide=True) for i in range(PROBE_SIZE[workload])]


def digest(pool) -> str:
    """SHA-256 over every field of every instance, in a fixed order."""
    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                h.update(key.encode())
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        else:
            h.update(repr(value).encode())

    feed(list(pool))
    return h.hexdigest()
