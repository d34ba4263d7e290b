"""Correctness checks for benchmark operations, in numpy only.

Each check compares a solver's answer with the expected answer that the
generator fixed by construction, through certificates that are relative
to the problem's scale:

- ``spectrum_rel``: distance of the answer's spectrum from the reference
  ``nu``, over the largest entry of ``nu``;
- ``norm_rel``: worst relative error of an added vector's squared norm;
- ``duality_rel``: ``||W F* - I||_F / (||W||_F ||F||_F)``;
- ``kernel_orth``: distance of the spectrum of ``D D*``, where ``D`` is
  the dual minus the canonical dual, from the reference masses.  It is
  small only when the added kernel directions are orthonormal.

An operation fails when it raised an unexpected error, gave the wrong
feasible/infeasible verdict or exit code, or has a certificate above TOL.
Any failure of a timed operation makes a run incorrect.  In the defect
probe, a failure is the known defect of ROADMAP item 4 only on an instance
whose reference spectrum is large (``known_defect``); any other probe
failure makes a run incorrect too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# A planted error of 1e-6 relative must fail; the solvers reach ~1e-12.
TOL = 1e-8

PASS = "pass"
ERROR = "error"
VERDICT = "verdict"
RESIDUAL = "residual"

CERTS = ("spectrum_rel", "norm_rel", "duality_rel", "kernel_orth")

# ROADMAP item 4: `plan` and `nu` compare with absolute tolerances that fall
# below the rounding of large spectra.  Over whole pools drawn over the full
# scale ranges for seeds 1 to 10 and the held-out seed, no instance whose
# reference spectrum stayed below 1.3e3 (`nu-grid`) or 3.5e5 (`complete`)
# failed; this is an order of magnitude below both.
DEFECT_MAGNITUDE = 1e2


@dataclass
class Outcome:
    status: str
    certs: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS


def known_defect(inst: dict) -> bool:
    """Whether a probe failure on this instance may be the known large-scale defect."""
    return float(np.max(inst["nu"])) >= DEFECT_MAGNITUDE


def _judge(certs: dict) -> Outcome:
    worst = max(certs, key=certs.get)
    if not certs[worst] <= TOL:  # also catches NaN
        return Outcome(RESIDUAL, certs, f"{worst}={certs[worst]:.3g}")
    return Outcome(PASS, certs)


def spectrum_rel(got, want) -> float:
    got = np.asarray(got, dtype=float).reshape(-1)
    want = np.asarray(want, dtype=float).reshape(-1)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.max(np.abs(want))) or 1.0
    return float(np.max(np.abs(np.sort(got)[::-1] - want))) / scale


def _eig_desc(gram) -> np.ndarray:
    return np.linalg.eigvalsh(gram)[::-1]


def check_nu(inst: dict, nu_values) -> Outcome:
    return _judge({"spectrum_rel": spectrum_rel(nu_values, inst["nu"])})


def check_nu_grid(inst: dict, nu_rows) -> Outcome:
    """Every point of a trace sweep against its reference spectrum."""
    if len(nu_rows) != len(inst["nu"]):
        return Outcome(RESIDUAL, detail=f"{len(nu_rows)} spectra for {len(inst['nu'])} traces")
    worst = max(spectrum_rel(got, want) for got, want in zip(nu_rows, inst["nu"]))
    return _judge({"spectrum_rel": worst})


def check_completion(inst: dict, feasible: bool, nu_values, added) -> Outcome:
    """Verdict, reported nu, squared norms and completed spectrum."""
    if bool(feasible) != inst["feasible"]:
        return Outcome(VERDICT, detail=f"reported feasible={bool(feasible)}")
    certs = {"spectrum_rel": spectrum_rel(nu_values, inst["nu"])}
    if feasible:
        g = np.asarray(added)
        beta = inst["beta"]
        if g.shape != (inst["A"].shape[0], beta.size):
            return Outcome(RESIDUAL, certs, f"added block has shape {g.shape}")
        norms = np.sum(np.abs(g) ** 2, axis=0)
        certs["norm_rel"] = float(np.max(np.abs(norms - beta) / beta))
        a = inst["A"]
        spec = _eig_desc(a @ a.conj().T + g @ g.conj().T)
        certs["spectrum_rel"] = max(certs["spectrum_rel"], spectrum_rel(spec, inst["nu"]))
    return _judge(certs)


def check_dual(inst: dict, nu_values, w) -> Outcome:
    """Duality, dual-operator spectrum, reported nu and kernel block."""
    a = inst["A"]
    w = np.asarray(w)
    if w.shape != a.shape:
        return Outcome(RESIDUAL, detail=f"dual has shape {w.shape}")
    d = a.shape[0]
    certs = {
        "duality_rel": float(
            np.linalg.norm(w @ a.conj().T - np.eye(d))
            / (np.linalg.norm(w) * np.linalg.norm(a))
        ),
        "spectrum_rel": max(
            spectrum_rel(nu_values, inst["nu"]),
            spectrum_rel(_eig_desc(w @ w.conj().T), inst["nu"]),
        ),
    }
    diff = w - np.linalg.solve(a @ a.conj().T, a)
    masses = np.zeros(d)
    masses[: inst["masses"].size] = np.sort(inst["masses"])[::-1]
    scale = float(np.max(inst["nu"]))
    certs["kernel_orth"] = float(np.max(np.abs(_eig_desc(diff @ diff.conj().T) - masses))) / scale
    return _judge(certs)


def check_result(workload: str, inst: dict, result) -> Outcome:
    """Judge an in-process result object from the public API."""
    if workload == "nu-grid":
        return check_nu_grid(inst, [b.nu.values for b in result])
    added = None
    if result.feasible:
        added = result.completed.synthesis[:, inst["A"].shape[1] :]
    return check_completion(inst, result.feasible, result.nu.values, added)


def frame_from_output(obj) -> np.ndarray:
    """Synthesis matrix from the frame JSON the CLI prints."""
    cols = [[complex(e[0], e[1]) if isinstance(e, list) else e for e in v] for v in obj["vectors"]]
    return np.array(cols, dtype=complex).T.reshape(obj["d"], obj["n"])


def check_cli(inst: dict, returncode: int, stdout: str) -> Outcome:
    """Judge one CLI process by its exit code and printed JSON."""
    if returncode != inst["exit"]:
        return Outcome(VERDICT, detail=f"exit code {returncode}, expected {inst['exit']}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return Outcome(ERROR, detail=f"unreadable output: {exc}")
    cmd = inst["cmd"]
    try:
        if cmd == "nu":
            return check_nu(inst, out["nu"])
        if cmd == "feasible":
            if out["feasible"] != inst["feasible"]:
                return Outcome(VERDICT, detail=f"reported feasible={out['feasible']}")
            return check_nu(inst, out["nu"])
        if cmd == "complete":
            added = frame_from_output(out["F1"]) if out["F1"] is not None else None
            return check_completion(inst, out["feasible"], out["nu"], added)
        if cmd == "dual":
            return check_dual(inst, out["nu"], frame_from_output(out["W"]))
        if cmd == "check-dual":
            if out["is_dual"] != inst["is_dual"]:
                return Outcome(VERDICT, detail=f"reported is_dual={out['is_dual']}")
            return Outcome(PASS)
        return _judge({"spectrum_rel": abs(float(out) - inst["value"]) / inst["value_scale"]})
    except (KeyError, TypeError, ValueError) as exc:
        return Outcome(ERROR, detail=f"malformed output: {exc!r}")
