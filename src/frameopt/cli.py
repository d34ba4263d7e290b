"""Command-line front end over JSON inputs.

Subcommands: nu | complete | feasible | dual | check-dual | potential.
Frame inputs are JSON files ({"d", "n", "vectors"}) or '-' for stdin;
spectra are inline comma-separated reals or a file path.  Output is JSON
with a fixed field order and numbers printed to 12 significant digits, so
identical inputs produce byte-identical stdout.

Exit codes: 0 success, 2 malformed input (including a rank bound m >= d
and a non-finite --t), 3 bad trace target, 4 infeasible completion (result
still printed), 5 rank precondition violated, 6 frame not spanning /
singular operator.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .completion import CompletionProblem, complete, completion_to_json, lower_bounds, plan
from .duals import DualProblem, dual_to_json, optimal_dual
from .errors import (
    BadTrace,
    FrameOptError,
    InsufficientCorank,
    NotSpanning,
    RankDeficient,
    SingularFrameOperator,
)
from .frames import Frame, _duality, _is_real, frame_from_json, potential
from .majorization import PotentialKind
from .spectra import nu

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BAD_TRACE = 3
EXIT_INFEASIBLE = 4
EXIT_RANK = 5
EXIT_NOT_SPANNING = 6


# Checked in order: the first matching exception type gives the exit code.
_EXIT_CODES = (
    (ValueError, EXIT_PARSE),
    (BadTrace, EXIT_BAD_TRACE),
    (RankDeficient, EXIT_RANK),
    (InsufficientCorank, EXIT_RANK),
    (NotSpanning, EXIT_NOT_SPANNING),
    (SingularFrameOperator, EXIT_NOT_SPANNING),
    (FrameOptError, EXIT_PARSE),
)


def _read_source(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    try:
        with open(arg, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {arg!r}: {exc}") from exc


def _parse_reals(text: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty number list")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad number list: {exc}") from exc


def _load_spectrum(arg: str) -> list[float]:
    try:
        return _parse_reals(arg)
    except ValueError:
        pass
    text = _read_source(arg).strip()
    if text.startswith("["):
        try:  # an integer past the float range reads as inf, as 1e999 does
            data = json.loads(text, parse_int=float)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON list: {exc}") from exc
        if not isinstance(data, list) or not all(map(_is_real, data)):
            raise ValueError("spectrum file must hold a list of numbers")
        return data
    return _parse_reals(text)


def _load_frame(arg: str) -> Frame:
    try:
        obj = json.loads(_read_source(arg))
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad frame JSON: {exc}") from exc
    return frame_from_json(obj)


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".12g")
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _print(obj) -> None:
    sys.stdout.write(_emit(obj) + "\n")


def _cmd_nu(args) -> int:
    lam = _load_spectrum(args.lam)
    breakdown = nu(lam, args.m, args.t)
    _print(
        {
            "r": breakdown.r,
            "c": breakdown.c,
            "s_star": breakdown.s_star,
            "s_star_star": breakdown.s_star_star,
            "nu": breakdown.nu.values.tolist(),
            "regime": breakdown.regime.value,
        }
    )
    return EXIT_OK


def _completion_problem(args) -> CompletionProblem:
    return CompletionProblem(_load_frame(args.frame), _parse_reals(args.beta))


def _cmd_feasible(args) -> int:
    the_plan = plan(_completion_problem(args))
    _print(
        {
            "feasible": the_plan.feasible,
            "nu": the_plan.nu.values.tolist(),
            "unique_B": the_plan.unique_B,
            "r_hat": the_plan.r_hat,
            "c_hat": the_plan.c_hat,
            "mu_hat": the_plan.mu_hat.tolist(),
            "lower_bounds": lower_bounds(the_plan.nu),
        }
    )
    return EXIT_OK if the_plan.feasible else EXIT_INFEASIBLE


def _cmd_complete(args) -> int:
    result = complete(_completion_problem(args))
    _print(completion_to_json(result))
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_dual(args) -> int:
    frame = _load_frame(args.frame)
    result = optimal_dual(DualProblem(frame, args.t))
    _print(dual_to_json(result))
    return EXIT_OK


def _cmd_check_dual(args) -> int:
    frame = _load_frame(args.frame)
    other = _load_frame(args.dual)
    verdict, residual = _duality(frame, other)
    _print({"is_dual": verdict, "residual": residual})
    return EXIT_OK


def _cmd_potential(args) -> int:
    _print(potential(_load_frame(args.frame), PotentialKind(args.kind)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameopt",
        description="Optimal frame completions and trace-constrained optimal duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nu = sub.add_parser("nu", help="minimal reachable spectrum at a trace target")
    p_nu.add_argument("--lambda", dest="lam", required=True, metavar="SPECTRUM",
                      help="base spectrum: inline comma list, file path, or -")
    p_nu.add_argument("--m", type=int, required=True, help="rank bound parameter (< d)")
    p_nu.add_argument("--t", type=float, required=True, help="trace target (>= tr lambda)")
    p_nu.set_defaults(handler=_cmd_nu)

    for name, help_text, handler in (
        ("complete", "optimal completion with prescribed squared norms", _cmd_complete),
        ("feasible", "feasibility analysis only (stops after the plan)", _cmd_feasible),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--frame", required=True, help="initial frame JSON (path or -)")
        p.add_argument("--beta", required=True,
                       help="prescribed squared norms, comma-separated")

    p_dual = sub.add_parser("dual", help="optimal dual with operator trace >= t")
    p_dual.add_argument("--frame", required=True, help="frame JSON (path or -)")
    p_dual.add_argument("--t", type=float, required=True, help="trace lower bound")
    p_dual.set_defaults(handler=_cmd_dual)

    p_check = sub.add_parser("check-dual", help="test whether two frames are dual")
    p_check.add_argument("--frame", required=True)
    p_check.add_argument("--dual", required=True)
    p_check.set_defaults(handler=_cmd_check_dual)

    p_pot = sub.add_parser("potential", help="convex potential of a frame")
    p_pot.add_argument("--frame", required=True)
    p_pot.add_argument("--kind", required=True, choices=[k.value for k in PotentialKind])
    p_pot.set_defaults(handler=_cmd_potential)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"frameopt: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
