"""Command-line front end over JSON inputs.

Subcommands: nu | complete | feasible | dual | check-dual | potential.
Frame inputs are JSON files ({"d", "n", "vectors"}) or '-' for stdin;
spectra are inline comma-separated reals or a file path.  Output is JSON
with a fixed field order and numbers printed to 12 significant digits, so
identical inputs produce byte-identical stdout.

Exit codes: 0 success, 2 malformed input (including a rank bound m >= d),
3 bad trace target, 4 infeasible completion (result still printed),
5 rank precondition violated, 6 frame not spanning / singular operator.
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
    NotSpanning,
    RankDeficient,
    SingularFrameOperator,
)
from .frames import Frame, duality_residual, frame_from_json, potential
from .majorization import DEFAULT_TOL, PotentialKind
from .spectra import nu

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BAD_TRACE = 3
EXIT_INFEASIBLE = 4
EXIT_RANK = 5
EXIT_NOT_SPANNING = 6
_RELATIVE_TOL = "relative tolerance, scaled by the problem's trace (default %(default)s)"


class _ParseFailure(Exception):
    pass


# Checked in order: the first matching exception type gives the exit code.
_EXIT_CODES = (
    (_ParseFailure, EXIT_PARSE),
    (ValueError, EXIT_PARSE),
    (BadTrace, EXIT_BAD_TRACE),
    (RankDeficient, EXIT_RANK),
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
        raise _ParseFailure(f"cannot read {arg!r}: {exc}") from exc


def _parse_reals(text: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise _ParseFailure("empty number list")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise _ParseFailure(f"bad number list: {exc}") from exc


def _load_spectrum(arg: str) -> list[float]:
    try:
        return _parse_reals(arg)
    except _ParseFailure:
        pass
    text = _read_source(arg).strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _ParseFailure(f"bad JSON list: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(x, (int, float)) for x in data):
            raise _ParseFailure("spectrum file must hold a list of numbers")
        return [float(x) for x in data]
    return _parse_reals(text)


def _load_frame(arg: str) -> Frame:
    text = _read_source(arg)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(f"bad frame JSON: {exc}") from exc
    try:
        return frame_from_json(obj)
    except ValueError as exc:
        raise _ParseFailure(str(exc)) from exc


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    value = float(x)
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    return format(value, ".12g")


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float)):
        return _fmt_number(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _print(obj) -> None:
    sys.stdout.write(_emit(obj) + "\n")


def _cmd_nu(args) -> int:
    lam = _load_spectrum(args.lam)
    breakdown = nu(lam, args.m, args.t, args.tol)
    _print(
        {
            "r": breakdown.r,
            "c": breakdown.c,
            "s_star": breakdown.s_star,
            "s_star_star": breakdown.s_star_star,
            "nu": [float(x) for x in breakdown.nu.values],
            "regime": breakdown.regime.value,
        }
    )
    return EXIT_OK


def _completion_problem(args) -> CompletionProblem:
    return CompletionProblem(_load_frame(args.frame), _parse_reals(args.beta))


def _cmd_feasible(args) -> int:
    the_plan = plan(_completion_problem(args), args.tol)
    _print(
        {
            "feasible": the_plan.feasible,
            "nu": [float(x) for x in the_plan.nu.values],
            "unique_B": the_plan.unique_B,
            "r_hat": the_plan.r_hat,
            "c_hat": the_plan.c_hat,
            "mu_hat": [float(x) for x in the_plan.mu_hat],
            "lower_bounds": lower_bounds(the_plan.nu),
        }
    )
    return EXIT_OK if the_plan.feasible else EXIT_INFEASIBLE


def _cmd_complete(args) -> int:
    result = complete(_completion_problem(args), args.tol)
    _print(completion_to_json(result))
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_dual(args) -> int:
    frame = _load_frame(args.frame)
    result = optimal_dual(DualProblem(frame, args.t), args.tol)
    _print(dual_to_json(result))
    return EXIT_OK


def _cmd_check_dual(args) -> int:
    frame = _load_frame(args.frame)
    other = _load_frame(args.dual)
    residual = duality_residual(frame, other)
    _print({"is_dual": bool(residual <= args.tol), "residual": residual})
    return EXIT_OK


def _cmd_potential(args) -> int:
    frame = _load_frame(args.frame)
    kind = PotentialKind.from_name(args.kind)
    value = potential(frame, kind)
    sys.stdout.write(_fmt_number(value) + "\n")
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
    p_nu.add_argument("--tol", type=float, default=DEFAULT_TOL, help=_RELATIVE_TOL)
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
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=_RELATIVE_TOL)

    p_dual = sub.add_parser("dual", help="optimal dual with operator trace >= t")
    p_dual.add_argument("--frame", required=True, help="frame JSON (path or -)")
    p_dual.add_argument("--t", type=float, required=True, help="trace lower bound")
    p_dual.add_argument("--tol", type=float, default=DEFAULT_TOL, help=_RELATIVE_TOL)
    p_dual.set_defaults(handler=_cmd_dual)

    p_check = sub.add_parser("check-dual", help="test whether two frames are dual")
    p_check.add_argument("--frame", required=True)
    p_check.add_argument("--dual", required=True)
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL,
                         help="absolute bound on the dimensionless duality residual")
    p_check.set_defaults(handler=_cmd_check_dual)

    p_pot = sub.add_parser("potential", help="convex potential of a frame")
    p_pot.add_argument("--frame", required=True)
    p_pot.add_argument("--kind", required=True, choices=["fp", "mse", "xlogx"])
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
