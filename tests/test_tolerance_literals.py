"""Tolerance constants live in one table, in ``majorization.py``.

Every float literal in ``src/frameopt`` with 0 < |x| < 1e-3 is a slack, so
it must be one of that table's ``*_TOL`` assignments; anywhere else the
code names the constant instead.
"""

import ast
import inspect
from pathlib import Path

import frameopt

PACKAGE = Path(frameopt.__file__).resolve().parent


def _table_literals(tree: ast.Module) -> set[int]:
    """ids of the constants assigned to module-level ``*_TOL`` names."""
    return {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.endswith("_TOL")
    }


def test_small_float_literals_only_in_the_tolerance_table():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "majorization.py":
            allowed = _table_literals(tree)
            assert len(allowed) == 4  # DEFAULT_TOL, TIE_TOL, PSD_TOL, GATE_TOL
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-3
                and id(node) not in allowed
            ):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not stray, "tolerance literals outside majorization.py's table: " + ", ".join(stray)


def test_no_public_callable_takes_a_tol():
    # every slack is a table factor times the scale of the inputs: no caller picks one
    takers = [
        name
        for name in frameopt.__all__
        if callable(obj := getattr(frameopt, name))
        and "tol" in inspect.signature(obj).parameters
    ]
    assert not takers, takers
