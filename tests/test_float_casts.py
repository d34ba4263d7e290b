"""Numeric input has one reader, ``majorization._numbers``.

A float cast of an argument (``np.asarray(x, dtype=float)`` and the like)
drops a nonzero imaginary part with only a ComplexWarning, parses text and
fails on an integer past the float range with a bare OverflowError, so
``src/frameopt`` casts in one place, the reader, which handles each of these.
A dtype chosen at run time (``complex if ... else float``) is a cast too.
Every other ``dtype=float`` call builds a new array from sizes, as
``np.arange`` does.
"""

import ast
from pathlib import Path

import frameopt

PACKAGE = Path(frameopt.__file__).resolve().parent

# numpy calls that build an array from sizes, not from an argument's entries
_BUILDERS = {"arange", "empty", "eye", "full", "identity", "linspace", "ones", "zeros"}


def _is_float(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "float"
    return isinstance(node, ast.Attribute) and node.attr in {"float64", "double"}


def _float_casts(node: ast.AST, owner: str = "<module>") -> list[str]:
    """``function:line`` of each float cast under ``node``: a call with a float
    ``dtype`` other than the builders', ``.astype`` to float, or a conditional
    expression with float on either side, wherever it stands."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    found = []
    if isinstance(node, ast.IfExp) and (_is_float(node.body) or _is_float(node.orelse)):
        found.append(f"{owner}:{node.lineno}")
    elif isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "astype":
            cast = bool(node.args) and _is_float(node.args[0])
        else:
            cast = name not in _BUILDERS and any(
                kw.arg == "dtype" and _is_float(kw.value) for kw in node.keywords
            )
        if cast:
            found.append(f"{owner}:{node.lineno}")
    for child in ast.iter_child_nodes(node):
        found += _float_casts(child, owner)
    return found


def test_the_finder_tells_casts_from_builders():
    source = (
        "def f(x, d):\n"
        "    a = np.asarray(x, dtype=float)\n"
        "    b = np.array(x, dtype=np.float64)\n"
        "    c = x.astype(float, copy=False)\n"
        "    kind = complex if np.iscomplexobj(x) else float\n"
        "    e = x.astype(complex if np.iscomplexobj(x) else float, copy=False)\n"
        "    g = np.asarray(x, dtype=float if x.ndim else complex)\n"
        "    return np.arange(d, 0, -1, dtype=float), np.zeros(d, dtype=float), x.astype(complex)\n"
    )
    assert _float_casts(ast.parse(source)) == ["f:2", "f:3", "f:4", "f:5", "f:6", "f:7"]


def test_only_the_reader_casts_arguments_to_float():
    casts = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _float_casts(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [where.rsplit(":", 1)[0] for where in casts] == ["majorization.py:_numbers"], casts
