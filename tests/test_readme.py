"""The README's "Library quick start" block runs and shows what its comments say."""

import re
from pathlib import Path

import numpy as np

import frameopt as fo

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_matches_its_comments():
    code = _quick_start()
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    res, redundant, dual = ns["res"], ns["redundant"], ns["dual"]
    assert res.feasible is True
    assert res.nu.values.tolist() == [2.0, 2.0, 2.0]
    assert repr(res.completed) == "Frame(d=3, n=6)"
    assert fo.is_dual(redundant, dual.dual) is True
    assert np.allclose(dual.nu.values, [1.5, 1.5, 1.5], rtol=0.0, atol=1e-12)
    # each commented expression line shows its value's repr first
    shown = [line.split("#", 1) for line in code.splitlines() if "#" in line and " = " not in line]
    assert len(shown) == 5
    for expr, comment in shown:
        assert comment.strip().startswith(repr(eval(expr, ns))), expr
