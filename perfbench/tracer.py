"""Span tracer that wraps frameopt's cross-module entry points from outside.

Installing a ``Tracer`` replaces each named function or method with a
wrapper that records a span (name, start, end, parent span, operation id)
or bumps a counter.  A function is replaced in every frameopt module that
holds it, so calls through ``from .x import f`` are caught too.  A name
that no longer exists is skipped and reports zero calls, so the library
can drop or merge helpers without breaking the benchmark.

Spans stay in memory; ``aggregate`` turns them into per-layer figures once
the run is over.  A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  Entries that share a span name are
# one layer entry point reached two ways.
SPANS = (
    ("core_linalg", "eig_hermitian", "core_linalg.eig_hermitian"),
    ("core_linalg", "null_space_onb", "core_linalg.null_space_onb"),
    ("core_linalg", "HermitianPSD.__init__", "core_linalg.HermitianPSD"),
    ("core_linalg", "HermitianPSD.from_eigensystem", "core_linalg.HermitianPSD"),
    ("frames", "Frame.operator", "frames.Frame.operator"),
    ("frames", "canonical_dual", "frames.canonical_dual"),
    ("frames", "frame_from_json", "frames.frame_from_json"),
    ("frames", "frame_to_json", "frames.frame_to_json"),
    ("spectra", "nu", "spectra.nu"),
    ("spectra", "minimizer_is_unique", "spectra.minimizer_is_unique"),
    ("majorization", "majorizes", "majorization.majorizes"),
    ("schur_horn", "realize_frame", "schur_horn.realize_frame"),
    ("schur_horn", "rotation_chain", "schur_horn.rotation_chain"),
    ("completion", "plan", "completion.plan"),
    ("completion", "complete", "completion.complete"),
    ("completion", "completion_to_json", "completion.completion_to_json"),
    ("duals", "inverse_operator", "duals.inverse_operator"),
    ("duals", "optimal_dual", "duals.optimal_dual"),
    ("duals", "dual_to_json", "duals.dual_to_json"),
    ("cli", "main", "cli.main"),
)

# Hot, tiny entry points that are counted but get no span.
COUNTED = (
    ("core_linalg", "givens_left", "core_linalg.givens_left.calls"),
    ("majorization", "SpectrumVec.__init__", "majorization.SpectrumVec.built"),
)

ROOT_SPAN = "op"


class Tracer:
    """Collects spans and counters for the operations of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._operators: dict = {}  # id(frame) -> (frame, operator) within one op
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._operators.clear()
        self.begin(ROOT_SPAN)

    def end_op(self) -> None:
        self.end()
        self._operators.clear()

    def adopt(self, spans, counters) -> None:
        """Attach spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1]
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self._op])
        self.counters.update(counters)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for module, path, name in SPANS:
            self._patch(module, path, lambda fn, n=name: self._span_wrapper(n, fn))
        for module, path, name in COUNTED:
            self._patch(module, path, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module: str, path: str, make) -> None:
        try:
            mod = importlib.import_module(f"frameopt.{module}")
        except ImportError:
            self.missing.append(f"{module}.{path}")
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
        else:
            owner, raw = mod, getattr(mod, attr, None)
        if raw is None:
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(raw, classmethod):
            self._set(owner, attr, raw, classmethod(make(raw.__func__)))
        elif owner_name:
            self._set(owner, attr, raw, make(raw))
        else:
            # Rebind the function wherever a frameopt module imported it.
            wrapped = make(raw)
            for name, other in list(sys.modules.items()):
                if name == "frameopt" or name.startswith("frameopt."):
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._set(other, key, raw, wrapped)

    def _set(self, owner, attr, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _after_eig(tracer: Tracer, args, result) -> None:
    tracer.counters["core_linalg.eig_hermitian.order_sum"] += len(args[0])


def _after_rotation_chain(tracer: Tracer, args, result) -> None:
    tracer.counters["schur_horn.rotation_chain.rotations"] += len(result[0])


def _after_operator(tracer: Tracer, args, result) -> None:
    # A hit returns the object an earlier call on the same frame returned.
    frame = args[0]
    seen = tracer._operators.get(id(frame))
    if seen is not None and seen[1] is result:
        tracer.counters["frames.Frame.operator.hits"] += 1
    tracer._operators[id(frame)] = (frame, result)


_AFTER = {
    "core_linalg.eig_hermitian": _after_eig,
    "schur_horn.rotation_chain": _after_rotation_chain,
    "frames.Frame.operator": _after_operator,
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(idx, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(tracer: Tracer, ops: int) -> dict:
    """Per-operation layer figures, and the worst self-time accounting error.

    For every operation the self times of its spans must add up to the
    duration of its root span; ``sum_error`` is the largest relative gap.
    """
    selfs = self_times(tracer.spans)
    calls, self_s = Counter(), defaultdict(float)
    op_total, op_dur = defaultdict(float), {}
    for span, own in zip(tracer.spans, selfs):
        name, start, end, parent, op = span
        calls[name] += 1
        self_s[name] += own
        op_total[op] += own
        if parent < 0:
            op_dur[op] = end - start
    sum_error = max(
        (abs(op_total[op] - dur) / dur for op, dur in op_dur.items() if dur > 0), default=0.0
    )
    per_op = max(ops, 1)
    out = {}
    for name in sorted({s[2] for s in SPANS} | {ROOT_SPAN}):
        out[f"{name}.calls"] = calls[name] / per_op
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / per_op
    out["core_linalg.HermitianPSD.built"] = out.pop("core_linalg.HermitianPSD.calls")
    for _, _, name in COUNTED:
        out[name] = tracer.counters[name] / per_op
    for name in ("core_linalg.eig_hermitian.order_sum", "schur_horn.rotation_chain.rotations"):
        out[name] = tracer.counters[name] / per_op
    op_calls = calls["frames.Frame.operator"]
    out["frames.Frame.operator.hit_ratio"] = (
        tracer.counters["frames.Frame.operator.hits"] / op_calls if op_calls else 0.0
    )
    return {"layers": out, "sum_error": sum_error, "missing": tracer.missing}
