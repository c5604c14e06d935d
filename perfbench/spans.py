"""Span tracing from outside the program, for the benchmark's traced runs.

:func:`install` wraps the public entry points of each layer (listed in
:data:`LAYERS`) so that every call records a span — layer name, start,
end and the layer of the enclosing span — and adds to per-layer
aggregates: calls into the layer, total time and self time (total minus
the time covered by nested spans of other layers).  A call into a layer
that is already the innermost open span is part of that span, not a new
one, so ``calls`` counts entries into a layer from outside it.

Functions that return iterators (the batched sweeps are generators) are
wrapped a second time: each ``next()`` on the returned iterator re-enters
the layer, because that is where their work happens.

Nothing in ``src/`` is edited: the wrappers replace module and class
attributes at run time, including names other ``repro`` modules imported
with ``from module import name``.  Spans stay in memory per thread and
are written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: layer → public entry points (``module:attribute`` or
#: ``module:Class.method``).
LAYERS: dict[str, tuple[str, ...]] = {
    "fc.sweep": (
        "repro.fc.semantics:defines_language_members",
        "repro.fc.semantics:defines_language_members_shard",
        "repro.fc.semantics:satisfying_tuples",
        "repro.fc.semantics:language_signatures",
        "repro.fc.sweep:LanguageSweep.compile",
        "repro.fc.sweep:SweepProgram.evaluate",
        "repro.fc.sweep:SweepProgram.relation",
    ),
    "fc.compiled": (
        "repro.fc.semantics:models",
        "repro.fc.semantics:satisfying_assignments",
    ),
    "ef": (
        "repro.ef.equivalence:equiv_k",
        "repro.ef.equivalence:distinguishing_rank",
        "repro.ef.solver:GameSolver.duplicator_wins",
        "repro.kernel.efcore:KernelSolver.duplicator_wins",
        "repro.kernel.efcore:KernelSolver.winning_response",
        "repro.kernel.efcore:KernelSolver.spoiler_winning_move",
    ),
    "ef.unary": (
        "repro.ef.unary:unary_equiv_k",
        "repro.ef.unary:minimal_equivalent_pair",
        "repro.ef.unary:unary_equivalence_classes",
        "repro.ef.unary:UnaryGameSolver.duplicator_wins",
    ),
    "ef.partial_iso": (
        "repro.ef.partial_iso:find_violation",
        "repro.ef.partial_iso:is_partial_isomorphism",
    ),
    "kernel.interning": (
        "repro.kernel.interning:intern_table",
        "repro.kernel.interning:intern_restricted_table",
    ),
    "kernel.automorphisms": ("repro.kernel.automorphisms:automorphism_group",),
    "foeq": (
        "repro.foeq.semantics:p_models",
        "repro.foeq.games:foeq_equiv_k",
        "repro.foeq.games:folt_equiv_k",
        "repro.foeq.games:foeq_distinguishing_rank",
        "repro.foeq.games:folt_distinguishing_rank",
        "repro.foeq.games:PositionGameSolver.duplicator_wins",
    ),
    "spanners": (
        "repro.spanners.spanner:extract",
        "repro.spanners.spanner:Extract.evaluate",
        "repro.spanners.spanner:SpannerUnion.evaluate",
        "repro.spanners.spanner:Project.evaluate",
        "repro.spanners.spanner:Join.evaluate",
        "repro.spanners.spanner:Difference.evaluate",
        "repro.spanners.spanner:EqualitySelect.evaluate",
        "repro.spanners.spanner:RelationSelect.evaluate",
        "repro.spanners.vset_automata:VSetAutomaton.evaluate",
        "repro.spanners.vset_automata:compile_regex_formula",
    ),
    "store.load": ("repro.store.runtime:load",),
    "store.publish": ("repro.store.runtime:publish",),
    "engine.canonical_json": (
        "repro.engine.spec:canonical_json",
        "repro.engine.cache:ResultCache.key_for",
    ),
    "serve": ("repro.serve.service:QueryService.dispatch",),
}

#: Spans kept per process; beyond it only the aggregates grow.
SPAN_CAP = 200_000


class _ThreadState:
    __slots__ = ("ident", "stack", "agg", "spans", "dropped", "ops")

    def __init__(self, ident: int) -> None:
        #: unique per thread within the process (thread idents get reused)
        self.ident = ident
        #: open spans: [layer, start, time covered by children]
        self.stack: list[list[Any]] = []
        #: layer → [calls, total_s, self_s]
        self.agg: dict[str, list[float]] = {}
        #: (layer, start, end, parent layer or None)
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.dropped = 0
        #: serve dispatches: (op, request fingerprint, start, end)
        self.ops: list[tuple[str, str, float, float]] = []


class Tracer:
    """Per-thread span stacks and per-layer aggregates for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._dumps = 0

    def _state(self) -> _ThreadState:
        if os.getpid() != self._pid:
            # A forked worker inherits the parent's buffers; drop them so
            # each span is reported by exactly one process.
            self._reset()
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def call(
        self, layer: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
        count: bool = True,
    ) -> Any:
        state = self._state()
        stack = state.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            agg = state.agg.get(layer)
            if agg is None:
                agg = state.agg[layer] = [0, 0.0, 0.0]
            agg[0] += count
            agg[1] += duration
            agg[2] += duration - frame[2]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2] += duration
            if len(state.spans) < SPAN_CAP:
                state.spans.append(
                    (layer, frame[1], end, parent[0] if parent else None)
                )
            else:
                state.dropped += 1

    def in_layer(self, layer: str) -> bool:
        stack = self._state().stack
        return bool(stack) and stack[-1][0] == layer

    def record_op(self, op: str, fingerprint: str, start: float, end: float) -> None:
        self._state().ops.append((op, fingerprint, start, end))

    def drain(self) -> dict[str, Any]:
        """This process's spans and aggregates since the last drain."""
        self._state()
        spans: list[tuple] = []
        ops: list[tuple] = []
        dropped = 0
        with self._lock:
            threads = list(self._threads)
        agg = merge_aggregates([{"agg": state.agg} for state in threads])
        for state in threads:
            spans.extend(span + (state.ident,) for span in state.spans)
            ops.extend(op + (state.ident,) for op in state.ops)
            dropped += state.dropped
            state.agg = {}
            state.spans = []
            state.ops = []
            state.dropped = 0
        return {
            "pid": os.getpid(),
            "agg": agg,
            "spans": spans,
            "ops": ops,
            "dropped": dropped,
        }

    def dump(self, directory: str | Path, extra: dict | None = None) -> None:
        """Drain into ``directory/<pid>-<n>.json``."""
        payload = self.drain()
        if extra:
            payload.update(extra)
        self._dumps += 1
        path = Path(directory) / f"{os.getpid()}-{self._dumps}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")


class _TracedIterator:
    """Re-enters ``layer`` on every ``next()`` of a lazily-working result."""

    __slots__ = ("_tracer", "_layer", "_inner")

    def __init__(self, tracer: Tracer, layer: str, inner: Iterator[Any]) -> None:
        self._tracer = tracer
        self._layer = layer
        self._inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        return self._tracer.call(
            self._layer, next, (self._inner,), {}, count=False
        )


def _is_lazy(value: Any) -> bool:
    return inspect.isgenerator(value) or (
        hasattr(value, "__next__") and hasattr(value, "__iter__")
    )


def _wrap(tracer: Tracer, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if tracer.in_layer(layer):
            return fn(*args, **kwargs)
        result = tracer.call(layer, fn, args, kwargs)
        if _is_lazy(result):
            return _TracedIterator(tracer, layer, result)
        return result

    return traced


def _wrap_dispatch(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``QueryService.dispatch``: a ``serve`` span plus a per-op record."""

    @functools.wraps(fn)
    def traced(self: Any, request: dict[str, Any]) -> Any:
        start = time.perf_counter()
        try:
            return tracer.call("serve", fn, (self, request), {})
        finally:
            tracer.record_op(
                request.get("op", "?"),
                request_fingerprint(request),
                start,
                time.perf_counter(),
            )

    return traced


def request_fingerprint(request: dict[str, Any]) -> str:
    """A stable identity for one request object (client and daemon agree)."""
    return json.dumps(request, sort_keys=True, ensure_ascii=False)


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, attribute = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
    """Wrap every entry point in ``layers`` that exists.

    An entry point that a later refactor removed is skipped, so its layer
    reads 0 instead of failing the traced run.  Module-level functions
    are also rebound in every loaded ``repro`` module that imported them
    by name.  Modules imported later pick the wrappers up from the
    patched module attributes.
    """
    replaced: dict[int, tuple[Any, Any]] = {}
    for layer, targets in layers.items():
        for target in targets:
            try:
                owner, name = _resolve(target)
                original = owner.__dict__[name]
            except (ImportError, AttributeError, KeyError):
                continue
            if layer == "serve":
                wrapper = _wrap_dispatch(tracer, original)
            else:
                wrapper = _wrap(tracer, layer, original)
            setattr(owner, name, wrapper)
            if not isinstance(owner, type):
                replaced[id(original)] = (original, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attribute, hit[1])


def load_dumps(directory: str | Path) -> list[dict[str, Any]]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(directory).glob("*.json"))
    ]


def merge_aggregates(dumps: list[dict[str, Any]]) -> dict[str, list[float]]:
    """layer → [calls, total_s, self_s] summed over processes and drains."""
    merged: dict[str, list[float]] = {}
    for dump in dumps:
        for layer, (calls, total, self_s) in dump["agg"].items():
            into = merged.setdefault(layer, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += total
            into[2] += self_s
    return merged


def covered_seconds(dumps: list[dict[str, Any]], window: tuple[float, float]) -> float:
    """Σ over processes of the union of top-level spans (those with no
    enclosing span) inside ``window``."""
    by_pid: dict[int, list[tuple[float, float]]] = {}
    low, high = window
    for dump in dumps:
        intervals = by_pid.setdefault(dump["pid"], [])
        for _layer, start, end, parent, _thread in dump["spans"]:
            if parent is None:
                start, end = max(start, low), min(end, high)
                if end > start:
                    intervals.append((start, end))
    total = 0.0
    for intervals in by_pid.values():
        intervals.sort()
        cursor = float("-inf")
        for start, end in intervals:
            if end <= cursor:
                continue
            total += end - max(start, cursor)
            cursor = end
    return total
