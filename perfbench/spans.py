"""Span recorders patched onto the server's layer boundaries.

The server launcher calls :func:`install` to replace each traced callable
with a recorder.  Methods are patched on their class and functions in the
module namespace their caller looks them up in, so every caller goes
through the recorder.  A span is ``(id, parent, name, start_ns, end_ns,
tid, key, count)``: the parent is the span open in the same thread or
asyncio task when the call began, ``tid`` is the transaction id the call's
arguments or result carry, ``key`` the passenger a read names, and
``count`` the number of items the call handled (frames decoded,
transactions grounded).  Spans stay in memory until :meth:`Recorder.dump`.

:func:`summarize` turns a span dump into per-layer self times: a span's
self time is its duration minus its children's.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from typing import Any, Callable

#: The span open in the current thread or task (0: none).
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0
)

# Span tuple positions.
ID, PARENT, NAME, START, END, TID, KEY, COUNT = range(8)


def _tid_of_result(args, kwargs, result):
    return getattr(result, "transaction_id", None), None, None


def _key_of_read(args, kwargs, result):
    terms = args[2] if len(args) > 2 else kwargs.get("terms")
    return None, (terms[0] if terms else None), None


def _tid_arg(args, kwargs, result):
    return args[1], None, None


def _tid_list_arg(args, kwargs, result):
    ids = [getattr(t, "transaction_id", t) for t in args[1]]
    return ids, None, len(ids)


def _tid_of_transaction(args, kwargs, result):
    return args[1].transaction_id, None, None


def _count_result(args, kwargs, result):
    return None, None, len(result) if result is not None else 0


def _count_targets(args, kwargs, result):
    return None, None, len(args[2])


def _nothing(args, kwargs, result):
    return None, None, None


#: (layer, module, owner, attribute, identity extractor).  ``owner`` is a
#: class name, or ``None`` for a function looked up in ``module``.
TARGETS: tuple[tuple[str, str, str | None, str, Callable], ...] = (
    ("net", "repro.server.protocol", "FrameDecoder", "feed", _count_result),
    ("net", "repro.server.net", None, "encode_frame", _nothing),
    ("service", "repro.server.session", "Session", "commit", _tid_of_result),
    ("service", "repro.server.session", "Session", "read", _key_of_read),
    ("service", "repro.server.session", "Session", "check_in", _tid_arg),
    ("parser", "repro.server.service", None, "parse_transaction", _tid_of_result),
    ("quantum_database", "repro.core.quantum_database", "QuantumDatabase", "commit_batch", _tid_list_arg),
    ("quantum_database", "repro.core.quantum_database", "QuantumDatabase", "read", _key_of_read),
    ("quantum_database", "repro.core.quantum_database", "QuantumDatabase", "ground", _tid_list_arg),
    ("partition", "repro.core.partition", "PartitionManager", "merged_for", _nothing),
    ("quantum_state", "repro.core.quantum_state", "QuantumState", "admit", _tid_of_transaction),
    ("solution_cache", "repro.core.solution_cache", "SolutionCache", "ensure", _nothing),
    ("solver", "repro.solver.grounding", "GroundingSearch", "find_one", _nothing),
    ("grounding", "repro.core.quantum_state", "QuantumState", "plan_grounding", _count_targets),
    ("grounding", "repro.core.quantum_state", "QuantumState", "apply_grounding", _count_result),
    ("relational", "repro.relational.database", "Database", "execute", _nothing),
    ("storage", "repro.relational.database", "Database", "checkpoint", _nothing),
    ("relational", "repro.core.recovery", "PendingTransactionStore", "persist_many", _nothing),
    ("storage", "repro.storage.engine", "SegmentedWriteAheadLog", "append", _nothing),
    ("storage", "repro.storage.engine", "SegmentedWriteAheadLog", "compact_once", _nothing),
)

LAYER_OF = {f"{owner or module.rsplit('.', 1)[1]}.{attr}": layer for layer, module, owner, attr, _ in TARGETS}


class Recorder:
    """Collects spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``(time_ns, [pending per live partition])`` snapshots.
        self.samples: list[tuple] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable, identify: Callable) -> Callable:
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def recorder(*args, **kwargs):
                span, parent = next(ids), _CURRENT.get()
                token = _CURRENT.set(span)
                start, result = clock(), None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    _CURRENT.reset(token)
                    spans.append((span, parent, name, start, end, *identify(args, kwargs, result)))

            return recorder

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            span, parent = next(ids), _CURRENT.get()
            token = _CURRENT.set(span)
            start, result = clock(), None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append((span, parent, name, start, end, *identify(args, kwargs, result)))

        return recorder

    def dump(self, path: str) -> None:
        """Write the spans and samples recorded so far to ``path`` (atomically)."""
        dump = {"spans": list(self.spans), "samples": list(self.samples)}
        temporary = path + ".tmp"
        with open(temporary, "w") as handle:
            json.dump(dump, handle)
        os.replace(temporary, path)


def install(recorder: Recorder) -> None:
    """Patch every target in :data:`TARGETS` with a recorder."""
    import importlib

    for _layer, module_name, owner_name, attribute, identify in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = inspect.getattr_static(owner, attribute)
        name = f"{owner_name or module_name.rsplit('.', 1)[1]}.{attribute}"
        setattr(owner, attribute, recorder.wrap(name, original, identify))


# ---------------------------------------------------------------------------
# Analysis (benchmark side)
# ---------------------------------------------------------------------------


def in_window(span, window) -> bool:
    return window[0] <= span[START] and span[END] <= window[1]


def summarize(spans: list, window: tuple[int, int]) -> dict[str, Any]:
    """Per-layer self times and the span-derived ratios of one window.

    ``window`` is a ``(start_ns, end_ns)`` pair on the server's
    ``perf_counter_ns`` clock; only spans wholly inside it count.
    """
    spans = [tuple(s) for s in spans if in_window(s, window)]
    by_id = {s[ID]: s for s in spans}
    child_time: dict[int, int] = {}
    for s in spans:
        if s[PARENT] in by_id:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0) + s[END] - s[START]

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def self_ns(s) -> int:
        return s[END] - s[START] - child_time.get(s[ID], 0)

    def total_ms(name: str, *, own: bool = False) -> float:
        return sum((self_ns(s) if own else s[END] - s[START]) for s in by_name.get(name, ())) / 1e6

    # Queue wait: a session span minus the database call that served it.
    served: dict[tuple, list] = {}
    for name, kind in (
        ("QuantumDatabase.commit_batch", "commit"),
        ("QuantumDatabase.ground", "checkin"),
    ):
        for s in by_name.get(name, ()):
            for tid in s[TID] or ():
                served.setdefault((kind, tid), []).append(s)
    for s in by_name.get("QuantumDatabase.read", ()):
        served.setdefault(("read", s[KEY]), []).append(s)

    waits: list[float] = []
    service_self = 0
    for name, kind, ident in (
        ("Session.commit", "commit", TID),
        ("Session.read", "read", KEY),
        ("Session.check_in", "checkin", TID),
    ):
        for s in by_name.get(name, ()):
            inner = [
                c for c in served.get((kind, s[ident]), ()) if s[START] <= c[START] and c[END] <= s[END]
            ]
            wait = self_ns(s) - (inner[-1][END] - inner[-1][START] if inner else 0)
            waits.append(wait / 1e6)
            service_self += wait

    layers: dict[str, float] = {}
    for name, group in by_name.items():
        layer = LAYER_OF.get(name, name)
        own = sum(self_ns(s) for s in group)
        if layer == "service":
            continue
        layers[layer] = layers.get(layer, 0.0) + own / 1e6
    layers["service"] = service_self / 1e6

    reads_ms = [s for s in by_name.get("QuantumDatabase.read", ())]
    read_ids = {s[ID] for s in reads_ms}
    query_ms = sum(s[END] - s[START] for s in by_name.get("Database.execute", ()) if s[PARENT] in read_ids) / 1e6
    grounded_in_reads = sum(
        s[COUNT] or 0
        for s in by_name.get("QuantumState.apply_grounding", ())
        if _ancestor_in(s, read_ids, by_id)
    )
    return {
        "count": {name: len(group) for name, group in by_name.items()},
        "total_ms": {name: total_ms(name) for name in by_name},
        "self_ms": {name: total_ms(name, own=True) for name in by_name},
        "layer_self_ms": layers,
        "queue_wait_ms": waits,
        "frames_decoded": sum(s[COUNT] or 0 for s in by_name.get("FrameDecoder.feed", ())),
        "planned_txns": sum(s[COUNT] or 0 for s in by_name.get("QuantumState.plan_grounding", ())),
        "applied_txns": sum(s[COUNT] or 0 for s in by_name.get("QuantumState.apply_grounding", ())),
        "reads": len(reads_ms),
        "read_query_ms": query_ms,
        "grounded_in_reads": grounded_in_reads,
    }


def _ancestor_in(span, ids: set, by_id: dict) -> bool:
    parent = span[PARENT]
    while parent:
        if parent in ids:
            return True
        node = by_id.get(parent)
        if node is None:
            return False
        parent = node[PARENT]
    return False

