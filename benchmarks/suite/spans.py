"""Span tracing from outside the program.

The traced pass wraps a declared table of callables (:data:`TABLE`:
module, qualified name -> span name) and records one in-memory span
``(name, start_ns, end_ns, parent, request)`` per call.  Nothing under
``src/`` is edited: the wrappers are put in place with ``setattr`` by a
traced run only (before set-up, because listeners are registered as
bound methods then), pass calls straight through until the traced
phase begins, and are removed when the run ends.  An untraced run never
installs them and runs the program exactly as shipped.

A span's *self time* is its duration minus the part its child spans
cover; children are the wrapped calls made on the same thread while it
was open.  The layer of a span is the first component of its name, and
the layers are the ``src/repro`` packages.

Functions imported by name (``from x import f``) are looked up in the
importing module, so the table names the module that *calls* them.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, qualified name, span name).  Several callables may share a
#: span name; their self times and call counts add up.
TABLE: List[Tuple[str, str, str]] = [
    # -- service ---------------------------------------------------------
    ("repro.service.server", "decode_frame", "service.decode"),
    ("repro.service.server", "parse_request", "service.decode"),
    ("repro.service.server", "encode_frame", "service.encode"),
    ("repro.service.server", "QueryService._execute", "service.dispatch"),
    ("repro.service.session", "ServerSession.execute", "service.session"),
    ("repro.service.session", "ServerSession.derive", "service.session"),
    ("repro.service.session", "ServerSession.processor", "service.pin"),
    ("repro.service.session", "ServerSession.refresh", "service.pin"),
    ("repro.service.streaming", "delta_body", "service.push"),
    ("repro.service.streaming", "encode_frame", "service.push"),
    ("repro.service.client", "ServiceClient.request", "client.request"),
    # -- oql -------------------------------------------------------------
    ("repro.oql.query", "parse_query", "oql.parse"),
    ("repro.oql.subscribe", "parse_query", "oql.parse"),
    ("repro.oql.planner", "Planner.plan", "oql.plan"),
    ("repro.oql.evaluator", "PatternEvaluator.evaluate", "oql.evaluate"),
    ("repro.subdb.attrindex", "AttrIndex.probe", "oql.probe"),
    ("repro.oql.query", "QueryResult.render", "oql.materialize"),
    ("repro.subdb.subdatabase", "decode_rows", "oql.materialize"),
    ("repro.oql.subscribe", "SubscriptionManager._on_event",
     "oql.subscribe"),
    # -- rules -----------------------------------------------------------
    ("repro.rules.engine", "RuleEngine.query", "rules.query"),
    ("repro.rules.engine", "RuleEngine.derive", "rules.query"),
    ("repro.rules.engine", "derive_target", "rules.derive"),
    ("repro.rules.incremental", "IncrementalRule.on_event",
     "rules.incremental"),
    ("repro.rules.control", "ResultOrientedController.on_update",
     "rules.control"),
    ("repro.rules.control", "IncrementalResultController.on_update",
     "rules.control"),
    # -- subdb -----------------------------------------------------------
    ("repro.subdb.universe", "Universe.snapshot", "subdb.snapshot.pin"),
    ("repro.model.interning", "OIDInterner.build", "subdb.compact.build"),
    ("repro.subdb.adjindex", "CompactStore._build", "subdb.compact.build"),
    ("repro.subdb.adjindex", "CompactStore._on_event",
     "subdb.compact.maint"),
    ("repro.subdb.attrindex", "AttrIndexStore.get", "subdb.attrindex.get"),
    ("repro.subdb.attrindex", "AttrIndex._build", "subdb.attrindex.build"),
    ("repro.subdb.attrindex", "AttrIndexStore.apply_insert",
     "subdb.attrindex.maint"),
    ("repro.subdb.attrindex", "AttrIndexStore.apply_delete",
     "subdb.attrindex.maint"),
    ("repro.subdb.attrindex", "AttrIndexStore.apply_set_attribute",
     "subdb.attrindex.maint"),
    ("repro.subdb.snapshot", "DatabaseSnapshot.before_write",
     "subdb.preimage"),
    # -- model -----------------------------------------------------------
    ("repro.model.database", "Database.insert", "model.insert"),
    ("repro.model.database", "Database.set_attribute",
     "model.set_attribute"),
    ("repro.model.database", "Database.delete", "model.delete"),
    ("repro.model.database", "Database.associate", "model.associate"),
    ("repro.model.database", "Database.dissociate", "model.dissociate"),
    ("repro.model.database", "Database._notify", "model.listeners"),
    ("repro.model.database", "RWLock.acquire_write", "model.lock"),
    ("repro.model.interning", "InternTable.without", "model.intern.without"),
    # -- storage ---------------------------------------------------------
    ("repro.storage.backends.base", "StorageBackend._on_update",
     "storage.journal"),
    ("repro.storage.backends.wal", "WriteAheadLog.append",
     "storage.wal.append"),
    ("repro.storage.backends.wal", "WriteAheadLog.sync",
     "storage.wal.sync"),
    ("repro.storage.backends.base", "StorageBackend.checkpoint",
     "storage.checkpoint"),
    ("repro.storage.backends.json_backend", "JsonBackend._load_checkpoint",
     "storage.recover.load"),
    ("repro.storage.backends.base", "session_from_dict",
     "storage.recover.load"),
    ("repro.storage.backends.base", "apply_record",
     "storage.recover.replay"),
]

#: Span name -> observer called as ``observer(tracer, args, result)``
#: after the wrapped call returns; its time is charged to no layer.
Observer = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Installs the wrappers, holds the spans, sums the self times."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: Per-thread span lists, registered as threads first record.
        self._threads: List[List[tuple]] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.observers: Dict[str, Observer] = {}
        #: Free-form counters the observers fill.
        self.counters: Dict[str, float] = defaultdict(float)
        self.active = False

    # -- recording ------------------------------------------------------

    def _state(self):
        tls = self._tls
        state = getattr(tls, "state", None)
        if state is None:
            spans: List[tuple] = []
            # [stack, spans, next request number, thread ordinal,
            #  inside an observer]
            with self._lock:
                self._threads.append(spans)
                ordinal = len(self._threads)
            state = tls.state = [[], spans, 0, ordinal, False]
        return state

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        sid = self.span_id(name)
        observer = self.observers.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = self._state()
            if state[4]:    # inside an observer: record nothing
                return fn(*args, **kwargs)
            stack, spans = state[0], state[1]
            if stack:
                parent = stack[-1]
                request = parent[3]
            else:
                parent = None
                state[2] += 1
                request = (state[3] << 32) | state[2]
            # frame: [span index, child ns, start ns, request]
            index = len(spans)
            spans.append(None)
            frame = [index, 0, 0, request]
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (sid, start, end,
                                parent[0] if parent is not None else -1,
                                request, frame[1])
                if parent is not None:
                    parent[1] += end - start
            if observer is not None:
                state[4] = True
                try:
                    observer(self, args, result)
                finally:
                    state[4] = False
                if parent is not None:
                    # The observer's own time belongs to no layer.
                    parent[1] += clock() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- install / remove -----------------------------------------------

    def install(self) -> None:
        """Put the wrappers of :data:`TABLE` in place.  They pass calls
        straight through until :attr:`active` is set."""
        for module_name, qualname, span_name in TABLE:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, span_name))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- aggregation ----------------------------------------------------

    def all_spans(self) -> List[tuple]:
        with self._lock:
            threads = list(self._threads)
        return [span for spans in threads for span in spans
                if span is not None]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_ns`` and ``total_ns``."""
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_ns": 0, "total_ns": 0}
            for name in self.names}
        for sid, start, end, _parent, _request, child_ns in \
                self.all_spans():
            entry = out[self.names[sid]]
            entry["calls"] += 1
            entry["self_ns"] += (end - start) - child_ns
            entry["total_ns"] += end - start
        return out

    def write(self, path) -> int:
        """One JSON line of span names, then one line per span:
        ``[name index, start_ns, end_ns, parent, request]`` where
        ``parent`` is the index of the enclosing span *within the same
        thread's block* (-1 for a root) and a ``null`` line separates
        threads."""
        count = 0
        with self._lock:
            threads = list(self._threads)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "columns": ["name", "start_ns",
                                                 "end_ns", "parent",
                                                 "request"]}) + "\n")
            for spans in threads:
                for span in spans:
                    if span is None:
                        continue
                    handle.write("[%d,%d,%d,%d,%d]\n" % span[:5])
                    count += 1
                handle.write("null\n")
        return count


def layer_self_ms(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self time per layer (the first component of each span name)."""
    layers: Dict[str, float] = defaultdict(float)
    for name, entry in totals.items():
        layers[name.split(".", 1)[0]] += entry["self_ns"] / 1e6
    return dict(layers)

