"""The asyncio query service.

:class:`QueryService` serves one :class:`~repro.rules.engine.RuleEngine`
over a socket.  The concurrency model:

* The **event loop** (one thread) accepts connections, frames requests,
  and applies *admission control*: at most ``max_concurrency`` requests
  execute at once, and a request arriving beyond that is answered with
  a structured ``BUSY`` error immediately — load is shed, never queued
  unboundedly, so latency stays bounded under overload.
* An admitted **read** (``query``, ``derive``, ``parse``, ``ping``,
  ``stats``) first runs on the event loop itself, under a *slice* of
  ``sys.getswitchinterval()`` — the interpreter's own preemption
  interval, as long as the loop waits anyway whenever a compute
  thread holds the interpreter lock.  A read that outgrows the slice
  (its clock passes it, or its result has more than
  ``QueryBudget.CHECK_EVERY`` rows to render) is *spilled*: handed,
  still admitted, to a **thread-pool executor**, where it runs again
  with the clock it was admitted under.  Every other op runs on the
  executor outright.  Each connection's requests execute in order;
  different connections' executor work runs concurrently.
* **Reads** (parse/query/derive/stats) evaluate against the
  connection's pinned :class:`~repro.service.session.ServerSession`
  snapshot.  **Writes** (rule add/remove, data updates, restore) are
  serialized through a service-level mutex *and* the database's
  write-preferring RWLock; the writing session's own pin is dropped so
  it observes its write, while other sessions keep their version until
  they ``refresh``.
* Every request carries a :class:`~repro.oql.budget.QueryBudget`
  clamped to the server's ceilings (``QueryBudget.from_limits``) —
  the second half of admission control: every admitted request is
  bounded, whatever the client asked for.
* With tracing on, each request runs under a ``service-request`` root
  span whose trace id is returned in the response — any production
  query is explainable after the fact
  (``obs.TRACER.recorder.get(trace_id)``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.errors import (
    OQLSyntaxError,
    ReproError,
    RuleSyntaxError,
    UnknownClassError,
    UnknownObjectError,
    UnknownSubdatabaseError,
)
from repro.model.oid import OID
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    error_body,
    ok_body,
    parse_request,
    require_str,
)
from repro.service.session import ServerSession
from repro.storage.serialize import subdatabase_to_dict

#: Error code -> HTTP status for the HTTP face of the protocol.
_HTTP_STATUS = {
    "BAD_FRAME": 400,
    "BAD_REQUEST": 400,
    "OVERSIZED": 413,
    "BUSY": 503,
    "BUDGET_EXCEEDED": 429,
    "PARSE_ERROR": 422,
    "NOT_FOUND": 404,
    "SEMANTIC": 422,
    "SHUTTING_DOWN": 503,
    "INTERNAL": 500,
}


class _OpError(Exception):
    """Internal: an operation failed with a structured error code."""

    def __init__(self, code: str, message: str, **detail: Any):
        super().__init__(message)
        self.code = code
        self.detail = detail


#: The ops an admitted request first runs on the event loop; every
#: other op goes straight to the executor.
_INLINE_OPS = frozenset({"query", "derive", "parse", "ping", "stats"})


class _Spill(Exception):
    """Internal: a read's attempt on the event loop outgrew its slice;
    the request is run again on the executor."""


class _Attempt:
    """One run of an admitted request.  ``started`` is the
    ``time.perf_counter()`` reading at admission: the request's clock,
    which a spilled re-run keeps.  ``slice_ms`` is set only for the
    attempt on the event loop."""

    __slots__ = ("started", "slice_ms")

    def __init__(self, started: float, slice_ms: Optional[float] = None):
        self.started = started
        self.slice_ms = slice_ms


class _SlicedBudget(QueryBudget):
    """A read's budget on the event loop: the client's limits, with
    the deadline capped at the slice.  Outgrowing the slice — by time,
    or by a result too large to render within it — raises
    :class:`_Spill` instead of a verdict; the client's own limits trip
    as usual."""

    def __init__(self, limits: QueryBudget, slice_ms: float):
        super().__init__(limits.deadline_ms, limits.max_rows,
                         limits.max_loop_levels)
        self.slice_ms = slice_ms

    def check_time(self) -> None:
        if (self.deadline_ms is None or self.slice_ms < self.deadline_ms) \
                and self.elapsed_ms > self.slice_ms:
            raise _Spill()
        super().check_time()

    def check_output(self, rows: int) -> None:
        if rows > self.CHECK_EVERY:
            raise _Spill()


class QueryService:
    """Serve a rule engine over JSON-lines (and minimal HTTP)."""

    def __init__(self, engine=None, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.backend = None
        self._owns_backend = False
        if self.config.backend_path is not None:
            from repro.storage import open_backend
            backend = open_backend(self.config.backend_path)
            self._owns_backend = True
            if backend.has_state():
                if engine is not None:
                    backend.close()
                    raise ValueError(
                        f"storage at {self.config.backend_path} already "
                        f"holds a session; pass engine=None to recover "
                        f"it, or point the service elsewhere")
                engine = backend.recover()
            self.backend = backend
        if engine is None:
            from repro.model.database import Database
            from repro.model.schema import Schema
            from repro.rules.engine import RuleEngine
            engine = RuleEngine(Database(Schema("service")))
        self.engine = engine
        self._apply_engine_config(engine)
        if self.backend is not None:
            self.backend.attach(engine)
        if self.config.trace and obs.TRACER is None:
            obs.install(max_traces=self.config.trace_max_traces)

        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-service")
        #: Serializes every engine write the service performs (the
        #: database RWLock covers data mutations; this also covers
        #: rule-base mutation and engine swap, which the RWLock does
        #: not).
        self._write_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._sessions: Dict[int, ServerSession] = {}
        # Counters live on the event-loop thread only.
        self._inflight = 0
        self.counters: Dict[str, int] = {
            "connections_total": 0,
            "requests_total": 0,
            "admitted_total": 0,
            "inline_total": 0,
            "spilled_total": 0,
            "shed_total": 0,
            "errors_total": 0,
            "frames_bad": 0,
        }
        self._op_counts: Dict[str, int] = {}
        self._started_monotonic = time.monotonic()
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._writers: set = set()

        self._ops = {
            "ping": self._op_ping,
            "parse": self._op_parse,
            "query": self._op_query,
            "derive": self._op_derive,
            "rule_add": self._op_rule_add,
            "rule_remove": self._op_rule_remove,
            "update": self._op_update,
            "refresh": self._op_refresh,
            "session_save": self._op_session_save,
            "session_restore": self._op_session_restore,
            "stats": self._op_stats,
            "subscribe": self._op_subscribe,
            "unsubscribe": self._op_unsubscribe,
        }
        from repro.service.streaming import StreamingSubscriptions
        self.streaming = StreamingSubscriptions(self)

    def _apply_engine_config(self, engine) -> None:
        """Push the result-cache config into the engine's evaluators
        (the pair the shell's \\cache command retargets)."""
        cache_bytes = self.config.cache_bytes
        if cache_bytes <= 0:
            return
        for evaluator in (engine.processor.evaluator, engine.evaluator):
            evaluator.result_cache.max_bytes = cache_bytes
            evaluator.result_cache.enabled = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def serve(self) -> None:
        """Run the server in the current event loop until :meth:`stop`
        (or task cancellation)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host,
                self.config.port,
                limit=self.config.max_frame_bytes + 2)
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            for writer in list(self._writers):
                try:
                    writer.transport.abort()
                except Exception:
                    pass

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Serve on a background thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-service-loop",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout)
            raise RuntimeError(
                f"service failed to start: {self._startup_error}")
        assert self.address is not None
        return self.address

    def _thread_main(self) -> None:
        try:
            asyncio.run(self.serve())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            if self._startup_error is None and not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving, drain executors, release owned resources.
        Idempotent."""
        loop, self._loop = self._loop, None
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self._executor.shutdown(wait=True)
        self.streaming.close()
        for session in list(self._sessions.values()):
            session.close()
        self._sessions.clear()
        if self.backend is not None and self._owns_backend:
            self.backend.close()
            self.backend = None

    def __enter__(self) -> "QueryService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling (event-loop side)
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.counters["connections_total"] += 1
        session = ServerSession(next(self._session_ids),
                                lambda: self.engine)
        self._sessions[session.session_id] = session
        self._writers.add(writer)
        self.streaming.register_connection(session.session_id, writer)
        try:
            first = await self._read_frame(reader, writer)
            if first is None:
                return
            if first[:5] in (b"GET /", b"POST ", b"HEAD "):
                await self._handle_http(first, reader, writer, session)
                return
            await self._handle_jsonl_frame(first, writer, session)
            while True:
                line = await self._read_frame(reader, writer)
                if line is None:
                    return
                await self._handle_jsonl_frame(line, writer, session)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            self._sessions.pop(session.session_id, None)
            self.streaming.drop_connection(session.session_id)
            session.close()
            try:
                writer.close()
            except Exception:
                pass

    async def _read_frame(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter
                          ) -> Optional[bytes]:
        """One newline-terminated frame, or ``None`` at EOF/overflow.
        An over-long line is answered with OVERSIZED and the connection
        is closed (there is no resynchronizing past it)."""
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            # EOF: a trailing unterminated fragment still counts as a
            # frame (curl-style clients may omit the final newline).
            return exc.partial or None
        except asyncio.LimitOverrunError:
            self.counters["frames_bad"] += 1
            await self._send(writer, encode_frame(error_body(
                None, "OVERSIZED",
                f"frame exceeds max_frame_bytes="
                f"{self.config.max_frame_bytes}")))
            return None
        if len(line) > self.config.max_frame_bytes:
            self.counters["frames_bad"] += 1
            await self._send(writer, encode_frame(error_body(
                None, "OVERSIZED",
                f"frame of {len(line)} bytes exceeds max_frame_bytes="
                f"{self.config.max_frame_bytes}")))
            return None
        return line

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: bytes) -> None:
        writer.write(payload)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_jsonl_frame(self, line: bytes,
                                  writer: asyncio.StreamWriter,
                                  session: ServerSession) -> None:
        if not line.strip():
            return
        self.counters["requests_total"] += 1
        try:
            request_id, op, params = parse_request(decode_frame(line))
        except ProtocolError as exc:
            self.counters["frames_bad"] += 1
            self.counters["errors_total"] += 1
            await self._send(writer, encode_frame(
                error_body(None, exc.code, str(exc))))
            return
        body = await self._admit_and_execute(session, request_id, op,
                                             params)
        await self._send(writer, encode_frame(body))

    async def _admit_and_execute(self, session: ServerSession,
                                 request_id: Any, op: str,
                                 params: Dict[str, Any]
                                 ) -> Dict[str, Any]:
        """Admission control, then dispatch: a read runs on the loop
        first and spills to the executor when it outgrows its slice;
        any other op goes to the executor."""
        self._op_counts[op] = self._op_counts.get(op, 0) + 1
        if self._stop_event is not None and self._stop_event.is_set():
            return error_body(request_id, "SHUTTING_DOWN",
                              "server is draining")
        if self._inflight >= self.config.max_concurrency:
            self.counters["shed_total"] += 1
            return error_body(
                request_id, "BUSY",
                f"{self._inflight} requests in flight (limit "
                f"{self.config.max_concurrency})",
                retry_after_ms=self.config.busy_retry_after_ms)
        self._inflight += 1
        self.counters["admitted_total"] += 1
        session.requests += 1
        started = time.perf_counter()
        try:
            body = None
            if op in _INLINE_OPS:
                try:
                    body = self._execute(
                        session, request_id, op, params,
                        _Attempt(started, sys.getswitchinterval() * 1e3))
                    self.counters["inline_total"] += 1
                except _Spill:
                    self.counters["spilled_total"] += 1
            if body is None:
                body = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._execute, session, request_id,
                    op, params, _Attempt(started))
        finally:
            self._inflight -= 1
        if not body.get("ok"):
            self.counters["errors_total"] += 1
        return body

    # ------------------------------------------------------------------
    # Request execution (event loop or executor thread)
    # ------------------------------------------------------------------

    def _execute(self, session: ServerSession, request_id: Any, op: str,
                 params: Dict[str, Any],
                 attempt: _Attempt) -> Dict[str, Any]:
        tracer = obs.TRACER
        span = tracer.start("service-request", op=op,
                            session=session.session_id,
                            request=next(self._request_ids)) \
            if tracer is not None else None
        trace_id = span.trace_id if span is not None else None
        try:
            handler = self._ops.get(op)
            if handler is None:
                raise ProtocolError(
                    "BAD_REQUEST",
                    f"unknown op {op!r} (known: "
                    f"{', '.join(sorted(self._ops))})")
            result = handler(session, params, attempt)
            elapsed = (time.perf_counter() - attempt.started) * 1000.0
            return ok_body(request_id, result, ms=elapsed,
                           trace_id=trace_id)
        except _Spill:
            raise
        except BaseException as exc:
            return self._error_response(request_id, exc, trace_id)
        finally:
            if span is not None:
                tracer.finish(span)

    def _error_response(self, request_id: Any, exc: BaseException,
                        trace_id: Optional[int]) -> Dict[str, Any]:
        detail: Dict[str, Any] = {}
        if trace_id is not None:
            detail["trace_id"] = trace_id
        if isinstance(exc, _OpError):
            detail.update(exc.detail)
            return error_body(request_id, exc.code, str(exc), **detail)
        if isinstance(exc, ProtocolError):
            return error_body(request_id, exc.code, str(exc), **detail)
        if isinstance(exc, BudgetExceeded):
            return error_body(
                request_id, "BUDGET_EXCEEDED", str(exc),
                verdict=exc.verdict, elapsed_ms=round(exc.elapsed_ms, 3),
                rows=exc.rows, **detail)
        if isinstance(exc, (OQLSyntaxError, RuleSyntaxError)):
            return error_body(request_id, "PARSE_ERROR", str(exc),
                              **detail)
        if isinstance(exc, (UnknownSubdatabaseError, UnknownClassError,
                            UnknownObjectError)):
            return error_body(request_id, "NOT_FOUND", str(exc),
                              **detail)
        if isinstance(exc, ReproError):
            return error_body(request_id, "SEMANTIC", str(exc),
                              error_type=type(exc).__name__, **detail)
        if isinstance(exc, (ValueError, TypeError, KeyError)):
            return error_body(request_id, "BAD_REQUEST", str(exc),
                              **detail)
        return error_body(request_id, "INTERNAL",
                          f"{type(exc).__name__}: {exc}", **detail)

    def _budget(self, params: Dict[str, Any],
                attempt: Optional[_Attempt] = None) -> QueryBudget:
        """The request's admission budget: client limits clamped to the
        server ceilings (requests without a budget get the ceilings).
        For an ``attempt`` the clock runs from admission, and on the
        event loop the budget is sliced."""
        limits = params.get("budget")
        if limits is not None and not isinstance(limits, dict):
            raise ProtocolError("BAD_REQUEST",
                                "'budget' must be an object of limits")
        try:
            budget = QueryBudget.from_limits(limits,
                                             self.config.budget_caps())
        except ValueError as exc:
            raise ProtocolError("BAD_REQUEST", str(exc)) from None
        if attempt is None:
            return budget
        if attempt.slice_ms is not None:
            budget = _SlicedBudget(budget, attempt.slice_ms)
        return budget.start(at=attempt.started)

    # -- read ops -------------------------------------------------------

    def _op_ping(self, session: ServerSession,
                 params: Dict[str, Any],
                 attempt: _Attempt) -> Dict[str, Any]:
        return {"pong": True, "session": session.session_id}

    def _op_parse(self, session: ServerSession,
                  params: Dict[str, Any],
                  attempt: _Attempt) -> Dict[str, Any]:
        """Syntax/semantic check without evaluation — the cheapest way
        for a client to validate input before spending budget."""
        text = require_str(params, "text")
        if text.lstrip().lower().startswith("if"):
            from repro.rules.rule import parse_rule
            rule = parse_rule(text, params.get("label"))
            footprint = rule.footprint(self.engine.db.schema)
            return {"kind": "rule", "target": rule.target,
                    "label": rule.label,
                    "sources": sorted(rule.source_subdatabases()),
                    "footprint": footprint.describe(),
                    "canonical": str(rule)}
        from repro.oql.parser import parse_query
        query = parse_query(text)
        return {"kind": "query", "context": str(query.context),
                "where": [str(w) for w in query.where],
                "select": ([str(s) for s in query.select]
                           if query.select is not None else None),
                "operation": query.operation,
                "canonical": str(query)}

    def _op_query(self, session: ServerSession,
                  params: Dict[str, Any],
                  attempt: _Attempt) -> Dict[str, Any]:
        text = require_str(params, "text")
        include = params.get("include") or []
        if not isinstance(include, list):
            raise ProtocolError("BAD_REQUEST",
                                "'include' must be a list")
        budget = self._budget(params, attempt)
        result = session.execute(text, name=params.get("name"),
                                 budget=budget)
        subdb = result.subdatabase
        out: Dict[str, Any] = {
            "name": subdb.name,
            "patterns": len(subdb),
            "classes": list(subdb.slot_names),
            "rendered": result.render(),
            "pinned_version": session.pinned_version(),
        }
        if result.op_result is not None:
            try:
                json.dumps(result.op_result)
                out["op_result"] = result.op_result
            except (TypeError, ValueError):
                out["op_result"] = repr(result.op_result)
        if "subdb" in include:
            out["subdatabase"] = subdatabase_to_dict(subdb)
        if "metrics" in include and result.metrics is not None:
            out["metrics"] = result.metrics.snapshot()
        return out

    def _op_derive(self, session: ServerSession,
                   params: Dict[str, Any],
                   attempt: _Attempt) -> Dict[str, Any]:
        target = require_str(params, "target")
        budget = self._budget(params, attempt)
        subdb = session.derive(target, budget=budget)
        out = {"target": target, "patterns": len(subdb),
               "classes": list(subdb.slot_names),
               "pinned_version": session.pinned_version()}
        if "subdb" in (params.get("include") or []):
            budget.check_output(len(subdb))
            out["subdatabase"] = subdatabase_to_dict(subdb)
        return out

    def _op_refresh(self, session: ServerSession,
                    params: Dict[str, Any],
                    attempt: _Attempt) -> Dict[str, Any]:
        return {"pinned_version": session.refresh()}

    def _op_stats(self, session: ServerSession,
                  params: Dict[str, Any],
                  attempt: _Attempt) -> Dict[str, Any]:
        engine = self.engine
        cache = engine.processor.evaluator.result_cache
        out: Dict[str, Any] = {
            "server": {
                "uptime_s": round(time.monotonic()
                                  - self._started_monotonic, 3),
                "max_concurrency": self.config.max_concurrency,
                "inflight": self._inflight,
                "sessions": len(self._sessions),
                "ops": dict(sorted(self._op_counts.items())),
                **self.counters,
            },
            "engine": engine.stats.snapshot(),
            "db": engine.db.stats(),
            "rules": [rule.label or rule.target
                      for rule in engine.rules],
            "cache": cache.stats(),
            "compact": engine.universe.compact.stats(),
            "subscriptions": self.streaming.stats(),
            "tracing": obs.TRACER is not None,
        }
        if self.backend is not None:
            out["backend"] = {
                key: value for key, value in
                self.backend.status().items() if key != "root"}
        return out

    # -- write ops ------------------------------------------------------

    def _op_rule_add(self, session: ServerSession,
                     params: Dict[str, Any],
                     attempt: _Attempt) -> Dict[str, Any]:
        text = require_str(params, "text")
        mode = self._parse_mode(params.get("mode"))
        with self._write_lock:
            rule = self.engine.add_rule(text, label=params.get("label"),
                                        mode=mode)
        session.invalidate()
        return {"target": rule.target, "label": rule.label,
                "rules": len(self.engine.rules)}

    def _op_rule_remove(self, session: ServerSession,
                        params: Dict[str, Any],
                        attempt: _Attempt) -> Dict[str, Any]:
        label = require_str(params, "label")
        with self._write_lock:
            rule = self.engine.remove_rule(label)
        session.invalidate()
        return {"removed": rule.label or rule.target,
                "rules": len(self.engine.rules)}

    def _parse_mode(self, value: Optional[str]):
        if value is None:
            return None
        from repro.rules.control import (EvaluationMode,
                                         RuleChainingMode,
                                         RuleOrientedController)
        enum_cls = RuleChainingMode if isinstance(
            self.engine.controller, RuleOrientedController) \
            else EvaluationMode
        try:
            return enum_cls(value)
        except ValueError:
            raise ProtocolError(
                "BAD_REQUEST",
                f"unknown mode {value!r} (accepted: "
                f"{', '.join(m.value for m in enum_cls)})") from None

    def _op_update(self, session: ServerSession,
                   params: Dict[str, Any],
                   attempt: _Attempt) -> Dict[str, Any]:
        """Apply data mutations.  ``updates`` is a list of records in
        the WAL wire shape (``storage/backends/events.py``), except
        inserts carry no OID — the server allocates and returns them.
        More than one record applies as one atomic batch."""
        updates = params.get("updates")
        if not isinstance(updates, list) or not updates:
            raise ProtocolError(
                "BAD_REQUEST",
                "'updates' must be a non-empty list of records")
        db = self.engine.db
        results = []
        with self._write_lock:
            if len(updates) == 1:
                results.append(self._apply_update(db, updates[0]))
            else:
                with db.batch():
                    for record in updates:
                        results.append(self._apply_update(db, record))
        session.invalidate()
        return {"applied": len(results), "results": results,
                "version": db.version}

    def _apply_update(self, db, record: Any) -> Dict[str, Any]:
        if not isinstance(record, dict):
            raise ProtocolError("BAD_REQUEST",
                                "each update must be an object")
        kind = record.get("kind")
        if kind == "insert":
            cls = record.get("cls")
            if not isinstance(cls, str):
                raise ProtocolError("BAD_REQUEST",
                                    "insert requires a 'cls' string")
            entity = db.insert(cls, record.get("label"),
                               **record.get("attrs", {}))
            return {"kind": "insert", "oid": entity.oid.value}
        if kind == "delete":
            db.delete(OID(int(record["oid"])))
            return {"kind": "delete", "oid": int(record["oid"])}
        if kind == "associate":
            db.associate(OID(int(record["owner"])), record["name"],
                         OID(int(record["target"])))
            return {"kind": "associate"}
        if kind == "dissociate":
            db.dissociate(OID(int(record["owner"])), record["name"],
                          OID(int(record["target"])))
            return {"kind": "dissociate"}
        if kind == "set_attribute":
            db.set_attribute(OID(int(record["oid"])), record["name"],
                             record["value"])
            return {"kind": "set_attribute", "oid": int(record["oid"])}
        raise ProtocolError(
            "BAD_REQUEST",
            f"unknown update kind {kind!r} (accepted: insert, delete, "
            f"associate, dissociate, set_attribute)")

    def _op_session_save(self, session: ServerSession,
                         params: Dict[str, Any],
                         attempt: _Attempt) -> Dict[str, Any]:
        name = require_str(params, "path")
        try:
            path = self.config.resolve_data_path(name)
        except ValueError as exc:
            raise _OpError("NOT_FOUND", str(exc)) from None
        from repro.storage import save_session
        with self._write_lock:
            saved = save_session(self.engine, path)
        return {"path": str(saved)}

    def _op_session_restore(self, session: ServerSession,
                            params: Dict[str, Any],
                            attempt: _Attempt) -> Dict[str, Any]:
        name = require_str(params, "path")
        if self.backend is not None:
            raise _OpError(
                "SEMANTIC",
                "session_restore is refused while a WAL backend is "
                "attached (the journal would diverge from the restored "
                "state); restore through the backend instead")
        try:
            path = self.config.resolve_data_path(name)
        except ValueError as exc:
            raise _OpError("NOT_FOUND", str(exc)) from None
        if not path.exists():
            raise _OpError("NOT_FOUND", f"no session file at {name!r}")
        from repro.storage import load_session
        restored = load_session(path)
        self._apply_engine_config(restored)
        with self._write_lock:
            self.engine = restored
        session.invalidate()
        stats = restored.db.stats()
        return {"objects": stats["objects"], "links": stats["links"],
                "rules": len(restored.rules)}

    # -- live queries ---------------------------------------------------

    def _op_subscribe(self, session: ServerSession,
                      params: Dict[str, Any],
                      attempt: _Attempt) -> Dict[str, Any]:
        """Register a live query on this connection.  The response is
        the snapshot-consistent initial result (``seq 0``); deltas then
        arrive as unsolicited ``"sub"`` frames.  The per-event budget is
        the request budget clamped to the server ceilings, exactly as
        for one-shot queries."""
        text = require_str(params, "text")
        budget = self._budget(params)
        limits = {key: value for key, value in
                  (("deadline_ms", budget.deadline_ms),
                   ("max_rows", budget.max_rows),
                   ("max_loop_levels", budget.max_loop_levels))
                  if value is not None}
        cap = self.config.subscription_max_pending
        max_pending = params.get("max_pending")
        if max_pending is None:
            max_pending = cap
        elif not isinstance(max_pending, int) or max_pending < 1:
            raise ProtocolError(
                "BAD_REQUEST",
                "'max_pending' must be a positive integer")
        else:
            max_pending = min(max_pending, cap)
        sub = self.streaming.subscribe(session, text,
                                       max_pending=max_pending,
                                       budget_limits=limits or None)
        initial = sub.initial
        return {"subscription": sub.id, "seq": initial.seq,
                "kind": initial.kind,
                "rows": [list(row) for row in initial.added],
                "vector": list(initial.vector),
                "version": initial.version,
                "footprint": sub.footprint.describe(),
                "incremental": sub.incremental,
                "max_pending": sub.max_pending}

    def _op_unsubscribe(self, session: ServerSession,
                        params: Dict[str, Any],
                        attempt: _Attempt) -> Dict[str, Any]:
        sub_id = params.get("subscription")
        if not isinstance(sub_id, int):
            raise ProtocolError(
                "BAD_REQUEST", "'subscription' must be an integer id")
        if not self.streaming.unsubscribe(session, sub_id):
            raise _OpError("NOT_FOUND",
                           f"no subscription {sub_id} on this session")
        return {"unsubscribed": sub_id}

    # ------------------------------------------------------------------
    # Minimal HTTP face
    # ------------------------------------------------------------------

    async def _handle_http(self, first_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           session: ServerSession) -> None:
        """One HTTP/1.x request per connection (Connection: close)."""
        try:
            method, target, _ = \
                first_line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            await self._send_http(writer, 400, error_body(
                None, "BAD_FRAME", "malformed HTTP request line"))
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_frame_bytes:
            await self._send_http(writer, 413, error_body(
                None, "OVERSIZED",
                f"body of {length} bytes exceeds max_frame_bytes="
                f"{self.config.max_frame_bytes}"))
            return
        raw = await reader.readexactly(length) if length else b"{}"
        if method == "GET" and target in ("/healthz", "/health"):
            await self._send_http(writer, 200,
                                  {"ok": True, "inflight": self._inflight})
            return
        if not target.startswith("/v1/"):
            await self._send_http(writer, 404, error_body(
                None, "NOT_FOUND", f"unknown path {target!r}"))
            return
        op = target[len("/v1/"):]
        if op in ("subscribe", "unsubscribe"):
            await self._send_http(writer, _HTTP_STATUS["SEMANTIC"],
                                  error_body(
                None, "SEMANTIC",
                "subscriptions require the JSON-lines protocol (HTTP "
                "connections close after one response)"))
            return
        if method == "GET":
            params: Dict[str, Any] = {}
        else:
            try:
                body = decode_frame(raw)
            except ProtocolError as exc:
                await self._send_http(
                    writer, _HTTP_STATUS[exc.code],
                    error_body(None, exc.code, str(exc)))
                return
            params = {key: value for key, value in body.items()
                      if key not in ("id", "op")}
        self.counters["requests_total"] += 1
        response = await self._admit_and_execute(session, None, op,
                                                 params)
        status = 200 if response.get("ok") \
            else _HTTP_STATUS.get(response["error"]["code"], 500)
        await self._send_http(writer, status, response)

    async def _send_http(self, writer: asyncio.StreamWriter, status: int,
                         body: Dict[str, Any]) -> None:
        payload = encode_frame(body)
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 422: "Unprocessable Entity",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Error")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        await self._send(writer, head + payload)
