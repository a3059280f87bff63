"""Span tracer with zero-overhead-off instrumentation semantics.

The instrumentation contract used throughout the codebase is::

    tracer = obs.TRACER
    span = tracer.start("join-step", slot="Course") if tracer is not None \
        else None
    try:
        ...
    finally:
        if span is not None:
            span.add("rows_out", len(rows))
            tracer.finish(span)

When no tracer is installed (``obs.TRACER is None``, the default) every
instrumentation point reduces to a module-attribute load and an ``is
None`` test — no allocation, no locking, no timing call.  The
``start``/``finish`` pair (rather than a context manager) keeps the hot
path free of generator/``__enter__`` machinery and lets the off-path
share the exact code shape of the on-path.

Span trees are stitched per-thread: each thread keeps its own stack of
open spans, so nesting is automatic within a thread, and a span started
on another thread on a request's behalf passes an explicit ``parent=``
captured on the dispatching thread.  Completed root spans are handed to
the tracer's :class:`~repro.obs.recorder.TraceRecorder` ring buffer.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.recorder import TraceRecorder

__all__ = ["Span", "Tracer", "CountingTracer"]


class Span:
    """One timed node of a trace tree.

    Attributes are descriptive key/values fixed at creation (plus
    late :meth:`set` calls); counters are additive numeric facts
    (``rows_out``, ``frontier``, ...) accumulated with :meth:`add`.
    Wall time comes from ``perf_counter``; CPU time from
    ``thread_time`` — a span is started and finished on the same
    thread by construction, so the difference is that thread's CPU
    share.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs",
                 "counters", "children", "thread_id", "start_us",
                 "wall_ms", "cpu_ms", "status", "closed",
                 "_parent", "_wall0", "_cpu0")

    def __init__(self, trace_id: int, span_id: int, parent: Optional["Span"],
                 name: str, attrs: Dict[str, Any], start_us: float) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, float] = {}
        self.children: List[Span] = []
        self.thread_id = threading.get_ident()
        self.start_us = start_us
        self.wall_ms: Optional[float] = None
        self.cpu_ms: Optional[float] = None
        self.status = "open"
        self.closed = False
        self._parent = parent
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a numeric counter on this span."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) a descriptive attribute."""
        self.attrs[key] = value

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        timing = (f"{self.wall_ms:.3f}ms" if self.wall_ms is not None
                  else "open")
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"trace={self.trace_id}, {timing})")


class Tracer:
    """Records nestable spans into per-thread stacks and a ring buffer.

    ``start``/``finish`` must be paired (``finally``-protected at every
    call site).  A root span — one started with no parent and no open
    span on its thread — defines a trace; finishing it files the whole
    tree with the recorder.
    """

    def __init__(self, max_traces: int = 64) -> None:
        self.recorder = TraceRecorder(max_traces=max_traces)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._epoch = time.perf_counter()

    # -- span lifecycle ------------------------------------------------

    def start(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Open a span.

        With no explicit ``parent`` the innermost open span on the
        calling thread is used; work handed to another thread passes
        the dispatcher's span explicitly to stitch across threads.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if parent is None:
            with self._lock:
                trace_id = next(self._trace_ids)
        else:
            trace_id = parent.trace_id
        with self._lock:
            span_id = next(self._span_ids)
        now = time.perf_counter()
        span = Span(trace_id, span_id, parent, name, dict(attrs),
                    start_us=(now - self._epoch) * 1e6)
        span._wall0 = now
        span._cpu0 = time.thread_time()
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span``; attach it to its parent or file the trace.

        Any descendants of ``span`` still open on this thread were
        abandoned by a non-local exit (an exception that skipped their
        ``finally``, which our call sites never do, or a span held
        across ``yield``); they are force-closed with status
        ``aborted`` so a finished trace never contains open spans.
        """
        if span.closed:
            if span.status == "aborted":
                return  # already swept by an ancestor's finish
            raise RuntimeError(f"span {span.name!r} finished twice")
        stack = self._stack()
        while stack and stack[-1] is not span:
            self._close(stack.pop(), aborted=True)
        if stack and stack[-1] is span:
            stack.pop()
        self._close(span, aborted=False)

    def current_span(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- internals -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, span: Span, aborted: bool) -> None:
        span.closed = True
        now = time.perf_counter()
        span.wall_ms = (now - span._wall0) * 1000.0
        span.cpu_ms = (time.thread_time() - span._cpu0) * 1000.0
        if aborted:
            span.status = "aborted"
        else:
            exc = sys.exc_info()[1]
            span.status = ("ok" if exc is None
                           else f"error:{type(exc).__name__}")
        parent = span._parent
        if parent is None:
            self.recorder.record(span)
        else:
            # Children on other threads may append concurrently.
            with self._lock:
                parent.children.append(span)


class _NullSpan:
    """Inert span returned by :class:`CountingTracer`."""

    __slots__ = ()
    trace_id: Optional[int] = None
    span_id: Optional[int] = None

    def add(self, key: str, amount: float = 1) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass


class CountingTracer:
    """Tracer stand-in that only counts instrumentation-site hits.

    Used by the overhead benchmark: installing it and running a
    workload measures how many times the ``if tracer is not None``
    guard fired down the true branch — i.e. how many guard checks the
    *untraced* run of the same workload performs — without paying for
    span allocation or timing, which would distort the count's
    purpose.
    """

    def __init__(self) -> None:
        self.starts = 0
        self._span = _NullSpan()

    def start(self, name: str, parent: Any = None, **attrs: Any) -> _NullSpan:
        self.starts += 1
        return self._span

    def finish(self, span: Any) -> None:
        pass

    def current_span(self) -> None:
        return None
