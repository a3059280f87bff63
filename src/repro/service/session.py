"""Per-connection server sessions.

Each connection owns one :class:`ServerSession`: a lazily opened
snapshot-pinned :class:`~repro.oql.query.QueryProcessor` (the engine's
``snapshot_session``), so every read the connection issues evaluates
against one consistent database version — concurrent writers never
tear a client's view mid-conversation.  The pin is *refreshable on
demand*: the ``refresh`` op (and every write the session itself
performs) closes the snapshot so the next read pins the current
version.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.oql.budget import QueryBudget
from repro.oql.query import QueryProcessor, QueryResult


def _release(processor: Optional[QueryProcessor]) -> None:
    """Unpin a superseded session processor and drop what it holds.

    The processor, its snapshot universe and the universe's provider
    closure reference one another, so only the cyclic collector frees
    them — which, between collections, leaves every superseded pin's
    intern tables, CSR and value indexes alive.  Closing the universe
    and the evaluator drops those now."""
    if processor is not None:
        processor.universe.close()
        processor.close()


class ServerSession:
    """One connection's pinned view of the engine.

    Not thread-safe by design: the server dispatches one request of a
    connection at a time (requests pipeline on the wire but execute in
    order), so a session is used by one thread at a time — the event
    loop for a read's first attempt, an executor thread for a write or
    a read that outgrew that attempt — and never by two at once.
    ``close`` may race a late request, hence the small lock around
    snapshot lifecycle.
    """

    def __init__(self, session_id: int, engine) -> None:
        self.session_id = session_id
        # ``engine`` may be a RuleEngine or a zero-arg callable
        # returning one — the service passes a getter so sessions pick
        # up an engine swapped by ``session_restore`` at their next
        # refresh, without the server rewiring every live session.
        self._engine_ref = engine if callable(engine) else (lambda: engine)
        self.requests = 0
        #: Subscription ids owned by this session's connection —
        #: maintained by the streaming layer, used for ownership checks
        #: (only the subscribing session may unsubscribe) and reaped by
        #: the connection's close handler.
        self.subscriptions: set = set()
        self._processor: Optional[QueryProcessor] = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def engine(self):
        return self._engine_ref()

    # -- snapshot lifecycle --------------------------------------------

    def processor(self) -> QueryProcessor:
        """The pinned snapshot processor, opened on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self._processor is None:
                self._processor = self.engine.snapshot_session()
            return self._processor

    def pinned_version(self) -> Optional[int]:
        with self._lock:
            if self._processor is None:
                return None
            return self._processor.universe.pinned_version

    def refresh(self) -> int:
        """Drop the pinned snapshot; the next read pins the current
        database version.  Returns the version now pinned."""
        self._drop_snapshot()
        return self.processor().universe.pinned_version

    def invalidate(self) -> None:
        """Drop the pin without reopening (used after this session
        performs a write, so its own next read observes the write)."""
        self._drop_snapshot()

    def _drop_snapshot(self) -> None:
        with self._lock:
            processor, self._processor = self._processor, None
        _release(processor)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            processor, self._processor = self._processor, None
        _release(processor)

    # -- evaluation -----------------------------------------------------

    def execute(self, text: str, name: Optional[str] = None,
                budget: Optional[QueryBudget] = None) -> QueryResult:
        """Run one read query against the pinned snapshot.

        Mirrors ``RuleEngine.query``'s budget handling: the budget is
        also installed ambiently on the session evaluator so
        backward-chained derivations (which flow through the snapshot's
        provider, not through an argument) charge the same budget as
        the query itself.  A budget whose clock is already running
        keeps it: the server starts it when it admits the request, so
        a read re-run on the executor keeps the deadline it was
        admitted under.
        """
        processor = self.processor()
        evaluator = processor.evaluator
        if budget is not None:
            budget.ensure_started()
            evaluator.budget = budget
        try:
            return processor.execute(text, name=name, budget=budget)
        finally:
            if budget is not None:
                evaluator.budget = None

    def derive(self, target: str,
               budget: Optional[QueryBudget] = None):
        """Materialize one derived subdatabase into the session's
        private snapshot registry (backward chaining under budget)."""
        processor = self.processor()
        evaluator = processor.evaluator
        if budget is not None:
            budget.ensure_started()
            evaluator.budget = budget
        try:
            return processor.universe.get_subdb(target)
        finally:
            if budget is not None:
                evaluator.budget = None

    def describe(self) -> Dict[str, Any]:
        return {"session": self.session_id,
                "requests": self.requests,
                "pinned_version": self.pinned_version()}
