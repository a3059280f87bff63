"""Live query subscriptions over the update-event stream.

A :class:`SubscriptionManager` registers parsed read-only queries
against the :class:`~repro.model.database.Database` listener path (the
same write-lock-held hook the rule engine's forward pass uses) and
turns each relevant mutation into ordered ``+/-`` row deltas:

* **Snapshot-consistent initial result.**  ``subscribe()`` evaluates
  the query and registers the listener under one ``write_locked()``
  section, so no event can fall between the initial rows and the first
  delta.  The initial result is ``seq 0`` and is stamped with the
  version vector over the query's footprint.
* **Delta computation.**  Queries inside the incrementally
  maintainable fragment reuse the rule engine's
  :class:`~repro.rules.incremental.IncrementalRule`, whose ``+/-`` rows
  become the frame directly: only the delta is canonicalized, so an
  event costs time proportional to the change, not to the result.
  Everything else — loops, braces, aggregation conditions, derived
  references — falls back to re-evaluate + diff against the previous
  row set on the writer thread, which still yields exact row deltas.
* **Spurious-wakeup suppression.**  Each subscription keeps the
  version vector over its :class:`~repro.oql.footprint.Footprint`
  (derived references are resolved to their transitive footprints
  through the rule graph); an event that leaves that vector untouched
  — a write to a link or attribute the query never reads, even on a
  class it does read — is skipped without evaluating anything.
* **Sequencing.**  Deltas carry a strictly increasing per-subscription
  ``seq`` plus the vector/version they bring the subscriber up to;
  folding ``initial ⊕ deltas`` in sequence order reproduces a scratch
  re-evaluation after every event (the differential tier asserts
  byte-identical canonical rows).
* **Backpressure.**  Each delivered delta is computed under a fresh
  :class:`~repro.oql.budget.QueryBudget` built from the subscription's
  limits; a trip marks the subscription stale and the next relevant
  event (or an explicit :meth:`SubscriptionManager.resync`) recovers
  with a full budgeted RESYNC.  The per-subscription outbox is
  bounded: on overflow the backlog is dropped and replaced by a single
  RESYNC frame carrying the complete current row set, so a slow
  consumer degrades to eventual consistency instead of unbounded
  memory.

Rows on the wire are canonical: tuples of OID integer values (``None``
for unbound loop slots), sorted with ``None`` first.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro import obs
from repro.errors import OQLSemanticError, ReproError
from repro.model.database import UpdateEvent, UpdateKind
from repro.oql.ast import Query
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.oql.footprint import Footprint
from repro.oql.parser import parse_query
from repro.rules.incremental import IncrementalRule, NotIncremental
from repro.rules.rule import DeductiveRule

#: A canonical result row: the OID integer value per context slot
#: (``None`` for slots a loop query leaves unbound).
Row = Tuple[Optional[int], ...]


def _row_key(row: Row) -> Tuple[int, ...]:
    return tuple(-1 if v is None else v for v in row)


def canonical_rows(rows: Iterable[Row]) -> Tuple[Row, ...]:
    """Deterministic wire order: sorted, ``None`` before any OID."""
    return tuple(sorted(rows, key=_row_key))


@dataclass(frozen=True)
class SubscriptionDelta:
    """One ordered update frame of a subscription's result stream.

    ``kind`` is ``"snapshot"`` (the initial result, always ``seq 0``),
    ``"delta"`` (apply ``added``/``removed`` to the folded state),
    ``"resync"`` (discard the folded state and replace it with
    ``added`` — emitted after outbox overflow or budget-trip
    recovery), or ``"closed"`` (terminal: the query became
    unanswerable, e.g. a rule it read was removed; ``error`` carries
    the reason and no further frames follow).  ``seq`` is strictly
    increasing per subscription; ``vector``/``version`` stamp the
    database state the frame brings the subscriber up to.
    """

    seq: int
    kind: str
    version: int
    vector: Tuple[int, ...]
    added: Tuple[Row, ...]
    removed: Tuple[Row, ...]
    error: Optional[str] = None


class Subscription:
    """One live query: maintained row set, bounded outbox, counters.

    The row set and vector are written only on the mutator's thread
    (under the database write lock); the outbox is shared with
    consumer threads and guarded by its own lock — :meth:`poll` is
    safe from anywhere.
    """

    def __init__(self, sub_id: int, text: str, query: Query,
                 rule: DeductiveRule, footprint: Footprint,
                 max_pending: int,
                 budget_limits: Optional[Dict[str, Any]]):
        self.id = sub_id
        self.text = text
        self.query = query
        self.rule = rule
        #: What the version vector ranges over; the wildcard means
        #: unresolvable (wake on every event).
        self.footprint = footprint
        self.has_derived = bool(rule.source_subdatabases())
        self.max_pending = max_pending
        self.budget_limits = budget_limits
        self.rows: Set[Row] = set()
        self.vector: Tuple[int, ...] = ()
        self.version = 0
        self.seq = 0
        self.active = True
        self.incremental = False
        #: Set after a budget trip: the row set is unknown and the next
        #: wakeup recovers with a full RESYNC.
        self.stale = False
        self.initial: Optional[SubscriptionDelta] = None
        self.counters: Dict[str, int] = {
            "events_seen": 0, "skipped_unrelated": 0, "wakeups": 0,
            "deltas": 0, "resyncs": 0, "overflows": 0,
            "budget_trips": 0, "empty_deltas": 0,
        }
        self.on_ready: Optional[Callable[["Subscription"], None]] = None
        self._maintainer: Optional[IncrementalRule] = None
        self._outbox: Deque[SubscriptionDelta] = deque()
        self._lock = threading.Lock()

    def poll(self) -> List[SubscriptionDelta]:
        """Drain every pending delta, oldest first (thread-safe)."""
        with self._lock:
            out = list(self._outbox)
            self._outbox.clear()
        return out

    def pending(self) -> int:
        with self._lock:
            return len(self._outbox)


class SubscriptionManager:
    """Registers live queries against a database's update-event stream.

    The manager attaches a single database listener while at least one
    subscription is active and detaches it when the last one goes —
    an idle manager leaves no trace on the database (asserted by the
    service soak's leak check).  It also listens for rule-base changes:
    a subscription reading derived subdatabases is re-analyzed and
    resynced when rules are added or removed, since a definition change
    moves no version vector.

    Lock order is always database write lock → manager lock; the
    ``on_ready`` callback fires outside both the manager lock and the
    subscription's outbox lock (but on the mutator's thread, under the
    database write lock — it must schedule work, never block).
    """

    def __init__(self, engine, *, max_pending: int = 256):
        self.engine = engine
        self.db = engine.db
        self.universe = engine.universe
        self.default_max_pending = max_pending
        self.counters: Dict[str, int] = {
            "subscribed": 0, "unsubscribed": 0, "events": 0,
            "deltas": 0, "resyncs": 0,
        }
        self._subs: Dict[int, Subscription] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def subscribe(self, text: Union[str, Query], *,
                  max_pending: Optional[int] = None,
                  budget_limits: Optional[Dict[str, Any]] = None,
                  on_ready: Optional[Callable[[Subscription], None]]
                  = None) -> Subscription:
        """Register a live query and return its subscription with the
        snapshot-consistent initial result in ``.initial``.

        The initial evaluation and the listener registration happen
        under one write-locked section: every event after the snapshot
        is delivered as a delta, every event before it is folded in.
        """
        query = parse_query(text) if isinstance(text, str) else text
        if query.operation is not None:
            raise OQLSemanticError(
                "subscriptions take read-only queries "
                "(no operation subclause)")
        sub_id = next(self._ids)
        rule = DeductiveRule(target=f"_subscription_{sub_id}",
                             context=query.context, where=query.where,
                             targets=(), text=str(query))
        sub = Subscription(
            sub_id, text if isinstance(text, str) else str(query),
            query, rule, self._analyze(rule),
            max_pending if max_pending is not None
            else self.default_max_pending, budget_limits)
        sub.on_ready = on_ready
        try:
            maintainer: Optional[IncrementalRule] = IncrementalRule(
                rule, self.universe, evaluator=self.engine.evaluator)
        except NotIncremental:
            maintainer = None
        sub._maintainer = maintainer
        sub.incremental = maintainer is not None
        with self.db.write_locked():
            sub.rows = self._scratch_rows(sub, self._fresh_budget(sub))
            sub.vector = self._vector(sub)
            sub.version = self.db.version
            sub.initial = SubscriptionDelta(
                seq=0, kind="snapshot", version=sub.version,
                vector=sub.vector, added=canonical_rows(sub.rows),
                removed=())
            with self._lock:
                self._subs[sub.id] = sub
                self._attach_locked()
        self.counters["subscribed"] += 1
        return sub

    def unsubscribe(self, sub_id: int) -> bool:
        """Deactivate and forget a subscription; detaches the database
        listener when it was the last one.  Idempotent."""
        with self.db.write_locked():
            with self._lock:
                sub = self._subs.pop(sub_id, None)
                if sub is None:
                    return False
                sub.active = False
                if not self._subs:
                    self._detach_locked()
        self.counters["unsubscribed"] += 1
        return True

    def close(self) -> None:
        """Unsubscribe everything (service shutdown)."""
        with self._lock:
            ids = list(self._subs)
        for sub_id in ids:
            self.unsubscribe(sub_id)

    def resync(self, sub_id: int) -> bool:
        """Force a full budgeted re-evaluation and emit a RESYNC frame
        — the recovery path after a budget trip when no further write
        arrives to trigger it."""
        with self.db.write_locked():
            with self._lock:
                sub = self._subs.get(sub_id)
            if sub is None or not sub.active:
                return False
            try:
                self._resync_locked(sub)
            except BudgetExceeded:
                sub.counters["budget_trips"] += 1
                sub.stale = True
            except ReproError as exc:
                self._close_with_error(sub, exc)
        return True

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._subs)

    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            return list(self._subs.values())

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _analyze(self, rule: DeductiveRule) -> Footprint:
        """The query's footprint, derived references resolved
        transitively through the rule graph (the wildcard when one is
        not rule-derived — then every event wakes the subscription)."""
        return rule.footprint(self.db.schema, self.engine.footprint)

    def _vector(self, sub: Subscription) -> Tuple[int, ...]:
        return self.db.version_vector(sub.footprint)

    def _fresh_budget(self, sub: Subscription) -> Optional[QueryBudget]:
        if not sub.budget_limits:
            return None
        return QueryBudget.from_limits(sub.budget_limits)

    @staticmethod
    def _canon(row) -> Row:
        return tuple(None if v is None else v.value for v in row)

    def _scratch_rows(self, sub: Subscription,
                      budget: Optional[QueryBudget]) -> Set[Row]:
        """The complete row set, computed from scratch under ``budget``:
        a maintained subscription (re-)initializes its maintainer and
        reads it, any other evaluates the query."""
        maintainer = sub._maintainer
        if maintainer is None:
            source = self.engine.evaluator.evaluate(
                sub.query.context, sub.query.where,
                name=f"_subscribe_{sub.id}", budget=budget)
            return {self._canon(p.values) for p in source.patterns}
        # Invalidated first: a trip mid-initialization leaves no stale
        # match set behind.
        maintainer.invalidate()
        maintainer._budget = budget
        try:
            maintainer.initialize()
        finally:
            maintainer._budget = None
        return {self._canon(row) for row in maintainer.rows}

    # ------------------------------------------------------------------
    # Event path (mutator thread, write lock held)
    # ------------------------------------------------------------------

    def _on_event(self, event: UpdateEvent) -> None:
        self.counters["events"] += 1
        with self._lock:
            subs = list(self._subs.values())
        for sub in subs:
            if not sub.active:
                continue
            sub.counters["events_seen"] += 1
            if event.kind is UpdateKind.SCHEMA:
                # Links may resolve differently now.
                sub.footprint = self._analyze(sub.rule)
            vector = self._vector(sub)
            if vector == sub.vector:
                sub.counters["skipped_unrelated"] += 1
                continue
            self._refresh(sub, event, vector)

    def _refresh(self, sub: Subscription, event: UpdateEvent,
                 vector: Tuple[int, ...]) -> None:
        tracer = obs.TRACER
        span = tracer.start("subscription-delta", sub=sub.id,
                            kind=event.kind.name) \
            if tracer is not None else None
        budget = self._fresh_budget(sub)
        try:
            sub.counters["wakeups"] += 1
            if sub.stale:
                self._resync_locked(sub, budget=budget)
                if span is not None:
                    span.set("resync", True)
                return
            maintainer = sub._maintainer
            if maintainer is not None:
                step_added, step_removed = maintainer.on_event(
                    event, budget=budget)
                added = {self._canon(row) for row in step_added}
                removed = {self._canon(row) for row in step_removed}
                sub.rows -= removed
                sub.rows |= added
            else:
                new_rows = self._scratch_rows(sub, budget)
                added, removed = new_rows - sub.rows, sub.rows - new_rows
                sub.rows = new_rows
            added, removed = self._emit_delta(sub, added, removed, vector)
            if span is not None:
                span.set("added", added)
                span.set("removed", removed)
        except BudgetExceeded:
            # The row set may be mid-delta: discard it and recover
            # with a full RESYNC at the next relevant event (the
            # vector is left stale so that event is not skipped).
            sub.counters["budget_trips"] += 1
            sub.stale = True
            if sub._maintainer is not None:
                sub._maintainer.invalidate()
            if span is not None:
                span.set("budget_trip", True)
        except ReproError as exc:
            # The query became unanswerable (e.g. a schema change):
            # close the subscription with a terminal frame.
            self._close_with_error(sub, exc)
            if span is not None:
                span.set("closed", True)
        finally:
            if span is not None:
                tracer.finish(span)

    def _emit_delta(self, sub: Subscription, added: Set[Row],
                    removed: Set[Row],
                    vector: Tuple[int, ...]) -> Tuple[int, int]:
        """Enqueue the frame of rows ``sub.rows`` just gained and lost."""
        sub.vector = vector
        sub.version = self.db.version
        if not added and not removed:
            # A relevant write that left the result unchanged (e.g. a
            # re-link of an existing pair): advance silently.
            sub.counters["empty_deltas"] += 1
            return 0, 0
        self._enqueue(sub, "delta", canonical_rows(added),
                      canonical_rows(removed))
        return len(added), len(removed)

    def _resync_locked(self, sub: Subscription,
                       budget: Optional[QueryBudget] = None) -> None:
        """Full re-evaluation + RESYNC frame.  Caller holds the write
        lock.  Re-analyzes the footprint first (the rule base may have
        changed for derived references, the schema for anyone)."""
        if budget is None:
            budget = self._fresh_budget(sub)
        sub.footprint = self._analyze(sub.rule)
        sub.rows = self._scratch_rows(sub, budget)
        sub.vector = self._vector(sub)
        sub.version = self.db.version
        sub.stale = False
        self._enqueue(sub, "resync", canonical_rows(sub.rows), ())

    def _enqueue(self, sub: Subscription, kind: str,
                 added: Tuple[Row, ...], removed: Tuple[Row, ...],
                 error: Optional[str] = None) -> None:
        with sub._lock:
            if len(sub._outbox) >= sub.max_pending:
                # Slow consumer: drop the backlog and degrade to one
                # RESYNC frame carrying the complete current row set
                # (a terminal "closed" frame replaces the backlog
                # as-is).
                sub._outbox.clear()
                sub.counters["overflows"] += 1
                if kind != "closed":
                    kind, added, removed = \
                        "resync", canonical_rows(sub.rows), ()
            sub.seq += 1
            sub._outbox.append(SubscriptionDelta(
                seq=sub.seq, kind=kind, version=sub.version,
                vector=sub.vector, added=tuple(added),
                removed=tuple(removed), error=error))
        if kind != "closed":
            key = "resyncs" if kind == "resync" else "deltas"
            sub.counters[key] += 1
            self.counters[key] += 1
        ready = sub.on_ready
        if ready is not None:
            ready(sub)

    def _close_with_error(self, sub: Subscription,
                          exc: Exception) -> None:
        """Terminal close (caller holds the write lock): deactivate,
        emit one ``closed`` frame, and forget the subscription."""
        sub.active = False
        self._enqueue(sub, "closed", (), (),
                      error=f"{type(exc).__name__}: {exc}")
        with self._lock:
            self._subs.pop(sub.id, None)
            if not self._subs:
                self._detach_locked()
        self.counters["unsubscribed"] += 1

    # ------------------------------------------------------------------
    # Rule-base changes (definitions move no version vector)
    # ------------------------------------------------------------------

    def _on_rule_event(self, action, rule, mode) -> None:
        with self._lock:
            affected = [s for s in self._subs.values()
                        if s.has_derived and s.active]
        for sub in affected:
            self.resync(sub.id)

    # ------------------------------------------------------------------
    # Listener attachment (caller holds manager lock)
    # ------------------------------------------------------------------

    def _attach_locked(self) -> None:
        if not self._attached:
            self.db.add_listener(self._on_event)
            self.engine.add_rule_listener(self._on_rule_event)
            self._attached = True

    def _detach_locked(self) -> None:
        if self._attached:
            self.db.remove_listener(self._on_event)
            self.engine.remove_rule_listener(self._on_rule_event)
            self._attached = False
