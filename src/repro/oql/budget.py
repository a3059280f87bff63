"""Query budgets: bounded time, rows, and loop depth per evaluation.

A :class:`QueryBudget` is threaded through the evaluator, the semi-naive
loop, the rule engine and incremental maintenance.  When any limit trips
the evaluation raises :class:`BudgetExceeded` — a catchable error that
carries the verdict (which limit), the elapsed time, the rows charged so
far, and the partial :class:`~repro.oql.evaluator.EvaluationMetrics` —
so a ``^*`` over an adversarial cycle degrades into a clean, bounded
failure instead of monopolizing the engine.

Budgets are *shareable*: one budget object may cover a whole derivation
cascade (a query plus every rule it backward-chains through), so the
row counter and the clock accumulate across sub-evaluations.  The
counters are lock-protected, so threads sharing one budget can charge
it concurrently.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import ReproError


class BudgetExceeded(ReproError):
    """A query budget limit tripped mid-evaluation.

    ``verdict`` names the limit (``"deadline"``, ``"max_rows"`` or
    ``"max_loop_levels"``); ``elapsed_ms`` and ``rows`` are the spend at
    the moment of the trip; ``metrics`` holds the partial
    :class:`~repro.oql.evaluator.EvaluationMetrics` of the interrupted
    evaluation when the evaluator could attach them (``None`` when the
    trip happened outside an evaluator, e.g. in incremental
    maintenance).
    """

    def __init__(self, verdict: str, elapsed_ms: float, rows: int,
                 limit) -> None:
        super().__init__(
            f"query budget exceeded ({verdict}: limit {limit}, "
            f"elapsed {elapsed_ms:.1f} ms, {rows} rows)")
        self.verdict = verdict
        self.elapsed_ms = elapsed_ms
        self.rows = rows
        self.limit = limit
        self.metrics = None
        #: Id of the (partial) trace recorded for the interrupted
        #: evaluation when a tracer was installed — look it up with
        #: ``obs.TRACER.recorder.get(trace_id)`` to see where the spend
        #: went before the trip.
        self.trace_id: Optional[int] = None


class QueryBudget:
    """Resource limits for one evaluation (or one derivation cascade).

    ``deadline_ms`` bounds wall-clock time, ``max_rows`` bounds the
    total intermediate rows generated, ``max_loop_levels`` bounds the
    depth a ``^*``/``^N`` loop may reach.  Any subset may be ``None``
    (unbounded).  The clock starts at the first :meth:`ensure_started`
    (the evaluator calls it on entry); :meth:`start` restarts it for
    reuse across independent queries.
    """

    #: Budgeted extension loops check the clock every CHECK_EVERY
    #: appended rows, bounding the overshoot past a deadline to the
    #: time one chunk takes rather than the time one whole hop takes.
    CHECK_EVERY = 4096

    #: The limit names :meth:`from_limits` accepts, in canonical order.
    LIMIT_KEYS = ("deadline_ms", "max_rows", "max_loop_levels")

    def __init__(self, deadline_ms: Optional[float] = None,
                 max_rows: Optional[int] = None,
                 max_loop_levels: Optional[int] = None):
        self.deadline_ms = deadline_ms
        self.max_rows = max_rows
        self.max_loop_levels = max_loop_levels
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._rows = 0
        #: Enforcement calls served since the last (re)start — an
        #: unlocked, approximate tally (concurrent chargers may lose
        #: increments) surfaced as a span counter by the tracer.
        self.checks = 0

    @classmethod
    def from_limits(cls, limits: Optional[dict] = None,
                    caps: Optional[dict] = None) -> "QueryBudget":
        """Build a budget from a request-shaped limits mapping, clamped
        to server-side ``caps``.

        ``limits`` holds any subset of :data:`LIMIT_KEYS` (JSON
        numbers); unknown keys, non-numeric or non-positive values
        raise ``ValueError`` (the service answers BAD_REQUEST).
        ``caps`` has the same shape: each requested limit is reduced to
        the cap when it exceeds it, and an axis the request leaves
        unbounded inherits the cap outright — admission control can
        therefore guarantee *every* admitted request is bounded by the
        server's ceilings, whatever the client asked for.
        """
        limits = dict(limits or {})
        caps = caps or {}
        unknown = set(limits) - set(cls.LIMIT_KEYS)
        if unknown:
            raise ValueError(
                f"unknown budget limit(s) {sorted(unknown)} "
                f"(accepted: {', '.join(cls.LIMIT_KEYS)})")
        merged = {}
        for key in cls.LIMIT_KEYS:
            requested = limits.get(key)
            cap = caps.get(key)
            if requested is not None:
                if isinstance(requested, bool) or \
                        not isinstance(requested, (int, float)):
                    raise ValueError(f"budget limit {key} must be a "
                                     f"number, got {requested!r}")
                if requested <= 0:
                    raise ValueError(f"budget limit {key} must be "
                                     f"positive, got {requested!r}")
            if requested is None:
                value = cap
            elif cap is None:
                value = requested
            else:
                value = min(requested, cap)
            if value is not None:
                value = float(value) if key == "deadline_ms" \
                    else int(value)
            merged[key] = value
        return cls(**merged)

    # -- lifecycle ------------------------------------------------------

    def start(self, at: Optional[float] = None) -> "QueryBudget":
        """(Re)start the clock and zero the row counter.  ``at`` (a
        ``time.perf_counter()`` reading) backdates the clock, so a
        re-run of interrupted work keeps the deadline it started
        under."""
        with self._lock:
            self._started_at = time.perf_counter() if at is None else at
            self._rows = 0
            self.checks = 0
        return self

    def ensure_started(self) -> None:
        if self._started_at is None:
            self.start()

    # -- introspection --------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        if self._started_at is None:
            return 0.0
        return (time.perf_counter() - self._started_at) * 1000.0

    @property
    def rows_charged(self) -> int:
        return self._rows

    def remaining_ms(self) -> Optional[float]:
        if self.deadline_ms is None:
            return None
        return self.deadline_ms - self.elapsed_ms

    # -- enforcement ----------------------------------------------------

    def _trip(self, verdict: str, limit) -> BudgetExceeded:
        return BudgetExceeded(verdict, self.elapsed_ms, self._rows, limit)

    def check_time(self) -> None:
        """Raise when the wall-clock deadline has passed."""
        self.checks += 1
        if self.deadline_ms is not None and \
                self.elapsed_ms > self.deadline_ms:
            raise self._trip("deadline", f"{self.deadline_ms} ms")

    def charge_rows(self, n: int) -> None:
        """Account ``n`` generated rows; raise when the total passes
        ``max_rows``.  Thread-safe (a budget may be shared across
        threads)."""
        if n:
            self.checks += 1
            with self._lock:
                self._rows += n
            if self.max_rows is not None and self._rows > self.max_rows:
                raise self._trip("max_rows", self.max_rows)

    def check_output(self, rows: int) -> None:
        """Called before a result of ``rows`` rows is tabulated or
        rendered, work no limit above bounds.  A plain budget lets any
        size through; a subclass may refuse (the query service's
        event-loop attempt hands a large result to its executor)."""

    def check_level(self, level: int) -> None:
        """Raise when a loop is about to expand past ``max_loop_levels``
        (``level`` counts loop hops already materialized)."""
        self.checks += 1
        if self.max_loop_levels is not None and \
                level > self.max_loop_levels:
            raise self._trip("max_loop_levels", self.max_loop_levels)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        parts = []
        if self.deadline_ms is not None:
            parts.append(f"deadline_ms={self.deadline_ms}")
        if self.max_rows is not None:
            parts.append(f"max_rows={self.max_rows}")
        if self.max_loop_levels is not None:
            parts.append(f"max_loop_levels={self.max_loop_levels}")
        return f"QueryBudget({', '.join(parts) or 'unbounded'})"
