"""Server configuration.

One :class:`ServiceConfig` collects everything the service composes
from the layers below it: the admission-control knobs (concurrency
limiter, frame cap, budget caps), the evaluator's result-cache budget
(``cache_bytes``), optional
durable storage (``backend_path`` — every served write is then
WAL-journaled, with JSON checkpoints), and tracing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.service.protocol import MAX_FRAME_BYTES


@dataclass
class ServiceConfig:
    """Knobs of one :class:`~repro.service.server.QueryService`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the bound port is reported by
    #: ``QueryService.address`` once serving).
    port: int = 0

    # -- admission control ---------------------------------------------
    #: In-flight request cap across every connection.  A request
    #: arriving while this many are executing is *shed* with a
    #: structured ``BUSY`` response instead of queueing unboundedly —
    #: under overload the server stays responsive and the client learns
    #: immediately.
    max_concurrency: int = 8
    #: The ``retry_after_ms`` hint a BUSY response carries.
    busy_retry_after_ms: int = 50
    #: Requests (and responses) larger than this are refused.
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Server-side ceilings on per-request budgets: a client-supplied
    #: limit is clamped to the cap, and a request carrying *no* budget
    #: gets the caps as its budget (``None`` caps leave that axis
    #: unbounded).  This is the tenant-isolation half of admission
    #: control — no single query can hold an admission slot forever.
    max_deadline_ms: Optional[float] = 30_000.0
    max_rows: Optional[int] = 5_000_000
    max_loop_levels: Optional[int] = 64

    # -- live queries ---------------------------------------------------
    #: Cap on concurrently active subscriptions across the service; a
    #: ``subscribe`` beyond it is shed with BUSY.
    max_subscriptions: int = 64
    #: Per-subscription outbox bound (also the ceiling for a
    #: client-requested ``max_pending``): when a consumer falls this
    #: many deltas behind, the backlog is dropped and replaced by one
    #: RESYNC frame carrying the full current result.
    subscription_max_pending: int = 256

    # -- engine composition --------------------------------------------
    #: Result-cache budget in bytes (0: off), as \\cache.
    cache_bytes: int = 0
    #: When set, a durable WAL-backed backend is opened (or recovered)
    #: at this path and attached to the engine, as \\wal open.
    backend_path: Optional[str] = None

    # -- observability -------------------------------------------------
    #: Install the tracer (if not already installed) so every request
    #: records a ``service-request`` root span and responses carry its
    #: trace id.
    trace: bool = False
    trace_max_traces: int = 256

    # -- session persistence -------------------------------------------
    #: Directory ``session_save``/``session_restore`` paths resolve
    #: under; file ops outside it are refused (NOT_FOUND).  ``None``
    #: disables the two endpoints.
    data_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
        if self.max_subscriptions < 1:
            raise ValueError("max_subscriptions must be >= 1")
        if self.subscription_max_pending < 1:
            raise ValueError("subscription_max_pending must be >= 1")

    def budget_caps(self) -> Dict[str, Any]:
        """The budget ceilings as a limits mapping."""
        return {"deadline_ms": self.max_deadline_ms,
                "max_rows": self.max_rows,
                "max_loop_levels": self.max_loop_levels}

    def resolve_data_path(self, name: str) -> Path:
        """Resolve a client-supplied session file name under
        ``data_dir``, refusing traversal outside it."""
        if self.data_dir is None:
            raise ValueError("session persistence is disabled "
                             "(no data_dir configured)")
        base = Path(self.data_dir).resolve()
        path = (base / name).resolve()
        if base != path and base not in path.parents:
            raise ValueError(f"path {name!r} escapes the data directory")
        path.parent.mkdir(parents=True, exist_ok=True)
        return path
