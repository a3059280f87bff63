"""Durable storage: the write-ahead log plus JSON checkpoints.

:class:`StorageBackend` owns logging, recovery and point-in-time
restore; :class:`JsonBackend` persists its checkpoints as whole-session
JSON files, streamed through the atomic writer.  It is the one durable
format.

Typical lifecycle::

    backend = open_backend("state/")
    engine = backend.recover() if backend.has_state() \\
        else RuleEngine(Database(schema))
    backend.attach(engine)        # journals every mutation from now on
    ...
    backend.checkpoint()          # compact the replay prefix
    backend.close()

Crash at any point: reopen and ``recover()`` — the torn WAL tail (if
any) is CRC-detected and truncated, the newest complete checkpoint is
loaded, and the WAL tail beyond its watermark is replayed.
``restore_to(seq)`` rewinds to any event offset instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.errors import DataError
from repro.storage.backends.base import StorageBackend
from repro.storage.backends.events import (
    apply_record,
    record_for_event,
    record_for_rule,
)
from repro.storage.backends.json_backend import JsonBackend
from repro.storage.backends.wal import (
    WalOpenReport,
    WriteAheadLog,
    decode_record,
    encode_record,
)

def open_backend(root: Union[str, Path], kind: str = "json",
                 **options) -> JsonBackend:
    """Open the durable store rooted at ``root``.  ``kind`` names the
    format; ``"json"`` is the only one."""
    if kind != JsonBackend.kind:
        raise DataError(
            f"unknown storage backend {kind!r} (the only kind is "
            f"{JsonBackend.kind!r})")
    backend = JsonBackend(root, **options)
    backend.open()
    return backend


__all__ = [
    "JsonBackend",
    "StorageBackend",
    "WalOpenReport",
    "WriteAheadLog",
    "apply_record",
    "decode_record",
    "encode_record",
    "open_backend",
    "record_for_event",
    "record_for_rule",
]
