"""The durable storage-backend abstraction.

A :class:`StorageBackend` pairs one append-only
:class:`~repro.storage.backends.wal.WriteAheadLog` with a store of
*checkpoints* — complete session snapshots, each watermarked by the WAL
offset and the per-class version vector it covers.  The subclass
(:class:`~repro.storage.backends.json_backend.JsonBackend`) decides
only how checkpoints are persisted; logging, recovery, and
point-in-time restore live here.

The contract:

* ``attach(engine)`` hooks the engine's update-event and rule-base
  listeners so every mutation is journaled *inside* the database's
  write lock (the event listener path), and writes the genesis
  checkpoint if the store is empty — so there is always a snapshot to
  replay onto.
* ``checkpoint()`` snapshots the whole session atomically and records
  the current WAL offset as its watermark.  Schema-evolution events
  force one immediately: schema changes are persisted as snapshots,
  never as deltas.
* ``recover()`` loads the newest checkpoint and replays the WAL tail
  beyond its watermark; a torn tail record is detected by CRC and cut
  at open time.  The result is byte-identical (through the canonical
  session document) to a session that executed the same events live.
* ``restore_to(seq)`` rewinds to any event offset: the newest
  checkpoint at-or-before ``seq`` plus the WAL records up to ``seq``.
* ``compact()`` drops history older than the newest checkpoint once
  point-in-time restore below it is no longer needed.
"""

from __future__ import annotations

import abc
import gc
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import DataError
from repro.model.database import UpdateEvent, UpdateKind
from repro.storage.backends.events import (
    apply_record,
    record_for_event,
    record_for_rule,
)
from repro.storage.backends.wal import WriteAheadLog, encode_record
from repro.storage.session import rule_mode, session_from_dict, \
    session_to_dict


class StorageBackend(abc.ABC):
    """Base class for durable, WAL-backed session stores."""

    #: Format name reported by :meth:`status`; set by the subclass.
    kind = "abstract"

    def __init__(self, root: Union[str, Path], *,
                 checkpoint_every: Optional[int] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.root / "wal.jsonl")
        #: Take a checkpoint automatically every N WAL records
        #: (``None``: only explicit/genesis/schema checkpoints).
        self.checkpoint_every = checkpoint_every
        self.engine = None
        #: Test seam: a callable invoked at named code points
        #: ("checkpoint.mid_write", ...) so crash-injection tests
        #: can kill the process at the worst possible moment.
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._since_checkpoint = 0
        self._mutex = threading.RLock()
        self._db_listener = None
        self._rule_listener = None

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self):
        """Open (and validate/repair) the WAL; returns the open report."""
        return self.wal.open()

    def close(self) -> None:
        self.detach()
        self.wal.close()

    def attach(self, engine) -> None:
        """Start journaling ``engine``.  Writes the genesis checkpoint
        when the store has none, so recovery always has a base state."""
        with self._mutex:
            if self.engine is not None:
                raise ValueError("backend is already attached")
            if not self.wal.is_open:
                self.wal.open()
            self.engine = engine
            engine.storage_backend = self
            if not self._checkpoint_seqs():
                self.checkpoint()
            self._db_listener = self._on_update
            self._rule_listener = self._on_rule
            engine.db.add_listener(self._db_listener)
            engine.add_rule_listener(self._rule_listener)

    def detach(self) -> None:
        with self._mutex:
            if self.engine is None:
                return
            if self._db_listener is not None:
                self.engine.db.remove_listener(self._db_listener)
            if self._rule_listener is not None:
                self.engine.remove_rule_listener(self._rule_listener)
            if getattr(self.engine, "storage_backend", None) is self:
                self.engine.storage_backend = None
            self.engine = None
            self._db_listener = self._rule_listener = None

    # ------------------------------------------------------------------
    # Journaling (listener side)
    # ------------------------------------------------------------------

    def _on_update(self, event: UpdateEvent) -> None:
        body = record_for_event(event)
        if body is None:
            return
        with self._mutex:
            self.wal.append(body)
            if event.kind is UpdateKind.SCHEMA:
                # Schema evolution is snapshotted, not replayed.
                self.checkpoint()
                return
            self._since_checkpoint += 1
            if self.checkpoint_every is not None and \
                    self._since_checkpoint >= self.checkpoint_every:
                self.checkpoint()

    def _on_rule(self, action: str, rule, mode) -> None:
        mode_value = mode.value if mode is not None \
            else rule_mode(self.engine, rule)
        if action == "removed":
            mode_value = None
        with self._mutex:
            self.wal.append(record_for_rule(action, rule, mode_value))
            self._since_checkpoint += 1

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the attached session; returns the WAL watermark the
        checkpoint covers (every record with ``seq`` at or below it is
        folded into the snapshot)."""
        with self._mutex:
            if self.engine is None:
                raise ValueError("no engine attached")
            self.wal.sync()
            seq = self.wal.last_seq
            # The document below is a second copy of the session.  A
            # dropped session (one recovered and let go, say) is cyclic
            # garbage only the collector frees; whether it runs before
            # this copy is built is chance, and when it does not the
            # two stack — a quarter more peak memory in one run of
            # three on a 20k-object store.  Collect first.
            gc.collect()
            doc = session_to_dict(self.engine)
            doc["wal_seq"] = seq
            self._write_checkpoint(seq, doc)
            self._since_checkpoint = 0
            return seq

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def has_state(self) -> bool:
        """True when the store holds at least one checkpoint (i.e.
        :meth:`recover` can produce a session)."""
        return bool(self._checkpoint_seqs())

    def recover(self):
        """Rebuild the newest durable session state: latest checkpoint
        plus the WAL tail beyond its watermark.  Returns a fresh,
        *unattached* :class:`~repro.rules.engine.RuleEngine`."""
        return self.restore_to(None)

    def restore_to(self, seq: Optional[int]):
        """Rebuild the session as of event offset ``seq`` (``None``:
        the newest durable state)."""
        if not self.wal.is_open:
            self.wal.open()
        seqs = self._checkpoint_seqs()
        if not seqs:
            raise DataError(
                f"storage at {self.root} has no checkpoint to recover "
                f"from (was a session ever attached?)")
        if seq is None:
            seq = self.wal.last_seq
            base_candidates = seqs
        else:
            base_candidates = [s for s in seqs if s <= seq]
            if not base_candidates:
                raise DataError(
                    f"no checkpoint at or before offset {seq} "
                    f"(oldest is {min(seqs)}; history may have been "
                    f"compacted)")
        base = max(base_candidates)
        doc = self._load_checkpoint(base)
        engine = session_from_dict(doc)
        for body in self.wal.records(start=base, end=seq):
            apply_record(engine, body)
        return engine

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Drop history covered by the newest checkpoint: older
        checkpoints are deleted and the WAL is rewritten (atomically)
        to hold only records beyond the watermark.  Point-in-time
        restore below the newest checkpoint becomes impossible."""
        with self._mutex:
            seqs = self._checkpoint_seqs()
            if not seqs:
                raise DataError("nothing to compact: no checkpoint")
            keep = max(seqs)
            kept_records = 0
            self.wal.sync()
            tmp = self.wal.path.with_suffix(".compact.tmp")
            with open(tmp, "wb") as handle:
                for body in self.wal.records(start=keep):
                    handle.write(encode_record(body))
                    kept_records += 1
                handle.flush()
                os.fsync(handle.fileno())
            was_open = self.wal.is_open
            next_seq = self.wal._next_seq
            self.wal.close()
            os.replace(tmp, self.wal.path)
            # Reopening re-validates the rewritten log and resets its
            # record count.
            self.wal.open()
            self.wal._next_seq = max(self.wal._next_seq, next_seq)
            if not was_open:
                self.wal.close()
            dropped = 0
            for old in seqs:
                if old != keep:
                    self._delete_checkpoint(old)
                    dropped += 1
            return {"checkpoint": keep, "dropped_checkpoints": dropped,
                    "wal_records": kept_records}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        seqs = self._checkpoint_seqs()
        return {
            "kind": self.kind,
            "root": str(self.root),
            "wal_records": self.wal.record_count,
            "wal_last_seq": self.wal.last_seq,
            "wal_bytes": self.wal.size_bytes(),
            "checkpoints": len(seqs),
            "last_checkpoint_seq": max(seqs) if seqs else None,
            "attached": self.engine is not None,
        }

    # ------------------------------------------------------------------
    # Checkpoint persistence (subclass responsibility)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _write_checkpoint(self, seq: int, doc: Dict[str, Any]) -> None:
        """Persist ``doc`` as the checkpoint watermarked ``seq``,
        atomically: a crash mid-write must leave prior checkpoints
        fully intact and this one absent."""

    @abc.abstractmethod
    def _checkpoint_seqs(self) -> List[int]:
        """The watermarks of every durable checkpoint, unsorted."""

    @abc.abstractmethod
    def _load_checkpoint(self, seq: int) -> Dict[str, Any]:
        """The full session document of checkpoint ``seq``."""

    @abc.abstractmethod
    def _delete_checkpoint(self, seq: int) -> None:
        """Remove one checkpoint (compaction)."""
