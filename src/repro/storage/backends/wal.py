"""The append-only write-ahead log.

One WAL file is a sequence of newline-terminated records::

    <crc32:08x> <canonical JSON body>\\n

The CRC covers the exact JSON bytes, so any torn or bit-rotted record is
detected on open.  Bodies are canonical (``sort_keys``, compact
separators) so a record's bytes are a pure function of its content.
Every body carries a ``seq`` — the strictly increasing event offset that
checkpoints watermark and point-in-time restore addresses.

Durability is per record: ``append`` fsyncs before it returns, through
``sync()``, the barrier that closing, checkpointing and compacting also
pass.  Group commit is ``Database.batch``: a batch block journals as
one record — and therefore one fsync — for many mutations.

Recovery semantics on open: records are validated in order; the first
record that fails (truncated tail, bad CRC, unparsable JSON, or a
non-monotonic ``seq``) and *everything after it* is discarded and the
file is truncated back to the last valid byte — the standard torn-tail
rule of physical logging.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.storage.atomic import fsync_dir


def encode_record(body: Dict[str, Any]) -> bytes:
    """The canonical on-disk bytes of one record (including newline)."""
    payload = json.dumps(body, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x " % crc + payload + b"\n"


def decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse and CRC-check one complete line; ``None`` if invalid."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the newline is the commit marker
    line = line[:-1]
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        body = json.loads(payload)
    except ValueError:
        return None
    if not isinstance(body, dict) or "seq" not in body:
        return None
    return body


@dataclass
class WalOpenReport:
    """What opening an existing log found."""

    records: int = 0
    last_seq: int = 0
    truncated_bytes: int = 0
    truncated_records: int = 0


class WriteAheadLog:
    """An append-only, CRC-checked, JSON-lines event log."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = None
        self._pending = False  # appended bytes not yet fsynced
        self._next_seq = 1
        self._records = 0  # valid records in the file, kept by append
        self.report = WalOpenReport()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self) -> WalOpenReport:
        """Validate any existing log (truncating a torn tail) and open
        the file for appending."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        report = WalOpenReport()
        valid_end = 0
        if self.path.exists():
            data = self.path.read_bytes()
            offset = 0
            last_seq = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                line = data[offset:] if newline < 0 \
                    else data[offset:newline + 1]
                body = decode_record(line)
                if body is None or int(body["seq"]) <= last_seq:
                    break
                last_seq = int(body["seq"])
                report.records += 1
                offset += len(line)
            valid_end = offset
            if valid_end < len(data):
                report.truncated_bytes = len(data) - valid_end
                report.truncated_records = \
                    data[valid_end:].count(b"\n") or 1
                warnings.warn(
                    f"WAL {self.path}: discarding "
                    f"{report.truncated_bytes} trailing bytes "
                    f"(torn or corrupt records)", RuntimeWarning,
                    stacklevel=2)
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_end)
                    handle.flush()
                    os.fsync(handle.fileno())
            report.last_seq = last_seq
        self._next_seq = report.last_seq + 1
        self._records = report.records
        self.report = report
        self._handle = open(self.path, "ab")
        if not report.records:
            fsync_dir(self.path.parent)
        return report

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    @property
    def is_open(self) -> bool:
        return self._handle is not None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        """How many records the log holds, without reading it: the
        validated count at open plus every append since."""
        return self._records

    @property
    def last_seq(self) -> int:
        """The offset of the newest appended record (0 when empty)."""
        return self._next_seq - 1

    def append(self, body: Dict[str, Any]) -> int:
        """Stamp ``body`` with the next offset, append it and fsync it;
        returns the offset, durable by then."""
        if self._handle is None:
            raise ValueError(f"WAL {self.path} is not open")
        seq = self._next_seq
        record = dict(body)
        record["seq"] = seq
        self._handle.write(encode_record(record))
        self._next_seq += 1
        self._records += 1
        self._pending = True
        self.sync()
        return seq

    def sync(self) -> None:
        """Flush and fsync everything appended so far (a no-op when the
        last append's own sync went through)."""
        if self._handle is None or not self._pending:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending = False

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def records(self, start: int = 0,
                end: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        """Iterate the durable records with ``start < seq <= end``.

        Reads from disk (after draining the write buffer), so an open
        writer sees its own appends.
        """
        if self._handle is not None and self._pending:
            self._handle.flush()
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            for line in handle:
                body = decode_record(line)
                if body is None:
                    break
                seq = int(body["seq"])
                if seq <= start:
                    continue
                if end is not None and seq > end:
                    break
                yield body

    def size_bytes(self) -> int:
        if self._handle is not None:
            self._handle.flush()
        return self.path.stat().st_size if self.path.exists() else 0
