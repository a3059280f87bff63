"""The JSON checkpoint store — the one durable format: whole-session
JSON documents on the backend interface.

Layout under the backend root::

    wal.jsonl                 the shared write-ahead log
    checkpoint-00000042.json  one atomic session snapshot per watermark

Checkpoints are streamed through the same temp-file/fsync/rename writer
as :func:`repro.storage.session.save_session`, in the same layout (plus
the ``wal_seq`` watermark); stray ``*.tmp`` files from a crash are
ignored by recovery and swept on open.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List

from repro.errors import DataError
from repro.storage.atomic import atomic_write_text
from repro.storage.backends.base import StorageBackend
from repro.storage.session import encode_session

_PREFIX = "checkpoint-"
_SUFFIX = ".json"


class JsonBackend(StorageBackend):
    """Whole-session JSON snapshots plus the WAL."""

    kind = "json"

    def open(self):
        for stray in self.root.glob("*.tmp"):
            try:
                stray.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
        return super().open()

    def _checkpoint_path(self, seq: int):
        return self.root / f"{_PREFIX}{seq:08d}{_SUFFIX}"

    def _write_checkpoint(self, seq: int, doc: Dict[str, Any]) -> None:
        self._fault("checkpoint.before_write")
        atomic_write_text(self._checkpoint_path(seq), self._stream(doc))
        self._fault("checkpoint.after_write")

    def _stream(self, doc: Dict[str, Any]) -> Iterator[str]:
        chunks = encode_session(doc)
        yield next(chunks)
        # The writer has the first chunk and the temp sibling is open.
        self._fault("checkpoint.mid_write")
        yield from chunks

    def _checkpoint_seqs(self) -> List[int]:
        seqs = []
        for path in self.root.glob(f"{_PREFIX}*{_SUFFIX}"):
            stem = path.name[len(_PREFIX):-len(_SUFFIX)]
            try:
                seqs.append(int(stem))
            except ValueError:  # pragma: no cover - foreign file
                continue
        return seqs

    def _load_checkpoint(self, seq: int) -> Dict[str, Any]:
        path = self._checkpoint_path(seq)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            raise DataError(f"checkpoint {seq} missing at {path}") \
                from None

    def _delete_checkpoint(self, seq: int) -> None:
        try:
            os.unlink(self._checkpoint_path(seq))
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
