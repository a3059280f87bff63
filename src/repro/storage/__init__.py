"""Persistence: JSON serialization for schemas, databases, subdatabases
and whole deductive sessions.

The paper's prototype ran against a persistent OO DBMS; this subpackage
gives the library durable storage so applications can close and reopen a
deductive database:

* :func:`schema_to_dict` / :func:`schema_from_dict` — the S-diagram,
* :func:`database_to_dict` / :func:`database_from_dict` — extents and
  links with **OID values preserved** (derived subdatabase snapshots and
  external references stay valid across a save/load cycle),
* :func:`subdatabase_to_dict` / :func:`subdatabase_from_dict` —
  materialized derived subdatabases including their induced
  generalization records,
* :func:`save_session` / :func:`load_session` — a complete
  :class:`~repro.rules.engine.RuleEngine`: schema, data, rule texts,
  per-target evaluation modes, and (optionally) materialized results.

The format is a single versioned JSON document; see ``FORMAT_VERSION``.
Custom D-class ``check`` predicates are *not* serializable (they are
arbitrary Python callables) — domains round-trip as their base type, a
loud warning is recorded in the document, and the warning is re-raised
(:class:`StoredSchemaWarning`) when the document is loaded.

Durable, incremental persistence lives in :mod:`repro.storage.backends`:
an append-only, CRC'd write-ahead log of update events paired with
checkpointed session snapshots — crash recovery by checkpoint-load +
WAL-replay and point-in-time restore to any event offset.  Checkpoints
are whole-session JSON documents in the same layout
:func:`save_session` writes, streamed to disk; it is the one durable
format.
"""

from repro.storage.atomic import atomic_write_text
from repro.storage.backends import (
    JsonBackend,
    StorageBackend,
    WriteAheadLog,
    open_backend,
)
from repro.storage.serialize import (
    FORMAT_VERSION,
    StoredSchemaWarning,
    database_from_dict,
    database_to_dict,
    schema_from_dict,
    schema_to_dict,
    subdatabase_from_dict,
    subdatabase_to_dict,
)
from repro.storage.session import load_session, save_session

__all__ = [
    "FORMAT_VERSION",
    "JsonBackend",
    "StorageBackend",
    "StoredSchemaWarning",
    "WriteAheadLog",
    "atomic_write_text",
    "schema_to_dict",
    "schema_from_dict",
    "database_to_dict",
    "database_from_dict",
    "open_backend",
    "subdatabase_to_dict",
    "subdatabase_from_dict",
    "save_session",
    "load_session",
]
