"""Cross-query result caching keyed by fingerprint + version vector.

A repeated query costs a full join evaluation even when nothing it reads
has changed — and under the extent, link and attribute stamps of
:class:`~repro.model.database.Database`, "nothing it reads has changed"
is checkable per :class:`~repro.oql.footprint.Footprint` instead of per
database.  This module provides the two pieces the evaluator composes:

* :func:`fingerprint` — a canonical string for a query's AST (context
  expression + Where conditions).  Every AST node is a frozen dataclass
  with a deterministic ``repr``, so equal fingerprints mean equal
  queries, independent of the result name the caller picked;
* :class:`ResultCache` — a byte-bounded LRU mapping
  ``(kind, fingerprint)`` to ``(version vector, value)``.  A lookup
  hits only when the stored vector equals the current vector of the
  query's footprint, so a write outside it evicts nothing and
  invalidation is exact: vector mismatch ⇒ miss (the stale entry is
  dropped on the spot).

Eligibility is the caller's job: only queries whose every class
reference is a *base* reference are keyed this way (derived
subdatabase contents carry no stamps — their footprint is the wildcard
— so those queries bypass the cache).  Coherence under snapshots is by
construction — a
:class:`~repro.subdb.snapshot.DatabaseSnapshot` pins its vector at
creation, so every lookup against a snapshot sees constant versions.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.oql.ast import ContextExpr, WhereCond
from repro.subdb.subdatabase import Subdatabase

#: Default capacity handed out when the cache is enabled without an
#: explicit budget (the shell's ``\cache on``).
DEFAULT_CACHE_BYTES = 16 << 20


def fingerprint(expr: ContextExpr, where: Iterable[WhereCond]) -> str:
    """A canonical key for (context expression, where conditions).

    Built from ``repr`` of the frozen AST dataclasses: field names and
    values are spelled out, so ``Literal(1)`` and ``Literal('1')`` (or a
    bare class vs. an aliased one) never collide the way a rendered
    string might.
    """
    return repr((expr, tuple(where)))


def clone_result(subdb: Subdatabase, name: str) -> Subdatabase:
    """A rename-on-read copy of a cached result.

    A columnar template shares its read-only columns and tables (each
    clone decodes independently and lazily); a decoded template shares
    the immutable patterns while the constructor copies the set.  Either
    way the cached template can never be corrupted through a serving.
    """
    if subdb._columns is not None:
        return Subdatabase.from_columns(name, subdb.intension,
                                        subdb._columns, subdb._tables,
                                        subdb.derived_info, ordered=True)
    return Subdatabase(name, subdb.intension, subdb._patterns,
                       subdb.derived_info)


def result_nbytes(subdb: Subdatabase) -> int:
    """A cached result's footprint: exact for a columnar result (its
    columns plus a fixed envelope), a deliberate overestimate for one
    built from patterns (per-row tuple + per-slot int/OID)."""
    columns = subdb._columns
    if columns is not None:
        return 256 + sum(col.nbytes for col in columns)
    width = max(len(subdb.intension), 1)
    return 256 + len(subdb) * (56 + 24 * width)


class ResultCache:
    """A byte-bounded LRU of vector-validated entries.

    Entries are ``key -> (vector, value, nbytes)``.  :meth:`lookup`
    returns the value only when the caller's current vector equals the
    stored one; on mismatch the entry is dropped (it can never become
    valid again — versions are monotonic).  :meth:`store` evicts from
    the LRU tail until the new entry fits.  Counters are cumulative for
    the cache's lifetime (the shell's ``\\cache stats``); per-query
    deltas live in ``EvaluationMetrics``.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES,
                 enabled: bool = True):
        self.max_bytes = max_bytes
        self.enabled = enabled and max_bytes > 0
        self._entries: "OrderedDict[Any, Tuple[Tuple[int, ...], Any, int]]" \
            = OrderedDict()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Any,
               vector: Tuple[int, ...]) -> Optional[Any]:
        """The cached value for ``key`` at exactly ``vector``, or
        ``None`` (counted as a miss; a vector mismatch also drops the
        stale entry)."""
        entry = self._entries.get(key)
        if entry is not None:
            if entry[0] == vector:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            del self._entries[key]
            self.bytes_used -= entry[2]
            self.invalidations += 1
        self.misses += 1
        return None

    def store(self, key: Any, vector: Tuple[int, ...], value: Any,
              nbytes: int) -> bool:
        """Insert (replacing any entry under ``key``); returns False
        when the value alone exceeds the whole budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes_used -= old[2]
        if nbytes > self.max_bytes:
            return False
        while self._entries and self.bytes_used + nbytes > self.max_bytes:
            _, (_, _, evicted_bytes) = self._entries.popitem(last=False)
            self.bytes_used -= evicted_bytes
            self.evictions += 1
        self._entries[key] = (vector, value, nbytes)
        self.bytes_used += nbytes
        return True

    def drop(self, key: Any) -> None:
        """Remove one entry by key (definition-level invalidation, e.g.
        a rule-base change that leaves version vectors untouched)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.bytes_used -= entry[2]
            self.invalidations += 1

    def clear(self) -> None:
        self._entries.clear()
        self.bytes_used = 0

    def stats(self) -> Dict[str, int]:
        return {
            "enabled": int(self.enabled),
            "entries": len(self._entries),
            "bytes_used": self.bytes_used,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
