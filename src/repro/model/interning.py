"""Per-class OID interning: dense integer ids for compact execution.

The pattern-matching engine's hot paths — frontier joins, subsumption,
pattern dedup — historically operated on Python sets of :class:`OID`
objects, paying a Python-level ``__hash__``/``__eq__`` dispatch per
element.  An :class:`InternTable` maps the extent of one class to dense
integers ``0..n-1`` (and back), so those same operations run over plain
ints and small-int tuples at C speed, and adjacency can be stored
columnar (CSR offsets + neighbor arrays, see
:mod:`repro.subdb.adjindex`).

Dense ids are permanent and tables append-only.  An INSERT appends the
new member (the OID allocator is monotonic, so it sorts last) with the
version it was born at; a DELETE records the version the member's id
died at (:meth:`InternTable.without`) — a soft-delete column holding
*when* a row died — instead of renumbering every id above it, and the
readers that walk an id range skip dead ids.  The owning store compacts
— rebuilds the table from its extent — once a table's dead ids reach
its live count, which keeps a DELETE amortized O(1).  Nothing being
overwritten, a reader pinned at an older version shares the table and
reads it at its version (:meth:`InternTable.at`).

Tables are owned by a per-universe store that validates them against the
database's version counter / update events; this module is deliberately
ignorant of :class:`~repro.subdb.universe.Universe` (the model layer
must not depend on the subdatabase layer) — the store supplies extents,
validity tokens and versions.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_right
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.model.oid import OID


class InternTable:
    """A dense ``OID <-> int`` bijection over one class extent.

    ``oids[i]`` decodes dense id ``i``; ``index[oid.value]`` encodes an
    OID (keyed by the raw integer value so encoding costs one C-level
    dict probe instead of a Python-level ``OID.__hash__`` call).  The
    dense order is sorted by OID value, so the same data always interns
    identically — differential tests rely on this determinism — and
    sorting dense-id rows sorts them by OID value, which is what lets a
    result render without decoding (:meth:`label_column`).

    Dense ids are permanent: the columns only ever grow.  A deleted
    member stays in them, the version it died at recorded in
    :attr:`died` (a tombstone), so ``len(table)`` is the *physical*
    id-space size — one past the largest id ever handed out, dead ids
    included — and :attr:`live_count` the extent size.  Every id range
    a reader walks (:attr:`full_id_set`, :meth:`live_ids`) skips dead
    ids.
    """

    __slots__ = ("key", "oids", "values", "index", "token", "labels",
                 "table", "n", "cold", "born", "died", "_full_ids",
                 "_live_ids")

    def __init__(self, key: Any, extent: Iterable[OID],
                 token: Any = None):
        self.key = key
        self.oids: list = sorted(extent, key=lambda o: o.value)
        #: ``values[i]`` is ``oids[i].value`` — the raw-int decode column
        #: used when hashing decoded rows without touching OID objects.
        self.values: list = [oid.value for oid in self.oids]
        self.index: Dict[int, int] = {
            value: i for i, value in enumerate(self.values)}
        #: Validity token compared by identity by the owning store
        #: (``None`` for base-class tables, the subdatabase object for
        #: derived extents).
        self.token = token
        #: ``labels[i]`` is ``repr(oids[i])`` — built on first render
        #: (:meth:`label_column`), then kept in step by :meth:`append`.
        #: Always a prefix of the full column; a short one is rebuilt
        #: when next read.
        self.labels: Optional[list] = None
        #: ``None``, or — for a view (:meth:`at`) — the shared table
        #: whose columns these are.  (Not ``self``: a cycle would keep
        #: every dropped table alive until the cyclic collector ran.)
        self.table: Optional[InternTable] = None
        self.n = self.cold = len(self.oids)
        #: ``born[k]``: the database version id ``cold + k`` was appended
        #: at (non-decreasing).  The ``cold`` members the table was built
        #: with count as old as the table: every reader that can reach
        #: it holds the extent it was built from.
        self.born = array("q")
        #: Dense id -> the database version it died at, in the order
        #: the deaths happened (so the last value is the latest).
        self.died: Dict[int, int] = {}
        self._full_ids: Optional[Tuple[int, int, FrozenSet[int]]] = None
        self._live_ids: Optional[Tuple[FrozenSet[int], array]] = None

    def append(self, oid: OID, version: int = 0) -> int:
        """Extend the bijection with an object inserted at ``version``.

        Only legal when ``oid`` sorts after every existing member (the
        OID allocator is monotonic, so inserts always do) — existing
        dense ids keep their meaning, which is what lets the store apply
        an INSERT as a delta instead of rebuilding, and what keeps rows
        already interned against this table decodable.  Returns the new
        dense id.
        """
        if self.values and oid.value <= self.values[-1]:
            raise ValueError(
                f"append out of order: {oid.value} <= {self.values[-1]}")
        i = len(self.oids)
        self.oids.append(oid)
        self.values.append(oid.value)
        self.index[oid.value] = i
        self.born.append(version)
        self.n = i + 1
        labels = self.labels
        # Extend only a column that is exactly the old extent: one built
        # after the ``oids`` append above already holds ``oid``, and a
        # short one is rebuilt by the next reader.
        if labels is not None and len(labels) == i:
            labels.append(repr(oid))
        return i

    def without(self, oid: OID, version: int = 0) -> None:
        """Tombstone ``oid``'s dense id as dead since ``version``.

        Nothing is renumbered or copied: rows interned before the
        delete keep decoding, and a reader pinned before ``version``
        still reads the id as alive (:meth:`at`)."""
        self.died[self.index[oid.value]] = version

    def at(self, version: int) -> "InternTable":
        """The shared table as a reader pinned at ``version`` reads it:
        a view over the same columns whose id space holds the ids born
        by ``version`` and whose tombstones are the ids dead by then,
        taken with one C-level copy (no per-id filter when no one died
        since).  Both are fixed here, so later writes to the table never
        reach a reader holding the view.  A view is never appended to
        or tombstoned in."""
        table = self if self.table is None else self.table
        view = copy.copy(table)
        view.table = table
        view.n = table.cold + bisect_right(table.born, version)
        died = table.died.copy()
        if died and next(reversed(died.values())) > version:
            died = {i: when for i, when in died.items() if when <= version}
        view.died = died
        view._full_ids = view._live_ids = None
        return view

    def label_column(self) -> list:
        """``repr`` of every member, in dense order — what a rendered
        row prints for each id, with no OID touched per row.

        The shared table's column, built whole on first use and
        published by one assignment, never extended in place: the
        owning store may be appending to the table (:meth:`append`
        keeps a published column in step) while another thread renders
        a result interned against it.  A column shorter than the extent
        lost such a race and is rebuilt."""
        table = self if self.table is None else self.table
        labels = table.labels
        if labels is None or len(labels) < len(table.oids):
            labels = table.labels = [repr(oid) for oid in table.oids]
        return labels

    def __len__(self) -> int:
        """The physical id-space size, dead ids included — every dense
        id is below it."""
        return self.n

    @property
    def dead(self):
        """Dense ids of deleted members (a set-like view of
        :attr:`died`)."""
        return self.died.keys()

    @property
    def live_count(self) -> int:
        """The number of live members (the extent size)."""
        return self.n - len(self.died)

    def encode(self, oid: OID) -> Optional[int]:
        """The dense id of ``oid``, or ``None`` if outside the extent
        (never interned, unborn or dead)."""
        i = self.index.get(oid.value)
        if i is None or i >= self.n or i in self.died:
            return None
        return i

    def encode_set(self, oids: Iterable[OID]) -> FrozenSet[int]:
        """Dense ids of every member of ``oids`` that is in the extent
        (``oids`` holds objects alive at the reader's version, so no id
        found is dead or unborn)."""
        index = self.index
        return frozenset(index[o.value] for o in oids
                         if o.value in index)

    def decode(self, i: int) -> OID:
        return self.oids[i]

    @property
    def full_id_set(self) -> FrozenSet[int]:
        """All live dense ids as a frozenset (cached — the complement
        operand of ``!`` joins over an unfiltered extent)."""
        cached = self._full_ids
        n = self.n
        if cached is not None and cached[0] == n \
                and cached[1] == len(self.died):
            return cached[2]
        dead = frozenset(self.died.copy())
        ids = frozenset(range(n))
        if dead:
            ids -= dead
        self._full_ids = (n, len(dead), ids)
        return ids

    def live_ids(self) -> array:
        """All live dense ids, ascending (cached) — the anchor and the
        semi-join filter of an unfiltered slot whose table holds dead
        ids."""
        ids = self.full_id_set
        cached = self._live_ids
        if cached is None or cached[0] is not ids:
            cached = self._live_ids = (ids, array("q", sorted(ids)))
        return cached[1]

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"InternTable({self.key!r}, {self.live_count} oids, "
                f"{len(self.died)} dead)")


class OIDInterner:
    """A registry of intern tables keyed by extent identity.

    Keys are opaque to the interner except for the convention that
    base-class tables use ``("base", cls)`` — that is what
    :meth:`invalidate_classes` matches when an insert or delete event
    names the touched classes.  Subdatabase-extent tables are dropped by
    name via :meth:`invalidate_subdb` (and additionally self-invalidate
    through their ``token``, compared by the owning store).
    """

    def __init__(self) -> None:
        self._tables: Dict[Any, InternTable] = {}

    def get(self, key: Any) -> Optional[InternTable]:
        return self._tables.get(key)

    def adopt(self, other: "OIDInterner") -> int:
        """Share every table of ``other``; returns how many."""
        # One atomic copy: ``other``'s owner may be filling its map on
        # another thread, outside every lock the caller holds.
        tables = other._tables.copy()
        self._tables.update(tables)
        return len(tables)

    def build(self, key: Any, extent: Iterable[OID],
              token: Any = None) -> InternTable:
        table = InternTable(key, extent, token)
        self._tables[key] = table
        return table

    def replace(self, key: Any, table: InternTable) -> None:
        """Register ``table`` — one another store built — under
        ``key``."""
        self._tables[key] = table

    def drop(self, key: Any) -> None:
        self._tables.pop(key, None)

    def invalidate_classes(self, classes: Iterable[str]) -> None:
        """Drop the base tables of every named class (their extents
        changed: an object was inserted or deleted)."""
        for cls in classes:
            self._tables.pop(("base", cls), None)

    def invalidate_subdb(self, name: str) -> None:
        """Drop every table built over an extent of subdatabase ``name``."""
        stale = [key for key in self._tables
                 if key[0] != "base" and key[1] == name]
        for key in stale:
            del self._tables[key]

    def clear(self) -> None:
        self._tables.clear()

    def dead_ids(self) -> int:
        """Tombstoned ids held over all tables."""
        # One atomic copy, as in :meth:`adopt`.
        return sum(len(table.died) for table in self._tables.copy().values())

    def __len__(self) -> int:
        return len(self._tables)
