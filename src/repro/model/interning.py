"""Per-class OID interning: dense integer ids for compact execution.

The pattern-matching engine's hot paths — frontier joins, subsumption,
pattern dedup — historically operated on Python sets of :class:`OID`
objects, paying a Python-level ``__hash__``/``__eq__`` dispatch per
element.  An :class:`InternTable` maps the extent of one class to dense
integers ``0..n-1`` (and back), so those same operations run over plain
ints and small-int tuples at C speed, and adjacency can be stored
columnar (CSR offsets + neighbor arrays, see
:mod:`repro.subdb.adjindex`).

Dense ids are permanent.  An INSERT appends the new member (the OID
allocator is monotonic, so it sorts last); a DELETE tombstones the
member's id (:meth:`InternTable.without`) instead of renumbering every
id above it, and the readers that walk an id range skip dead ids.  The
owning store compacts — rebuilds the table from its extent, under a new
:attr:`~InternTable.layout` — once a table's dead ids reach its live
count, which keeps a DELETE amortized O(1).

Tables are owned by a per-universe store that validates them against the
database's version counter / update events; this module is deliberately
ignorant of :class:`~repro.subdb.universe.Universe` (the model layer
must not depend on the subdatabase layer) — the store supplies extents
and validity tokens.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.model.oid import OID

#: Layout numbers: one per table built from an extent (see
#: :attr:`InternTable.layout`).
_LAYOUTS = count()


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
    member stays in them, its id marked in :attr:`dead` (a tombstone),
    so ``len(table)`` is the *physical* id-space size — one past the
    largest id ever handed out, dead ids included — and
    :attr:`live_count` the extent size.  Every id range a reader walks
    (:attr:`full_id_set`, :meth:`live_ids`) skips dead ids.
    """

    __slots__ = ("key", "oids", "values", "index", "token", "lent",
                 "labels", "dead", "layout", "_shared", "_full_ids",
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
        #: Set once a pinned snapshot shares this table: the owning
        #: store then appends to a :meth:`fork` and tombstones in a
        #: twin (:meth:`without`), never in this object.
        self.lent = False
        #: ``labels[i]`` is ``repr(oids[i])`` — built on first render
        #: (:meth:`label_column`), then kept in step by :meth:`append`.
        #: Always a prefix of the full column; a short one is rebuilt
        #: when next read.
        self.labels: Optional[list] = None
        #: Dense ids of deleted members.  Only ever grows on one table
        #: object (the store compacts by building a new table), so its
        #: size stamps what is cached from it.
        self.dead: Set[int] = set()
        #: The id assignment this table shares with its forks and twins;
        #: a new build numbers its extent afresh and gets a new one.
        self.layout = next(_LAYOUTS)
        #: True while ``oids``/``values``/``index``/``labels`` are
        #: shared with the lent table this one is a twin of.
        self._shared = False
        self._full_ids: Optional[Tuple[int, int, FrozenSet[int]]] = None
        self._live_ids: Optional[Tuple[FrozenSet[int], array]] = None

    def _copy(self, share: bool) -> "InternTable":
        twin = InternTable.__new__(InternTable)
        twin.key = self.key
        twin.token = self.token
        twin.lent = False
        twin.dead = set(self.dead)
        twin.layout = self.layout
        twin._full_ids = self._full_ids
        twin._live_ids = self._live_ids
        twin._shared = share
        twin.oids = self.oids
        twin.values = self.values
        twin.index = self.index
        twin.labels = self.labels
        if not share:
            twin._own_columns()
        return twin

    def _own_columns(self) -> None:
        self.oids = self.oids[:]
        self.values = self.values[:]
        self.index = self.index.copy()
        labels = self.labels
        self.labels = None if labels is None else labels[:]
        self._shared = False

    def fork(self) -> "InternTable":
        """A private shallow copy (same OID objects, own columns,
        encode map and tombstones) for the owning store to go on
        appending to while snapshots keep reading this one."""
        return self._copy(share=False)

    def append(self, oid: OID) -> int:
        """Extend the bijection with a freshly inserted object.

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
        if self._shared:
            self._own_columns()
        i = len(self.oids)
        self.oids.append(oid)
        self.values.append(oid.value)
        self.index[oid.value] = i
        labels = self.labels
        # Extend only a column that is exactly the old extent: one built
        # after the ``oids`` append above already holds ``oid``, and a
        # short one is rebuilt by the next reader.
        if labels is not None and len(labels) == i:
            labels.append(repr(oid))
        return i

    def without(self, oid: OID) -> "InternTable":
        """Tombstone ``oid``'s dense id; returns the table holding the
        tombstone.

        Nothing is renumbered or copied: the id is added to
        :attr:`dead` of this table — or, when it is lent, of a twin
        that shares every column with it and owns only its tombstones
        (its columns are copied on its first :meth:`append`).  Rows
        interned before the delete keep decoding, and the snapshots
        reading a lent table keep seeing ``oid`` alive.
        """
        table = self._copy(share=True) if self.lent else self
        table.dead.add(self.index[oid.value])
        return table

    def label_column(self) -> list:
        """``repr`` of every member, in dense order — what a rendered
        row prints for each id, with no OID touched per row.

        Built whole on first use and published by one assignment, never
        extended in place: the owning store may be appending to this
        table (:meth:`append` keeps a published column in step) while
        another thread renders a result interned against it.  A column
        shorter than the extent lost such a race and is rebuilt."""
        labels = self.labels
        if labels is None or len(labels) < len(self.oids):
            labels = self.labels = [repr(oid) for oid in self.oids]
        return labels

    def __len__(self) -> int:
        """The physical id-space size, dead ids included — every dense
        id is below it, which is what lets it stand in for Null when
        rows are sorted (:meth:`Subdatabase.sorted_columns`)."""
        return len(self.oids)

    @property
    def live_count(self) -> int:
        """The number of live members (the extent size)."""
        return len(self.oids) - len(self.dead)

    def encode(self, oid: OID) -> Optional[int]:
        """The dense id of ``oid``, or ``None`` if outside the extent
        (never interned, or dead)."""
        i = self.index.get(oid.value)
        if i is not None and self.dead and i in self.dead:
            return None
        return i

    def encode_set(self, oids: Iterable[OID]) -> FrozenSet[int]:
        """Dense ids of every member of ``oids`` that is in the extent
        (``oids`` holds live objects, so no id found is dead)."""
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
        n = len(self.oids)
        if cached is not None and cached[0] == n \
                and cached[1] == len(self.dead):
            return cached[2]
        # One C-level copy: the owning store may tombstone meanwhile.
        dead = frozenset(self.dead)
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
                f"{len(self.dead)} dead)")


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
        """Share every table of ``other`` (marking each lent, so its
        owner forks before appending); returns how many."""
        # One atomic copy: ``other``'s owner may be filling its map on
        # another thread, outside every lock the caller holds.
        tables = other._tables.copy()
        for table in tables.values():
            table.lent = True
        self._tables.update(tables)
        return len(tables)

    def build(self, key: Any, extent: Iterable[OID],
              token: Any = None) -> InternTable:
        table = InternTable(key, extent, token)
        self._tables[key] = table
        return table

    def replace(self, key: Any, table: InternTable) -> None:
        """Swap in a successor table (a fork or a tombstone twin of a
        lent one): holders of the old object keep a consistent
        snapshot; new work sees the new one."""
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
        return sum(len(table.dead) for table in self._tables.copy().values())

    def __len__(self) -> int:
        return len(self._tables)
