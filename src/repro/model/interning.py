"""Per-class OID interning: dense integer ids for compact execution.

The pattern-matching engine's hot paths — frontier joins, subsumption,
pattern dedup — historically operated on Python sets of :class:`OID`
objects, paying a Python-level ``__hash__``/``__eq__`` dispatch per
element.  An :class:`InternTable` maps the extent of one class to dense
integers ``0..n-1`` (and back), so those same operations run over plain
ints and small-int tuples at C speed, and adjacency can be stored
columnar (CSR offsets + neighbor arrays, see
:mod:`repro.subdb.adjindex`).

Tables are owned by a per-universe store that validates them against the
database's version counter / update events; this module is deliberately
ignorant of :class:`~repro.subdb.universe.Universe` (the model layer
must not depend on the subdatabase layer) — the store supplies extents
and validity tokens.
"""

from __future__ import annotations

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
    """

    __slots__ = ("key", "oids", "values", "index", "token", "_full_ids",
                 "lent", "labels")

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
        self._full_ids: Optional[FrozenSet[int]] = None
        #: Set once a pinned snapshot shares this table: the owning
        #: store then appends to a :meth:`fork`, never to this object.
        self.lent = False
        #: ``labels[i]`` is ``repr(oids[i])`` — built on first render
        #: (:meth:`label_column`), then kept in step by :meth:`append`,
        #: :meth:`fork` and :meth:`without`.  Always a prefix of the
        #: full column; a short one is rebuilt when next read.
        self.labels: Optional[list] = None

    def fork(self) -> "InternTable":
        """A private shallow copy (same OID objects, own columns and
        encode map) for the owning store to go on appending to while
        snapshots keep reading this one."""
        twin = InternTable.__new__(InternTable)
        twin.key = self.key
        twin.oids = self.oids[:]
        twin.values = self.values[:]
        twin.index = self.index.copy()
        twin.token = self.token
        twin._full_ids = self._full_ids
        twin.lent = False
        labels = self.labels
        twin.labels = None if labels is None else labels[:]
        return twin

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
        i = len(self.oids)
        self.oids.append(oid)
        self.values.append(oid.value)
        self.index[oid.value] = i
        self._full_ids = None
        labels = self.labels
        # Extend only a column that is exactly the old extent: one built
        # after the ``oids`` append above already holds ``oid``, and a
        # short one is rebuilt by the next reader.
        if labels is not None and len(labels) == i:
            labels.append(repr(oid))
        return i

    def without(self, oid: OID) -> "InternTable":
        """A NEW table over the extent minus ``oid``.

        Deletion shifts dense ids, so it must not mutate in place: rows
        interned against *this* table (deferred subdatabase decodes)
        keep their snapshot while new work re-interns against the
        replacement.
        """
        table = InternTable(self.key,
                            (o for o in self.oids if o is not oid
                             and o.value != oid.value),
                            self.token)
        labels = self.labels
        dead = self.index.get(oid.value)
        if labels is not None and dead is not None:
            table.labels = labels[:dead] + labels[dead + 1:]
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
        return len(self.oids)

    def encode(self, oid: OID) -> Optional[int]:
        """The dense id of ``oid``, or ``None`` if outside the extent."""
        return self.index.get(oid.value)

    def encode_set(self, oids: Iterable[OID]) -> FrozenSet[int]:
        """Dense ids of every member of ``oids`` that is in the extent."""
        index = self.index
        return frozenset(index[o.value] for o in oids
                         if o.value in index)

    def decode(self, i: int) -> OID:
        return self.oids[i]

    @property
    def full_id_set(self) -> FrozenSet[int]:
        """All dense ids as a frozenset (cached — the complement operand
        of ``!`` joins over an unfiltered extent)."""
        ids = self._full_ids
        if ids is None:
            ids = self._full_ids = frozenset(range(len(self.oids)))
        return ids

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"InternTable({self.key!r}, {len(self.oids)} oids)"


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
        """Swap in a rebuilt table (delta deletion): holders of the old
        object keep a consistent snapshot; new work sees the new one."""
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

    def __len__(self) -> int:
        return len(self._tables)
