"""Columnar (CSR) adjacency indexes over interned OIDs.

For one resolved edge crossed in one direction, an
:class:`AdjacencyIndex` stores, per dense source id, the dense target
ids reachable across the edge — offsets + neighbors arrays, the classic
compressed-sparse-row layout.  Neighbor ids are pre-restricted to the
target class's extent, so a join hop is ``row(i)`` plus (when the slot
carries an intra-class condition) one membership filter over ints.

:class:`CompactStore` owns a universe's intern tables
(:mod:`repro.model.interning`) and adjacency indexes, built lazily and
invalidated *fine-grained* from database update events:

* INSERT *appends*: the OID allocator is monotonic, so a new object
  sorts after every interned id and each cached table of a touched
  class extends in place, recording the version it was born at;
  adjacency indexes over an extended source table gain one (empty, or
  identity-singleton) CSR row — nothing is rebuilt;
* DELETE *tombstones*: the version the object died at is recorded
  against its dense id in each touched table
  (:meth:`InternTable.without`) and nothing is renumbered: CSR arrays
  are left as they are — a dead source row is never reached, and the
  join executor masks dead target ids out of every gather — and value
  indexes drop only the victim's postings.  Once a table's dead ids
  reach its live count it is *compacted*: dropped with everything built
  over it, to be rebuilt cold from its extent on next use;
* ASSOCIATE / DISSOCIATE drop only the indexes of that link;
* SET_ATTRIBUTE touches nothing (tables cover unfiltered extents);
* subdatabase (re-)registration drops that subdatabase's entries;
* anything else (schema evolution, a plain schema edit, unobserved
  version drift inside an open ``batch`` block) conservatively clears
  everything.

A pinned snapshot's store does not rebuild any of this: it *adopts* the
live store's structures (:meth:`CompactStore.adopt`).  Intern tables
are append-only, so a pin shares the live table and reads it at its
pinned version (:meth:`InternTable.at`) while the live store goes on
appending and tombstoning in place.  CSR and value indexes are *lent*:
the steps above fork a lent index first — a copy the live store goes
on maintaining, while the snapshot keeps the original, which nothing
mutates again.  What a snapshot misses it builds *through* the live
store whenever the stamps of what the structure reads have not moved
since the pin (:meth:`CompactStore.through_lender`), so every later pin
inherits it; only a pin older than those stamps builds privately, from
its pinned pre-images.

Fine granularity is what lets the incremental maintainer *consume* the
same indexes: a single-link update leaves every other link's CSR valid,
so delta expansion after the event still runs over interned ints
(:meth:`CompactStore.adjacency_if_ready`).
"""

from __future__ import annotations

import threading
import weakref
from array import array
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.model.database import EMPTY_OIDS, UpdateEvent, UpdateKind
from repro.model.interning import InternTable, OIDInterner
from repro.subdb.attrindex import AttrIndexStore


class AdjacencyIndex:
    """CSR adjacency for one (edge, direction) between two intern tables.

    ``row(i)`` is the neighbor-id slice of source id ``i`` — target ids
    only ever reference ``tgt`` table members, in ascending order.
    """

    __slots__ = ("src", "tgt", "offsets", "neighbors", "link_key", "token",
                 "lent")

    def __init__(self, src: InternTable, tgt: InternTable,
                 rows: Sequence[Sequence[int]],
                 link_key: Optional[Tuple[str, str]] = None,
                 token: Any = None):
        self.src = src
        self.tgt = tgt
        offsets = array("q", [0])
        neighbors = array("q")
        for ids in rows:
            neighbors.extend(ids)
            offsets.append(len(neighbors))
        self.offsets = offsets
        self.neighbors = neighbors
        #: The base link key this index reads (``None`` for identity and
        #: derived-association indexes) — matched against
        #: ASSOCIATE/DISSOCIATE events.
        self.link_key = link_key
        #: Identity-compared validity token (the subdatabase object for
        #: derived-association indexes).
        self.token = token
        #: Set once a pinned snapshot shares this index: the owning
        #: store then appends to a :meth:`fork`, never to this object.
        self.lent = False

    def fork(self) -> "AdjacencyIndex":
        """A private copy (own CSR arrays) for the owning store to go
        on appending to while snapshots keep reading this one."""
        twin = AdjacencyIndex.__new__(AdjacencyIndex)
        twin.src = self.src
        twin.tgt = self.tgt
        twin.offsets = self.offsets[:]
        twin.neighbors = self.neighbors[:]
        twin.link_key = self.link_key
        twin.token = self.token
        twin.lent = False
        return twin

    def row(self, i: int) -> array:
        """Neighbor ids of source id ``i`` (ascending, may be empty;
        dead target ids included — see :class:`CompactStore`)."""
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def pair_count(self) -> int:
        return len(self.neighbors)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"AdjacencyIndex({self.src.key!r} -> {self.tgt.key!r}, "
                f"{len(self.neighbors)} pairs)")


class CompactStore:
    """Per-universe registry of intern tables + adjacency indexes."""

    def __init__(self, universe) -> None:
        self.universe = universe
        self.db = universe.db
        self.interner = OIDInterner()
        self._adj: Dict[Any, AdjacencyIndex] = {}
        #: Declared secondary value indexes (``\\index add``), maintained
        #: through the same event application as adjacency.
        self.attrs = AttrIndexStore(self)
        self._seen_version = self.db.version
        self._seen_generation = self.db.schema.generation
        #: A pinned store's view of each table, by key (:meth:`_read`).
        self._views: Dict[Any, InternTable] = {}
        #: Build/invalidation counters surfaced by benchmarks.
        self.tables_built = 0
        self.indexes_built = 0
        #: Delta-application counters: in-place INSERT appends, DELETE
        #: tombstones, and compactions (a table dropped once its dead
        #: ids reached its live count, rebuilt cold on next use).
        self.tables_appended = 0
        self.indexes_appended = 0
        self.tombstoned = 0
        self.compactions = 0
        #: Always 0: a DELETE no longer rebuilds any CSR index.  Kept
        #: because ``benchmarks/suite/workloads.py`` reads it.
        self.indexes_remapped = 0
        #: Sharing with pinned snapshots, counted on the live store:
        #: structures lent to pins, copy-on-write forks made before
        #: maintaining a lent CSR or value index, and snapshot misses
        #: served through this store (built here if absent, inherited
        #: by every later pin) or by a private build from pinned
        #: pre-images.
        self.adopted = 0
        self.forked = 0
        self.built_shared = 0
        self.built_private = 0
        #: The live store this (snapshot) store adopted from.
        self.lender: Optional[CompactStore] = None
        # Serializes pinned readers working on this store: they hold
        # only the database's *read* lock, which admits several.
        self._share_lock = threading.Lock()
        # Subscribe through a weakref so a forgotten Universe (tests
        # create many over one database) is not kept alive by the
        # listener list; a dead subscription unhooks itself on the next
        # event.
        self_ref = weakref.ref(self)
        db = self.db

        def _listener(event: UpdateEvent, _ref=self_ref, _db=db) -> None:
            store = _ref()
            if store is None:
                _db.remove_listener(_listener)
                return
            store._on_event(event)

        self._listener = _listener
        db.add_listener(_listener)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    @property
    def in_sync(self) -> bool:
        """False while mutations exist that no event reported yet (we
        are inside an open ``batch`` block) or after a plain schema edit;
        lookups then bypass and clear the caches rather than risk
        serving stale rows."""
        return self.db.version == self._seen_version \
            and self.db.schema.generation is self._seen_generation

    def _on_event(self, event: UpdateEvent) -> None:
        self._seen_version = event.version
        self._apply(event)

    def _apply(self, event: UpdateEvent) -> None:
        kind = event.kind
        if kind is UpdateKind.BATCH:
            for sub in event.sub_events:
                self._apply(sub)
        elif kind is UpdateKind.INSERT and len(event.oids) == 1:
            self._apply_insert(event)
        elif kind is UpdateKind.DELETE and len(event.oids) == 1:
            self._apply_delete(event)
        elif kind in (UpdateKind.INSERT, UpdateKind.DELETE):
            # Unexpected shape (no single OID): fall back to purging.
            self._purge_classes(event.classes)
        elif kind in (UpdateKind.ASSOCIATE, UpdateKind.DISSOCIATE):
            link = event.link
            stale = [key for key, index in self._adj.items()
                     if index.link_key == link]
            for key in stale:
                del self._adj[key]
        elif kind is UpdateKind.SET_ATTRIBUTE:
            # Extents and links untouched; value indexes re-bucket the
            # one changed posting.
            if event.payload:
                self.attrs.apply_set_attribute(event.payload)
        else:  # SCHEMA or future kinds: be conservative
            self.clear()

    def _purge_classes(self, classes) -> None:
        """The coarse pre-delta behavior: drop the base tables of the
        touched classes and every adjacency index built over them.
        Mutators hold the database write lock through listener
        notification, so the purge is atomic with the version bump."""
        self.interner.invalidate_classes(classes)
        dropped = {("base", cls) for cls in classes}
        stale = [key for key, index in self._adj.items()
                 if index.src.key in dropped or index.tgt.key in dropped]
        for key in stale:
            del self._adj[key]
        self.attrs.purge_tables(dropped)

    def _apply_insert(self, event: UpdateEvent) -> None:
        """Extend cached structures with the new object in place.

        The OID allocator is monotonic, so the object sorts last in
        every touched extent: appending it keeps existing dense ids
        stable, and any adjacency index whose *source* table grew needs
        exactly one new CSR row — empty for a link edge (a fresh object
        has no links yet), the identity image for an identity edge.  A
        grown *target* table alone needs nothing: no existing row can
        reference the new, unlinked id.
        """
        oid = event.oids[0]
        appended: Dict[int, InternTable] = {}
        for cls in event.classes:
            table = self.interner.get(("base", cls))
            if table is None:
                continue
            try:
                table.append(oid, event.version)
            except ValueError:  # pragma: no cover - defensive
                self._purge_classes((cls,))
                continue
            appended[id(table)] = table
            self.tables_appended += 1
        if not appended:
            return
        for key, index in self._adj.items():
            if id(index.src) not in appended:
                continue
            if index.lent:
                index = self._fork_index(key, index)
            is_identity = index.link_key is None and index.token is None
            if is_identity and id(index.tgt) in appended:
                index.neighbors.append(index.tgt.index[oid.value])
            index.offsets.append(len(index.neighbors))
            self.indexes_appended += 1
        # The event's own record of the new object, not the database's:
        # inside a replayed BATCH the object may be gone again already.
        self.attrs.apply_insert(event.payload["attrs"], appended)

    def _fork_index(self, key: Any, index: AdjacencyIndex) -> AdjacencyIndex:
        index = self._adj[key] = index.fork()
        self.forked += 1
        return index

    def _apply_delete(self, event: UpdateEvent) -> None:
        """Tombstone the dead object in each cached table of its classes.

        Dense ids are permanent, so nothing is renumbered: the table
        records the version the id died at, CSR indexes are left as
        they are, and value indexes drop the victim's postings.  A
        table whose dead ids reach its live count is compacted instead
        — dropped with everything built over it, so the next reader
        rebuilds it cold — which keeps a DELETE amortized O(1) and the
        dead share of any table below one half.
        """
        oid = event.oids[0]
        #: id(table holding the tombstone) -> (that table, dead id)
        killed: Dict[int, Tuple[InternTable, int]] = {}
        for cls in event.classes:
            key = ("base", cls)
            table = self.interner.get(key)
            if table is None:
                continue
            dead = table.encode(oid)
            if dead is None:  # pragma: no cover - defensive
                self._purge_classes((cls,))
                continue
            table.without(oid, event.version)
            self.tombstoned += 1
            if len(table.died) >= table.live_count:
                self._purge_classes((cls,))
                self.compactions += 1
                continue
            killed[id(table)] = (table, dead)
        if killed:
            self.attrs.apply_delete(killed)

    def on_subdb_change(self, name: str) -> None:
        """A subdatabase was (re-)registered or dropped.  (Registry
        changes need not hold the database's write lock, so pinned
        readers building through this store are kept out here.)"""
        with self._share_lock:
            self.interner.invalidate_subdb(name)
            stale = [key for key, index in self._adj.items()
                     if index.src.key[0] != "base"
                     and index.src.key[1] == name
                     or index.tgt.key[0] != "base"
                     and index.tgt.key[1] == name
                     or key[0] == "subdb" and key[1] == name]
            for key in stale:
                del self._adj[key]

    def clear(self) -> None:
        self.interner.clear()
        self._views.clear()
        self._adj.clear()
        self.attrs.clear()

    def _resync(self) -> None:
        """Catch up after unobserved mutations (inside a batch, or a
        schema edit): nothing tells us *what* changed, so drop it all."""
        self.clear()
        self._seen_version = self.db.version
        self._seen_generation = self.db.schema.generation

    def stats(self) -> Dict[str, int]:
        """The build, maintenance and sharing counters."""
        out = {name: getattr(self, name) for name in (
            "tables_built", "indexes_built", "tables_appended",
            "indexes_appended", "tombstoned", "compactions", "adopted",
            "forked", "built_shared", "built_private")}
        out["dead_ids"] = self.interner.dead_ids()
        return out

    # ------------------------------------------------------------------
    # Sharing with pinned snapshots
    # ------------------------------------------------------------------

    def adopt(self, live: "CompactStore") -> None:
        """Seed this (snapshot) store with everything ``live`` holds,
        marking each CSR and value index lent.  The caller holds the
        database's read lock, under which the live store is exactly the
        pinned state — unless it is out of sync inside an open ``batch``
        block, in which case only the index declarations carry over."""
        self.lender = live
        self.attrs.declared.update(live.attrs.declared)
        with live._share_lock:
            if live.in_sync:
                # The live universe's own queries fill these maps on a
                # miss holding neither lock: each is taken in one
                # atomic copy, never iterated in place.  (What lands
                # after the copy is simply not adopted, and the three
                # copies need not agree — every lookup validates a
                # structure against the table it was built over.)
                adj = live._adj.copy()
                for index in adj.values():
                    index.lent = True
                self._adj.update(adj)
                live.adopted += (len(adj)
                                 + self.interner.adopt(live.interner)
                                 + self.attrs.adopt(live.attrs))

    def through_lender(self, build, fits, extents=(), links=(), attrs=(),
                       lend=True):
        """Serve a miss of this snapshot store through the live store:
        ``build(live)`` under the read lock, marked lent if ``lend`` (an
        intern table is not: a pin reads it at its version) — provided the
        stamps of the extents, links and attributes the structure reads
        stand where they were pinned, i.e. the live state *is* the
        pinned state as far as the structure can tell, and the result
        ``fits`` what this store already holds (it is over the pinned
        intern tables).  Returns ``None`` otherwise — a pin older than
        those stamps, a live store that re-interned or dropped the
        declaration meanwhile — and the caller builds privately, from
        pinned pre-images: ``built_shared`` counts the structures
        callers keep, ``built_private`` the private builds."""
        from repro.oql.footprint import Footprint
        footprint = Footprint(frozenset(extents), frozenset(links),
                              frozenset(attrs))
        live = self.lender
        with live.db.read_locked(), live._share_lock:
            if live.in_sync and live.db.version_vector(footprint) \
                    == self.db.version_vector(footprint):
                structure = build(live)
                if structure is not None and fits(structure):
                    if lend:
                        structure.lent = True
                    live.built_shared += 1
                    return structure
            live.built_private += 1
        return None

    # ------------------------------------------------------------------
    # Intern tables
    # ------------------------------------------------------------------

    def _table_spec(self, ref) -> Tuple[Any, Any]:
        """(cache key, validity token) for a class reference's extent —
        mirrors :meth:`Universe.extent`'s dispatch."""
        if ref.subdb is None:
            return ("base", ref.cls), None
        subdb = self.universe.get_subdb(ref.subdb)
        if ref.alias is not None:
            slot = type(ref)(ref.cls, None, ref.alias).slot
            if subdb.intension.has_slot(slot):
                return ("subdb-slot", ref.subdb, slot), subdb
        return ("subdb-class", ref.subdb, ref.cls), subdb

    def _table(self, ref) -> InternTable:
        """The intern table over ``ref``'s (unfiltered) extent itself,
        built on first use and reused until invalidated."""
        if not self.in_sync:
            self._resync()
        key, token = self._table_spec(ref)
        cached = self.interner.get(key)
        if cached is not None and cached.token is token:
            return cached
        if self.lender is not None and ref.subdb is None:
            shared = self.through_lender(lambda live: live.table(ref),
                                         lambda table: True,
                                         extents=(ref.cls,), lend=False)
            if shared is not None:
                self.interner.replace(key, shared)
                return shared
        self.tables_built += 1
        return self.interner.build(key, self.universe.extent(ref), token)

    def _read(self, table: InternTable) -> InternTable:
        """``table`` as this store reads it: the table itself on the
        live store, a view at the pinned version on a pinned one (made
        once per table: :meth:`InternTable.at`)."""
        if self.lender is None:
            return table
        view = self._views.get(table.key)
        if view is None or view.table is not table:
            view = self._views[table.key] = table.at(self.db.version)
        return view

    def table(self, ref) -> InternTable:
        """``ref``'s intern table as this store reads it."""
        return self._read(self._table(ref))

    def table_if_ready(self, ref) -> Optional[InternTable]:
        """The cached valid table itself, or ``None`` — never builds.  The
        incremental maintainer uses this so a delta refresh stays
        proportional to the delta instead of paying an extent scan."""
        if not self.in_sync:
            return None
        key, token = self._table_spec(ref)
        cached = self.interner.get(key)
        if cached is not None and cached.token is token:
            return cached
        return None

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def _adj_spec(self, resolution, forward: bool, src_key, tgt_key):
        if resolution.kind == "identity":
            return ("identity", src_key, tgt_key)
        if resolution.kind == "base":
            from_owner = (resolution.resolved.a_is_owner if forward
                          else not resolution.resolved.a_is_owner)
            return ("base", resolution.resolved.link.key, from_owner,
                    src_key, tgt_key)
        return ("subdb", resolution.subdb, resolution.i, resolution.j,
                forward, src_key, tgt_key)

    def adjacency(self, resolution, forward: bool,
                  src_ref, tgt_ref) -> AdjacencyIndex:
        """The CSR index for crossing ``resolution`` from ``src_ref``'s
        extent to ``tgt_ref``'s (``forward`` moves from the resolution's
        first reference to its second), building it if needed."""
        src = self._table(src_ref)
        tgt = self._table(tgt_ref)
        key = self._adj_spec(resolution, forward, src.key, tgt.key)
        cached = self._adj.get(key)
        if cached is not None and cached.src is src and cached.tgt is tgt:
            if resolution.kind != "subdb" or \
                    cached.token is self.universe._subdbs.get(resolution.subdb):
                return cached
        index = None
        if self.lender is not None and resolution.kind != "subdb" \
                and src_ref.subdb is None and tgt_ref.subdb is None:
            index = self.through_lender(
                lambda live: live.adjacency(resolution, forward,
                                            src_ref, tgt_ref),
                lambda index: index.src is src and index.tgt is tgt,
                extents=(src_ref.cls, tgt_ref.cls),
                links=(key[1],) if resolution.kind == "base" else ())
        if index is None:
            index = self._build(resolution, forward, src, tgt)
            self.indexes_built += 1
        self._adj[key] = index
        return index

    def adjacency_if_ready(self, resolution, forward: bool,
                           src_ref, tgt_ref) -> Optional[AdjacencyIndex]:
        """The cached valid index, or ``None`` — never builds."""
        if not self.in_sync:
            return None
        src = self.table_if_ready(src_ref)
        tgt = self.table_if_ready(tgt_ref)
        if src is None or tgt is None:
            return None
        key = self._adj_spec(resolution, forward, src.key, tgt.key)
        cached = self._adj.get(key)
        if cached is not None and cached.src is src and cached.tgt is tgt:
            if resolution.kind != "subdb" or \
                    cached.token is self.universe._subdbs.get(resolution.subdb):
                return cached
        return None

    def _build(self, resolution, forward: bool, src: InternTable,
               tgt: InternTable) -> AdjacencyIndex:
        members = src.oids[:len(self._read(src))]
        tgt_index = tgt.index
        rows: List[List[int]] = []
        if resolution.kind == "identity":
            for oid in members:
                i = tgt_index.get(oid.value)
                rows.append([] if i is None else [i])
            return AdjacencyIndex(src, tgt, rows)
        if resolution.kind == "base":
            from_owner = (resolution.resolved.a_is_owner if forward
                          else not resolution.resolved.a_is_owner)
            table = self.db.link_index(resolution.resolved.link, from_owner)
            for oid in members:
                linked = table.get(oid, EMPTY_OIDS)
                if linked:
                    rows.append(sorted(tgt_index[o.value] for o in linked
                                       if o.value in tgt_index))
                else:
                    rows.append([])
            return AdjacencyIndex(src, tgt, rows,
                                  link_key=resolution.resolved.link.key)
        # Derived direct association inside one subdatabase.
        subdb = self.universe.get_subdb(resolution.subdb)
        by_src: Dict[int, List[int]] = {}
        for left, right in subdb.pairs(resolution.i, resolution.j):
            if not forward:
                left, right = right, left
            s = src.index.get(left.value)
            t = tgt_index.get(right.value)
            if s is not None and t is not None:
                by_src.setdefault(s, []).append(t)
        for i in range(len(members)):
            rows.append(sorted(by_src.get(i, ())))
        return AdjacencyIndex(src, tgt, rows, token=subdb)
