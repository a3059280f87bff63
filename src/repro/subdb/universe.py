"""The universe: base database plus the world of derived subdatabases.

The OQL evaluator and the rule engine both operate against a
:class:`Universe`, which answers every reference-resolution question:

* the extent of a class reference (base class, or derived class of a
  subdatabase — any hierarchy level),
* descriptive-attribute access with visibility checked along the induced
  generalization chain (a rule may subset the attributes a target class
  inherits, Section 4.2),
* resolution of the association between two class references — inside one
  derived subdatabase (a derived direct association), or through the base
  schema via the inheritance established by induced generalization
  (Section 4.1: ``SD1:A * SD2:C``).

When a referenced subdatabase has not been materialized, the universe asks
its *provider* — installed by the rule engine — to derive it; this is the
hook through which backward chaining happens (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import (
    UnknownAttributeError,
    UnknownSubdatabaseError,
)
from repro.model.database import EMPTY_OIDS, Database
from repro.model.interning import InternTable
from repro.model.oid import OID
from repro.model.schema import ResolvedLink, Schema
from repro.subdb.adjindex import AdjacencyIndex, CompactStore
from repro.subdb.refs import ClassRef
from repro.subdb.subdatabase import Subdatabase


@dataclass(frozen=True)
class EdgeResolution:
    """How the association between two class references is traversed.

    ``kind`` is:

    * ``"base"`` — via an aggregation link of the original schema
      (``resolved`` holds the :class:`ResolvedLink`),
    * ``"identity"`` — via a generalization relation (match on equal OIDs),
    * ``"subdb"`` — via a derived direct association inside subdatabase
      ``subdb`` between its slots ``i`` and ``j``.
    """

    kind: str
    resolved: Optional[ResolvedLink] = None
    subdb: Optional[str] = None
    i: int = -1
    j: int = -1


def _inner_slot(ref: ClassRef) -> str:
    """A derived class's slot name *inside* its subdatabase (subdatabase
    intensions store unqualified references)."""
    return ClassRef(ref.cls, None, ref.alias).slot


class Universe:
    """Resolution context: schema + base database + derived subdatabases."""

    def __init__(self, db: Database):
        self.db = db
        self.schema: Schema = db.schema
        self._subdbs: Dict[str, Subdatabase] = {}
        #: Called with a subdatabase name when it is referenced but not
        #: materialized; may derive and return it (backward chaining), or
        #: return ``None`` to signal the name is truly unknown.
        self.provider: Optional[Callable[[str], Optional[Subdatabase]]] = None
        # Per-derived-association pair index cache:
        # (name, i, j) -> (subdatabase object, fwd map, rev map)
        self._pair_cache: Dict[Tuple[str, int, int], tuple] = {}
        # Bumped whenever the set of materialized subdatabases changes,
        # so join plans over derived extents/associations can be
        # invalidated together with base-data changes (data_version).
        self._subdb_epoch = 0
        # Successful visibility checks memoized per data version: one
        # schema walk per (ref, attr) instead of one per object access.
        self._attr_check_cache: Dict[Tuple[ClassRef, str], bool] = {}
        self._attr_check_version = -1
        #: Interned-OID tables + CSR adjacency indexes for the compact
        #: execution layer, invalidated fine-grained from update events.
        self.compact = CompactStore(self)

    # ------------------------------------------------------------------
    # Subdatabase registry
    # ------------------------------------------------------------------

    def register(self, subdb: Subdatabase) -> None:
        """Materialize (or replace) a derived subdatabase."""
        self._subdbs[subdb.name] = subdb
        self._subdb_epoch += 1
        stale = [key for key in self._pair_cache if key[0] == subdb.name]
        for key in stale:
            del self._pair_cache[key]
        self.compact.on_subdb_change(subdb.name)

    def unregister(self, name: str) -> None:
        if self._subdbs.pop(name, None) is not None:
            self._subdb_epoch += 1
        stale = [key for key in self._pair_cache if key[0] == name]
        for key in stale:
            del self._pair_cache[key]
        self.compact.on_subdb_change(name)

    @property
    def data_version(self) -> int:
        """Monotonic counter covering base-data mutations *and* changes
        to the materialized-subdatabase registry — anything cached
        against this version (join-order choices)
        is invalidated by either kind of change."""
        return self.db.version + self._subdb_epoch

    def version_vector(self, footprint) -> Tuple[int, ...]:
        """The invalidation key for anything computed from ``footprint``
        (a :class:`~repro.oql.footprint.Footprint`): the stamps it names
        (see :meth:`Database.version_vector`), or the coarse
        ``data_version`` for the wildcard — derived subdatabase contents
        carry no stamps, and the registry moves without a base write.
        Works uniformly over a live :class:`Database` and a pinned
        :class:`~repro.subdb.snapshot.DatabaseSnapshot`."""
        if footprint.everything:
            return (-1, self.data_version)
        return self.db.version_vector(footprint)

    def snapshot(self) -> "Universe":
        """A snapshot-isolated universe pinned at the current data
        version: copy-on-write over the base database, with the current
        materialized-subdatabase registry captured atomically.  Readers
        evaluate against it without ever blocking writers for longer
        than one mutation, and without observing in-flight state (see
        :mod:`repro.subdb.snapshot`)."""
        from repro.subdb.snapshot import snapshot_universe
        return snapshot_universe(self)

    def has_subdb(self, name: str) -> bool:
        return name in self._subdbs

    @property
    def subdb_names(self) -> list[str]:
        return sorted(self._subdbs)

    def get_subdb(self, name: str) -> Subdatabase:
        """The named subdatabase, deriving it through the provider when it
        is not yet materialized (the backward-chaining hook)."""
        if name in self._subdbs:
            return self._subdbs[name]
        if self.provider is not None:
            derived = self.provider(name)
            if derived is not None:
                return derived
        raise UnknownSubdatabaseError(
            f"unknown subdatabase {name!r} (materialized: "
            f"{self.subdb_names}; no rule derives it)")

    # ------------------------------------------------------------------
    # Extents
    # ------------------------------------------------------------------

    def extent(self, ref: ClassRef) -> Set[OID]:
        """The set of instances a class reference ranges over.

        On a *base* class an alias marker is a pure range variable
        (Section 5.2): ``A_1`` ranges over the same extent as ``A``.  On
        a *derived* class the alias selects the matching hierarchy-level
        slot when the subdatabase has one (``GG:Grad_2`` is the third
        level of the Grad-teaching-grad hierarchy, by analogy with rule
        R7's level-selecting targets); otherwise — and for unaliased
        derived references — the extent is the union over every slot of
        the class.
        """
        if ref.subdb is None:
            return self.db.extent(ref.cls)
        subdb = self.get_subdb(ref.subdb)
        if ref.alias is not None:
            slot = _inner_slot(ref)
            if subdb.intension.has_slot(slot):
                return subdb.extent_of_slot(slot)
        return subdb.extent_of_class(ref.cls)

    # ------------------------------------------------------------------
    # Attribute access through the induced-generalization chain
    # ------------------------------------------------------------------

    def check_attribute(self, ref: ClassRef, attr: str) -> None:
        """Verify ``attr`` is visible from ``ref``.

        Walks the induced-generalization chain: every derivation step may
        have restricted the inherited attributes; the base class must
        finally declare (or inherit) the attribute.
        """
        version = self.data_version
        if version != self._attr_check_version:
            self._attr_check_cache.clear()
            self._attr_check_version = version
        if (ref, attr) in self._attr_check_cache:
            return
        current = ref
        guard = 0
        while current.subdb is not None:
            guard += 1
            if guard > 100:  # pragma: no cover - defensive
                raise UnknownAttributeError(
                    f"derivation chain too deep resolving {ref}.{attr}")
            subdb = self.get_subdb(current.subdb)
            info = subdb.info_for(_inner_slot(current))
            if info is None:
                # Slot recorded without derivation metadata (plain query
                # result); treat as unrestricted view of the base class.
                current = ClassRef(current.cls)
                continue
            if not info.allows_attribute(attr):
                raise UnknownAttributeError(
                    f"attribute {attr!r} is not inherited by derived class "
                    f"{current} (visible: {sorted(info.visible_attrs)})")
            current = info.source
        self.schema.attribute(current.cls, attr)
        self._attr_check_cache[(ref, attr)] = True

    def attr_value(self, ref: ClassRef, oid: OID, attr: str) -> Any:
        """Read a descriptive attribute of an object through a (possibly
        derived) class reference."""
        self.check_attribute(ref, attr)
        return self.db.entity(oid).get(attr)

    def visible_attributes(self, ref: ClassRef) -> Tuple[str, ...]:
        """The descriptive attributes visible from a class reference,
        after every attribute subsetting along the derivation chain."""
        current = ref
        restrictions: list[frozenset] = []
        while current.subdb is not None:
            subdb = self.get_subdb(current.subdb)
            info = subdb.info_for(_inner_slot(current))
            if info is None:
                current = ClassRef(current.cls)
                continue
            if info.visible_attrs is not None:
                restrictions.append(frozenset(info.visible_attrs))
            current = info.source
        names = sorted(self.schema.descriptive_attributes(current.cls))
        for restriction in restrictions:
            names = [n for n in names if n in restriction]
        return tuple(names)

    # ------------------------------------------------------------------
    # Association resolution
    # ------------------------------------------------------------------

    def resolve_edge(self, a: ClassRef, b: ClassRef) -> EdgeResolution:
        """Resolve how the association operator traverses from ``a`` to
        ``b``.

        Inside one derived subdatabase a *derived direct association*
        between the two slots takes precedence (Figure 4.3: Teacher and
        Course are directly associated in Teacher_course even though only
        indirectly in the base schema).  Otherwise resolution falls to the
        base schema between the source base classes — legal whenever the
        base classes are associated, because induced generalization makes
        every derived class inherit its source's aggregation links.
        """
        if a.subdb is not None and a.subdb == b.subdb:
            subdb = self.get_subdb(a.subdb)
            slot_a, slot_b = _inner_slot(a), _inner_slot(b)
            if subdb.intension.has_slot(slot_a) and \
                    subdb.intension.has_slot(slot_b):
                i = subdb.intension.index_of(slot_a)
                j = subdb.intension.index_of(slot_b)
                if subdb.intension.edge_between(i, j) is not None:
                    return EdgeResolution("subdb", subdb=a.subdb, i=i, j=j)
        resolved = self.schema.resolve_link(a.cls, b.cls)
        if resolved.kind == "identity":
            return EdgeResolution("identity")
        return EdgeResolution("base", resolved=resolved)

    def _pair_maps(self, name: str, i: int, j: int):
        subdb = self.get_subdb(name)
        key = (name, i, j)
        cached = self._pair_cache.get(key)
        if cached is not None and cached[0] is subdb:
            return cached[1], cached[2]
        fwd: Dict[OID, Set[OID]] = {}
        rev: Dict[OID, Set[OID]] = {}
        for left, right in subdb.pairs(i, j):
            fwd.setdefault(left, set()).add(right)
            rev.setdefault(right, set()).add(left)
        self._pair_cache[key] = (subdb, fwd, rev)
        return fwd, rev

    def edge_neighbors(self, oid: OID, edge: EdgeResolution,
                       forward: bool = True) -> Set[OID]:
        """Objects reachable from ``oid`` across a resolved edge.

        ``forward=True`` moves from the resolution's first reference to
        its second.
        """
        if edge.kind == "identity":
            return {oid}
        if edge.kind == "base":
            return self.db.neighbors(oid, edge.resolved, forward=forward)
        fwd, rev = self._pair_maps(edge.subdb, edge.i, edge.j)
        index = fwd if forward else rev
        return set(index.get(oid, ()))

    def bulk_edge_neighbors(self, oids: Set[OID], edge: EdgeResolution,
                            forward: bool = True) -> Dict[OID, Set[OID]]:
        """Neighbor sets for a whole candidate frontier in one lookup.

        The returned sets are shared with the underlying indexes and
        must not be mutated; objects without neighbors map to a shared
        empty set.  One call per hop replaces the per-row
        :meth:`edge_neighbors` loop of the row-at-a-time executor.
        """
        if edge.kind == "identity":
            return {oid: {oid} for oid in oids}
        if edge.kind == "base":
            return self.db.bulk_neighbors(oids, edge.resolved,
                                          forward=forward)
        fwd, rev = self._pair_maps(edge.subdb, edge.i, edge.j)
        index = fwd if forward else rev
        return {oid: index.get(oid, EMPTY_OIDS) for oid in oids}

    # ------------------------------------------------------------------
    # Compact (interned) execution layer
    # ------------------------------------------------------------------

    def intern_table(self, ref: ClassRef) -> InternTable:
        """The dense ``OID <-> int`` table over ``ref``'s extent (built
        lazily, invalidated by update events)."""
        return self.compact.table(ref)

    def intern_table_if_ready(self, ref: ClassRef) -> Optional[InternTable]:
        """The cached valid intern table, or ``None`` — never builds."""
        return self.compact.table_if_ready(ref)

    def adjacency(self, edge: EdgeResolution, forward: bool,
                  src_ref: ClassRef, tgt_ref: ClassRef) -> AdjacencyIndex:
        """The CSR adjacency index for crossing ``edge`` from
        ``src_ref``'s extent to ``tgt_ref``'s, over interned ids.  One
        lazily built index replaces the per-call neighbor-set
        construction of :meth:`bulk_edge_neighbors` on the compact
        execution path."""
        return self.compact.adjacency(edge, forward, src_ref, tgt_ref)

    def adjacency_if_ready(self, edge: EdgeResolution, forward: bool,
                           src_ref: ClassRef,
                           tgt_ref: ClassRef) -> Optional[AdjacencyIndex]:
        """The cached valid adjacency index, or ``None`` — never builds
        (the incremental maintainer's entry point: a delta refresh must
        not pay a full index rebuild)."""
        return self.compact.adjacency_if_ready(edge, forward, src_ref,
                                               tgt_ref)

    # ------------------------------------------------------------------
    # Secondary value indexes
    # ------------------------------------------------------------------

    def declare_index(self, cls: str, attr: str) -> bool:
        """Declare a ``(class, attribute)`` value index over the base
        extent of ``cls`` (``\\index add``).  The index itself is built
        lazily on first probe; the attribute must exist on the class."""
        self.schema.attribute(cls, attr)
        return self.compact.attrs.declare(cls, attr)

    def drop_index(self, cls: str, attr: str) -> bool:
        return self.compact.attrs.drop(cls, attr)

    def attr_index(self, ref: ClassRef, attr: str):
        """The declared :class:`~repro.subdb.attrindex.AttrIndex` for
        ``ref``'s extent and ``attr`` (built on first use), or ``None``
        when undeclared / not an indexable base reference."""
        return self.compact.attrs.get(ref, attr)

    def attr_index_if_ready(self, ref: ClassRef, attr: str):
        """The cached valid value index, or ``None`` — never builds."""
        return self.compact.attrs.get_if_ready(ref, attr)

    def index_stats(self) -> Dict[str, Any]:
        """``{"indexes": per-declared-index statistics, "store": the
        compact store's build / maintenance / snapshot-sharing
        counters}`` (``\\index stats``)."""
        return {"indexes": self.compact.attrs.stats(),
                "store": self.compact.stats()}
