"""Snapshot-isolated read views of a database and its universe.

A :class:`DatabaseSnapshot` pins a :class:`~repro.model.database.Database`
at one version so concurrent readers never observe in-flight mutations.
Pinning is *copy-on-write* in both directions:

* the snapshot registers a write hook with the database; every mutator
  calls it (under the database's write lock) *before* touching a
  structure, naming exactly the pieces about to change — class extents,
  link indexes, attribute dicts, entities — and the snapshot copies the
  pre-image of any piece it has not pinned yet;
* a read of a piece the writer never touched falls through to the live
  structure under the read lock (momentarily excluding writers), and
  caches the result so subsequent reads of that piece are lock-free.

Readers therefore block only for the duration of a single mutation (or
``batch`` block), never for the whole life of a writer, and a piece read
once — or written once — never blocks again.

:class:`SnapshotUniverse` wraps a snapshot in the full
:class:`~repro.subdb.universe.Universe` interface, with its own
subdatabase registry seeded from the source universe and a compact
store that *adopts* the live store's intern tables (read at the pinned
version: the live store only appends and tombstones), CSR adjacency and
value indexes (the live store forks one it has lent before maintaining
it) instead of rebuilding them; what a reader misses is built through
the live store while the stamps it reads stand where they were pinned
(see :mod:`repro.subdb.adjindex`).  Backward chaining through a provider
materializes into the snapshot's registry only; the live registry and
rule base are never written by a reader.

Concurrent *schema evolution* is outside the protocol: a SCHEMA event
poisons the snapshot, and any subsequent fall-through read raises
:class:`SnapshotExpiredError` (already-pinned pieces stay readable).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ReproError, UnknownObjectError
from repro.model.database import Database, EMPTY_OIDS, UpdateEvent, UpdateKind
from repro.model.objects import Entity
from repro.model.oid import OID
from repro.model.schema import ResolvedLink


class SnapshotExpiredError(ReproError):
    """The snapshot can no longer serve a piece it did not pin (the
    schema evolved underneath it)."""


LinkKey = Tuple[str, str]
LinkIndex = Dict[OID, frozenset]


class DatabaseSnapshot:
    """A read-only, version-pinned view of a :class:`Database`.

    Exposes the read API the evaluator stack consumes — ``extent``,
    ``extent_size``, ``entity``/``attr_value``, ``neighbors``,
    ``bulk_neighbors``, ``link_index``, ``link_count`` — plus no-op
    listener registration so a
    :class:`~repro.subdb.adjindex.CompactStore` can be built over it
    unchanged.  ``version`` is constant, so everything cached against it
    (intern tables, adjacency, join plans) stays valid for the
    snapshot's whole life.
    """

    def __init__(self, db: Database, _locked: bool = False):
        self.db = db
        self.schema = db.schema
        self.name = f"{db.name}@snapshot"
        self._poisoned: Optional[str] = None
        #: cls -> pinned full extent (sets shared with the db's
        #: per-version memo: never mutated once built).
        self._extents: Dict[str, Set[OID]] = {}
        #: link key -> (fwd copy, rev copy), both OID -> frozenset.
        self._links: Dict[LinkKey, Tuple[LinkIndex, LinkIndex]] = {}
        #: oid -> pinned Entity (pre-image clone, or the live object for
        #: deletions — deletion never mutates the entity itself).
        self._entities: Dict[OID, Entity] = {}
        if _locked:
            self._pin(db)
        else:
            with db.read_locked():
                self._pin(db)

    def _pin(self, db: Database) -> None:
        self.version = db.version
        # Pin the stamps too: cache keys built over a snapshot are
        # constant for its whole life, so cross-query cache hits against
        # a snapshot are consistent by construction.
        self._extent_versions = dict(db._extent_versions)
        self._link_versions = dict(db._link_versions)
        self._attr_versions = dict(db._attr_versions)
        self._schema_version = db.schema_version
        #: The pair counts as pinned (``None`` once closed).
        self._link_counts: Optional[Dict[LinkKey, int]] = \
            dict(db._link_counts)
        db.register_snapshot_hook(self)
        # SCHEMA events poison the snapshot; data events are handled by
        # the write hook.  Registered as a plain listener (the database
        # holds it strongly only as long as the snapshot itself lives —
        # close() removes it).
        db.add_listener(self._on_event)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Detach from the source database (idempotent).

        Deregistration happens under the read lock: the listener list is
        removed from in place, and an in-flight ``_emit`` iterating it on
        a writer thread must not have an element shifted out from under
        its cursor (a skipped listener would be a missed invalidation
        for some *other* subscriber).

        The pinned pieces are dropped with the hook — no writer copies
        pre-images for a closed snapshot any more, so a read it misses
        raises :class:`SnapshotExpiredError` instead of falling through
        to the live state."""
        with self.db.read_locked():
            self.db.unregister_snapshot_hook(self)
            try:
                self.db.remove_listener(self._on_event)
            except ValueError:
                pass
            if self._poisoned is None:
                self._poisoned = "snapshot closed"
            self._extents.clear()
            self._links.clear()
            self._entities.clear()
            self._link_counts = None

    def __enter__(self) -> "DatabaseSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _on_event(self, event: UpdateEvent) -> None:
        if event.kind is UpdateKind.SCHEMA:
            self._poisoned = event.detail or "schema evolved"

    def _check_open(self) -> None:
        if self._poisoned is not None:
            raise SnapshotExpiredError(
                f"snapshot at version {self.version} expired: "
                f"{self._poisoned}")

    # -- copy-on-write hook (called by the writer, write lock held) -----

    def before_write(self, classes: Iterable[str] = (),
                     links: Iterable[LinkKey] = (),
                     attr_oids: Iterable[OID] = (),
                     entity_oids: Iterable[OID] = ()) -> None:
        for cls in classes:
            if cls not in self._extents:
                self._extents[cls] = self.db.extent(cls)
        for key in links:
            if key not in self._links:
                self._copy_link(key)
        for oid in attr_oids:
            if oid not in self._entities and self.db.has(oid):
                live = self.db.entity(oid)
                self._entities[oid] = Entity(live.oid, live.cls,
                                             dict(live._attrs))
        for oid in entity_oids:
            # Deletion: the entity object itself is never mutated, so
            # pinning the live reference preserves its attributes.
            if oid not in self._entities and self.db.has(oid):
                self._entities[oid] = self.db.entity(oid)

    def _copy_link(self, key: LinkKey) -> None:
        fwd = {oid: frozenset(targets) for oid, targets
               in self.db._fwd.get(key, {}).items()}
        rev = {oid: frozenset(owners) for oid, owners
               in self.db._rev.get(key, {}).items()}
        self._links[key] = (fwd, rev)

    # -- versioning / listener API (CompactStore compatibility) ---------

    @property
    def version(self) -> int:  # noqa: D401 - property pair below
        return self._version

    @version.setter
    def version(self, value: int) -> None:
        self._version = value

    @property
    def schema_version(self) -> int:
        return self._schema_version

    #: The pinned stamps a footprint names — constant for the
    #: snapshot's life, so cache entries keyed on it never go stale
    #: mid-read.  The live database's method, over the pinned copies.
    version_vector = Database.version_vector

    def add_listener(self, listener) -> None:
        """No-op: a snapshot never changes, so there is nothing to hear."""

    def remove_listener(self, listener) -> None:
        """No-op (see :meth:`add_listener`)."""

    # -- extents --------------------------------------------------------

    def extent(self, cls: str) -> Set[OID]:
        cached = self._extents.get(cls)
        if cached is not None:
            return cached
        with self.db.read_locked():
            cached = self._extents.get(cls)
            if cached is None:
                self._check_open()
                cached = self._extents[cls] = self.db.extent(cls)
            return cached

    def extent_size(self, cls: str) -> int:
        return len(self.extent(cls))

    def is_instance_of(self, oid: OID, cls: str) -> bool:
        return self.schema.is_subclass_of(self.entity(oid).cls, cls)

    def has(self, oid: OID) -> bool:
        if oid in self._entities:
            return True
        with self.db.read_locked():
            return self.db.has(oid)

    # -- entities & attributes ------------------------------------------

    def entity(self, oid: OID) -> Entity:
        pinned = self._entities.get(oid)
        if pinned is not None:
            return pinned
        with self.db.read_locked():
            pinned = self._entities.get(oid)
            if pinned is not None:
                return pinned
            self._check_open()
            try:
                return self.db.entity(oid)
            except UnknownObjectError:
                raise UnknownObjectError(
                    f"no object with OID {oid!r} in snapshot at version "
                    f"{self.version}") from None

    def attr_value(self, oid: OID, attr: str) -> Any:
        """One attribute read, pinned-first: the whole live fall-through
        happens under the read lock so a concurrent attribute write can
        never interleave between lookup and access."""
        pinned = self._entities.get(oid)
        if pinned is not None:
            return pinned.get(attr)
        with self.db.read_locked():
            pinned = self._entities.get(oid)
            if pinned is not None:
                return pinned.get(attr)
            self._check_open()
            return self.db.entity(oid).get(attr)

    def attr_column(self, oids: Iterable[OID], attr: str) -> List[Any]:
        """``attr`` of every object of ``oids``, in order — pre-images
        first, the rest from the live entities, under *one* acquisition
        of the read lock (a per-object :meth:`entity` takes it once per
        object: 107 ms against 19 ms for a 12k-row column)."""
        pinned = self._entities
        live = self.db._entities
        out = []
        fell_through = False
        with self.db.read_locked():
            for oid in oids:
                entity = pinned.get(oid)
                if entity is None:
                    if not fell_through:
                        self._check_open()
                        fell_through = True
                    try:
                        entity = live[oid]
                    except KeyError:
                        raise UnknownObjectError(
                            f"no object with OID {oid!r} in snapshot at "
                            f"version {self.version}") from None
                out.append(entity.get(attr))
        return out

    def get_attribute(self, oid: OID, name: str) -> Any:
        self.schema.attribute(self.entity(oid).cls, name)
        return self.attr_value(oid, name)

    # -- links ----------------------------------------------------------

    def _link_maps(self, key: LinkKey) -> Tuple[LinkIndex, LinkIndex]:
        pinned = self._links.get(key)
        if pinned is not None:
            return pinned
        with self.db.read_locked():
            pinned = self._links.get(key)
            if pinned is None:
                self._check_open()
                self._copy_link(key)
                pinned = self._links[key]
            return pinned

    def link_index(self, link, from_owner: bool = True) -> LinkIndex:
        maps = self._link_maps(link.key)
        return maps[0] if from_owner else maps[1]

    def link_count(self, link) -> int:
        """The pair count at the pin, from the counts copied with the
        stamps: no lock, and the link itself is not pinned."""
        counts = self._link_counts
        if counts is None:
            self._check_open()      # closed: raises
        return counts.get(link.key, 0)

    def link_pairs(self, link) -> Set[Tuple[OID, OID]]:
        return {(owner, target)
                for owner, targets in self._link_maps(link.key)[0].items()
                for target in targets}

    def linked(self, oid: OID, link, from_owner: bool = True) -> Set[OID]:
        index = self.link_index(link, from_owner)
        return set(index.get(oid, ()))

    def neighbors(self, oid: OID, resolved: ResolvedLink,
                  forward: bool = True) -> Set[OID]:
        if resolved.kind == "identity":
            return {oid}
        from_owner = (resolved.a_is_owner if forward
                      else not resolved.a_is_owner)
        return self.linked(oid, resolved.link, from_owner=from_owner)

    def bulk_neighbors(self, oids: Iterable[OID], resolved: ResolvedLink,
                       forward: bool = True) -> Dict[OID, Set[OID]]:
        if resolved.kind == "identity":
            return {oid: {oid} for oid in oids}
        from_owner = (resolved.a_is_owner if forward
                      else not resolved.a_is_owner)
        table = self.link_index(resolved.link, from_owner)
        return {oid: table.get(oid, EMPTY_OIDS) for oid in oids}

    def __len__(self) -> int:
        return sum(len(self.extent(cls))
                   for cls in self.schema.eclass_names)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"DatabaseSnapshot({self.db.name!r}, "
                f"version={self.version})")


def snapshot_universe(source) -> "SnapshotUniverse":
    """Pin ``source`` (a :class:`~repro.subdb.universe.Universe`): the
    base data and the materialized-subdatabase registry are captured
    atomically under the database's read lock."""
    with source.db.read_locked():
        snap = DatabaseSnapshot(source.db, _locked=True)
        pinned = SnapshotUniverse(snap, dict(source._subdbs))
        # Under the read lock the live store *is* the pinned state:
        # the snapshot adopts its intern tables, CSR indexes, value
        # indexes and index declarations instead of rebuilding them.
        pinned.compact.adopt(source.compact)
    return pinned


# Imported late: universe.py imports nothing from this module at import
# time (Universe.snapshot uses a local import), but SnapshotUniverse
# subclasses Universe.
from repro.subdb.universe import Universe  # noqa: E402


class SnapshotUniverse(Universe):
    """A universe over a :class:`DatabaseSnapshot`.

    Readers use it exactly like a live universe — evaluators, query
    processors and rule derivations work unchanged — but every read is
    served from the pinned version, and ``register`` only touches the
    snapshot's private registry.
    """

    def __init__(self, snapshot: DatabaseSnapshot,
                 subdbs: Optional[Dict[str, Any]] = None):
        super().__init__(snapshot)
        if subdbs:
            self._subdbs.update(subdbs)
        #: The pinned base-data version (constant for the snapshot's
        #: life; ``data_version`` still moves when a reader-local
        #: derivation registers a subdatabase).
        self.pinned_version = snapshot.version

    @property
    def snapshot(self) -> DatabaseSnapshot:
        return self.db

    def close(self) -> None:
        """Unpin, and release what the pin holds now rather than when
        the cyclic collector gets to it (the universe and its compact
        store reference each other, as do the provider closures of a
        snapshot session): a superseded pin's table views, CSR and
        value indexes are the versions nothing else shares.  Results
        already produced keep their own tables."""
        self.db.close()
        self.compact.clear()

    def __enter__(self) -> "SnapshotUniverse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def attr_value(self, ref, oid: OID, attr: str) -> Any:
        """Pinned attribute read (the base implementation touches the
        live entity object between two lock-free instructions; the
        snapshot read must be atomic against writers)."""
        self.check_attribute(ref, attr)
        return self.db.attr_value(oid, attr)
