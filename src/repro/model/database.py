"""The extensional store.

:class:`Database` holds the instances (extents) of every E-class and the
extensional links of every entity association, indexed in both directions
so that the association operator traverses a link at equal cost either way.

Every mutation — insert, delete, associate, dissociate, attribute update —
bumps a version counter and emits an :class:`UpdateEvent` to registered
listeners.  The rule engine subscribes to these events to drive forward
chaining and to invalidate memoized derived subdatabases (paper, Section 6:
"whenever the data that is used to derive a subdatabase is updated ... the
relevant deductive rules are run to maintain the consistency between the
derived subdatabase and the original database").
"""

from __future__ import annotations

import enum
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Set, Tuple, Union)

from repro.errors import (
    ConstraintViolationError,
    UnknownAttributeError,
    UnknownClassError,
    UnknownObjectError,
)
from repro.model.associations import Aggregation, AssociationKind
from repro.model.objects import Entity
from repro.model.oid import OID, OIDAllocator
from repro.model.schema import ResolvedLink, Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.oql.footprint import Footprint


class UpdateKind(enum.Enum):
    """The kinds of extensional updates the paper enumerates (Section 6):
    inserting/deleting objects, associating/dissociating objects, and
    attribute modification.  ``BATCH`` is the single combined event a
    :meth:`Database.batch` block emits on exit."""

    INSERT = "insert"
    DELETE = "delete"
    ASSOCIATE = "associate"
    DISSOCIATE = "dissociate"
    SET_ATTRIBUTE = "set_attribute"
    BATCH = "batch"
    SCHEMA = "schema"


@dataclass(frozen=True)
class UpdateEvent:
    """A single extensional update, as reported to listeners.

    ``classes`` names every E-class whose extension (instances or links)
    the update touched; ``oids`` are the touched objects and ``link``
    the association key for ASSOCIATE/DISSOCIATE (in (owner, target)
    order).  Relevance is decided from them by
    :meth:`repro.oql.footprint.Footprint.touched_by` — INSERT/DELETE by
    ``classes``, link events by ``link``, SET_ATTRIBUTE by
    ``payload["name"]`` seen from ``classes``.  A BATCH event carries
    its constituent events in ``sub_events``.

    ``payload`` is a self-contained, JSON-ready description of the
    mutation (class, OID values, attribute values, association name) —
    everything a write-ahead log needs to *replay* the event against a
    restored database.  It is ``None`` for SCHEMA and BATCH events
    (schema evolution is checkpointed, not replayed; a batch's payloads
    live on its ``sub_events``).
    """

    kind: UpdateKind
    classes: Tuple[str, ...]
    version: int
    detail: str = ""
    oids: Tuple["OID", ...] = ()
    link: Optional[Tuple[str, str]] = None
    sub_events: Tuple["UpdateEvent", ...] = ()
    payload: Optional[Dict[str, Any]] = None


Listener = Callable[[UpdateEvent], None]


class RWLock:
    """A write-preferring reader-writer lock, reentrant for the writer.

    Writers (database mutators) exclude each other and all readers for
    the duration of one mutation — including listener notification, so
    version bumps, cache invalidation and snapshot copy-on-write are
    atomic with the data change they belong to.  The writer may re-enter
    (cascaded deletes, ``batch`` blocks) and may take the read side while
    holding the write side.  Read acquisition is *not* reentrant:
    callers hold it only across one short structure access.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: Optional[int] = None
        self._write_depth = 0
        self._owner_reads = 0
        self._waiting_writers = 0

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._owner_reads += 1
                return
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me and self._owner_reads:
                self._owner_reads -= 1
                return
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
                return
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._write_depth = 1

    def release_write(self) -> None:
        with self._cond:
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

#: Shared immutable empty neighbor set, returned by the bulk lookups for
#: objects with no links so callers can intersect/difference without a
#: per-miss allocation.
EMPTY_OIDS: frozenset = frozenset()

#: The linked objects of one object through one association: a tuple
#: of at most ``_SMALL`` members, else a set (see ``Database._fwd``).
Members = Union[Tuple[OID, ...], Set[OID]]
_SMALL = 64


def _nest(stamps: Dict[Tuple[str, str], int]) -> Dict[str, Dict[str, int]]:
    out: Dict[str, Dict[str, int]] = {}
    for (cls, name), version in sorted(stamps.items()):
        out.setdefault(cls, {})[name] = version
    return out


def _unnest(doc: Dict[str, Dict[str, Any]]) -> Dict[Tuple[str, str], int]:
    return {(cls, name): int(version)
            for cls, names in doc.items() for name, version in names.items()}


class Database:
    """An in-memory object database over a :class:`Schema`."""

    def __init__(self, schema: Schema, name: str = "db"):
        self.schema = schema
        self.name = name
        self._allocator = OIDAllocator()
        #: direct extents: class name -> {oid: entity}
        self._extents: Dict[str, Dict[OID, Entity]] = {
            cls: {} for cls in schema.eclass_names}
        #: link indexes per association key, forward (owner -> targets)
        #: and reverse (target -> owners).  An entry of up to
        #: ``_SMALL`` members is a tuple, a larger one a set: most
        #: objects have one or two links of a kind, and a set per entry
        #: was a third of the heap.  Readers only iterate, test
        #: membership and take lengths, or call ``set`` methods with
        #: the entry as argument.
        self._fwd: Dict[Tuple[str, str], Dict[OID, Members]] = {}
        self._rev: Dict[Tuple[str, str], Dict[OID, Members]] = {}
        #: Pair count per association key, moved only by ``_link`` and
        #: ``_unlink`` — what the planner's fan-outs divide.
        self._link_counts: Dict[Tuple[str, str], int] = {}
        self._entities: Dict[OID, Entity] = {}
        self._version = 0
        #: The stamps: version of the last mutation that moved each
        #: extent (INSERT/DELETE, superclass closure), each link
        #: (ASSOCIATE/DISSOCIATE, plus every link a DELETE removes) and
        #: each attribute (SET_ATTRIBUTE, ``(class closure, name)``).
        #: Anything computed from a :class:`Footprint` stays valid while
        #: the stamps it names stand still; never-written keys sit at 0.
        self._extent_versions: Dict[str, int] = {}
        self._link_versions: Dict[Tuple[str, str], int] = {}
        self._attr_versions: Dict[Tuple[str, str], int] = {}
        #: Bumped by SCHEMA events (class/attribute/association changes);
        #: folded into every vector so schema evolution invalidates
        #: everything, as before.
        self._schema_version = 0
        self._listeners: List[Listener] = []
        self._batch_depth = 0
        self._batch_classes: Set[str] = set()
        self._batch_count = 0
        self._batch_events: List[UpdateEvent] = []
        # Full (subclass-inclusive) extents memoized per extent stamp
        # (an insert into a subclass stamps the superclass closure, so a
        # class's own stamp covers its whole subtree) and schema
        # generation (any schema edit may move the subtree); the
        # returned sets are shared — callers must not mutate them.
        # Values are ``(schema generation, extent stamp, set)``.
        self._extent_cache: Dict[str, Tuple[object, int, Set[OID]]] = {}
        #: Reader-writer lock: every mutator holds the write side through
        #: its listener notification; snapshots hold the read side while
        #: pinning state or falling through to live structures.
        self._rw = RWLock()
        # Copy-on-write hooks (weakly held): notified *before* a mutation
        # touches a structure, so snapshots can pin the pre-image.  The
        # list itself is guarded by a plain mutex — registration happens
        # on reader threads, pruning on the writer, and a lost
        # registration would silently break a snapshot's isolation.
        self._snapshot_hooks: List[weakref.ref] = []
        self._hooks_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Reader-writer protocol & snapshot copy-on-write
    # ------------------------------------------------------------------

    def read_locked(self):
        """Shared-access context: excludes in-flight mutations (and whole
        ``batch`` blocks) while live structures are being read."""
        return self._rw.read_locked()

    def write_locked(self):
        """Exclusive-access context (reentrant per thread) — what every
        mutator wraps itself in."""
        return self._rw.write_locked()

    def register_snapshot_hook(self, hook: Any) -> None:
        """Register an object whose ``before_write(...)`` is called ahead
        of every mutation with the pieces about to change (held weakly)."""
        with self._hooks_lock:
            self._snapshot_hooks.append(weakref.ref(hook))

    def unregister_snapshot_hook(self, hook: Any) -> None:
        with self._hooks_lock:
            self._snapshot_hooks = [ref for ref in self._snapshot_hooks
                                    if ref() is not None
                                    and ref() is not hook]

    def _before_write(self, classes: Iterable[str] = (),
                      links: Iterable[Tuple[str, str]] = (),
                      attr_oids: Iterable[OID] = (),
                      entity_oids: Iterable[OID] = ()) -> None:
        """Give every live snapshot a chance to pin the pre-images of the
        structures this mutation is about to change (copy-on-write)."""
        hooks = self._snapshot_hooks
        if not hooks:
            return
        dead = 0
        for ref in hooks:
            hook = ref()
            if hook is None:
                dead += 1
            else:
                hook.before_write(classes=classes, links=links,
                                  attr_oids=attr_oids,
                                  entity_oids=entity_oids)
        if dead:
            # Prune against the *current* list under the mutex: a reader
            # may have registered a new hook since we captured ours.
            with self._hooks_lock:
                self._snapshot_hooks = [ref for ref in self._snapshot_hooks
                                        if ref() is not None]

    # ------------------------------------------------------------------
    # Versioning & listeners
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing counter, bumped by every mutation."""
        return self._version

    @property
    def schema_version(self) -> int:
        """Counter bumped by every SCHEMA event (schema evolution)."""
        return self._schema_version

    def version_vector(self, footprint: "Footprint") -> Tuple[int, ...]:
        """The stamps ``footprint`` names (in its fixed order), prefixed
        with the schema version — the invalidation key for anything
        computed from those extents, links and attributes.  The
        wildcard footprint is stamped by the global counter.  (Shared,
        as a function, with the pinned copies of a
        :class:`~repro.subdb.snapshot.DatabaseSnapshot`.)"""
        if footprint.everything:
            return (self._schema_version, self._version)
        extents, links, attrs = footprint.order
        extent = self._extent_versions.get
        link = self._link_versions.get
        attr = self._attr_versions.get
        return (self._schema_version,
                *[extent(cls, 0) for cls in extents],
                *[link(key, 0) for key in links],
                *[attr(key, 0) for key in attrs])

    def version_state(self) -> Dict[str, Any]:
        """The complete version bookkeeping as a JSON-ready dict: the
        global counter, the schema counter, and the three stamp maps
        (pair-keyed ones nested ``class -> name -> version``).
        Persisted with every save/checkpoint so a restored database
        resumes its invalidation history instead of restarting every
        watermark at zero."""
        return {
            "version": self._version,
            "schema_version": self._schema_version,
            "extent_versions": dict(sorted(self._extent_versions.items())),
            "link_versions": _nest(self._link_versions),
            "attr_versions": _nest(self._attr_versions),
        }

    def restore_version_state(self, state: Dict[str, Any]) -> None:
        """Overwrite the version bookkeeping with a persisted snapshot
        (inverse of :meth:`version_state`; a stamp map the document
        lacks loads as empty).

        Used by the persistence layer after re-inserting stored
        entities: the load-time churn inflated every counter, and this
        resets them to the values the saved session actually had —
        which is also what makes a WAL checkpoint watermark exact.
        """
        with self.write_locked():
            self._version = int(state.get("version", self._version))
            self._schema_version = int(
                state.get("schema_version", self._schema_version))
            self._extent_versions = {
                cls: int(v)
                for cls, v in state.get("extent_versions", {}).items()}
            self._link_versions = _unnest(state.get("link_versions", {}))
            self._attr_versions = _unnest(state.get("attr_versions", {}))
            # Cached extents are keyed by the old counters; drop them
            # rather than leaving entries that can never match again.
            self._extent_cache.clear()

    def add_listener(self, listener: Listener) -> None:
        """Register a callback invoked after every mutation.

        Listeners are notified in registration order — deterministic,
        so e.g. the rule engine's maintenance listener (registered at
        engine construction) always runs before later-attached
        subscribers, which therefore observe maintained state."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        """Unregister a listener.  Safe to call from inside a listener:
        a listener removed while a notification is in flight is skipped
        for the remainder of that event (see :meth:`_notify`)."""
        self._listeners.remove(listener)

    def listener_count(self) -> int:
        """How many update listeners are registered — the baseline for
        leak checks (a detached subscription manager must return the
        count to where it started)."""
        return len(self._listeners)

    def _notify(self, event: UpdateEvent) -> None:
        # Iterate a snapshot, but re-check membership before each call:
        # a listener added during the notification does not see the
        # in-flight event, and one removed by an earlier listener is
        # skipped instead of being notified after its removal.
        for listener in list(self._listeners):
            if listener in self._listeners:
                listener(event)

    def _emit(self, kind: UpdateKind, classes: Iterable[str],
              detail: str = "", oids: Tuple[OID, ...] = (),
              link: Optional[Tuple[str, str]] = None,
              payload: Optional[Dict[str, Any]] = None,
              dropped_links: Iterable[Tuple[str, str]] = ()) -> None:
        self._version = version = self._version + 1
        classes = tuple(classes)
        if kind is UpdateKind.INSERT or kind is UpdateKind.DELETE:
            for cls in classes:
                self._extent_versions[cls] = version
            for key in dropped_links:
                self._link_versions[key] = version
        elif kind is UpdateKind.SET_ATTRIBUTE:
            name = payload["name"]
            for cls in classes:
                self._attr_versions[(cls, name)] = version
        elif kind is UpdateKind.SCHEMA:
            self._schema_version += 1
        elif link is not None:
            self._link_versions[link] = version
        event = UpdateEvent(kind=kind, classes=classes,
                            version=self._version, detail=detail,
                            oids=oids, link=link, payload=payload)
        if self._batch_depth > 0:
            self._batch_classes.update(classes)
            self._batch_count += 1
            self._batch_events.append(event)
            return
        self._notify(event)

    @contextmanager
    def batch(self):
        """Group several mutations into one update event.

        Listener notification (and hence rule maintenance — the forward
        pass of Section 6) is deferred to the end of the outermost batch
        block, which then emits a single :data:`UpdateKind.BATCH` event
        whose ``classes`` is the union of every touched class.  Each
        mutation still bumps the version counter individually.
        """
        # The write lock is held for the whole block: a snapshot (or any
        # read-locked access) can never observe the intermediate states
        # between a batch's constituent mutations.
        self._rw.acquire_write()
        self._batch_depth += 1
        try:
            yield self
        finally:
            try:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._batch_count:
                    classes = tuple(sorted(self._batch_classes))
                    count = self._batch_count
                    sub_events = tuple(self._batch_events)
                    self._batch_classes = set()
                    self._batch_count = 0
                    self._batch_events = []
                    event = UpdateEvent(kind=UpdateKind.BATCH,
                                        classes=classes,
                                        version=self._version,
                                        detail=f"batch of {count} updates",
                                        sub_events=sub_events)
                    self._notify(event)
            finally:
                self._rw.release_write()

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------

    def insert(self, cls: str, label: Optional[str] = None,
               **attrs: Any) -> Entity:
        """Create a new instance of E-class ``cls``.

        Attribute values are validated against the descriptive attributes
        visible from the class (own + inherited) and their domain classes.
        """
        with self.write_locked():
            extent = self._require_extent(cls)
            visible = self.schema.descriptive_attributes(cls)
            for name, value in attrs.items():
                if name not in visible:
                    raise UnknownAttributeError(
                        f"class {cls!r} has no descriptive attribute "
                        f"{name!r}")
                self.schema.dclass(visible[name].target).validate(value)
            affected = self.schema.up(cls)
            self._before_write(classes=affected)
            oid = self._allocator.allocate(label)
            entity = Entity(oid, cls, attrs)
            extent[oid] = entity
            self._entities[oid] = entity
            self._emit(UpdateKind.INSERT, affected,
                       f"insert {cls} {oid!r}", oids=(oid,),
                       payload={"cls": cls, "oid": oid.value,
                                "label": label, "attrs": dict(attrs)})
            return entity

    def _check_crossproduct(self, link: Aggregation, owner_oid: OID,
                            target_oid: OID) -> None:
        """Reject a link that would complete a duplicate crossproduct
        combination: no two instances of a crossproduct class may relate
        the same tuple of component instances."""
        if link.kind is not AssociationKind.CROSSPRODUCT:
            return
        declaration = self.schema.crossproduct_of(link.owner)
        if declaration is None:  # pragma: no cover - defensive
            return
        combination = []
        for component in declaration.components:
            key = (link.owner, component.lower())
            if component == link.target and key == link.key:
                combination.append(target_oid)
                continue
            linked = self._fwd.get(key, {}).get(owner_oid, set())
            if not linked:
                return  # incomplete combination: nothing to compare yet
            combination.append(next(iter(linked)))
        for other in self.direct_extent(link.owner):
            if other == owner_oid:
                continue
            other_combination = []
            for component in declaration.components:
                key = (link.owner, component.lower())
                linked = self._fwd.get(key, {}).get(other, set())
                if not linked:
                    break
                other_combination.append(next(iter(linked)))
            else:
                if other_combination == combination:
                    raise ConstraintViolationError(
                        f"crossproduct {link.owner!r}: combination "
                        f"{combination!r} already exists as {other!r}")

    def delete(self, oid: OID) -> None:
        """Remove an instance and every link it participates in.

        Parts held through a composition (C) link are deleted with their
        whole (cascade)."""
        with self.write_locked():
            entity = self.entity(oid)
            touched_links = \
                [key for key, index in self._fwd.items() if oid in index] \
                + [key for key, index in self._rev.items() if oid in index]
            affected = self.schema.up(entity.cls)
            self._before_write(classes=affected, links=touched_links,
                               entity_oids=(oid,))
            # Cascade composition parts first.
            for link in self.schema.compositions(entity.cls):
                for part in list(self._fwd.get(link.key, {}).get(oid, ())):
                    if self.has(part):
                        self.delete(part)
            # Drop links first (silently; their removal is part of this
            # event).
            for key, index in list(self._fwd.items()):
                if oid in index:
                    for target in list(index[oid]):
                        self._unlink(key, oid, target)
            for key, index in list(self._rev.items()):
                if oid in index:
                    for owner in list(index[oid]):
                        self._unlink(key, owner, oid)
            del self._extents[entity.cls][oid]
            del self._entities[oid]
            self._emit(UpdateKind.DELETE, affected,
                       f"delete {entity.cls} {oid!r}", oids=(oid,),
                       payload={"oid": oid.value},
                       dropped_links=touched_links)

    def entity(self, oid: OID) -> Entity:
        """The entity carrying ``oid`` (raises if it does not exist)."""
        try:
            return self._entities[oid]
        except KeyError:
            raise UnknownObjectError(f"no object with OID {oid!r}") from None

    def has(self, oid: OID) -> bool:
        return oid in self._entities

    def attr_column(self, oids: Iterable[OID], attr: str) -> List[Any]:
        """``attr`` of every object of ``oids``, in order (``None``
        where unset) — the one bulk read a value-index build makes."""
        entities = self._entities
        try:
            return [entities[oid].get(attr) for oid in oids]
        except KeyError as exc:
            raise UnknownObjectError(
                f"no object with OID {exc.args[0]!r}") from None

    def _require_extent(self, cls: str) -> Dict[OID, Entity]:
        """The direct-extent dict of ``cls``, created lazily so classes
        added to the schema after this database was built (schema
        evolution) work transparently."""
        extent = self._extents.get(cls)
        if extent is None:
            if not self.schema.has_eclass(cls):
                raise UnknownClassError(f"unknown E-class {cls!r}")
            extent = self._extents.setdefault(cls, {})
        return extent

    def extent(self, cls: str) -> Set[OID]:
        """The extent of ``cls``: its direct instances plus (by the
        identity semantics of generalization) the instances of all its
        subclasses.

        The returned set is a memo shared between callers and must not
        be mutated (copy it first).  Entries are validated against the
        class's extent stamp and the schema's generation, so link and
        attribute writes — and writes to unrelated classes — keep the
        memo warm, while any schema edit (a new subclass, say) drops it.
        """
        generation = self.schema.generation
        stamp = self._extent_versions.get(cls, 0)
        cached = self._extent_cache.get(cls)
        if cached is not None and cached[0] is generation \
                and cached[1] == stamp:
            return cached[2]
        out: Set[OID] = set(self._require_extent(cls))
        for sub in self.schema.subclasses(cls):
            out.update(self._extents.get(sub, ()))
        self._extent_cache[cls] = (generation, stamp, out)
        return out

    def direct_extent(self, cls: str) -> Set[OID]:
        """Only the instances whose *direct* class is ``cls``."""
        return set(self._require_extent(cls))

    def extent_size(self, cls: str) -> int:
        """``len(extent(cls))`` without materializing the set.

        Direct extents of distinct classes are disjoint (every object has
        exactly one direct class), so the sizes simply add up.
        """
        size = len(self._require_extent(cls))
        for sub in self.schema.subclasses(cls):
            size += len(self._extents.get(sub, ()))
        return size

    def is_instance_of(self, oid: OID, cls: str) -> bool:
        """True if the object belongs to the extent of ``cls``."""
        entity = self.entity(oid)
        return self.schema.is_subclass_of(entity.cls, cls)

    def __len__(self) -> int:
        return len(self._entities)

    def iter_entities(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def get_attribute(self, oid: OID, name: str) -> Any:
        """The value of descriptive attribute ``name`` on the object
        (``None`` when unset); the attribute must be visible from the
        object's direct class."""
        entity = self.entity(oid)
        self.schema.attribute(entity.cls, name)  # visibility check
        return entity.get(name)

    def set_attribute(self, oid: OID, name: str, value: Any) -> None:
        """Update a descriptive attribute (validated, journaled)."""
        with self.write_locked():
            entity = self.entity(oid)
            link = self.schema.attribute(entity.cls, name)
            self.schema.dclass(link.target).validate(value)
            self._before_write(attr_oids=(oid,))
            entity._set(name, value)
            affected = self.schema.up(entity.cls)
            self._emit(UpdateKind.SET_ATTRIBUTE, affected,
                       f"set {entity.cls} {oid!r}.{name}", oids=(oid,),
                       payload={"oid": oid.value, "name": name,
                                "value": value})

    # ------------------------------------------------------------------
    # Links (entity associations)
    # ------------------------------------------------------------------

    def associate(self, owner: Entity | OID, name: str,
                  target: Entity | OID) -> None:
        """Create an extensional link of association ``name`` between the
        two objects.

        The owner object must be an instance of the association's owner
        class (possibly via inheritance), the target an instance of its
        target class.  Single-valued associations enforce their
        cardinality.
        """
        owner_oid = owner.oid if isinstance(owner, Entity) else owner
        target_oid = target.oid if isinstance(target, Entity) else target
        with self.write_locked():
            owner_cls = self.entity(owner_oid).cls
            schema = self.schema
            link = schema.entity_association(owner_cls, name)
            target_cls = self.entity(target_oid).cls
            if not schema.is_subclass_of(target_cls, link.target):
                raise ConstraintViolationError(
                    f"object {target_oid!r} is not an instance of "
                    f"{link.target!r} (association {link.name!r})")
            fwd = self._fwd.setdefault(link.key, {})
            existing = fwd.get(owner_oid, set())
            if not link.many and existing and target_oid not in existing:
                raise ConstraintViolationError(
                    f"association {link.name!r} of {link.owner!r} is "
                    f"single-valued; {owner_oid!r} is already linked")
            if link.kind is AssociationKind.COMPOSITION:
                owners = self._rev.get(link.key, {}).get(target_oid, set())
                if owners and owner_oid not in owners:
                    raise ConstraintViolationError(
                        f"composition {link.name!r}: part {target_oid!r} "
                        f"already belongs to another whole (exclusive "
                        f"part-of)")
            self._check_crossproduct(link, owner_oid, target_oid)
            self._before_write(links=(link.key,))
            self._link(link.key, owner_oid, target_oid)
            affected = schema.up(owner_cls) | schema.up(target_cls)
            self._emit(UpdateKind.ASSOCIATE, affected,
                       f"associate {owner_oid!r} -{link.name}-> "
                       f"{target_oid!r}",
                       oids=(owner_oid, target_oid), link=link.key,
                       payload={"owner": owner_oid.value,
                                "name": link.name,
                                "target": target_oid.value})

    def dissociate(self, owner: Entity | OID, name: str,
                   target: Entity | OID) -> None:
        """Remove an extensional link previously created by
        :meth:`associate`."""
        owner_oid = owner.oid if isinstance(owner, Entity) else owner
        target_oid = target.oid if isinstance(target, Entity) else target
        with self.write_locked():
            owner_cls = self.entity(owner_oid).cls
            schema = self.schema
            link = schema.entity_association(owner_cls, name)
            if target_oid not in self._fwd.get(link.key, {}) \
                    .get(owner_oid, ()):
                raise ConstraintViolationError(
                    f"objects {owner_oid!r} and {target_oid!r} are not "
                    f"linked by {link.name!r}")
            self._before_write(links=(link.key,))
            self._unlink(link.key, owner_oid, target_oid)
            affected = (schema.up(owner_cls)
                        | schema.up(self.entity(target_oid).cls))
            self._emit(UpdateKind.DISSOCIATE, affected,
                       f"dissociate {owner_oid!r} -{link.name}-> "
                       f"{target_oid!r}",
                       oids=(owner_oid, target_oid), link=link.key,
                       payload={"owner": owner_oid.value,
                                "name": link.name,
                                "target": target_oid.value})

    def _link(self, key: Tuple[str, str], owner: OID, target: OID) -> None:
        """Add one pair (re-linking a linked pair changes nothing)."""
        fwd = self._fwd.setdefault(key, {})
        if target in fwd.get(owner, ()):
            return
        self._add_member(fwd, owner, target)
        self._add_member(self._rev.setdefault(key, {}), target, owner)
        self._link_counts[key] = self._link_counts.get(key, 0) + 1

    @staticmethod
    def _add_member(index: Dict[OID, Members], oid: OID,
                    member: OID) -> None:
        members = index.get(oid)
        if members is None:
            index[oid] = (member,)
        elif type(members) is tuple:
            index[oid] = (members + (member,) if len(members) < _SMALL
                          else {*members, member})
        else:
            members.add(member)

    def _unlink(self, key: Tuple[str, str], owner: OID, target: OID) -> None:
        """Remove one pair, which the caller knows is linked."""
        self._drop_member(self._fwd[key], owner, target)
        self._drop_member(self._rev[key], target, owner)
        self._link_counts[key] -= 1

    @staticmethod
    def _drop_member(index: Dict[OID, Members], oid: OID,
                     member: OID) -> None:
        members = index[oid]
        if type(members) is tuple:
            members = tuple(m for m in members if m != member)
        else:
            members.discard(member)
            if len(members) > _SMALL:
                return
            members = tuple(members)
        if members:
            index[oid] = members
        else:
            del index[oid]

    # ------------------------------------------------------------------
    # Link traversal (used by the pattern-matching engine)
    # ------------------------------------------------------------------

    def link_index(self, link: Aggregation,
                   from_owner: bool = True) -> Dict[OID, Members]:
        """The internal link index of one association direction, shared
        by reference — strictly read-only for callers.  The compact
        execution layer scans it once to build a CSR adjacency index
        instead of performing per-frontier dict probes."""
        index = self._fwd if from_owner else self._rev
        return index.get(link.key, {})

    def linked(self, oid: OID, link: Aggregation,
               from_owner: bool = True) -> Set[OID]:
        """The objects linked to ``oid`` through ``link``.

        ``from_owner=True`` reads the forward index (``oid`` stands at the
        emanating end); ``False`` reads the reverse index.
        """
        index = self._fwd if from_owner else self._rev
        return set(index.get(link.key, {}).get(oid, ()))

    def link_pairs(self, link: Aggregation) -> Set[Tuple[OID, OID]]:
        """Every (owner, target) pair of the association."""
        out = set()
        for owner, targets in self._fwd.get(link.key, {}).items():
            for target in targets:
                out.add((owner, target))
        return out

    def link_count(self, link: Aggregation) -> int:
        """The number of pairs of the association, kept as a running
        count (no scan)."""
        return self._link_counts.get(link.key, 0)

    def neighbors(self, oid: OID, resolved: ResolvedLink,
                  forward: bool = True) -> Set[OID]:
        """Traverse a :class:`ResolvedLink` from ``oid``.

        For an aggregation link the direction is derived from the
        resolution (``a_is_owner``) combined with ``forward`` (whether we
        are moving from the resolved pair's first class to its second).
        For an identity link the neighbor is the object itself — the two
        classes' instances are the same real-world objects.
        """
        if resolved.kind == "identity":
            return {oid}
        from_owner = resolved.a_is_owner if forward else not resolved.a_is_owner
        return self.linked(oid, resolved.link, from_owner=from_owner)

    def bulk_neighbors(self, oids: Iterable[OID], resolved: ResolvedLink,
                       forward: bool = True) -> Dict[OID, Members]:
        """Neighbor sets for a whole frontier of objects in one pass.

        One index lookup resolves the association; each object then maps
        to its stored neighbor entry *by reference* (no per-object copy;
        a tuple or a set, see ``_fwd`` — callers only read it, and pass
        it as the argument of ``set`` methods).  Objects without links
        map to a shared empty set.  This is the hot lookup of the
        frontier-batched join executor.
        """
        if resolved.kind == "identity":
            return {oid: {oid} for oid in oids}
        from_owner = resolved.a_is_owner if forward else not resolved.a_is_owner
        index = self._fwd if from_owner else self._rev
        table = index.get(resolved.link.key, {})
        return {oid: table.get(oid, EMPTY_OIDS) for oid in oids}

    # ------------------------------------------------------------------
    # Bulk statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Coarse size statistics (for benchmarks and diagnostics)."""
        return {
            "objects": len(self._entities),
            "links": sum(self._link_counts.values()),
            "classes": len(self._extents),
            "version": self._version,
        }
