"""Schema evolution.

An OO DBMS must let schemas change after data exists.  These operations
mutate a live :class:`~repro.model.database.Database` and its schema
*together*, keeping the extension consistent and notifying listeners so
the rule engine can invalidate derived results:

* :func:`drop_association` — remove an aggregation link and all its
  extensional links (or attribute values);
* :func:`drop_eclass` — remove an E-class; requires an empty extent and
  no referencing schema elements unless ``cascade=True`` (which deletes
  instances and referencing links first);
* :func:`drop_subclass` — remove a generalization edge; rejected when
  instances rely on it (an object's direct class must keep every
  attribute/link it uses);
* :func:`rename_attribute` — rename a descriptive attribute, migrating
  stored values.

Every operation emits a ``SCHEMA`` update event naming the affected
classes; the rule engine treats a schema event as touching everything it
names.  Each runs under the database's write lock from its first edit
through that event, so no write or snapshot sees a half-edited schema,
and it edits the schema only through :class:`~repro.model.schema.Schema`
methods.
"""

from __future__ import annotations

from repro.errors import ConstraintViolationError, SchemaError
from repro.model.database import Database, UpdateKind


def _emit_schema(db: Database, classes, detail: str) -> None:
    db._emit(UpdateKind.SCHEMA, classes, detail)


def drop_association(db: Database, owner: str, name: str) -> None:
    """Remove the aggregation link ``owner.name`` and its extension.

    For an entity association all its links are dropped; for a
    descriptive attribute the stored values are removed from every
    instance of the owner class and its subclasses.
    """
    with db.write_locked():
        schema = db.schema
        link = schema.aggregation(owner, name)
        if link.target in schema.dclass_names:
            for oid in db.extent(owner):
                entity = db.entity(oid)
                if name in entity:
                    entity._attrs.pop(name, None)
        else:
            for pair in list(db.link_pairs(link)):
                db._unlink(link.key, *pair)
        schema.drop_aggregation(owner, name)
        _emit_schema(db, {owner, link.target} & set(schema.eclass_names)
                     or {owner}, f"drop association {owner}.{name}")


def drop_eclass(db: Database, name: str, cascade: bool = False) -> None:
    """Remove an E-class from the schema.

    Without ``cascade`` the class must have no direct instances, no
    subclasses, and no aggregation link touching it.  With ``cascade``
    its direct instances are deleted and every touching link (from any
    class) is dropped first; subclasses still block the drop — remove
    them explicitly.
    """
    with db.write_locked():
        schema = db.schema
        subclasses = schema.direct_subclasses(name)
        if subclasses:
            raise SchemaError(
                f"class {name!r} has subclasses {sorted(subclasses)}; "
                f"drop them first")
        instances = db.direct_extent(name)
        if cascade:
            for oid in sorted(instances):
                if db.has(oid):
                    db.delete(oid)
            for link in schema.aggregations():
                if link.owner == name or link.target == name:
                    drop_association(db, link.owner, link.name)
        elif instances:
            raise ConstraintViolationError(
                f"class {name!r} has {len(instances)} instances; "
                f"delete them or pass cascade=True")
        # Refuses a class that links still touch (no cascade).
        schema.drop_eclass(name)
        db._extents.pop(name, None)
        _emit_schema(db, {name}, f"drop class {name}")


def drop_subclass(db: Database, superclass: str, subclass: str) -> None:
    """Remove a generalization edge.

    Rejected when any instance *relies* on the edge: a direct or
    transitive instance of ``subclass`` that carries attribute values or
    links defined at ``superclass`` (or above, if this was the only path
    up).
    """
    with db.write_locked():
        schema = db.schema
        # What would the subclass lose?  Everything visible through this
        # edge but not through its other superclasses: drop the edge
        # tentatively, and put it back if anything relied on it.
        schema.drop_subclass(superclass, subclass)
        try:
            lost_links = []
            for link in schema.aggregations():
                if link.target in schema.dclass_names:
                    continue
                if link.owner not in schema.up(subclass) and any(
                        db._fwd.get(link.key, {}).get(oid)
                        for oid in db.direct_extent(subclass)):
                    lost_links.append(link)
            offenders = []
            for oid in db.extent(subclass):
                entity = db.entity(oid)
                if not schema.is_subclass_of(entity.cls, subclass):
                    continue
                for attr in entity.attributes:
                    if attr not in schema.descriptive_attributes(entity.cls):
                        offenders.append((oid, attr))
            if offenders or lost_links:
                raise ConstraintViolationError(
                    f"dropping {superclass!r} -> {subclass!r} would orphan "
                    f"attribute values {offenders[:3]!r} / links "
                    f"{[str(l) for l in lost_links[:3]]}")
        except Exception:
            schema.add_subclass(superclass, subclass)
            raise
        _emit_schema(db, {superclass, subclass},
                     f"drop generalization {superclass} -> {subclass}")


def rename_attribute(db: Database, owner: str, old: str,
                     new: str) -> None:
    """Rename a descriptive attribute, migrating stored values."""
    with db.write_locked():
        db.schema.rename_attribute(owner, old, new)
        for oid in db.extent(owner):
            entity = db.entity(oid)
            if old in entity:
                entity._attrs[new] = entity._attrs.pop(old)
        _emit_schema(db, {owner}, f"rename {owner}.{old} -> {owner}.{new}")
