"""Dict (JSON-ready) serialization of the core structures.

Everything round-trips through plain dicts/lists/scalars so callers can
choose their own encoding; :mod:`repro.storage.session` wraps this with
``json`` file I/O.
"""

from __future__ import annotations

import warnings as _warnings
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.errors import DataError, SchemaError
from repro.model.associations import Aggregation, AssociationKind
from repro.model.database import Database
from repro.model.dclass import BOOLEAN, DClass, INTEGER, REAL, STRING
from repro.model.oid import OID
from repro.model.schema import Schema
from repro.subdb.derived import DerivedClassInfo
from repro.subdb.intension import Edge, IntensionalPattern
from repro.subdb.pattern import ExtensionalPattern
from repro.subdb.refs import ClassRef
from repro.subdb.subdatabase import Subdatabase

#: Bumped on any incompatible change to the document layout.
FORMAT_VERSION = 1


class StoredSchemaWarning(UserWarning):
    """A warning that was recorded into a schema document at save time
    (e.g. a dropped ``check`` predicate) and resurfaced on load, so a
    round-tripped schema never *silently* loses validation."""

_BUILTIN_DOMAINS = {
    "integer": INTEGER,
    "string": STRING,
    "real": REAL,
    "boolean": BOOLEAN,
}

_PYTYPE_NAMES = {
    int: "int",
    str: "str",
    float: "float",
    bool: "bool",
}
_PYTYPE_BY_NAME = {name: py for py, name in _PYTYPE_NAMES.items()}


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def _pytype_spec(dclass: DClass) -> List[str]:
    pytypes = dclass.pytype if isinstance(dclass.pytype, tuple) \
        else (dclass.pytype,)
    names = []
    for py in pytypes:
        if py not in _PYTYPE_NAMES:
            raise SchemaError(
                f"D-class {dclass.name!r} has a non-serializable base "
                f"type {py!r}")
        names.append(_PYTYPE_NAMES[py])
    return names


def schema_to_dict(schema: Schema) -> Dict[str, Any]:
    """Serialize an S-diagram."""
    warnings = []
    dclasses = []
    for name in schema.dclass_names:
        dclass = schema.dclass(name)
        if dclass.check is not None:
            warnings.append(
                f"D-class {name!r}: check predicate dropped "
                f"(not serializable)")
        dclasses.append({"name": name, "pytypes": _pytype_spec(dclass)})
    return {
        "name": schema.name,
        "eclasses": [{"name": name, "doc": schema.eclass(name).doc}
                     for name in schema.eclass_names],
        "dclasses": dclasses,
        "aggregations": [
            {"owner": link.owner, "name": link.name,
             "target": link.target, "many": link.many,
             "required": link.required, "kind": link.kind.value}
            for link in schema.aggregations()],
        "generalizations": [
            {"superclass": g.superclass, "subclass": g.subclass}
            for g in schema.generalizations()],
        "interactions": [
            {"cls": i.cls, "participants": list(i.participants)}
            for i in schema.interactions],
        "crossproducts": [
            {"cls": x.cls, "components": list(x.components)}
            for x in schema.crossproducts],
        "warnings": warnings,
    }


def schema_from_dict(doc: Dict[str, Any]) -> Schema:
    """Rebuild an S-diagram (inverse of :func:`schema_to_dict`).

    Warnings recorded at save time (dropped check predicates) are
    re-raised as :class:`StoredSchemaWarning` so callers learn that the
    restored schema validates less than the original did.
    """
    for message in doc.get("warnings", ()):
        _warnings.warn(message, StoredSchemaWarning, stacklevel=2)
    schema = Schema(doc.get("name", "schema"))
    for entry in doc.get("dclasses", ()):
        name = entry["name"]
        if name in _BUILTIN_DOMAINS:
            continue  # registered lazily by add_attribute below
        pytypes = tuple(_PYTYPE_BY_NAME[n] for n in entry["pytypes"])
        schema.add_dclass(DClass(
            name, pytypes if len(pytypes) > 1 else pytypes[0]))
    for entry in doc["eclasses"]:
        schema.add_eclass(entry["name"], entry.get("doc", ""))
    declared = {d["name"] for d in doc.get("dclasses", ())}
    replayed = {(d["cls"], p.lower()) for d in doc.get("interactions", ())
                for p in d["participants"]} | \
        {(d["cls"], c.lower()) for d in doc.get("crossproducts", ())
         for c in d["components"]}
    for entry in doc["aggregations"]:
        target = entry["target"]
        kind = entry.get("kind", "A")
        if kind in ("I", "X"):
            # A declaration replayed below re-creates its own links; one
            # that outlived its declaration is restored as saved.
            if (entry["owner"], entry["name"]) not in replayed:
                schema.restore_aggregation(Aggregation(
                    owner=entry["owner"], name=entry["name"],
                    target=target, many=entry.get("many", False),
                    required=entry.get("required", True),
                    kind=AssociationKind(kind)))
            continue
        if target in declared or target in _BUILTIN_DOMAINS:
            domain = _BUILTIN_DOMAINS.get(target)
            if domain is not None and target not in schema.dclass_names:
                schema.add_dclass(domain)
            schema.add_attribute(entry["owner"], entry["name"], target,
                                 required=entry.get("required", False))
        elif kind == "C":
            schema.add_composition(entry["owner"], target,
                                   name=entry["name"],
                                   many=entry.get("many", True),
                                   required=entry.get("required", False))
        else:
            schema.add_association(entry["owner"], target,
                                   name=entry["name"],
                                   many=entry.get("many", True),
                                   required=entry.get("required", False))
    for entry in doc.get("interactions", ()):
        schema.declare_interaction(entry["cls"], entry["participants"])
    for entry in doc.get("crossproducts", ()):
        schema.declare_crossproduct(entry["cls"], entry["components"])
    for entry in doc["generalizations"]:
        schema.add_subclass(entry["superclass"], entry["subclass"])
    return schema


# ---------------------------------------------------------------------------
# Database
# ---------------------------------------------------------------------------


def database_to_dict(db: Database) -> Dict[str, Any]:
    """Serialize extents and links; OID integer values are preserved.

    The document is a view to encode: each entity's ``attrs`` is the
    entity's own attribute map, shared by reference, not a copy."""
    entities = []
    for entity in sorted(db.iter_entities(), key=lambda e: e.oid.value):
        entities.append({
            "oid": entity.oid.value,
            "label": entity.oid.label,
            "cls": entity.cls,
            "attrs": entity.attribute_map(),
        })
    links = []
    for link in db.schema.aggregations():
        if link.target in db.schema.dclass_names:
            continue
        # Straight from the link index: no intermediate set of pairs.
        pairs = sorted((owner.value, target.value) for owner, targets
                       in db.link_index(link).items()
                       for target in targets)
        if pairs:
            links.append({"owner": link.owner, "name": link.name,
                          "pairs": pairs})
    return {"name": db.name, "entities": entities, "links": links,
            "version_state": db.version_state()}


def database_from_dict(doc: Dict[str, Any], schema: Schema) -> Database:
    """Rebuild a database over ``schema`` with the original OID values.

    The document is *consumed*: ``doc["entities"]`` and ``doc["links"]``
    are taken out of it, and each entity entry is released once loaded,
    so a load never holds the parsed entities beside the database
    built from them.

    Entities are loaded in ascending OID order through an allocator
    pre-seeding path: before each insert the allocator is advanced to
    the stored value, so every entity is *born* with its final OID and
    the insert events listeners observe during the load carry the same
    identifiers the restored database ends up with.  Attribute values
    and link memberships are re-validated on the way in — a tampered
    document fails loudly rather than loading silently inconsistent
    data.  The persisted version vector (when present) is restored
    last, erasing the load-time churn from every watermark.
    """
    db = Database(schema, name=doc.get("name", "db"))
    by_value: Dict[int, OID] = {}
    entries = doc.pop("entities")
    entries.sort(key=lambda e: int(e["oid"]))
    # One string object per class name, not one per parsed entity.
    names: Dict[str, str] = {}
    for i in range(len(entries)):
        entry, entries[i] = entries[i], None
        wanted = int(entry["oid"])
        if wanted < db._allocator.next_value:
            raise DataError(f"duplicate OID value {wanted} in document")
        db._allocator.seed(wanted)
        cls = names.setdefault(entry["cls"], entry["cls"])
        entity = db.insert(cls, entry.get("label"),
                           **entry.get("attrs", {}))
        by_value[wanted] = entity.oid
    for entry in doc.pop("links", ()):
        for a, b in entry["pairs"]:
            try:
                owner, target = by_value[a], by_value[b]
            except KeyError as exc:
                raise DataError(
                    f"link {entry['owner']}.{entry['name']} references "
                    f"unknown OID {exc.args[0]}") from None
            db.associate(owner, entry["name"], target)
    state = doc.get("version_state")
    if state is not None:
        db.restore_version_state(state)
    return db


# ---------------------------------------------------------------------------
# Subdatabases
# ---------------------------------------------------------------------------


def subdatabase_to_dict(subdb: Subdatabase) -> Dict[str, Any]:
    """Serialize a materialized subdatabase (patterns by OID value,
    Nulls first; a columnar result is read from its dense-id columns
    through the intern tables' raw-value columns, never decoded)."""
    columns = subdb.sorted_columns(attrgetter("values"), None,
                                   nulls_last=False)
    if columns is not None:
        patterns = [list(row) for row in zip(*columns)]
    else:
        patterns = sorted(
            ([None if v is None else v.value for v in p.values]
             for p in subdb.patterns),
            key=lambda row: [(-1 if v is None else v) for v in row])
    return {
        "name": subdb.name,
        "slots": [ref.slot for ref in subdb.intension.slots],
        "edges": [{"i": e.i, "j": e.j, "kind": e.kind, "label": e.label}
                  for e in subdb.intension.edges],
        "patterns": patterns,
        "derived_info": {
            slot: {
                "ref": info.ref.slot,
                "source": info.source.slot,
                "visible_attrs": (list(info.visible_attrs)
                                  if info.visible_attrs is not None
                                  else None),
            }
            for slot, info in sorted(subdb.derived_info.items())},
    }


def subdatabase_from_dict(doc: Dict[str, Any],
                          db: Database) -> Subdatabase:
    """Rebuild a subdatabase, resolving OID values against ``db``."""
    by_value = {oid.value: oid for oid in
                (e.oid for e in db.iter_entities())}
    slots = [ClassRef.parse(s) for s in doc["slots"]]
    edges = [Edge(e["i"], e["j"], e.get("kind", "base"),
                  e.get("label", "")) for e in doc.get("edges", ())]
    patterns = []
    for row in doc.get("patterns", ()):
        values = []
        for value in row:
            if value is None:
                values.append(None)
            else:
                try:
                    values.append(by_value[value])
                except KeyError:
                    raise DataError(
                        f"subdatabase {doc['name']!r} references unknown "
                        f"OID value {value}") from None
        patterns.append(ExtensionalPattern(values))
    info = {}
    for slot, entry in doc.get("derived_info", {}).items():
        visible = entry.get("visible_attrs")
        info[slot] = DerivedClassInfo(
            ref=ClassRef.parse(entry["ref"]),
            source=ClassRef.parse(entry["source"]),
            visible_attrs=tuple(visible) if visible is not None else None)
    return Subdatabase(doc["name"], IntensionalPattern(slots, edges),
                       patterns, info)
