"""Tests for schema evolution: drops, renames, data migration, and
derived-result invalidation."""

import threading

import pytest

from repro.errors import (
    ConstraintViolationError,
    SchemaError,
    UnknownAssociationError,
    UnknownClassError,
)
from repro.model import evolution
from repro.model.database import UpdateKind
from repro.rules.engine import RuleEngine
from repro.university import build_paper_database


@pytest.fixture
def data():
    return build_paper_database()


class TestDropAssociation:
    def test_entity_association_links_removed(self, data):
        link = data.db.schema.resolve_link("Teacher", "Section").link
        assert data.db.link_count(link) > 0
        evolution.drop_association(data.db, "Teacher", "teaches")
        from repro.errors import NoAssociationError
        with pytest.raises(NoAssociationError):
            data.db.schema.resolve_link("Teacher", "Section")

    def test_attribute_values_removed(self, data):
        evolution.drop_association(data.db, "Section", "textbook")
        entity = data.db.entity(data.oid("s2"))
        assert "textbook" not in entity

    def test_unknown_association(self, data):
        with pytest.raises(UnknownAssociationError):
            evolution.drop_association(data.db, "Teacher", "nothing")

    def test_schema_event_emitted(self, data):
        events = []
        data.db.add_listener(events.append)
        evolution.drop_association(data.db, "Teacher", "teaches")
        assert events[-1].kind is UpdateKind.SCHEMA
        assert "Teacher" in events[-1].classes


class TestDropEClass:
    def test_requires_empty_extent(self, data):
        with pytest.raises(ConstraintViolationError):
            evolution.drop_eclass(data.db, "Transcript")

    def test_cascade_deletes_instances_and_links(self, data):
        evolution.drop_eclass(data.db, "Transcript", cascade=True)
        assert not data.db.schema.has_eclass("Transcript")
        # The links from Transcript are gone from the schema too.
        names = {l.key for l in data.db.schema.aggregations()}
        assert ("Transcript", "student") not in names

    def test_subclasses_block_drop(self, data):
        with pytest.raises(SchemaError):
            evolution.drop_eclass(data.db, "Grad", cascade=True)

    def test_unknown_class(self, data):
        with pytest.raises(UnknownClassError):
            evolution.drop_eclass(data.db, "Ghost")

    def test_leaf_class_with_cascade(self, data):
        evolution.drop_eclass(data.db, "RA", cascade=True)
        assert not data.db.schema.has_eclass("RA")
        assert "RA" not in data.db.schema.subclasses("Grad")


class TestDropSubclass:
    def test_rejected_when_instances_rely_on_it(self, data):
        # TAs teach sections through the Teacher superclass.
        with pytest.raises(ConstraintViolationError):
            evolution.drop_subclass(data.db, "Teacher", "TA")
        # Edge restored on failure:
        assert "TA" in data.db.schema.subclasses("Teacher")

    def test_unused_edge_drops_cleanly(self, data):
        # Undergrads u1/u2 carry 'year' (own) and Person/Student attrs;
        # create a fresh, genuinely unused edge instead.
        schema = data.db.schema
        schema.add_eclass("Visitor")
        schema.add_subclass("Person", "Visitor")
        evolution.drop_subclass(data.db, "Person", "Visitor")
        assert "Visitor" not in schema.subclasses("Person")

    def test_not_a_direct_subclass(self, data):
        with pytest.raises(SchemaError):
            evolution.drop_subclass(data.db, "Person", "TA")


class TestRenameAttribute:
    def test_values_migrate(self, data):
        evolution.rename_attribute(data.db, "Section", "textbook", "book")
        assert data.db.get_attribute(data.oid("s2"), "book") == "Ullman"
        from repro.errors import UnknownAttributeError
        with pytest.raises(UnknownAttributeError):
            data.db.get_attribute(data.oid("s2"), "textbook")

    def test_subclass_instances_migrate_too(self, data):
        evolution.rename_attribute(data.db, "Person", "name", "full_name")
        assert data.db.get_attribute(data.oid("ta1"),
                                     "full_name") == "Quinn"

    def test_name_collision_rejected(self, data):
        with pytest.raises(SchemaError):
            evolution.rename_attribute(data.db, "Course", "title", "c#")

    def test_queries_use_new_name(self, data):
        evolution.rename_attribute(data.db, "Section", "textbook", "book")
        engine = RuleEngine(data.db)
        result = engine.query(
            "context Course [c# = 6100] * Section select book display")
        assert "Ullman" in result.output


class TestDerivedResultInvalidation:
    def test_schema_event_invalidates_all_targets(self, data):
        engine = RuleEngine(data.db)
        engine.add_rule("if context Teacher * Section then TS "
                        "(Teacher, Section)", label="TS")
        engine.derive("TS")
        assert engine.universe.has_subdb("TS")
        evolution.rename_attribute(data.db, "Section", "textbook", "book")
        assert not engine.universe.has_subdb("TS")
        assert engine.is_stale("TS")

    def test_pre_evaluated_rederived_after_schema_change(self, data):
        from repro.rules.control import EvaluationMode
        engine = RuleEngine(data.db)
        engine.add_rule("if context Teacher * Section then TS "
                        "(Teacher, Section)", label="TS",
                        mode=EvaluationMode.PRE_EVALUATED)
        engine.refresh()
        evolution.rename_attribute(data.db, "Course", "title", "label")
        assert engine.universe.has_subdb("TS")
        assert not engine.is_stale("TS")

    def test_incremental_controller_rebuilds_maintainers(self, data):
        engine = RuleEngine(data.db, controller="incremental")
        engine.add_rule("if context Teacher * Section then TS "
                        "(Teacher, Section)", label="TS")
        engine.refresh()
        data.db.associate(data["t4"], "teaches", data["s5"])
        assert engine.stats.incremental_refreshes == 1
        evolution.rename_attribute(data.db, "Course", "title", "label")
        # Still consistent afterwards:
        data.db.dissociate(data["t4"], "teaches", data["s5"])
        maintained = engine.universe.get_subdb("TS").patterns
        fresh = engine.derive("TS", force=True).patterns
        assert maintained == fresh


class TestEvolutionHoldsTheWriteLock:
    """Each operation runs under the write lock from its first schema
    edit through its SCHEMA event: a reader holding the read side sees
    neither the edit nor the event until it lets go."""

    @pytest.mark.parametrize("op, edited", [
        (lambda db: evolution.drop_association(db, "Teacher", "teaches"),
         lambda s: ("Teacher", "teaches") not in
         {l.key for l in s.aggregations()}),
        (lambda db: evolution.drop_eclass(db, "Visitor"),
         lambda s: not s.has_eclass("Visitor")),
        (lambda db: evolution.drop_subclass(db, "Person", "Visitor"),
         lambda s: "Visitor" not in s.direct_subclasses("Person")),
        (lambda db: evolution.rename_attribute(db, "Section", "textbook",
                                               "book"),
         lambda s: "book" in s.descriptive_attributes("Section")),
    ], ids=["drop_association", "drop_eclass", "drop_subclass",
            "rename_attribute"])
    def test_reader_holds_off_the_operation(self, data, op, edited,
                                            monkeypatch):
        db = data.db
        db.schema.add_eclass("Visitor")
        db.schema.add_subclass("Person", "Visitor")
        events = []
        db.add_listener(events.append)
        reading, done_reading = threading.Event(), threading.Event()
        writer_waits = threading.Event()
        acquire_write = db._rw.acquire_write

        def hold_point():
            writer_waits.set()
            acquire_write()

        monkeypatch.setattr(db._rw, "acquire_write", hold_point)

        def reader():
            with db.read_locked():
                reading.set()
                done_reading.wait(timeout=30)

        readers = threading.Thread(target=reader)
        readers.start()
        assert reading.wait(timeout=30)
        writer = threading.Thread(target=op, args=(db,))
        writer.start()
        try:
            assert writer_waits.wait(timeout=30)
            # The writer is at (or inside) the lock; the reader still
            # holds it, so neither the edit nor the event has happened.
            assert not events
            assert not edited(db.schema)
        finally:
            done_reading.set()
            readers.join(timeout=30)
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert [e.kind for e in events] == [UpdateKind.SCHEMA]
        assert edited(db.schema)
