"""Unit tests for persistence: schema/database/subdatabase round-trips
and whole-session save/load."""

import json
import os

import pytest

from repro.errors import DataError
from repro.model.dclass import DClass
from repro.model.schema import Schema
from repro.oql.footprint import Footprint
from repro.rules.control import EvaluationMode
from repro.rules.engine import RuleEngine
from repro.storage import (
    database_from_dict,
    database_to_dict,
    load_session,
    save_session,
    schema_from_dict,
    schema_to_dict,
    subdatabase_from_dict,
    subdatabase_to_dict,
)
from repro.storage.session import session_from_dict, session_to_dict
from repro.university import build_paper_database, build_sdb
from repro.university.schema import build_university_schema


class TestSchemaRoundtrip:
    def test_university_roundtrip(self):
        original = build_university_schema()
        restored = schema_from_dict(schema_to_dict(original))
        assert restored.eclass_names == original.eclass_names
        assert [str(l) for l in restored.aggregations()] == \
            [str(l) for l in original.aggregations()]
        assert restored.generalizations() == original.generalizations()

    def test_document_is_json_serializable(self):
        doc = schema_to_dict(build_university_schema())
        json.dumps(doc)

    def test_check_predicate_recorded_as_warning(self):
        schema = Schema()
        schema.add_eclass("A")
        schema.add_attribute("A", "grade",
                             DClass("letter", str,
                                    check=lambda v: v in "ABC"))
        doc = schema_to_dict(schema)
        assert any("letter" in w for w in doc["warnings"])

    def test_dropped_check_warning_resurfaces_on_load(self):
        from repro.storage import StoredSchemaWarning
        schema = Schema()
        schema.add_eclass("A")
        schema.add_attribute("A", "grade",
                             DClass("letter", str,
                                    check=lambda v: v in "ABC"))
        doc = schema_to_dict(schema)
        with pytest.warns(StoredSchemaWarning, match="letter"):
            schema_from_dict(doc)

    def test_clean_schema_loads_without_warnings(self):
        import warnings
        doc = schema_to_dict(build_university_schema())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schema_from_dict(doc)

    def test_restored_schema_resolves_links(self):
        restored = schema_from_dict(
            schema_to_dict(build_university_schema()))
        assert restored.resolve_link("Teacher",
                                     "Section").link.name == "teaches"
        from repro.errors import AmbiguousPathError
        with pytest.raises(AmbiguousPathError):
            restored.resolve_link("TA", "Section")


class TestDatabaseRoundtrip:
    def test_entities_and_links_roundtrip(self):
        data = build_paper_database()
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        restored = database_from_dict(database_to_dict(data.db), schema)
        assert restored.stats()["objects"] == data.db.stats()["objects"]
        assert restored.stats()["links"] == data.db.stats()["links"]

    def test_oid_values_preserved(self):
        data = build_paper_database()
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        restored = database_from_dict(database_to_dict(data.db), schema)
        t1 = data.oid("t1")
        assert restored.entity(t1)["name"] == "Smith"

    def test_labels_preserved(self):
        data = build_paper_database()
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        restored = database_from_dict(database_to_dict(data.db), schema)
        labels = {e.oid.label for e in restored.iter_entities()}
        assert "t1" in labels and "s5" in labels

    def test_new_inserts_do_not_collide_after_load(self):
        data = build_paper_database()
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        restored = database_from_dict(database_to_dict(data.db), schema)
        fresh = restored.insert("Teacher", name="New")
        assert fresh.oid.value > max(
            e.oid.value for e in data.db.iter_entities())

    def test_entities_born_with_final_oids(self):
        """Load goes through the allocator pre-seeding path: the insert
        events listeners observe during a load already carry the stored
        (final) OID values and labels — no post-hoc rewriting that
        would strand listener-built structures on provisional keys."""
        from repro.model.database import Database, UpdateKind
        data = build_paper_database()
        doc = database_to_dict(data.db)
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        seen = {}
        original_insert = Database.insert

        def tracking_insert(self, cls, label=None, **attrs):
            if not self._listeners:
                self.add_listener(
                    lambda e: seen.update(
                        {o.value: o.label for o in e.oids})
                    if e.kind is UpdateKind.INSERT else None)
            return original_insert(self, cls, label, **attrs)

        # The load consumes the document's entities: read them first.
        expected = {e["oid"]: e.get("label") for e in doc["entities"]}
        Database.insert = tracking_insert
        try:
            database_from_dict(doc, schema)
        finally:
            Database.insert = original_insert
        assert seen == expected

    def test_load_releases_the_document_as_it_goes(self):
        """The load consumes its document: loaded with the parsed
        document still referenced, a ~1k-object database costs about
        what it costs alone, and at no point of the load did the entity
        entries loaded so far sit beside the database built from
        them."""
        import tracemalloc
        from repro.university import GeneratorConfig, generate_university
        data = generate_university(GeneratorConfig(
            departments=3, courses=30, sections_per_course=2, teachers=20,
            faculty=4, grads=70, tas=2, students=600, seed=7))
        text = json.dumps(database_to_dict(data.db))
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            doc = json.loads(text)
            parsed = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            restored = database_from_dict(doc, schema)
            with_doc, peak = tracemalloc.get_traced_memory()
            del doc
            alone = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert restored.stats()["objects"] > 900
        assert with_doc - base - alone < parsed / 4
        assert peak - base - alone < parsed / 2

    def test_version_vector_persisted_and_restored(self):
        data = build_paper_database()
        db = data.db
        # Touch one class so its watermark is distinctive.
        t1 = data.oid("t1")
        db.set_attribute(t1, "name", "Smith'")
        doc = database_to_dict(db)
        assert doc["version_state"]["attr_versions"]["Teacher"]["name"] \
            == db.version
        schema = schema_from_dict(schema_to_dict(db.schema))
        restored = database_from_dict(doc, schema)
        assert restored.version == db.version
        assert restored.schema_version == db.schema_version
        assert restored.version_state() == db.version_state()
        footprint = Footprint(frozenset(("Teacher", "Course")),
                              frozenset((("Teacher", "teaches"),)),
                              frozenset((("Teacher", "name"),)))
        assert restored.version_vector(footprint) == \
            db.version_vector(footprint)

    def test_legacy_document_without_version_state_loads(self):
        data = build_paper_database()
        doc = database_to_dict(data.db)
        del doc["version_state"]
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        restored = database_from_dict(doc, schema)
        assert restored.stats()["objects"] == data.db.stats()["objects"]

    def test_duplicate_oid_rejected(self):
        data = build_paper_database()
        doc = database_to_dict(data.db)
        doc["entities"][1]["oid"] = doc["entities"][0]["oid"]
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        with pytest.raises(DataError):
            database_from_dict(doc, schema)

    def test_dangling_link_rejected(self):
        data = build_paper_database()
        doc = database_to_dict(data.db)
        doc["links"][0]["pairs"].append([999999, 999998])
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        with pytest.raises(DataError):
            database_from_dict(doc, schema)


class TestSubdatabaseRoundtrip:
    def test_sdb_roundtrip(self):
        data = build_paper_database()
        sdb = build_sdb(data)
        restored = subdatabase_from_dict(subdatabase_to_dict(sdb),
                                         data.db)
        assert restored.slot_names == sdb.slot_names
        assert restored.patterns == sdb.patterns
        assert restored.intension.edge_between(0, 1).label == "teaches"

    def test_derived_info_roundtrip(self):
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.add_rule(
            "if context Teacher * Section * Course "
            "then TC (Teacher [SS#, degree], Course)")
        subdb = engine.derive("TC")
        restored = subdatabase_from_dict(subdatabase_to_dict(subdb),
                                         data.db)
        assert restored.derived_info == subdb.derived_info

    def test_unknown_oid_rejected(self):
        data = build_paper_database()
        doc = subdatabase_to_dict(build_sdb(data))
        doc["patterns"][0][0] = 424242
        with pytest.raises(DataError):
            subdatabase_from_dict(doc, data.db)


class TestSessionRoundtrip:
    def _engine(self):
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.add_rule(
            "if context Department[name = 'CIS'] * Course * Section * "
            "Student where COUNT(Student by Course) > 39 "
            "then Suggest_offer (Course)", label="R2",
            mode=EvaluationMode.PRE_EVALUATED)
        engine.add_rule(
            "if context TA * Teacher * Section * Suggest_offer:Course "
            "then May_teach (TA, Course)", label="R4")
        engine.refresh()
        return data, engine

    def test_roundtrip_preserves_query_results(self, tmp_path):
        data, engine = self._engine()
        before = engine.query(
            "context May_teach:TA select name display").output
        path = save_session(engine, tmp_path / "session.json")
        restored = load_session(path)
        after = restored.query(
            "context May_teach:TA select name display").output
        assert before == after

    def test_rules_and_modes_restored(self, tmp_path):
        data, engine = self._engine()
        restored = load_session(save_session(engine,
                                             tmp_path / "s.json"))
        assert [r.label for r in restored.rules] == ["R2", "R4"]
        assert restored.controller.mode_of("Suggest_offer") is \
            EvaluationMode.PRE_EVALUATED

    def test_materialized_results_warm_after_load(self, tmp_path):
        data, engine = self._engine()
        restored = load_session(save_session(engine,
                                             tmp_path / "s.json"))
        assert restored.universe.has_subdb("Suggest_offer")
        restored.query("context Suggest_offer:Course select title")
        # No derivation needed: the stored copy was loaded warm.
        assert restored.stats.derivations["Suggest_offer"] == 0

    def test_restored_engine_maintains_on_update(self, tmp_path):
        data, engine = self._engine()
        restored = load_session(save_session(engine,
                                             tmp_path / "s.json"))
        # Enrolling 50 students into a section of c4 makes it suggested.
        db = restored.db
        c4 = data.oid("c4")
        s5 = next(e for e in db.iter_entities()
                  if e.oid.label == "s5")
        with db.batch():
            for i in range(50):
                student = db.insert("Student", name=f"x{i}",
                                    **{"SS#": f"x{i}"})
                db.associate(student, "enrolled", s5)
        result = restored.query(
            "context Suggest_offer:Course select title display")
        assert "Expert Systems" in result.output

    def test_skip_materialized(self, tmp_path):
        data, engine = self._engine()
        path = save_session(engine, tmp_path / "s.json",
                            include_materialized=False)
        restored = load_session(path)
        assert not restored.universe.has_subdb("Suggest_offer")
        # Still derivable on demand.
        restored.query("context Suggest_offer:Course select title")
        assert restored.stats.derivations["Suggest_offer"] == 1

    def test_save_is_atomic_on_crash(self, tmp_path, monkeypatch):
        """A crash mid-save must never destroy the previous copy: the
        document goes to a temp sibling and is renamed into place."""
        data, engine = self._engine()
        path = tmp_path / "session.json"
        save_session(engine, path)
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        engine.db.insert("Teacher", name="Doomed", **{"SS#": "x"})
        with pytest.raises(OSError):
            save_session(engine, path)
        monkeypatch.undo()
        assert path.read_bytes() == before  # old copy fully intact
        assert not list(tmp_path.glob("*.tmp"))  # no litter either

    def test_save_load_save_byte_identity(self, tmp_path):
        data, engine = self._engine()
        first = save_session(engine, tmp_path / "a.json").read_bytes()
        second = save_session(load_session(tmp_path / "a.json"),
                              tmp_path / "b.json").read_bytes()
        assert first == second

    def test_version_vector_survives_session_roundtrip(self, tmp_path):
        data, engine = self._engine()
        restored = load_session(save_session(engine,
                                             tmp_path / "s.json"))
        assert restored.db.version_state() == engine.db.version_state()

    def test_stamp_maps_roundtrip_byte_identically(self, tmp_path):
        data, engine = self._engine()
        db = engine.db
        db.set_attribute(data.oid("t1"), "name", "Smith'")
        db.associate(data["t2"], "teaches", data["s6"])
        db.delete(data.oid("tr1"))
        state = db.version_state()
        assert state["attr_versions"]["Person"]["name"] == \
            state["attr_versions"]["Teacher"]["name"]
        assert state["link_versions"]["Teacher"]["teaches"] > \
            state["attr_versions"]["Teacher"]["name"]
        # The delete stamped the extent and the links it took along.
        assert state["extent_versions"]["Transcript"] == db.version
        assert state["link_versions"]["Transcript"] == \
            {"course": db.version, "student": db.version}
        first = save_session(engine, tmp_path / "a.json").read_bytes()
        second = save_session(load_session(tmp_path / "a.json"),
                              tmp_path / "b.json").read_bytes()
        assert first == second
        assert load_session(tmp_path / "b.json").db.version_state() \
            == state

    def test_pr11_session_document_loads(self):
        """A session saved before the stamps were split carries
        ``class_versions`` only: it loads, counters restored, stamp
        maps empty (everything cached is cold after a load anyway)."""
        from pathlib import Path
        path = Path(__file__).parent / "data" / "session_pr11.json"
        doc = json.loads(path.read_text())
        assert "class_versions" in doc["database"]["version_state"]
        assert "extent_versions" not in doc["database"]["version_state"]
        engine = load_session(path)
        assert engine.db.version_state() == {
            "version": 214, "schema_version": 0, "extent_versions": {},
            "link_versions": {}, "attr_versions": {}}
        before = engine.derive("Teacher_course")
        t2 = next(o for o in engine.db.extent("Teacher")
                  if o.label == "t2")
        s6 = next(o for o in engine.db.extent("Section")
                  if o.label == "s6")
        engine.db.associate(t2, "teaches", s6)
        assert engine.db.version_state()["link_versions"] == \
            {"Teacher": {"teaches": 215}}
        # ... and the write invalidated what was derived before it.
        assert engine.derive("Teacher_course") is not before

    def test_version_check(self):
        data, engine = self._engine()
        doc = session_to_dict(engine)
        doc["format_version"] = 999
        with pytest.raises(DataError):
            session_from_dict(doc)

    def test_rule_oriented_controller_roundtrip(self, tmp_path):
        from repro.rules.control import RuleChainingMode
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="rule")
        engine.add_rule("if context Teacher * Section then REa "
                        "(Teacher, Section)", label="Ra",
                        mode=RuleChainingMode.BACKWARD)
        restored = load_session(save_session(engine,
                                             tmp_path / "s.json"))
        assert restored.controller.mode_of("REa") is \
            RuleChainingMode.BACKWARD


class TestAtomicWritePrimitive:
    """`storage/atomic.py` must never leave temp siblings behind —
    neither on success nor on an injected failure at any step."""

    def test_success_leaves_no_temp_siblings(self, tmp_path):
        from repro.storage.atomic import atomic_write_text

        path = atomic_write_text(tmp_path / "doc.json", '{"a": 1}')
        assert path.read_text() == '{"a": 1}'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_overwrite_leaves_no_temp_siblings(self, tmp_path):
        from repro.storage.atomic import atomic_write_text

        atomic_write_text(tmp_path / "doc.json", "old")
        atomic_write_text(tmp_path / "doc.json", "new")
        assert (tmp_path / "doc.json").read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_failed_replace_cleans_temp_and_keeps_old(
            self, tmp_path, monkeypatch):
        from repro.storage.atomic import atomic_write_text

        atomic_write_text(tmp_path / "doc.json", "old")

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(tmp_path / "doc.json", "new")
        monkeypatch.undo()
        assert (tmp_path / "doc.json").read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_failed_fsync_cleans_temp(self, tmp_path, monkeypatch):
        from repro.storage.atomic import atomic_write_text

        def exploding_fsync(fd):
            raise OSError("simulated fsync failure")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="simulated fsync"):
            atomic_write_text(tmp_path / "doc.json", "data")
        monkeypatch.undo()
        # Nothing materialized at all: no destination, no temp litter.
        assert list(tmp_path.iterdir()) == []


class TestNewAssociationKindsRoundtrip:
    def test_all_five_kinds_roundtrip(self):
        schema = Schema("factory")
        for cls in ["Machine", "Component", "Operator", "Shift",
                    "Assignment", "Slot"]:
            schema.add_eclass(cls)
        from repro.model.dclass import STRING
        schema.add_attribute("Machine", "name", STRING)
        schema.add_composition("Machine", "Component", name="parts")
        schema.declare_interaction("Assignment", ["Operator", "Machine"])
        schema.declare_crossproduct("Slot", ["Machine", "Shift"])
        schema.add_subclass("Machine", "Slot") if False else None
        restored = schema_from_dict(schema_to_dict(schema))
        from repro.model.associations import AssociationKind
        parts = next(l for l in restored.aggregations()
                     if l.name == "parts")
        assert parts.kind is AssociationKind.COMPOSITION
        assert restored.interaction_of("Assignment").participants == \
            ("Operator", "Machine")
        assert restored.crossproduct_of("Slot").components == \
            ("Machine", "Shift")

    def test_restored_semantics_enforced(self):
        from repro.errors import ConstraintViolationError
        from repro.model.database import Database
        schema = Schema("factory")
        schema.add_eclass("Machine")
        schema.add_eclass("Component")
        schema.add_composition("Machine", "Component", name="parts")
        restored = schema_from_dict(schema_to_dict(schema))
        db = Database(restored)
        m1, m2 = db.insert("Machine"), db.insert("Machine")
        part = db.insert("Component")
        db.associate(m1, "parts", part)
        with pytest.raises(ConstraintViolationError):
            db.associate(m2, "parts", part)


class TestRoundtripProperties:
    """Persistence fidelity over generated databases (hypothesis)."""

    def test_generated_database_roundtrips_exactly(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.university import GeneratorConfig, generate_university

        @settings(max_examples=8, deadline=None)
        @given(seed=st.integers(0, 10_000))
        def run(seed):
            data = generate_university(GeneratorConfig(
                departments=2, courses=6, sections_per_course=1,
                teachers=4, students=15, grads=4, tas=1, faculty=2,
                seed=seed))
            schema = schema_from_dict(schema_to_dict(data.db.schema))
            restored = database_from_dict(database_to_dict(data.db),
                                          schema)
            assert restored.stats()["objects"] == \
                data.db.stats()["objects"]
            assert restored.stats()["links"] == data.db.stats()["links"]
            for link in data.db.schema.aggregations():
                if link.target in data.db.schema.dclass_names:
                    continue
                original = {(a.value, b.value)
                            for a, b in data.db.link_pairs(link)}
                mirrored = next(
                    l for l in restored.schema.aggregations()
                    if l.key == link.key)
                copied = {(a.value, b.value)
                          for a, b in restored.link_pairs(mirrored)}
                assert original == copied

        run()

    def test_double_roundtrip_is_stable(self):
        data = build_paper_database()
        doc1 = database_to_dict(data.db)
        schema = schema_from_dict(schema_to_dict(data.db.schema))
        # The load consumes its document: hand it a second copy.
        restored = database_from_dict(database_to_dict(data.db), schema)
        doc2 = database_to_dict(restored)
        assert doc1["entities"] == doc2["entities"]
        assert doc1["links"] == doc2["links"]

    def test_generated_save_load_save_byte_identity(self, tmp_path):
        """Save→load→save is byte-identical over the differential
        generator — the whole document including the version vector."""
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.university import GeneratorConfig, generate_university

        @settings(max_examples=6, deadline=None)
        @given(seed=st.integers(0, 10_000))
        def run(seed):
            data = generate_university(GeneratorConfig(
                departments=2, courses=5, sections_per_course=1,
                teachers=4, students=12, grads=3, tas=1, faculty=2,
                seed=seed))
            engine = RuleEngine(data.db)
            engine.add_rule(
                "if context Teacher * Section * Course "
                "then TC (Teacher, Course)", label="TC")
            path_a = tmp_path / f"a{seed}.json"
            path_b = tmp_path / f"b{seed}.json"
            first = save_session(engine, path_a).read_bytes()
            second = save_session(load_session(path_a),
                                  path_b).read_bytes()
            assert first == second

        run()
