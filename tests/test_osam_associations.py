"""Tests for the remaining OSAM* association types: interaction (I),
composition (C) and crossproduct (X) — declaration, enforcement,
cascading, audits, and traversal by the association operator."""

import pytest

from repro.errors import ConstraintViolationError, SchemaError
from repro.model.associations import AssociationKind
from repro.model.database import Database
from repro.model.dclass import INTEGER, STRING
from repro.model.schema import Schema
from repro.model.validation import check_database
from repro.oql import QueryProcessor
from repro.subdb import Universe


@pytest.fixture
def schema():
    s = Schema("factory")
    for cls in ["Machine", "Component", "Operator", "Shift",
                "Assignment", "Slot"]:
        s.add_eclass(cls)
    s.add_attribute("Machine", "name", STRING)
    s.add_attribute("Component", "serial", INTEGER)
    s.add_attribute("Operator", "name", STRING)
    s.add_attribute("Shift", "name", STRING)
    # C: a component is an exclusive part of one machine.
    s.add_composition("Machine", "Component", name="parts", many=True)
    # I: an assignment interacts an operator with a machine.
    s.declare_interaction("Assignment", ["Operator", "Machine"])
    # X: a slot is a unique (Machine, Shift) combination.
    s.declare_crossproduct("Slot", ["Machine", "Shift"])
    return s


@pytest.fixture
def db(schema):
    return Database(schema)


class TestDeclarations:
    def test_composition_link_kind(self, schema):
        link = next(l for l in schema.aggregations()
                    if l.name == "parts")
        assert link.kind is AssociationKind.COMPOSITION

    def test_interaction_creates_required_links(self, schema):
        links = {l.name: l for l in schema.aggregations()
                 if l.owner == "Assignment"}
        assert set(links) == {"operator", "machine"}
        assert all(l.required and not l.many for l in links.values())
        assert all(l.kind is AssociationKind.INTERACTION
                   for l in links.values())

    def test_interaction_needs_two_participants(self, schema):
        with pytest.raises(SchemaError):
            schema.declare_interaction("Shift", ["Machine"])

    def test_crossproduct_registry(self, schema):
        declaration = schema.crossproduct_of("Slot")
        assert declaration.components == ("Machine", "Shift")
        assert schema.crossproduct_of("Machine") is None

    def test_declarations_listed(self, schema):
        assert [i.cls for i in schema.interactions] == ["Assignment"]
        assert [x.cls for x in schema.crossproducts] == ["Slot"]


class TestComposition:
    def test_exclusive_part_of(self, db):
        m1 = db.insert("Machine", name="press")
        m2 = db.insert("Machine", name="lathe")
        part = db.insert("Component", serial=1)
        db.associate(m1, "parts", part)
        with pytest.raises(ConstraintViolationError) as err:
            db.associate(m2, "parts", part)
        assert "exclusive" in str(err.value)

    def test_relink_same_whole_is_fine(self, db):
        m1 = db.insert("Machine", name="press")
        part = db.insert("Component", serial=1)
        db.associate(m1, "parts", part)
        db.associate(m1, "parts", part)

    def test_cascade_delete(self, db):
        m1 = db.insert("Machine", name="press")
        parts = [db.insert("Component", serial=i) for i in range(3)]
        for part in parts:
            db.associate(m1, "parts", part)
        db.delete(m1.oid)
        assert db.extent("Component") == set()

    def test_cascade_delete_keeps_the_link_counts(self, db):
        """A cascade drops the whole's links, its parts' links and the
        links into it from elsewhere, all silently: every running pair
        count still equals a scan."""
        m1 = db.insert("Machine", name="press")
        m2 = db.insert("Machine", name="lathe")
        for k in range(5):
            db.associate(m1 if k < 3 else m2, "parts",
                         db.insert("Component", serial=k))
        operator = db.insert("Operator", name="ada")
        for machine in (m1, m2):
            assignment = db.insert("Assignment")
            db.associate(assignment, "operator", operator)
            db.associate(assignment, "machine", machine)
        links = [link for link in db.schema.aggregations()
                 if link.target not in db.schema.dclass_names]
        parts = next(link for link in links if link.name == "parts")
        machine = next(link for link in links if link.name == "machine")
        assert db.link_count(parts) == 5 and db.link_count(machine) == 2
        db.delete(m1.oid)
        assert db.link_count(parts) == 2 and db.link_count(machine) == 1
        for link in links:
            assert db.link_count(link) == len(db.link_pairs(link)), link
        assert db.stats()["links"] == 2 + 1 + 2

    def test_cascade_is_transitive(self):
        s = Schema()
        s.add_eclass("A")
        s.add_eclass("B")
        s.add_eclass("C")
        s.add_composition("A", "B")
        s.add_composition("B", "C")
        db = Database(s)
        a = db.insert("A")
        b = db.insert("B")
        c = db.insert("C")
        db.associate(a, "B", b)
        db.associate(b, "C", c)
        db.delete(a.oid)
        assert len(db) == 0

    def test_part_deletion_leaves_whole(self, db):
        m1 = db.insert("Machine", name="press")
        part = db.insert("Component", serial=1)
        db.associate(m1, "parts", part)
        db.delete(part.oid)
        assert db.has(m1.oid)

    def test_traversable_by_association_operator(self, db):
        m1 = db.insert("Machine", name="press")
        part = db.insert("Component", serial=7)
        db.associate(m1, "parts", part)
        qp = QueryProcessor(Universe(db))
        result = qp.execute(
            "context Machine * Component select name serial display")
        assert ("press", 7) in result.table.rows


class TestInteraction:
    def test_audit_flags_incomplete_interaction(self, db):
        db.insert("Assignment")
        violations = check_database(db)
        kinds = {(v.kind, v.link_name) for v in violations}
        assert ("interaction", "operator") in kinds
        assert ("interaction", "machine") in kinds

    def test_complete_interaction_audits_clean(self, db):
        op = db.insert("Operator", name="Ada")
        machine = db.insert("Machine", name="press")
        assignment = db.insert("Assignment")
        db.associate(assignment, "operator", op)
        db.associate(assignment, "machine", machine)
        assert check_database(db) == []

    def test_interaction_queryable_as_relationship(self, db):
        op = db.insert("Operator", name="Ada")
        machine = db.insert("Machine", name="press")
        assignment = db.insert("Assignment")
        db.associate(assignment, "operator", op)
        db.associate(assignment, "machine", machine)
        qp = QueryProcessor(Universe(db))
        result = qp.execute(
            "context Operator * Assignment * Machine "
            "select Operator[name] Machine[name] display")
        assert ("Ada", "press") in result.table.rows


class TestCrossproduct:
    def test_duplicate_combination_rejected(self, db):
        machine = db.insert("Machine", name="press")
        shift = db.insert("Shift", name="night")
        slot1 = db.insert("Slot")
        db.associate(slot1, "machine", machine)
        db.associate(slot1, "shift", shift)
        slot2 = db.insert("Slot")
        db.associate(slot2, "machine", machine)
        with pytest.raises(ConstraintViolationError) as err:
            db.associate(slot2, "shift", shift)
        assert "combination" in str(err.value)

    def test_distinct_combinations_allowed(self, db):
        machine = db.insert("Machine", name="press")
        night = db.insert("Shift", name="night")
        day = db.insert("Shift", name="day")
        for shift in (night, day):
            slot = db.insert("Slot")
            db.associate(slot, "machine", machine)
            db.associate(slot, "shift", shift)
        assert check_database(db) == []

    def test_audit_flags_duplicate_loaded_combinations(self, db):
        machine = db.insert("Machine", name="press")
        shift = db.insert("Shift", name="night")
        slots = [db.insert("Slot") for _ in range(2)]
        link_m = next(l for l in db.schema.aggregations()
                      if l.key == ("Slot", "machine"))
        link_s = next(l for l in db.schema.aggregations()
                      if l.key == ("Slot", "shift"))
        for slot in slots:  # bypass associate() (bulk-load path)
            db._link(link_m.key, slot.oid, machine.oid)
            db._link(link_s.key, slot.oid, shift.oid)
        violations = check_database(db)
        assert any(v.kind == "crossproduct" and "duplicates" in str(v)
                   for v in violations)

    def test_audit_flags_incomplete_combination(self, db):
        slot = db.insert("Slot")
        machine = db.insert("Machine", name="press")
        db.associate(slot, "machine", machine)
        violations = check_database(db)
        assert any(v.kind == "crossproduct" and v.link_name == "shift"
                   for v in violations)


class TestRulesOverNewKinds:
    def test_rule_through_interaction_class(self, db):
        from repro.rules.engine import RuleEngine
        op = db.insert("Operator", name="Ada")
        machine = db.insert("Machine", name="press")
        assignment = db.insert("Assignment")
        db.associate(assignment, "operator", op)
        db.associate(assignment, "machine", machine)
        engine = RuleEngine(db)
        engine.add_rule(
            "if context Operator * Assignment * Machine "
            "then Operates (Operator, Machine)")
        subdb = engine.derive("Operates")
        assert len(subdb) == 1
        assert subdb.intension.edge_between(0, 1).kind == "derived"
