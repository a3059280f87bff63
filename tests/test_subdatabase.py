"""Unit tests for subdatabases: pattern types (Figure 3.1), extents,
projection, and the multi-rule union (merge)."""

import pytest

from repro import RuleEngine
from repro.errors import OQLSemanticError
from repro.model.oid import OID
from repro.subdb.derived import DerivedClassInfo
from repro.subdb.intension import Edge, IntensionalPattern
from repro.subdb.pattern import ExtensionalPattern, PatternType
from repro.subdb.refs import ClassRef
from repro.subdb.subdatabase import Subdatabase
from repro.university import build_paper_database, build_sdb


def P(*values):
    return ExtensionalPattern([None if v is None else OID(v)
                               for v in values])


@pytest.fixture
def sdb():
    return build_sdb(build_paper_database())


class TestFigure31:
    def test_seven_patterns(self, sdb):
        assert len(sdb) == 7

    def test_five_pattern_types(self, sdb):
        expected = {
            PatternType(("Teacher", "Section", "Course")),
            PatternType(("Teacher", "Section")),
            PatternType(("Section", "Course")),
            PatternType(("Teacher",)),
            PatternType(("Course",)),
        }
        assert sdb.pattern_types() == expected

    def test_patterns_of_full_type(self, sdb):
        full = sdb.patterns_of_type(("Teacher", "Section", "Course"))
        labels = {tuple(repr(v) for v in p.values) for p in full}
        assert labels == {("t1", "s2", "c1"), ("t2", "s3", "c1"),
                          ("t2", "s3", "c2")}

    def test_extent_of_slot(self, sdb):
        teachers = {repr(o) for o in sdb.extent_of_slot("Teacher")}
        assert teachers == {"t1", "t2", "t3", "t4"}

    def test_pairs(self, sdb):
        pairs = {(repr(a), repr(b)) for a, b in sdb.pairs(0, 1)}
        assert pairs == {("t1", "s2"), ("t2", "s3"), ("t3", "s4")}

    def test_labels_match_figure(self, sdb):
        assert ("t3", "s4", None) in sdb.labels()
        assert (None, "s5", "c4") in sdb.labels()


class TestConstruction:
    def test_arity_mismatch_rejected(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B")])
        with pytest.raises(OQLSemanticError):
            Subdatabase("X", ip, [P(1)])


class TestExtentOfClass:
    def test_unions_alias_levels(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("A", None, 1)])
        sub = Subdatabase("X", ip, [P(1, 2), P(2, 3)])
        assert {o.value for o in sub.extent_of_class("A")} == {1, 2, 3}

    def test_unknown_class(self):
        ip = IntensionalPattern([ClassRef("A")])
        sub = Subdatabase("X", ip)
        with pytest.raises(OQLSemanticError):
            sub.extent_of_class("Z")


class TestDerivedExtentMemo:
    def test_each_target_object_walks_its_patterns_once(self,
                                                        monkeypatch):
        """A second query over the same registered target reads its
        extents from the memo; a re-derived target is a new object and
        walks its own patterns."""
        walks = []
        real = Subdatabase._walk_extent

        def counting(subdb, indices):
            walks.append(subdb)
            return real(subdb, indices)

        monkeypatch.setattr(Subdatabase, "_walk_extent", counting)
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.add_rule("if context Teacher * Section * Course "
                        "then Teacher_course (Teacher, Course)",
                        label="R1")
        text = "context Teacher_course:Teacher * Teacher_course:Course"
        first = engine.query(text, name="q").render()
        target = engine.universe.get_subdb("Teacher_course")
        assert walks and all(walked is target for walked in walks)
        seen = len(walks)
        assert engine.query(text, name="q").render() == first
        assert engine.universe.get_subdb("Teacher_course") is target
        assert len(walks) == seen, "the second query walked again"

        data.db.associate(data["t2"], "teaches", data["s6"])
        engine.query(text)
        fresh = engine.universe.get_subdb("Teacher_course")
        assert fresh is not target
        assert fresh in walks[seen:], "the new target was never walked"


class TestProject:
    def test_projection_reorders_and_dedups(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B"),
                                 ClassRef("C")])
        sub = Subdatabase("X", ip, [P(1, 2, 3), P(1, 9, 3)])
        projected = sub.project(["C", "A"])
        assert projected.slot_names == ("C", "A")
        assert projected.patterns == {P(3, 1)}

    def test_projection_drops_all_null_rows(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B")])
        sub = Subdatabase("X", ip, [P(1, None), P(None, 2)])
        projected = sub.project(["B"])
        assert projected.patterns == {P(2)}


class TestMerge:
    def test_union_of_different_intensions(self):
        # The R4+R5 May_teach shape: (TA, Course) union (Grad, Course).
        left = Subdatabase(
            "May_teach",
            IntensionalPattern([ClassRef("TA"), ClassRef("Course")],
                               [Edge(0, 1, "derived", "May_teach")]),
            [P(10, 20)])
        right = Subdatabase(
            "May_teach",
            IntensionalPattern([ClassRef("Grad"), ClassRef("Course")],
                               [Edge(0, 1, "derived", "May_teach")]),
            [P(30, 21)])
        merged = left.merge(right)
        assert merged.slot_names == ("TA", "Course", "Grad")
        assert merged.patterns == {P(10, 20, None), P(None, 21, 30)}

    def test_union_same_intension_unions_patterns(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B")])
        left = Subdatabase("X", ip, [P(1, 2)])
        right = Subdatabase("X", ip, [P(3, 4)])
        assert left.merge(right).patterns == {P(1, 2), P(3, 4)}

    def test_union_applies_subsumption(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B")])
        left = Subdatabase("X", ip, [P(1, None)])
        right = Subdatabase("X", ip, [P(1, 2)])
        assert left.merge(right).patterns == {P(1, 2)}

    def test_conflicting_derived_info_reconciles_to_base(self):
        ip = IntensionalPattern([ClassRef("Course")])
        info_a = {"Course": DerivedClassInfo(
            ClassRef("Course", "X"), ClassRef("Course", "Suggest_offer"),
            ("title",))}
        info_b = {"Course": DerivedClassInfo(
            ClassRef("Course", "X"), ClassRef("Course"), ("c#",))}
        merged = Subdatabase("X", ip, [P(1)], info_a).merge(
            Subdatabase("X", ip, [P(2)], info_b))
        record = merged.derived_info["Course"]
        assert record.source == ClassRef("Course")
        assert record.visible_attrs == ("c#", "title")

    def test_reconcile_none_attrs_absorbs_subset(self):
        ip = IntensionalPattern([ClassRef("A")])
        info_a = {"A": DerivedClassInfo(ClassRef("A", "X"), ClassRef("A"),
                                        None)}
        info_b = {"A": DerivedClassInfo(ClassRef("A", "X"), ClassRef("A"),
                                        ("x",))}
        merged = Subdatabase("X", ip, [], info_a).merge(
            Subdatabase("X", ip, [], info_b))
        assert merged.derived_info["A"].visible_attrs is None

    def test_edges_dedup_on_merge(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B")],
                                [Edge(0, 1, "derived", "X")])
        merged = Subdatabase("X", ip, []).merge(Subdatabase("X", ip, []))
        assert len(merged.intension.edges) == 1


class TestPresentation:
    def test_sorted_rows_nulls_last(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B")])
        sub = Subdatabase("X", ip, [P(None, 2), P(1, 2)])
        rows = sub.sorted_rows()
        assert rows[0][0] is not None

    def test_describe_mentions_induced_links(self, sdb):
        ip = IntensionalPattern([ClassRef("A")])
        info = {"A": DerivedClassInfo(ClassRef("A", "X"), ClassRef("A"))}
        sub = Subdatabase("X", ip, [], info)
        assert "G(induced)" in sub.describe()

    def test_normalized(self):
        ip = IntensionalPattern([ClassRef("A"), ClassRef("B")])
        sub = Subdatabase("X", ip, [P(1, 2), P(1, None)])
        assert sub.normalized().patterns == {P(1, 2)}
