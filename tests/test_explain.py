"""Tests for the explain facility (the Section 4.3 trace as data)."""

import pytest

from repro.rules.control import EvaluationMode
from repro.rules.engine import RuleEngine
from repro.university import build_paper_database


@pytest.fixture
def engine():
    data = build_paper_database()
    engine = RuleEngine(data.db)
    engine.add_rule(
        "if context Department[name = 'CIS'] * Course * Section * Student "
        "where COUNT(Student by Course) > 39 "
        "then Suggest_offer (Course)", label="R2")
    engine.add_rule(
        "if context TA * Teacher * Section * Suggest_offer:Course "
        "then May_teach (TA, Course)", label="R4")
    engine.add_rule(
        "if context Grad * Transcript[grade >= 3.0] * Course[c# < 5000] "
        "then May_teach (Grad, Course)", label="R5")
    return engine


QUERY_41 = ("context Faculty * Advising * May_teach:TA [GPA < 3.5] "
            "select TA[name] display")


class TestExplanationStructure:
    def test_referenced_targets(self, engine):
        plan = engine.explain(QUERY_41)
        assert plan.referenced == ["May_teach"]
        assert plan.base_classes == ["Advising", "Faculty"]

    def test_tree_reaches_transitive_sources(self, engine):
        plan = engine.explain(QUERY_41)
        root = plan.roots[0]
        assert root.name == "May_teach"
        assert [s.name for s in root.sources] == ["Suggest_offer"]
        assert root.sources[0].sources == []

    def test_rules_listed_with_reads(self, engine):
        plan = engine.explain(QUERY_41)
        labels = [step.label for step in plan.roots[0].rules]
        assert labels == ["R4", "R5"]
        r4 = plan.roots[0].rules[0]
        assert r4.reads_targets == ["Suggest_offer"]
        assert "TA" in r4.reads_base

    def test_derivation_order_matches_paper(self, engine):
        # "R2 ... is triggered [first]; the result is then fed to R4."
        plan = engine.explain(QUERY_41)
        assert plan.derivation_order == ["Suggest_offer", "May_teach"]

    def test_warm_targets_drop_out_of_order(self, engine):
        engine.derive("Suggest_offer")
        plan = engine.explain(QUERY_41)
        assert plan.derivation_order == ["May_teach"]
        source = plan.roots[0].sources[0]
        assert source.materialized

    def test_modes_reported(self, engine):
        engine.set_mode("May_teach", EvaluationMode.PRE_EVALUATED)
        plan = engine.explain(QUERY_41)
        assert plan.roots[0].mode == "pre"

    def test_base_only_query(self, engine):
        plan = engine.explain("context Teacher * Section display")
        assert plan.referenced == []
        assert "base database" in plan.render()

    def test_render_contains_tree(self, engine):
        text = engine.explain(QUERY_41).render()
        assert "May_teach" in text
        assert "Suggest_offer" in text
        assert "rule R2" in text
        assert "derivation order: Suggest_offer -> May_teach" in text

    def test_targets_report_their_transitive_footprint(self, engine):
        plan = engine.explain(QUERY_41)
        root = plan.roots[0]
        assert root.footprint == engine.footprint("May_teach").describe()
        # May_teach reads Suggest_offer, so R2's condition attribute and
        # links are part of what a write must touch to move it.
        assert "Department.name" in root.footprint
        assert "Student.enrolled" in root.footprint
        (source,) = root.sources
        assert f"reads {source.footprint}" in plan.render()
        assert source.footprint.startswith(
            "extents: Course, Department, Section, Student links: ")

    def test_unknown_qualifier_ignored_gracefully(self, engine):
        # SDB is registered externally, not rule-derived: not in the plan.
        from repro.university import build_sdb
        plan = engine.explain("context Ghost_subdb:Teacher"
                              if False else "context Teacher")
        assert plan.roots == []

    def test_shared_source_reported_once_in_order(self, engine):
        engine.add_rule(
            "if context Department * Suggest_offer:Course "
            "then Deps (Department)", label="R3")
        plan = engine.explain(
            "context Deps:Department * Course * Section * "
            "May_teach:TA")
        assert plan.derivation_order.count("Suggest_offer") == 1
        assert plan.derivation_order.index("Suggest_offer") < \
            plan.derivation_order.index("May_teach")
