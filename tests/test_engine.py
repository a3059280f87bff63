"""Unit tests for the rule engine: rule base management, backward
chaining through the provider, memoization, and statistics."""

import pytest

from repro.errors import (
    CyclicRuleError,
    RuleSemanticError,
    UnknownSubdatabaseError,
)
from repro.rules.engine import RuleEngine
from repro.university import build_paper_database


R1 = ("if context Teacher * Section * Course "
      "then Teacher_course (Teacher, Course)")
R2 = ("if context Department[name = 'CIS'] * Course * Section * Student "
      "where COUNT(Student by Course) > 39 then Suggest_offer (Course)")
R4 = ("if context TA * Teacher * Section * Suggest_offer:Course "
      "then May_teach (TA, Course)")
R5 = ("if context Grad * Transcript[grade >= 3.0] * Course[c# < 5000] "
      "then May_teach (Grad, Course)")


@pytest.fixture
def paper():
    return build_paper_database()


@pytest.fixture
def engine(paper):
    return RuleEngine(paper.db)


class TestRuleBase:
    def test_add_rule_from_text(self, engine):
        rule = engine.add_rule(R1, label="R1")
        assert rule.label == "R1"
        assert engine.rules_for("Teacher_course") == [rule]

    def test_add_preparsed_rule(self, engine):
        from repro.rules.rule import parse_rule
        rule = parse_rule(R1)
        engine.add_rule(rule)
        assert engine.rules_for("Teacher_course") == [rule]

    def test_invalid_rule_rejected(self, engine):
        with pytest.raises(RuleSemanticError):
            engine.add_rule("if context Teacher then X (Course)")

    def test_target_names(self, engine):
        engine.add_rule(R2)
        engine.add_rule(R4)
        assert engine.target_names == ["May_teach", "Suggest_offer"]

    def test_rule_graph(self, engine):
        engine.add_rule(R2)
        engine.add_rule(R4)
        graph = engine.rule_graph()
        assert graph["May_teach"] == {"Suggest_offer"}
        assert graph["Suggest_offer"] == set()

    def test_cyclic_rule_base_rejected_and_rolled_back(self, engine):
        engine.add_rule("if context Teacher * Section then A (Teacher)")
        engine.add_rule("if context A:Teacher then B (Teacher)")
        with pytest.raises(CyclicRuleError):
            engine.add_rule("if context B:Teacher then A (Teacher)")
        # Rollback: A still derivable with its single original rule.
        assert len(engine.rules_for("A")) == 1
        engine.derive("A")

    def test_topological_targets(self, engine):
        engine.add_rule(R4)
        engine.add_rule(R2)
        order = engine.topological_targets()
        assert order.index("Suggest_offer") < order.index("May_teach")

    def test_invalid_controller_name(self, paper):
        with pytest.raises(ValueError):
            RuleEngine(paper.db, controller="mystery")


class TestDerivation:
    def test_derive_materializes(self, engine):
        engine.add_rule(R1)
        result = engine.derive("Teacher_course")
        assert engine.universe.has_subdb("Teacher_course")
        assert len(result) > 0

    def test_derive_memoizes(self, engine):
        engine.add_rule(R1)
        engine.derive("Teacher_course")
        engine.derive("Teacher_course")
        assert engine.stats.derivations["Teacher_course"] == 1

    def test_force_rederives(self, engine):
        engine.add_rule(R1)
        engine.derive("Teacher_course")
        engine.derive("Teacher_course", force=True)
        assert engine.stats.derivations["Teacher_course"] == 2

    def test_unknown_target(self, engine):
        with pytest.raises(UnknownSubdatabaseError):
            engine.derive("Nothing")

    def test_backward_chain_derives_sources_first(self, engine):
        engine.add_rule(R2, label="R2")
        engine.add_rule(R4, label="R4")
        engine.derive("May_teach")
        assert engine.stats.derivations["Suggest_offer"] == 1
        assert engine.universe.has_subdb("Suggest_offer")

    def test_adding_rule_invalidates_target(self, engine):
        engine.add_rule(R2, label="R2")
        engine.add_rule(R4, label="R4")
        before = engine.derive("May_teach")
        assert all(l[2] is None for l in before.labels()
                   if len(l) > 2)  # no Grad slot yet
        engine.add_rule(R5, label="R5")
        after = engine.derive("May_teach")
        assert "Grad" in after.slot_names

    def test_refresh_materializes_everything(self, engine):
        engine.add_rule(R2)
        engine.add_rule(R4)
        engine.refresh()
        assert engine.universe.has_subdb("Suggest_offer")
        assert engine.universe.has_subdb("May_teach")


class TestQueries:
    def test_query_triggers_backward_chaining(self, engine):
        engine.add_rule(R2, label="R2")
        engine.add_rule(R4, label="R4")
        engine.add_rule(R5, label="R5")
        result = engine.query(
            "context Faculty * Advising * May_teach:TA[GPA < 3.5] "
            "select TA[name] Faculty[name] display")
        assert result.table.rows == [("Quinn", "Su")]
        assert engine.stats.derivations["Suggest_offer"] == 1
        assert engine.stats.derivations["May_teach"] == 1

    def test_repeated_query_reuses_memo(self, engine):
        engine.add_rule(R1)
        engine.query("context Teacher_course:Teacher select name")
        engine.query("context Teacher_course:Teacher select name")
        assert engine.stats.derivations["Teacher_course"] == 1
        assert engine.stats.queries == 2

    def test_query_on_base_classes_needs_no_rules(self, engine):
        result = engine.query("context Teacher * Section select name")
        assert len(result.table) > 0

    def test_stats_snapshot(self, engine):
        engine.add_rule(R1)
        engine.query("context Teacher_course:Teacher select name")
        snap = engine.stats.snapshot()
        assert snap["queries"] == 1
        assert snap["derivations"] == 1


class TestClosureProperty:
    """The world of subdatabases is closed: rules read what rules wrote."""

    def test_three_level_chain(self, engine):
        engine.add_rule(R1, label="R1")
        engine.add_rule("if context Teacher_course:Teacher * "
                        "Teacher_course:Course [c# >= 6000] "
                        "then Grad_teachers (Teacher)", label="L2")
        engine.add_rule("if context Grad_teachers:Teacher [degree = 'PhD'] "
                        "then Phd_grad_teachers (Teacher)", label="L3")
        result = engine.derive("Phd_grad_teachers")
        names = {engine.universe.db.entity(p[0])["name"]
                 for p in result.patterns}
        assert names == {"Smith", "Jones"}
        assert engine.stats.derivations["Teacher_course"] == 1
        assert engine.stats.derivations["Grad_teachers"] == 1

    def test_affected_by_event_transitive(self, engine):
        engine.add_rule(R2)
        engine.add_rule(R4)
        events = []
        engine.db.add_listener(events.append)
        engine.db.insert("Student", "st_new")
        assert engine.affected_by_event(events[-1]) == \
            {"Suggest_offer", "May_teach"}

    def test_affected_by_event_direct_only_when_untouched_upstream(
            self, engine):
        engine.add_rule(R2)
        engine.add_rule(R4)
        events = []
        engine.db.add_listener(events.append)
        # Transcript appears in no rule here: nothing affected.
        engine.db.insert("Transcript", "tr_new")
        assert engine.affected_by_event(events[-1]) == set()
        # A Faculty (a Teacher) is read by R4 only, not by the R2 it
        # sits downstream of.
        engine.db.insert("Faculty", "f_new")
        assert engine.affected_by_event(events[-1]) == {"May_teach"}

    def test_affected_by_event_is_footprint_precise(self, engine, paper):
        """A link or attribute write affects only the targets that
        traverse that link / compare that attribute, although every
        rule here reads the classes at both ends."""
        engine.add_rule(R1)
        engine.add_rule(R2)
        events = []
        engine.db.add_listener(events.append)
        engine.db.associate(paper["t1"], "teaches", paper["s6"])
        assert engine.affected_by_event(events[-1]) == {"Teacher_course"}
        before = engine.stats.refreshes_skipped_footprint
        engine.db.set_attribute(paper.oid("c1"), "title", "Renamed")
        # Both targets read Course; both were spared by the footprint.
        assert engine.stats.refreshes_skipped_footprint == before + 2
        assert engine.affected_by_event(events[-1]) == set()
        dept = next(iter(engine.db.extent("Department")))
        engine.db.set_attribute(dept, "name", "Renamed")
        assert engine.affected_by_event(events[-1]) == {"Suggest_offer"}


class TestRemoveRule:
    def test_remove_by_label(self, engine):
        engine.add_rule(R4, label="R4")
        engine.add_rule(R5, label="R5")
        engine.add_rule(R2, label="R2")
        engine.derive("May_teach")
        removed = engine.remove_rule("R4")
        assert removed.label == "R4"
        assert not engine.universe.has_subdb("May_teach")
        # R5 still derives May_teach, now without a TA slot.
        subdb = engine.derive("May_teach")
        assert "TA" not in subdb.slot_names

    def test_remove_last_rule_makes_target_unknown(self, engine):
        engine.add_rule(R1, label="R1")
        engine.remove_rule("R1")
        with pytest.raises(UnknownSubdatabaseError):
            engine.derive("Teacher_course")

    def test_remove_invalidates_downstream(self, engine):
        engine.add_rule(R2, label="R2")
        engine.add_rule(R4, label="R4")
        engine.derive("May_teach")
        engine.remove_rule("R2")
        assert not engine.universe.has_subdb("May_teach")

    def test_remove_by_object(self, engine):
        rule = engine.add_rule(R1)
        engine.remove_rule(rule)
        assert engine.rules == []

    def test_remove_unknown_label(self, engine):
        with pytest.raises(RuleSemanticError):
            engine.remove_rule("ghost")

    def test_remove_ambiguous_label(self, engine):
        engine.add_rule(R4, label="dup")
        engine.add_rule(R5, label="dup")
        with pytest.raises(RuleSemanticError):
            engine.remove_rule("dup")
