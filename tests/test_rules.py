"""Unit tests for rule parsing and static analysis."""

import pytest

from repro.errors import RuleSemanticError, RuleSyntaxError
from repro.rules.rule import DeductiveRule, TargetSpec, parse_rule
from repro.subdb.refs import ClassRef


class TestParsing:
    def test_basic_rule(self):
        rule = parse_rule("if context Teacher * Section * Course "
                          "then Teacher_course (Teacher, Course)")
        assert rule.target == "Teacher_course"
        assert [t.ref.cls for t in rule.targets] == ["Teacher", "Course"]

    def test_where_clause(self):
        rule = parse_rule(
            "if context Department * Course * Section * Student "
            "where COUNT(Student by Course) > 39 "
            "then Suggest_offer (Course)")
        assert len(rule.where) == 1

    def test_attribute_subsetting(self):
        rule = parse_rule(
            "if context Teacher * Section * Course "
            "then Teacher_course (Teacher [SS#, degree], Course)")
        assert rule.targets[0].attrs == ("SS#", "degree")
        assert rule.targets[1].attrs is None

    def test_all_levels_marker(self):
        rule = parse_rule(
            "if context Grad * TA * Teacher * Section * Student * "
            "Grad_1 ^* then GG (Grad, Grad_)")
        assert rule.targets[1].all_levels
        assert rule.targets[1].ref.cls == "Grad"

    def test_alias_target(self):
        rule = parse_rule(
            "if context Grad * TA * Teacher * Section * Student * "
            "Grad_1 ^* then FT (Grad, Grad_2)")
        assert rule.targets[1].ref.alias == 2

    def test_qualified_context_ref(self):
        rule = parse_rule(
            "if context TA * Teacher * Section * Suggest_offer:Course "
            "then May_teach (TA, Course)")
        refs = rule.context_refs()
        assert ClassRef("Course", "Suggest_offer") in refs

    def test_label_and_text_preserved(self):
        text = "if context Teacher * Section then X (Teacher)"
        rule = parse_rule(text, label="R9")
        assert rule.label == "R9"
        assert rule.text == text

    def test_str_reparses(self):
        rule = parse_rule(
            "if context Teacher * Section * Course "
            "where Course.c# > 5000 "
            "then X (Teacher [name], Course)")
        again = parse_rule(str(rule))
        assert again.targets == rule.targets
        assert again.where == rule.where

    def test_missing_then(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("if context Teacher * Section")

    def test_missing_if(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("context Teacher then X (Teacher)")

    def test_empty_targets(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("if context Teacher then X ()")

    def test_trailing_garbage(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("if context Teacher then X (Teacher) and more")


class TestValidation:
    def test_target_not_in_context_rejected(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("if context Teacher * Section then X (Course)")

    def test_target_matching_by_class_allowed(self):
        # R4's 'Course' for context class 'Suggest_offer:Course'.
        rule = parse_rule(
            "if context TA * Teacher * Section * Suggest_offer:Course "
            "then May_teach (TA, Course)")
        rule.validate()

    def test_loop_alias_levels_accepted(self):
        rule = parse_rule(
            "if context Grad * TA * Teacher * Section * Student * "
            "Grad_1 ^* then FT (Grad, Grad_7)")
        rule.validate()

    def test_alias_target_without_loop_rejected(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("if context Grad * Advising then X (Grad_2)")

    def test_all_levels_of_absent_class_rejected(self):
        with pytest.raises(RuleSemanticError):
            parse_rule("if context Teacher * Section then X (Course_)")


class TestStaticAnalysis:
    def test_source_subdatabases_from_context(self):
        rule = parse_rule(
            "if context TA * Teacher * Section * Suggest_offer:Course "
            "then May_teach (TA, Course)")
        assert rule.source_subdatabases() == {"Suggest_offer"}

    def test_source_subdatabases_from_where(self):
        rule = parse_rule(
            "if context Department * Suggest_offer:Course "
            "where COUNT(Suggest_offer:Course by Department) > 20 "
            "then Deps_need_res (Department)")
        assert rule.source_subdatabases() == {"Suggest_offer"}

    def test_footprint_excludes_derived(self):
        from repro.university.schema import build_university_schema
        rule = parse_rule(
            "if context TA * Teacher[degree = 'PhD'] * Section "
            "* Suggest_offer:Course then May_teach (TA, Course)")
        footprint = rule.footprint(build_university_schema())
        assert footprint.extents == {"TA", "Teacher", "Section"}
        # TA * Teacher is an identity edge; Section * Suggest_offer:Course
        # crosses the base link the derived class inherits.
        assert footprint.links == {("Teacher", "teaches"),
                                   ("Section", "course")}
        assert footprint.attrs == {("Teacher", "degree")}

    def test_where_refs_from_comparisons(self):
        rule = parse_rule(
            "if context A * B where A.x > B.y then X (A)")
        assert {r.cls for r in rule.where_refs()} == {"A", "B"}

    def test_context_refs_include_braced_elements(self):
        rule = parse_rule("if context {A * B} * C then X (A)")
        assert [r.cls for r in rule.context_refs()] == ["A", "B", "C"]
