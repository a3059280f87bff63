"""Unit tests for the control strategies of Section 6.

The central scenario is the paper's Ra→Rb→Rc→Rd chain::

    DB --Ra--> REa --Rb--> REb --Rc--> REc --Rd--> REd

with Ra, Rb backward and Rc, Rd forward under the POSTGRES-style
rule-oriented strategy: after a base update, REd silently serves stale
data until somebody queries REb.  The result-oriented strategy removes
the flaw: REd (pre-evaluated) is refreshed by the same rules running
forward, while REb (post-evaluated) is computed on demand.
"""

import pytest

from repro.rules.control import EvaluationMode, RuleChainingMode
from repro.rules.engine import RuleEngine
from repro.university import build_paper_database

CHAIN = [
    ("Ra", "if context Teacher * Section then REa (Teacher, Section)"),
    ("Rb", "if context REa:Teacher * REa:Section then REb (Teacher)"),
    ("Rc", "if context REb:Teacher then REc (Teacher)"),
    ("Rd", "if context REc:Teacher then REd (Teacher)"),
]


def add_teacher(data, name="Newman"):
    with data.db.batch():
        teacher = data.db.insert("Teacher", name=name, degree="PhD",
                                 **{"SS#": "999"})
        data.db.associate(teacher, "teaches", data["s4"])
    return teacher


def red_names(engine):
    result = engine.query("context REd:Teacher select name display")
    return set(result.table.column("REd:Teacher.name"))


class TestRuleOrientedBaseline:
    @pytest.fixture
    def setup(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="rule")
        modes = {"Ra": RuleChainingMode.BACKWARD,
                 "Rb": RuleChainingMode.BACKWARD,
                 "Rc": RuleChainingMode.FORWARD,
                 "Rd": RuleChainingMode.FORWARD}
        for label, text in CHAIN:
            engine.add_rule(text, label=label, mode=modes[label])
        return data, engine

    def test_initial_derivation(self, setup):
        data, engine = setup
        assert "Smith" in red_names(engine)

    def test_forward_results_go_stale_after_base_update(self, setup):
        data, engine = setup
        red_names(engine)  # materialize
        add_teacher(data)
        assert engine.is_stale("REd")
        assert engine.is_stale("REc")

    def test_stale_forward_result_is_served(self, setup):
        """The observable inconsistency: the stored REd misses the new
        teacher."""
        data, engine = setup
        red_names(engine)
        add_teacher(data)
        assert "Newman" not in red_names(engine)

    def test_querying_reb_triggers_forward_cascade(self, setup):
        data, engine = setup
        red_names(engine)
        add_teacher(data)
        engine.query("context REb:Teacher select name")
        assert not engine.is_stale("REd")
        assert "Newman" in red_names(engine)

    def test_backward_results_not_preserved(self, setup):
        data, engine = setup
        engine.query("context REb:Teacher select name")
        assert not engine.universe.has_subdb("REb")
        assert not engine.universe.has_subdb("REa")

    def test_forward_rule_with_base_reads_triggers_directly(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="rule")
        engine.add_rule("if context Teacher * Section then F (Teacher)",
                        label="F", mode=RuleChainingMode.FORWARD)
        engine.derive("F")
        add_teacher(data)
        assert not engine.is_stale("F")
        assert engine.stats.derivations["F"] >= 2

    def test_set_mode_reassigns_all_rules_of_target(self, setup):
        data, engine = setup
        engine.set_mode("REb", RuleChainingMode.FORWARD)
        assert engine.controller.mode_of("REb") is \
            RuleChainingMode.FORWARD


class TestResultOriented:
    @pytest.fixture
    def setup(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="result")
        modes = {"Ra": EvaluationMode.POST_EVALUATED,
                 "Rb": EvaluationMode.POST_EVALUATED,
                 "Rc": EvaluationMode.POST_EVALUATED,
                 "Rd": EvaluationMode.PRE_EVALUATED}
        for label, text in CHAIN:
            engine.add_rule(text, label=label, mode=modes[label])
        engine.refresh()
        return data, engine

    def test_pre_evaluated_result_refreshed_on_update(self, setup):
        data, engine = setup
        add_teacher(data)
        assert not engine.is_stale("REd")
        assert "Newman" in red_names(engine)

    def test_same_rules_ran_forward_for_the_pre_result(self, setup):
        data, engine = setup
        before = engine.stats.derivations["REd"]
        add_teacher(data)
        assert engine.stats.derivations["REd"] == before + 1

    def test_post_evaluated_result_recomputed_on_demand(self, setup):
        data, engine = setup
        add_teacher(data)
        result = engine.query("context REb:Teacher select name display")
        assert "Newman" in result.output
        assert not engine.is_stale("REb")

    def test_no_stale_value_ever_served(self, setup):
        data, engine = setup
        for i in range(3):
            add_teacher(data, name=f"New{i}")
            assert f"New{i}" in red_names(engine)

    def test_update_to_unrelated_class_is_ignored(self, setup):
        data, engine = setup
        before = engine.stats.derivations["REd"]
        data.db.insert("Department", name="Physics", college="X")
        assert engine.stats.derivations["REd"] == before

    def test_mode_default_is_post(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="result")
        engine.add_rule(CHAIN[0][1], label="Ra")
        assert engine.controller.mode_of("REa") is \
            EvaluationMode.POST_EVALUATED

    def test_set_mode(self, setup):
        data, engine = setup
        engine.set_mode("REb", EvaluationMode.PRE_EVALUATED)
        add_teacher(data)
        # Now REb is also maintained eagerly.
        assert engine.universe.has_subdb("REb")
        assert not engine.is_stale("REb")

    def test_post_results_invalidated_not_recomputed(self, setup):
        data, engine = setup
        engine.query("context REa:Teacher select name")  # memoize REa
        derivations = engine.stats.derivations["REa"]
        add_teacher(data)
        # REa was needed to refresh REd, so it was re-derived once as an
        # intermediate — but only once, driven by the forward pass.
        assert engine.stats.derivations["REa"] == derivations + 1


class TestStaleMarkingCountsTransitions:
    """With no reader to clear it, a target goes stale once: later
    relevant writes find it already unregistered and pay nothing."""

    @pytest.mark.parametrize("controller", ["result", "incremental"])
    def test_remarking_a_stale_target_is_free(self, controller):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller=controller)
        engine.add_rule(CHAIN[0][1], label="Ra",
                        mode=EvaluationMode.POST_EVALUATED)
        engine.derive("REa")
        purges = []
        unregister = engine.universe.unregister
        engine.universe.unregister = \
            lambda name: purges.append(name) or unregister(name)
        for i in range(4):
            add_teacher(data, name=f"New{i}")
            assert engine.is_stale("REa")
        assert engine.stats.stale_markings == 1
        assert purges == ["REa"]
        # A reader clears the mark; the next write is a new transition.
        assert "New3" in engine.query(
            "context REa:Teacher select name display").output
        assert not engine.is_stale("REa")
        add_teacher(data, name="Again")
        assert engine.stats.stale_markings == 2
        assert purges == ["REa", "REa"]


class TestStrategyComparison:
    """The two strategies agree on *values*; they differ in staleness
    windows and when work happens."""

    def test_same_final_answer(self):
        results = {}
        for controller, modes in [
            ("rule", {"Ra": RuleChainingMode.BACKWARD,
                      "Rb": RuleChainingMode.BACKWARD,
                      "Rc": RuleChainingMode.FORWARD,
                      "Rd": RuleChainingMode.FORWARD}),
            ("result", {"Ra": EvaluationMode.POST_EVALUATED,
                        "Rb": EvaluationMode.POST_EVALUATED,
                        "Rc": EvaluationMode.POST_EVALUATED,
                        "Rd": EvaluationMode.PRE_EVALUATED}),
        ]:
            data = build_paper_database()
            engine = RuleEngine(data.db, controller=controller)
            for label, text in CHAIN:
                engine.add_rule(text, label=label, mode=modes[label])
            add_teacher(data)
            engine.query("context REb:Teacher select name")  # sync point
            results[controller] = red_names(engine)
        assert results["rule"] == results["result"]
