"""Tests for the cost-based join planner: statistics caching, plan
shapes, cost-model invariants, result equivalence with the left-to-right
join on the paper's rules and queries, and the EXPLAIN ANALYZE-style
plan/metrics surface."""

import pytest

from repro.model.database import Database
from repro.model.dclass import INTEGER
from repro.model.schema import Schema
from repro.oql.evaluator import PatternEvaluator
from repro.oql.parser import parse_expression, parse_query
from repro.oql.planner import Statistics
from repro.rules.engine import RuleEngine
from repro.subdb.universe import Universe
from repro.university import GeneratorConfig, build_paper_database, \
    generate_university
from tests.test_optimizer import left_to_right


def chain_universe():
    """A -ab-> B -bc-> C with skewed extent sizes (2, 6, 4)."""
    schema = Schema()
    for cls in "ABC":
        schema.add_eclass(cls)
        schema.add_attribute(cls, "n", INTEGER)
    schema.add_association("A", "B", name="ab")
    schema.add_association("B", "C", name="bc")
    db = Database(schema)
    objs = {}
    for cls, count in (("A", 2), ("B", 6), ("C", 4)):
        for i in range(count):
            objs[f"{cls.lower()}{i}"] = db.insert(
                cls, f"{cls.lower()}{i}", n=i)
    for i in range(2):
        db.associate(objs[f"a{i}"], "ab", objs[f"b{i}"])
    for i in range(4):
        db.associate(objs[f"b{i}"], "bc", objs[f"c{i}"])
    return Universe(db), db, objs


class TestStatistics:
    def test_extent_sizes_match_universe(self):
        universe, db, _ = chain_universe()
        stats = Statistics(universe)
        for text in ("A", "B", "C"):
            ref = parse_expression(text).chain.elements[0].ref
            assert stats.extent_size(ref) == len(universe.extent(ref))

    def test_fanout_is_pairs_over_source_extent(self):
        universe, db, _ = chain_universe()
        stats = Statistics(universe)
        a = parse_expression("A").chain.elements[0].ref
        b = parse_expression("B").chain.elements[0].ref
        resolution = universe.resolve_edge(a, b)
        assert stats.fanout(a, resolution) == pytest.approx(2 / 2)
        assert stats.fanout(b, resolution) == pytest.approx(2 / 6)

    def test_cache_invalidated_by_data_change(self):
        universe, db, objs = chain_universe()
        stats = Statistics(universe)
        a = parse_expression("A").chain.elements[0].ref
        assert stats.extent_size(a) == 2
        db.insert("A", "a_extra", n=9)
        assert stats.extent_size(a) == 3

    def test_cache_invalidated_by_subdb_registration(self):
        universe, db, _ = chain_universe()
        before = universe.data_version
        result = PatternEvaluator(universe).evaluate(
            parse_expression("A * B"), name="AB")
        universe.register(result)
        assert universe.data_version > before
        universe.unregister("AB")
        assert universe.data_version > before + 1

    def test_derived_extent_sizes(self):
        universe, db, _ = chain_universe()
        result = PatternEvaluator(universe).evaluate(
            parse_expression("A * B"), name="AB")
        universe.register(result)
        stats = Statistics(universe)
        ref = parse_query("context AB:A display").context \
            .chain.elements[0].ref
        assert stats.extent_size(ref) == len(universe.extent(ref))


class TestPlanShapes:
    def _plan(self, universe, text, reference=False):
        evaluator = PatternEvaluator(universe)
        if reference:
            left_to_right(evaluator)
        evaluator.evaluate(parse_expression(text))
        plans = evaluator.last_metrics.plans
        assert plans, "evaluation recorded no plan"
        return plans[0]

    def test_cost_anchors_at_selective_filter(self):
        data = generate_university(GeneratorConfig(
            students=200, courses=20, seed=7))
        universe = Universe(data.db)
        plan = self._plan(universe,
                          "Student * Section * Course [c# = 1000]")
        assert plan.slot_names[plan.anchor] == "Course"

    def test_order_is_contiguous(self):
        data = build_paper_database()
        universe = Universe(data.db)
        plan = self._plan(universe,
                          "Department * Course * Section * Student")
        order = plan.order()
        assert sorted(order) == [0, 1, 2, 3]
        lo = hi = plan.anchor
        for slot in order[1:]:
            assert slot in (lo - 1, hi + 1), \
                f"non-contiguous order {order}"
            lo, hi = min(lo, slot), max(hi, slot)

    def test_cost_never_worse_than_other_strategies(self):
        """The DP searches every contiguous order, so its modeled cost
        is a lower bound on the left-to-right order's cost."""
        data = generate_university(GeneratorConfig(seed=13))
        universe = Universe(data.db)
        for text in ("Student * Section * Course [c# = 1000]",
                     "Department * Course * Section * Student",
                     "Teacher * Section ! Course"):
            planned = self._plan(universe, text).est_cost
            reference = self._plan(universe, text, reference=True)
            assert reference.order() == sorted(reference.order())
            assert planned <= reference.est_cost + 1e-9


# The paper's rule contexts (R1-R5 verbatim from Section 2/4, R6-R7 the
# loop rules of Section 5.2, R8 the non-association example of
# Section 3.2), evaluated in the planned and the left-to-right order.
PAPER_CONTEXTS = [
    ("R1", "context Teacher * Section * Course display"),
    ("R2", "context Department[name = 'CIS'] * Course * Section * "
           "Student where COUNT(Student by Course) > 39 display"),
    ("R3", "context Department * Suggest_offer:Course display"),
    ("R4", "context TA * Teacher * Section * Suggest_offer:Course "
           "display"),
    ("R5", "context Grad * Transcript[grade >= 3.0] * Course[c# < 5000] "
           "display"),
    ("R6", "context Grad * TA * Teacher * Section * Student * Grad_1 ^* "
           "display"),
    ("R7", "context Course * Course_1 ^* display"),
    ("R8", "context Teacher ! Section display"),
]


class TestPaperRuleEquivalence:
    @pytest.fixture(scope="class")
    def engine(self):
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.add_rule(
            "if context Department[name = 'CIS'] * Course * Section * "
            "Student where COUNT(Student by Course) > 39 "
            "then Suggest_offer (Course)", label="R2")
        engine.derive("Suggest_offer")
        return engine

    @pytest.mark.parametrize("label,text",
                             PAPER_CONTEXTS,
                             ids=[label for label, _ in PAPER_CONTEXTS])
    def test_all_strategies_agree(self, engine, label, text):
        query = parse_query(text)
        planned = PatternEvaluator(engine.universe)
        reference = left_to_right(PatternEvaluator(engine.universe))
        assert planned.evaluate(query.context, query.where).patterns == \
            reference.evaluate(query.context, query.where).patterns


class TestPlanMetrics:
    def test_actuals_filled_in(self):
        data = build_paper_database()
        universe = Universe(data.db)
        evaluator = PatternEvaluator(universe)
        evaluator.evaluate(
            parse_expression("Teacher * Section * Course"))
        (plan,) = evaluator.last_metrics.plans
        assert plan.actual_anchor_rows is not None
        for step in plan.steps:
            assert step.actual_rows is not None
            assert step.actual_frontier is not None
        assert "join plan: anchor" in \
            evaluator.last_metrics.describe_plans()
        assert "actual" in evaluator.last_metrics.describe_plans()

    def test_plans_surface_through_query_metrics(self):
        data = build_paper_database()
        engine = RuleEngine(data.db)
        result = engine.query("context Teacher * Section * Course "
                              "select Teacher[name] display")
        assert result.metrics.plans
        assert set(result.metrics.plans[0].snapshot()) == {
            "anchor", "order", "est_cost", "anchor_rows", "steps",
            "access"}

    def test_one_plan_per_brace_group(self):
        data = build_paper_database()
        evaluator = PatternEvaluator(Universe(data.db))
        evaluator.evaluate(
            parse_expression("Teacher * {Section * Course} * Department"))
        assert len(evaluator.last_metrics.plans) == 2

    def test_loop_extension_counts_traversals(self):
        """Regression: level extension used to bypass the traversal and
        row counters entirely — a deep closure must cost strictly more
        than its first level."""
        data = build_paper_database()
        universe = Universe(data.db)
        one = PatternEvaluator(universe)
        one.evaluate(parse_expression("Course * Course_1 ^1"))
        full = PatternEvaluator(universe)
        full.evaluate(parse_expression("Course * Course_1 ^*"))
        assert full.last_metrics.loop_levels > 1
        assert full.last_metrics.edge_traversals > \
            one.last_metrics.edge_traversals
        assert full.last_metrics.rows_generated > \
            one.last_metrics.rows_generated
