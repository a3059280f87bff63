"""Tests for the cost-based chain-join planner: result equivalence with
the textbook left-to-right join (including a hypothesis sweep), and the
pruning behaviour it exists for.

The left-to-right join is a test-side reference: :func:`left_to_right`
replaces one evaluator's order choice, so both sides run the same
executor and differ only in join order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.database import Database
from repro.model.dclass import INTEGER
from repro.model.schema import Schema
from repro.oql.evaluator import PatternEvaluator
from repro.oql.parser import parse_expression, parse_query
from repro.oql.planner import PlanStep
from repro.subdb.universe import Universe
from repro.university import GeneratorConfig, build_paper_database, \
    generate_university

QUERIES = [
    "Teacher * Section",
    "Teacher * Section * Course",
    "Department * Course * Section * Student",
    "Department [name = 'CIS'] * Course * Section * Student",
    "Teacher * Section * Course [c# >= 6000]",
    "Teacher ! Section",
    "Teacher * Section ! Course",
    "A_dummy" if False else "Grad * Advising * Faculty",
    "{Teacher * Section} * {Course}",
    "Teacher * {Section * Course} * Department",
    "Course * Course_1",
]


def left_to_right(evaluator: PatternEvaluator) -> PatternEvaluator:
    """Make ``evaluator`` join every chain range left to right: anchor
    at the range's first slot, extend right each hop.  Step estimates
    and the modeled cost use the planner's own cost model, so the
    order's ``est_cost`` is comparable with the chosen plan's."""
    planner = evaluator.planner

    def order(refs, ops, resolutions, sizes, start, end):
        est = float(sizes[start])
        cost = est
        steps = []
        for edge in range(start, end):
            est *= planner._step_selectivity(refs, ops, resolutions,
                                             sizes, edge, "right")
            cost += est
            steps.append(PlanStep(slot=edge + 1, edge=edge,
                                  direction="right", op=ops[edge],
                                  est_rows=est))
        return start, steps, cost

    planner._best_order = order
    return evaluator


@pytest.fixture(scope="module")
def paper_universe():
    return Universe(build_paper_database().db)


@pytest.fixture(scope="module")
def generated_universe():
    return Universe(generate_university(GeneratorConfig(seed=31)).db)


class TestEquivalence:
    @pytest.mark.parametrize("text", QUERIES)
    def test_same_patterns_paper_db(self, paper_universe, text):
        expr = parse_expression(text)
        fast = PatternEvaluator(paper_universe)
        slow = left_to_right(PatternEvaluator(paper_universe))
        assert fast.evaluate(expr).patterns == \
            slow.evaluate(expr).patterns

    @pytest.mark.parametrize("text", QUERIES)
    def test_same_patterns_generated_db(self, generated_universe, text):
        expr = parse_expression(text)
        fast = PatternEvaluator(generated_universe)
        slow = left_to_right(PatternEvaluator(generated_universe))
        assert fast.evaluate(expr).patterns == \
            slow.evaluate(expr).patterns

    def test_same_patterns_with_where(self, paper_universe):
        query = parse_query(
            "context Department * Course * Section * Student "
            "where COUNT(Student by Course) > 39")
        fast = PatternEvaluator(paper_universe)
        slow = left_to_right(PatternEvaluator(paper_universe))
        assert fast.evaluate(query.context, query.where).patterns == \
            slow.evaluate(query.context, query.where).patterns

    def test_same_loop_results(self, paper_universe):
        expr = parse_expression("Course * Course_1 ^*")
        fast = PatternEvaluator(paper_universe)
        slow = left_to_right(PatternEvaluator(paper_universe))
        assert fast.evaluate(expr).patterns == \
            slow.evaluate(expr).patterns


class TestEquivalenceProperty:
    """Random bipartite-ish chains: A -x-> B -y-> C with arbitrary link
    sets; the planned and the left-to-right join must produce identical
    pattern sets."""

    @settings(max_examples=30, deadline=None)
    @given(
        ab=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    max_size=15).map(set),
        bc=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    max_size=15).map(set),
        op1=st.sampled_from(["*", "!"]),
        op2=st.sampled_from(["*", "!"]),
    )
    def test_random_chains(self, ab, bc, op1, op2):
        schema = Schema()
        for cls in "ABC":
            schema.add_eclass(cls)
            schema.add_attribute(cls, "n", INTEGER)
        schema.add_association("A", "B", name="ab")
        schema.add_association("B", "C", name="bc")
        db = Database(schema)
        objs = {}
        for cls in "ABC":
            for i in range(5):
                objs[(cls, i)] = db.insert(cls, f"{cls.lower()}{i}", n=i)
        for a, b in ab:
            db.associate(objs[("A", a)], "ab", objs[("B", b)])
        for b, c in bc:
            db.associate(objs[("B", b)], "bc", objs[("C", c)])
        universe = Universe(db)
        expr = parse_expression(f"A {op1} B {op2} C [n < 3]")
        fast = PatternEvaluator(universe)
        slow = left_to_right(PatternEvaluator(universe))
        assert fast.evaluate(expr).patterns == \
            slow.evaluate(expr).patterns


class TestPruning:
    def test_selective_filter_prunes_intermediate_rows(self):
        """With a highly selective condition at the chain's *right* end,
        the plan anchors there and walks right to left; the distinct
        frontier endpoints traversed per hop, which the set-based and
        the compact executor count identically, are pinned exactly —
        and are far fewer than the left-to-right join's."""
        data = generate_university(GeneratorConfig(
            students=300, courses=20, seed=41))
        universe = Universe(data.db)
        expr = parse_expression(
            "Student * Section * Course [c# = 1000]")
        for compact in (True, False):
            planned = PatternEvaluator(universe, compact=compact)
            result = planned.evaluate(expr)
            (plan,) = planned.last_metrics.plans
            assert plan.slot_names[plan.anchor] == "Course"
            assert plan.actual_anchor_rows == 1
            assert [(s.slot, s.direction, s.actual_frontier,
                     s.actual_rows) for s in plan.steps] == \
                [(1, "left", 1, 2), (0, "left", 2, 49)]
            assert planned.last_metrics.edge_traversals == 3
            reference = left_to_right(
                PatternEvaluator(universe, compact=compact))
            assert reference.evaluate(expr).patterns == result.patterns
            assert reference.last_metrics.edge_traversals == 364

    def test_single_class_context_unaffected(self, paper_universe):
        expr = parse_expression("Teacher")
        result = PatternEvaluator(paper_universe).evaluate(expr)
        assert len(result) > 0
