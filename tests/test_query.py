"""Unit tests for the query-processing façade."""

import pytest

from repro.oql.operations import OperationRegistry
from repro.oql.query import QueryProcessor
from repro.subdb.universe import Universe
from repro.university import build_paper_database, build_sdb


@pytest.fixture
def qp():
    data = build_paper_database()
    universe = Universe(data.db)
    universe.register(build_sdb(data))
    return QueryProcessor(universe)


class TestExecute:
    def test_returns_subdatabase_always(self, qp):
        result = qp.execute("context Teacher * Section")
        assert result.subdatabase is not None
        assert result.table is None
        assert result.output is None

    def test_display_produces_output(self, qp):
        result = qp.execute("context SDB:Teacher * SDB:Section "
                            "select name section# display")
        assert "Smith" in result.output
        assert result.render() == result.output

    def test_print_behaves_like_display(self, qp):
        result = qp.execute("context SDB:Teacher select name print")
        assert "Silva" in result.output

    def test_select_without_operation_builds_table(self, qp):
        result = qp.execute("context SDB:Teacher select name")
        assert result.table is not None
        assert result.output is None

    def test_render_without_table_describes_subdb(self, qp):
        result = qp.execute("context Teacher * Section")
        assert "classes: Teacher, Section" in result.render()

    def test_result_names_are_unique(self, qp):
        a = qp.execute("context Teacher")
        b = qp.execute("context Teacher")
        assert a.subdatabase.name != b.subdatabase.name

    def test_explicit_name(self, qp):
        result = qp.execute("context Teacher", name="mine")
        assert result.subdatabase.name == "mine"

    def test_accepts_preparsed_query(self, qp):
        from repro.oql.parser import parse_query
        query = parse_query("context Teacher * Section display")
        result = qp.execute(query)
        assert result.output is not None


class TestUserOperations:
    def test_user_operation_invoked_with_table(self):
        data = build_paper_database()
        universe = Universe(data.db)
        registry = OperationRegistry()
        seen = {}

        def audit(univ, subdb, table):
            seen["rows"] = len(table)
            return "audited"

        registry.register("audit", audit)
        qp = QueryProcessor(universe, operations=registry)
        result = qp.execute("context Teacher * Section "
                            "select Teacher[name] audit()")
        assert result.op_result == "audited"
        assert seen["rows"] > 0

    def test_unknown_user_operation(self, qp):
        from repro.errors import OQLSemanticError
        with pytest.raises(OQLSemanticError):
            qp.execute("context Teacher rotate()")


class TestMetrics:
    def test_metrics_attached(self, qp):
        result = qp.execute("context Teacher * Section * Course")
        assert result.metrics is not None
        snapshot = result.metrics.snapshot()
        assert snapshot["patterns_out"] == len(result.subdatabase)
        assert snapshot["edge_traversals"] > 0
        assert snapshot["extent_objects"] > 0

    def test_loop_levels_recorded(self, qp):
        result = qp.execute("context Course * Course_1 ^*")
        assert result.metrics.loop_levels == 2

    def test_subsumption_counted(self, qp):
        result = qp.execute("context {{Grad} * Advising} * Faculty")
        assert result.metrics.patterns_subsumed > 0

    def test_optimizer_traverses_fewer_edges_on_selective_query(self):
        """The plan anchors at the one matching Course and walks left:
        three frontier lookups in all (a left-to-right order would look
        up every Student first)."""
        from repro.oql.evaluator import PatternEvaluator
        from repro.oql.parser import parse_expression
        from repro.subdb import Universe
        from repro.university import GeneratorConfig, generate_university
        data = generate_university(GeneratorConfig(students=200, seed=3))
        expr = parse_expression("Student * Section * Course [c# = 1000]")
        evaluator = PatternEvaluator(Universe(data.db))
        assert len(evaluator.evaluate(expr)) == 33
        (plan,) = evaluator.last_metrics.plans
        assert plan.order() == [2, 1, 0]
        assert [step.actual_frontier for step in plan.steps] == [1, 2]
        assert evaluator.last_metrics.edge_traversals == 3
