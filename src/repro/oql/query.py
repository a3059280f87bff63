"""The query-processing façade.

:class:`QueryProcessor` ties the pieces together: parse a query block,
evaluate its Context clause (and Where subclause) into a subdatabase, bind
the Select subclause, and perform the operation.  It is the object most
applications use directly; the deductive rule engine wraps one and routes
queries through its control strategy first (backward chaining).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.oql.ast import Query
from repro.oql.budget import QueryBudget
from repro.oql.evaluator import EvaluationMetrics, PatternEvaluator
from repro.oql.operations import OperationRegistry, Table, build_table
from repro.oql.parser import parse_query
from repro.subdb.subdatabase import Subdatabase
from repro.subdb.universe import Universe


@dataclass
class QueryResult:
    """Everything a query produced.

    ``subdatabase`` is always present — the Context subdatabase after the
    Where subclause.  ``table`` is present when the query carried a
    Display/Print operation or a Select subclause.  ``output`` is the
    rendered table for Display/Print, and ``op_result`` the return value
    of a user-defined operation.
    """

    query: Query
    subdatabase: Subdatabase
    table: Optional[Table] = None
    output: Optional[str] = None
    op_result: Any = None
    #: Instrumentation of the context-clause evaluation (EXPLAIN
    #: ANALYZE-style counters).
    metrics: Optional[EvaluationMetrics] = None

    def render(self) -> str:
        """The displayable form (table if any, else the subdatabase)."""
        if self.output is not None:
            return self.output
        if self.table is not None:
            return self.table.render()
        return self.subdatabase.describe()


class QueryProcessor:
    """Parses and executes OQL query blocks against a universe."""

    def __init__(self, universe: Universe, on_cycle: str = "error",
                 operations: Optional[OperationRegistry] = None,
                 compact: bool = True,
                 cache_bytes: int = 0):
        self.universe = universe
        self.evaluator = PatternEvaluator(
            universe, on_cycle=on_cycle, compact=compact,
            cache_bytes=cache_bytes)
        if operations is None:
            from repro.oql.builtins import register_builtin_operations
            operations = register_builtin_operations(OperationRegistry())
        self.operations = operations
        self._result_counter = 0

    def close(self) -> None:
        """Drop the evaluator's memos (idempotent)."""
        self.evaluator.close()

    def _next_name(self) -> str:
        self._result_counter += 1
        return f"query_result_{self._result_counter}"

    def execute(self, query: Union[str, Query],
                name: Optional[str] = None,
                budget: Optional[QueryBudget] = None) -> QueryResult:
        """Run one query block and return its :class:`QueryResult`.

        ``budget`` bounds the context-clause evaluation; a trip raises
        :class:`~repro.oql.budget.BudgetExceeded` with partial metrics
        attached.
        """
        if isinstance(query, str):
            query = parse_query(query)
        subdb = self.evaluator.evaluate(query.context, query.where,
                                        name or self._next_name(),
                                        budget=budget)
        if budget is not None:
            budget.check_output(len(subdb))
        result = QueryResult(query=query, subdatabase=subdb,
                             metrics=self.evaluator.last_metrics)
        needs_table = query.select is not None or \
            query.operation in ("display", "print")
        if needs_table:
            result.table = build_table(self.universe, subdb, query.select)
        if query.operation in ("display", "print"):
            result.output = result.table.render()
        elif query.operation is not None:
            fn = self.operations.get(query.operation)
            if result.table is None:
                result.table = build_table(self.universe, subdb,
                                           query.select)
            result.op_result = fn(self.universe, subdb, result.table)
        return result
