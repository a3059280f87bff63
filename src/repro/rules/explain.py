"""Explain: the backward-chaining plan of a query or target.

``engine.explain("context Faculty * Advising * May_teach:TA ...")``
answers: which derived subdatabases does this query reference, which
rules derive them, what do those rules read (recursively down to base
classes), is each result currently materialized and under which
evaluation mode, and in what order would derivation run?

The paper walks exactly this trace for Query 4.1 (Section 4.3): "rules
R4 and R5 will be triggered ... this causes rule R2 that derives
Suggest_offer to be triggered ... R2 does not refer to any other derived
subdatabase, hence its expressions are evaluated against the base
classes."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro import obs
from repro.oql.ast import Query
from repro.oql.footprint import chain_terms
from repro.oql.parser import parse_query
from repro.oql.planner import JoinPlan
from repro.rules.chaining import topological_order, upstream_closure

if TYPE_CHECKING:  # pragma: no cover
    from repro.rules.engine import RuleEngine


@dataclass
class RuleStep:
    """One rule contributing to a target."""

    label: str
    reads_targets: List[str]
    reads_base: List[str]

    def render(self) -> str:
        reads = self.reads_targets + [f"{c} (base)"
                                      for c in self.reads_base]
        return f"rule {self.label}: reads {', '.join(reads) or '(nothing)'}"


@dataclass
class TargetNode:
    """One derived subdatabase in the plan tree."""

    name: str
    materialized: bool
    mode: str
    #: The target's transitive footprint, rendered — what a write must
    #: touch for the target to be re-derived.
    footprint: str
    rules: List[RuleStep] = field(default_factory=list)
    sources: List["TargetNode"] = field(default_factory=list)


@dataclass
class Explanation:
    """The full backward-chaining plan for one query."""

    query_text: str
    #: Derived subdatabases the query references directly.
    referenced: List[str]
    #: Base classes the query references directly.
    base_classes: List[str]
    #: Plan trees rooted at the referenced targets.
    roots: List[TargetNode]
    #: The order derivation would run (sources before dependents),
    #: skipping already-materialized results.
    derivation_order: List[str]
    #: The join plans the evaluator would choose for the query's own
    #: context chain (one per brace group), with per-step row estimates.
    #: Empty when a referenced subdatabase is not materialized yet —
    #: the statistics needed for planning only exist after derivation.
    join_plans: List[JoinPlan] = field(default_factory=list)
    #: Id of the trace recorded while building this explanation
    #: (``None`` when no tracer was installed).
    trace_id: Optional[int] = None

    def render(self) -> str:
        lines = [f"query: {self.query_text}"]
        if self.base_classes:
            lines.append(
                f"base classes: {', '.join(self.base_classes)}")
        if not self.roots:
            lines.append("no derived subdatabases referenced — "
                         "evaluates directly against the base database")
            for plan in self.join_plans:
                lines.extend(plan.describe().splitlines())
            return "\n".join(lines)
        lines.append("derived subdatabases:")

        def walk(node: TargetNode, depth: int) -> None:
            pad = "  " * depth
            status = "warm (materialized)" if node.materialized \
                else "cold (will derive)"
            lines.append(f"{pad}- {node.name} [{node.mode}] {status}")
            lines.append(f"{pad}    reads {node.footprint}")
            for step in node.rules:
                lines.append(f"{pad}    {step.render()}")
            for source in node.sources:
                walk(source, depth + 1)

        for root in self.roots:
            walk(root, 1)
        if self.derivation_order:
            lines.append("derivation order: "
                         + " -> ".join(self.derivation_order))
        else:
            lines.append("derivation order: (everything warm)")
        for plan in self.join_plans:
            lines.extend(plan.describe().splitlines())
        return "\n".join(lines)


def _mode_name(engine: "RuleEngine", name: str) -> str:
    mode = engine.controller.mode_of(name)
    return getattr(mode, "value", str(mode))


def _plan_query(engine: "RuleEngine", query: Query) -> List[JoinPlan]:
    """The join plans the evaluator would pick for the query's context,
    estimated from current statistics.  A slot whose intra-class
    condition is answerable by declared value indexes plans with its
    *true* filtered size (the index counts matching rows without
    scanning); other conditioned slots fall back to the unfiltered
    extent size — those selectivities only become exact during
    evaluation.

    Planning needs extent sizes and edge resolutions, which for derived
    references require the subdatabase to exist; when one is cold the
    plan is omitted rather than derived as a side effect of explain.
    """
    from repro.oql.evaluator import _flatten
    flat = _flatten(query.context.chain)
    refs = [term.ref for term in flat.terms]
    if any(ref.subdb is not None
           and not engine.universe.has_subdb(ref.subdb) for ref in refs):
        return []
    evaluator = engine.evaluator
    resolutions = [engine.universe.resolve_edge(flat.terms[i].ref,
                                                flat.terms[i + 1].ref)
                   for i in range(len(flat.terms) - 1)]
    sizes = [evaluator.planner.statistics.filtered_size(term.ref,
                                                        term.condition)
             for term in flat.terms]
    return [evaluator.planner.plan(refs, flat.ops, resolutions, sizes,
                                   start, end)
            for start, end in flat.groups]


def explain(engine: "RuleEngine", query_text: str) -> Explanation:
    """Build the backward-chaining plan for ``query_text``."""
    tracer = obs.TRACER
    span = tracer.start("explain", text=query_text) \
        if tracer is not None else None
    try:
        explanation = _explain(engine, query_text)
        if span is not None:
            explanation.trace_id = span.trace_id
        return explanation
    finally:
        if span is not None:
            tracer.finish(span)


def _explain(engine: "RuleEngine", query_text: str) -> Explanation:
    query = parse_query(query_text)
    refs = [term.ref for term in chain_terms(query.context.chain)]
    referenced = sorted({ref.subdb for ref in refs
                         if ref.subdb is not None
                         and ref.subdb in engine.rule_graph()})
    base_classes = sorted({ref.cls for ref in refs if ref.subdb is None})

    memo: Dict[str, TargetNode] = {}

    def build(name: str) -> TargetNode:
        if name in memo:
            return memo[name]
        node = TargetNode(
            name=name,
            materialized=engine.universe.has_subdb(name),
            mode=_mode_name(engine, name),
            footprint=engine.footprint(name).describe())
        memo[name] = node
        source_names: Set[str] = set()
        for rule in engine.rules_for(name):
            reads = sorted(rule.source_subdatabases())
            node.rules.append(RuleStep(
                label=rule.label or name,
                reads_targets=reads,
                reads_base=sorted(
                    rule.footprint(engine.db.schema).extents)))
            source_names.update(s for s in reads
                                if s in engine.rule_graph())
        node.sources = [build(s) for s in sorted(source_names)]
        return node

    roots = [build(name) for name in referenced]

    graph = engine.rule_graph()
    needed = upstream_closure(graph, referenced)
    order = [name for name in topological_order(graph)
             if name in needed and not engine.universe.has_subdb(name)]
    return Explanation(query_text=query_text, referenced=referenced,
                       base_classes=base_classes, roots=roots,
                       derivation_order=order,
                       join_plans=_plan_query(engine, query))
