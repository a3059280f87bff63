"""The pattern-matching engine.

:class:`PatternEvaluator` turns an association pattern expression into a
:class:`~repro.subdb.subdatabase.Subdatabase`:

* a **linear chain** ``A * B * C`` is matched by a left-to-right join over
  the (own, inherited, or derived) association resolved between each pair
  of adjacent classes — keeping only fully connected patterns, exactly as
  the association operator is defined in Section 3.2;
* the **non-association operator** ``!`` extends a partial pattern with
  the extent objects *not* associated with the current end;
* **brace groups** identify additional pattern types (Section 5.1):
  ``A * {B * C} * D`` yields all patterns of types (A,B,C,D) and (B,C),
  with the subsumption rule dropping a brace pattern that is part of a
  retained larger pattern — Codd's outer-join semantics;
* a **loop superscript** ``^*`` / ``^N`` on a cyclic chain performs the
  transitive closure of Section 5.2 by iterating over the cycle,
  automatically generating aliases ``B_1, C_1, A_2, ...`` per level and
  keeping hierarchies that terminate early (implicit braces).

Chain matching is planned and executed in two layers:

* a :class:`~repro.oql.planner.Planner` chooses the contiguous join
  order of least estimated cost from extent sizes and link fan-out
  statistics, emitting a :class:`~repro.oql.planner.JoinPlan`;
* a *frontier-batched executor* runs the plan hop by hop: one bulk
  neighbor lookup per hop over the distinct frontier endpoints, one
  set intersection (or difference, for ``!``) per distinct endpoint —
  never per row.  Every contiguous join order produces identical
  results; only the intermediate row counts differ.

The Where subclause is applied afterwards: inter-class comparisons and
aggregation conditions (``COUNT ... by ...``) drop extensional patterns
from the context subdatabase.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import (CyclicDataError, OQLSemanticError,
                          UnknownAttributeError)
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.model.oid import OID
from repro.oql import conditions
from repro.oql.ast import (
    AggComparison,
    AttrRef,
    BoolOp,
    Chain,
    ClassTerm,
    Comparison,
    ContextExpr,
    NotOp,
    WhereCond,
)
from repro.model.interning import InternTable
from repro.oql import kernels
from repro.oql.cache import (DEFAULT_CACHE_BYTES, ResultCache, clone_result,
                             fingerprint, result_nbytes)
from repro.oql.footprint import Footprint, footprint_of
from repro.oql.planner import JoinPlan, Planner
from repro.subdb import attrindex
from repro.subdb.intension import Edge, IntensionalPattern
from repro.subdb.pattern import ExtensionalPattern, subsume, subsume_rows
from repro.subdb.refs import ClassRef
from repro.subdb.subdatabase import Subdatabase
from repro.subdb.universe import EdgeResolution, Universe


def resolve_slot_index(slots: Sequence[ClassRef], owner: ClassRef) -> int:
    """Resolve a Where-subclause qualifier to a slot index.

    Exact slot names win; otherwise an unqualified class name matches
    the unique slot of that class (any subdatabase qualifier / alias),
    mirroring the paper's rule that qualification is only needed when
    ambiguous.  Shared by :class:`PatternEvaluator` and the incremental
    maintainer so both raise identical :class:`OQLSemanticError`\\ s for
    unknown or ambiguous references.
    """
    for index, ref in enumerate(slots):
        if ref.slot == owner.slot:
            return index
    matches = [index for index, ref in enumerate(slots)
               if ref.cls == owner.cls
               and (owner.subdb is None or ref.subdb == owner.subdb)]
    if len(matches) == 1:
        return matches[0]
    slot_names = [ref.slot for ref in slots]
    if not matches:
        raise OQLSemanticError(
            f"where subclause references {owner}, which is not a "
            f"context class (context: {slot_names})")
    raise OQLSemanticError(
        f"where subclause reference {owner} is ambiguous among "
        f"context classes {slot_names}")


@dataclass
class EvaluationMetrics:
    """Instrumentation collected during one evaluation (an EXPLAIN
    ANALYZE-style record, exposed as ``PatternEvaluator.last_metrics``
    and ``QueryResult.metrics``)."""

    #: Objects pulled from class extents (after intra-class filtering).
    extent_objects: int = 0
    #: Neighbor-set lookups performed while matching.
    edge_traversals: int = 0
    #: Partial rows materialized across all match ranges.
    rows_generated: int = 0
    #: Patterns dropped by the subsumption rule.
    patterns_subsumed: int = 0
    #: Patterns in the final result.
    patterns_out: int = 0
    #: Loop levels materialized (0 for non-loop evaluations).
    loop_levels: int = 0
    #: Which budget limit tripped ("none" when the evaluation finished
    #: inside its budget, or ran without one).
    budget_verdict: str = "none"
    #: The join plans chosen for each matched range (one per brace
    #: group, plus the base cycle of a loop), with per-step
    #: actual-vs-estimated row counts filled in by the executor.
    plans: List[JoinPlan] = field(default_factory=list)
    #: Id of the trace recorded for this evaluation (``None`` when no
    #: tracer was installed); resolve it via
    #: ``obs.TRACER.recorder.get(trace_id)``.
    trace_id: Optional[int] = None
    #: Cross-query result-cache traffic of this evaluation: a hit means
    #: the whole result was served without joining; a memo hit means a
    #: loop seeded its anchor-expansion table from a previous query.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_memo_hits: int = 0
    #: Value-index probes answered (one per conjunct served from an
    #: :class:`~repro.subdb.attrindex.AttrIndex` instead of a scan).
    index_probes: int = 0
    #: Candidate rows those probes returned (before any residual
    #: conjuncts filtered them further).
    index_rows: int = 0
    #: Per-entity intra-class condition evaluations this evaluation
    #: still performed in Python (full scans plus residual filtering of
    #: index candidates) — the observable index probes drive down.
    extent_filter_evals: int = 0

    def snapshot(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "extent_objects": self.extent_objects,
            "edge_traversals": self.edge_traversals,
            "rows_generated": self.rows_generated,
            "patterns_subsumed": self.patterns_subsumed,
            "patterns_out": self.patterns_out,
            "loop_levels": self.loop_levels,
            "budget_verdict": self.budget_verdict,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_memo_hits": self.cache_memo_hits,
            "index_probes": self.index_probes,
            "index_rows": self.index_rows,
            "extent_filter_evals": self.extent_filter_evals,
        }

    def describe_plans(self) -> str:
        """The chosen join plans, estimated vs actual, one block each."""
        return "\n".join(plan.describe() for plan in self.plans)


@dataclass
class _Flattened:
    """A chain flattened to slot order, with brace-group ranges."""

    terms: List[ClassTerm]
    ops: List[str]                       # between consecutive slots
    groups: List[Tuple[int, int]]        # inclusive ranges, outermost first


def _flatten(chain: Chain) -> _Flattened:
    terms: List[ClassTerm] = []
    ops: List[str] = []
    groups: List[Tuple[int, int]] = []

    def walk(node: Chain) -> None:
        start = len(terms)
        for index, element in enumerate(node.elements):
            if index > 0:
                ops.append(node.ops[index - 1])
            if isinstance(element, Chain):
                walk(element)
            else:
                terms.append(element)
        if node.braced:
            groups.append((start, len(terms) - 1))

    walk(chain)
    whole = (0, len(terms) - 1)
    ordered = [whole] + [g for g in groups if g != whole]
    # Outer groups before inner ones (wider ranges first) so subsumption
    # processes larger pattern types first.
    ordered.sort(key=lambda g: (g[0] - g[1], g[0]))
    _Flattened_groups = []
    seen = set()
    for group in ordered:
        if group not in seen:
            seen.add(group)
            _Flattened_groups.append(group)
    return _Flattened(terms, ops, _Flattened_groups)


class PatternEvaluator:
    """Evaluates context expressions against a :class:`Universe`."""

    def __init__(self, universe: Universe, on_cycle: str = "error",
                 max_depth: int = 1000,
                 compact: bool = True,
                 cache_bytes: int = 0):
        if on_cycle not in ("error", "stop"):
            raise ValueError("on_cycle must be 'error' or 'stop'")
        self.universe = universe
        #: Ambient budget applied to every evaluation that does not
        #: pass an explicit one (the rule engine sets it for the
        #: duration of a budgeted derivation cascade).
        self.budget: Optional[QueryBudget] = None
        # The budget active for the evaluation currently on the stack
        # (save/restored across provider-driven nested evaluations).
        self._budget: Optional[QueryBudget] = None
        #: When True (the default), chains and loops execute over
        #: interned dense ids against CSR adjacency indexes, decoding
        #: back to OID patterns only at materialization.  ``False``
        #: selects the original set-of-OIDs executor — results are
        #: identical (the differential tests assert it); only speed
        #: differs.
        self.compact = compact
        #: Behaviour when a loop revisits an instance: ``"error"`` raises
        #: :class:`CyclicDataError` (the paper assumes acyclic data),
        #: ``"stop"`` terminates that hierarchy (computes the closure of a
        #: cyclic graph).
        self.on_cycle = on_cycle
        #: Safety bound on unbounded-loop depth.
        self.max_depth = max_depth
        #: The statistics-backed join planner (the paper's "search
        #: engine of the underlying OO DBMS"; cached against the
        #: universe's data version).
        self.planner = Planner(universe)
        #: The cross-query result cache (LRU, byte-bounded, keyed by
        #: query fingerprint + footprint version vector).  Pass
        #: ``cache_bytes > 0`` to enable it; it can also be toggled
        #: at runtime via ``result_cache.enabled`` (the shell's
        #: ``\cache on|off``) at the default capacity.
        self.result_cache = ResultCache(
            cache_bytes if cache_bytes > 0 else DEFAULT_CACHE_BYTES,
            enabled=cache_bytes > 0)
        # Footprints of result-cache keys, walked once per key and
        # dropped when the schema — hence link resolution — moves:
        # ``(schema version, {key: footprint})``.
        self._footprints: Tuple[int, Dict[object, Footprint]] = (-1, {})
        # Filtered extents memoized per term (conditions are pure, so a
        # term's filtered extent only changes when its extent or an
        # attribute its condition reads changes) — any other write
        # keeps the term's extent warm.  Values are ``(footprint,
        # token, set)``, valid while the footprint's vector is the token.
        self._extent_cache: Dict[ClassTerm, Tuple[Footprint,
                                                  Tuple[int, ...],
                                                  Set[OID]]] = {}
        # How each term's filtered extent was last computed ("index",
        # "index+scan", or "scan") — stamped onto every JoinPlan as its
        # per-slot access annotation (visible in explain output).
        self._extent_access: Dict[ClassTerm, str] = {}
        #: Filtered-extent computations that missed the memo (the
        #: regression observable for per-class extent-cache scoping).
        self.extent_filter_evals = 0
        #: Instrumentation of the most recent *completed* evaluate()
        #: call (assigned when the call returns or raises).
        self.last_metrics = EvaluationMetrics()
        # The record of the evaluation currently on the stack; nested
        # (provider-driven) evaluations save/restore it, so helpers
        # always append to their own call's metrics.
        self._metrics = self.last_metrics

    def close(self) -> None:
        """Drop the evaluator's memos (filtered extents and cached
        results).  Idempotent, and the evaluator stays usable: the memos
        refill on demand."""
        self._extent_cache.clear()
        self.result_cache.clear()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def evaluate(self, expr: ContextExpr,
                 where: Sequence[WhereCond] = (),
                 name: str = "result",
                 budget: Optional[QueryBudget] = None) -> Subdatabase:
        """Evaluate a context expression (+ optional Where subclause).

        ``budget`` bounds this evaluation (falling back to the ambient
        :attr:`budget`); on a trip the raised
        :class:`~repro.oql.budget.BudgetExceeded` carries the partial
        metrics, and :attr:`last_metrics` records the verdict.
        """
        metrics = EvaluationMetrics()
        # Nested evaluations (a derivation cascade re-entering through
        # the universe's provider) save and restore the active record,
        # so an outer evaluation never appends into an inner one's
        # metrics — and last_metrics always describes a *completed*
        # call.
        prev_metrics = self._metrics
        self._metrics = metrics
        tracer = obs.TRACER
        span = tracer.start("query", result=name, compact=self.compact) \
            if tracer is not None else None
        if span is not None:
            metrics.trace_id = span.trace_id
        active = budget if budget is not None else self.budget
        if active is not None:
            active.ensure_started()
        prev = self._budget
        self._budget = active
        try:
            flat = _flatten(expr.chain)
            self._check_unique_slots(flat)
            cache_key = cache_vector = None
            cache = self.result_cache
            if cache.enabled:
                hit = self._cache_probe(cache, flat, expr, where)
                if hit is not None:
                    if hit[0] is not None:
                        subdb = clone_result(hit[0], name)
                        metrics.patterns_out = len(subdb)
                        return subdb
                    cache_key, cache_vector = hit[1], hit[2]
            if expr.loop is not None:
                if self.compact:
                    subdb = self._evaluate_loop_compact(flat,
                                                        expr.loop.count,
                                                        name)
                else:
                    subdb = self._evaluate_loop(flat, expr.loop.count, name)
            elif self.compact:
                subdb = self._evaluate_chain_compact(flat, name)
            else:
                subdb = self._evaluate_chain(flat, name)
            if where:
                subdb = self._apply_where(subdb, where)
            # len(subdb) counts interned rows without forcing a decode.
            metrics.patterns_out = len(subdb)
            if cache_key is not None:
                # Only a *completed* evaluation populates the cache: a
                # BudgetExceeded trip unwinds past this line, so partial
                # results can never be served later.
                before = cache.evictions
                cache.store(cache_key, cache_vector, subdb,
                            result_nbytes(subdb))
                metrics.cache_evictions += cache.evictions - before
            return subdb
        except BudgetExceeded as exc:
            metrics.budget_verdict = exc.verdict
            if exc.metrics is None:
                exc.metrics = metrics
            if span is not None and exc.trace_id is None:
                exc.trace_id = span.trace_id
            raise
        finally:
            self._budget = prev
            self._metrics = prev_metrics
            self.last_metrics = metrics
            if span is not None:
                span.add("rows_out", metrics.patterns_out)
                span.add("rows_generated", metrics.rows_generated)
                if active is not None:
                    span.set("budget_checks", active.checks)
                    span.set("budget_verdict", metrics.budget_verdict)
                tracer.finish(span)

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _cache_probe(self, cache: ResultCache, flat: _Flattened,
                     expr: ContextExpr, where: Sequence[WhereCond]
                     ) -> Optional[Tuple[Optional[Subdatabase],
                                         Tuple, Tuple[int, ...]]]:
        """Look the query up in the cross-query result cache.

        Returns ``None`` when the query is ineligible (some reference
        reads a derived subdatabase — no stamp covers its contents),
        ``(template, key, vector)`` on a hit, and
        ``(None, key, vector)`` on a miss, in which case the caller
        stores its result under that same (key, vector) — captured
        *before* evaluation, so a concurrent write inside the footprint
        during the join leaves a vector no future lookup can match.
        """
        if any(term.ref.subdb is not None for term in flat.terms):
            return None
        tracer = obs.TRACER
        cspan = tracer.start("cache-lookup") if tracer is not None else None
        try:
            key = ("query", fingerprint(expr, where))
            vector = self._vector(key, flat.terms, where)
            template = cache.lookup(key, vector)
            if template is not None:
                self._metrics.cache_hits += 1
                if cspan is not None:
                    cspan.set("outcome", "hit")
                    cspan.add("rows", len(template))
                return (template, key, vector)
            self._metrics.cache_misses += 1
            if cspan is not None:
                cspan.set("outcome", "miss")
            return (None, key, vector)
        finally:
            if cspan is not None:
                tracer.finish(cspan)

    def _vector(self, key, terms: Sequence[ClassTerm],
                where: Sequence[WhereCond] = ()) -> Tuple[int, ...]:
        """The version vector of what ``terms`` + ``where`` read, for
        the result-cache entry ``key``; the footprint is walked once
        per key and schema version."""
        schema_version, memo = self._footprints
        if schema_version != self.universe.db.schema_version \
                or len(memo) > 1024:
            memo = {}
            self._footprints = (self.universe.db.schema_version, memo)
        footprint = memo.get(key)
        if footprint is None:
            footprint = memo[key] = footprint_of(terms, where,
                                                 self.universe.schema)
        return self.universe.version_vector(footprint)

    def _check_unique_slots(self, flat: _Flattened) -> None:
        seen: Set[str] = set()
        for term in flat.terms:
            slot = term.ref.slot
            if slot in seen:
                raise OQLSemanticError(
                    f"class {slot!r} appears twice in the expression; use "
                    f"an alias ({slot}_1) for the second occurrence")
            seen.add(slot)

    def _extent(self, term: ClassTerm) -> Set[OID]:
        """The term's extent, filtered by its intra-class condition
        (memoized per term token — the returned set is shared and must
        not be mutated).  Entries are validated against the version
        vector of the term's extent and condition attributes, so a
        write to anything else no longer recomputes the filtered
        extent.

        When the class carries declared value indexes, the leading
        index-answerable conjuncts are served as sorted dense-id probes
        (:meth:`_probe_extent`) and only the residual tail — if any —
        falls back to per-entity evaluation over the candidates.  Probe
        and scan are byte-identical, errors included; the differential
        tier asserts it."""
        if term.condition is None:
            extent = self.universe.extent(term.ref)
            self._metrics.extent_objects += len(extent)
            return extent
        universe = self.universe
        cached = self._extent_cache.get(term)
        if cached is not None and \
                cached[1] == universe.version_vector(cached[0]):
            self._metrics.extent_objects += len(cached[2])
            return cached[2]
        # A moved vector may mean a moved schema: walk the term again.
        footprint = footprint_of((term,), (), universe.schema)
        token = universe.version_vector(footprint)
        self.extent_filter_evals += 1
        if len(self._extent_cache) > 1024:
            self._extent_cache.clear()
            self._extent_access.clear()
        filtered = self._probe_extent(term)
        if filtered is None:
            extent = self.universe.extent(term.ref)
            getter_for = self._getter_for(term)
            filtered = {oid for oid in extent
                        if conditions.evaluate(term.condition,
                                               getter_for(oid))}
            self._metrics.extent_filter_evals += len(extent)
            self._extent_access[term] = "scan"
        self._extent_cache[term] = (footprint, token, filtered)
        self._metrics.extent_objects += len(filtered)
        return filtered

    def _getter_for(self, term: ClassTerm):
        """The per-entity attribute getter factory intra-class filters
        evaluate against (shared by the scan and the residual tail of a
        probe, so both raise identical errors)."""
        universe = self.universe
        ref = term.ref

        def getter_for(oid: OID):
            def getter(attr_ref: AttrRef):
                if attr_ref.owner is not None:
                    raise OQLSemanticError(
                        "intra-class conditions may only reference the "
                        "class's own attributes")
                return universe.attr_value(ref, oid, attr_ref.attr)
            return getter

        return getter_for

    def _probe_extent(self, term: ClassTerm) -> Optional[Set[OID]]:
        """Serve a term's filtered extent from declared value indexes,
        or return ``None`` to scan.

        The condition's ``and`` conjuncts are peeled front to back:
        each leading conjunct an index answers exactly becomes a sorted
        dense-id probe, and the probed candidate lists intersect as
        sorted arrays.  The first conjunct that cannot be answered —
        no index, an operand shape indexes don't cover, or a probe the
        index reports as unable to reproduce scan semantics for
        (:data:`~repro.subdb.attrindex.CONFLICT` /
        :data:`~repro.subdb.attrindex.FALLBACK`) — stops the peel; it
        and every later conjunct form the *residual*, evaluated per
        candidate in original order.  That preserves the scan's
        left-to-right short-circuit exactly, so type-comparability
        errors surface for precisely the same inputs.  If not even the
        first conjunct is answerable the whole term scans."""
        ref = term.ref
        if ref.subdb is not None:
            return None
        store = self.universe.compact.attrs
        if not store.declared:
            return None
        conjuncts = conditions.and_conjuncts(term.condition)
        ids: Optional[array] = None
        probes = 0
        index_used = None
        for pos, conj in enumerate(conjuncts):
            answer = self._probe_conjunct(ref, conj, first=pos == 0)
            if answer is None:
                break
            conj_ids, index_used = answer
            ids = conj_ids if ids is None else \
                kernels.sorted_intersect(ids, conj_ids)
            probes += 1
        if ids is None or index_used is None:
            return None
        residual = conjuncts[probes:]
        tracer = obs.TRACER
        span = tracer.start("index-probe", slot=ref.slot,
                            conjuncts=probes,
                            residual=len(residual)) \
            if tracer is not None else None
        try:
            metrics = self._metrics
            metrics.index_probes += probes
            metrics.index_rows += len(ids)
            decode = index_used.table.oids
            if not residual:
                filtered = {decode[i] for i in ids}
                self._extent_access[term] = "index"
            else:
                self._extent_access[term] = "index+scan"
                getter_for = self._getter_for(term)
                filtered = set()
                keep = filtered.add
                for i in ids:
                    oid = decode[i]
                    if all(conditions.evaluate(conj, getter_for(oid))
                           for conj in residual):
                        keep(oid)
                metrics.extent_filter_evals += len(ids)
            if span is not None:
                span.add("rows", len(ids))
                span.add("rows_out", len(filtered))
            return filtered
        finally:
            if span is not None:
                tracer.finish(span)

    def _probe_conjunct(self, ref: ClassRef, conj,
                        first: bool) -> Optional[Tuple[array,
                                                       attrindex.AttrIndex]]:
        """One conjunct's index answer — ``(sorted dense ids, index)``
        — or ``None`` when it must be scanned."""
        normalized = conditions.literal_comparison(conj)
        if normalized is None:
            return None
        attr, op, literal = normalized
        index = self.universe.attr_index(ref, attr)
        if index is None:
            return None
        if index.table.live_count:
            # Every entity of a non-empty extent would evaluate the
            # first conjunct, so a schema-invisible attribute raises on
            # the scan path — reproduce that here.  A later conjunct
            # might never be reached (short-circuit), so it only stops
            # the peel.  Empty extents never call the getter at all.
            try:
                self.universe.check_attribute(ref, attr)
            except UnknownAttributeError:
                if first:
                    raise
                return None
        status, ids = index.probe(op, literal)
        if status != attrindex.OK or ids is None:
            return None
        return ids, index

    def _access_modes(self, terms: List[ClassTerm]
                      ) -> Tuple[Optional[str], ...]:
        """Per-slot access annotation for a plan: ``None`` for an
        unconditioned slot, else how the slot's filtered extent was
        last computed (``"index"``, ``"index+scan"``, ``"scan"``)."""
        return tuple(None if term.condition is None
                     else self._extent_access.get(term, "scan")
                     for term in terms)

    def _resolutions(self, flat: _Flattened) -> List[EdgeResolution]:
        return [self.universe.resolve_edge(flat.terms[i].ref,
                                           flat.terms[i + 1].ref)
                for i in range(len(flat.terms) - 1)]

    def _match_range(self, flat: _Flattened, start: int, end: int,
                     extents: List[Set[OID]],
                     resolutions: List[EdgeResolution]
                     ) -> List[Tuple[OID, ...]]:
        """All fully connected tuples over slots ``start..end``: plan a
        join order, then run it through the batched executor."""
        refs = [term.ref for term in flat.terms]
        sizes = [len(extent) for extent in extents]
        tracer = obs.TRACER
        span = tracer.start("match-range", start=start, end=end) \
            if tracer is not None else None
        try:
            plan = self.planner.plan(refs, flat.ops, resolutions, sizes,
                                     start, end)
            plan.access = self._access_modes(flat.terms)
            self._metrics.plans.append(plan)
            rows = self._execute_plan(plan, extents, resolutions)
            if span is not None:
                span.add("rows_out", len(rows))
            return rows
        finally:
            if span is not None:
                tracer.finish(span)

    def _execute_plan(self, plan: JoinPlan, extents: List[Set[OID]],
                      resolutions: List[EdgeResolution]
                      ) -> List[Tuple[OID, ...]]:
        """Run a join plan with whole-frontier batching.

        Each hop performs one bulk neighbor lookup over the *distinct*
        endpoints of the current row set, and computes each endpoint's
        candidate set (neighbors ∩ extent for ``*``, extent − neighbors
        for ``!``) exactly once — rows sharing an endpoint share the
        work, which is where the fan-in-heavy hops of selective chains
        spend their time under row-at-a-time execution.
        """
        budget = self._budget
        tracer = obs.TRACER
        rows: List[Tuple[OID, ...]] = [(oid,) for oid in
                                       extents[plan.anchor]]
        plan.actual_anchor_rows = len(rows)
        for step in plan.steps:
            sspan = tracer.start("join-step",
                                 slot=plan.slot_names[step.slot],
                                 op=step.op, direction=step.direction) \
                if tracer is not None else None
            try:
                rows = self._execute_plan_step(step, rows, extents,
                                               resolutions, budget)
                if sspan is not None:
                    sspan.add("frontier", step.actual_frontier or 0)
                    sspan.add("rows_out", len(rows))
            finally:
                if sspan is not None:
                    tracer.finish(sspan)
        return rows

    def _execute_plan_step(self, step, rows: List[Tuple[OID, ...]],
                           extents: List[Set[OID]],
                           resolutions: List[EdgeResolution],
                           budget: Optional[QueryBudget]
                           ) -> List[Tuple[OID, ...]]:
        """One hop of the set-based executor (split out so the per-step
        span around it closes on any exit path)."""
        if not rows:
            step.actual_frontier = 0
            step.actual_rows = 0
            return rows
        if budget is not None:
            budget.check_time()
        resolution = resolutions[step.edge]
        forward = step.direction == "right"
        target_extent = extents[step.slot]
        end_index = -1 if forward else 0
        frontier = {row[end_index] for row in rows}
        neighbor_map = self.universe.bulk_edge_neighbors(
            frontier, resolution, forward=forward)
        self._metrics.edge_traversals += len(frontier)
        if step.op == "*":
            candidates = {oid: target_extent.intersection(neighbor_map[oid])
                          for oid in frontier}
        else:  # "!": the non-association operator
            candidates = {oid: target_extent.difference(neighbor_map[oid])
                          for oid in frontier}
        extended: List[Tuple[OID, ...]] = []
        append = extended.append
        next_check = budget.CHECK_EVERY if budget is not None else None
        charged = 0
        if forward:
            for row in rows:
                for oid in candidates[row[-1]]:
                    append(row + (oid,))
                if next_check is not None and \
                        len(extended) >= next_check:
                    budget.charge_rows(len(extended) - charged)
                    charged = len(extended)
                    budget.check_time()
                    next_check = charged + budget.CHECK_EVERY
        else:
            for row in rows:
                for oid in candidates[row[0]]:
                    append((oid,) + row)
                if next_check is not None and \
                        len(extended) >= next_check:
                    budget.charge_rows(len(extended) - charged)
                    charged = len(extended)
                    budget.check_time()
                    next_check = charged + budget.CHECK_EVERY
        if budget is not None:
            budget.charge_rows(len(extended) - charged)
        step.actual_frontier = len(frontier)
        step.actual_rows = len(extended)
        self._metrics.rows_generated += len(extended)
        return extended

    def _intension(self, flat: _Flattened,
                   resolutions: List[EdgeResolution]) -> IntensionalPattern:
        edges = []
        for i, resolution in enumerate(resolutions):
            edges.append(self._edge_for(i, i + 1, flat.ops[i], resolution))
        return IntensionalPattern([t.ref for t in flat.terms], edges)

    @staticmethod
    def _edge_for(i: int, j: int, op: str,
                  resolution: EdgeResolution) -> Edge:
        if resolution.kind == "identity":
            label = "identity"
            kind = "base"
        elif resolution.kind == "base":
            label = resolution.resolved.link.name
            kind = "base"
        else:
            label = f"derived@{resolution.subdb}"
            kind = "derived"
        if op == "!":
            label = f"!{label}"
        return Edge(i, j, kind, label)

    # ------------------------------------------------------------------
    # Plain chains (with brace groups)
    # ------------------------------------------------------------------

    def _evaluate_chain(self, flat: _Flattened, name: str) -> Subdatabase:
        width = len(flat.terms)
        extents = [self._extent(term) for term in flat.terms]
        resolutions = self._resolutions(flat)

        patterns: Set[ExtensionalPattern] = set()
        for start, end in flat.groups:
            for row in self._match_range(flat, start, end, extents,
                                         resolutions):
                values: List[Optional[OID]] = [None] * width
                values[start:end + 1] = row
                patterns.add(ExtensionalPattern(values))

        if len(flat.groups) == 1:
            # A single (whole-chain) group produces only full-width
            # patterns: nothing can subsume anything.
            kept = patterns
        else:
            kept = subsume(patterns)
        self._metrics.patterns_subsumed += len(patterns) - len(kept)
        intension = self._intension(flat, resolutions)
        return Subdatabase(name, intension, kept)

    # ------------------------------------------------------------------
    # Compact execution: interned ids over CSR adjacency indexes
    # ------------------------------------------------------------------

    def _filtered_ids(self, extents: List[Set[OID]],
                      tables: List[InternTable]
                      ) -> List[Optional[frozenset]]:
        """Per slot, the filtered extent as dense ids — or ``None`` when
        the filter kept the whole extent, so the executor can skip the
        membership test entirely (adjacency neighbors are already
        restricted to the table; dead ones are masked where the table
        holds tombstones)."""
        out: List[Optional[frozenset]] = []
        for extent, table in zip(extents, tables):
            if len(extent) == table.live_count:
                # A filtered extent is a subset of the unfiltered one at
                # the same data version, so equal size means unfiltered.
                out.append(None)
            else:
                out.append(table.encode_set(extent))
        return out

    def _match_range_ids(self, flat: _Flattened, start: int, end: int,
                         extents: List[Set[OID]],
                         resolutions: List[EdgeResolution],
                         refs: List[ClassRef],
                         tables: List[InternTable],
                         filt: List[Optional[frozenset]]
                         ) -> List[Tuple[int, ...]]:
        """Compact twin of :meth:`_match_range`: same planner, same
        metrics, rows of dense ids."""
        sizes = [len(extent) for extent in extents]
        tracer = obs.TRACER
        span = tracer.start("match-range", start=start, end=end) \
            if tracer is not None else None
        try:
            plan = self.planner.plan(refs, flat.ops, resolutions, sizes,
                                     start, end)
            plan.access = self._access_modes(flat.terms)
            self._metrics.plans.append(plan)
            rows = self._execute_plan_ids(plan, resolutions, refs, tables,
                                          filt)
            if span is not None:
                span.add("rows_out", len(rows))
            return rows
        finally:
            if span is not None:
                tracer.finish(span)

    def _execute_plan_ids(self, plan: JoinPlan,
                          resolutions: List[EdgeResolution],
                          refs: List[ClassRef],
                          tables: List[InternTable],
                          filt: List[Optional[frozenset]]
                          ) -> List[Tuple[int, ...]]:
        """Run a join plan over interned ids.

        Each hop runs as a vectorized columnar kernel
        (:mod:`repro.oql.kernels`): one CSR gather per step over the
        whole row set, an int-membership semi-join filter only when
        the slot carries an intra-class condition — never a Python-level
        append per output row.
        """
        anchor_ids = filt[plan.anchor]
        if anchor_ids is not None:
            anchor = sorted(anchor_ids)
        else:
            table = tables[plan.anchor]
            anchor = table.live_ids() if table.dead \
                else range(len(table))
        plan.actual_anchor_rows = len(anchor)
        specs = self._build_step_specs(plan.steps, resolutions, refs,
                                       tables, filt)
        rows, stats = self._run_plan_steps(plan.steps, specs, refs,
                                           anchor, self._budget)
        metrics = self._metrics
        for step, (frontier, produced) in zip(plan.steps, stats):
            step.actual_frontier = frontier
            step.actual_rows = produced
            metrics.edge_traversals += frontier
            metrics.rows_generated += produced
        return rows

    def _build_step_specs(self, steps,
                          resolutions: List[EdgeResolution],
                          refs: List[ClassRef],
                          tables: List[InternTable],
                          filt: List[Optional[frozenset]]
                          ) -> List[kernels.StepSpec]:
        """Reduce a plan's hops to kernel step specs over the live CSR
        arrays.  Building them also forces every lazily-built structure
        (adjacency indexes, and the interner entries underneath) —
        including any provider-driven derivation (backward chaining) an
        adjacency build may trigger — before the first hop runs."""
        universe = self.universe
        specs = []
        for step in steps:
            forward = step.direction == "right"
            src = step.edge if forward else step.edge + 1
            tgt = step.slot
            adj = universe.adjacency(resolutions[step.edge], forward,
                                     refs[src], refs[tgt])
            ids = filt[tgt]
            if ids is not None:
                tgt_filter = array("q", sorted(ids))
            else:
                # CSR rows still hold the ids of deleted targets.
                tgt_filter = tables[tgt].live_ids() if tables[tgt].dead \
                    else None
            specs.append(kernels.StepSpec(step.op, forward, adj.offsets,
                                          adj.neighbors,
                                          len(tables[tgt]), tgt_filter))
        return specs

    def _run_plan_steps(self, steps, specs: List[kernels.StepSpec],
                        refs: List[ClassRef], anchor_ids,
                        budget: Optional[QueryBudget]
                        ) -> Tuple[List[Tuple[int, ...]],
                                   List[Tuple[int, int]]]:
        """The hop loop of a compact plan.

        Rows stay columnar between hops and materialize as tuples once
        at the end.  Returns the rows plus per-step ``(distinct
        frontier, rows after)`` counts; the caller records them only
        once every hop has run, so a budget trip leaves the plan's
        actuals unset.
        """
        tracer = obs.TRACER
        stats: List[Tuple[int, int]] = []
        cols = [kernels.anchor_column(anchor_ids)]
        for step, spec in zip(steps, specs):
            sspan = tracer.start("join-step", slot=refs[step.slot].slot,
                                 op=step.op, direction=step.direction) \
                if tracer is not None else None
            try:
                if not len(cols[0]):
                    stats.append((0, 0))
                    if sspan is not None:
                        sspan.add("frontier", 0)
                        sspan.add("rows_out", 0)
                    continue
                cols, frontier_size = kernels.execute_step(cols, spec,
                                                           budget)
                stats.append((frontier_size, len(cols[0])))
                if sspan is not None:
                    sspan.add("frontier", frontier_size)
                    sspan.add("rows_out", len(cols[0]))
            finally:
                if sspan is not None:
                    tracer.finish(sspan)
        return kernels.columns_to_rows(cols), stats

    def _evaluate_chain_compact(self, flat: _Flattened,
                                name: str) -> Subdatabase:
        width = len(flat.terms)
        extents = [self._extent(term) for term in flat.terms]
        resolutions = self._resolutions(flat)
        refs = [term.ref for term in flat.terms]
        tables = [self.universe.intern_table(ref) for ref in refs]
        filt = self._filtered_ids(extents, tables)

        int_rows: Set[Tuple[Optional[int], ...]] = set()
        for start, end in flat.groups:
            head = (None,) * start
            tail = (None,) * (width - 1 - end)
            for row in self._match_range_ids(flat, start, end, extents,
                                             resolutions, refs, tables,
                                             filt):
                int_rows.add(head + row + tail)

        if len(flat.groups) == 1:
            # A single (whole-chain) group produces only full-width
            # patterns: nothing can subsume anything.
            kept = int_rows
        else:
            kept = subsume_rows(int_rows)
        self._metrics.patterns_subsumed += len(int_rows) - len(kept)
        intension = self._intension(flat, resolutions)
        return Subdatabase.from_interned_rows(name, intension, kept, tables)

    # ------------------------------------------------------------------
    # Loops: transitive closure as iteration (Section 5.2)
    # ------------------------------------------------------------------

    def _loop_guard(self, flat: _Flattened) -> Tuple[List[ClassTerm],
                                                     int, int]:
        """Validate a loop expression; returns (terms, n, body width)."""
        if len(flat.groups) > 1:
            raise OQLSemanticError(
                "brace groups may not be combined with a loop superscript "
                "(the loop generates its own implicit braces)")
        terms = flat.terms
        n = len(terms)
        if n < 2:
            raise OQLSemanticError("a loop requires at least two classes")
        first, last = terms[0].ref, terms[-1].ref
        if first.cls != last.cls or first.subdb != last.subdb:
            raise OQLSemanticError(
                f"a loop expression must form a cycle: the last class "
                f"({last}) must be an alias of the first ({first})")
        if any(op != "*" for op in flat.ops):
            raise OQLSemanticError(
                "loop expressions may use the association operator only")
        return terms, n, n - 1

    def _loop_intension(self, terms: List[ClassTerm],
                        resolutions: List[EdgeResolution],
                        levels_reached: int, n: int,
                        body: int) -> IntensionalPattern:
        """Slot list and edges for a loop result: the base cycle, then
        per extra level a copy of the body slots with automatically
        generated aliases (Section 5.2: "appending an underscore and an
        integer to the class name")."""
        slots: List[ClassRef] = [t.ref for t in terms]
        edge_list: List[Edge] = []
        for i, resolution in enumerate(resolutions):
            edge_list.append(self._edge_for(i, i + 1, "*", resolution))
        for extra in range(2, levels_reached + 1):
            bump = extra - 1
            for j in range(1, n):
                ref = terms[j].ref
                slots.append(ref.with_alias((ref.alias or 0) + bump))
            base_index = len(slots) - body - 1
            for k in range(n - 1):
                i, j = base_index + k, base_index + k + 1
                edge_list.append(self._edge_for(i, j, "*", resolutions[k]))
        return IntensionalPattern(slots, edge_list)

    def _evaluate_loop(self, flat: _Flattened, count: Optional[int],
                       name: str) -> Subdatabase:
        terms, n, body = self._loop_guard(flat)
        extents = [self._extent(term) for term in terms]
        resolutions = self._resolutions(flat)
        max_level = count if count is not None else self.max_depth

        budget = self._budget
        tracer = obs.TRACER
        # Level 1: one full traversal of the cycle.
        frontier = self._match_range(flat, 0, n - 1, extents, resolutions)
        all_rows: List[Tuple[OID, ...]] = list(frontier)
        level = 1
        while frontier and level < max_level:
            level += 1
            lspan = tracer.start("loop-level", level=level) \
                if tracer is not None else None
            if lspan is not None:
                lspan.add("frontier", len(frontier))
            produced = 0
            try:
                if budget is not None:
                    budget.check_level(level)
                    budget.check_time()
                # Traverse the cycle body once more, batched: every
                # hierarchy ending at the same anchor instance shares one
                # expansion, and each hop is one bulk neighbor lookup
                # over the distinct partial endpoints.
                anchors = {row[-1] for row in frontier}
                partials: List[Tuple[OID, ...]] = [(a,) for a in anchors]
                for k in range(n - 1):
                    if not partials:
                        break
                    ends = {partial[-1] for partial in partials}
                    neighbor_map = self.universe.bulk_edge_neighbors(
                        ends, resolutions[k], forward=True)
                    self._metrics.edge_traversals += len(ends)
                    target_extent = extents[k + 1]
                    candidates = {
                        oid: target_extent.intersection(neighbor_map[oid])
                        for oid in ends}
                    partials = [partial + (oid,) for partial in partials
                                for oid in candidates[partial[-1]]]
                extensions: Dict[OID, List[Tuple[OID, ...]]] = {}
                for partial in partials:
                    # Drop the shared anchor; key extensions by it.
                    extensions.setdefault(partial[0],
                                          []).append(partial[1:])
                extended: List[Tuple[OID, ...]] = []
                charged = 0
                processed = 0
                for row in frontier:
                    for extension in extensions.get(row[-1], ()):
                        root_positions = range(0, len(row), body)
                        if any(row[p] == extension[-1]
                               for p in root_positions):
                            if self.on_cycle == "error":
                                raise CyclicDataError(
                                    f"instance {extension[-1]!r} repeats "
                                    f"in a loop hierarchy; the paper "
                                    f"assumes the traversed relationship "
                                    f"is acyclic (use on_cycle='stop' to "
                                    f"truncate)")
                            continue
                        extended.append(row + extension)
                    processed += 1
                    # A single level's extension can dwarf the whole
                    # budget on a dense graph — enforce mid-level, not
                    # just between levels.
                    if (budget is not None
                            and processed % budget.CHECK_EVERY == 0):
                        budget.charge_rows(len(extended) - charged)
                        charged = len(extended)
                        budget.check_time()
                all_rows.extend(extended)
                # rows_generated counts the *delta* this level
                # contributed, not the cumulative partials per hop.
                self._metrics.rows_generated += len(extended)
                if budget is not None:
                    budget.charge_rows(len(extended) - charged)
                produced = len(extended)
                frontier = extended
            finally:
                if lspan is not None:
                    lspan.add("rows_out", produced)
                    tracer.finish(lspan)
        if count is None and frontier and level >= self.max_depth:
            raise CyclicDataError(
                f"unbounded loop did not terminate within "
                f"{self.max_depth} levels")

        levels_reached = max(
            (1 + (len(row) - n) // body for row in all_rows), default=1)
        intension = self._loop_intension(terms, resolutions,
                                         levels_reached, n, body)
        width = len(intension.slots)
        patterns = set()
        for row in all_rows:
            padded = row + (None,) * (width - len(row))
            patterns.add(ExtensionalPattern(padded))
        kept = subsume(patterns)
        self._metrics.patterns_subsumed += len(patterns) - len(kept)
        self._metrics.loop_levels = levels_reached
        return Subdatabase(name, intension, kept)

    def _evaluate_loop_compact(self, flat: _Flattened,
                               count: Optional[int],
                               name: str) -> Subdatabase:
        """Semi-naive transitive closure over interned ids.

        Level N+1 extends only the rows *new at level N* (the delta
        frontier), and each anchor instance's one-cycle body expansion
        is computed at most once per evaluation and memoized — an
        anchor reached through many hierarchies, or reached again at a
        deeper level, reuses the cached expansion instead of
        re-traversing the body.
        """
        terms, n, body = self._loop_guard(flat)
        extents = [self._extent(term) for term in terms]
        resolutions = self._resolutions(flat)
        refs = [term.ref for term in terms]
        tables = [self.universe.intern_table(ref) for ref in refs]
        if tables[0] is not tables[-1]:
            # The cycle's first and last slot intern different extents
            # (a derived-reference loop whose aliases select distinct
            # subdatabase slots): ids are not comparable across the
            # cycle seam, so fall back to the OID executor.
            return self._evaluate_loop(flat, count, name)
        filt = self._filtered_ids(extents, tables)
        max_level = count if count is not None else self.max_depth
        budget = self._budget

        # Cross-query anchor-expansion memo: the one-cycle body
        # expansion of an anchor id depends only on the term extents,
        # their condition attributes and the cycle's links — exactly
        # what the chain's footprint vector pins — and on the id
        # assignment: the tables' layouts key it, because a table
        # rebuilt at an unchanged vector numbers its extent afresh
        # (its predecessor's tombstones are gone).
        memo_key = memo_vector = None
        cache = self.result_cache
        if cache.enabled and all(ref.subdb is None for ref in refs):
            memo_key = ("loop-body",
                        repr((tuple(terms), tuple(flat.ops), count,
                              self.on_cycle,
                              tuple(table.layout for table in tables))))
            memo_vector = self._vector(memo_key, terms)

        # Level 1: one full traversal of the cycle.
        frontier = self._match_range_ids(flat, 0, n - 1, extents,
                                         resolutions, refs, tables, filt)
        total_rows = len(frontier)
        # Loop rows grow from slot 0, so one covers another exactly when
        # the shorter is its prefix — and prefixes only arise by direct
        # ancestry.  A row is therefore subsumed iff it gets extended at
        # the next level; tracking kept rows inline replaces the generic
        # subsumption pass (the dominant cost of deep closures).
        kept_rows: List[Tuple[int, ...]] = []
        level = 1
        #: anchor id -> its one-cycle body expansions (anchor dropped).
        expansions: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        if memo_key is not None:
            seeded = cache.lookup(memo_key, memo_vector)
            if seeded is not None:
                expansions = dict(seeded)
                self._metrics.cache_memo_hits += 1
        tracer = obs.TRACER
        while frontier and level < max_level:
            level += 1
            lspan = tracer.start("loop-level", level=level) \
                if tracer is not None else None
            if lspan is not None:
                lspan.add("frontier", len(frontier))
            produced = 0
            try:
                if budget is not None:
                    budget.check_level(level)
                    budget.check_time()
                new_anchors = ({row[-1] for row in frontier}
                               - expansions.keys())
                if new_anchors:
                    self._expand_anchors(new_anchors, expansions,
                                         resolutions, refs, tables, filt,
                                         n)
                if lspan is not None:
                    lspan.add("new_anchors", len(new_anchors))
                extended: List[Tuple[int, ...]] = []
                next_check = (budget.CHECK_EVERY if budget is not None
                              else None)
                charged = 0
                for row in frontier:
                    grew = False
                    for extension in expansions[row[-1]]:
                        last = extension[-1]
                        # Root positions all intern through the
                        # cycle-seam table (tables[0] is tables[-1]), so
                        # id equality is instance equality.
                        if any(row[p] == last
                               for p in range(0, len(row), body)):
                            if self.on_cycle == "error":
                                raise CyclicDataError(
                                    f"instance {tables[-1].oids[last]!r} "
                                    f"repeats in a loop hierarchy; the "
                                    f"paper assumes the traversed "
                                    f"relationship is acyclic (use "
                                    f"on_cycle='stop' to truncate)")
                            continue
                        extended.append(row + extension)
                        grew = True
                    if not grew:
                        kept_rows.append(row)
                    if next_check is not None and \
                            len(extended) >= next_check:
                        # Chunked enforcement: overshoot past a deadline
                        # is bounded by one chunk of tuple appends, not
                        # one whole level of an exploding closure.
                        budget.charge_rows(len(extended) - charged)
                        charged = len(extended)
                        budget.check_time()
                        next_check = charged + budget.CHECK_EVERY
                if budget is not None:
                    budget.charge_rows(len(extended) - charged)
                total_rows += len(extended)
                self._metrics.rows_generated += len(extended)
                produced = len(extended)
                frontier = extended
            finally:
                if lspan is not None:
                    lspan.add("rows_out", produced)
                    tracer.finish(lspan)
        if count is None and frontier and level >= self.max_depth:
            raise CyclicDataError(
                f"unbounded loop did not terminate within "
                f"{self.max_depth} levels")
        if memo_key is not None and expansions:
            # Populated only on a completed closure (a budget trip or
            # cycle error unwinds past this line).
            tuples = sum(len(exts) for exts in expansions.values())
            nbytes = (256 + len(expansions) * 80
                      + tuples * (48 + 16 * body))
            cache.store(memo_key, memo_vector, dict(expansions), nbytes)
        # The final frontier was never expanded: all of it survives.
        kept_rows.extend(frontier)
        # Pad the surviving rows to the deepest level reached.
        levels_reached = max(
            (1 + (len(row) - n) // body for row in kept_rows), default=1)
        intension = self._loop_intension(terms, resolutions,
                                         levels_reached, n, body)
        width = len(intension.slots)
        kept = {row + (None,) * (width - len(row)) for row in kept_rows}
        self._metrics.patterns_subsumed += total_rows - len(kept)
        self._metrics.loop_levels = levels_reached
        decode_tables = [tables[t] if t < n
                         else tables[1 + (t - n) % body]
                         for t in range(width)]
        return Subdatabase.from_interned_rows(name, intension, kept,
                                              decode_tables)

    def _expand_anchors(self, anchors: Set[int],
                        expansions: Dict[int, Tuple[Tuple[int, ...], ...]],
                        resolutions: List[EdgeResolution],
                        refs: List[ClassRef],
                        tables: List[InternTable],
                        filt: List[Optional[frozenset]],
                        n: int) -> None:
        """Traverse the cycle body once from each anchor id, batched per
        hop over distinct endpoints, and memoize the expansions."""
        universe = self.universe
        metrics = self._metrics
        budget = self._budget
        partials: List[Tuple[int, ...]] = [(a,) for a in anchors]
        for k in range(n - 1):
            if not partials:
                break
            if budget is not None:
                budget.check_time()
            adj = universe.adjacency(resolutions[k], True,
                                     refs[k], refs[k + 1])
            ends = {partial[-1] for partial in partials}
            metrics.edge_traversals += len(ends)
            tgt_ids = filt[k + 1]
            if tgt_ids is None and tables[k + 1].dead:
                # CSR rows still hold the ids of deleted targets.
                tgt_ids = tables[k + 1].full_id_set
            candidates: Dict[int, Sequence[int]] = {}
            if tgt_ids is None:
                for f in ends:
                    candidates[f] = adj.row(f)
            else:
                for f in ends:
                    candidates[f] = [v for v in adj.row(f) if v in tgt_ids]
            partials = [partial + (v,) for partial in partials
                        for v in candidates[partial[-1]]]
            if budget is not None:
                budget.charge_rows(len(partials))
        for anchor in anchors:
            expansions[anchor] = ()
        grouped: Dict[int, List[Tuple[int, ...]]] = {}
        for partial in partials:
            grouped.setdefault(partial[0], []).append(partial[1:])
        for anchor, exts in grouped.items():
            expansions[anchor] = tuple(exts)

    # ------------------------------------------------------------------
    # The Where subclause
    # ------------------------------------------------------------------

    def _slot_for(self, subdb: Subdatabase, owner: ClassRef) -> int:
        """Resolve a Where-subclause qualifier to a slot index.

        Exact slot names win; otherwise an unqualified class name matches
        the unique slot of that class (any subdatabase qualifier / alias),
        mirroring the paper's rule that qualification is only needed when
        ambiguous.  The resolution logic lives in
        :func:`resolve_slot_index` so the incremental maintainer applies
        the same rules (and raises the same errors).
        """
        return resolve_slot_index(subdb.intension.slots, owner)

    def _apply_where(self, subdb: Subdatabase,
                     where: Sequence[WhereCond]) -> Subdatabase:
        patterns = set(subdb.patterns)
        for cond in where:
            if isinstance(cond, AggComparison):
                patterns = self._apply_agg(subdb, patterns, cond)
            else:
                patterns = self._apply_cmp(subdb, patterns, cond)
        return Subdatabase(subdb.name, subdb.intension, patterns,
                           subdb.derived_info)

    def _apply_cmp(self, subdb: Subdatabase,
                   patterns: Set[ExtensionalPattern],
                   cond) -> Set[ExtensionalPattern]:
        slots = subdb.intension.slots

        def keeps(pattern: ExtensionalPattern) -> bool:
            def getter(attr_ref: AttrRef):
                if attr_ref.owner is None:
                    raise OQLSemanticError(
                        "where-subclause attributes must be qualified "
                        "(Class.attr)")
                index = self._slot_for(subdb, attr_ref.owner)
                oid = pattern[index]
                if oid is None:
                    return None
                return self.universe.attr_value(slots[index], oid,
                                                attr_ref.attr)
            # A pattern lacking an involved object cannot satisfy the
            # comparison; evaluate() returns False on Null operands for
            # ordering ops, and Null equality only matches literal null.
            return conditions.evaluate(cond, getter)

        return {p for p in patterns if keeps(p)}

    def _apply_agg(self, subdb: Subdatabase,
                   patterns: Set[ExtensionalPattern],
                   cond: AggComparison) -> Set[ExtensionalPattern]:
        by_index = self._slot_for(subdb, cond.by)
        target_index = self._slot_for(subdb, cond.target)
        target_ref = subdb.intension.slots[target_index]

        groups: Dict[OID, Set[OID]] = {}
        for pattern in patterns:
            key = pattern[by_index]
            member = pattern[target_index]
            if key is None or member is None:
                continue
            groups.setdefault(key, set()).add(member)

        def aggregate(members: Set[OID]) -> Optional[float]:
            if cond.func == "count":
                return len(members)
            if cond.attr is None:
                raise OQLSemanticError(
                    f"{cond.func.upper()} requires an attribute "
                    f"({cond.target}.<attr> by {cond.by})")
            values = [self.universe.attr_value(target_ref, oid, cond.attr)
                      for oid in members]
            values = [v for v in values if v is not None]
            if not values:
                return None
            if cond.func == "sum":
                return sum(values)
            if cond.func == "avg":
                return sum(values) / len(values)
            if cond.func == "min":
                return min(values)
            return max(values)

        passing: Set[OID] = set()
        for key, members in groups.items():
            value = aggregate(members)
            if value is not None and \
                    conditions.compare(value, cond.op, cond.value.value):
                passing.add(key)

        return {p for p in patterns
                if p[by_index] is not None and p[by_index] in passing}
