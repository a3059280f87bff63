"""The rule engine: rule base, dependency graph, chaining, statistics.

:class:`RuleEngine` is the top-level object of the deductive system.  It
owns the :class:`~repro.subdb.universe.Universe` (installing itself as the
universe's subdatabase *provider*, which is how a query that references a
derived class triggers backward chaining exactly as Section 4.3
describes: Query 4.1 triggers R4 and R5, which trigger R2), listens to
base-database updates, and delegates maintenance decisions to a control
strategy (Section 6).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro import obs
from repro.errors import CyclicRuleError, UnknownSubdatabaseError
from repro.model.database import Database, UpdateEvent, UpdateKind
from repro.oql.budget import QueryBudget
from repro.oql.cache import result_nbytes
from repro.oql.evaluator import PatternEvaluator
from repro.oql.footprint import ALL, EMPTY, Footprint
from repro.oql.operations import OperationRegistry
from repro.oql.query import QueryProcessor, QueryResult
from repro.rules.chaining import downstream_closure, topological_order
from repro.rules.control import (
    EvaluationMode,
    ResultOrientedController,
    RuleChainingMode,
    RuleOrientedController,
)
from repro.rules.derivation import derive_target
from repro.rules.rule import DeductiveRule, parse_rule
from repro.subdb.subdatabase import Subdatabase
from repro.subdb.universe import Universe


@dataclass
class EngineStats:
    """Counters the benchmarks and the control-strategy tests observe."""

    derivations: Counter = field(default_factory=Counter)
    rule_applications: Counter = field(default_factory=Counter)
    queries: int = 0
    update_events: int = 0
    stale_markings: int = 0
    incremental_refreshes: int = 0
    refreshes_skipped: int = 0
    #: Maintainer refreshes skipped because the version vector of the
    #: maintainer's footprint had not moved since its last apply.
    refreshes_skipped_versioned: int = 0
    #: Targets an event left alone although it wrote to a class they
    #: read: the link or attribute it moved is outside their footprint.
    refreshes_skipped_footprint: int = 0
    #: Derivations served from the cross-query result cache (the
    #: target's transitive footprint was unchanged since the memoized
    #: derivation).
    derivation_memo_hits: int = 0

    def total_derivations(self) -> int:
        return sum(self.derivations.values())

    def snapshot(self) -> Dict[str, int]:
        return {
            "derivations": self.total_derivations(),
            "queries": self.queries,
            "update_events": self.update_events,
            "stale_markings": self.stale_markings,
            "incremental_refreshes": self.incremental_refreshes,
            "refreshes_skipped": self.refreshes_skipped,
            "refreshes_skipped_versioned": self.refreshes_skipped_versioned,
            "refreshes_skipped_footprint": self.refreshes_skipped_footprint,
            "derivation_memo_hits": self.derivation_memo_hits,
        }


class RuleEngine:
    """A deductive object-oriented database session."""

    def __init__(self, db: Database, controller: str = "result",
                 on_cycle: str = "error",
                 operations: Optional[OperationRegistry] = None,
                 compact: bool = True,
                 maintenance_budget: Optional[QueryBudget] = None,
                 cache_bytes: int = 0):
        self.db = db
        self.universe = Universe(db)
        self.universe.provider = self._provide
        self.evaluator = PatternEvaluator(self.universe, on_cycle=on_cycle,
                                          compact=compact,
                                          cache_bytes=cache_bytes)
        self.processor = QueryProcessor(self.universe, on_cycle=on_cycle,
                                        operations=operations,
                                        compact=compact,
                                        cache_bytes=cache_bytes)
        #: Per-event budget for incremental maintenance: when set, a
        #: maintainer refresh that trips it is skipped (the target goes
        #: stale and ``stats.refreshes_skipped`` counts it) instead of
        #: stalling the writer.
        self.maintenance_budget = maintenance_budget
        self._on_cycle = on_cycle
        self._compact = compact
        self._operations = operations
        self.rules: List[DeductiveRule] = []
        self._by_target: Dict[str, List[DeductiveRule]] = {}
        #: target -> (direct, transitive) footprint: one walk per rule,
        #: redone only when the rule base or the schema changes.
        self._footprints: Optional[Dict[str, tuple]] = None
        self.stats = EngineStats()
        if controller == "result":
            self.controller = ResultOrientedController(self)
        elif controller == "rule":
            self.controller = RuleOrientedController(self)
        elif controller == "incremental":
            self.controller = ResultOrientedController(
                self, EvaluationMode.PRE_EVALUATED)
        else:
            raise ValueError(
                "controller must be 'result', 'rule' or 'incremental'")
        self._deriving: Set[str] = set()
        self._derived_log: List[str] = []
        #: Rule-base listeners: callables ``(action, rule, mode)`` with
        #: action ``"added"`` or ``"removed"`` — how a storage backend
        #: journals rule registrations alongside data updates.
        self._rule_listeners: List = []
        db.add_listener(self._on_update)

    # ------------------------------------------------------------------
    # Rule base
    # ------------------------------------------------------------------

    def add_rule(self, rule: Union[str, DeductiveRule],
                 label: Optional[str] = None,
                 mode: Optional[Union[EvaluationMode,
                                      RuleChainingMode]] = None
                 ) -> DeductiveRule:
        """Register a deductive rule (text or pre-parsed).

        ``mode`` is interpreted by the active control strategy: an
        :class:`EvaluationMode` for the result-oriented controller (it
        applies to the rule's *target subdatabase*), a
        :class:`RuleChainingMode` for the rule-oriented baseline (it
        applies to the *rule*).  Adding a rule that would make the
        dependency graph cyclic is rejected.
        """
        if isinstance(rule, str):
            rule = parse_rule(rule, label)
        else:
            rule.validate()
        self.rules.append(rule)
        self._by_target.setdefault(rule.target, []).append(rule)
        try:
            topological_order(self.rule_graph())
        except CyclicRuleError:
            self.rules.remove(rule)
            self._by_target[rule.target].remove(rule)
            if not self._by_target[rule.target]:
                del self._by_target[rule.target]
            raise
        self._footprints = None
        self.controller.on_rule_added(rule, mode)
        # A previously materialized value of this target no longer
        # reflects the full rule set.
        self.universe.unregister(rule.target)
        # Neither do memoized derivations of it or of anything
        # downstream — a definition change moves no version vector, so
        # the memos must be dropped explicitly.
        self._drop_derivation_memos(
            downstream_closure(self.rule_graph(),
                               [rule.target]) | {rule.target})
        self._notify_rule_listeners("added", rule, mode)
        return rule

    def add_rule_listener(self, listener) -> None:
        """Register a callback ``(action, rule, mode)`` fired after every
        rule registration (``action="added"``) or removal
        (``action="removed"``, mode ``None``).  Listeners fire in
        registration order; one removed mid-notification by an earlier
        listener is skipped for that event."""
        self._rule_listeners.append(listener)

    def remove_rule_listener(self, listener) -> None:
        self._rule_listeners.remove(listener)

    def _notify_rule_listeners(self, action, rule, mode) -> None:
        # Same contract as Database._notify: snapshot + membership
        # check, so removal during notification cannot deliver the
        # in-flight event to the removed listener.
        for listener in list(self._rule_listeners):
            if listener in self._rule_listeners:
                listener(action, rule, mode)

    def remove_rule(self, rule: Union[str, DeductiveRule]
                    ) -> DeductiveRule:
        """Unregister a rule, by object or by label.

        The target subdatabase and everything downstream of it are
        invalidated; remaining rules for the same target still derive
        it, and a target whose last rule is removed becomes unknown
        again.
        """
        from repro.errors import RuleSemanticError
        if isinstance(rule, str):
            matches = [r for r in self.rules if r.label == rule]
            if len(matches) != 1:
                raise RuleSemanticError(
                    f"{len(matches)} rules carry label {rule!r}")
            rule = matches[0]
        if rule not in self.rules:
            raise RuleSemanticError(
                f"rule {rule.label or rule.target!r} is not registered")
        # Compute the downstream closure before mutating the rule base:
        # once the target's last rule is gone it drops out of the graph.
        affected = downstream_closure(self.rule_graph(),
                                      [rule.target]) | {rule.target}
        self.rules.remove(rule)
        self._by_target[rule.target].remove(rule)
        if not self._by_target[rule.target]:
            del self._by_target[rule.target]
        self._footprints = None
        self.controller.on_rule_removed(rule)
        for name in affected:
            self.universe.unregister(name)
        self._drop_derivation_memos(affected)
        self._notify_rule_listeners("removed", rule, None)
        return rule

    def rules_for(self, name: str) -> List[DeductiveRule]:
        return list(self._by_target.get(name, ()))

    @property
    def target_names(self) -> List[str]:
        return sorted(self._by_target)

    def rule_graph(self) -> Dict[str, Set[str]]:
        """target name -> the derived subdatabases its rules read."""
        return {name: set().union(*(rule.source_subdatabases()
                                    for rule in rules))
                for name, rules in self._by_target.items()}

    def topological_targets(self) -> List[str]:
        """Every target, sources before dependents."""
        return topological_order(self.rule_graph())

    def _footprint_table(self) -> Dict[str, tuple]:
        """target -> (direct, transitive) footprint.  Each rule is
        walked once; the transitive footprints compose by set union,
        sources first.  A source no rule derives (an externally
        registered subdatabase) has no stamps, so everything reading it
        is :data:`ALL`."""
        table = self._footprints
        if table is None:
            table = {}
            graph = self.rule_graph()
            schema = self.db.schema
            for name in topological_order(graph):
                direct = EMPTY
                for rule in self._by_target[name]:
                    direct |= rule.footprint(schema)
                transitive = direct
                for source in sorted(graph[name]):
                    transitive |= table[source][1] if source in table \
                        else ALL
                table[name] = (direct, transitive)
            self._footprints = table
        return table

    def direct_footprint(self, name: str) -> Footprint:
        """What the rules of ``name`` read themselves, not counting the
        derived subdatabases they reference."""
        return self._footprint_table()[name][0]

    def footprint(self, name: str) -> Footprint:
        """Everything ``name`` is derived from, transitively through
        the rule graph; :data:`ALL` for a name no rule derives."""
        entry = self._footprint_table().get(name)
        return ALL if entry is None else entry[1]

    def affected_by_event(self, event: UpdateEvent) -> Set[str]:
        """Targets an update event may change: those whose transitive
        footprint it touches (every target for a schema-evolution or
        malformed event — rule meanings can shift).  The controller
        asks once per event, so a target the event spares although it
        wrote to a class the target reads is counted here, as
        ``stats.refreshes_skipped_footprint``."""
        affected: Set[str] = set()
        for name, (_, footprint) in self._footprint_table().items():
            if footprint.touched_by(event):
                affected.add(name)
            elif footprint.near(event):
                self.stats.refreshes_skipped_footprint += 1
        return affected

    def set_mode(self, name: str,
                 mode: Union[EvaluationMode, RuleChainingMode]) -> None:
        """Change the evaluation/chaining mode for a target (see the
        active controller's documentation)."""
        self.controller.set_mode(name, mode)

    # ------------------------------------------------------------------
    # Derivation (backward chaining happens through the provider)
    # ------------------------------------------------------------------

    def _provide(self, name: str) -> Optional[Subdatabase]:
        if name in self._by_target:
            return self.derive(name)
        return None

    def _derivation_vector(self, name: str):
        """The version vector a memoized derivation of ``name`` is valid
        at, or ``None`` when ineligible (some transitive source is not
        rule-derived, so the value is not a function of the stamps)."""
        footprint = self.footprint(name)
        if footprint.everything:
            return None
        return self.db.version_vector(footprint)

    def _drop_derivation_memos(self, names) -> None:
        cache = self.evaluator.result_cache
        for name in names:
            cache.drop(("derive", name))

    def derive(self, name: str, force: bool = False) -> Subdatabase:
        """Materialize one derived subdatabase.

        Evaluating the rules' context expressions resolves any source
        subdatabases through the universe, which recursively derives them
        — the backward-chaining cascade of Section 4.3.

        When the cross-query result cache is enabled, a target whose
        transitive footprint is unmoved since a previous derivation is
        served from the cache instead of re-deriving
        (``stats.derivation_memo_hits``); the memo key is validated
        against the version vector of exactly that footprint.
        """
        if not force and self.universe.has_subdb(name):
            return self.universe.get_subdb(name)
        if name not in self._by_target:
            raise UnknownSubdatabaseError(
                f"no rule derives subdatabase {name!r}")
        if name in self._deriving:
            raise CyclicRuleError(
                f"cyclic derivation detected while deriving {name!r}")
        cache = self.evaluator.result_cache
        memo_vector = self._derivation_vector(name) if cache.enabled \
            else None
        if memo_vector is not None and not force:
            memoized = cache.lookup(("derive", name), memo_vector)
            if memoized is not None:
                self.stats.derivation_memo_hits += 1
                self.universe.register(memoized)
                self.controller.on_derived(name)
                self._derived_log.append(name)
                return memoized
        self._deriving.add(name)
        tracer = obs.TRACER
        span = tracer.start("derive", target=name,
                            rules=len(self._by_target[name]),
                            forced=force) if tracer is not None else None
        try:
            if force:
                # Source values may themselves be stale re-registrations;
                # a forced derivation re-reads whatever is materialized.
                self.universe.unregister(name)
            for rule in self._by_target[name]:
                self.stats.rule_applications[
                    rule.label or rule.target] += 1
            result = derive_target(self._by_target[name], self.evaluator)
            self.universe.register(result)
            if memo_vector is not None:
                # Stored under the vector captured *before* evaluation:
                # if a stamp moved mid-derivation, the entry sits under
                # a vector no future lookup can present again (versions
                # are monotonic) — never stale.
                cache.store(("derive", name), memo_vector, result,
                            result_nbytes(result))
            self.stats.derivations[name] += 1
            self.controller.on_derived(name)
            self._derived_log.append(name)
            if span is not None:
                span.add("patterns_out", len(result))
        finally:
            self._deriving.discard(name)
            if span is not None:
                tracer.finish(span)
        return result

    def refresh(self) -> None:
        """Materialize every target, sources first (useful to warm
        pre-evaluated results after bulk-loading data)."""
        for name in self.topological_targets():
            self.derive(name, force=True)

    # ------------------------------------------------------------------
    # Queries and updates
    # ------------------------------------------------------------------

    def query(self, text: str, name: Optional[str] = None,
              budget: Optional[QueryBudget] = None) -> QueryResult:
        """Run an OQL query.  Derived classes it references are derived
        on demand (backward chaining); afterwards the controller applies
        its post-query policy (the rule-oriented baseline cascades
        forward rules and drops unpreserved backward results).

        ``budget`` covers the *whole* derivation cascade: the clock and
        row counter accumulate across the query and every rule it
        backward-chains through, so a runaway rule trips the same
        :class:`~repro.oql.budget.BudgetExceeded` as a runaway query.
        """
        self.stats.queries += 1
        self._derived_log = []
        tracer = obs.TRACER
        span = tracer.start("engine-query", text=text) \
            if tracer is not None else None
        try:
            if budget is not None:
                budget.start()
                # The derivation evaluator picks the budget up ambiently
                # — backward chaining goes through the universe
                # provider, not through an argument we could thread.
                self.evaluator.budget = budget
            try:
                result = self.processor.execute(text, name=name,
                                                budget=budget)
            finally:
                if budget is not None:
                    self.evaluator.budget = None
            self.controller.after_query(list(self._derived_log))
            if span is not None:
                span.add("derivations", len(self._derived_log))
            return result
        finally:
            if span is not None:
                tracer.finish(span)

    def snapshot_session(self) -> QueryProcessor:
        """A :class:`QueryProcessor` over a snapshot of this engine's
        universe, for concurrent readers: evaluation (including backward
        chaining through this engine's rules) runs entirely against the
        pinned version and registers derived subdatabases only in the
        snapshot's private registry — the live registry and rule base
        are never written.  Writers proceed concurrently; the reader
        never observes their effects.

        The session starts warm: its compact store adopts the live
        universe's maintained intern tables, CSR and value indexes
        (copy-on-write, see :mod:`repro.subdb.adjindex`), so re-pinning
        after a write costs what the write changed, not a rebuild.  Its
        result cache gets the live processor's budget: on when that
        one's is, with its ``max_bytes``."""
        tracer = obs.TRACER
        sspan = tracer.start("snapshot-session") \
            if tracer is not None else None
        try:
            snapshot = self.universe.snapshot()
            if sspan is not None:
                sspan.set("pinned_version",
                          getattr(snapshot, "pinned_version", None))
        finally:
            if sspan is not None:
                tracer.finish(sspan)
        cache = self.processor.evaluator.result_cache
        processor = QueryProcessor(snapshot, on_cycle=self._on_cycle,
                                   operations=self._operations,
                                   compact=self._compact,
                                   cache_bytes=cache.max_bytes
                                   if cache.enabled else 0)
        deriving: Set[str] = set()

        def provide(name: str) -> Optional[Subdatabase]:
            if name not in self._by_target or name in deriving:
                return None
            tracer = obs.TRACER
            span = tracer.start("derive", target=name, snapshot=True,
                                rules=len(self._by_target[name])) \
                if tracer is not None else None
            deriving.add(name)
            try:
                result = derive_target(self._by_target[name],
                                       processor.evaluator)
                snapshot.register(result)
                if span is not None:
                    span.add("patterns_out", len(result))
            finally:
                deriving.discard(name)
                if span is not None:
                    tracer.finish(span)
            return result

        snapshot.provider = provide
        return processor

    def close(self) -> None:
        """Drop the memos of this engine's evaluators (idempotent)."""
        self.evaluator.close()
        self.processor.close()

    def is_stale(self, name: str) -> bool:
        """Whether the controller currently considers ``name`` stale."""
        return self.controller.is_stale(name)

    def explain(self, query_text: str):
        """The backward-chaining plan for a query (which rules would
        trigger, in what order, what is already warm) — see
        :mod:`repro.rules.explain`."""
        from repro.rules.explain import explain
        return explain(self, query_text)

    def why(self, target: str, pattern, depth: int = 2):
        """Justify one pattern of a derived subdatabase: the rule(s)
        and source rows it came from, recursively — see
        :mod:`repro.rules.provenance`."""
        from repro.rules.provenance import explain_pattern
        return explain_pattern(self, target, pattern, depth=depth)

    def _on_update(self, event: UpdateEvent) -> None:
        self.stats.update_events += 1
        if event.kind is UpdateKind.SCHEMA:
            # Links may resolve differently now: walk the rules again.
            self._footprints = None
        self.controller.on_update(event)
