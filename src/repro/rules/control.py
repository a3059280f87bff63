"""Control strategies (paper, Section 6).

**Result-oriented control** (the paper's proposal): pre-/post-evaluation
is a property of each *derived subdatabase*.  A PRE_EVALUATED result is
kept up to date by running the relevant rules forward whenever the data
they read is updated (an up-to-date copy is always stored); a
POST_EVALUATED result is computed when a retrieval needs it.  The *same
rule* may thus run forward while maintaining one result and backward while
deriving another — which removes POSTGRES's restriction that a forward
chaining rule cannot read data written by backward chaining rules.
There is one result-oriented controller: it keeps a PRE_EVALUATED
result current from the ``+/-`` row deltas of
:class:`~repro.rules.incremental.IncrementalRule` where the target's
rules allow it, and by re-derivation otherwise.  The default mode is
POST_EVALUATED; ``RuleEngine(controller="incremental")`` is the same
controller with PRE_EVALUATED as the default.

**Rule-oriented control** (the POSTGRES baseline, STO87): each *rule* is
forward or backward.  A forward rule runs when the data it reads is
updated and its output is stored; a backward rule runs when its output is
requested and the output is not preserved afterwards.  The paper's
Ra→Rb→Rc→Rd scenario shows the flaw this implementation reproduces
faithfully: with Ra, Rb backward and Rc, Rd forward, a base update leaves
REd *stale but still stored* until somebody happens to query REb —
:meth:`RuleOrientedController.is_stale` lets tests and benchmarks observe
the inconsistency window.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro import obs
from repro.model.database import UpdateEvent, UpdateKind
from repro.oql.budget import BudgetExceeded
from repro.rules.incremental import IncrementalRule, NotIncremental
from repro.rules.rule import DeductiveRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.rules.engine import RuleEngine


class EvaluationMode(enum.Enum):
    """Result-oriented modes, attached to derived subdatabases."""

    PRE_EVALUATED = "pre"
    POST_EVALUATED = "post"


class RuleChainingMode(enum.Enum):
    """Rule-oriented modes, attached to rules (the POSTGRES baseline)."""

    FORWARD = "forward"
    BACKWARD = "backward"


class ResultOrientedController:
    """The paper's result-oriented control strategy.

    An update runs one forward pass over the affected targets, sources
    first.  A target hit only through sources that turned out unchanged
    keeps its stored value; a POST_EVALUATED target is marked stale; a
    PRE_EVALUATED target whose rules are all within the
    incrementally-maintainable fragment (see
    :mod:`repro.rules.incremental`) and that reads no derived source has
    the update applied to its maintained match sets — time proportional
    to the *change* — and every other PRE_EVALUATED target (loops,
    braces, aggregations, derived sources) is re-derived from scratch.
    """

    def __init__(self, engine: "RuleEngine",
                 default_mode: EvaluationMode =
                 EvaluationMode.POST_EVALUATED):
        self.engine = engine
        self.default_mode = default_mode
        self._modes: Dict[str, EvaluationMode] = {}
        self._stale: Set[str] = set()
        #: target -> its rules' maintainers (None when ineligible).
        self._maintainers: Dict[str, Optional[List[IncrementalRule]]] = {}

    # -- configuration --------------------------------------------------

    def on_rule_added(self, rule: DeductiveRule,
                      mode: Optional[EvaluationMode]) -> None:
        if mode is not None:
            self._modes[rule.target] = mode
        else:
            self._modes.setdefault(rule.target, self.default_mode)
        self._maintainers.pop(rule.target, None)

    def on_rule_removed(self, rule: DeductiveRule) -> None:
        self._maintainers.pop(rule.target, None)

    def set_mode(self, name: str, mode: EvaluationMode) -> None:
        self._modes[name] = mode

    def mode_of(self, name: str) -> EvaluationMode:
        return self._modes.get(name, self.default_mode)

    def _maintainers_for(self, name: str
                         ) -> Optional[List[IncrementalRule]]:
        if name not in self._maintainers:
            try:
                self._maintainers[name] = [
                    IncrementalRule(rule, self.engine.universe)
                    for rule in self.engine.rules_for(name)]
            except NotIncremental:
                self._maintainers[name] = None
        return self._maintainers[name]

    # -- event handling --------------------------------------------------

    def on_update(self, event: UpdateEvent) -> None:
        """Refresh every affected target, sources first."""
        engine = self.engine
        if event.kind is UpdateKind.SCHEMA:
            # Rule meanings may have changed: rebuild the maintainers.
            self._maintainers.clear()
        affected = engine.affected_by_event(event)
        if not affected:
            return
        tracer = obs.TRACER
        fspan = tracer.start("forward-pass", kind=event.kind.name,
                             affected=len(affected)) \
            if tracer is not None else None
        try:
            graph = engine.rule_graph()
            # Targets whose value actually (or possibly) moved this
            # pass; downstream targets whose only relevance is via an
            # upstream source NOT in this set kept their inputs, so
            # their stored value stays valid and is not touched.
            changed_targets: Set[str] = set()
            for name in engine.topological_targets():
                if name not in affected:
                    if tracer is not None and \
                            engine.footprint(name).near(event):
                        tracer.finish(tracer.start(
                            "refresh", target=name,
                            outcome="skip-footprint"))
                    continue
                rspan = tracer.start("refresh", target=name) \
                    if tracer is not None else None
                try:
                    outcome = self._refresh_target(name, event, graph,
                                                   changed_targets)
                    if rspan is not None:
                        rspan.set("outcome", outcome)
                finally:
                    if rspan is not None:
                        tracer.finish(rspan)
        finally:
            if fspan is not None:
                tracer.finish(fspan)

    def _refresh_target(self, name: str, event: UpdateEvent,
                        graph: Dict[str, Set[str]],
                        changed_targets: Set[str]) -> str:
        """Refresh one affected target; returns the outcome for the
        refresh span: ``skip-unchanged``, ``stale``, ``full``,
        ``budget-tripped``, ``skip-noop`` or ``incremental`` (a target
        the event's footprint test spared is ``skip-footprint``)."""
        engine = self.engine
        direct_hit = engine.direct_footprint(name).touched_by(event)
        source_hit = any(source in changed_targets
                         for source in graph.get(name, ()))
        if not direct_hit and not source_hit:
            # Affected only through upstream sources that turned out
            # unchanged: the stored value (if any) is still exact.
            engine.stats.refreshes_skipped += 1
            return "skip-unchanged"
        if self.mode_of(name) is not EvaluationMode.PRE_EVALUATED:
            self._mark_stale(name)
            # Unknown until re-derived; treat as changed downstream.
            changed_targets.add(name)
            return "stale"
        maintainers = self._maintainers_for(name)
        if maintainers is None or graph.get(name):
            # Ineligible, or reads derived data whose value may have
            # just changed: full re-derivation.
            engine.derive(name, force=True)
            changed_targets.add(name)
            return "full"
        # Apply the delta to every maintainer (no short-circuiting —
        # each tracks its own match set).  A maintenance budget bounds
        # the whole per-target refresh; a trip abandons it — match sets
        # may be mid-delta, so they are invalidated and the target goes
        # stale rather than serving a half-applied value.
        budget = engine.maintenance_budget
        if budget is not None:
            budget.start()
        changed = False
        try:
            for maintainer in maintainers:
                # A maintainer whose footprint's version vector has not
                # moved since its last apply provably absorbs the event
                # as a no-op: skip the dispatch outright (finer than
                # the per-target direct_hit test — a multi-rule target
                # dispatches only the rules that read what was written).
                if maintainer.is_current():
                    engine.stats.refreshes_skipped_versioned += 1
                    continue
                # A maintainer built since the stored result was derived
                # has no match set to diff against: its first event is a
                # change even when it leaves the set empty.
                fresh = not maintainer.initialized
                if any(maintainer.on_event(event, budget=budget)) or fresh:
                    changed = True
        except BudgetExceeded:
            for maintainer in maintainers:
                maintainer.invalidate()
            self._mark_stale(name)
            engine.stats.refreshes_skipped += 1
            changed_targets.add(name)
            return "budget-tripped"
        if not changed and engine.universe.has_subdb(name):
            # The match sets absorbed the event without moving
            # (no-op ASSOCIATE, equal re-derivation, ...): keep the
            # stored result and spare every downstream target.
            engine.stats.refreshes_skipped += 1
            self._stale.discard(name)
            return "skip-noop"
        merged = None
        for maintainer in maintainers:
            contribution = maintainer.target_contribution()
            merged = contribution if merged is None else \
                merged.merge(contribution)
        engine.universe.register(merged)
        engine.stats.incremental_refreshes += 1
        self._stale.discard(name)
        changed_targets.add(name)
        return "incremental"

    def _mark_stale(self, name: str) -> None:
        """Drop the stored value of ``name``.  A target already stale
        was unregistered when it became so and nothing has re-registered
        it since (``on_derived`` clears the mark), so re-marking it is
        free: only transitions pay the registry purge and count as
        ``stats.stale_markings``."""
        universe = self.engine.universe
        if name not in self._stale:
            self._stale.add(name)
            self.engine.stats.stale_markings += 1
        elif not universe.has_subdb(name):
            return
        universe.unregister(name)

    def on_derived(self, name: str) -> None:
        self._stale.discard(name)

    def after_query(self, derived: Sequence[str]) -> None:
        """Result-oriented post-evaluation keeps the computed result as a
        valid memo (it is invalidated by the next relevant update), so
        nothing needs to happen here."""

    def is_stale(self, name: str) -> bool:
        """True when the stored/known value of ``name`` no longer matches
        the base data and has not been recomputed yet.  Under this
        strategy a stale result is never *served*: it was unregistered,
        so the next query recomputes it."""
        return name in self._stale


#: The former name of the delta-maintaining controller, which is now
#: the one result-oriented controller (``controller="incremental"``
#: builds it with PRE_EVALUATED as the default mode).
IncrementalResultController = ResultOrientedController


class RuleOrientedController:
    """The POSTGRES-style rule-oriented baseline."""

    def __init__(self, engine: "RuleEngine",
                 default_mode: RuleChainingMode = RuleChainingMode.FORWARD):
        self.engine = engine
        self.default_mode = default_mode
        self._rule_modes: Dict[DeductiveRule, RuleChainingMode] = {}
        self._stale: Set[str] = set()

    # -- configuration --------------------------------------------------

    def on_rule_added(self, rule: DeductiveRule,
                      mode: Optional[RuleChainingMode]) -> None:
        self._rule_modes[rule] = mode or self.default_mode

    def on_rule_removed(self, rule: DeductiveRule) -> None:
        self._rule_modes.pop(rule, None)

    def set_mode(self, name: str, mode: RuleChainingMode) -> None:
        """Assign a chaining mode to every rule deriving ``name`` (the
        rule-oriented strategy restricts a rule to one mode at all
        times)."""
        for rule in self.engine.rules_for(name):
            self._rule_modes[rule] = mode

    def mode_of(self, name: str) -> RuleChainingMode:
        """A target is forward-maintained only if *all* its rules are
        forward; a backward rule's output is not preserved."""
        rules = self.engine.rules_for(name)
        if rules and all(self._rule_modes.get(r, self.default_mode)
                         is RuleChainingMode.FORWARD for r in rules):
            return RuleChainingMode.FORWARD
        return RuleChainingMode.BACKWARD

    # -- event handling --------------------------------------------------

    def on_update(self, event: UpdateEvent) -> None:
        """Trigger forward rules whose *read data* changed.

        A forward target recomputes when the update touches the
        footprint of its rules, or when one of its stored sources was
        just recomputed.  A forward target whose trigger data lives in a
        backward (unstored) result is **not** triggered — its stored copy
        silently goes stale: the paper's criticism of POSTGRES.
        """
        engine = self.engine
        affected = engine.affected_by_event(event)
        if not affected:
            return
        tracer = obs.TRACER
        span = tracer.start("forward-pass", strategy="rule",
                            kind=event.kind.name,
                            affected=len(affected)) \
            if tracer is not None else None
        try:
            graph = engine.rule_graph()
            engine._derived_log = []
            recomputed: Set[str] = set()
            for name in engine.topological_targets():
                if name not in affected:
                    continue
                direct_hit = \
                    engine.direct_footprint(name).touched_by(event)
                source_hit = any(source in recomputed
                                 for source in graph.get(name, ()))
                if self.mode_of(name) is RuleChainingMode.FORWARD and \
                        (direct_hit or source_hit):
                    engine.derive(name, force=True)
                    recomputed.add(name)
                else:
                    self._stale.add(name)
                    engine.stats.stale_markings += 1
                    if self.mode_of(name) is RuleChainingMode.BACKWARD:
                        # Backward results are not preserved anyway.
                        engine.universe.unregister(name)
                    # Forward results KEEP their stored — now
                    # inconsistent — copy: that is the observable flaw.
            # Backward results freshly derived as intermediates of the
            # forward pass are not preserved (POSTGRES: a backward
            # rule's output lives only for the duration of a query
            # session).
            for name in engine._derived_log:
                if name in graph and \
                        self.mode_of(name) is RuleChainingMode.BACKWARD:
                    engine.universe.unregister(name)
        finally:
            if span is not None:
                tracer.finish(span)

    def on_derived(self, name: str) -> None:
        self._stale.discard(name)

    def after_query(self, derived: Sequence[str]) -> None:
        """Once a query has forced backward rules to produce fresh
        values, forward rules that read those values finally trigger;
        afterwards the backward results are dropped (not preserved after
        the query session)."""
        engine = self.engine
        graph = engine.rule_graph()
        recomputed: Set[str] = set(derived)
        for name in engine.topological_targets():
            if self.mode_of(name) is not RuleChainingMode.FORWARD:
                continue
            source_hit = any(source in recomputed
                             for source in graph.get(name, ()))
            if source_hit and name in self._stale:
                engine.derive(name, force=True)
                recomputed.add(name)
        for name in derived:
            if name in engine.rule_graph() and \
                    self.mode_of(name) is RuleChainingMode.BACKWARD:
                engine.universe.unregister(name)

    def is_stale(self, name: str) -> bool:
        return name in self._stale
