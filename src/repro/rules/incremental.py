"""Incremental maintenance of derived subdatabases.

The paper's forward chaining re-runs the relevant rules whenever their
read data changes (Section 6).  For a large class of rules a full
re-derivation is unnecessary: this module maintains the rule's *context
match set* under single-object / single-link deltas, so a pre-evaluated
result is refreshed in time proportional to the change, not to the
database:

* ASSOCIATE adds matches seeded at the new link (pin the two objects at
  the edge's slots, expand outward through the chain);
* DISSOCIATE removes the matches that used the link;
* DELETE removes the matches containing the object;
* INSERT adds single-class matches (longer chains need links first);
* SET_ATTRIBUTE re-validates matches containing the object and seeds new
  ones (the object may newly satisfy an intra-class condition);
* the non-association operator ``!`` swaps the ASSOCIATE/DISSOCIATE
  roles (a new link *removes* complement matches and vice versa);
* a BATCH replays its recorded sub-events in order.

:meth:`IncrementalRule.on_event` returns the net change of the match set
as ``(added, removed)``: the result-oriented controller re-registers a
pre-evaluated target only when it is non-empty, and a live subscription
turns it into its ``+/-`` frame without looking at the rest of the set.

**Eligibility.**  A rule is incrementally maintainable when its context
is a plain linear chain (no braces, no loop), every class reference is a
*base* class, and the Where subclause has no aggregation conditions
(group membership is non-local).  :class:`IncrementalRule` raises
:class:`NotIncremental` otherwise and the caller falls back to full
re-derivation — see
:class:`~repro.rules.control.ResultOrientedController`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import OQLSemanticError, ReproError
from repro.model.database import UpdateEvent, UpdateKind
from repro.model.oid import OID
from repro.oql import conditions
from repro.oql.budget import QueryBudget
from repro.oql.ast import AggComparison, AttrRef, ClassTerm
from repro.oql.evaluator import (
    PatternEvaluator,
    _flatten,
    resolve_slot_index,
)
from repro.oql.footprint import footprint_of
from repro.rules.derivation import project_to_target
from repro.rules.rule import DeductiveRule
from repro.subdb.intension import IntensionalPattern
from repro.subdb.pattern import ExtensionalPattern
from repro.subdb.subdatabase import Subdatabase
from repro.subdb.universe import EdgeResolution, Universe


class NotIncremental(ReproError):
    """The rule is outside the incrementally-maintainable fragment."""


Row = Tuple[OID, ...]
#: The net change of a match set: ``(added, removed)``.
Delta = Tuple[Set[Row], Set[Row]]


def fold_delta(net: Delta, step: Delta) -> None:
    """Fold ``step``, applied after ``net``, into ``net`` in place.  A
    row added and then removed again (or removed and then restored)
    cancels, so ``net`` stays the difference to the state before the
    first step."""
    added, removed = net
    step_added, step_removed = step
    gone = step_removed & added
    added -= gone
    removed |= step_removed - gone
    back = step_added & removed
    removed -= back
    added |= step_added - back


class IncrementalRule:
    """Delta-maintains the full context match set of one eligible rule."""

    def __init__(self, rule: DeductiveRule, universe: Universe,
                 evaluator: Optional[PatternEvaluator] = None):
        self.rule = rule
        self.universe = universe
        self.evaluator = evaluator or PatternEvaluator(universe)
        flat = _flatten(rule.context.chain)
        if rule.context.loop is not None:
            raise NotIncremental("loop contexts are not incremental")
        if len(flat.groups) > 1:
            raise NotIncremental("brace groups are not incremental")
        if any(ref.subdb is not None for ref in rule.context_refs()):
            raise NotIncremental(
                "contexts reading derived subdatabases are not "
                "incremental")
        if any(isinstance(cond, AggComparison) for cond in rule.where):
            raise NotIncremental(
                "aggregation conditions are not incremental")
        self.terms: List[ClassTerm] = flat.terms
        self.ops: List[str] = flat.ops
        self.resolutions: List[EdgeResolution] = [
            universe.resolve_edge(self.terms[i].ref,
                                  self.terms[i + 1].ref)
            for i in range(len(self.terms) - 1)]
        self.rows: Set[Row] = set()
        #: object -> the rows of :attr:`rows` holding it, so a DELETE,
        #: SET_ATTRIBUTE or DISSOCIATE finds its rows in O(delta)
        #: instead of scanning the match set.
        self._by_oid: Dict[OID, Set[Row]] = {}
        self._initialized = False
        # The budget of the on_event call currently being applied.
        self._budget: Optional[QueryBudget] = None
        #: What this maintainer reads — the match set is a pure
        #: function of these extents, links and attributes, so the
        #: version vector over them decides whether the set can have
        #: moved at all.
        self.footprint = footprint_of(self.terms, rule.where,
                                      universe.schema)
        # Vector the match set is known current at (None = unknown).
        self._vector: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Full (re)initialization
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Compute the match set from scratch (used once, and as the
        ground truth in consistency tests)."""
        source = self.evaluator.evaluate(self.rule.context,
                                         self.rule.where,
                                         name="_incremental_init",
                                         budget=self._budget)
        self.rows = {tuple(p.values) for p in source.patterns}
        self._by_oid = {}
        self._index(self.rows)
        self._initialized = True
        self._vector = self.universe.db.version_vector(self.footprint)

    def invalidate(self) -> None:
        """Discard the maintained match set (it may be mid-delta after
        an interrupted refresh); the next use re-initializes from
        scratch."""
        self.rows = set()
        self._by_oid = {}
        self._initialized = False
        self._vector = None

    @property
    def initialized(self) -> bool:
        """Whether a match set is held (the next event applies a delta
        to it rather than computing it from scratch)."""
        return self._initialized

    def is_current(self) -> bool:
        """Whether the match set is provably current: the version
        vector over the maintainer's footprint has not moved since the
        last (re)initialization or applied delta — in which case an
        event dispatch would be a no-op and can be skipped entirely."""
        if not self._initialized or self._vector is None:
            return False
        return self.universe.db.version_vector(
            self.footprint) == self._vector

    # ------------------------------------------------------------------
    # Membership and row checks
    # ------------------------------------------------------------------

    def _passes(self, index: int, oid: OID) -> bool:
        """Is ``oid`` a member of slot ``index`` (class membership plus
        intra-class condition)?"""
        term = self.terms[index]
        db = self.universe.db
        if not db.has(oid) or not db.is_instance_of(oid, term.ref.cls):
            return False
        return self._passes_condition(index, oid)

    def _passes_condition(self, index: int, oid: OID) -> bool:
        """The intra-class condition alone — sufficient when ``oid`` was
        decoded from an intern table, whose membership already implies
        existence and class membership."""
        term = self.terms[index]
        if term.condition is None:
            return True

        def getter(attr_ref: AttrRef):
            return self.universe.attr_value(term.ref, oid, attr_ref.attr)

        return conditions.evaluate(term.condition, getter)

    def _where_keeps(self, row: Row) -> bool:
        if not self.rule.where:
            return True
        slots = [t.ref for t in self.terms]

        def getter(attr_ref: AttrRef):
            if attr_ref.owner is None:
                raise OQLSemanticError(
                    "where-subclause attributes must be qualified "
                    "(Class.attr)")
            # Shared with PatternEvaluator._slot_for: raises the same
            # OQLSemanticError for unknown or ambiguous references
            # instead of crashing (IndexError) or silently picking the
            # first match.
            index = resolve_slot_index(slots, attr_ref.owner)
            return self.universe.attr_value(slots[index], row[index],
                                            attr_ref.attr)

        return all(conditions.evaluate(cond, getter)
                   for cond in self.rule.where)

    # ------------------------------------------------------------------
    # Seeded expansion
    # ------------------------------------------------------------------

    def _expand(self, lo: int, hi: int, seed: Row) -> List[Row]:
        """Grow the pinned contiguous block ``[lo, hi] = seed`` outward
        to the full chain, honoring ops, extents and conditions.

        Uses the same frontier-batching as the evaluator's executor:
        one bulk neighbor lookup per hop, one candidate list per
        distinct endpoint (with membership/condition checks memoized),
        and — for ``!`` edges — the complement extent computed once per
        hop instead of once per row.

        Hops whose CSR adjacency index survives in the universe's
        compact store (:meth:`Universe.adjacency_if_ready` — built by
        the evaluator at initialization, kept valid by fine-grained
        event invalidation) are answered by index slices; live
        intern-table membership (tombstoned ids skipped) stands in for
        the existence + class checks.  A hop whose index was
        invalidated by the very event being applied falls back to the
        link-dictionary path, so a delta refresh never pays an extent
        scan to rebuild.
        """
        n = len(self.terms)
        budget = self._budget
        rows: List[Row] = [seed]
        passes_cache: Dict[Tuple[int, OID], bool] = {}
        cond_cache: Dict[Tuple[int, OID], bool] = {}

        def passes(index: int, oid: OID) -> bool:
            key = (index, oid)
            cached = passes_cache.get(key)
            if cached is None:
                cached = passes_cache[key] = self._passes(index, oid)
            return cached

        def cond_ok(index: int, oid: OID) -> bool:
            key = (index, oid)
            cached = cond_cache.get(key)
            if cached is None:
                cached = cond_cache[key] = \
                    self._passes_condition(index, oid)
            return cached

        while rows and (lo > 0 or hi < n - 1):
            if budget is not None:
                budget.check_time()
            if lo > 0:
                edge, slot, forward = lo - 1, lo - 1, False
                lo -= 1
            else:
                edge, slot, forward = hi, hi + 1, True
                hi += 1
            op = self.ops[edge]
            resolution = self.resolutions[edge]
            end_index = -1 if forward else 0
            frontier = {row[end_index] for row in rows}
            src_slot = edge if forward else edge + 1
            adj = self.universe.adjacency_if_ready(
                resolution, forward, self.terms[src_slot].ref,
                self.terms[slot].ref)
            if adj is not None:
                src_index = adj.src.index
                decode = adj.tgt.oids
                dead = adj.tgt.dead
                candidates = {}
                if op == "*":
                    for oid in frontier:
                        i = src_index.get(oid.value)
                        ids = () if i is None else adj.row(i)
                        if dead:
                            # CSR rows still hold deleted targets' ids.
                            ids = [t for t in ids if t not in dead]
                        candidates[oid] = [o for o in
                                           map(decode.__getitem__, ids)
                                           if cond_ok(slot, o)]
                else:
                    full = adj.tgt.full_id_set
                    for oid in frontier:
                        i = src_index.get(oid.value)
                        ids = (full if i is None
                               else full.difference(adj.row(i)))
                        candidates[oid] = [o for o in
                                           map(decode.__getitem__, ids)
                                           if cond_ok(slot, o)]
            else:
                neighbor_map = self.universe.bulk_edge_neighbors(
                    frontier, resolution, forward=forward)
                if op == "*":
                    candidates = {oid: [o for o in neighbor_map[oid]
                                        if passes(slot, o)]
                                  for oid in frontier}
                else:
                    extent = self.universe.extent(self.terms[slot].ref)
                    candidates = {oid: [o for o in
                                        extent.difference(neighbor_map[oid])
                                        if passes(slot, o)]
                                  for oid in frontier}
            extended: List[Row] = []
            if forward:
                for row in rows:
                    for oid in candidates[row[-1]]:
                        extended.append(row + (oid,))
            else:
                for row in rows:
                    for oid in candidates[row[0]]:
                        extended.append((oid,) + row)
            rows = extended
            if budget is not None:
                budget.charge_rows(len(rows))
        return [row for row in rows if self._where_keeps(row)]

    def _seed_at_slot(self, index: int, oid: OID) -> List[Row]:
        if not self._passes(index, oid):
            return []
        return self._expand(index, index, (oid,))

    def _seed_at_edge(self, k: int, left: OID, right: OID) -> List[Row]:
        if not (self._passes(k, left) and self._passes(k + 1, right)):
            return []
        return self._expand(k, k + 1, (left, right))

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def _edges_using(self, link_key: Tuple[str, str]) -> List[int]:
        out = []
        for k, resolution in enumerate(self.resolutions):
            if resolution.kind == "base" and \
                    resolution.resolved.link.key == link_key:
                out.append(k)
        return out

    def _oriented(self, k: int, owner: OID, target: OID
                  ) -> Tuple[OID, OID]:
        """The (slot k, slot k+1) assignment of a link's (owner, target)
        pair, honoring the edge's resolved orientation."""
        if self.resolutions[k].resolved.a_is_owner:
            return owner, target
        return target, owner

    def _index(self, rows: Set[Row]) -> None:
        by_oid = self._by_oid
        for row in rows:
            for oid in row:
                if oid is not None:
                    by_oid.setdefault(oid, set()).add(row)

    def _rows_with(self, oid: OID) -> Set[Row]:
        """The held rows containing ``oid`` (a copy)."""
        return set(self._by_oid.get(oid, ()))

    def _add_rows(self, new_rows: Iterable[Row]) -> Delta:
        """Union seeded rows in; the delta holds those actually new."""
        added = set(new_rows) - self.rows
        self.rows |= added
        self._index(added)
        return added, set()

    def _remove_rows(self, removed: Set[Row]) -> Delta:
        """Take held rows out (``removed`` must be a subset of
        :attr:`rows`)."""
        self.rows -= removed
        by_oid = self._by_oid
        for row in removed:
            for oid in row:
                held = by_oid.get(oid)
                if held is not None:
                    held.discard(row)
                    if not held:
                        del by_oid[oid]
        return set(), removed

    def on_event(self, event: UpdateEvent,
                 budget: Optional[QueryBudget] = None) -> Delta:
        """Apply one update; returns the net change of the match set as
        ``(added, removed)`` — the rows now present that were not before,
        and the rows gone.  A no-op ASSOCIATE (re-linking an existing
        pair, or a link producing no new matches), a DISSOCIATE that
        removed nothing, or a SET_ATTRIBUTE that re-derived exactly the
        removed rows all return two empty sets, so the controller can
        skip re-registration and downstream re-derivation.  A maintainer
        not initialized yet initializes and reports every row as added;
        it has no earlier set to diff against, so an empty pair then
        does not mean "unchanged" (check :attr:`initialized` first).

        ``budget`` bounds the whole delta application (seeded expansion
        included).  A trip raises
        :class:`~repro.oql.budget.BudgetExceeded` and may leave the
        match set mid-delta: the caller must :meth:`invalidate` before
        the next use (the incremental controller does, and counts the
        skip).
        """
        tracer = obs.TRACER
        span = tracer.start("maintain-event", target=self.rule.target,
                            kind=event.kind.name) \
            if tracer is not None else None
        try:
            if budget is not None:
                budget.ensure_started()
                prev = self._budget
                self._budget = budget
                try:
                    delta = self._apply_budgeted(event)
                finally:
                    self._budget = prev
            else:
                delta = self._apply_budgeted(event)
            self._vector = self.universe.db.version_vector(
                self.footprint)
            if span is not None:
                span.set("added", len(delta[0]))
                span.set("removed", len(delta[1]))
            return delta
        finally:
            if span is not None:
                tracer.finish(span)

    def _apply_budgeted(self, event: UpdateEvent) -> Delta:
        if not self._initialized:
            self.initialize()
            return set(self.rows), set()
        if event.kind is UpdateKind.BATCH:
            delta: Delta = (set(), set())
            for sub in event.sub_events:
                fold_delta(delta, self._apply_budgeted(sub))
            return delta

        if event.kind in (UpdateKind.ASSOCIATE, UpdateKind.DISSOCIATE):
            owner, target = event.oids
            delta = (set(), set())
            for k in self._edges_using(event.link):
                left, right = self._oriented(k, owner, target)
                adds_matches = (event.kind is UpdateKind.ASSOCIATE) == \
                    (self.ops[k] == "*")
                if adds_matches:
                    step = self._add_rows(self._seed_at_edge(k, left, right))
                else:
                    step = self._remove_rows({
                        row for row in self._by_oid.get(left, ())
                        if row[k] == left and row[k + 1] == right})
                fold_delta(delta, step)
            return delta
        if event.kind is UpdateKind.DELETE:
            # Deletion only removes rows: every vanished link involved
            # the deleted object, so complement pairs between surviving
            # objects are untouched and no new matches can appear.
            (oid,) = event.oids
            return self._remove_rows(self._rows_with(oid))
        if event.kind is UpdateKind.INSERT:
            (oid,) = event.oids
            if len(self.terms) == 1:
                return self._add_rows(self._seed_at_slot(0, oid))
            if "!" in self.ops:
                # A fresh object with no links instantly matches every
                # complement edge of its class: seed at each slot.
                return self._add_rows([
                    row for index in range(len(self.terms))
                    for row in self._seed_at_slot(index, oid)])
            return set(), set()
        if event.kind is UpdateKind.SET_ATTRIBUTE:
            (oid,) = event.oids
            # Rows containing the object are re-validated by removal +
            # re-seeding; the set changed only where the re-derived rows
            # differ from the removed ones (a same-size swap counts, an
            # attribute write that leaves membership intact does not).
            removed = self._rows_with(oid)
            readded: Set[Row] = set()
            for index in range(len(self.terms)):
                readded.update(self._seed_at_slot(index, oid))
            self._remove_rows(removed)
            self._add_rows(readded)
            return readded - removed, removed - readded
        if event.kind is UpdateKind.SCHEMA:
            # Rule meanings may have shifted; fall back to a full
            # re-derivation and report how the value moved.
            before = self.rows
            self.initialize()
            return self.rows - before, before - self.rows
        return set(), set()

    # ------------------------------------------------------------------
    # Target construction
    # ------------------------------------------------------------------

    def source_subdatabase(self) -> Subdatabase:
        """The maintained match set as the rule's context subdatabase."""
        if not self._initialized:
            self.initialize()
        intension = IntensionalPattern(
            [t.ref for t in self.terms],
            [PatternEvaluator._edge_for(i, i + 1, self.ops[i],
                                        self.resolutions[i])
             for i in range(len(self.terms) - 1)])
        patterns = {ExtensionalPattern(row) for row in self.rows}
        return Subdatabase(f"_incremental_{self.rule.target}", intension,
                           patterns)

    def target_contribution(self) -> Subdatabase:
        """The rule's projected contribution to its target subdatabase."""
        return project_to_target(self.rule, self.source_subdatabase())
