"""Cost-based join planning for association-chain matching.

The paper delegates pattern matching to "the search engine of the
underlying OO DBMS" (Section 3.2); this module is that search engine's
planner.  A chain ``A * B * C`` admits many *contiguous* join orders
(pick an anchor slot, then repeatedly extend the matched block one slot
to the left or right); which one is cheapest depends on extent sizes,
intra-class-condition selectivities, and per-link fan-out.

:class:`Statistics` collects per-class extent sizes and per-link average
fan-outs from the :class:`~repro.subdb.universe.Universe`.  Each entry
is validated against the version vector of the
:class:`~repro.oql.footprint.Footprint` it actually reads (the ref's
extent for an extent size; the source extent plus that one link for a
fan-out), so a write re-measures only what it moved.
Derived-subdatabase entries carry the wildcard footprint and so fall
back to the coarse ``data_version`` token — their contents carry no
stamps.

:class:`Planner` turns a flattened chain plus the *actual* filtered
extent sizes into a :class:`JoinPlan` by dynamic programming over all
contiguous intervals, minimizing the estimated total number of
intermediate rows.  Every contiguous order yields the same rows; only
the intermediate row counts differ.

The plan records per-step *estimated* rows; the batched executor fills
in *actuals*, giving an EXPLAIN ANALYZE-style artifact through
:class:`~repro.oql.evaluator.EvaluationMetrics` and
:mod:`repro.rules.explain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.oql import conditions
from repro.oql.footprint import ALL, Footprint
from repro.subdb.refs import ClassRef
from repro.subdb.universe import EdgeResolution, Universe

#: Entry cap for per-entry-validated memo dicts: stale entries are only
#: reaped on probe, so a hard cap bounds the worst-case footprint.
_MEMO_CAP = 4096


def edge_footprint(resolution: EdgeResolution,
                   *refs: ClassRef) -> Footprint:
    """What crossing one resolved edge between (or from) ``refs`` reads:
    their extents and the base link — the wildcard as soon as a derived
    reference or a derived direct association is involved."""
    if resolution.kind == "subdb" or \
            any(ref.subdb is not None for ref in refs):
        return ALL
    links = frozenset((resolution.resolved.link.key,)) \
        if resolution.kind == "base" else frozenset()
    return Footprint(frozenset(ref.cls for ref in refs), links)


def _evict_one(memo: Dict) -> None:
    """Make room in a capped memo by dropping its single oldest entry
    (dicts iterate in insertion order).  Stale entries reap themselves
    on their own next probe; wholesale clearing — the previous policy —
    cooled every warm entry whenever one more distinct key arrived at
    the cap.  A memo shared between sessions may move under the
    iterator; the eviction is then left to the next insert."""
    try:
        memo.pop(next(iter(memo)), None)
    except RuntimeError:
        pass


class Statistics:
    """Extent sizes and link fan-outs, validated entry by entry.

    Each cached number carries the footprint it was computed from and
    that footprint's version vector; an accessor recomputes only when
    the vector moved.  Writes outside the footprint leave the entry
    warm — an ASSOCIATE re-measures the fan-out of its own link and
    nothing else.

    Base-data entries are a function of the stamps alone, so one memo
    serves every universe over the same database: a rule engine's
    evaluators and each session pinned from it :meth:`share` one, and a
    re-pinned session measures nothing the previous pin — or the
    write's own maintenance — measured.  Entries over derived
    subdatabases (wildcard footprint) are kept apart and never shared:
    their token is one universe's own registry epoch, which means
    nothing — and may collide — in another universe.
    """

    def __init__(self, universe: Universe):
        self.universe = universe
        #: ``ref -> (footprint, vector, size)`` and ``(source,
        #: resolution) -> (footprint, vector, fan-out)`` over base data.
        self._base: Dict[Any, Tuple[Footprint, Any, float]] = {}
        #: The same over derived references and edges.
        self._derived: Dict[Any, Tuple[Footprint, Any, float]] = {}

    def share(self, other: "Statistics") -> None:
        """Use ``other``'s base-data memo from now on (entries validate
        against whichever universe asks, so sessions pinned at different
        versions only overwrite each other's stale entries)."""
        self._base = other._base

    def extent_size(self, ref: ClassRef) -> int:
        """The unfiltered extent size of a class reference."""
        memo = self._base if ref.subdb is None else self._derived
        cached = memo.get(ref)
        if cached is not None:
            footprint = cached[0]
        elif ref.subdb is None:
            footprint = Footprint(extents=frozenset((ref.cls,)))
        else:
            footprint = ALL
        token = self.universe.version_vector(footprint)
        if cached is not None and cached[1] == token:
            return cached[2]
        if ref.subdb is None:
            size = self.universe.db.extent_size(ref.cls)
        else:
            size = len(self.universe.extent(ref))
        if len(memo) >= _MEMO_CAP:
            _evict_one(memo)
        memo[ref] = (footprint, token, size)
        return size

    def fanout(self, source: ClassRef, resolution: EdgeResolution) -> float:
        """Average number of neighbors per object of ``source``'s extent
        across the resolved edge (the direction is implied by which end
        ``source`` stands at: total link pairs over source extent).
        What can move it is the source extent (the denominator) and
        that one link (a DELETE stamps every link it removes)."""
        if resolution.kind == "identity":
            return 1.0
        key = (source, resolution)
        memo = self._base if resolution.kind == "base" \
            and source.subdb is None else self._derived
        cached = memo.get(key)
        footprint = cached[0] if cached is not None else \
            edge_footprint(resolution, source)
        token = self.universe.version_vector(footprint)
        if cached is not None and cached[1] == token:
            return cached[2]
        if resolution.kind == "base":
            pairs = self.universe.db.link_count(resolution.resolved.link)
        else:
            subdb = self.universe.get_subdb(resolution.subdb)
            pairs = len(subdb.pairs(resolution.i, resolution.j))
        value = pairs / max(1, self.extent_size(source))
        if len(memo) >= _MEMO_CAP:
            _evict_one(memo)
        memo[key] = (footprint, token, value)
        return value

    def condition_selectivity(self, ref: ClassRef,
                              condition) -> Optional[float]:
        """Estimated fraction of ``ref``'s extent an intra-class
        condition keeps, from declared value-index cardinalities.

        Each ``and`` conjunct comparing an own attribute against a
        literal that a declared :class:`~repro.subdb.attrindex.AttrIndex`
        can count contributes its *exact* selectivity (matching rows
        over extent size — the index counts without materializing);
        conjuncts nothing indexed answers contribute no reduction.
        Returns ``None`` when no conjunct was answerable, so callers
        can tell "no information" apart from "keeps everything"."""
        if condition is None or ref.subdb is not None:
            return None
        selectivity: Optional[float] = None
        for conj in conditions.and_conjuncts(condition):
            normalized = conditions.literal_comparison(conj)
            if normalized is None:
                continue
            attr, op, literal = normalized
            index = self.universe.attr_index(ref, attr)
            if index is None:
                continue
            count = index.cardinality(op, literal)
            if count is None:
                continue
            total = index.table.live_count
            fraction = (count / total) if total else 0.0
            selectivity = fraction if selectivity is None \
                else selectivity * fraction
        return selectivity

    def filtered_size(self, ref: ClassRef, condition) -> int:
        """The estimated *filtered* extent size of a class reference:
        the unfiltered size scaled by :meth:`condition_selectivity`
        when value indexes answer, else the unfiltered size — this is
        how pre-evaluation planning (``explain``) learns true
        per-condition selectivity without scanning a single entity."""
        size = self.extent_size(ref)
        selectivity = self.condition_selectivity(ref, condition)
        if selectivity is None:
            return size
        return int(round(size * selectivity))


@dataclass
class PlanStep:
    """One join step: extend the matched block by one slot."""

    #: Index of the slot this step adds.
    slot: int
    #: Index into the chain's ops/resolutions arrays.
    edge: int
    #: ``"left"`` or ``"right"`` — which side of the block grows.
    direction: str
    #: The operator crossed (``*`` or ``!``).
    op: str
    #: Estimated rows after this step.
    est_rows: float
    #: Rows actually materialized (filled in by the executor).
    actual_rows: Optional[int] = None
    #: Distinct frontier endpoints looked up (filled in by the executor).
    actual_frontier: Optional[int] = None

    def snapshot(self) -> dict:
        return {
            "slot": self.slot,
            "direction": self.direction,
            "op": self.op,
            "est_rows": round(self.est_rows, 2),
            "actual_rows": self.actual_rows,
            "actual_frontier": self.actual_frontier,
        }


@dataclass
class JoinPlan:
    """A full join order over slots ``start..end`` of one chain."""

    start: int
    end: int
    anchor: int
    #: Slot names of the *whole* chain (indexable by any slot index).
    slot_names: Tuple[str, ...]
    #: The anchor's filtered extent size (exact — the extent is known).
    est_anchor_rows: int
    steps: List[PlanStep]
    #: Estimated total intermediate rows (the DP objective).
    est_cost: float
    actual_anchor_rows: Optional[int] = None
    #: Per-slot access-path annotation over the whole chain: ``None``
    #: for an unconditioned slot, else ``"index"`` (filter served
    #: entirely by value-index probes), ``"index+scan"`` (probed
    #: prefix + residual per-candidate evaluation), or ``"scan"``.
    #: Filled in by the evaluator; pre-evaluation plans (explain on a
    #: cold query) leave it ``None``.
    access: Optional[Tuple[Optional[str], ...]] = None

    def order(self) -> List[int]:
        """Slot indices in the order they are joined."""
        return [self.anchor] + [step.slot for step in self.steps]

    def _access_tag(self, slot: int) -> str:
        if self.access is None or self.access[slot] is None:
            return ""
        return f" [{self.access[slot]}]"

    def describe(self) -> str:
        lines = ["join plan: anchor "
                 f"{self.slot_names[self.anchor]}"
                 f"{self._access_tag(self.anchor)} "
                 f"({self.est_anchor_rows} rows), "
                 f"est cost {self.est_cost:.1f}"]
        for step in self.steps:
            arrow = "<-" if step.direction == "left" else "->"
            actual = ("" if step.actual_rows is None
                      else f", actual {step.actual_rows}")
            lines.append(f"  {arrow} {step.op} "
                         f"{self.slot_names[step.slot]}"
                         f"{self._access_tag(step.slot)}: "
                         f"est {step.est_rows:.1f} rows{actual}")
        return "\n".join(lines)

    def snapshot(self) -> dict:
        snap = {
            "anchor": self.slot_names[self.anchor],
            "order": [self.slot_names[i] for i in self.order()],
            "est_cost": round(self.est_cost, 2),
            "anchor_rows": self.est_anchor_rows,
            "steps": [step.snapshot() for step in self.steps],
        }
        if self.access is not None:
            snap["access"] = {self.slot_names[i]: mode
                              for i, mode in enumerate(self.access)
                              if mode is not None}
        return snap


class Planner:
    """Chooses a contiguous join order for a (sub)range of a chain."""

    def __init__(self, universe: Universe):
        self.universe = universe
        self.statistics = Statistics(universe)
        # Chosen orders memoized per (range, refs, ops, filtered
        # sizes) as (footprint, vector, anchor, steps, cost),
        # each entry validated against the version vector of what its
        # fan-out estimates read — repeated evaluations of the same
        # query skip the DP, and writes outside the footprint leave the
        # memo warm.
        self._cache: Dict[tuple, Tuple[Footprint, Any, int,
                                       List[PlanStep], float]] = {}

    @staticmethod
    def _plan_footprint(refs: Sequence[ClassRef],
                        resolutions: Sequence[EdgeResolution],
                        start: int, end: int) -> Footprint:
        """What a memoized order depends on: the filtered sizes are
        part of the key, so what remains version-sensitive is the
        fan-out estimates — the slot extents plus every crossed link.
        Any derived slot or edge makes it the wildcard."""
        slots = refs[start:end + 1]
        if any(ref.subdb is not None for ref in slots):
            return ALL
        footprint = Footprint(frozenset(ref.cls for ref in slots))
        for edge in range(start, end):
            footprint |= edge_footprint(resolutions[edge], refs[edge],
                                        refs[edge + 1])
        return footprint

    # ------------------------------------------------------------------
    # Cardinality estimation
    # ------------------------------------------------------------------

    def _step_selectivity(self, refs: Sequence[ClassRef],
                          ops: Sequence[str],
                          resolutions: Sequence[EdgeResolution],
                          sizes: Sequence[int],
                          edge: int, direction: str) -> float:
        """Estimated candidate rows per input row when crossing ``edge``
        towards ``direction``: link fan-out from the source slot, scaled
        by the target's filter selectivity (filtered / full extent)."""
        if direction == "right":
            source, target = edge, edge + 1
        else:
            source, target = edge + 1, edge
        fan = self.statistics.fanout(refs[source], resolutions[edge])
        full = self.statistics.extent_size(refs[target])
        ratio = (sizes[target] / full) if full else 0.0
        if ops[edge] == "*":
            return fan * ratio
        # "!" keeps the complement of the neighbor set within the
        # (filtered) target extent.
        return max(float(sizes[target]) - fan * ratio, 0.0)

    # ------------------------------------------------------------------
    # Join ordering
    # ------------------------------------------------------------------

    def plan(self, refs: Sequence[ClassRef], ops: Sequence[str],
             resolutions: Sequence[EdgeResolution],
             sizes: Sequence[int], start: int, end: int) -> JoinPlan:
        """Plan the join over slots ``start..end``.

        ``sizes`` are the *filtered* extent sizes per slot of the whole
        chain (the evaluator has already applied intra-class conditions,
        so the anchor estimate is exact and filter selectivities are
        folded into every step estimate).
        """
        tracer = obs.TRACER
        span = tracer.start("plan", start=start, end=end) \
            if tracer is not None else None
        try:
            slot_names = tuple(ref.slot for ref in refs)
            key = (start, end, tuple(refs), tuple(ops), tuple(sizes))
            cached = self._cache.get(key)
            footprint = cached[0] if cached is not None else \
                self._plan_footprint(refs, resolutions, start, end)
            token = self.universe.version_vector(footprint)
            if cached is not None and cached[1] != token:
                cached = None
            if cached is not None:
                _, _, anchor, steps, cost = cached
            else:
                anchor, steps, cost = self._best_order(
                    refs, ops, resolutions, sizes, start, end)
            if len(self._cache) >= _MEMO_CAP:
                _evict_one(self._cache)
            self._cache[key] = (footprint, token, anchor, steps, cost)
            if span is not None:
                span.set("cached", cached is not None)
                span.set("anchor", slot_names[anchor])
                span.set("est_cost", round(cost, 2))
                # Size of the contiguous-range DP (each state costs
                # one candidate plan).
                width = end - start + 1
                span.add("candidates", width * (width + 1) // 2)
        finally:
            if span is not None:
                tracer.finish(span)
        # The executor mutates steps with actuals: hand out copies.
        fresh = [PlanStep(slot=s.slot, edge=s.edge, direction=s.direction,
                          op=s.op, est_rows=s.est_rows) for s in steps]
        return JoinPlan(start=start, end=end, anchor=anchor,
                        slot_names=slot_names,
                        est_anchor_rows=sizes[anchor], steps=fresh,
                        est_cost=cost)

    def _best_order(self, refs, ops, resolutions, sizes, start, end):
        """Interval dynamic programming over contiguous blocks.

        ``best[(lo, hi)]`` holds the cheapest way to have matched the
        block ``lo..hi``: (estimated total intermediate rows, estimated
        rows of the block, anchor, steps).  A block extends from its
        left or right sub-block, so the optimum over all contiguous
        join orders is found in O(n²) states.
        """
        best: Dict[Tuple[int, int],
                   Tuple[float, float, int, List[PlanStep]]] = {}
        for i in range(start, end + 1):
            size = float(sizes[i])
            best[(i, i)] = (size, size, i, [])
        for length in range(1, end - start + 1):
            for lo in range(start, end - length + 1):
                hi = lo + length
                cost_r, rows_r, anchor_r, steps_r = best[(lo + 1, hi)]
                sel_l = self._step_selectivity(refs, ops, resolutions,
                                               sizes, lo, "left")
                grown_l = rows_r * sel_l
                left = (cost_r + grown_l, grown_l, anchor_r,
                        steps_r + [PlanStep(slot=lo, edge=lo,
                                            direction="left", op=ops[lo],
                                            est_rows=grown_l)])
                cost_l, rows_l, anchor_l, steps_l = best[(lo, hi - 1)]
                sel_r = self._step_selectivity(refs, ops, resolutions,
                                               sizes, hi - 1, "right")
                grown_r = rows_l * sel_r
                right = (cost_l + grown_r, grown_r, anchor_l,
                         steps_l + [PlanStep(slot=hi, edge=hi - 1,
                                             direction="right",
                                             op=ops[hi - 1],
                                             est_rows=grown_r)])
                best[(lo, hi)] = left if left[0] <= right[0] else right
        cost, _, anchor, steps = best[(start, end)]
        return anchor, steps, cost
