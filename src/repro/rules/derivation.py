"""Applying deductive rules: projection, induced generalization, derived
direct associations, attribute subsetting, and multi-rule union.

:func:`apply_rule` evaluates one rule's If clause into a source
subdatabase and builds the rule's contribution to its target subdatabase
(Section 4.2):

* the target intension contains exactly the classes listed in the Then
  clause — unreferenced classes (Section in Figure 4.3) are dropped;
* each target class carries a :class:`DerivedClassInfo` recording the
  *induced generalization association* to its source class (Section 4.1)
  and any attribute subsetting;
* consecutive target classes that were directly associated in the source
  keep that association; classes that were only *indirectly* connected get
  a **new direct derived association** (Figure 4.3: Teacher—Course);
* extensional patterns are projected, de-duplicated, and re-subsumed —
  over the source's dense-id columns when the compact executor built it
  (:func:`_project_columns`), so a derived target stays columnar.

:func:`derive_target` unions the contributions of every rule deriving the
same subdatabase-id (rules R4 and R5 both deriving May_teach).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import RuleSemanticError
from repro.oql.evaluator import PatternEvaluator
from repro.oql.kernels import rows_to_columns
from repro.subdb.derived import DerivedClassInfo
from repro.subdb.intension import Edge, IntensionalPattern
from repro.subdb.pattern import ExtensionalPattern, subsume, subsume_rows
from repro.subdb.refs import ClassRef
from repro.subdb.subdatabase import Subdatabase
from repro.rules.rule import DeductiveRule, TargetSpec


def _resolve_target_indices(rule: DeductiveRule, source: Subdatabase,
                            target: TargetSpec) -> List[int]:
    """Map one Then-clause argument to source slot indices.

    Exact slot names win (``Grad_2``); an all-levels argument (``Grad_``)
    expands to every hierarchy level from 1 upward; otherwise the argument
    must match a unique slot of its class — which is how the paper writes
    ``Course`` for the context class ``Suggest_offer:Course`` (rule R4).
    """
    intension = source.intension
    if target.all_levels:
        levels = intension.levels_of_class(target.ref.cls)
        expanded = [i for i in levels if intension.slots[i].level >= 1]
        if not expanded:
            raise RuleSemanticError(
                f"rule {rule.label or rule.target!r}: target "
                f"{target.ref.cls}_ matched no hierarchy levels >= 1 "
                f"(slots: {list(source.slot_names)})")
        return expanded
    if intension.has_slot(target.ref.slot):
        return [intension.index_of(target.ref.slot)]
    matches = intension.indices_of_class(target.ref.cls)
    if target.ref.alias is None and len(matches) == 1:
        return matches
    if target.ref.alias is not None:
        level_matches = [
            i for i in matches
            if intension.slots[i].alias == target.ref.alias]
        if len(level_matches) == 1:
            return level_matches
    if matches and target.ref.alias is not None:
        # A loop context generated fewer levels than the target names
        # (e.g. first_and_third (Grad, Grad_2) over a 2-level hierarchy):
        # the target contributes no instances this derivation.
        return []
    raise RuleSemanticError(
        f"rule {rule.label or rule.target!r}: target {target} does not "
        f"identify a unique slot (slots: {list(source.slot_names)})")


def apply_rule(rule: DeductiveRule,
               evaluator: PatternEvaluator) -> Subdatabase:
    """Evaluate one rule and return its contribution to the target."""
    tracer = obs.TRACER
    span = tracer.start("rule-apply", rule=rule.label or rule.target,
                        target=rule.target) \
        if tracer is not None else None
    try:
        source = evaluator.evaluate(rule.context, rule.where,
                                    name=f"_source_of_{rule.target}")
        contribution = project_to_target(rule, source)
        if span is not None:
            span.add("source_rows", len(source))
            span.add("rows_out", len(contribution))
        return contribution
    finally:
        if span is not None:
            tracer.finish(span)


def project_to_target(rule: DeductiveRule,
                      source: Subdatabase) -> Subdatabase:
    """Build the rule's target subdatabase from an already-evaluated
    source (the Then clause's work: projection, induced generalization,
    derived associations, attribute subsetting).

    Split out of :func:`apply_rule` so the incremental maintainer can
    re-project a delta-maintained match set without re-evaluating the
    If clause."""
    selected: List[Tuple[Optional[int], TargetSpec]] = []
    for target in rule.targets:
        indices = _resolve_target_indices(rule, source, target)
        if indices:
            for index in indices:
                selected.append((index, target))
        else:
            # A named hierarchy level the loop did not reach: the slot
            # exists in the target intension but holds no instances.
            selected.append((None, target))

    # New slots: the target class names (aliases preserved so repeated
    # classes stay distinct; subdatabase qualifiers dropped — the derived
    # class lives in the *new* subdatabase).
    new_slots: List[ClassRef] = []
    derived_info = {}
    for index, target in selected:
        if index is None:
            source_ref = ClassRef(target.ref.cls, target.ref.subdb,
                                  target.ref.alias)
        else:
            source_ref = source.intension.slots[index]
        new_ref = ClassRef(source_ref.cls, None, source_ref.alias)
        new_slots.append(new_ref)
        derived_info[new_ref.slot] = DerivedClassInfo(
            ref=ClassRef(new_ref.cls, rule.target, new_ref.alias),
            source=source_ref.without_alias()
            if index is None else source_ref,
            visible_attrs=target.attrs)

    # Associations between consecutive target classes: keep a direct
    # source association when one exists, otherwise infer a new direct
    # derived association (Figure 4.3).
    edges: List[Edge] = []
    for position in range(len(selected) - 1):
        i, _ = selected[position]
        j, _ = selected[position + 1]
        existing = None
        if i is not None and j is not None:
            existing = source.intension.edge_between(i, j)
        if existing is not None:
            edges.append(Edge(position, position + 1, existing.kind,
                              existing.label))
        else:
            edges.append(Edge(position, position + 1, "derived",
                              rule.target))

    indices = [index for index, _ in selected]
    if source._columns is not None:
        return _project_columns(rule.target,
                                IntensionalPattern(new_slots, edges),
                                source, selected, derived_info)
    projected = {
        ExtensionalPattern([None if i is None else p[i] for i in indices])
        for p in source.patterns}
    projected = {p for p in projected if p.arity > 0}

    intension = IntensionalPattern(new_slots, edges)
    return Subdatabase(rule.target, intension, subsume(projected),
                       derived_info)


def _project_columns(name: str, intension: IntensionalPattern,
                     source: Subdatabase,
                     selected: List[Tuple[Optional[int], TargetSpec]],
                     derived_info: Dict[str, DerivedClassInfo]
                     ) -> Subdatabase:
    """The Then clause's projection over a columnar source: the target
    slots' dense-id columns and intern tables are selected as they are,
    and no row is decoded.

    A level the loop did not reach becomes an all-Null column (over the
    table of a reached slot of its class, which it never indexes).  Rows
    left all-Null are dropped.  Subsumption runs over int rows, and
    only where it can drop anything: the source is subsumption-closed,
    and ``covers`` only compares non-Null slots, so a projection that
    keeps every source slot once (in any order) keeps the set closed,
    as does one whose rows all keep the same arity."""
    null = np.full(len(source), -1, dtype=np.int64)
    picked: List[np.ndarray] = []
    picked_tables = []
    for index, target in selected:
        if index is None:
            picked.append(null)
            picked_tables.append(source._tables[
                source.intension.indices_of_class(target.ref.cls)[0]])
        else:
            picked.append(source._columns[index])
            picked_tables.append(source._tables[index])
    present = np.array([col >= 0 for col in picked])
    nonnull = present.any(axis=0)
    if not nonnull.all():
        picked = [col[nonnull] for col in picked]
        present = present[:, nonnull]
    reached = sorted(index for index, _ in selected if index is not None)
    if present.size and reached != list(range(len(source.intension))):
        arity = present.sum(axis=0)
        if (arity != arity[0]).any():
            rows = zip(*[[None if v < 0 else v for v in col.tolist()]
                         for col in picked])
            picked = rows_to_columns(subsume_rows(rows), len(picked))
    return Subdatabase.from_columns(name, intension, picked,
                                    picked_tables, derived_info)


def derive_target(rules: Sequence[DeductiveRule],
                  evaluator: PatternEvaluator,
                  name: Optional[str] = None) -> Subdatabase:
    """Union the contributions of every rule deriving one subdatabase.

    "Rules R4 and R5 derive extensional patterns into the same
    subdatabase May_teach but based on different conditions; if both
    rules are applied, May_teach will contain the union of the two sets
    of extensional patterns derived by the two rules" (Section 4.2).
    """
    if not rules:
        raise RuleSemanticError("derive_target needs at least one rule")
    target = name or rules[0].target
    for rule in rules:
        if rule.target != target:
            raise RuleSemanticError(
                f"rule {rule.label or rule.target!r} does not derive "
                f"{target!r}")
    merged: Optional[Subdatabase] = None
    for rule in rules:
        contribution = apply_rule(rule, evaluator)
        merged = contribution if merged is None else \
            merged.merge(contribution)
    return merged
