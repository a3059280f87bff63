"""The subdatabase: intension + set of extensional patterns.

A :class:`Subdatabase` is the value the query evaluator produces and the
deductive rule language both consumes and derives.  It couples an
:class:`~repro.subdb.intension.IntensionalPattern` with a set of
:class:`~repro.subdb.pattern.ExtensionalPattern` tuples aligned to it, and
— when derived by a rule — with per-slot
:class:`~repro.subdb.derived.DerivedClassInfo` records carrying the induced
generalization links.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import OQLSemanticError
from repro.model.interning import InternTable
from repro.model.oid import OID
from repro.subdb.derived import DerivedClassInfo
from repro.subdb.intension import Edge, IntensionalPattern
from repro.subdb.pattern import (
    ExtensionalPattern,
    PatternType,
    decode_rows,
    subsume,
)
from repro.subdb.refs import ClassRef


def _reconcile_info(a: DerivedClassInfo,
                    b: DerivedClassInfo) -> DerivedClassInfo:
    """Combine two derivation records for the same target class.

    When two rules derive the same class of one subdatabase from different
    sources (R4 derives May_teach's Course from ``Suggest_offer:Course``,
    R5 from the base ``Course``), the unioned class generalizes to the
    common base class and the visible attributes union (``None`` — all
    attributes — absorbs any subset)."""
    source = a.source if a.source == b.source else ClassRef(a.ref.cls)
    if a.visible_attrs is None or b.visible_attrs is None:
        visible = None
    else:
        visible = tuple(sorted(set(a.visible_attrs) | set(b.visible_attrs)))
    return DerivedClassInfo(ref=a.ref, source=source, visible_attrs=visible)


class Subdatabase:
    """A derived or query-result portion of the database."""

    def __init__(self, name: str, intension: IntensionalPattern,
                 patterns: Iterable[ExtensionalPattern] = (),
                 derived_info: Optional[Dict[str, DerivedClassInfo]] = None):
        self.name = name
        self.intension = intension
        self._patterns: Optional[Set[ExtensionalPattern]] = set(patterns)
        self._interned = None
        #: slot name -> induced-generalization record (empty for pure
        #: query results over base classes).
        self.derived_info: Dict[str, DerivedClassInfo] = dict(
            derived_info or {})
        width = len(intension)
        for pattern in self._patterns:
            if len(pattern.values) != width:
                raise OQLSemanticError(
                    f"pattern {pattern!r} has {len(pattern.values)} "
                    f"slots, intension has {width}")

    @classmethod
    def from_interned_rows(cls, name: str, intension: IntensionalPattern,
                           rows, tables,
                           derived_info: Optional[
                               Dict[str, DerivedClassInfo]] = None
                           ) -> "Subdatabase":
        """A subdatabase over interned rows, decoded to OID patterns
        only when :attr:`patterns` is first read — rendering it
        (:meth:`describe`, :meth:`sorted_columns`) decodes nothing.

        ``rows`` are dense-id tuples aligned to ``tables`` (per-slot
        intern tables, whose existing ids never change meaning — later
        database mutations cannot skew a deferred decode).  The caller
        vouches that every row has the intension's width; the compact
        evaluator builds rows from the intension itself.
        """
        subdb = cls.__new__(cls)
        subdb.name = name
        subdb.intension = intension
        subdb._patterns = None
        subdb._interned = (rows if isinstance(rows, (set, frozenset))
                           else set(rows), list(tables))
        subdb.derived_info = dict(derived_info or {})
        return subdb

    @property
    def patterns(self) -> Set[ExtensionalPattern]:
        """The extensional pattern set (decoded on first access when the
        subdatabase was built from interned rows)."""
        patterns = self._patterns
        if patterns is None:
            rows, tables = self._interned
            patterns = self._patterns = decode_rows(rows, tables)
            self._interned = None
        return patterns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def slot_names(self) -> Tuple[str, ...]:
        return self.intension.slot_names

    def __len__(self) -> int:
        if self._patterns is None:
            return len(self._interned[0])
        return len(self._patterns)

    def __iter__(self):
        return iter(self.patterns)

    def pattern_types(self) -> Set[PatternType]:
        """The distinct extensional pattern types present (Section 3.1:
        Figure 3.1b contains five)."""
        names = self.slot_names
        return {p.type_of(names) for p in self.patterns}

    def patterns_of_type(self, ptype: PatternType | Sequence[str]
                         ) -> Set[ExtensionalPattern]:
        """All patterns sharing the given template."""
        if not isinstance(ptype, PatternType):
            ptype = PatternType(ptype)
        names = self.slot_names
        return {p for p in self.patterns if p.type_of(names) == ptype}

    def extent_of_slot(self, ref: ClassRef | str) -> Set[OID]:
        """The objects appearing at one exact slot."""
        index = self.intension.index_of(ref)
        return {p[index] for p in self.patterns if p[index] is not None}

    def extent_of_class(self, cls: str) -> Set[OID]:
        """The objects appearing at *any* slot of class ``cls`` (all
        hierarchy levels) — the extent of the derived class when the
        subdatabase is referenced with a qualifier (``May_teach:TA``)."""
        indices = self.intension.indices_of_class(cls)
        if not indices:
            raise OQLSemanticError(
                f"subdatabase {self.name!r} has no class {cls!r} "
                f"(classes: {list(self.slot_names)})")
        out: Set[OID] = set()
        for pattern in self.patterns:
            for i in indices:
                if pattern[i] is not None:
                    out.add(pattern[i])
        return out

    def pairs(self, i: int, j: int) -> Set[Tuple[OID, OID]]:
        """The (slot i, slot j) object pairs present in the patterns —
        the extensional content of a derived direct association."""
        return {(p[i], p[j]) for p in self.patterns
                if p[i] is not None and p[j] is not None}

    def info_for(self, ref: ClassRef | str) -> Optional[DerivedClassInfo]:
        name = ref if isinstance(ref, str) else ref.slot
        return self.derived_info.get(name)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def normalized(self) -> "Subdatabase":
        """A copy with the subsumption rule applied: no pattern appears
        independently if it is part of a larger one."""
        return Subdatabase(self.name, self.intension,
                           subsume(self.patterns), self.derived_info)

    def project(self, refs: Sequence[ClassRef | str],
                name: Optional[str] = None,
                edges: Iterable[Edge] = ()) -> "Subdatabase":
        """Keep only the given slots (in the given order).

        Projected patterns are de-duplicated and re-subsumed; patterns
        that become all-Null are dropped (classes unreferenced in a rule's
        Then clause "will not be retained in the derived subdatabase",
        Section 4.2).
        """
        indices = [self.intension.index_of(r) for r in refs]
        slots = [self.intension.slots[i] for i in indices]
        projected = {p.project(indices) for p in self.patterns}
        projected = {p for p in projected if p.arity > 0}
        new_intension = IntensionalPattern(slots, edges)
        return Subdatabase(name or self.name, new_intension,
                           subsume(projected))

    def merge(self, other: "Subdatabase") -> "Subdatabase":
        """Union with another subdatabase derived under the same name.

        Rules R4 and R5 of the paper both derive ``May_teach`` — one with
        classes (TA, Course), one with (Grad, Course); the result contains
        the union of the two extensional pattern sets over the union of
        the two intensional patterns (Section 4.2).  Slots are matched by
        exact slot name; derived-class records must agree or the union is
        rejected.
        """
        slot_map: Dict[str, int] = {n: i for i, n
                                    in enumerate(self.slot_names)}
        slots: List[ClassRef] = list(self.intension.slots)
        for ref in other.intension.slots:
            if ref.slot not in slot_map:
                slot_map[ref.slot] = len(slots)
                slots.append(ref)

        def remap(edge: Edge, names: Tuple[str, ...]) -> Edge:
            return Edge(slot_map[names[edge.i]], slot_map[names[edge.j]],
                        edge.kind, edge.label)

        edges: List[Edge] = []
        seen_edges = set()
        for source in (self, other):
            for edge in source.intension.edges:
                new = remap(edge, source.slot_names)
                key = (frozenset((new.i, new.j)), new.kind, new.label)
                if key not in seen_edges:
                    seen_edges.add(key)
                    edges.append(new)

        width = len(slots)
        patterns: Set[ExtensionalPattern] = set()
        for source in (self, other):
            mapping = [slot_map[name] for name in source.slot_names]
            for pattern in source.patterns:
                patterns.add(pattern.pad(mapping, width))

        info = dict(self.derived_info)
        for slot_name, record in other.derived_info.items():
            if slot_name in info and info[slot_name] != record:
                info[slot_name] = _reconcile_info(info[slot_name], record)
            else:
                info[slot_name] = record
        return Subdatabase(self.name, IntensionalPattern(slots, edges),
                           subsume(patterns), info)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def sorted_rows(self) -> List[Tuple[Optional[OID], ...]]:
        """Patterns as tuples in a stable order (Nulls sort last)."""
        def sort_key(pattern: ExtensionalPattern):
            return tuple((v is None, v.value if v is not None else 0)
                         for v in pattern.values)
        return [p.values for p in sorted(self.patterns, key=sort_key)]

    def sorted_columns(self, column_of, null: Any,
                       nulls_last: bool = True) -> Optional[List[list]]:
        """The rows of an undecoded result in OID-value order, one list
        per slot of ``column_of(table)[id]`` (Null as ``null``) — or
        ``None`` once :attr:`patterns` has been decoded.

        No row is decoded: an intern table's dense order *is* OID-value
        order, so sorting the id tuples — a Null slot standing in as
        ``len(table)`` (``nulls_last``) or ``-1`` — is the order of
        :meth:`sorted_rows` (or, with Nulls first, of
        :func:`~repro.storage.serialize.subdatabase_to_dict`)."""
        interned = self._interned
        if interned is None:
            return None
        rows, tables = interned
        sentinels = [len(table) if nulls_last else -1 for table in tables]
        if any(None in row for row in rows):
            rows = [tuple(s if v is None else v
                          for v, s in zip(row, sentinels)) for row in rows]
        columns = []
        for ids, table, sentinel in zip(zip(*sorted(rows)), tables,
                                        sentinels):
            lookup = column_of(table)
            if sentinel in ids:
                columns.append([null if v == sentinel else lookup[v]
                                for v in ids])
            else:
                columns.append(list(map(lookup.__getitem__, ids)))
        return columns

    def labels(self) -> Set[Tuple[Optional[str], ...]]:
        """Patterns as tuples of OID labels — the representation the
        paper's figures use (``(t1, s2, c1)``); unlabeled OIDs render as
        ``#<value>``."""
        return {tuple(None if v is None else repr(v) for v in p.values)
                for p in self.patterns}

    def describe(self) -> str:
        lines = [f"subdatabase {self.name!r}",
                 self.intension.describe(),
                 f"patterns ({len(self)}):"]
        columns = self.sorted_columns(InternTable.label_column, "Null")
        if columns is not None:
            lines.extend(f"  ({row})"
                         for row in map(", ".join, zip(*columns)))
        else:
            for row in self.sorted_rows():
                rendered = ", ".join("Null" if v is None else repr(v)
                                     for v in row)
                lines.append(f"  ({rendered})")
        for record in self.derived_info.values():
            lines.append(f"  induced: {record.induced_generalization}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Subdatabase({self.name!r}, slots={list(self.slot_names)}, "
                f"{len(self)} patterns)")
