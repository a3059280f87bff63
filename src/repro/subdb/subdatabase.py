"""The subdatabase: intension + set of extensional patterns.

A :class:`Subdatabase` is the value the query evaluator produces and the
deductive rule language both consumes and derives.  It couples an
:class:`~repro.subdb.intension.IntensionalPattern` with a set of
:class:`~repro.subdb.pattern.ExtensionalPattern` tuples aligned to it
(held as dense-id columns until first read when the compact executor
built it), and
— when derived by a rule — with per-slot
:class:`~repro.subdb.derived.DerivedClassInfo` records carrying the induced
generalization links.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import OQLSemanticError
from repro.model.interning import InternTable
from repro.model.oid import OID
from repro.subdb.derived import DerivedClassInfo
from repro.subdb.intension import Edge, IntensionalPattern
from repro.subdb.pattern import (
    ExtensionalPattern,
    PatternType,
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


def _row_keys(columns: List[np.ndarray]) -> Optional[np.ndarray]:
    """Each row packed into one int64 whose order is the row order —
    slot 0 the most significant digit, a Null the largest digit of its
    slot — or ``None`` when the digits do not fit in 63 bits."""
    radices = [int(col.max()) + 2 for col in columns]
    span = 1
    for radix in radices:
        span *= radix
    if span >= 1 << 63:
        return None
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col, radix in zip(columns, radices):
        key *= radix
        key += np.where(col < 0, radix - 1, col)
    return key


def sort_unique(columns: List[np.ndarray]) -> List[np.ndarray]:
    """Per-slot dense-id columns (−1 for Null) in row order — slot 0
    the primary key, Nulls after every id — with duplicate rows
    dropped, every column read-only.

    The rows are sorted once: by their packed keys (:func:`_row_keys`),
    which also show in one pass that rows the join kernel emitted in
    order need no sort at all, or — when the keys would overflow — by
    one ``np.lexsort`` over the columns' ``uint64`` views, where −1 is
    the largest value.  Duplicates are then adjacent, so one mask over
    neighbouring rows removes them."""
    n = len(columns[0]) if columns else 0
    if n > 1:
        key = _row_keys(columns)
        if key is None or not (key[1:] > key[:-1]).all():
            if key is not None:
                order = np.argsort(key, kind="stable")
            else:
                order = np.lexsort([col.view(np.uint64)
                                    for col in reversed(columns)])
            columns = [col[order] for col in columns]
            fresh = columns[0][1:] != columns[0][:-1]
            for col in columns[1:]:
                fresh |= col[1:] != col[:-1]
            if not fresh.all():
                keep = np.concatenate(([True], fresh))
                columns = [col[keep] for col in columns]
    for col in columns:
        col.flags.writeable = False
    return columns


def _gather(lookup, ids: np.ndarray, null: Any) -> list:
    """``lookup[i]`` for every id of a column, ``null`` for −1."""
    if len(ids) and ids.min() < 0:
        return [null if i < 0 else lookup[i] for i in ids.tolist()]
    return list(map(lookup.__getitem__, ids.tolist()))


def decode_rows(columns: List[np.ndarray],
                tables) -> Set[ExtensionalPattern]:
    """Dense-id rows, given column-wise, back to OID patterns — the
    single decode point of the compact execution layer.  ``columns[i]``
    holds slot ``i``'s ids (−1 for Null) and ``tables[i]`` supplies its
    decode columns (an :class:`~repro.model.interning.InternTable`:
    ``oids`` for the objects, ``values`` for the raw ints the cached
    hash is computed from, so later set algebra never calls
    ``OID.__hash__``).

    Decoding runs column-wise (one gather per slot, rows re-assembled
    by C-level ``zip``) — the row-wise equivalent is the profile's
    hottest frame on fan-out-heavy chains.
    """
    patterns: Set[ExtensionalPattern] = set()
    add = patterns.add
    new = ExtensionalPattern.__new__
    cls = ExtensionalPattern
    oid_columns = [_gather(table.oids, ids, None)
                   for ids, table in zip(columns, tables)]
    value_columns = [_gather(table.values, ids, None)
                     for ids, table in zip(columns, tables)]
    for values, key in zip(zip(*oid_columns), zip(*value_columns)):
        pattern = new(cls)
        pattern.values = values
        pattern._nn = None
        pattern._h = hash(key)
        add(pattern)
    return patterns


class Subdatabase:
    """A derived or query-result portion of the database.

    It has one of two forms.  Built from patterns (the set-based
    executor, Where-filtered and merged results, algebra results) it
    holds the pattern set.  Built by the compact executor, or by a
    rule's Then clause over such a result (:meth:`from_columns`), it
    holds one read-only numpy int64 column of dense ids per slot (−1
    for Null), sorted and de-duplicated, plus the intern tables that
    decode them: :func:`len`, :meth:`describe`, :meth:`sorted_columns`,
    the slot extents and :meth:`pairs` read the columns, and
    :attr:`patterns` decodes them on first access.  Either way it never
    changes after construction.
    """

    def __init__(self, name: str, intension: IntensionalPattern,
                 patterns: Iterable[ExtensionalPattern] = (),
                 derived_info: Optional[Dict[str, DerivedClassInfo]] = None):
        self.name = name
        self.intension = intension
        self._patterns: Optional[Set[ExtensionalPattern]] = set(patterns)
        self._columns: Optional[List[np.ndarray]] = None
        self._tables: Optional[List[InternTable]] = None
        self._extents: Dict[Tuple[int, ...], Set[OID]] = {}
        self._pair_counts: Dict[Tuple[int, int], int] = {}
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
    def from_columns(cls, name: str, intension: IntensionalPattern,
                     columns: Sequence[np.ndarray], tables,
                     derived_info: Optional[
                         Dict[str, DerivedClassInfo]] = None,
                     ordered: bool = False) -> "Subdatabase":
        """A subdatabase over dense-id columns, decoded to OID patterns
        only when :attr:`patterns` is first read.

        ``columns[i]`` holds slot ``i``'s ids in ``tables[i]`` (an
        intern table, whose existing ids never change meaning — later
        database mutations cannot skew a deferred decode), −1 for Null;
        the caller vouches for one column per slot of the intension.
        They are sorted and de-duplicated here (:func:`sort_unique`)
        unless ``ordered`` says they already are — the columns of
        another such subdatabase, which are shared, never copied.
        """
        subdb = cls.__new__(cls)
        subdb.name = name
        subdb.intension = intension
        subdb._patterns = None
        subdb._columns = (list(columns) if ordered
                          else sort_unique(list(columns)))
        subdb._tables = list(tables)
        subdb._extents = {}
        subdb._pair_counts = {}
        subdb.derived_info = dict(derived_info or {})
        return subdb

    @property
    def patterns(self) -> Set[ExtensionalPattern]:
        """The extensional pattern set (decoded on first access when the
        subdatabase was built from columns).

        The decoded set is published by one assignment and the columns
        stay: a reader racing the first decode on another thread renders
        from the columns or gets an equal set of its own."""
        patterns = self._patterns
        if patterns is None:
            patterns = self._patterns = decode_rows(self._columns,
                                                    self._tables)
        return patterns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def slot_names(self) -> Tuple[str, ...]:
        return self.intension.slot_names

    def __len__(self) -> int:
        columns = self._columns
        if columns is not None:
            return len(columns[0])
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
        """The objects appearing at one exact slot (a memo shared
        between callers: do not mutate it)."""
        return self._extent((self.intension.index_of(ref),))

    def extent_of_class(self, cls: str) -> Set[OID]:
        """The objects appearing at *any* slot of class ``cls`` (all
        hierarchy levels) — the extent of the derived class when the
        subdatabase is referenced with a qualifier (``May_teach:TA``).
        A memo shared between callers: do not mutate it."""
        indices = self.intension.indices_of_class(cls)
        if not indices:
            raise OQLSemanticError(
                f"subdatabase {self.name!r} has no class {cls!r} "
                f"(classes: {list(self.slot_names)})")
        return self._extent(tuple(indices))

    def _extent(self, indices: Tuple[int, ...]) -> Set[OID]:
        """The objects at the given slots, computed once per instance
        (a subdatabase never changes after construction)."""
        extent = self._extents.get(indices)
        if extent is None:
            extent = self._extents[indices] = self._walk_extent(indices)
        return extent

    def _walk_extent(self, indices: Tuple[int, ...]) -> Set[OID]:
        columns = self._columns
        if columns is not None:
            # The distinct ids of each slot, gathered by id: no row is
            # decoded.
            extent: Set[OID] = set()
            for i in indices:
                ids = np.unique(columns[i])
                if len(ids) and ids[0] < 0:
                    ids = ids[1:]
                extent.update(map(self._tables[i].oids.__getitem__,
                                  ids.tolist()))
            return extent
        out: Set[OID] = set()
        for pattern in self.patterns:
            for i in indices:
                if pattern[i] is not None:
                    out.add(pattern[i])
        return out

    def pairs(self, i: int, j: int) -> Set[Tuple[OID, OID]]:
        """The (slot i, slot j) object pairs present in the patterns —
        the extensional content of a derived direct association."""
        if self._columns is not None:
            # Distinct id pairs first, so every pair's OIDs are gathered
            # once.
            key, radix = self._pair_keys(i, j)
            return set(zip(_gather(self._tables[i].oids, key // radix, None),
                           _gather(self._tables[j].oids, key % radix, None)))
        return {(p[i], p[j]) for p in self.patterns
                if p[i] is not None and p[j] is not None}

    def pair_count(self, i: int, j: int) -> int:
        """``len(pairs(i, j))``, counted once per instance — from the
        columns without gathering an OID."""
        count = self._pair_counts.get((i, j))
        if count is None:
            count = len(self._pair_keys(i, j)[0]) \
                if self._columns is not None else len(self.pairs(i, j))
            self._pair_counts[(i, j)] = count
        return count

    def _pair_keys(self, i: int, j: int) -> Tuple[np.ndarray, int]:
        """The distinct (slot i, slot j) id pairs with no Null side,
        each packed into one int64 ``left * radix + right``."""
        left, right = self._columns[i], self._columns[j]
        both = (left >= 0) & (right >= 0)
        if not both.all():
            left, right = left[both], right[both]
        radix = max(len(self._tables[j]), 1)
        return np.unique(left * radix + right), radix

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
        """The rows of a columnar result in OID-value order, one list
        per slot of ``column_of(table)[id]`` (Null as ``null``) — or
        ``None`` for a subdatabase built from patterns.

        No row is decoded: an intern table's dense order *is* OID-value
        order, so the stored order — Nulls last — is the order of
        :meth:`sorted_rows`.  Only when some row holds a Null and the
        caller wants Nulls first (the order of
        :func:`~repro.storage.serialize.subdatabase_to_dict`) are the
        columns sorted again, on their signed values."""
        columns = self._columns
        if columns is None:
            return None
        if not nulls_last and any(len(col) and col.min() < 0
                                  for col in columns):
            order = np.lexsort(columns[::-1])
            columns = [col[order] for col in columns]
        return [_gather(column_of(table), ids, null)
                for ids, table in zip(columns, self._tables)]

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
            if len(self):
                lines.append("  (" + ")\n  (".join(
                    map(", ".join, zip(*columns))) + ")")
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
