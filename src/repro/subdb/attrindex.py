"""Secondary value indexes over interned class extents.

An :class:`AttrIndex` accelerates *intra-class conditions* — the
``employee[salary > 50000]`` selections of the paper's OQL — so that
selecting costs time proportional to the **result**, not the extent.
For one ``(class, attribute)`` pair over one
:class:`~repro.model.interning.InternTable` it maintains:

* a *hash index*: attribute value -> ascending ``array('q')`` of dense
  ids, answering ``=`` (one dict probe) and ``!=`` (complement);
* a *sorted numeric column*: the values that are numbers (``int`` /
  ``float``, with ``bool`` excluded exactly as
  :func:`repro.oql.conditions.compare` excludes it) kept in exact sorted
  order with a parallel dense-id column, answering ``< <= > >=`` with
  two bisections;
* per-type *sorted columns* for orderable non-numeric values (strings),
  answering same-type range comparisons the same way.

Probe answers are **bit-identical** to a scan that calls
``conditions.compare`` per entity.  That contract dictates the odd
corners:

* dict-key equality *is* ``compare(v, "=", lit)`` — Python interns
  ``1 == 1.0 == True`` into one bucket, matching ``==`` exactly;
* ordering against a ``None`` literal is uniformly false, and ``None``
  values appear in no sorted column (ordering against them is false);
* NaN is a number to the type census but equal and ordered to nothing,
  itself included: a NaN value sits in no bucket (a dict would match it
  by identity) and no sorted column (it would break the order
  bisection relies on), so ``!=`` keeps it and everything else drops
  it, and a NaN literal matches nothing but ``!=``;
* a numeric-vs-non-numeric (or cross-type non-numeric) ordering
  comparison raises :class:`~repro.errors.OQLSemanticError` *if any
  entity carries a conflicting value* — the index keeps a type census so
  a probe can report :data:`CONFLICT` without touching entities, and the
  caller decides (by conjunct position) whether that conflict is
  guaranteed to surface under the scan's short-circuit order;
* anything the index cannot mirror exactly (unhashable literals,
  unorderable value types) reports :data:`FALLBACK` and the caller
  scans.

Indexes are *declared* per ``(class, attribute)`` (``\\index add`` in the
shell, or the evaluator's opt-in auto-build heuristic) and owned by an
:class:`AttrIndexStore` inside the universe's
:class:`~repro.subdb.adjindex.CompactStore`, which routes the same
event-granular invalidation path adjacency indexes use: INSERT appends
one posting in place, DELETE drops the victim's postings (its dense id
stays, tombstoned in the intern table, so no other posting moves),
SET_ATTRIBUTE re-buckets exactly one posting, ASSOCIATE/DISSOCIATE touch
nothing, and schema changes clear (declarations survive clears).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from heapq import merge
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.model.interning import InternTable

#: Probe statuses.
OK = "ok"
#: The type census proves a scan would raise ``OQLSemanticError`` on
#: some entity (numeric-vs-non-numeric or cross-type ordering).
CONFLICT = "conflict"
#: The index cannot mirror scan semantics for this probe — caller scans.
FALLBACK = "fallback"

_EMPTY = array("q")


def _is_num(value: Any) -> bool:
    """Numeric for comparison purposes — matches ``conditions.compare``:
    ``bool`` is *not* a number there."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and value != value


class AttrIndex:
    """Hash + sorted-column index for one attribute of one intern table.

    ``values[i]`` is the attribute value of dense id ``i`` (``None``
    when unset), kept as the reverse map SET_ATTRIBUTE maintenance and
    residual re-checks read.  All posting arrays hold dense ids in
    ascending order — probe results compose with CSR join filters by
    sorted-array intersection (:mod:`repro.oql.kernels`).  Ids the
    table has tombstoned (``table.dead``) keep their ``values`` slot
    but sit in no posting, sorted column or census count.
    """

    __slots__ = ("table", "attr", "values", "buckets", "num_values",
                 "num_ids", "typed", "unordered", "none_count", "num_count",
                 "type_counts", "broken", "lent", "_owned")

    def __init__(self, table: InternTable, attr: str,
                 values: List[Any]):
        self.table = table
        self.attr = attr
        self.values = values
        #: value -> ascending dense-id postings (``=`` / ``!=``).
        self.buckets: Dict[Any, array] = {}
        #: Numeric values in exact sorted order + parallel dense ids.
        self.num_values: List[Any] = []
        self.num_ids: array = array("q")
        #: type -> (sorted values, parallel dense ids) for orderable
        #: non-numeric types.
        self.typed: Dict[type, Tuple[list, array]] = {}
        #: Non-numeric types whose values refused to sort — range probes
        #: on them fall back to the scan.
        self.unordered: Set[type] = set()
        self.none_count = 0
        self.num_count = 0
        #: Type census of non-numeric, non-None values (``bool`` is a
        #: type of its own here, as in ``compare``).
        self.type_counts: Dict[type, int] = {}
        #: Set when a value defeats the hash index (unhashable):
        #: every probe then reports :data:`FALLBACK`.
        self.broken = False
        #: Set once a pinned snapshot shares this index: the owning
        #: store then maintains a :meth:`fork`, never this object.
        self.lent = False
        #: Posting-array ownership.  ``None``: every array in
        #: ``buckets`` is this index's own (it built them).  A set: only
        #: the buckets of these values are; every other array is still
        #: shared with the index this one was forked from, and is
        #: copied before its first mutation (:meth:`_private`).
        self._owned: Optional[Set[Any]] = None
        self._build()

    def _build(self) -> None:
        buckets = self.buckets
        num_pairs: List[Tuple[Any, int]] = []
        typed_pairs: Dict[type, List[Tuple[Any, int]]] = {}
        dead = self.table.dead
        for i, value in enumerate(self.values):
            if dead and i in dead:
                continue
            if _is_nan(value):
                self.num_count += 1
                continue
            try:
                postings = buckets.get(value)
                if postings is None:
                    postings = buckets[value] = array("q")
            except TypeError:
                self.broken = True
                return
            postings.append(i)
            if value is None:
                self.none_count += 1
            elif _is_num(value):
                self.num_count += 1
                num_pairs.append((value, i))
            else:
                t = type(value)
                self.type_counts[t] = self.type_counts.get(t, 0) + 1
                typed_pairs.setdefault(t, []).append((value, i))
        try:
            num_pairs.sort()
        except TypeError:  # pragma: no cover - numbers always sort
            self.broken = True
            return
        self.num_values = [v for v, _ in num_pairs]
        self.num_ids = array("q", (i for _, i in num_pairs))
        for t, pairs in typed_pairs.items():
            try:
                pairs.sort()
            except TypeError:
                self.unordered.add(t)
                continue
            self.typed[t] = ([v for v, _ in pairs],
                             array("q", (i for _, i in pairs)))

    def __len__(self) -> int:
        return len(self.values)

    def fork(self) -> "AttrIndex":
        """A private copy for the owning store to go on maintaining
        while snapshots keep probing this one: own value column, sorted
        columns and bucket map — the posting arrays themselves stay
        shared until first written (:attr:`_owned` starts empty)."""
        twin = AttrIndex.__new__(AttrIndex)
        twin.table = self.table
        twin.attr = self.attr
        twin.values = self.values[:]
        twin.buckets = self.buckets.copy()
        twin.num_values = self.num_values[:]
        twin.num_ids = self.num_ids[:]
        twin.typed = {t: (vals[:], ids[:])
                      for t, (vals, ids) in self.typed.items()}
        twin.unordered = set(self.unordered)
        twin.none_count = self.none_count
        twin.num_count = self.num_count
        twin.type_counts = dict(self.type_counts)
        twin.broken = self.broken
        twin.lent = False
        twin._owned = set()
        return twin

    def _private(self, value: Any, postings: array) -> array:
        """``postings`` — the bucket of ``value`` — made safe to mutate:
        an array another index still reads is replaced by a copy."""
        owned = self._owned
        if value not in owned:
            owned.add(value)
            postings = self.buckets[value] = postings[:]
        return postings

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def _ordering_conflict(self, literal: Any) -> bool:
        """True iff some stored value is not type-comparable with
        ``literal`` — i.e. a per-entity scan is guaranteed to raise on
        that entity."""
        if _is_num(literal):
            return bool(self.type_counts)
        if self.num_count:
            return True
        t = type(literal)
        return any(other is not t for other in self.type_counts)

    def probe(self, op: str, literal: Any) -> Tuple[str, Optional[array]]:
        """Answer ``<attr> op literal`` over the whole extent.

        Returns ``(OK, ids)`` with ids ascending, ``(CONFLICT, None)``
        when a scan provably raises ``OQLSemanticError``, or
        ``(FALLBACK, None)`` when the index cannot mirror the scan.
        """
        if self.broken:
            return (FALLBACK, None)
        if op == "=" or op == "!=":
            try:
                postings = self.buckets.get(literal)
            except TypeError:
                return (FALLBACK, None)
            if op == "=":
                return (OK, postings if postings is not None else _EMPTY)
            if not postings:
                return (OK, self._all_ids())
            return (OK, self._complement(postings))
        if op not in ("<", "<=", ">", ">="):
            return (FALLBACK, None)
        if literal is None:
            return (OK, _EMPTY)  # ordering against Null is false
        if self._ordering_conflict(literal):
            return (CONFLICT, None)
        if _is_nan(literal):
            return (OK, _EMPTY)  # ordering against NaN is false
        if _is_num(literal):
            values, ids = self.num_values, self.num_ids
        else:
            t = type(literal)
            if t in self.unordered:
                return (FALLBACK, None)
            pair = self.typed.get(t)
            if pair is None:
                return (OK, _EMPTY)
            values, ids = pair
        lo, hi = _range_bounds(values, op, literal)
        return (OK, array("q", sorted(ids[lo:hi])))

    def cardinality(self, op: str, literal: Any) -> Optional[int]:
        """Exact result cardinality of a probe, or ``None`` when the
        probe would not be answered — the planner's selectivity source
        (no id materialization, just dict/bisect lookups)."""
        if self.broken:
            return None
        n = self.table.live_count
        if op == "=" or op == "!=":
            try:
                postings = self.buckets.get(literal)
            except TypeError:
                return None
            hits = len(postings) if postings is not None else 0
            return hits if op == "=" else n - hits
        if op not in ("<", "<=", ">", ">="):
            return None
        if literal is None:
            return 0
        if self._ordering_conflict(literal):
            return None
        if _is_nan(literal):
            return 0
        if _is_num(literal):
            values = self.num_values
        else:
            t = type(literal)
            if t in self.unordered:
                return None
            pair = self.typed.get(t)
            if pair is None:
                return 0
            values = pair[0]
        lo, hi = _range_bounds(values, op, literal)
        return hi - lo

    def _all_ids(self) -> array:
        if self.table.dead:
            return self.table.live_ids()
        return array("q", range(len(self.values)))

    def _complement(self, postings: array) -> array:
        """The live ids outside ``postings`` (which holds no dead id):
        the gaps between the merged postings and tombstones."""
        dead = self.table.dead
        skip = merge(postings, sorted(dead)) if dead else postings
        out = array("q")
        prev = 0
        for i in skip:
            out.extend(range(prev, i))
            prev = i + 1
        out.extend(range(prev, len(self.values)))
        return out

    # ------------------------------------------------------------------
    # Incremental maintenance (driven by CompactStore event application)
    # ------------------------------------------------------------------

    def append(self, value: Any) -> None:
        """Extend with the value of a freshly inserted object — its
        dense id is ``len(self)`` (intern tables append monotonically),
        so every posting insert lands at the end of its array."""
        i = len(self.values)
        self.values.append(value)
        if self.broken:
            return
        if _is_nan(value):
            self.num_count += 1
            return
        try:
            postings = self.buckets.get(value)
            if postings is None:
                postings = self.buckets[value] = array("q")
        except TypeError:
            self.broken = True
            return
        if self._owned is not None:
            postings = self._private(value, postings)
        postings.append(i)
        self._census_add(value, i, new_id_is_max=True)

    def set_value(self, i: int, value: Any) -> None:
        """Re-bucket dense id ``i`` after a SET_ATTRIBUTE event."""
        old = self.values[i]
        if old is value or (type(old) is type(value) and old == value):
            return
        self.values[i] = value
        if self.broken:
            return
        self._unpost(i, old)
        if _is_nan(value):
            self.num_count += 1
            return
        try:
            postings = self.buckets.get(value)
            if postings is None:
                postings = self.buckets[value] = array("q")
        except TypeError:
            self.broken = True
            return
        if self._owned is not None:
            postings = self._private(value, postings)
        postings.insert(bisect_left(postings, i), i)
        self._census_add(value, i, new_id_is_max=False)

    def remove(self, i: int) -> None:
        """Drop dense id ``i`` — just tombstoned in the table — from its
        bucket, sorted column and census: O(its postings + log n), and
        no other id moves.  Its value slot is cleared (nothing reads a
        dead id's value)."""
        old, self.values[i] = self.values[i], None
        if not self.broken:
            self._unpost(i, old)

    def _unpost(self, i: int, old: Any) -> None:
        """Take id ``i``, holding ``old``, out of the posting structures."""
        if _is_nan(old):
            self.num_count -= 1
            return
        postings = self.buckets[old]
        if self._owned is not None:
            postings = self._private(old, postings)
        postings.pop(bisect_left(postings, i))
        if not postings:
            del self.buckets[old]
        self._census_remove(old, i)

    def _census_add(self, value: Any, i: int, new_id_is_max: bool) -> None:
        if value is None:
            self.none_count += 1
            return
        if _is_num(value):
            self.num_count += 1
            pos = bisect_right(self.num_values, value)
            self.num_values.insert(pos, value)
            self.num_ids.insert(pos, i)
            return
        t = type(value)
        self.type_counts[t] = self.type_counts.get(t, 0) + 1
        if t in self.unordered:
            return
        pair = self.typed.get(t)
        if pair is None:
            self.typed[t] = ([value], array("q", [i]))
            return
        values, ids = pair
        try:
            pos = bisect_right(values, value)
        except TypeError:  # pragma: no cover - defensive
            del self.typed[t]
            self.unordered.add(t)
            return
        values.insert(pos, value)
        ids.insert(pos, i)

    def _census_remove(self, value: Any, i: int) -> None:
        if value is None:
            self.none_count -= 1
            return
        if _is_num(value):
            self.num_count -= 1
            pos = bisect_left(self.num_values, value)
            while self.num_ids[pos] != i:
                pos += 1
            self.num_values.pop(pos)
            self.num_ids.pop(pos)
            return
        t = type(value)
        count = self.type_counts.get(t, 0) - 1
        if count:
            self.type_counts[t] = count
        else:
            self.type_counts.pop(t, None)
        pair = self.typed.get(t)
        if pair is None:
            return
        values, ids = pair
        pos = bisect_left(values, value)
        while ids[pos] != i:
            pos += 1
        values.pop(pos)
        ids.pop(pos)
        if not values:
            del self.typed[t]

    def stats(self) -> Dict[str, Any]:
        return {
            "attr": self.attr,
            "rows": self.table.live_count,
            "distinct": len(self.buckets) if not self.broken else None,
            "numeric": self.num_count,
            "none": self.none_count,
            "other_types": {t.__name__: c
                            for t, c in sorted(self.type_counts.items(),
                                               key=lambda kv: kv[0].__name__)},
            "broken": self.broken,
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"AttrIndex({self.table.key!r}.{self.attr}, "
                f"{self.table.live_count} rows)")


def _range_bounds(values: list, op: str, literal: Any) -> Tuple[int, int]:
    """Bisection bounds of ``value op literal`` over a sorted column —
    exact Python comparisons, so the slice equals the scan's answer."""
    if op == "<":
        return 0, bisect_left(values, literal)
    if op == "<=":
        return 0, bisect_right(values, literal)
    if op == ">":
        return bisect_right(values, literal), len(values)
    return bisect_left(values, literal), len(values)


def _value_column(db, table: InternTable, attr: str) -> List[Any]:
    """``attr`` of every member of ``table`` in dense order, ``None``
    for a tombstoned id (its object is gone from the database)."""
    dead = table.dead
    if not dead:
        return db.attr_column(table.oids, attr)
    oids = table.oids
    live = [i for i in range(len(oids)) if i not in dead]
    column: List[Any] = [None] * len(oids)
    for i, value in zip(live, db.attr_column([oids[i] for i in live],
                                             attr)):
        column[i] = value
    return column


class AttrIndexStore:
    """Declared value indexes of one :class:`CompactStore`.

    Declarations are ``(class name, attribute)`` pairs over *base*
    extents and survive cache clears; built indexes are validated by
    intern-table identity (a replaced or dropped table orphans its
    indexes) and maintained through the owning store's event
    application.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.declared: Set[Tuple[str, str]] = set()
        self._indexes: Dict[Tuple[str, str], AttrIndex] = {}
        #: Build/maintenance counters surfaced by ``\\index stats``.
        self.built = 0
        self.appended = 0
        self.removed = 0
        self.updated = 0

    # -- declarations ---------------------------------------------------

    def declare(self, cls: str, attr: str) -> bool:
        """Declare an index; returns False when already declared."""
        key = (cls, attr)
        if key in self.declared:
            return False
        self.declared.add(key)
        return True

    def drop(self, cls: str, attr: str) -> bool:
        key = (cls, attr)
        self._indexes.pop(key, None)
        if key in self.declared:
            self.declared.remove(key)
            return True
        return False

    def adopt(self, other: "AttrIndexStore") -> int:
        """Share every index ``other`` has built (marking each lent, so
        its owner forks before maintaining it); returns how many."""
        indexes = other._indexes.copy()  # atomic: see CompactStore.adopt
        for index in indexes.values():
            index.lent = True
        self._indexes.update(indexes)
        return len(indexes)

    # -- lookup ---------------------------------------------------------

    def get(self, ref, attr: str) -> Optional[AttrIndex]:
        """The index for ``ref``'s extent and ``attr`` — building it on
        first use — or ``None`` when ``ref`` is not an indexable base
        reference or the pair is undeclared."""
        if ref.subdb is not None:
            return None
        key = (ref.cls, attr)
        if key not in self.declared:
            return None
        store = self.store
        table = store.table(ref)
        cached = self._indexes.get(key)
        if cached is not None and cached.table is table:
            return cached
        index = None
        if store.lender is not None:
            index = store.through_lender(
                lambda live: live.attrs.get(ref, attr),
                lambda index: index.table is table,
                extents=(ref.cls,), attrs=(key,))
        if index is None:
            index = AttrIndex(table, attr, _value_column(store.db, table,
                                                         attr))
            self.built += 1
        self._indexes[key] = index
        return index

    def get_if_ready(self, ref, attr: str) -> Optional[AttrIndex]:
        """The cached valid index, or ``None`` — never builds."""
        if ref.subdb is not None or not self.store.in_sync:
            return None
        cached = self._indexes.get((ref.cls, attr))
        if cached is None:
            return None
        table = self.store.interner.get(("base", ref.cls))
        if table is None or cached.table is not table:
            return None
        return cached

    # -- event application (called by CompactStore._apply) --------------

    def apply_insert(self, attrs: Dict[str, Any],
                     appended: Dict[int, InternTable]) -> None:
        """``attrs``: the inserted object's attribute values by name."""
        for key, index in self._indexes.items():
            if id(index.table) in appended:
                if index.lent:
                    index = self._fork(key, index)
                index.append(attrs.get(index.attr))
                self.appended += 1

    def apply_delete(self,
                     killed: Dict[int, Tuple[InternTable, int]]) -> None:
        """``killed``: id(table) -> (table, the id it just tombstoned)."""
        for key, index in self._indexes.items():
            hit = killed.get(id(index.table))
            if hit is None:
                continue
            if index.lent:
                index = self._fork(key, index)
            index.remove(hit[1])
            self.removed += 1

    def apply_set_attribute(self, payload: Dict[str, Any]) -> None:
        name = payload.get("name")
        oid_value = payload.get("oid")
        for key, index in self._indexes.items():
            if index.attr != name:
                continue
            dense = index.table.index.get(oid_value)
            if dense is not None:
                if index.lent:
                    index = self._fork(key, index)
                index.set_value(dense, payload.get("value"))
                self.updated += 1

    def _fork(self, key: Tuple[str, str], index: AttrIndex) -> AttrIndex:
        """Swap a lent index for a private fork before maintaining it:
        the snapshots that share ``index`` keep it as it is."""
        index = self._indexes[key] = index.fork()
        self.store.forked += 1
        return index

    def repoint(self, old: InternTable, new: InternTable) -> None:
        """The owning store forked intern table ``old`` into ``new``:
        the indexes over it follow (a lent one as a fork of its own)."""
        for key, index in self._indexes.items():
            if index.table is old:
                if index.lent:
                    index = self._fork(key, index)
                index.table = new

    def purge_tables(self, dropped_keys: Set[Any]) -> None:
        stale = [key for key, index in self._indexes.items()
                 if index.table.key in dropped_keys]
        for key in stale:
            del self._indexes[key]

    def clear(self) -> None:
        """Drop every built index (declarations survive)."""
        self._indexes.clear()

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> List[Dict[str, Any]]:
        out = []
        for cls, attr in sorted(self.declared):
            built = self._indexes.get((cls, attr))
            entry: Dict[str, Any] = {"cls": cls, "attr": attr,
                                     "built": built is not None}
            if built is not None:
                entry.update(built.stats())
            out.append(entry)
        return out
