"""Extensional association patterns and pattern types.

An extensional pattern is a network of instances and their associations; in
addition to its graphical representation it can be represented as a tuple
of OIDs (paper, Section 3.1).  A component may be ``None`` (the paper's
Null): the pattern ``(t3, s4)`` of Figure 3.1b has a Null Course component
and is of type ``(Teacher, Section)``.

An *extensional pattern type* is the common template shared by several
patterns — a tuple of class names; the type of a pattern is the tuple of
slot names at which it is non-null.

The subsumption rule of Section 5.1 ("an extensional pattern of a certain
specified type will not appear independently in the result if it is part
of a larger extensional pattern") is implemented by :func:`covers` and
:func:`subsume`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.oid import OID


class PatternType:
    """A tuple of slot names: the template shared by several patterns."""

    __slots__ = ("slots",)

    def __init__(self, slots: Iterable[str]):
        self.slots = tuple(slots)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PatternType):
            return self.slots == other.slots
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    def __repr__(self) -> str:
        return f"({', '.join(self.slots)})"


class ExtensionalPattern:
    """A tuple of OIDs (with Nulls) aligned to an intension's slot list."""

    __slots__ = ("values", "_nn", "_h")

    def __init__(self, values: Sequence[Optional[OID]]):
        self.values = tuple(values)
        self._nn: Optional[Tuple[int, ...]] = None
        self._h: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtensionalPattern):
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        # Hashing the raw integer values (not the OID objects) keeps the
        # hash consistent with ``__eq__`` — OIDs compare by value — while
        # letting compactly-built patterns precompute it without ever
        # touching an OID; it is cached because pattern sets are unioned,
        # differenced, and re-subsumed many times per derivation.
        h = self._h
        if h is None:
            h = self._h = hash(tuple(
                None if v is None else v.value for v in self.values))
        return h

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Optional[OID]:
        return self.values[index]

    def __iter__(self):
        return iter(self.values)

    @property
    def non_null_indices(self) -> Tuple[int, ...]:
        """Slot indices at which the pattern has an object (cached —
        the subsumption index probes this on every comparison)."""
        nn = self._nn
        if nn is None:
            nn = self._nn = tuple(i for i, v in enumerate(self.values)
                                  if v is not None)
        return nn

    @property
    def arity(self) -> int:
        """Number of non-null components."""
        return len(self.non_null_indices)

    def type_of(self, slot_names: Sequence[str]) -> PatternType:
        """The pattern's type, given the subdatabase's slot names."""
        return PatternType(slot_names[i] for i in self.non_null_indices)

    def project(self, indices: Sequence[int]) -> "ExtensionalPattern":
        """A new pattern keeping only the given slots, in the given order."""
        return ExtensionalPattern([self.values[i] for i in indices])

    def pad(self, old_to_new: Sequence[int],
            new_width: int) -> "ExtensionalPattern":
        """Re-align this pattern into a wider slot list.

        ``old_to_new[i]`` is the index in the new slot list at which this
        pattern's slot ``i`` lands; all other new slots become Null.  Used
        when subdatabases with different intensions are unioned (rules R4
        and R5 both deriving May_teach).
        """
        values: List[Optional[OID]] = [None] * new_width
        for old_index, new_index in enumerate(old_to_new):
            values[new_index] = self.values[old_index]
        return ExtensionalPattern(values)

    def key(self) -> Tuple[Tuple[int, int], ...]:
        """A canonical hashable summary: ((slot, oid-value), ...) over the
        non-null slots — used by the subsumption index."""
        return tuple((i, v.value) for i, v in enumerate(self.values)
                     if v is not None)

    def __repr__(self) -> str:
        parts = ["Null" if v is None else repr(v) for v in self.values]
        return f"({', '.join(parts)})"


IntRow = Tuple[Optional[int], ...]


def subsume_rows(rows: Iterable[IntRow]) -> Set[IntRow]:
    """The subsumption rule over interned rows (compact twin of
    :func:`subsume`).

    Rows are tuples of dense ids with ``None`` for Null slots — all
    comparisons and hashes are C-level int operations, which is where
    set-based subsumption of loop hierarchies spends most of its time.
    The kept set is identical (slot-for-slot) to what :func:`subsume`
    keeps on the decoded patterns, because within one evaluation the
    id <-> OID mapping is bijective per slot.
    """
    unique = set(rows)
    arities = {sum(1 for v in row if v is not None) for row in unique}
    if len(arities) <= 1:
        return unique
    nn: Dict[IntRow, Tuple[int, ...]] = {
        row: tuple(i for i, v in enumerate(row) if v is not None)
        for row in unique}
    ordered = sorted(unique, key=lambda row: -len(nn[row]))
    kept: List[IntRow] = []
    index: Dict[Tuple[int, int], List[IntRow]] = {}
    for row in ordered:
        indices = nn[row]
        if indices:
            lists = [index.get((i, row[i])) for i in indices]
            if any(entry is None for entry in lists):
                candidates: Sequence[IntRow] = ()
            else:
                candidates = min(lists, key=len)
        else:
            candidates = kept
        arity = len(indices)
        if any(len(nn[big]) > arity
               and all(big[i] == row[i] for i in indices)
               for big in candidates):
            continue
        kept.append(row)
        for i in indices:
            index.setdefault((i, row[i]), []).append(row)
    return set(kept)


def covers(larger: ExtensionalPattern, smaller: ExtensionalPattern) -> bool:
    """True if ``smaller`` is part of ``larger``: wherever ``smaller`` has
    an object, ``larger`` has the same object, and ``larger`` has strictly
    more objects."""
    if larger.arity <= smaller.arity:
        return False
    for index in smaller.non_null_indices:
        if larger.values[index] != smaller.values[index]:
            return False
    return True


def subsume(patterns: Iterable[ExtensionalPattern]
            ) -> Set[ExtensionalPattern]:
    """Apply the paper's subsumption rule to a pattern set.

    Keeps every pattern that is not part of a larger *kept* pattern.
    Because "part of" is transitive through nesting levels, processing in
    decreasing arity order and indexing kept patterns by slot suffices:
    a candidate is dropped iff some larger kept pattern agrees with it on
    all of its non-null slots.
    """
    unique = set(patterns)
    if len({p.arity for p in unique}) <= 1:
        # Uniform arity (e.g. a plain chain without braces): covers()
        # requires strictly more components, so nothing can subsume.
        return unique
    ordered = sorted(unique, key=lambda p: -p.arity)
    kept: List[ExtensionalPattern] = []
    # Index kept patterns by every (slot, oid) component.  A cover must
    # agree with the candidate on each of its non-null slots, so it is
    # present in all of those slots' lists — probing the *shortest* one
    # keeps the comparison set small even when one component is shared
    # by every pattern (e.g. a selective filter pinning one slot to a
    # single object).
    index: dict[Tuple[int, int], List[ExtensionalPattern]] = {}
    for pattern in ordered:
        nn = pattern.non_null_indices
        if nn:
            lists = [index.get((i, pattern.values[i].value))
                     for i in nn]
            if any(entry is None for entry in lists):
                candidates: Sequence[ExtensionalPattern] = ()
            else:
                candidates = min(lists, key=len)
        else:
            candidates = kept
        if any(covers(big, pattern) for big in candidates):
            continue
        kept.append(pattern)
        for i in nn:
            index.setdefault((i, pattern.values[i].value), []).append(pattern)
    return set(kept)
