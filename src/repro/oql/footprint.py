"""Static read footprints: what a context expression can observe.

The paper's result-oriented control re-evaluates a derived subdatabase
when *the data it was derived from* is updated (Section 6).  A
:class:`Footprint` names that data exactly, from the AST alone:

* ``extents`` — the classes whose membership the expression reads;
* ``links`` — the association keys every ``*``, ``!``, brace and loop
  edge resolves to;
* ``attrs`` — the ``(class, attribute)`` pairs read by intra-class
  conditions, Where comparisons and aggregates;
* ``everything`` — the wildcard (:data:`ALL`) for what cannot be named:
  a subdatabase no rule derives, or a value rendered from arbitrary
  attributes.

:class:`~repro.model.database.Database` keeps one stamp per extent,
link and attribute; ``db.version_vector(footprint)`` is the
invalidation key of anything computed from the footprint, and
``footprint.touched_by(event)`` is the event-time relevance test.  Every
dependency question in the system — rule relevance, derive memo,
result cache, plan memo, subscription wake-ups, snapshot
tokens — is answered by these two calls.

A footprint is computed once per rule or query (:func:`footprint_of`,
one walk over the class terms) and composed through the rule graph for ``Sub:Class``
references by the caller-supplied ``subdb_footprint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Iterator, Tuple

from repro.errors import SchemaError
from repro.model.database import UpdateEvent, UpdateKind
from repro.model.schema import Schema
from repro.oql.ast import (
    AggComparison,
    AttrRef,
    BoolOp,
    Chain,
    ClassTerm,
    Comparison,
    NotOp,
    WhereCond,
)
from repro.subdb.refs import ClassRef

#: ``(class, name)`` — an association key or a descriptive attribute.
Pair = Tuple[str, str]


@dataclass(frozen=True)
class Footprint:
    """The extents, links and attributes a computation reads."""

    extents: FrozenSet[str] = frozenset()
    links: FrozenSet[Pair] = frozenset()
    attrs: FrozenSet[Pair] = frozenset()
    everything: bool = False
    #: ``(extents, links, attrs)`` as sorted tuples — the fixed order a
    #: version vector over this footprint is laid out in.
    order: Tuple[Tuple[str, ...], Tuple[Pair, ...], Tuple[Pair, ...]] = \
        field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", (tuple(sorted(self.extents)),
                                           tuple(sorted(self.links)),
                                           tuple(sorted(self.attrs))))

    def __or__(self, other: "Footprint") -> "Footprint":
        if self.everything or other.everything:
            return ALL
        return Footprint(self.extents | other.extents,
                         self.links | other.links,
                         self.attrs | other.attrs)

    def near(self, event: UpdateEvent) -> bool:
        """Whether ``event`` wrote to a class this footprint reads —
        the class-level test :meth:`touched_by` refines."""
        return self.everything or not self.extents.isdisjoint(event.classes)

    def touched_by(self, event: UpdateEvent) -> bool:
        """Whether ``event`` can change anything computed from this
        footprint.  INSERT/DELETE are tested at class level (a fresh
        object can complete a brace match; a deleted one takes its
        links along, and both ends of every link read are extents
        here); ASSOCIATE/DISSOCIATE by link key; SET_ATTRIBUTE by the
        written attribute seen from the object's class closure.  SCHEMA
        and malformed events touch everything."""
        if self.everything:
            return True
        kind = event.kind
        if kind is UpdateKind.INSERT or kind is UpdateKind.DELETE:
            return self.near(event)
        if kind is UpdateKind.ASSOCIATE or kind is UpdateKind.DISSOCIATE:
            return event.link is None or event.link in self.links
        if kind is UpdateKind.SET_ATTRIBUTE:
            name = (event.payload or {}).get("name")
            if name is None:
                return True
            attrs = self.attrs
            return any((cls, name) in attrs for cls in event.classes)
        if kind is UpdateKind.BATCH and event.sub_events:
            return any(self.touched_by(sub) for sub in event.sub_events)
        return True

    def describe(self) -> str:
        """``extents: … links: … attrs: …`` (``ALL`` for the wildcard)."""
        if self.everything:
            return "ALL"
        extents, links, attrs = self.order
        dotted = lambda pairs: ", ".join(f"{c}.{n}" for c, n in pairs)
        return (f"extents: {', '.join(extents) or '-'} "
                f"links: {dotted(links) or '-'} "
                f"attrs: {dotted(attrs) or '-'}")


#: Reads nothing.
EMPTY = Footprint()
#: Reads what cannot be named: moved by every event.
ALL = Footprint(everything=True)


def everything(_name: str) -> Footprint:
    """The ``subdb_footprint`` of a caller without a rule graph: any
    derived reference makes the footprint :data:`ALL`."""
    return ALL


def chain_terms(chain: Chain) -> Iterator[ClassTerm]:
    """Every class term of a chain, brace groups flattened, slot order."""
    for element in chain.elements:
        if isinstance(element, Chain):
            yield from chain_terms(element)
        else:
            yield element


def _condition_attrs(cond, cls: str) -> Iterator[Pair]:
    """The attributes a condition tree reads; an unqualified reference
    belongs to ``cls`` (the class an intra-class condition hangs on)."""
    if isinstance(cond, Comparison):
        for operand in (cond.left, cond.right):
            if isinstance(operand, AttrRef):
                owner = operand.owner.cls if operand.owner else cls
                if owner is not None:
                    yield (owner, operand.attr)
    elif isinstance(cond, BoolOp):
        for item in cond.items:
            yield from _condition_attrs(item, cls)
    elif isinstance(cond, NotOp):
        yield from _condition_attrs(cond.item, cls)
    elif isinstance(cond, AggComparison) and cond.attr is not None:
        yield (cond.target.cls, cond.attr)


def where_refs(cond) -> Iterator[ClassRef]:
    """Every class reference one Where condition mentions."""
    if isinstance(cond, AggComparison):
        yield cond.target
        yield cond.by
    elif isinstance(cond, Comparison):
        for operand in (cond.left, cond.right):
            if isinstance(operand, AttrRef) and operand.owner is not None:
                yield operand.owner
    elif isinstance(cond, BoolOp):
        for item in cond.items:
            yield from where_refs(item)
    elif isinstance(cond, NotOp):
        yield from where_refs(cond.item)


def footprint_of(terms: Iterable[ClassTerm], where: Iterable[WhereCond],
                 schema: Schema,
                 subdb_footprint: Callable[[str], Footprint] = everything
                 ) -> Footprint:
    """The footprint of a context expression (its class terms in slot
    order, see :func:`chain_terms`) plus Where subclause.

    A base reference contributes its extent; consecutive references
    contribute the base link the schema resolves between their classes
    (a loop re-traverses the same edges at every level; an edge the
    schema cannot resolve makes evaluation raise, so it reads nothing);
    conditions contribute the attributes they compare.  A ``Sub:Class``
    reference contributes ``subdb_footprint(Sub)`` — the engine passes
    its transitive per-target footprints, a bare evaluator the
    :func:`everything` default.
    """
    terms = list(terms)
    extents, links, attrs = set(), set(), set()
    derived = set()
    for term in terms:
        ref = term.ref
        if ref.subdb is None:
            extents.add(ref.cls)
        else:
            derived.add(ref.subdb)
        if term.condition is not None:
            attrs.update(_condition_attrs(term.condition, ref.cls))
    for left, right in zip(terms, terms[1:]):
        try:
            resolved = schema.resolve_link(left.ref.cls, right.ref.cls)
        except SchemaError:
            continue
        if resolved.kind != "identity":
            links.add(resolved.link.key)
    for cond in where:
        attrs.update(_condition_attrs(cond, None))
        derived.update(ref.subdb for ref in where_refs(cond)
                       if ref.subdb is not None)
    out = Footprint(frozenset(extents), frozenset(links), frozenset(attrs))
    for name in sorted(derived):
        out |= subdb_footprint(name)
    return out
