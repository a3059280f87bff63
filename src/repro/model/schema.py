"""The S-diagram: a network of object classes and their associations.

A database schema is represented in OSAM* as a network of associated object
classes (paper, Section 2).  :class:`Schema` is the single source of truth
for that network: it registers E-classes and D-classes, aggregation links
(descriptive attributes and entity associations) and generalization links,
and answers the structural questions the query/rule languages need:

* the transitive superclass / subclass closure,
* the descriptive attributes visible from a class (own + inherited),
* the *full inherited view* of a class — every aggregation link that
  connects to or emanates from the class or any of its superclasses
  (Figure 2.2 of the paper, the class ``RA`` with all inherited
  associations explicitly represented),
* resolution of the association between two classes referenced by the
  association operator ``*``, walking generalization paths and detecting
  the ambiguity of the paper's ``TA * Section`` example.

Every instance write asks the S-diagram the same few questions (the
class's generalization closure, the attributes and the association it
inherits), and the schema changes rarely.  So the answers are kept in a
memo that lives until the next edit: every edit is a :class:`Schema`
method, and each one replaces the memo once it is over.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional, Set,
                    Tuple)

from repro.errors import (
    AmbiguousPathError,
    DuplicateAssociationError,
    DuplicateClassError,
    GeneralizationCycleError,
    NoAssociationError,
    SchemaError,
    UnknownAssociationError,
    UnknownAttributeError,
    UnknownClassError,
)
from repro.model.associations import (
    Aggregation,
    AssociationKind,
    CrossproductClass,
    Generalization,
    InheritedAggregation,
    InteractionClass,
)
from repro.model.dclass import DClass
from repro.model.eclass import EClass


@dataclass(frozen=True)
class ResolvedLink:
    """The outcome of resolving the association between two class names.

    ``kind`` is ``"aggregation"`` when an (own or inherited) aggregation
    link connects the two classes, in which case ``link`` is the stored
    link and ``a_is_owner`` tells whether the *first* class of the resolved
    pair stands at the link's emanating (owner) end.

    ``kind`` is ``"identity"`` when the two classes are related by
    generalization: the semantics implied is that an instance of the one is
    the very same real-world object as an instance of the other (paper,
    Section 3.2), so the extensional match is OID equality.
    """

    kind: str
    link: Optional[Aggregation] = None
    a_is_owner: bool = True

    def __str__(self) -> str:
        if self.kind == "identity":
            return "<identity (generalization) link>"
        arrow = "->" if self.a_is_owner else "<-"
        return f"<{self.link.name} {arrow}>"


class _Memo:
    """The answers between two schema edits, filled on first ask.

    A lookup stores its answer into the dict it read from, so an answer
    computed while an edit is under way lands in the memo that edit
    discards, never in its successor."""

    __slots__ = ("superclasses", "subclasses", "up", "down", "attributes",
                 "associations", "compositions")

    def __init__(self):
        self.superclasses: Dict[str, FrozenSet[str]] = {}
        self.subclasses: Dict[str, FrozenSet[str]] = {}
        self.up: Dict[str, FrozenSet[str]] = {}
        self.down: Dict[str, FrozenSet[str]] = {}
        self.attributes: Dict[str, Mapping[str, Aggregation]] = {}
        self.associations: Dict[Tuple[str, str], Optional[Aggregation]] = {}
        self.compositions: Dict[str, Tuple[Aggregation, ...]] = {}


class Schema:
    """A network of E-classes, D-classes and their A/G associations."""

    def __init__(self, name: str = "schema"):
        self.name = name
        self._eclasses: Dict[str, EClass] = {}
        self._dclasses: Dict[str, DClass] = {}
        #: Aggregation links keyed by (owner, attribute-name).
        self._aggregations: Dict[Tuple[str, str], Aggregation] = {}
        #: Direct generalization edges: superclass -> set of subclasses.
        self._subclasses: Dict[str, Set[str]] = {}
        #: Direct generalization edges: subclass -> set of superclasses.
        self._superclasses: Dict[str, Set[str]] = {}
        #: Interaction (I) class declarations, keyed by class name.
        self._interactions: Dict[str, InteractionClass] = {}
        #: Crossproduct (X) class declarations, keyed by class name.
        self._crossproducts: Dict[str, CrossproductClass] = {}
        self._memo = _Memo()

    @contextmanager
    def _edit(self):
        """Wrap one schema edit — the memo's only invalidation point.
        The memo is replaced once the edit is over (also when it fails
        half-way), never while it runs."""
        try:
            yield
        finally:
            self._memo = _Memo()

    @property
    def generation(self) -> object:
        """An object that every edit replaces (compare it by identity):
        it lets a cache over schema answers notice a plain edit, which
        moves no database stamp."""
        return self._memo

    # ------------------------------------------------------------------
    # Schema construction
    # ------------------------------------------------------------------

    def add_eclass(self, name: str, doc: str = "") -> EClass:
        """Define an entity class (a rectangular node of the S-diagram)."""
        if name in self._eclasses or name in self._dclasses:
            raise DuplicateClassError(f"class {name!r} already defined")
        eclass = EClass(name, doc)
        with self._edit():
            self._eclasses[name] = eclass
            self._subclasses.setdefault(name, set())
            self._superclasses.setdefault(name, set())
        return eclass

    def add_dclass(self, dclass: DClass) -> DClass:
        """Register a domain class (a circular node of the S-diagram)."""
        if dclass.name in self._dclasses or dclass.name in self._eclasses:
            raise DuplicateClassError(f"class {dclass.name!r} already defined")
        with self._edit():
            self._dclasses[dclass.name] = dclass
        return dclass

    def add_attribute(self, owner: str, name: str, domain: DClass | str,
                      required: bool = False) -> Aggregation:
        """Define a descriptive attribute: an aggregation link from an
        E-class to a D-class.

        ``domain`` may be a :class:`DClass` (registered on first use) or
        the name of one already registered.
        """
        self._require_eclass(owner)
        if isinstance(domain, DClass):
            if domain.name not in self._dclasses:
                self.add_dclass(domain)
            domain_name = domain.name
        else:
            if domain not in self._dclasses:
                raise UnknownClassError(f"unknown D-class {domain!r}")
            domain_name = domain
        link = Aggregation(owner=owner, name=name, target=domain_name,
                           many=False, required=required)
        with self._edit():
            self._store_aggregation(link)
        return link

    def add_association(self, owner: str, target: str,
                        name: Optional[str] = None, many: bool = True,
                        required: bool = False) -> Aggregation:
        """Define an entity association: an aggregation link between two
        E-classes.

        Per the paper, the link takes the name of the class it connects to
        unless a different ``name`` is given (e.g. ``Major`` from
        ``Student`` to ``Department``).
        """
        self._require_eclass(owner)
        self._require_eclass(target)
        link = Aggregation(owner=owner, name=name or target, target=target,
                           many=many, required=required)
        with self._edit():
            self._store_aggregation(link)
        return link

    def add_composition(self, owner: str, target: str,
                        name: Optional[str] = None,
                        many: bool = True,
                        required: bool = False) -> Aggregation:
        """Define a composition (C) link: ``target`` instances are
        *exclusive parts* of one ``owner`` instance.

        The database layer enforces the exclusivity (a part may be
        linked to at most one whole through this link) and cascades
        deletion of the whole to its parts.
        """
        self._require_eclass(owner)
        self._require_eclass(target)
        link = Aggregation(owner=owner, name=name or target,
                           target=target, many=many, required=required,
                           kind=AssociationKind.COMPOSITION)
        with self._edit():
            self._store_aggregation(link)
        return link

    def declare_interaction(self, cls: str,
                            participants: Iterable[str]
                            ) -> InteractionClass:
        """Declare ``cls`` an interaction (I) class over ``participants``.

        One single-valued, required link per participant is created
        (named after the participant, lower-cased); every instance of
        ``cls`` must relate exactly one instance of each participant —
        audited by :func:`repro.model.validation.check_database`.
        """
        self._require_eclass(cls)
        participants = tuple(participants)
        if len(participants) < 2:
            raise SchemaError(
                f"interaction class {cls!r} needs at least two "
                f"participants")
        with self._edit():
            for participant in participants:
                self._require_eclass(participant)
                self._store_aggregation(Aggregation(
                    owner=cls, name=participant.lower(), target=participant,
                    many=False, required=True,
                    kind=AssociationKind.INTERACTION))
            declaration = InteractionClass(cls, participants)
            self._interactions[cls] = declaration
        return declaration

    def declare_crossproduct(self, cls: str,
                             components: Iterable[str]
                             ) -> CrossproductClass:
        """Declare ``cls`` a crossproduct (X) class over ``components``.

        Instances are unique combinations of one instance per component;
        the database layer rejects a link that would complete a
        duplicate combination.
        """
        self._require_eclass(cls)
        components = tuple(components)
        if len(components) < 2:
            raise SchemaError(
                f"crossproduct class {cls!r} needs at least two "
                f"components")
        with self._edit():
            for component in components:
                self._require_eclass(component)
                self._store_aggregation(Aggregation(
                    owner=cls, name=component.lower(), target=component,
                    many=False, required=True,
                    kind=AssociationKind.CROSSPRODUCT))
            declaration = CrossproductClass(cls, components)
            self._crossproducts[cls] = declaration
        return declaration

    def restore_aggregation(self, link: Aggregation) -> Aggregation:
        """Store an entity link exactly as it was saved, kind included —
        how a reload re-creates an I or X link that outlived its
        declaration (another participant's link was dropped)."""
        self._require_eclass(link.owner)
        self._require_eclass(link.target)
        with self._edit():
            self._store_aggregation(link)
        return link

    def interaction_of(self, cls: str) -> Optional[InteractionClass]:
        return self._interactions.get(cls)

    def crossproduct_of(self, cls: str) -> Optional[CrossproductClass]:
        return self._crossproducts.get(cls)

    @property
    def interactions(self) -> List[InteractionClass]:
        return [self._interactions[k] for k in sorted(self._interactions)]

    @property
    def crossproducts(self) -> List[CrossproductClass]:
        return [self._crossproducts[k]
                for k in sorted(self._crossproducts)]

    def add_subclass(self, superclass: str, subclass: str) -> Generalization:
        """Define a generalization link (``subclass`` G-linked under
        ``superclass``).  Multiple superclasses are allowed — the paper's
        ``TA`` is a subclass of both ``Grad`` and ``Teacher``."""
        self._require_eclass(superclass)
        self._require_eclass(subclass)
        if superclass == subclass or subclass in self.superclasses(superclass):
            raise GeneralizationCycleError(
                f"generalization {superclass} -> {subclass} would create "
                f"a cycle")
        with self._edit():
            self._subclasses[superclass].add(subclass)
            self._superclasses[subclass].add(superclass)
        return Generalization(superclass, subclass)

    def _store_aggregation(self, link: Aggregation) -> None:
        if link.key in self._aggregations:
            raise DuplicateAssociationError(
                f"class {link.owner!r} already has an aggregation link "
                f"named {link.name!r}")
        self._aggregations[link.key] = link

    # ------------------------------------------------------------------
    # Schema evolution (the extension is migrated by
    # :mod:`repro.model.evolution`, which calls these)
    # ------------------------------------------------------------------

    def drop_aggregation(self, owner: str, name: str) -> Aggregation:
        """Remove the aggregation link ``owner.name`` and return it.  An
        interaction or crossproduct declaration of ``owner`` that the
        link belongs to goes with it."""
        link = self.aggregation(owner, name)
        with self._edit():
            del self._aggregations[link.key]
            declaration = self._interactions.get(owner)
            if declaration and name in [p.lower()
                                        for p in declaration.participants]:
                del self._interactions[owner]
            declaration = self._crossproducts.get(owner)
            if declaration and name in [c.lower()
                                        for c in declaration.components]:
                del self._crossproducts[owner]
        return link

    def drop_eclass(self, name: str) -> None:
        """Remove an E-class that has no subclasses and that no
        aggregation link touches; its own generalization edges go with
        it."""
        subclasses = self.direct_subclasses(name)
        if subclasses:
            raise SchemaError(
                f"class {name!r} has subclasses {sorted(subclasses)}; "
                f"drop them first")
        touching = [str(link) for link in self.aggregations()
                    if link.owner == name or link.target == name]
        if touching:
            raise SchemaError(
                f"class {name!r} is referenced by {touching}; drop those "
                f"links first")
        with self._edit():
            for superclass in self._superclasses.pop(name):
                self._subclasses[superclass].discard(name)
            del self._subclasses[name]
            del self._eclasses[name]

    def drop_subclass(self, superclass: str, subclass: str) -> None:
        """Remove the direct generalization edge ``superclass ->
        subclass``."""
        if subclass not in self._subclasses.get(superclass, ()):
            raise SchemaError(
                f"{subclass!r} is not a direct subclass of {superclass!r}")
        with self._edit():
            self._subclasses[superclass].discard(subclass)
            self._superclasses[subclass].discard(superclass)

    def rename_attribute(self, owner: str, old: str,
                         new: str) -> Aggregation:
        """Rename the descriptive attribute ``owner.old`` to ``new`` and
        return the renamed link."""
        link = self._aggregations.get((owner, old))
        if link is None or link.target not in self._dclasses:
            raise UnknownAssociationError(
                f"class {owner!r} has no descriptive attribute {old!r}")
        if (owner, new) in self._aggregations:
            raise SchemaError(
                f"class {owner!r} already has a link named {new!r}")
        renamed = replace(link, name=new)
        with self._edit():
            del self._aggregations[link.key]
            self._aggregations[renamed.key] = renamed
        return renamed

    def _require_eclass(self, name: str) -> EClass:
        try:
            return self._eclasses[name]
        except KeyError:
            raise UnknownClassError(f"unknown E-class {name!r}") from None

    # ------------------------------------------------------------------
    # Basic lookups
    # ------------------------------------------------------------------

    def eclass(self, name: str) -> EClass:
        """The :class:`EClass` named ``name`` (raises if unknown)."""
        return self._require_eclass(name)

    def dclass(self, name: str) -> DClass:
        try:
            return self._dclasses[name]
        except KeyError:
            raise UnknownClassError(f"unknown D-class {name!r}") from None

    def has_eclass(self, name: str) -> bool:
        return name in self._eclasses

    @property
    def eclass_names(self) -> List[str]:
        return sorted(self._eclasses)

    @property
    def dclass_names(self) -> List[str]:
        return sorted(self._dclasses)

    def aggregations(self) -> List[Aggregation]:
        """All stored aggregation links, in a stable order."""
        return [self._aggregations[k] for k in sorted(self._aggregations)]

    def aggregation(self, owner: str, name: str) -> Aggregation:
        """The aggregation link stored as ``owner.name`` (not inherited;
        raises if there is none)."""
        try:
            return self._aggregations[(owner, name)]
        except KeyError:
            raise UnknownAssociationError(
                f"class {owner!r} has no aggregation link {name!r}") from None

    def generalizations(self) -> List[Generalization]:
        """All direct generalization edges, in a stable order."""
        return [Generalization(sup, sub)
                for sup in sorted(self._subclasses)
                for sub in sorted(self._subclasses[sup])]

    # ------------------------------------------------------------------
    # Generalization closure
    # ------------------------------------------------------------------

    def superclasses(self, name: str) -> FrozenSet[str]:
        """All transitive superclasses of ``name`` (not including it)."""
        memo = self._memo.superclasses
        out = memo.get(name)
        if out is None:
            out = memo[name] = self._closure(self._superclasses, name)
        return out

    def subclasses(self, name: str) -> FrozenSet[str]:
        """All transitive subclasses of ``name`` (not including it)."""
        memo = self._memo.subclasses
        out = memo.get(name)
        if out is None:
            out = memo[name] = self._closure(self._subclasses, name)
        return out

    def _closure(self, edges: Dict[str, Set[str]],
                 name: str) -> FrozenSet[str]:
        """Everything reachable from ``name`` along ``edges`` — the one
        walk of the G-graph, made once per class and direction between
        two schema edits."""
        self._require_eclass(name)
        out: Set[str] = set()
        frontier = list(edges.get(name, ()))
        while frontier:
            cls = frontier.pop()
            if cls not in out:
                out.add(cls)
                frontier.extend(edges.get(cls, ()))
        return frozenset(out)

    def up(self, name: str) -> FrozenSet[str]:
        """``name`` together with all its transitive superclasses."""
        memo = self._memo.up
        out = memo.get(name)
        if out is None:
            out = memo[name] = self.superclasses(name) | {name}
        return out

    def down(self, name: str) -> FrozenSet[str]:
        """``name`` together with all its transitive subclasses."""
        memo = self._memo.down
        out = memo.get(name)
        if out is None:
            out = memo[name] = self.subclasses(name) | {name}
        return out

    def direct_subclasses(self, name: str) -> FrozenSet[str]:
        """The classes G-linked directly under ``name``."""
        self._require_eclass(name)
        return frozenset(self._subclasses[name])

    def is_subclass_of(self, sub: str, sup: str) -> bool:
        """True if ``sub`` equals ``sup`` or is a transitive subclass."""
        return sub == sup or sup in self.superclasses(sub)

    def related_by_generalization(self, a: str, b: str) -> bool:
        """True if one class is a (transitive) sub/superclass of the other
        (or they are the same class) — the identity-link relation."""
        return self.is_subclass_of(a, b) or self.is_subclass_of(b, a)

    # ------------------------------------------------------------------
    # Attribute visibility
    # ------------------------------------------------------------------

    def descriptive_attributes(self, name: str) -> Mapping[str, Aggregation]:
        """The descriptive attributes visible from class ``name``, as a
        read-only mapping.

        A class inherits all aggregation links of its superclasses; links
        defined on the class itself shadow inherited ones of the same
        name.  Only links to D-classes are descriptive attributes.
        """
        memo = self._memo.attributes
        out = memo.get(name)
        if out is None:
            attrs: Dict[str, Aggregation] = {}
            # Walk from the most remote superclasses down so nearer
            # definitions shadow farther ones.
            for cls in self._linearized_ancestry(name):
                for (owner, attr), link in self._aggregations.items():
                    if owner == cls and link.target in self._dclasses:
                        attrs[attr] = link
            out = memo[name] = MappingProxyType(attrs)
        return out

    def attribute(self, cls: str, name: str) -> Aggregation:
        """The descriptive attribute ``name`` as visible from ``cls``."""
        attrs = self.descriptive_attributes(cls)
        try:
            return attrs[name]
        except KeyError:
            raise UnknownAttributeError(
                f"class {cls!r} has no descriptive attribute {name!r} "
                f"(visible: {sorted(attrs)})") from None

    def _linearized_ancestry(self, name: str) -> List[str]:
        """Superclasses before subclasses, ending at ``name`` itself."""
        supers = self.superclasses(name)
        # Order ancestors so that a class appears after all its own
        # superclasses (reverse topological order of the G-hierarchy).
        ordered: List[str] = []
        remaining = set(supers)
        while remaining:
            progressed = False
            for cls in sorted(remaining):
                if self.superclasses(cls) <= set(ordered):
                    ordered.append(cls)
                    remaining.discard(cls)
                    progressed = True
            if not progressed:  # pragma: no cover - cycles are rejected at add
                ordered.extend(sorted(remaining))
                break
        ordered.append(name)
        return ordered

    # ------------------------------------------------------------------
    # Entity associations and the inherited view (Figure 2.2)
    # ------------------------------------------------------------------

    def entity_association(self, cls: str, name: str) -> Aggregation:
        """The entity association named ``name`` visible from ``cls``:
        the one defined at the first class of ``up(cls)``, in name
        order, that defines one."""
        memo = self._memo.associations
        key = (cls, name)
        try:
            link = memo[key]
        except KeyError:
            link = None
            for owner in sorted(self.up(cls)):
                found = self._aggregations.get((owner, name))
                if found is not None and found.target in self._eclasses:
                    link = found
                    break
            memo[key] = link
        if link is None:
            raise UnknownAttributeError(
                f"class {cls!r} has no entity association {name!r}")
        return link

    def compositions(self, cls: str) -> Tuple[Aggregation, ...]:
        """The composition links whose whole is ``cls`` or one of its
        superclasses, in :meth:`aggregations` order."""
        memo = self._memo.compositions
        out = memo.get(cls)
        if out is None:
            up = self.up(cls)
            out = memo[cls] = tuple(
                link for link in self.aggregations()
                if link.kind is AssociationKind.COMPOSITION
                and link.owner in up)
        return out

    def entity_links_at(self, name: str) -> List[Aggregation]:
        """Aggregation links between E-classes defined *directly* at
        ``name`` (either emanating from it or connecting to it)."""
        out = []
        for link in self.aggregations():
            if link.target in self._dclasses:
                continue
            if link.owner == name or link.target == name:
                out.append(link)
        return out

    def inherited_view(self, name: str) -> List[InheritedAggregation]:
        """Every aggregation link that connects to or emanates from
        ``name`` or any of its superclasses — the *actual view* of the
        class with all inherited associations explicitly represented
        (Figure 2.2 of the paper, class ``RA``).

        Both descriptive attributes (links to D-classes) and entity
        associations are included, since the figure shows both.
        """
        view: List[InheritedAggregation] = []
        for cls in sorted(self.up(name)):
            for link in self.aggregations():
                if link.owner == cls:
                    view.append(InheritedAggregation(
                        link=link, viewer=name, defined_at=cls, end="owner"))
                elif link.target == cls:
                    view.append(InheritedAggregation(
                        link=link, viewer=name, defined_at=cls, end="target"))
        return view

    # ------------------------------------------------------------------
    # Association resolution for the association operator
    # ------------------------------------------------------------------

    def resolve_link(self, a: str, b: str) -> ResolvedLink:
        """Resolve the association the operator ``*`` traverses between
        classes ``a`` and ``b``.

        Resolution order (paper, Sections 3.2 and 4.1):

        1. Collect every aggregation link between ``a``-or-a-superclass and
           ``b``-or-a-superclass (a class inherits all aggregation
           associations of its superclasses).  Exactly one candidate means
           an unambiguous aggregation traversal.
        2. More than one *distinct* candidate raises
           :class:`~repro.errors.AmbiguousPathError` — the ``TA * Section``
           case; the query must mention an intermediate class.
        3. No aggregation candidate, but the classes related by
           generalization, yields the *identity* link (``TA * Grad``).
        4. Otherwise the classes are simply not associated.
        """
        self._require_eclass(a)
        self._require_eclass(b)
        up_a = self.up(a)
        up_b = self.up(b)

        candidates: List[ResolvedLink] = []
        seen: Set[Tuple[Tuple[str, str], bool]] = set()
        for link in self.aggregations():
            if link.target in self._dclasses:
                continue
            if link.owner in up_a and link.target in up_b:
                sig = (link.key, True)
                if sig not in seen:
                    seen.add(sig)
                    candidates.append(ResolvedLink("aggregation", link, True))
            if link.owner in up_b and link.target in up_a:
                sig = (link.key, False)
                if sig not in seen:
                    seen.add(sig)
                    candidates.append(ResolvedLink("aggregation", link, False))

        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            # A self-link on a single class legitimately appears in both
            # directions; for a == b prefer the owner-side orientation.
            keys = {c.link.key for c in candidates}
            if len(keys) == 1 and a == b:
                return next(c for c in candidates if c.a_is_owner)
            raise AmbiguousPathError(
                f"class {a!r} is related to {b!r} along more than one "
                f"generalization path; mention an intermediate class to "
                f"disambiguate (candidates: "
                f"{', '.join(str(c.link) for c in candidates)})",
                candidates=tuple(c.link for c in candidates))

        if self.related_by_generalization(a, b):
            return ResolvedLink("identity")

        raise NoAssociationError(
            f"classes {a!r} and {b!r} are not associated (directly, by "
            f"inheritance, or by generalization)")

    def are_associated(self, a: str, b: str) -> bool:
        """True if ``resolve_link(a, b)`` would succeed unambiguously."""
        try:
            self.resolve_link(a, b)
            return True
        except (NoAssociationError, AmbiguousPathError):
            return False
