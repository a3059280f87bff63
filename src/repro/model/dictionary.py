"""The metadata dictionary.

The paper notes (Section 3.2) that "the query processor of an OO DBMS can
make use of the type information stored in the dictionary to properly
interpret the queries and enforce the relevant semantics and constraints"
— association types are defined once in the schema and never restated in
queries.  :class:`Dictionary` is that catalog: a read-only façade over a
:class:`~repro.model.schema.Schema` offering the lookups the OQL binder
needs, plus human-readable renderings of the S-diagram used by the
examples.
"""

from __future__ import annotations

from typing import Dict, List

from repro.model.associations import Aggregation, InheritedAggregation
from repro.model.schema import Schema


class Dictionary:
    """Read-only catalog over a schema."""

    def __init__(self, schema: Schema):
        self._schema = schema

    @property
    def schema(self) -> Schema:
        return self._schema

    # ------------------------------------------------------------------
    # Catalog queries
    # ------------------------------------------------------------------

    def class_info(self, name: str) -> Dict[str, object]:
        """A structured description of one E-class."""
        schema = self._schema
        return {
            "name": name,
            "doc": schema.eclass(name).doc,
            "superclasses": sorted(schema.superclasses(name)),
            "subclasses": sorted(schema.subclasses(name)),
            "attributes": {
                attr: link.target
                for attr, link in
                sorted(schema.descriptive_attributes(name).items())
            },
            "associations": [str(v) for v in schema.inherited_view(name)
                             if schema.has_eclass(v.link.target)],
        }

    def attribute_owners(self, attr: str) -> List[str]:
        """Every E-class from which descriptive attribute ``attr`` is
        visible — used by the Select subclause to decide whether a bare
        attribute name is unique among the context classes."""
        return [cls for cls in self._schema.eclass_names
                if attr in self._schema.descriptive_attributes(cls)]

    # ------------------------------------------------------------------
    # Renderings
    # ------------------------------------------------------------------

    def render_sdiagram(self) -> str:
        """An ASCII rendering of the S-diagram: one line per class with
        its generalization and aggregation links."""
        schema = self._schema
        lines: List[str] = [f"S-diagram of schema {schema.name!r}", ""]
        for cls in schema.eclass_names:
            lines.append(f"[E] {cls}")
            subs = sorted(schema.direct_subclasses(cls))
            if subs:
                lines.append(f"    G -> {', '.join(subs)}")
            interaction = schema.interaction_of(cls)
            if interaction is not None:
                lines.append(f"    I -> "
                             f"{', '.join(interaction.participants)}")
            crossproduct = schema.crossproduct_of(cls)
            if crossproduct is not None:
                lines.append(f"    X -> "
                             f"{', '.join(crossproduct.components)}")
            for link in schema.aggregations():
                if link.owner != cls:
                    continue
                node = "D" if link.target in schema.dclass_names else "E"
                card = "*" if link.many else "1"
                lines.append(
                    f"    {link.kind.value}:{link.name}[{card}] -> "
                    f"({node}) {link.target}")
        return "\n".join(lines)

    def render_inherited_view(self, cls: str) -> str:
        """An ASCII rendering of a class with all inherited associations
        explicitly represented (Figure 2.2 for ``RA``)."""
        schema = self._schema
        lines = [f"Actual view of class {cls!r} "
                 f"(all inherited associations explicit):"]
        for item in schema.inherited_view(cls):
            inherited = "" if item.defined_at == cls else \
                f"   [inherited from {item.defined_at}]"
            direction = "->" if item.end == "owner" else "<-"
            lines.append(
                f"  {cls} {direction} {item.partner()}"
                f" (link {item.link.name!r}){inherited}")
        return "\n".join(lines)
