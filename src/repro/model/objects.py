"""Entity instances.

An entity object carries a single OID and a *direct* class; by the identity
semantics of generalization links it is simultaneously an instance of every
superclass of its direct class (the paper's TA/Grad instances are "two
different perspectives of the same real world object", Section 3.2).
Descriptive-attribute values are stored on the object; entity-association
links are stored in the :class:`~repro.model.database.Database` link
indexes, not on the object, so that both directions can be traversed at
equal cost.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.model.oid import OID


class Entity:
    """An instance of an E-class.

    Application code obtains entities through
    :meth:`repro.model.database.Database.insert` and reads attribute values
    with item access (``entity["name"]``) or :meth:`get`.
    """

    __slots__ = ("oid", "cls", "_attrs")

    def __init__(self, oid: OID, cls: str, attrs: Dict[str, Any]):
        self.oid = oid
        self.cls = cls
        self._attrs = dict(attrs)

    def get(self, name: str, default: Any = None) -> Any:
        """The value of descriptive attribute ``name`` (or ``default``)."""
        return self._attrs.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self._attrs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    @property
    def attributes(self) -> Dict[str, Any]:
        """A copy of the attribute values (mutations go through the
        database so the update journal sees them)."""
        return dict(self._attrs)

    def attribute_map(self) -> Dict[str, Any]:
        """The attribute values by reference, no copy — strictly
        read-only for callers (the serializer's view)."""
        return self._attrs

    def _set(self, name: str, value: Any) -> None:
        """Internal: used by :meth:`Database.set_attribute`."""
        self._attrs[name] = value

    def __repr__(self) -> str:
        return f"<{self.cls} {self.oid!r}>"
