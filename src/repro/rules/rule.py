"""Deductive rules: syntax, parsing, and static validation.

Concrete grammar (reusing the OQL parser's productions)::

    rule    := 'if' 'context' context_expr [ 'where' where_list ]
               'then' IDENT '(' target ( ',' target )* ')'
    target  := name [ '[' IDENT ( ',' IDENT )* ']' ]

A target ``name`` is a class reference as in expressions (``TA``,
``Grad_2``, ``Suggest_offer:Course``); a name with a **trailing
underscore** (``Grad_``) stands for *all hierarchy levels from 1 up* —
"the second argument to Grad_teaching_grad i.e. Grad_ stands for Grad_1,
Grad_2, ...; the intensional pattern of the derived subdatabase is
determined at run time" (Section 5.2, rule R6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple, Union

from repro.errors import RuleSemanticError, RuleSyntaxError
from repro.errors import OQLSyntaxError
from repro.oql.ast import ContextExpr, WhereCond
from repro.model.schema import Schema
from repro.oql.footprint import (EMPTY, Footprint, chain_terms, footprint_of,
                                 where_refs)
from repro.oql.lexer import tokenize
from repro.oql.parser import Parser
from repro.subdb.refs import ClassRef


@dataclass(frozen=True)
class TargetSpec:
    """One argument of a rule's Then clause."""

    ref: ClassRef
    #: Attribute subsetting: only these descriptive attributes are
    #: inherited by the target class; ``None`` = all (the default).
    attrs: Optional[Tuple[str, ...]] = None
    #: ``True`` for the trailing-underscore form (``Grad_``): every
    #: hierarchy level from 1 upward.
    all_levels: bool = False

    def __str__(self) -> str:
        name = f"{self.ref.cls}_" if self.all_levels else str(self.ref)
        if self.attrs is not None:
            return f"{name} [{', '.join(self.attrs)}]"
        return name


@dataclass(frozen=True)
class DeductiveRule:
    """A parsed deductive rule."""

    #: The subdatabase-id the rule derives (the Then clause's name).
    target: str
    context: ContextExpr
    where: Tuple[WhereCond, ...]
    targets: Tuple[TargetSpec, ...]
    #: Optional label for diagnostics (the paper's "R2", "R4", ...).
    label: Optional[str] = None
    #: The original source text, when parsed from text.
    text: Optional[str] = None

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------

    def context_refs(self) -> List[ClassRef]:
        """Every class reference in the context expression (slot order)."""
        return [term.ref for term in chain_terms(self.context.chain)]

    def where_refs(self) -> List[ClassRef]:
        """Every class reference mentioned by the Where subclause."""
        return [ref for cond in self.where for ref in where_refs(cond)]

    def source_subdatabases(self) -> Set[str]:
        """The derived subdatabases this rule reads — its dependencies in
        the rule graph.  (What it reads of the *base* database is its
        :class:`~repro.oql.footprint.Footprint`.)"""
        return {ref.subdb for ref in self.context_refs() + self.where_refs()
                if ref.subdb is not None}

    def footprint(self, schema: Schema,
                  subdb_footprint: Callable[[str], Footprint] =
                  lambda name: EMPTY) -> Footprint:
        """What the rule reads of the base database — used to decide
        which updates can affect its result.  A ``Sub:Class`` reference
        contributes ``subdb_footprint(Sub)``: nothing by default, since
        the rule graph composes sources separately."""
        return footprint_of(chain_terms(self.context.chain), self.where,
                            schema, subdb_footprint)

    def validate(self) -> None:
        """Check that every target class appears in the context
        expression ("these classes should be a subset of the classes
        referenced in the association pattern expression of the If
        clause", Section 4.2)."""
        slot_names = {ref.slot for ref in self.context_refs()}
        classes = {ref.cls for ref in self.context_refs()}
        looped = self.context.loop is not None
        for target in self.targets:
            if target.all_levels:
                if target.ref.cls not in classes:
                    raise RuleSemanticError(
                        f"rule {self.label or self.target!r}: target "
                        f"{target} names class {target.ref.cls!r} which "
                        f"does not appear in the context expression")
                continue
            if target.ref.slot in slot_names:
                continue
            if looped and target.ref.alias is not None and \
                    target.ref.cls in classes:
                # Loop iterations generate alias levels at run time
                # (Section 5.2); Grad_2 is legal even though only Grad
                # and Grad_1 appear textually.  Depth is checked when the
                # rule is applied.
                continue
            matches = [ref for ref in self.context_refs()
                       if ref.cls == target.ref.cls]
            if target.ref.alias is None and len(matches) == 1:
                continue
            level_matches = [ref for ref in matches
                             if ref.alias == target.ref.alias]
            if target.ref.alias is not None and len(level_matches) == 1:
                # e.g. target Grad_2 naming the context class GG:Grad_2.
                continue
            raise RuleSemanticError(
                f"rule {self.label or self.target!r}: target {target} "
                f"does not identify a unique context class "
                f"(context classes: {sorted(slot_names)})")

    def __str__(self) -> str:
        parts = [f"if context {self.context}"]
        if self.where:
            parts.append("where " + " and ".join(str(w) for w in self.where))
        args = ", ".join(str(t) for t in self.targets)
        parts.append(f"then {self.target} ({args})")
        return "\n".join(parts)


class _RuleParser(Parser):
    """Extends the OQL parser with the rule production."""

    def rule(self) -> DeductiveRule:
        self.expect("keyword", "if")
        self.expect("keyword", "context")
        context = self.context_expr()
        where: Tuple[WhereCond, ...] = ()
        if self.accept("keyword", "where"):
            where = self.where_list()
        self.expect("keyword", "then")
        name = str(self.expect("ident").value)
        self.expect("op", "(")
        targets = [self._target()]
        while self.accept("op", ","):
            targets.append(self._target())
        self.expect("op", ")")
        token = self.peek()
        if token.kind != "eof":
            raise RuleSyntaxError(
                f"unexpected trailing input after rule: {token.value!r}")
        return DeductiveRule(target=name, context=context, where=where,
                             targets=tuple(targets))

    def _target(self) -> TargetSpec:
        first = self.expect("ident")
        text = str(first.value)
        if self.accept("op", ":"):
            second = self.expect("ident")
            text = f"{text}:{str(second.value)}"
        all_levels = False
        _, _, last_part = text.rpartition(":")
        if last_part.endswith("_"):
            all_levels = True
            text = text[:-1]
        ref = ClassRef.parse(text)
        attrs: Optional[Tuple[str, ...]] = None
        if self.accept("op", "["):
            names = [str(self.expect("ident").value)]
            while self.accept("op", ","):
                names.append(str(self.expect("ident").value))
            self.expect("op", "]")
            attrs = tuple(names)
        return TargetSpec(ref, attrs, all_levels)


def parse_rule(text: str, label: Optional[str] = None) -> DeductiveRule:
    """Parse and statically validate one deductive rule."""
    try:
        parsed = _RuleParser(tokenize(text)).rule()
    except OQLSyntaxError as exc:
        raise RuleSyntaxError(str(exc)) from exc
    rule = DeductiveRule(target=parsed.target, context=parsed.context,
                         where=parsed.where, targets=parsed.targets,
                         label=label, text=text)
    rule.validate()
    return rule
