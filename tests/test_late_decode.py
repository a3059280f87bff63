"""Late decode: a compact result renders straight from its dense-id
columns, and what that rests on.

* **Byte identity** — over the seeded differential corpus (loop and
  brace rows padded with Null, empty results, result-cache clones) and
  over derived subdatabases with ``induced:`` lines,
  ``Subdatabase.describe()`` and ``subdatabase_to_dict`` read from the
  columns equal the same calls on the decoded patterns, byte for byte.
* **No decode on the reply path** — rendering a result, a served
  ``query`` or ``derive`` reply and ``include: ["subdb"]`` never call
  ``decode_rows``.
* **Label-column ownership** — ``InternTable.labels`` stays ``repr`` of
  the members under append / fork / lend / ``without``, and a lent
  table's column never changes once it exists.
* **Pin release** — closing a superseded session pin drops its intern
  tables and indexes without waiting for the cyclic collector.
"""

import gc
import json
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import QueryProcessor, RuleEngine, Universe
from repro.errors import ReproError
from repro.model.interning import InternTable
from repro.model.oid import OID
from repro.service import QueryService, ServiceClient, ServiceConfig
from repro.service.session import ServerSession
from repro.storage.serialize import subdatabase_to_dict
from repro.subdb import subdatabase as subdatabase_module
from repro.subdb.attrindex import AttrIndex
from repro.subdb.pattern import decode_rows
from repro.subdb.snapshot import SnapshotExpiredError
from repro.subdb.subdatabase import Subdatabase
from repro.university.generator import GeneratorConfig, generate_university

from tests.test_concurrency import _paper_engine
from tests.test_differential import CASES, DB_SEED, _random_spec


def _renderings(subdb):
    """``describe()`` and the ``subdatabase_to_dict`` document, as text."""
    return (subdb.describe(),
            json.dumps(subdatabase_to_dict(subdb), sort_keys=True))


def _decoded(subdb) -> Subdatabase:
    """The same result over its decoded patterns — the pattern path."""
    rows, tables = subdb._interned
    return Subdatabase(subdb.name, subdb.intension,
                       decode_rows(rows, tables), subdb.derived_info)


def assert_columns_render_like_patterns(subdb, context: str) -> None:
    assert subdb._interned is not None, f"{context}: already decoded"
    got = _renderings(subdb)
    assert subdb._interned is not None, f"{context}: rendering decoded"
    assert got == _renderings(_decoded(subdb)), context


def _corpus():
    return [_random_spec(random.Random(DB_SEED * 100_000 + case)).text()
            for case in range(CASES)] + SHAPES


#: Shapes the corpus must not miss: Null-padded loop rows, brace groups
#: whose partial rows survive subsumption — a trailing group leaves the
#: *leading* slot Null beside rows that fill it, which is where the
#: place of Null in the sort order shows — and empty results.
SHAPES = [
    "context Course * Course_1 ^*",
    "context Course * Course_1 ^2",
    "context Section * Course * Course_1 ^3",
    "context {{Grad} * Advising} * Faculty",
    "context {Student * Section} * Course",
    "context Faculty * {Section * Course}",
    "context Grad[GPA >= 3.0] * {Transcript * Course}",
    "context Department[college = 'College1'] * {Course * Section}",
    "context Course[c# < 0] * Section",
    "context Student[GPA > 9.0]",
]


@pytest.fixture(scope="module")
def university_db():
    return generate_university(GeneratorConfig(), seed=DB_SEED).db


@pytest.mark.differential
class TestColumnsRenderLikePatterns:
    def test_seeded_corpus(self, university_db):
        processor = QueryProcessor(Universe(university_db))
        padded = leading = empty = 0
        for text in _corpus():
            try:
                subdb = processor.execute(text, name="q").subdatabase
            except ReproError:
                continue
            if subdb._interned is None:     # a Where clause decodes
                continue
            rows = subdb._interned[0]
            padded += any(None in row for row in rows)
            leading += len({row[0] is None for row in rows}) == 2
            empty += not rows
            assert_columns_render_like_patterns(subdb, text)
        assert padded >= 3, f"only {padded} Null-padded results"
        assert leading >= 3, f"only {leading} mixed leading slots"
        assert empty >= 2, f"only {empty} empty results"

    def test_result_cache_clones(self, university_db):
        processor = QueryProcessor(Universe(university_db),
                                   cache_bytes=8 << 20)
        hits = 0
        for text in _corpus():
            try:
                processor.execute(text, name="q")
            except ReproError:
                continue
            clone = processor.execute(text, name="clone").subdatabase
            if clone._interned is not None:
                hits += processor.evaluator.last_metrics.cache_hits
                assert_columns_render_like_patterns(clone, text)
        assert hits >= CASES // 4, f"only {hits} cache hits"

    def test_derived_subdatabases_with_induced_lines(self):
        """Rule targets are built from patterns; interned over tables of
        their own they must render the same, ``induced:`` lines and the
        Null slots of a two-rule union (May_teach) included."""
        engine = _paper_engine()
        padded = 0
        for target in ("Teacher_course", "Suggest_offer", "May_teach",
                       "Grad_teaching_grad", "First_and_third"):
            derived = engine.derive(target)
            assert derived.derived_info, target
            width = len(derived.intension)
            tables = [InternTable(("slot", i),
                                  {p[i] for p in derived.patterns
                                   if p[i] is not None})
                      for i in range(width)]
            rows = {tuple(None if v is None else table.encode(v)
                          for v, table in zip(p.values, tables))
                    for p in derived.patterns}
            interned = Subdatabase.from_interned_rows(
                target, derived.intension, rows, tables,
                derived.derived_info)
            assert_columns_render_like_patterns(interned, target)
            assert _renderings(interned) == _renderings(derived), target
            padded += any(None in row for row in rows)
        assert padded, "no derived subdatabase with Null slots"


class TestNoDecodeOnTheReplyPath:
    """``decode_rows`` is the one decode point; nothing that only prints
    or serializes a result may reach it."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        calls = []
        real = subdatabase_module.decode_rows

        def counting(rows, tables):
            calls.append(len(rows))
            return real(rows, tables)

        monkeypatch.setattr(subdatabase_module, "decode_rows", counting)
        return calls

    def test_rendering_an_interned_result(self, decodes):
        engine = _paper_engine()
        for text in ("context Teacher * Section * Course",
                     "context {{Grad} * Advising} * Faculty",
                     "context Course * Course_1 ^*"):
            result = engine.query(text, name="q")
            subdb = result.subdatabase
            result.render()
            subdatabase_to_dict(subdb)
            repr(subdb)
            assert decodes == [], text
            assert subdb.patterns       # the decode point still decodes
            assert decodes == [len(subdb)], text
            del decodes[:]

    def test_served_replies(self, decodes, tmp_path):
        engine = _paper_engine()
        with QueryService(engine, ServiceConfig(data_dir=str(tmp_path))) \
                as service:
            with ServiceClient(*service.address, timeout=30) as client:
                # Deriving on the pin reads a rule body's patterns (rule
                # chaining still consumes OID patterns); warm up first.
                client.query("context Teacher_course:Teacher "
                             "* Teacher_course:Course")
                client.derive("Suggest_offer")
                del decodes[:]
                client.query("context Teacher * Section * Course")
                client.query("context Teacher * Section", include=["subdb"])
                client.query("context Teacher_course:Teacher "
                             "* Teacher_course:Course", include=["subdb"])
                client.request("derive", target="Suggest_offer",
                               include=["subdb"])
        assert decodes == []


class LabelColumnOwnership(RuleBasedStateMachine):
    """The owning store's moves on one class's table — append (forking
    first when lent), delete (a ``without`` successor), lend — while
    readers render any table, old or new, at any time."""

    def __init__(self):
        super().__init__()
        self.next_value = 1
        self.live = InternTable(("base", "X"),
                                [self._oid() for _ in range(3)])
        self.tables = [self.live]
        #: [table, members when lent, column first seen, its content]
        self.lent = []

    def _oid(self) -> OID:
        value = self.next_value
        self.next_value += 1
        return OID(value, f"x{value}" if value % 3 else None)

    @rule()
    def append(self):
        if self.live.lent:
            self.live = self.live.fork()
            self.tables.append(self.live)
        self.live.append(self._oid())

    @precondition(lambda self: len(self.live) > 0)
    @rule(data=st.data())
    def delete(self, data):
        victim = data.draw(st.sampled_from(self.live.oids))
        self.live = self.live.without(victim)
        self.tables.append(self.live)

    @rule()
    def lend(self):
        self.live.lent = True
        self.lent.append([self.live, tuple(self.live.oids), None, None])

    @precondition(lambda self: len(self.live) > 0 and not self.live.lent)
    @rule()
    def stale_build(self):
        """What a render that raced an append on another thread leaves
        behind: a column built before the last member arrived and
        published after it (only an unlent table is appended to)."""
        self.live.labels = [repr(o) for o in self.live.oids[:-1]]

    @rule(data=st.data())
    def render(self, data):
        table = data.draw(st.sampled_from(self.tables))
        assert table.label_column() == [repr(o) for o in table.oids]

    @invariant()
    def columns_are_member_reprs(self):
        """Exact, or a stale prefix the next render replaces."""
        for table in self.tables:
            labels = table.labels
            assert labels is None \
                or labels == [repr(o) for o in table.oids[:len(labels)]]

    @invariant()
    def lent_columns_never_change(self):
        """A lent table's members never change, nor does its column once
        complete (a stale prefix from before the lending is replaced)."""
        for entry in self.lent:
            table, members, seen, content = entry
            assert tuple(table.oids) == members
            if seen is None:
                labels = table.labels
                if labels is not None and len(labels) == len(members):
                    entry[2], entry[3] = labels, list(labels)
            else:
                assert table.labels is seen and seen == content


LabelColumnOwnership.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)

TestLabelColumnOwnership = LabelColumnOwnership.TestCase


class TestSupersededPinsRelease:
    def test_repins_leave_at_most_one_superseded_pin_reachable(self):
        """With the collector off, N write → re-pin cycles of a served
        session keep the live structures and at most one pin's own."""
        data = generate_university(GeneratorConfig(), seed=3)
        engine = RuleEngine(data.db)
        engine.universe.declare_index("Student", "GPA")
        session = ServerSession(1, engine)
        queries = ["context Student[GPA > 3.5] * Section",
                   "context Student * Section * Course"]

        def census():
            tables = indexes = 0
            for obj in gc.get_objects():
                if isinstance(obj, InternTable) \
                        and obj.key == ("base", "Student"):
                    tables += 1
                elif isinstance(obj, AttrIndex) \
                        and obj.table.key == ("base", "Student"):
                    indexes += 1
            return tables, indexes

        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for k in range(12):
                data.db.insert("Student", f"n{k}",
                               **{"SS#": f"9-{k:06d}", "name": f"N{k}",
                                  "GPA": 3.9})
                session.invalidate()
                for text in queries:
                    session.execute(text, name="q").render()
            tables, indexes = census()
        finally:
            session.close()
            if enabled:
                gc.enable()
        assert tables <= 2 and indexes <= 2, (tables, indexes)

    def test_a_closed_pin_refuses_instead_of_reading_live(self):
        engine = _paper_engine()
        processor = engine.snapshot_session()
        snapshot = processor.universe.snapshot
        snapshot.extent("Course")
        processor.universe.close()
        assert not processor.universe.compact.interner._tables
        with pytest.raises(SnapshotExpiredError):
            snapshot.extent("Course")
