"""Late decode: a compact result renders straight from its dense-id
columns, and what that rests on.

* **Byte identity** — over the seeded differential corpus (loop and
  brace rows padded with Null, empty results, result-cache clones) and
  over derived subdatabases with ``induced:`` lines,
  ``Subdatabase.describe()`` and ``subdatabase_to_dict`` read from the
  columns equal the same calls on the decoded patterns, byte for byte,
  before and after the result decodes.
* **One sort, one de-duplication** — ``Subdatabase.from_columns``
  orders rows slot 0 first with Nulls last and drops duplicate rows.
* **No decode on the reply path** — rendering a result, a served
  ``query`` or ``derive`` reply and ``include: ["subdb"]`` never call
  ``decode_rows``, and a served chain read builds no row tuple.
* **No decode in rule chaining** — a rule target projected from a
  columnar source stays columnar, a query over it interns its extents
  and derived links from the columns, and a result kept across the
  re-derivation of what it read renders as it did.
* **Publication** — two threads decoding and rendering one shared
  result at once both see the oracle's patterns and text, and the
  result keeps its columns.
* **Label-column ownership** — ``InternTable.labels`` stays ``repr`` of
  the members under append / fork / lend / ``without``, and a lent
  table's column never changes once it exists.
* **Pin release** — closing a superseded session pin drops its intern
  tables and indexes without waiting for the cyclic collector.
"""

import gc
import json
import random
import threading

import numpy as np
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
from repro.oql import evaluator as evaluator_module
from repro.oql import kernels
from repro.service import QueryService, ServiceClient, ServiceConfig
from repro.service.session import ServerSession
from repro.storage.serialize import subdatabase_to_dict
from repro.subdb import subdatabase as subdatabase_module
from repro.subdb.attrindex import AttrIndex
from repro.subdb.intension import IntensionalPattern
from repro.subdb.refs import ClassRef
from repro.subdb.snapshot import SnapshotExpiredError
from repro.subdb.subdatabase import Subdatabase, decode_rows
from repro.university import build_paper_database
from repro.university.generator import GeneratorConfig, generate_university

from tests.test_concurrency import _paper_engine
from tests.test_differential import CASES, DB_SEED, _random_spec


def _renderings(subdb):
    """``describe()`` and the ``subdatabase_to_dict`` document, as text."""
    return (subdb.describe(),
            json.dumps(subdatabase_to_dict(subdb), sort_keys=True))


def _decoded(subdb) -> Subdatabase:
    """The same result over its decoded patterns — the pattern path —
    leaving ``subdb`` itself undecoded."""
    return Subdatabase(subdb.name, subdb.intension,
                       decode_rows(subdb._columns, subdb._tables),
                       subdb.derived_info)


def assert_columns_render_like_patterns(subdb, context: str) -> None:
    assert subdb._columns is not None, f"{context}: not columnar"
    assert subdb._patterns is None, f"{context}: already decoded"
    got = _renderings(subdb)
    assert subdb._patterns is None, f"{context}: rendering decoded"
    assert got == _renderings(_decoded(subdb)), context
    # Decoding keeps the columns, and they go on rendering the same.
    assert len(subdb.patterns) == len(subdb), context
    assert subdb.sorted_columns(InternTable.label_column, "Null") \
        is not None, f"{context}: decoding dropped the columns"
    assert _renderings(subdb) == got, context


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
            if subdb._columns is None:      # a Where clause decodes
                continue
            nulls = [col < 0 for col in subdb._columns]
            padded += any(null.any() for null in nulls)
            leading += nulls[0].any() and not nulls[0].all()
            empty += not len(subdb)
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
            if clone._columns is not None:
                hits += processor.evaluator.last_metrics.cache_hits
                assert_columns_render_like_patterns(clone, text)
        assert hits >= CASES // 4, f"only {hits} cache hits"

    def test_derived_subdatabases_with_induced_lines(self):
        """Rule targets (columnar or, behind a Where clause or a
        two-rule union, built from patterns), interned over tables of
        their own, must render the same, ``induced:`` lines and the
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
            columnar = Subdatabase.from_columns(
                target, derived.intension,
                kernels.rows_to_columns(rows, width), tables,
                derived.derived_info)
            assert _renderings(columnar) == _renderings(derived), target
            assert_columns_render_like_patterns(columnar, target)
            padded += any(None in row for row in rows)
        assert padded, "no derived subdatabase with Null slots"


class TestFromColumns:
    """The constructor's one sort and one de-duplication, on rows built
    by hand: slot 0 is the primary key, a Null sorts after every id, and
    a repeated row is kept once."""

    @staticmethod
    def _build(rows, width=3):
        tables = [InternTable(("slot", i),
                              [OID(100 * (i + 1) + v, f"o{i}{v}")
                               for v in range(4)])
                  for i in range(width)]
        intension = IntensionalPattern(
            [ClassRef(f"C{i}") for i in range(width)], ())
        return Subdatabase.from_columns(
            "r", intension, kernels.rows_to_columns(rows, width), tables)

    def test_rows_sort_slot_zero_first_with_nulls_last(self):
        rows = [(1, 0, 3), (0, 3, 0), (None, 0, 0), (0, 2, None),
                (1, None, 0), (0, 2, 1), (3, 0, 0)]
        subdb = self._build(rows)
        assert [col.tolist() for col in subdb._columns] == [
            [0, 0, 0, 1, 1, 3, -1],
            [2, 2, 3, 0, -1, 0, 0],
            [1, -1, 0, 3, 0, 0, 0]]
        assert all(not col.flags.writeable for col in subdb._columns)
        assert _renderings(subdb) == _renderings(_decoded(subdb))
        # The dictionary wants Nulls first: it sorts again, on -1.
        assert subdatabase_to_dict(subdb)["patterns"][:3] == [
            [None, 200, 300], [100, 202, None], [100, 202, 301]]

    def test_repeated_rows_are_kept_once(self):
        rows = [(2, 1, 0), (0, 1, 2), (2, 1, 0), (0, 1, 2), (0, 1, 2),
                (None, 3, None), (None, 3, None)]
        subdb = self._build(rows)
        assert len(subdb) == 3
        assert [col.tolist() for col in subdb._columns] == [
            [0, 2, -1], [1, 1, 3], [2, 0, -1]]
        assert len(subdb.patterns) == 3

    @pytest.mark.parametrize("high", [6, 1 << 22])
    def test_matches_a_sorted_set_of_rows(self, high):
        """Seeded rows with repeats and Nulls against Python's sort of
        the row set.  Small ids pack into one key per row; ids near
        2**22 overflow it from three slots on, which sorts by lexsort."""
        rng = random.Random(high)
        filled = packed = 0
        for _ in range(200):
            width = rng.randint(1, 5)
            pools = [rng.sample(range(high), 3) + [-1]
                     for _ in range(width)]
            rows = [tuple(rng.choice(pool) for pool in pools)
                    for _ in range(rng.randrange(30))]
            rows += rows[:rng.randrange(len(rows) + 1)]
            columns = [np.array(col, dtype=np.int64)
                       for col in zip(*rows)] if rows else \
                [np.empty(0, dtype=np.int64) for _ in range(width)]
            if rows:
                filled += 1
                packed += subdatabase_module._row_keys(columns) is not None
            want = sorted(set(rows),
                          key=lambda row: [(v < 0, v) for v in row])
            got = subdatabase_module.sort_unique(columns)
            assert list(zip(*[col.tolist() for col in got])) == want
        if high == 6:
            assert packed == filled
        else:
            assert 0 < packed < filled

    def test_pair_count_is_the_number_of_distinct_full_pairs(
            self, university_db):
        """Over a loop result whose unreached levels are Null and whose
        level pairs repeat across rows, each slot pair's count is
        ``len(pairs)`` — columnar, without decoding, and on its
        pattern-form twin."""
        subdb = QueryProcessor(Universe(university_db)).execute(
            "context Course * Course_1 ^*", name="q").subdatabase
        twin = _decoded(subdb)
        width = len(subdb.slot_names)
        counts = {}
        for i in range(width):
            for j in range(width):
                if i != j:
                    counts[i, j] = subdb.pair_count(i, j)
        nulls = duplicates = 0
        for (i, j), count in counts.items():
            left, right = subdb._columns[i], subdb._columns[j]
            full = int(((left >= 0) & (right >= 0)).sum())
            nulls += full < len(left)
            duplicates += count < full
            assert count == len(subdb.pairs(i, j)) \
                == twin.pair_count(i, j) == len(twin.pairs(i, j)), (i, j)
        assert subdb._patterns is None, "counting decoded the result"
        assert nulls and duplicates and len(set(counts.values())) > 1

    def test_empty_and_single_rows(self):
        assert len(self._build([])) == 0
        assert self._build([]).describe().endswith("patterns (0):")
        single = self._build([(None, 2, 1)])
        assert len(single) == 1
        assert single.describe().endswith("(Null, o12, o21)")


class TestPublication:
    def test_two_threads_decode_and_render_one_cached_result(
            self, monkeypatch):
        """Thread A is held inside the first decode while thread B
        renders and decodes the same cached result; then A publishes
        too.  Both see the oracle's patterns, every render is the
        oracle's text, and the result keeps its columns."""
        engine = _paper_engine()
        text = "context {{Grad} * Advising} * Faculty"
        processor = QueryProcessor(engine.universe, cache_bytes=1 << 20)
        processor.execute(text, name="q")
        shared = processor.execute(text, name="q").subdatabase
        assert processor.evaluator.last_metrics.cache_hits == 1
        assert shared._columns is not None and shared._patterns is None
        oracle = QueryProcessor(engine.universe, compact=False).execute(
            text, name="q").subdatabase

        entered, release = threading.Event(), threading.Event()
        real = subdatabase_module.decode_rows
        first = []

        def held(columns, tables):
            first.append(threading.current_thread().name)
            if len(first) == 1:
                entered.set()
                assert release.wait(30), "never released"
            return real(columns, tables)

        monkeypatch.setattr(subdatabase_module, "decode_rows", held)
        seen = {}

        def run(label):
            try:
                if label == "B":
                    assert entered.wait(30), "A never decoded"
                    seen["B.describe"] = shared.describe()
                    seen["B"] = shared.patterns
                    release.set()
                else:
                    seen["A"] = shared.patterns
                seen[label + ".after"] = shared.describe()
            except Exception as exc:   # pragma: no cover - fail the test
                seen[label + ".error"] = exc
                release.set()

        threads = [threading.Thread(target=run, args=(label,), name=label)
                   for label in "AB"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert first == ["A", "B"]
        assert not [k for k in seen if k.endswith(".error")], seen
        want = oracle.describe()
        assert seen["A"] == seen["B"] == oracle.patterns
        assert seen["B.describe"] == seen["A.after"] == seen["B.after"] \
            == shared.describe() == want
        assert shared.sorted_columns(InternTable.label_column, "Null") \
            is not None, "decoding dropped the columns"


class TestNoDecodeOnTheReplyPath:
    """``decode_rows`` is the one decode point; nothing that only prints
    or serializes a result may reach it."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        calls = []
        real = subdatabase_module.decode_rows

        def counting(columns, tables):
            calls.append(len(columns[0]))
            return real(columns, tables)

        monkeypatch.setattr(subdatabase_module, "decode_rows", counting)
        return calls

    @pytest.fixture()
    def row_builds(self, monkeypatch):
        """Every way the evaluator turns columns into row tuples."""
        calls = []
        for module, name in ((kernels, "columns_to_rows"),
                             (kernels, "rows_to_columns"),
                             (evaluator_module, "subsume_rows")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
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
                # Deriving on the pin decodes behind a Where clause
                # (Suggest_offer's COUNT); warm up first.
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

    def test_served_chain_reads_build_no_row_tuple(self, decodes,
                                                   row_builds, tmp_path):
        engine = _paper_engine()
        with QueryService(engine, ServiceConfig(data_dir=str(tmp_path))) \
                as service:
            with ServiceClient(*service.address, timeout=30) as client:
                for text in ("context Teacher * Section * Course",
                             "context Department[name = 'CIS'] * Course "
                             "* Section * Teacher",
                             "context Student[GPA > 3.0]"):
                    reply = client.query(text, include=["subdb"])
                    assert reply["patterns"] > 0, text
        assert row_builds == [] and decodes == []
        # The fixture does see the row-wise paths.
        engine.query("context {{Grad} * Advising} * Faculty", name="q")
        assert row_builds == ["columns_to_rows"] * 3 \
            + ["subsume_rows", "rows_to_columns"]


class TestNoDecodeInRuleChaining:
    CLOSURE = "if context Course * Course_1 ^* then Prereq_closure " \
              "(Course, Course_)"
    READ = "context Prereq_closure:Course * Prereq_closure:Course_1"

    def test_closure_target_and_a_query_over_it(self, university_db,
                                                monkeypatch):
        compact = RuleEngine(university_db)
        oracle = RuleEngine(university_db, compact=False)
        for engine in (compact, oracle):
            engine.add_rule(self.CLOSURE)
        real = subdatabase_module.decode_rows
        calls = []
        monkeypatch.setattr(subdatabase_module, "decode_rows",
                            lambda *args: calls.append(1) or real(*args))
        target = compact.derive("Prereq_closure")
        rendered = compact.query(self.READ, name="q").render()
        assert calls == []
        monkeypatch.undo()
        assert target._columns is not None and target._patterns is None
        assert compact.universe.get_subdb("Prereq_closure") is target
        assert rendered == oracle.query(self.READ, name="q").render()
        assert _renderings(target) == \
            _renderings(oracle.derive("Prereq_closure"))

    def test_a_kept_result_outlives_the_tables_it_was_read_over(self):
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.add_rule("if context Teacher * Section * Course "
                        "then Teacher_course (Teacher, Course)")
        engine.add_rule("if context Teacher_course:Teacher "
                        "* Teacher_course:Course * Department "
                        "then Teacher_dept (Teacher, Department)")
        read = "context Teacher_dept:Teacher * Teacher_dept:Department"
        kept = engine.query(read, name="q")
        target = engine.universe.get_subdb("Teacher_dept")
        assert target._columns is not None
        before = (kept.render(), _renderings(target))
        # A new teacher on a new section of a course: Teacher_course is
        # re-derived over grown base tables, Teacher_dept over new
        # derived-extent tables.
        db = data.db
        teacher = db.insert("Teacher", "t99", name="New", degree="PhD")
        section = db.insert("Section", "s99",
                            **{"section#": 9, "textbook": "B"})
        db.associate(teacher, "teaches", section)
        db.associate(section, "course", data["c1"])
        fresh = engine.query(read, name="q")
        assert engine.universe.get_subdb("Teacher_dept") is not target
        assert len(fresh.subdatabase) > len(kept.subdatabase)
        assert (kept.render(), _renderings(target)) == before


class LabelColumnOwnership(RuleBasedStateMachine):
    """The owning store's moves on one class's table — append, delete
    (a tombstone in place), pin (a reader's view of the table at the
    current version) — while readers render the table or any view, at
    any time."""

    def __init__(self):
        super().__init__()
        self.next_value = 1
        self.version = 0
        self.live = InternTable(("base", "X"),
                                [self._oid() for _ in range(3)])
        #: (view, its members, its dead ids) per pin
        self.pins = []

    def _oid(self) -> OID:
        value = self.next_value
        self.next_value += 1
        return OID(value, f"x{value}" if value % 3 else None)

    @rule()
    def append(self):
        self.version += 1
        self.live.append(self._oid(), self.version)

    @precondition(lambda self: self.live.live_count > 0)
    @rule(data=st.data())
    def delete(self, data):
        live = self.live
        victim = data.draw(st.sampled_from(sorted(live.full_id_set)))
        oids, labels = live.oids, live.labels
        self.version += 1
        live.without(live.oids[victim], self.version)
        # A tombstone, not a rebuild: the same columns, the id marked
        # dead in place.
        assert live.oids is oids and live.labels is labels
        assert victim in live.dead

    @rule()
    def pin(self):
        view = self.live.at(self.version)
        # Shared, never copied.
        assert view.oids is self.live.oids and view.table is self.live
        self.pins.append((view, tuple(self.live.oids),
                          frozenset(self.live.dead)))

    @precondition(lambda self: len(self.live) > 0)
    @rule()
    def stale_build(self):
        """What a render that raced an append on another thread leaves
        behind: a column built before the last member arrived and
        published after it."""
        self.live.labels = [repr(o) for o in self.live.oids[:-1]]

    @rule(data=st.data())
    def render(self, data):
        table = data.draw(st.sampled_from(
            [self.live] + [view for view, _, _ in self.pins]))
        n = len(table)
        column = table.label_column()
        assert len(column) >= n
        assert column[:n] == [repr(o) for o in table.oids[:n]]

    @invariant()
    def column_is_member_reprs(self):
        """Exact, or a stale prefix the next render replaces."""
        labels = self.live.labels
        assert labels is None \
            or labels == [repr(o) for o in self.live.oids[:len(labels)]]

    @invariant()
    def pinned_views_never_change(self):
        """A view's members and tombstones never change, whatever the
        table does after the pin."""
        for view, members, dead in self.pins:
            assert len(view) == len(members)
            assert tuple(view.oids[:len(view)]) == members
            assert view.dead == dead
            assert view.full_id_set == frozenset(range(len(members))) - dead


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
