"""Concurrent evaluation: snapshot-isolated readers racing a writer,
plus query-budget cancellation of runaway evaluations.

The reader protocol under test (``subdb/snapshot.py``): a reader opens
``engine.snapshot_session()`` and evaluates queries — including
backward-chained rule targets — entirely against one pinned database
version.  A concurrent writer mutating the live database must never be
observed mid-batch, never cause a reader to raise, and never shift the
snapshot's version.

The budget protocol (``oql/budget.py``): an adversarial ``^*`` loop over
a complete prereq digraph has a factorial frontier and would effectively
never terminate; a 100 ms deadline must cancel it within 2x the deadline
and leave the universe fully usable.
"""

import json
import threading
import time

import pytest

from repro import QueryProcessor, RuleEngine, Universe, obs
from repro.model.database import Database
from repro.model.evolution import drop_association
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.storage.serialize import subdatabase_to_dict
from repro.subdb.snapshot import SnapshotExpiredError
from repro.university import build_paper_database, build_sdb
from repro.university.schema import build_university_schema


def _dump(subdb) -> bytes:
    doc = subdatabase_to_dict(subdb)
    doc["name"] = "_"
    return json.dumps(doc, sort_keys=True).encode()


def _paper_engine(compact: bool = True) -> RuleEngine:
    data = build_paper_database()
    engine = RuleEngine(data.db, compact=compact)
    engine.universe.register(build_sdb(data))
    engine.add_rule("if context Teacher * Section * Course "
                    "then Teacher_course (Teacher, Course)", label="R1")
    engine.add_rule(
        "if context Department[name = 'CIS'] * Course * Section * "
        "Student where COUNT(Student by Course) > 39 "
        "then Suggest_offer (Course)", label="R2")
    engine.add_rule(
        "if context Department * Suggest_offer:Course "
        "where COUNT(Suggest_offer:Course by Department) > 20 "
        "then Deps_need_res (Department)", label="R3")
    engine.add_rule(
        "if context TA * Teacher * Section * Suggest_offer:Course "
        "then May_teach (TA, Course)", label="R4")
    engine.add_rule(
        "if context Grad * Transcript[grade >= 3.0] * Course[c# < 5000] "
        "then May_teach (Grad, Course)", label="R5")
    engine.add_rule(
        "if context Grad * TA * Teacher * Section * Student * "
        "Grad_1 ^* then Grad_teaching_grad (Grad, Grad_)", label="R6")
    engine.add_rule(
        "if context Grad * TA * Teacher * Section * Student * "
        "Grad_1 ^* then First_and_third (Grad, Grad_2)", label="R7")
    return engine


# Queries the reader threads cycle through: base patterns and every
# paper rule target (the colon form forces backward chaining through
# the snapshot session's provider).
READER_QUERIES = [
    "context Teacher * Section * Course",
    "context Teacher_course:Teacher * Teacher_course:Course",
    "context Suggest_offer:Course",
    "context May_teach:TA",
    "context Grad_teaching_grad:Grad",
    "context First_and_third:Grad",
]


def _complete_prereq(n: int) -> Database:
    """A complete digraph on ``n`` courses: every course is a prereq of
    every other.  ``^*`` path enumeration over it is factorial."""
    db = Database(build_university_schema(), name=f"k{n}")
    courses = [db.insert("Course", f"c{i}",
                         **{"c#": 1000 + i, "title": f"C{i}",
                            "credit_hours": 3})
               for i in range(n)]
    for src in courses:
        for tgt in courses:
            if src is not tgt:
                db.associate(src, "prereq", tgt)
    return db


def _linear_prereq(n: int) -> Database:
    db = Database(build_university_schema(), name=f"chain{n}")
    courses = [db.insert("Course", f"c{i}",
                         **{"c#": 1000 + i, "title": f"C{i}",
                            "credit_hours": 3})
               for i in range(n)]
    for i in range(1, n):
        db.associate(courses[i], "prereq", courses[i - 1])
    return db


# ---------------------------------------------------------------------------
# Deterministic snapshot isolation (single-threaded).
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_snapshot_unaffected_by_later_mutations(self):
        engine = _paper_engine()
        db = engine.db
        course = next(iter(db.extent("Course")))
        qp = engine.snapshot_session()
        snap = qp.universe.snapshot
        before_extent = set(snap.extent("Course"))
        before_title = snap.attr_value(course, "title")
        before_result = _dump(qp.execute(READER_QUERIES[0]).subdatabase)

        new = db.insert("Course", "c999",
                        **{"c#": 9999, "title": "New", "credit_hours": 1})
        db.set_attribute(course, "title", "Changed")
        db.delete(new.oid)

        assert set(snap.extent("Course")) == before_extent
        assert snap.attr_value(course, "title") == before_title
        assert _dump(qp.execute(READER_QUERIES[0]).subdatabase) \
            == before_result
        qp.universe.close()

    def test_snapshot_pins_deleted_entity_and_links(self):
        db = _linear_prereq(4)
        universe = Universe(db)
        qp = QueryProcessor(universe.snapshot())
        snap = qp.universe.snapshot
        victim = next(oid for oid in db.extent("Course")
                      if db.entity(oid)["title"] == "C2")
        before = _dump(qp.execute("context Course * Course_1").subdatabase)
        db.delete(victim)
        assert not db.has(victim)
        # The snapshot still serves the entity, its attributes and its
        # prereq edges.
        assert snap.has(victim)
        assert snap.attr_value(victim, "title") == "C2"
        assert _dump(qp.execute("context Course * Course_1").subdatabase) \
            == before
        qp.universe.close()

    def test_derivation_confined_to_snapshot_registry(self):
        engine = _paper_engine()
        qp = engine.snapshot_session()
        qp.execute("context Suggest_offer:Course")
        assert "Suggest_offer" in qp.universe.subdb_names
        assert "Suggest_offer" not in engine.universe.subdb_names
        qp.universe.close()

    def test_snapshot_version_pinned(self):
        engine = _paper_engine()
        qp = engine.snapshot_session()
        pinned = qp.universe.pinned_version
        engine.db.set_attribute(next(iter(engine.db.extent("Course"))),
                                "title", "X")
        assert qp.universe.pinned_version == pinned
        assert qp.universe.snapshot.version == pinned
        qp.universe.close()

    def test_schema_evolution_poisons_unpinned_reads(self):
        db = _linear_prereq(3)
        universe = Universe(db)
        snap_universe = universe.snapshot()
        snap = snap_universe.snapshot
        pinned = set(snap.extent("Course"))  # pinned before the change
        drop_association(db, "Course", "prereq")
        # The pinned piece stays readable ...
        assert set(snap.extent("Course")) == pinned
        # ... but a fall-through read of an unpinned piece refuses.
        with pytest.raises(SnapshotExpiredError):
            snap.extent("Student")
        snap_universe.close()

    def test_close_is_idempotent(self):
        engine = _paper_engine()
        qp = engine.snapshot_session()
        qp.universe.close()
        qp.universe.close()


# ---------------------------------------------------------------------------
# Readers racing a writer.
# ---------------------------------------------------------------------------


class TestConcurrentReaders:
    READERS = 4
    ITERATIONS = 6
    WRITES = 400

    def test_readers_race_writer(self):
        engine = _paper_engine()
        db = engine.db
        course = next(iter(db.extent("Course")))
        original = (db.entity(course)["title"], db.entity(course)["c#"])

        stop = threading.Event()
        errors = []

        def writer():
            k = 0
            try:
                while not stop.is_set():
                    # Paired attribute update: readers must see the
                    # title and c# from the same batch, never a mix.
                    with db.batch():
                        db.set_attribute(course, "title", f"T{k}")
                        db.set_attribute(course, "c#", 9000 + k)
                    if k % 7 == 0:
                        tmp = db.insert(
                            "Course", f"tmp{k}",
                            **{"c#": 8000 + k, "title": f"Tmp{k}",
                               "credit_hours": 1})
                        db.associate(tmp, "prereq", course)
                        db.delete(tmp.oid)
                    k += 1
                    if k >= self.WRITES:
                        break
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(("writer", exc))
            finally:
                stop.set()

        def reader(index):
            try:
                iteration = 0
                while not stop.is_set() or iteration < 2:
                    qp = engine.snapshot_session()
                    try:
                        snap = qp.universe.snapshot
                        pinned = qp.universe.pinned_version
                        title = snap.attr_value(course, "title")
                        cnum = snap.attr_value(course, "c#")
                        if title.startswith("T") and title != original[0]:
                            k = int(title[1:])
                            assert cnum == 9000 + k, \
                                f"torn batch: {title!r} with c#={cnum}"
                        else:
                            assert (title, cnum) == original
                        query = READER_QUERIES[
                            (index + iteration) % len(READER_QUERIES)]
                        first = _dump(qp.execute(query).subdatabase)
                        second = _dump(qp.execute(query).subdatabase)
                        assert first == second, \
                            "snapshot evaluation not repeatable"
                        assert qp.universe.pinned_version == pinned
                    finally:
                        qp.universe.close()
                    iteration += 1
                    if iteration >= self.ITERATIONS and stop.is_set():
                        break
            except Exception as exc:
                errors.append((f"reader{index}", exc))
                stop.set()

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.READERS)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        assert not writer_thread.is_alive()
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_not_blocked_by_idle_snapshot(self):
        """Holding a snapshot open must not stop writers (no long-held
        read lock): a full write runs while the snapshot exists."""
        engine = _paper_engine()
        qp = engine.snapshot_session()
        course = next(iter(engine.db.extent("Course")))
        engine.db.set_attribute(course, "title", "while-snapshotted")
        assert engine.db.entity(course)["title"] == "while-snapshotted"
        qp.universe.close()


# ---------------------------------------------------------------------------
# Snapshots sharing the live store's structures copy-on-write.
# ---------------------------------------------------------------------------


SHARED_QUERIES = [
    "context Course[credit_hours >= 3] * Section",
    "context Course[c# < 5000]",
    "context Course[title = 'Fresh']",
    "context Teacher * Section * Course",
    "context Department * Course",
]


def _shared_engine() -> RuleEngine:
    """The paper database behind an engine with three value indexes, and
    one extra course holding the highest dense id and a credit_hours
    value of its own (so that deleting it remaps no other bucket)."""
    engine = RuleEngine(build_paper_database().db)
    for attr in ("c#", "credit_hours", "title"):
        engine.universe.declare_index("Course", attr)
    engine.db.insert("Course", "last", **{"c#": 9900, "title": "Last",
                                          "credit_hours": 77})
    return engine


def _answers(processor: QueryProcessor):
    return [_dump(processor.execute(text).subdatabase)
            for text in SHARED_QUERIES]


def _scratch_answers(db: Database):
    """The set-based executor over a universe of its own: no intern
    table, CSR or value index in common with anything under test."""
    return _answers(QueryProcessor(Universe(db), compact=False))


def _fingerprint(store) -> dict:
    """Every array, list and map of every structure a store holds, by
    value — equal before and after a write iff nothing a pinned reader
    shares was mutated.  Intern tables are shared and grow by design,
    so each is read at the pin's version: its first ``n`` ids and the
    ids dead at the pin."""
    version = store.db.version

    def at_pin(table):
        table = table.at(version)
        n = len(table)
        return (n, table.full_id_set, tuple(table.values[:n]),
                tuple(table.oids[:n]),
                {value: i for value, i in table.index.items() if i < n})

    out = {}
    for key, table in store.interner._tables.items():
        out["table", key] = at_pin(table)
    for key, index in store._adj.items():
        out["adj", key] = (len(index.offsets) - 1, tuple(index.offsets),
                           tuple(index.neighbors), at_pin(index.src)[2],
                           at_pin(index.tgt)[2])
    for key, index in store.attrs._indexes.items():
        out["attr", key] = (
            tuple(index.values), at_pin(index.table)[2],
            {value: tuple(ids) for value, ids in index.buckets.items()},
            tuple(index.num_values), tuple(index.num_ids),
            {t: (tuple(vals), tuple(ids))
             for t, (vals, ids) in index.typed.items()},
            index.none_count, index.num_count, dict(index.type_counts))
    return out


class TestSharedSnapshotStructures:
    """A pinned session adopts the live store's intern tables, CSR and
    value indexes; the live store forks what it has lent before
    maintaining it in place.  Nothing a reader shares may ever change."""

    def _last(self, db):
        return max(db.extent("Course"), key=lambda oid: oid.value)

    def _insert(self, db):
        # credit_hours 4 and title 'Fresh' land in buckets no DELETE of
        # the last course remapped.
        db.insert("Course", "fresh", **{"c#": 4100, "title": "Fresh",
                                        "credit_hours": 4})

    def _set(self, db):
        course = min(db.extent("Course"), key=lambda oid: oid.value)
        db.set_attribute(course, "credit_hours", 4)
        db.set_attribute(course, "c#", 6500)
        db.set_attribute(course, "title", "Fresh")

    @pytest.mark.parametrize("writes", [
        ("delete", "insert"), ("set",), ("insert",),
        ("insert", "set", "delete", "insert"),
    ], ids="+".join)
    def test_pinned_structures_survive_live_maintenance(self, writes):
        engine = _shared_engine()
        db = engine.db
        warm = engine.snapshot_session()
        _answers(warm)           # builds everything through the live store
        warm.universe.close()
        pin = engine.snapshot_session()
        store = pin.universe.compact
        assert store.interner._tables and store._adj \
            and len(store.attrs._indexes) == 3, "nothing was adopted"
        assert store.tables_built == store.indexes_built \
            == store.attrs.built == 0
        shared = _fingerprint(store)
        expected = _answers(pin)
        assert expected == _scratch_answers(db)
        assert _fingerprint(store) == shared   # reads built nothing new
        for step, kind in enumerate(writes):
            if kind == "delete":
                db.delete(self._last(db))
            elif kind == "insert":
                self._insert(db)
            else:
                self._set(db)
            context = f"after {'+'.join(writes[:step + 1])}"
            assert _fingerprint(store) == shared, \
                f"{context}: a structure shared with the pin was mutated"
            assert _answers(pin) == expected, context
            fresh = engine.snapshot_session()
            try:
                assert _answers(fresh) == _scratch_answers(db), context
            finally:
                fresh.universe.close()
        assert engine.universe.compact.forked > 0
        pin.universe.close()

    def test_repin_adopts_instead_of_rebuilding(self):
        engine = _shared_engine()
        live = engine.universe.compact
        first = engine.snapshot_session()
        _answers(first)
        first.universe.close()
        assert live.built_shared > 0 and live.built_private == 0
        built = (live.tables_built, live.indexes_built, live.attrs.built)
        edges = set(live._adj)
        self._insert(engine.db)
        second = engine.snapshot_session()
        try:
            assert _answers(second) == _scratch_answers(engine.db)
            store = second.universe.compact
            assert (store.tables_built, store.indexes_built,
                    store.attrs.built) == (0, 0, 0)
        finally:
            second.universe.close()
        # The extent sizes moved, so the planner may cross an edge in a
        # direction nobody indexed yet; nothing else may be built.
        crossed = len(set(live._adj) - edges)
        assert (live.tables_built, live.indexes_built - crossed,
                live.attrs.built) == built, "the re-pin rebuilt something"
        stats = engine.universe.index_stats()["store"]
        assert stats["adopted"] > 0 and stats["forked"] > 0
        assert stats["built_private"] == 0

    def test_private_build_only_for_a_pin_older_than_the_stamps(self):
        """Pin, foreign write into the footprint, first read on the old
        pin: the live structures are no longer the pinned state, so the
        old pin builds from its pre-images — and a pin taken after the
        write builds through the live store again."""
        engine = _shared_engine()
        live = engine.universe.compact
        old = engine.snapshot_session()
        expected = _scratch_answers(engine.db)
        self._insert(engine.db)
        assert _answers(old) == expected
        assert live.built_private > 0
        assert old.universe.compact.tables_built > 0
        # Course moved; Teacher, Section and Department did not, and
        # came through the live store all the same.
        assert live.built_shared > 0
        private = live.built_private
        new = engine.snapshot_session()
        assert _answers(new) == _scratch_answers(engine.db)
        assert live.built_private == private
        assert new.universe.compact.tables_built == 0
        assert _answers(old) == expected
        old.universe.close()
        new.universe.close()

    def test_sharing_counters_count_what_the_pin_kept(self):
        """``built_shared`` counts a structure the pinned store keeps,
        ``built_private`` a private build that ran — a structure the
        live store built over tables that are no longer the pin's is
        neither kept, nor lent, nor counted shared."""
        from repro.subdb.refs import ClassRef
        engine = _shared_engine()
        live = engine.universe.compact
        for cls in ("Teacher", "Section", "Course", "Department"):
            engine.universe.intern_table(ClassRef(cls))
        pin = engine.snapshot_session()
        store = pin.universe.compact
        live.clear()     # the live store interns again, from nothing
        assert _answers(pin) == _scratch_answers(engine.db)
        assert store.tables_built == 0     # all four were adopted
        assert live.built_shared == 0
        assert live.built_private == \
            store.indexes_built + store.attrs.built > 0
        assert not any(index.lent for index in live._adj.values())
        assert not any(index.lent
                       for index in live.attrs._indexes.values())
        # A declaration the live universe dropped after the pin: the
        # pin still has it, and builds the index from its pre-images.
        private = live.built_private
        engine.universe.drop_index("Course", "title")
        store.attrs._indexes.pop(("Course", "title"))
        assert pin.universe.attr_index(ClassRef("Course"), "title") \
            is not None
        assert live.built_private == private + 1
        assert live.built_shared == 0
        pin.universe.close()

    def test_pin_inside_an_open_batch_adopts_nothing(self):
        """Mid-batch the live store has not heard the batch's events
        yet, so it is not the pinned state: the pin builds privately."""
        engine = _shared_engine()
        db = engine.db
        warm = engine.snapshot_session()
        _answers(warm)
        warm.universe.close()
        live = engine.universe.compact
        adopted, shared = live.adopted, live.built_shared
        with db.batch():
            self._insert(db)
            pin = engine.snapshot_session()
            expected = _scratch_answers(db)
            assert _answers(pin) == expected
            assert (live.adopted, live.built_shared) == (adopted, shared)
            assert pin.universe.compact.tables_built > 0
            self._set(db)
        assert _answers(pin) == expected
        pin.universe.close()
        fresh = engine.snapshot_session()
        assert _answers(fresh) == _scratch_answers(db)
        fresh.universe.close()

    def test_private_index_build_reads_the_column_under_one_lock(self):
        """The fallback build of an old pin reads pre-images first and
        the rest live, in one read-lock acquisition per column — not
        one per object."""
        from repro.subdb.refs import ClassRef
        engine = _shared_engine()
        db = engine.db
        for k in range(200):
            db.insert("Course", f"bulk{k}", **{"c#": 100 + k,
                                               "title": f"B{k}",
                                               "credit_hours": 2})
        old = engine.snapshot_session()
        snap = old.universe.snapshot
        changed = min(db.extent("Course"), key=lambda oid: oid.value)
        was = db.entity(changed)["c#"]
        db.set_attribute(changed, "c#", 1)      # pre-image pinned
        self._insert(db)                        # extent stamp moves
        acquired = []
        acquire = db._rw.acquire_read
        db._rw.acquire_read = lambda: (acquired.append(1), acquire())[1]
        try:
            index = old.universe.attr_index(ClassRef("Course"), "c#")
        finally:
            del db._rw.acquire_read
        assert engine.universe.compact.built_private > 0
        assert len(acquired) <= 6, (
            f"{len(acquired)} read-lock acquisitions for a "
            f"{len(index)}-row column")
        assert len(index) == len(snap.extent("Course")) == 205
        assert index.values[index.table.index[changed.value]] == was
        assert list(index.probe("=", 1)[1]) == []
        old.universe.close()

    def test_link_count_does_not_pin(self):
        engine = _shared_engine()
        db = engine.db
        link = db.schema.resolve_link("Teacher", "Section").link
        snap = engine.universe.snapshot().snapshot
        count = db.link_count(link)
        assert snap.link_count(link) == count
        assert link.key not in snap._links, "counting pinned the link"
        teacher = next(oid for oid in sorted(db.extent("Teacher"))
                       if not db.linked(oid, link))
        db.associate(teacher, "teaches", min(db.extent("Section")))
        assert db.link_count(link) == count + 1
        assert snap.link_count(link) == count   # the writer pinned it
        snap.close()

    def test_readers_repin_and_probe_while_writer_inserts_and_deletes(self):
        """Two readers re-pinning and probing, one writer inserting and
        deleting: every pin's table, index and answer describe exactly
        its pinned extent — no phantom dense id, no stale row.

        Adoption needs a pin taken after an earlier pin built through
        the live store with no write in between, which free-running
        threads reach only by luck; so the writer twice holds still
        until each reader has pinned three more times, and its next
        writes then fork what those pins were lent."""
        import sys
        from repro.subdb.refs import ClassRef
        engine = _shared_engine()
        db = engine.db
        ref = ClassRef("Course")
        stop = threading.Event()
        errors = []
        pinned = [0, 0]
        turned = threading.Condition()

        def writer():
            own = []
            try:
                for k in range(600):
                    if stop.is_set():
                        break
                    if k in (200, 400):
                        with turned:
                            start = list(pinned)
                            turned.wait_for(
                                lambda: stop.is_set() or all(
                                    now - was >= 3
                                    for now, was in zip(pinned, start)),
                                timeout=30)
                    if k % 3 == 2:
                        db.delete(own.pop(0))
                    else:
                        own.append(db.insert(
                            "Course", f"w{k}",
                            **{"c#": 7000 + k, "title": f"W{k}",
                               "credit_hours": 1 + k % 5}).oid)
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(("writer", exc))
            finally:
                stop.set()

        def reader(index):
            try:
                pins = 0
                while not stop.is_set() or pins < 3:
                    qp = engine.snapshot_session()
                    try:
                        snap = qp.universe.snapshot
                        extent = set(snap.extent("Course"))
                        want = {oid for oid in extent
                                if snap.attr_value(oid, "c#") >= 7000}
                        result = qp.execute("context Course[c# >= 7000]")
                        got = {p.values[0]
                               for p in result.subdatabase.patterns}
                        assert got == want, (
                            f"pin at {qp.universe.pinned_version}: "
                            f"{len(got - want)} phantom, "
                            f"{len(want - got)} missing rows")
                        # Deleted members stay in the columns,
                        # tombstoned: the live ids are the extent.
                        table = qp.universe.intern_table(ref)
                        live = table.full_id_set
                        assert {table.oids[i] for i in live} == extent
                        assert table.live_count == len(extent)
                        attr = qp.universe.attr_index(ref, "c#")
                        assert attr.table is table
                        assert attr.stats()["rows"] == len(extent)
                        _, ids = attr.probe("!=", None)
                        assert list(ids) == sorted(live)
                    finally:
                        qp.universe.close()
                    pins += 1
                    with turned:
                        pinned[index] = pins
                        turned.notify_all()
            except Exception as exc:
                errors.append((f"reader{index}", exc))
                stop.set()
                with turned:
                    turned.notify_all()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(2)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not errors, errors[0]
        assert not any(thread.is_alive() for thread in threads)
        live = engine.universe.compact
        assert live.adopted > 0 and live.forked > 0

    def test_readers_pin_while_the_writer_queries_the_live_universe(self):
        """The writer thread also *reads* the live universe between its
        writes — queries, a rule target, an index re-declared — and each
        miss fills the live store's maps holding no lock at all.  Pins
        taken meanwhile must neither trip over a map that grows under
        them nor adopt anything but their pinned state."""
        import sys
        engine = _shared_engine()
        engine.add_rule("if context Teacher * Section * Course "
                        "then Teacher_course (Teacher, Course)", label="R1")
        db = engine.db
        teaches = db.schema.resolve_link("Teacher", "Section")
        teacher, section = min(
            (teacher.value, section.value, teacher, section)
            for teacher in db.extent("Teacher")
            for section in db.neighbors(teacher, teaches))[2:]
        stop = threading.Event()
        errors = []

        def writer():
            linked = True
            try:
                for k in range(800):
                    if stop.is_set():
                        break
                    # Drops the link's CSR indexes; the queries below
                    # re-insert them into the live map.
                    if linked:
                        db.dissociate(teacher, "teaches", section)
                    else:
                        db.associate(teacher, "teaches", section)
                    linked = not linked
                    if k % 2:
                        engine.universe.drop_index("Course", "title")
                        engine.universe.declare_index("Course", "title")
                    engine.processor.execute(
                        "context Teacher * Section * Course[title = 'Last']")
                    # Re-derived after the write: its extent tables are
                    # dropped and interned again.
                    engine.query("context Teacher_course:Teacher * "
                                 "Teacher_course:Course")
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(("writer", exc))
            finally:
                stop.set()

        def reader(index):
            # Reader 0 checks what it pinned; the others only pin, as
            # fast as they can — adoption is where the maps are read.
            try:
                pins = 0
                while not stop.is_set() or pins < 3:
                    qp = engine.snapshot_session()
                    try:
                        if index == 0:
                            oracle = QueryProcessor(qp.universe,
                                                    compact=False)
                            assert _answers(qp) == _answers(oracle), \
                                f"pin at {qp.universe.pinned_version}"
                    finally:
                        qp.universe.close()
                    pins += 1
            except Exception as exc:
                errors.append((f"reader{index}", exc))
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(3)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not errors, errors[0]
        assert not any(thread.is_alive() for thread in threads)
        assert engine.universe.compact.adopted > 0

    def test_readers_render_while_the_writer_inserts_and_queries_live(self):
        """Label columns under concurrent renders.  The writer inserts
        and deletes Students, queries the live universe (a rule target
        among the queries, so fresh tables keep appearing) and hands
        each live result to both readers, which render it while the
        writer goes on appending to the base tables the result is
        interned against; the readers also pin and render.  No reader
        may index past a label column, print a wrong label, or disagree
        with the set-based oracle on its pin."""
        import sys
        from repro.subdb.subdatabase import decode_rows
        from repro.subdb.subdatabase import Subdatabase
        from repro.university.generator import (GeneratorConfig,
                                                generate_university)
        engine = RuleEngine(generate_university(GeneratorConfig(),
                                                seed=5).db)
        engine.universe.declare_index("Student", "GPA")
        engine.add_rule("if context Student[GPA >= 3.0] * Section "
                        "then Honors (Student, Section)", label="H")
        db = engine.db
        queries = ["context Student[GPA >= 3.5] * Section",
                   "context Honors:Student * Honors:Section",
                   "context Student[GPA < 2.3]"]
        handed = [None]
        stop = threading.Event()
        errors = []

        def writer():
            own = []
            try:
                for k in range(400):
                    if stop.is_set():
                        break
                    if k % 4 == 3:
                        db.delete(own.pop(0))
                    else:
                        own.append(db.insert(
                            "Student", f"w{k}",
                            **{"SS#": f"9-{k:06d}", "name": f"W{k}",
                               "GPA": 2.0 + (k % 20) / 10}).oid)
                    result = engine.processor.execute(
                        queries[k % 3], name="q").subdatabase
                    expected = Subdatabase(
                        "q", result.intension,
                        decode_rows(result._columns,
                                    result._tables)).describe()
                    handed[0] = (result, expected)
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(("writer", exc))
            finally:
                stop.set()

        def render_handed():
            item = handed[0]
            if item is not None:
                assert item[0].describe() == item[1], "live result"

        def reader(index):
            try:
                pins = 0
                while not stop.is_set() or pins < 3:
                    render_handed()
                    qp = engine.snapshot_session()
                    render_handed()
                    try:
                        text = queries[(pins + index) % 3]
                        oracle = QueryProcessor(qp.universe, compact=False)
                        assert qp.execute(text, name="q").render() == \
                            oracle.execute(text, name="q").render(), \
                            f"pin at {qp.universe.pinned_version}"
                    finally:
                        qp.universe.close()
                    pins += 1
            except Exception as exc:
                errors.append((f"reader{index}", exc))
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(2)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not errors, errors[0]
        assert not any(thread.is_alive() for thread in threads)
        table = engine.universe.compact.interner.get(("base", "Student"))
        assert table.label_column() == [repr(oid) for oid in table.oids]

    def test_first_label_builds_race_each_other_and_appends(self):
        """The window the test above only grazes, held open: two
        renderers build one fresh table's label column at once while its
        owner appends.  Each must get a column covering every id that
        existed when it asked, and the table must end exact."""
        import sys
        from repro.model.interning import InternTable
        from repro.model.oid import OID
        failures = []

        def render(table, barrier):
            barrier.wait()
            for _ in range(3):
                members = list(table.oids)
                column = table.label_column()
                if column[:len(members)] != [repr(o) for o in members]:
                    failures.append(len(members))

        def append(table, barrier):
            barrier.wait()
            for k in range(20):
                table.append(OID(10_000 + k, f"n{k}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(40):
                table = InternTable(("base", "X"),
                                    [OID(v, f"x{v}" if v % 2 else None)
                                     for v in range(1, 2001)])
                barrier = threading.Barrier(3)
                threads = [threading.Thread(target=render,
                                            args=(table, barrier)),
                           threading.Thread(target=render,
                                            args=(table, barrier)),
                           threading.Thread(target=append,
                                            args=(table, barrier))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert table.label_column() == \
                    [repr(o) for o in table.oids], f"trial {trial}"
        finally:
            sys.setswitchinterval(interval)
        assert not failures, f"{len(failures)} renders got a wrong column"


# ---------------------------------------------------------------------------
# Budgets cancelling runaway evaluation.
# ---------------------------------------------------------------------------


class TestBudgetCancellation:
    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_deadline_cancels_unbounded_loop(self, compact):
        db = _complete_prereq(12)
        universe = Universe(db)
        qp = QueryProcessor(universe, on_cycle="stop", compact=compact)
        budget = QueryBudget(deadline_ms=100)
        with pytest.raises(BudgetExceeded) as info:
            qp.execute("context Course * Course_1 ^*", budget=budget)
        assert info.value.verdict == "deadline"
        # Partial metrics survive the trip.
        assert info.value.metrics is not None
        assert info.value.metrics.budget_verdict == "deadline"

        # The universe is uncorrupted: bounded queries on the tripped
        # universe match a freshly built twin byte for byte.
        fresh = QueryProcessor(Universe(_complete_prereq(12)),
                               on_cycle="stop", compact=compact)
        for query in ("context Course", "context Course * Course_1"):
            assert _dump(qp.execute(query).subdatabase) \
                == _dump(fresh.execute(query).subdatabase), query

    @pytest.mark.slow
    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_deadline_cancellation_is_prompt(self, compact):
        """Wall-clock half of the deadline contract, kept apart from
        the functional assertions above so loaded CI boxes don't flake
        the whole test: cancellation lands within a generous multiple
        of the budget, nowhere near the factorial full runtime."""
        qp = QueryProcessor(Universe(_complete_prereq(12)),
                            on_cycle="stop", compact=compact)
        budget = QueryBudget(deadline_ms=100)
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            qp.execute("context Course * Course_1 ^*", budget=budget)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert elapsed_ms < 2000.0, \
            f"cancelled after {elapsed_ms:.1f} ms (budget 100 ms)"

    def test_max_rows_verdict(self):
        db = _complete_prereq(8)
        qp = QueryProcessor(Universe(db))
        with pytest.raises(BudgetExceeded) as info:
            qp.execute("context Course * Course_1",
                       budget=QueryBudget(max_rows=5))
        assert info.value.verdict == "max_rows"

    def test_max_loop_levels_verdict(self):
        db = _linear_prereq(8)
        qp = QueryProcessor(Universe(db), on_cycle="stop")
        with pytest.raises(BudgetExceeded) as info:
            qp.execute("context Course * Course_1 ^*",
                       budget=QueryBudget(max_loop_levels=2))
        assert info.value.verdict == "max_loop_levels"

    def test_within_budget_queries_unaffected(self):
        db = _linear_prereq(6)
        qp = QueryProcessor(Universe(db), on_cycle="stop")
        budget = QueryBudget(deadline_ms=60_000, max_rows=1_000_000,
                             max_loop_levels=64)
        budgeted = _dump(qp.execute("context Course * Course_1 ^*",
                                    budget=budget).subdatabase)
        free = _dump(qp.execute("context Course * Course_1 ^*")
                     .subdatabase)
        assert budgeted == free

    def test_engine_query_budget_and_recovery(self):
        engine = _paper_engine()
        with pytest.raises(BudgetExceeded):
            engine.query("context Student * Section * Course",
                         budget=QueryBudget(max_rows=1))
        # The ambient budget is cleared: the same query now completes.
        result = engine.query("context Student * Section * Course")
        assert len(result.subdatabase) > 1
        assert engine.evaluator.budget is None


# ---------------------------------------------------------------------------
# Tracing under concurrency.
# ---------------------------------------------------------------------------


class TestTracingConcurrency:
    @pytest.fixture(autouse=True)
    def _no_tracer_leak(self):
        yield
        obs.uninstall()

    def test_traces_well_formed_under_reader_writer_stress(self):
        from tests.test_tracing import assert_well_formed
        engine = _paper_engine()
        db = engine.db
        course = next(iter(db.extent("Course")))
        tracer = obs.install()
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for k in range(100):
                    db.set_attribute(course, "title", f"T{k}")
            except Exception as exc:  # pragma: no cover
                errors.append(("writer", exc))
            finally:
                stop.set()

        def reader(index):
            try:
                iteration = 0
                while not stop.is_set() or iteration < 2:
                    qp = engine.snapshot_session()
                    try:
                        query = READER_QUERIES[
                            (index + iteration) % len(READER_QUERIES)]
                        qp.execute(query)
                    finally:
                        qp.universe.close()
                    iteration += 1
                    if iteration >= 4 and stop.is_set():
                        break
            except Exception as exc:
                errors.append((f"reader{index}", exc))
                stop.set()

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(3)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        roots = tracer.recorder.traces()
        assert roots, "no traces recorded under stress"
        for root in roots:
            assert_well_formed(root)


def _generated_db() -> Database:
    from repro.university.generator import (GeneratorConfig,
                                            generate_university)
    return generate_university(GeneratorConfig(), seed=13).db


class TestMetricsIsolation:
    """Regression: ``EvaluationMetrics`` used to be reused across nested
    and successive evaluations, so a provider-driven cascade (or simply
    re-running a query on a reused evaluator) appended plan records
    onto the previous query's metrics."""

    def test_plans_not_accumulated_across_queries(self):
        processor = QueryProcessor(Universe(_generated_db()), compact=True)
        processor.execute("context Student * Section * Course")
        first = processor.evaluator.last_metrics
        processor.execute("context Student * Section * Course")
        second = processor.evaluator.last_metrics
        assert second is not first
        assert len(first.plans) == len(second.plans) == 1

    def test_cascade_derivation_metrics_are_per_query(self):
        engine = RuleEngine(_generated_db(), compact=True)
        engine.add_rule("if context Student * Section "
                        "then Enrolled (Student, Section)")
        engine.add_rule("if context Enrolled:Section * Course "
                        "then Offered (Section, Course)")
        result = engine.query("context Offered:Section * Course")
        # Each evaluation's own record only, not the concatenation of
        # every nested one: deriving Offered evaluated Enrolled inside
        # its own evaluation, on the same evaluator.
        assert len(result.metrics.plans) == 1
        assert len(engine.evaluator.last_metrics.plans) == 1
