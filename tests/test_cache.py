"""Footprint version vectors and the cross-query result cache.

Every update stamps only what it moved — an extent (superclass
closure), a link, or an attribute — queries are fingerprinted and
cached against the version vector of exactly the footprint they read,
and the compact store applies single-object INSERT/DELETE as deltas
instead of purging.  These tests pin down the vector semantics, the
cache's hit/miss/invalidation behavior, memory bounding, budget and
snapshot interaction, the planner's per-entry statistics, and the
delta paths.
"""

from __future__ import annotations

import pytest

from repro import QueryProcessor, RuleEngine, Universe
from repro.model.database import Database
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.oql.cache import (
    DEFAULT_CACHE_BYTES,
    ResultCache,
    fingerprint,
)
from repro.oql.evaluator import PatternEvaluator, _flatten
from repro.oql.footprint import ALL, Footprint, footprint_of
from repro.oql.parser import parse_query
from repro.oql.planner import Planner
from repro.subdb.refs import ClassRef
from repro.university import build_paper_database, build_sdb


def _labels(subdb):
    return sorted(subdb.labels(),
                  key=lambda t: tuple(str(x) for x in t))


# ----------------------------------------------------------------------
# Version vectors
# ----------------------------------------------------------------------


def _extent_stamp(db, cls):
    return db.version_vector(Footprint(extents=frozenset((cls,))))[1]


def _link_stamp(db, owner, name):
    return db.version_vector(Footprint(links=frozenset(((owner, name),))))[1]


def _attr_stamp(db, cls, name):
    return db.version_vector(Footprint(attrs=frozenset(((cls, name),))))[1]


class TestVersionVectors:
    def test_insert_bumps_superclass_closure_only(self, paper):
        db = paper.db
        before = {cls: _extent_stamp(db, cls) for cls in
                  ("TA", "Grad", "Teacher", "Student", "Person",
                   "Course", "Section")}
        db.insert("TA", "ta_new")
        for cls in ("TA", "Grad", "Teacher", "Student", "Person"):
            assert _extent_stamp(db, cls) > before[cls], cls
        for cls in ("Course", "Section"):
            assert _extent_stamp(db, cls) == before[cls], cls

    def test_associate_bumps_its_link_only(self, paper):
        db = paper.db
        teacher = db.insert("Teacher", "t_new", **{"SS#": "999-99-0001",
                                                   "name": "N"})
        extents = {cls: _extent_stamp(db, cls) for cls in
                   ("Teacher", "Person", "Section", "Course")}
        teaches = _link_stamp(db, "Teacher", "teaches")
        course = _link_stamp(db, "Section", "course")
        db.associate(teacher, "teaches", paper["s2"])
        assert _link_stamp(db, "Teacher", "teaches") > teaches
        assert _link_stamp(db, "Section", "course") == course
        for cls, stamp in extents.items():
            assert _extent_stamp(db, cls) == stamp, cls

    def test_set_attribute_bumps_attribute_over_closure(self, paper):
        db = paper.db
        extent = _extent_stamp(db, "Person")
        before = {cls: _attr_stamp(db, cls, "name")
                  for cls in ("Teacher", "Person", "Student")}
        other = _attr_stamp(db, "Teacher", "degree")
        db.set_attribute(paper.oid("t1"), "name", "Renamed")
        assert _attr_stamp(db, "Teacher", "name") > before["Teacher"]
        assert _attr_stamp(db, "Person", "name") > before["Person"]
        # t1 is no Student: a query over Student.name is not moved.
        assert _attr_stamp(db, "Student", "name") == before["Student"]
        assert _attr_stamp(db, "Teacher", "degree") == other
        assert _extent_stamp(db, "Person") == extent

    def test_delete_stamps_extent_and_dropped_links(self, paper):
        db = paper.db
        teaches = _link_stamp(db, "Teacher", "teaches")
        course = _link_stamp(db, "Section", "course")
        db.delete(paper.oid("t1"))
        assert _link_stamp(db, "Teacher", "teaches") == db.version
        assert _link_stamp(db, "Teacher", "teaches") > teaches
        assert _extent_stamp(db, "Teacher") == db.version
        assert _link_stamp(db, "Section", "course") == course

    def test_vector_shape_and_unknown_keys(self, paper):
        db = paper.db
        footprint = Footprint(frozenset(("Teacher", "Course")),
                              frozenset((("Teacher", "teaches"),)),
                              frozenset((("Teacher", "name"),)))
        assert db.version_vector(footprint) == (
            db.schema_version,
            _extent_stamp(db, "Course"), _extent_stamp(db, "Teacher"),
            _link_stamp(db, "Teacher", "teaches"),
            _attr_stamp(db, "Teacher", "name"))
        assert db.version_vector(ALL) == (db.schema_version, db.version)
        # A key never written reports version 0.
        fresh = Database(paper.db.schema.__class__("empty"))
        assert _extent_stamp(fresh, "anything") == 0

    def test_versions_monotonic_per_event(self, paper):
        db = paper.db
        v1 = _extent_stamp(db, "Course")
        db.insert("Course", "c_new", **{"c#": 900, "title": "X",
                                        "credit_hours": 1})
        v2 = _extent_stamp(db, "Course")
        db.insert("Course", "c_new2", **{"c#": 901, "title": "Y",
                                         "credit_hours": 1})
        assert v1 < v2 < _extent_stamp(db, "Course")

    def test_snapshot_pins_vector(self, paper):
        universe = Universe(paper.db)
        snap = universe.snapshot()
        teachers = Footprint(extents=frozenset(("Teacher",)))
        pinned = snap.version_vector(teachers)
        paper.db.insert("Teacher", "t_post", **{"SS#": "1", "name": "P"})
        assert snap.version_vector(teachers) == pinned
        assert universe.version_vector(teachers) != pinned


# ----------------------------------------------------------------------
# ResultCache unit behavior
# ----------------------------------------------------------------------


class TestResultCacheUnit:
    def test_miss_store_hit(self):
        cache = ResultCache(max_bytes=1024)
        assert cache.lookup("k", (1,)) is None
        assert cache.store("k", (1,), "value", 100)
        assert cache.lookup("k", (1,)) == "value"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_vector_mismatch_drops_entry(self):
        cache = ResultCache(max_bytes=1024)
        cache.store("k", (1,), "value", 100)
        assert cache.lookup("k", (2,)) is None
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0
        assert cache.bytes_used == 0

    def test_lru_eviction_by_bytes(self):
        cache = ResultCache(max_bytes=250)
        cache.store("a", (1,), "A", 100)
        cache.store("b", (1,), "B", 100)
        cache.lookup("a", (1,))          # refresh a: b is now LRU tail
        cache.store("c", (1,), "C", 100)
        assert cache.lookup("b", (1,)) is None
        assert cache.lookup("a", (1,)) == "A"
        assert cache.lookup("c", (1,)) == "C"
        assert cache.stats()["evictions"] == 1
        assert cache.bytes_used <= 250

    def test_oversized_value_rejected(self):
        cache = ResultCache(max_bytes=100)
        assert not cache.store("big", (1,), "V", 1000)
        assert len(cache) == 0

    def test_drop_and_clear(self):
        cache = ResultCache(max_bytes=1024)
        cache.store("a", (1,), "A", 10)
        cache.store("b", (1,), "B", 10)
        cache.drop("a")
        assert cache.bytes_used == 10
        cache.drop("missing")            # no-op
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0

    def test_disabled_when_zero_budget(self):
        assert not ResultCache(max_bytes=0).enabled
        assert ResultCache(max_bytes=10, enabled=False).enabled is False


# ----------------------------------------------------------------------
# Fingerprints and eligibility
# ----------------------------------------------------------------------


class TestFingerprints:
    def test_where_differentiates(self):
        q1 = parse_query("context Teacher * Section")
        q2 = parse_query("context Teacher * Section "
                         "where Teacher.degree = 'MS'")
        assert fingerprint(q1.context, q1.where) != \
            fingerprint(q2.context, q2.where)

    def test_condition_differentiates(self):
        q1 = parse_query("context TA [GPA < 3.5] * Section")
        q2 = parse_query("context TA [GPA < 3.0] * Section")
        assert fingerprint(q1.context, q1.where) != \
            fingerprint(q2.context, q2.where)

    def test_select_does_not_differentiate(self):
        # The cache stores the context subdatabase; Select/operation
        # bind afterwards, so they share one entry.
        q1 = parse_query("context Teacher * Section")
        q2 = parse_query("context Teacher * Section select Teacher")
        assert fingerprint(q1.context, q1.where) == \
            fingerprint(q2.context, q2.where)

    def test_query_footprint(self, paper):
        flat = _flatten(parse_query(
            "context Grad * TA * Teacher * Section").context.chain)
        footprint = footprint_of(flat.terms, (), paper.db.schema)
        assert footprint.extents == {"Grad", "Section", "TA", "Teacher"}
        # Grad * TA * Teacher are identity (generalization) edges.
        assert footprint.links == {("Teacher", "teaches")}
        assert not footprint.attrs and not footprint.everything

    def test_derived_refs_ineligible(self, paper):
        flat = _flatten(parse_query(
            "context SDB:Teacher * SDB:Section").context.chain)
        assert footprint_of(flat.terms, (), paper.db.schema) is ALL


# ----------------------------------------------------------------------
# Cross-query caching through the evaluator
# ----------------------------------------------------------------------


QUERY = "context Teacher * Section * Course"


class TestCrossQueryCache:
    def _qp(self, paper, **kwargs):
        return QueryProcessor(Universe(paper.db),
                              cache_bytes=1 << 20, **kwargs)

    def test_repeat_query_hits(self, paper):
        qp = self._qp(paper)
        first = qp.execute(QUERY)
        second = qp.execute(QUERY)
        assert second.metrics.cache_hits == 1
        assert first.metrics.cache_hits == 0
        assert _labels(second.subdatabase) == _labels(first.subdatabase)
        # Each serving is an independent clone under its own name.
        assert second.subdatabase.name != first.subdatabase.name

    def test_unrelated_write_keeps_entry_warm(self, paper):
        # Department is outside the query's footprint, so a churn of
        # inserts there must leave every re-read a hit.
        qp = self._qp(paper)
        qp.execute(QUERY)
        cache = qp.evaluator.result_cache
        hits, misses = cache.hits, cache.misses
        writes = 20
        for tick in range(writes):
            paper.db.insert("Department", f"d_new{tick}",
                            name=f"Astronomy{tick}")
            result = qp.execute(QUERY)
            assert result.metrics.cache_hits == 1
        assert (cache.hits - hits, cache.misses - misses) == (writes, 0)

    def test_related_write_invalidates(self, paper):
        qp = self._qp(paper)
        baseline = qp.execute(QUERY)
        teacher = paper.db.insert("Teacher", "t_new",
                                  **{"SS#": "7", "name": "New"})
        paper.db.associate(teacher, "teaches", paper["s2"])
        result = qp.execute(QUERY)
        assert result.metrics.cache_hits == 0
        assert result.metrics.cache_misses == 1
        assert len(result.subdatabase) == len(baseline.subdatabase) + 1
        stats = qp.evaluator.result_cache.stats()
        assert stats["invalidations"] >= 1

    def test_subclass_write_invalidates_superclass_query(self, paper):
        # Inserting a TA stamps Teacher (superclass closure), so a
        # Teacher-chain entry must miss — the TA joins Teacher's extent.
        qp = self._qp(paper)
        qp.execute(QUERY)
        paper.db.insert("TA", "ta_new")
        assert qp.execute(QUERY).metrics.cache_hits == 0

    def test_derived_ref_query_bypasses(self, paper):
        qp = self._qp(paper)
        qp.universe.register(build_sdb(paper))
        text = "context SDB:Teacher * SDB:Section"
        qp.execute(text)
        result = qp.execute(text)
        assert result.metrics.cache_hits == 0
        assert result.metrics.cache_misses == 0
        assert len(qp.evaluator.result_cache) == 0

    def test_hit_results_independent(self, paper):
        qp = self._qp(paper)
        first = qp.execute(QUERY).subdatabase
        second = qp.execute(QUERY).subdatabase
        assert first is not second
        assert {p for p in first.patterns} == {p for p in second.patterns}

    def test_budget_trip_never_populates(self, paper):
        qp = self._qp(paper)
        with pytest.raises(BudgetExceeded):
            qp.execute(QUERY, budget=QueryBudget(max_rows=1))
        assert len(qp.evaluator.result_cache) == 0
        # A later unbudgeted run computes and stores normally.
        qp.execute(QUERY)
        assert len(qp.evaluator.result_cache) == 1

    def test_cache_off_by_default(self, paper):
        qp = QueryProcessor(Universe(paper.db))
        qp.execute(QUERY)
        result = qp.execute(QUERY)
        assert result.metrics.cache_hits == 0
        assert len(qp.evaluator.result_cache) == 0
        assert not qp.evaluator.result_cache.enabled
        assert qp.evaluator.result_cache.max_bytes == DEFAULT_CACHE_BYTES

    def test_identical_results_cache_on_vs_off(self, paper):
        cold = QueryProcessor(Universe(paper.db))
        warm = self._qp(paper)
        for text in (QUERY, QUERY,
                     "context TA [GPA < 3.5] * Teacher * Section",
                     "context Course * Course_1 ^*"):
            assert _labels(warm.execute(text).subdatabase) == \
                _labels(cold.execute(text).subdatabase)


class TestSnapshotCoherence:
    def test_snapshot_session_hits_survive_live_writes(self, paper):
        engine = RuleEngine(paper.db, cache_bytes=1 << 20)
        session = engine.snapshot_session()
        pinned = _labels(session.execute(QUERY).subdatabase)
        teacher = paper.db.insert("Teacher", "t_live",
                                  **{"SS#": "8", "name": "Live"})
        paper.db.associate(teacher, "teaches", paper["s2"])
        again = session.execute(QUERY)
        # The snapshot's vector is constant: the entry stays valid and
        # the served value reflects the pinned state, not the write.
        assert again.metrics.cache_hits == 1
        assert _labels(again.subdatabase) == pinned
        # The live processor sees the write (its vector moved).
        live = engine.query(QUERY)
        assert len(live.subdatabase) == len(pinned) + 1


# ----------------------------------------------------------------------
# Satellite: per-class extent-condition cache in the evaluator
# ----------------------------------------------------------------------


class TestExtentCacheScoping:
    def test_unrelated_write_keeps_filtered_extents(self, paper):
        universe = Universe(paper.db)
        evaluator = PatternEvaluator(universe)
        query = parse_query(
            "context TA [GPA < 3.5] * Teacher * Section")
        evaluator.evaluate(query.context, query.where, name="r1")
        after_first = evaluator.extent_filter_evals
        assert after_first > 0
        evaluator.evaluate(query.context, query.where, name="r2")
        assert evaluator.extent_filter_evals == after_first
        # Previously ANY write cleared the whole per-evaluator extent
        # cache; now only the touched classes' entries go cold.
        paper.db.insert("Department", "d_new", name="Astronomy")
        evaluator.evaluate(query.context, query.where, name="r3")
        assert evaluator.extent_filter_evals == after_first
        paper.db.insert("TA", "ta_new")
        evaluator.evaluate(query.context, query.where, name="r4")
        assert evaluator.extent_filter_evals > after_first


# ----------------------------------------------------------------------
# Loops under the result cache
# ----------------------------------------------------------------------


class TestLoopAfterWrite:
    def test_loop_after_a_linking_write(self, paper):
        universe = Universe(paper.db)
        evaluator = PatternEvaluator(universe, cache_bytes=1 << 20)
        query = parse_query("context Course * Course_1 ^*")
        evaluator.evaluate(query.context, query.where, name="l1")
        course = paper.db.insert("Course", "c_new",
                                 **{"c#": 950, "title": "New",
                                    "credit_hours": 3})
        paper.db.associate(course, "prereq", paper["c1"])
        again = evaluator.evaluate(query.context, query.where, name="l2")
        assert evaluator.last_metrics.cache_hits == 0
        assert ("c_new", "c1", "c2") in again.labels()


# ----------------------------------------------------------------------
# Compact-store deltas (INSERT appends, DELETE remaps)
# ----------------------------------------------------------------------


class TestCompactDeltas:
    def _warm(self, db, text=QUERY):
        qp = QueryProcessor(Universe(db), compact=True)
        qp.execute(text)
        return qp

    def test_insert_appends_instead_of_rebuilding(self, paper):
        universe = Universe(paper.db)
        store = universe.compact
        a, b = ClassRef("Teacher"), ClassRef("Section")
        resolution = universe.resolve_edge(a, b)
        index = store.adjacency(resolution, True, a, b)
        n = len(index.src)
        built = store.indexes_built
        teacher = paper.db.insert("Teacher", "t_new",
                                  **{"SS#": "9", "name": "N"})
        assert store.tables_appended > 0
        assert store.indexes_appended > 0
        # Same index object, extended in place with one empty CSR row
        # for the fresh (linkless) object — nothing was rebuilt.
        assert store.adjacency(resolution, True, a, b) is index
        assert store.indexes_built == built
        assert len(index.src) == n + 1
        assert list(index.row(n)) == []
        # Once the object gains links the evaluator sees it normally.
        paper.db.associate(teacher, "teaches", paper["s2"])
        result = QueryProcessor(universe).execute(QUERY)
        fresh = QueryProcessor(Universe(paper.db)).execute(QUERY)
        assert _labels(result.subdatabase) == _labels(fresh.subdatabase)

    def test_identity_edge_append(self, paper):
        text = "context Grad * TA * Teacher"
        qp = self._warm(paper.db, text)
        paper.db.insert("TA", "ta_new")
        result = qp.execute(text)
        fresh = QueryProcessor(Universe(paper.db)).execute(text)
        assert _labels(result.subdatabase) == _labels(fresh.subdatabase)
        assert ("ta_new", "ta_new", "ta_new") in result.subdatabase.labels()

    def test_delete_tombstones_instead_of_purging(self, paper):
        qp = self._warm(paper.db)
        store = qp.universe.compact
        teacher = store.table(ClassRef("Teacher"))
        before = qp.execute(QUERY)
        adjacency = dict(store._adj)
        built = (store.tables_built, store.indexes_built)
        paper.db.delete(paper.oid("t1"))
        # The same table, one id dead; every CSR index kept as it was.
        assert store.tombstoned > 0 and store.indexes_remapped == 0
        assert store.table(ClassRef("Teacher")) is teacher
        assert teacher.dead == {teacher.index[paper.oid("t1").value]}
        assert store._adj == adjacency
        # Rows interned before the delete still decode, t1 included.
        assert any("t1" in row for row in before.subdatabase.labels())
        result = qp.execute(QUERY)
        assert (store.tables_built, store.indexes_built) == built
        fresh = QueryProcessor(Universe(paper.db)).execute(QUERY)
        assert _labels(result.subdatabase) == _labels(fresh.subdatabase)
        assert all("t1" not in row for row in result.subdatabase.labels())

    def test_interleaved_deltas_match_fresh_build(self, paper):
        qp = self._warm(paper.db)
        db = paper.db
        t = db.insert("Teacher", "t_a", **{"SS#": "11", "name": "A"})
        db.associate(t, "teaches", paper["s3"])
        db.delete(paper.oid("t2"))
        db.insert("TA", "ta_b")
        db.delete(paper.oid("ta1"))
        result = qp.execute(QUERY)
        fresh = QueryProcessor(Universe(db)).execute(QUERY)
        assert _labels(result.subdatabase) == _labels(fresh.subdatabase)


# ----------------------------------------------------------------------
# Planner statistics: per-class validity
# ----------------------------------------------------------------------


class TestPlannerStatistics:
    def test_extent_sizes_survive_unrelated_writes(self, paper):
        universe = Universe(paper.db)
        stats = Planner(universe).statistics
        ref = ClassRef("Teacher")
        size = stats.extent_size(ref)
        assert size == len(paper.db.extent("Teacher"))
        paper.db.insert("Department", "d_new", name="Astronomy")
        assert stats.extent_size(ref) == size
        paper.db.insert("TA", "ta_new")      # a Teacher too
        assert stats.extent_size(ref) == size + 1
        paper.db.delete(paper.oid("t1"))
        assert stats.extent_size(ref) == size
        assert size == len(paper.db.extent("Teacher"))

    def test_fanout_survives_unrelated_writes(self, paper):
        universe = Universe(paper.db)
        stats = Planner(universe).statistics
        a, b = ClassRef("Teacher"), ClassRef("Section")
        resolution = universe.resolve_edge(a, b)
        fan = stats.fanout(a, resolution)
        paper.db.insert("Department", "d_new", name="Astronomy")
        assert stats.fanout(a, resolution) == fan
        teacher = paper.db.insert("Teacher", "t_new",
                                  **{"SS#": "12", "name": "N"})
        paper.db.associate(teacher, "teaches", paper["s2"])
        assert stats.fanout(a, resolution) != fan

    def test_plans_still_correct_after_writes(self, paper):
        qp = QueryProcessor(Universe(paper.db))
        before = qp.execute(QUERY)
        paper.db.insert("Department", "d_new", name="Astronomy")
        after = qp.execute(QUERY)
        assert _labels(after.subdatabase) == _labels(before.subdatabase)


# ----------------------------------------------------------------------
# Engine integration: derivation memo + versioned refresh skips
# ----------------------------------------------------------------------


class TestDerivationMemo:
    RULE = "if context Teacher * Section then TS (Teacher, Section)"

    def test_memo_serves_rederivation(self, paper):
        engine = RuleEngine(paper.db, cache_bytes=1 << 20)
        engine.add_rule(self.RULE)
        first = engine.query("context TS:Teacher * TS:Section")
        engine.universe.unregister("TS")
        second = engine.query("context TS:Teacher * TS:Section")
        assert engine.stats.derivation_memo_hits == 1
        assert engine.stats.total_derivations() == 1
        assert _labels(second.subdatabase) == _labels(first.subdatabase)

    def test_memo_invalidated_by_source_write(self, paper):
        engine = RuleEngine(paper.db, cache_bytes=1 << 20)
        engine.add_rule(self.RULE)
        engine.query("context TS:Teacher * TS:Section")
        teacher = paper.db.insert("Teacher", "t_new",
                                  **{"SS#": "13", "name": "N"})
        paper.db.associate(teacher, "teaches", paper["s2"])
        result = engine.query("context TS:Teacher * TS:Section")
        assert engine.stats.derivation_memo_hits == 0
        assert engine.stats.total_derivations() == 2
        assert ("t_new", "s2") in result.subdatabase.labels()

    def test_memo_invalidated_by_rule_change(self, paper):
        engine = RuleEngine(paper.db, cache_bytes=1 << 20)
        engine.add_rule(self.RULE)
        engine.query("context TS:Teacher * TS:Section")
        engine.add_rule("if context TA * Teacher * Section "
                        "then TS (Teacher, Section)")
        engine.query("context TS:Teacher * TS:Section")
        assert engine.stats.derivation_memo_hits == 0
        assert engine.stats.total_derivations() == 2

    def test_memo_off_without_cache(self, paper):
        engine = RuleEngine(paper.db)
        engine.add_rule(self.RULE)
        engine.query("context TS:Teacher * TS:Section")
        engine.universe.unregister("TS")
        engine.query("context TS:Teacher * TS:Section")
        assert engine.stats.derivation_memo_hits == 0
        assert engine.stats.total_derivations() == 2


class TestVersionedRefreshSkips:
    def test_untouched_maintainer_skipped(self, paper):
        engine = RuleEngine(paper.db, controller="incremental")
        engine.add_rule("if context Teacher * Section then M (Teacher)")
        engine.add_rule("if context Teacher * Section * Course "
                        "then M (Teacher)")
        # First event initializes both maintainers.
        c1 = paper.db.insert("Course", "c_x",
                             **{"c#": 960, "title": "X",
                                "credit_hours": 3})
        skipped = engine.stats.refreshes_skipped_versioned
        # The second Course insert leaves the {Teacher, Section}
        # maintainer's vector untouched: its dispatch is skipped.
        paper.db.insert("Course", "c_y", **{"c#": 961, "title": "Y",
                                            "credit_hours": 3})
        assert engine.stats.refreshes_skipped_versioned > skipped
        assert "refreshes_skipped_versioned" in \
            engine.stats.snapshot()
        # The maintained value stays correct.
        expected = QueryProcessor(Universe(paper.db)).execute(
            "context Teacher * Section").subdatabase
        maintained = engine.universe.get_subdb("M")
        assert {row[0] for row in maintained.labels()} == \
            {row[0] for row in expected.labels()}
        assert c1 is not None
