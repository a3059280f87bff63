"""Shared-memory planes and the process-partition executor.

The acceptance bar for the process path is *zero leaked segments* under
every exit, including the ugly ones: a stale manifest must be rejected
(not silently read), a budget trip must cancel the other partitions
mid-flight, and a worker crash must surface as a typed error with the
pool recovered and ``/dev/shm`` clean afterwards.  :func:`leak_check`
runs after **every** test in this module — the observable is
:func:`repro.subdb.planes.live_planes` plus the actual ``/dev/shm``
listing.
"""

import os
from array import array

import pytest

from repro import QueryProcessor, Universe
from repro.oql import kernels, parallel
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.subdb import planes
from repro.university.generator import GeneratorConfig, generate_university

pytestmark = pytest.mark.multicore


def _shm_segments():
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("psm_"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def leak_check():
    """Every test must drain the live-plane table and /dev/shm."""
    before = _shm_segments()
    yield
    assert planes.live_planes() == []
    leaked = [name for name in _shm_segments() if name not in before]
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


# ---------------------------------------------------------------------------
# SharedPlane primitives
# ---------------------------------------------------------------------------


class TestSharedPlane:
    def test_roundtrip(self):
        data = array("q", [3, 1, 4, 1, 5, 9, 2, 6])
        plane = planes.SharedPlane.create(data, token=17)
        try:
            assert plane.name in planes.live_planes()
            other = planes.SharedPlane.attach(plane.name,
                                              expected_token=17)
            assert other.as_array() == data
            assert other.length == len(data)
            other.close()
        finally:
            plane.unlink()

    def test_empty_payload(self):
        plane = planes.SharedPlane.create(array("q"), token=0)
        try:
            other = planes.SharedPlane.attach(plane.name)
            assert other.as_array() == array("q")
            other.close()
        finally:
            plane.unlink()

    def test_stale_token_rejected(self):
        """A manifest from before a re-export must not read the new
        data: attach-after-write raises StalePlaneError."""
        plane = planes.SharedPlane.create(array("q", [1, 2, 3]), token=5)
        try:
            with pytest.raises(planes.StalePlaneError):
                planes.SharedPlane.attach(plane.name, expected_token=6)
        finally:
            plane.unlink()

    def test_attach_after_unlink_is_typed(self):
        plane = planes.SharedPlane.create(array("q", [1]), token=1)
        name = plane.name
        plane.unlink()
        with pytest.raises(planes.SharedPlaneError):
            planes.SharedPlane.attach(name)

    def test_unlink_idempotent(self):
        plane = planes.SharedPlane.create(array("q", [1]), token=1)
        plane.unlink()
        plane.unlink()

    def test_closed_plane_refuses_reads(self):
        plane = planes.SharedPlane.create(array("q", [1]), token=1)
        plane.unlink()
        with pytest.raises(planes.SharedPlaneError):
            plane.data


class TestPlaneManager:
    class Source:
        epoch = 0

    def test_export_caches_by_identity_epoch_token(self):
        manager = planes.PlaneManager()
        source = self.Source()
        arrays = {"offsets": array("q", [0, 1]),
                  "neighbors": array("q", [7])}
        try:
            manifest1, entry1 = manager.export("k", source, arrays, 9)
            manifest2, entry2 = manager.export("k", source, arrays, 9)
            assert entry1 is entry2 and manifest1 == manifest2
            assert len(manager) == 1
            manager.release(entry1)
            manager.release(entry2)
        finally:
            manager.close()
        assert planes.live_planes() == []

    def test_epoch_bump_reexports(self):
        manager = planes.PlaneManager()
        source = self.Source()
        arrays = {"offsets": array("q", [0])}
        try:
            manifest1, entry1 = manager.export("k", source, arrays, 9)
            manager.release(entry1)
            source.epoch = 1  # an in-place INSERT appended to the CSR
            manifest2, entry2 = manager.export("k", source, arrays, 9)
            assert manifest1["offsets"][0] != manifest2["offsets"][0]
            # the retired plane is gone already (no pins held it)
            with pytest.raises(planes.SharedPlaneError):
                planes.SharedPlane.attach(manifest1["offsets"][0])
            manager.release(entry2)
        finally:
            manager.close()

    def test_pinned_entry_defers_unlink(self):
        """Snapshot pinning: a query holding the old entry keeps its
        planes mapped while a writer forces a re-export; the unlink
        happens on the last release."""
        manager = planes.PlaneManager()
        source = self.Source()
        arrays = {"offsets": array("q", [0])}
        try:
            manifest1, entry1 = manager.export("k", source, arrays, 9)
            # do NOT release: an in-flight query still pins entry1
            manifest2, entry2 = manager.export("k", source, arrays, 10)
            # old plane still attachable while pinned
            old = planes.SharedPlane.attach(manifest1["offsets"][0])
            old.close()
            manager.release(entry1)  # query finishes -> deferred unlink
            with pytest.raises(planes.SharedPlaneError):
                planes.SharedPlane.attach(manifest1["offsets"][0])
            manager.release(entry2)
        finally:
            manager.close()


# ---------------------------------------------------------------------------
# Vectorized kernels: numpy and fallback must agree exactly
# ---------------------------------------------------------------------------


class TestKernelParity:
    # CSR over 4 sources: 0->{1,2}, 1->{2}, 2->{}, 3->{0,3}
    OFFSETS = array("q", [0, 2, 3, 3, 5])
    NEIGHBORS = array("q", [1, 2, 2, 0, 3])

    def _spec(self, op="*", tgt_filter=None):
        return kernels.StepSpec(op=op, forward=True,
                                offsets=self.OFFSETS,
                                neighbors=self.NEIGHBORS, tgt_size=4,
                                tgt_filter=tgt_filter)

    def test_star_and_bang_agree_across_modes(self, monkeypatch):
        anchor = kernels.anchor_column(range(4))
        results = {}
        for mode, value in (("numpy", None), ("fallback", object())):
            if value is not None:
                monkeypatch.setattr(kernels, "_np", None)
            specs = [self._spec("*"), self._spec("!")]
            cols, stats = kernels.run_steps(specs, anchor)
            results[mode] = (kernels.columns_to_rows(cols), stats)
            monkeypatch.undo()
        assert results["numpy"] == results["fallback"]

    def test_filter_respected_in_both_modes(self, monkeypatch):
        anchor = kernels.anchor_column(range(4))
        keep = array("q", [2])
        rows = {}
        for mode, disable in (("numpy", False), ("fallback", True)):
            if disable:
                monkeypatch.setattr(kernels, "_np", None)
            cols, _ = kernels.run_steps([self._spec("*", keep)], anchor)
            rows[mode] = kernels.columns_to_rows(cols)
            monkeypatch.undo()
        assert rows["numpy"] == rows["fallback"]
        assert all(row[-1] == 2 for row in rows["numpy"])


# ---------------------------------------------------------------------------
# The process executor end to end (through QueryProcessor)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def database():
    return generate_university(
        GeneratorConfig(departments=4, courses=50, students=300,
                        teachers=16, prereqs_per_course=2),
        seed=23).db


@pytest.fixture()
def process_qp(database):
    qp = QueryProcessor(Universe(database), workers=4,
                        worker_mode="process")
    qp.evaluator.min_parallel_rows = 1
    yield qp
    qp.close()


class TestProcessExecution:
    CHAIN = "context Teacher * Section * Student"
    LOOP = "context Course * Course_1 ^*"

    def test_chain_matches_serial(self, database, process_qp):
        from repro.storage.serialize import subdatabase_to_dict
        serial = QueryProcessor(Universe(database))
        want = subdatabase_to_dict(
            serial.execute(self.CHAIN, name="x").subdatabase)
        got = subdatabase_to_dict(
            process_qp.execute(self.CHAIN, name="x").subdatabase)
        assert want == got
        metrics = process_qp.evaluator.last_metrics
        assert metrics.worker_mode == "process"
        assert metrics.workers_used == 4

    def test_loop_matches_serial(self, database, process_qp):
        from repro.storage.serialize import subdatabase_to_dict
        serial = QueryProcessor(Universe(database))
        want = subdatabase_to_dict(
            serial.execute(self.LOOP, name="x").subdatabase)
        got = subdatabase_to_dict(
            process_qp.execute(self.LOOP, name="x").subdatabase)
        assert want == got

    def test_budget_cancellation_mid_partition(self, process_qp):
        """A max_rows trip in one worker must cancel the others and
        surface as the coordinator's own BudgetExceeded."""
        with pytest.raises(BudgetExceeded) as info:
            process_qp.execute(self.CHAIN,
                               budget=QueryBudget(max_rows=10))
        assert info.value.verdict == "max_rows"

    def test_deadline_cancellation(self, process_qp):
        with pytest.raises(BudgetExceeded) as info:
            process_qp.execute(self.CHAIN,
                               budget=QueryBudget(deadline_ms=0.0001))
        assert info.value.verdict == "deadline"

    def test_worker_crash_recovers(self, process_qp):
        """An injected hard crash (os._exit in a worker) surfaces as
        WorkerCrashError; the pool is rebuilt and the next query
        succeeds; nothing leaks."""
        process_qp.evaluator._process_executor.inject_crash = True
        with pytest.raises(parallel.WorkerCrashError):
            process_qp.execute(self.CHAIN)
        result = process_qp.execute(self.CHAIN)  # recovered pool
        assert result.subdatabase is not None
        assert process_qp.evaluator.last_metrics.worker_mode == "process"

    def test_write_invalidates_planes(self, database, process_qp):
        """An INSERT between queries bumps the version vector: the next
        dispatch re-exports fresh planes instead of reading stale
        ones, and both answers stay correct."""
        from repro.storage.serialize import subdatabase_to_dict
        before = process_qp.execute(self.CHAIN, name="x").subdatabase
        teacher = database.insert("Teacher", name="Fresh",
                                  **{"SS#": "999"})
        section = next(iter(database.extent("Section")))
        database.associate(teacher, "teaches", section)
        try:
            serial = QueryProcessor(Universe(database))
            want = subdatabase_to_dict(
                serial.execute(self.CHAIN, name="y").subdatabase)
            got = subdatabase_to_dict(
                process_qp.execute(self.CHAIN, name="y").subdatabase)
            assert want == got
            assert got != subdatabase_to_dict(before)
        finally:
            database.dissociate(teacher, "teaches", section)
            database.delete(teacher.oid)

    def test_close_releases_everything(self, database):
        qp = QueryProcessor(Universe(database), workers=4,
                            worker_mode="process")
        qp.evaluator.min_parallel_rows = 1
        qp.execute(self.CHAIN)
        qp.close()
        assert planes.live_planes() == []


class TestPlanesOverAdoptedStructures:
    """A pinned session exports planes from structures it *shares* with
    the live store.  Once the live store has forked and moved on, the
    old export must stay what the old pin reads, and must be rejected
    — not silently attached — under the new version's token."""

    CHAIN = TestProcessExecution.CHAIN

    def test_plane_from_adopted_index_goes_stale_when_live_forks(self):
        from repro import RuleEngine
        from repro.storage.serialize import subdatabase_to_dict
        from repro.subdb.adjindex import AdjacencyIndex
        db = generate_university(
            GeneratorConfig(departments=2, courses=12, students=60,
                            teachers=8, prereqs_per_course=1),
            seed=29).db
        engine = RuleEngine(db, workers=4, worker_mode="process")
        sessions = []

        def pin():
            session = engine.snapshot_session()
            session.evaluator.min_parallel_rows = 1
            sessions.append(session)
            return session

        def exports(session):
            manager = session.evaluator._process_executor.manager
            return {key: entry for key, entry in manager._entries.items()
                    if isinstance(entry.source, AdjacencyIndex)}

        try:
            warm = pin()
            warm.execute(self.CHAIN)        # builds through the live store
            old = pin()
            before = subdatabase_to_dict(
                old.execute(self.CHAIN, name="x").subdatabase)
            assert old.evaluator.last_metrics.worker_mode == "process"
            old_exports = exports(old)
            assert old_exports, "the old pin exported no adjacency plane"
            live = engine.universe.compact
            for key, entry in old_exports.items():
                assert entry.source is live._adj[key], \
                    "the exported index is not the shared one"
                assert entry.source.lent
            shapes = {key: (entry.source.epoch, len(entry.source.offsets))
                      for key, entry in old_exports.items()}

            teacher = db.insert("Teacher", name="Fresh", **{"SS#": "999"})
            db.associate(teacher, "teaches", min(db.extent("Section")))

            # The write reached the hops that read Teacher or teaches;
            # Section -> Student is still the pinned state, still shared.
            touched = {key for key in old_exports
                       if ("base", "Teacher") in key[3:]}
            assert touched and touched != set(old_exports)
            for key, entry in old_exports.items():
                if key in touched:
                    assert live._adj.get(key) is not entry.source, \
                        "the live store kept maintaining a lent index"
                else:
                    assert live._adj[key] is entry.source
                assert shapes[key] == (entry.source.epoch,
                                       len(entry.source.offsets))
            new = pin()
            after = subdatabase_to_dict(
                new.execute(self.CHAIN, name="x").subdatabase)
            assert after != before
            assert after == subdatabase_to_dict(QueryProcessor(
                Universe(db)).execute(self.CHAIN, name="x").subdatabase)
            new_exports = exports(new)
            assert set(new_exports) == set(old_exports)
            for key in touched:
                entry, fresh = old_exports[key], new_exports[key]
                assert fresh.token != entry.token
                assert fresh.source is not entry.source
                stale = entry.manifest()["offsets"]
                with pytest.raises(planes.StalePlaneError):
                    planes.SharedPlane.attach(stale[0],
                                              expected_token=fresh.token)
            # The old pin still reads — and re-attaches — its own export.
            assert subdatabase_to_dict(
                old.execute(self.CHAIN, name="x").subdatabase) == before
            assert exports(old).keys() == old_exports.keys()
            for key, entry in exports(old).items():
                assert entry is old_exports[key]
        finally:
            for session in sessions:
                session.close()
                session.universe.close()
            engine.close()
