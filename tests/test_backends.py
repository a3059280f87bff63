"""The durable-storage tier: WAL mechanics, crash injection, recovery
byte-identity, point-in-time restore, and the streamed JSON checkpoint
format (byte identity with ``json.dumps``, bounded write memory).

Byte-identity throughout means: two engines serialize to the same
canonical session document (``session_to_dict`` → ``json.dumps`` with
sorted keys) — the same equivalence the differential harness uses.

Crash injection happens at two layers:

* *physical*: the WAL file is truncated at **every byte offset** of its
  tail record (a torn append), and recovery must come up byte-identical
  to the state at the last durable record;
* *logical*: a fault hook raises :class:`InjectedCrash` at the named
  points inside checkpoint writes (before the write, and mid-stream with
  the temp sibling open), and recovery must fall back to the previous
  checkpoint + full WAL replay — byte-identical to the live session
  that "crashed".

The number of mutation rounds in the crash-matrix tests scales with
``CRASH_ROUNDS`` (default 4; CI's fault-injection tier raises it).
"""

import json
import os
import tracemalloc
import warnings

import pytest

from repro.errors import DataError
from repro.model.database import Database
from repro.rules.engine import RuleEngine
from repro.storage import JsonBackend, open_backend, save_session
from repro.storage.backends.wal import (
    WriteAheadLog,
    decode_record,
    encode_record,
)
from repro.storage.session import session_to_dict
from repro.university import build_paper_database

CRASH_ROUNDS = int(os.environ.get("CRASH_ROUNDS", "4"))

RULE_TC = ("if context Teacher * Section * Course "
           "then TC (Teacher, Course)")


def dump(engine) -> bytes:
    return json.dumps(session_to_dict(engine), sort_keys=True).encode()


def paper_engine() -> RuleEngine:
    return RuleEngine(build_paper_database().db)


def mutate(engine: RuleEngine, round_no: int) -> None:
    """One deterministic mixed-mutation round (insert, attribute
    update, links, batch, delete, rule registration)."""
    db = engine.db
    teacher = db.insert("Teacher", name=f"T{round_no}", degree="PhD",
                        **{"SS#": f"t-{round_no}"})
    db.set_attribute(teacher.oid, "name", f"T{round_no}b")
    section = next(iter(db.extent("Section")))
    db.associate(teacher.oid, "teaches", section)
    with db.batch():
        student = db.insert("Student", name=f"S{round_no}", GPA=3.0,
                            **{"SS#": f"s-{round_no}"})
        db.associate(student, "enrolled", section)
    if round_no % 2:
        db.dissociate(teacher.oid, "teaches", section)
        db.delete(teacher.oid)
    if round_no == 1:
        engine.add_rule(RULE_TC, label="TC")


#: The one durable format; the parametrized tests keep their ``[json]``
#: ids.
KINDS = ["json"]


# ---------------------------------------------------------------------------
# WAL mechanics
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.jsonl")
        wal.open()
        assert wal.append({"kind": "x", "n": 1}) == 1
        assert wal.append({"kind": "y", "n": 2}) == 2
        wal.close()
        wal2 = WriteAheadLog(tmp_path / "w.jsonl")
        report = wal2.open()
        assert report.records == 2 and report.last_seq == 2
        assert [b["kind"] for b in wal2.records()] == ["x", "y"]
        assert wal2.append({"kind": "z"}) == 3
        wal2.close()

    def test_records_range(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.jsonl")
        wal.open()
        for n in range(5):
            wal.append({"n": n})
        seqs = [b["seq"] for b in wal.records(start=2, end=4)]
        assert seqs == [3, 4]
        wal.close()

    def test_crc_detects_bit_rot(self, tmp_path):
        path = tmp_path / "w.jsonl"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append({"kind": "a"})
        wal.append({"kind": "b"})
        wal.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip one bit mid-second-record
        path.write_bytes(bytes(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = WriteAheadLog(path).open()
        assert report.records == 1
        assert report.truncated_bytes > 0

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "w.jsonl"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append({"kind": "a"})
        wal.close()
        good = path.read_bytes()
        partial = encode_record({"kind": "b", "seq": 2})[:-7]
        path.write_bytes(good + partial)
        with pytest.warns(RuntimeWarning):
            report = WriteAheadLog(path).open()
        assert report.records == 1
        assert path.read_bytes() == good  # file physically repaired

    def test_corrupt_middle_discards_tail(self, tmp_path):
        path = tmp_path / "w.jsonl"
        records = [encode_record({"kind": k, "seq": i + 1})
                   for i, k in enumerate("abc")]
        records[1] = b"garbage line\n"
        path.write_bytes(b"".join(records))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = WriteAheadLog(path).open()
        assert report.records == 1  # everything after the tear is gone

    def test_non_monotonic_seq_rejected(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_bytes(encode_record({"seq": 1})
                         + encode_record({"seq": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert WriteAheadLog(path).open().records == 1

    @staticmethod
    def _count_fsyncs(monkeypatch) -> list:
        syncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (syncs.append(fd),
                                        real_fsync(fd))[1])
        return syncs

    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        syncs = self._count_fsyncs(monkeypatch)
        wal = WriteAheadLog(tmp_path / "w.jsonl")
        wal.open()
        baseline = len(syncs)
        wal.append({"n": 0})
        assert len(syncs) - baseline == 1
        wal.sync()                    # nothing left to make durable
        assert len(syncs) - baseline == 1
        wal.close()

    def test_a_batch_block_is_one_record_and_one_fsync(self, tmp_path,
                                                       monkeypatch):
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        syncs = self._count_fsyncs(monkeypatch)
        records = backend.wal.record_count
        db = engine.db
        with db.batch():
            course = db.insert("Course", "c_new",
                               **{"c#": 9001, "title": "T",
                                  "credit_hours": 3})
            db.set_attribute(course.oid, "title", "U")
            db.delete(course.oid)
        assert backend.wal.record_count - records == 1
        assert len(syncs) == 1
        backend.close()

    def test_record_count_matches_the_file(self, tmp_path):
        """The running count equals a full read of the log after
        appends, after a torn tail is cut at open, and after a
        compaction rewrites the file."""
        def on_disk(wal):
            return len(list(wal.records()))

        path = tmp_path / "w.jsonl"
        wal = WriteAheadLog(path)
        assert wal.open().records == 0 and wal.record_count == 0
        for n in range(3):
            wal.append({"n": n})
        assert wal.record_count == on_disk(wal) == 3
        wal.close()
        path.write_bytes(path.read_bytes()
                         + encode_record({"n": 3, "seq": 4})[:-5])
        with pytest.warns(RuntimeWarning):
            wal.open()
        assert wal.record_count == on_disk(wal) == 3
        wal.append({"n": 4})
        assert wal.record_count == on_disk(wal) == 4
        wal.close()

        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        backend.checkpoint()
        mutate(engine, 1)
        assert backend.wal.record_count == on_disk(backend.wal) > 0
        backend.compact()
        assert backend.wal.record_count == on_disk(backend.wal) > 0
        mutate(engine, 2)
        assert backend.wal.record_count == on_disk(backend.wal)
        backend.close()

    def test_status_never_reads_the_log(self, tmp_path, monkeypatch):
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        expected = len(list(backend.wal.records()))

        def refuse(*args, **kwargs):
            raise AssertionError("status() read the whole log")

        monkeypatch.setattr(backend.wal, "records", refuse)
        assert backend.status()["wal_records"] == expected
        backend.close()

    def test_decode_rejects_bodies_without_seq(self):
        line = encode_record({"kind": "x", "seq": 1})
        assert decode_record(line)["kind"] == "x"
        import zlib
        payload = b'{"kind":"x"}'
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        assert decode_record(b"%08x " % crc + payload + b"\n") is None


# ---------------------------------------------------------------------------
# Recovery = checkpoint + replay
# ---------------------------------------------------------------------------


class TestRecovery:
    @pytest.mark.parametrize("kind", KINDS)
    def test_recover_equals_live_session(self, tmp_path, kind):
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        for round_no in range(4):
            mutate(engine, round_no)
        recovered = backend.recover()
        assert dump(recovered) == dump(engine)
        backend.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_recover_after_intermediate_checkpoints(self, tmp_path, kind):
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        for round_no in range(4):
            mutate(engine, round_no)
            backend.checkpoint()
        mutate(engine, 4)  # tail beyond the last checkpoint
        recovered = backend.recover()
        assert dump(recovered) == dump(engine)
        backend.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_reopen_and_continue(self, tmp_path, kind):
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        backend.close()
        # A new process: recover, attach, keep writing, recover again.
        backend2 = open_backend(tmp_path / "store", kind)
        engine2 = backend2.recover()
        assert dump(engine2) == dump(engine)
        backend2.attach(engine2)
        mutate(engine2, 1)
        recovered = backend2.recover()
        assert dump(recovered) == dump(engine2)
        backend2.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_version_vector_survives_recovery(self, tmp_path, kind):
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        recovered = backend.recover()
        assert recovered.db.version_state() == engine.db.version_state()
        backend.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_stamp_maps_survive_checkpoint_plus_wal_tail(self, tmp_path,
                                                         kind):
        """The extent, link and attribute stamps come back exactly:
        part from the checkpoint, part replayed from the WAL tail."""
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        backend.checkpoint()
        mutate(engine, 1)
        state = engine.db.version_state()
        recovered = backend.recover()
        backend.close()
        assert recovered.db.version_state() == state
        for key in ("extent_versions", "link_versions", "attr_versions"):
            assert state[key], key
        # The tail moved stamps past the checkpoint's watermark.
        assert state["link_versions"]["Teacher"]["teaches"] == \
            max(state["link_versions"]["Teacher"].values())
        assert state["attr_versions"]["Teacher"]["name"] > \
            state["extent_versions"]["Section"]

    def test_pr11_store_without_stamp_maps_recovers(self, tmp_path):
        """A checkpoint + WAL written before the stamps were split (it
        carries ``class_versions`` only) recovers; the maps start empty
        and the replayed tail stamps what it moves."""
        import shutil
        from pathlib import Path
        store = tmp_path / "store"
        shutil.copytree(Path(__file__).parent / "data" / "store_pr11",
                        store)
        backend = open_backend(store, "json")
        recovered = backend.recover()
        backend.close()
        state = recovered.db.version_state()
        assert state["version"] == 217
        assert state["extent_versions"] == {"Course": 217}
        # The teaches link (v215) is inside the checkpoint, not the tail.
        assert state["link_versions"] == {}
        assert state["attr_versions"] == {"Person": {"name": 216},
                                          "Teacher": {"name": 216}}
        assert any(oid.label == "c_tail"
                   for oid in recovered.db.extent("Course"))

    def test_auto_checkpoint_every_n_records(self, tmp_path):
        backend = JsonBackend(tmp_path / "store", checkpoint_every=3)
        backend.open()
        engine = paper_engine()
        backend.attach(engine)
        for round_no in range(3):
            mutate(engine, round_no)
        assert len(backend._checkpoint_seqs()) > 1
        assert dump(backend.recover()) == dump(engine)
        backend.close()

    def test_rule_removal_replays(self, tmp_path):
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        engine.add_rule(RULE_TC, label="TC")
        engine.remove_rule("TC")
        recovered = backend.recover()
        assert recovered.rules == []
        assert dump(recovered) == dump(engine)
        backend.close()

    def test_recover_without_checkpoint_raises(self, tmp_path):
        backend = open_backend(tmp_path / "store", "json")
        with pytest.raises(DataError):
            backend.recover()
        backend.close()

    def test_derived_results_warm_after_recovery(self, tmp_path):
        from repro.rules.control import EvaluationMode
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        engine.add_rule(RULE_TC, label="TC",
                        mode=EvaluationMode.PRE_EVALUATED)
        engine.refresh()
        mutate(engine, 0)
        backend.checkpoint()
        recovered = backend.recover()
        assert recovered.universe.has_subdb("TC")
        recovered.query("context TC:Course select title")
        assert recovered.stats.derivations["TC"] == 0  # loaded warm
        backend.close()


# ---------------------------------------------------------------------------
# Crash injection
# ---------------------------------------------------------------------------


class InjectedCrash(BaseException):
    """Raised by fault hooks; deliberately not an Exception so no
    library code can swallow it — the closest analogue to SIGKILL."""


class TestCrashInjection:
    @pytest.mark.parametrize("kind", KINDS)
    def test_torn_wal_append_at_every_byte(self, tmp_path, kind):
        """Kill the process mid-WAL-append: for *every* byte offset of
        the final record, recovery must be byte-identical to a clean
        replay of the surviving prefix."""
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        for round_no in range(CRASH_ROUNDS):
            mutate(engine, round_no)
        backend.close()

        wal_path = tmp_path / "store" / "wal.jsonl"
        full = wal_path.read_bytes()
        lines = full[:-1].split(b"\n")
        tail = lines[-1] + b"\n"
        prefix_len = len(full) - len(tail)

        # Reference states: replay the intact prefix cleanly, both with
        # and without the final record.
        def recover_with(data: bytes):
            wal_path.write_bytes(data)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                recovery = open_backend(tmp_path / "store", kind)
                state = dump(recovery.recover())
                recovery.close()
            return state

        with_tail = recover_with(full)
        without_tail = recover_with(full[:prefix_len])
        assert with_tail == dump(engine)

        step = max(1, len(tail) // 12)  # a spread of tear points
        for cut in range(1, len(tail), step):
            state = recover_with(full[:prefix_len + cut])
            expected = with_tail if cut == len(tail) else without_tail
            assert state == expected, f"tear at byte {cut} of the tail"
        assert recover_with(full) == with_tail  # restore the file

    @pytest.mark.parametrize("kind,point", [
        ("json", "checkpoint.before_write"),
        ("json", "checkpoint.mid_write"),
    ])
    def test_kill_mid_checkpoint(self, tmp_path, kind, point):
        """Kill inside the checkpoint write: the store must fall back
        to the previous checkpoint + full WAL replay, byte-identical to
        the live session."""
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        for round_no in range(CRASH_ROUNDS):
            mutate(engine, round_no)

        def crash(at):
            if at == point:
                raise InjectedCrash(at)

        backend.fault_hook = crash
        with pytest.raises(InjectedCrash):
            backend.checkpoint()
        backend.fault_hook = None
        backend.wal.close()

        recovery = open_backend(tmp_path / "store", kind)
        assert max(recovery._checkpoint_seqs()) == 0  # genesis only
        recovered = recovery.recover()
        assert dump(recovered) == dump(engine)
        recovery.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_completed_checkpoint_survives_later_tear(self, tmp_path,
                                                      kind):
        """A checkpoint plus a torn post-checkpoint tail recovers to
        the checkpointed-then-replayed state, not to genesis."""
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        backend.checkpoint()
        mutate(engine, 1)
        backend.close()
        wal_path = tmp_path / "store" / "wal.jsonl"
        wal_path.write_bytes(wal_path.read_bytes() + b"half a reco")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recovery = open_backend(tmp_path / "store", kind)
            recovered = recovery.recover()
        assert dump(recovered) == dump(engine)
        recovery.close()

    def test_stray_tmp_files_ignored(self, tmp_path):
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        backend.close()
        # A crash mid-atomic-write leaves a temp sibling behind.
        (tmp_path / "store" / "checkpoint-99999999.json.abc.tmp") \
            .write_text("{ torn")
        recovery = open_backend(tmp_path / "store", "json")
        assert dump(recovery.recover()) == dump(engine)
        recovery.close()


# ---------------------------------------------------------------------------
# Point-in-time restore
# ---------------------------------------------------------------------------


class TestPointInTimeRestore:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_offset_matches_live_history(self, tmp_path, kind):
        """restore_to(seq) must reproduce the live session exactly as
        it stood when record seq was appended — for every offset."""
        backend = open_backend(tmp_path / "store", kind)
        engine = paper_engine()
        backend.attach(engine)
        history = {backend.wal.last_seq: dump(engine)}
        db = engine.db
        section = next(iter(db.extent("Section")))
        for n in range(6):
            teacher = db.insert("Teacher", name=f"P{n}", degree="MS",
                                **{"SS#": f"p-{n}"})
            history[backend.wal.last_seq] = dump(engine)
            db.associate(teacher.oid, "teaches", section)
            history[backend.wal.last_seq] = dump(engine)
            if n == 2:
                backend.checkpoint()  # restores must also work across it
            if n == 4:
                engine.add_rule(RULE_TC, label="TC")
                history[backend.wal.last_seq] = dump(engine)
        for seq, expected in history.items():
            assert dump(backend.restore_to(seq)) == expected, \
                f"offset {seq}"
        backend.close()

    def test_restore_below_compacted_history_raises(self, tmp_path):
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        backend.checkpoint()
        backend.compact()
        with pytest.raises(DataError):
            backend.restore_to(1)
        backend.close()

    def test_compact_keeps_recovery_exact(self, tmp_path):
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        backend.checkpoint()
        mutate(engine, 1)  # tail past the checkpoint survives compaction
        backend.compact()
        assert dump(backend.recover()) == dump(engine)
        mutate(engine, 2)  # appends continue after compaction
        assert dump(backend.recover()) == dump(engine)
        backend.close()


# ---------------------------------------------------------------------------
# The streamed checkpoint format
# ---------------------------------------------------------------------------


def small_university_engine() -> RuleEngine:
    """A generated corpus of about a thousand objects."""
    from repro.university import GeneratorConfig, generate_university
    return RuleEngine(generate_university(GeneratorConfig(
        departments=3, courses=30, sections_per_course=2, teachers=20,
        faculty=4, grads=70, tas=2, students=600, seed=7)).db)


class TestBackendParity:
    """There is one format left to agree with: any other kind is
    refused."""

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(DataError):
            open_backend(tmp_path / "x", "bolt")


class TestCheckpointFormat:
    def test_streamed_files_equal_json_dumps(self, tmp_path):
        """A checkpoint and a save_session file are the bytes
        ``json.dumps(doc, indent=1, sort_keys=True)`` gives, streamed
        in many pieces."""
        engine = paper_engine()
        mutate(engine, 1)
        backend = open_backend(tmp_path / "store", "json")
        backend.attach(engine)
        seq = backend.checkpoint()
        doc = session_to_dict(engine)
        saved = save_session(engine, tmp_path / "s.json")
        assert saved.read_text() == json.dumps(doc, indent=1,
                                               sort_keys=True)
        doc["wal_seq"] = seq
        assert backend._checkpoint_path(seq).read_text() == \
            json.dumps(doc, indent=1, sort_keys=True)
        backend.close()

    def test_checkpoint_write_memory_below_file_size(self, tmp_path):
        """Streaming: writing a checkpoint costs less extra memory than
        its own size on top of building the document.  Joining the text
        first (``json.dumps``) costs about eight times the file."""
        engine = small_university_engine()
        backend = open_backend(tmp_path / "store", "json")
        backend.attach(engine)

        def traced_peak(call):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            return tracemalloc.get_traced_memory()[1] - base, result

        tracemalloc.start()
        try:
            doc_peak, _ = traced_peak(lambda: session_to_dict(engine))
            checkpoint_peak, seq = traced_peak(backend.checkpoint)
        finally:
            tracemalloc.stop()
        size = backend._checkpoint_path(seq).stat().st_size
        backend.close()
        assert size > 100_000
        assert checkpoint_peak - doc_peak < size

    def test_mid_write_crash_has_temp_sibling_open(self, tmp_path):
        """``checkpoint.mid_write`` fires inside the stream: the temp
        sibling already exists, no checkpoint file does, and recovery
        falls back to genesis."""
        backend = open_backend(tmp_path / "store", "json")
        engine = paper_engine()
        backend.attach(engine)
        mutate(engine, 0)
        seen = []

        def crash(at):
            if at == "checkpoint.mid_write":
                seen.append(sorted(p.name for p in backend.root.iterdir()))
                raise InjectedCrash(at)

        backend.fault_hook = crash
        with pytest.raises(InjectedCrash):
            backend.checkpoint()
        backend.fault_hook = None
        backend.wal.close()
        [names] = seen
        assert [n for n in names if n.endswith(".tmp")]
        assert [n for n in names if n.startswith("checkpoint-")
                and n.endswith(".json")] == ["checkpoint-00000000.json"]
        recovery = open_backend(tmp_path / "store", "json")
        assert recovery._checkpoint_seqs() == [0]  # genesis only
        assert dump(recovery.recover()) == dump(engine)
        recovery.close()


# ---------------------------------------------------------------------------
# Differential property: journal a generated session, recover, compare
# ---------------------------------------------------------------------------


class TestGeneratedWorkload:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_update_stream_recovers_exactly(self, tmp_path,
                                                      kind):
        import random
        from repro.university import GeneratorConfig, generate_university
        rng = random.Random(11)
        data = generate_university(GeneratorConfig(
            departments=2, courses=6, sections_per_course=1,
            teachers=4, students=20, grads=4, tas=1, faculty=2,
            seed=11))
        engine = RuleEngine(data.db)
        backend = open_backend(tmp_path / "store", kind)
        backend.attach(engine)
        db = engine.db
        sections = sorted(db.extent("Section"))
        for n in range(30):
            op = rng.randrange(3)
            if op == 0:
                db.insert("Student", name=f"g{n}", GPA=2.0 + n % 3,
                          **{"SS#": f"g-{n}"})
            elif op == 1:
                student = db.insert("Student", name=f"h{n}", GPA=3.0,
                                    **{"SS#": f"h-{n}"})
                db.associate(student, "enrolled",
                             rng.choice(sections))
            else:
                victims = sorted(db.direct_extent("Student"))
                db.delete(rng.choice(victims))
            if n == 15:
                backend.checkpoint()
        assert dump(backend.recover()) == dump(engine)
        backend.close()


# ---------------------------------------------------------------------------
# Unknown kinds
# ---------------------------------------------------------------------------


class TestRegistryMisuse:
    def test_unknown_kind_lists_available(self, tmp_path):
        with pytest.raises(DataError, match="unknown storage backend"):
            open_backend(tmp_path / "store", "parquet")
        with pytest.raises(DataError, match="json"):
            open_backend(tmp_path / "store", "parquet")
