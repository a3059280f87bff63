"""Tests for the interactive shell's command interpreter."""

import io

import pytest

from repro.rules.engine import RuleEngine
from repro.shell import Shell, build_engine
from repro.university import build_paper_database, build_sdb


@pytest.fixture
def shell():
    data = build_paper_database()
    engine = RuleEngine(data.db)
    engine.universe.register(build_sdb(data))
    out = io.StringIO()
    return Shell(engine, out=out), out


def output(out):
    return out.getvalue()


class TestStatements:
    def test_query(self, shell):
        sh, out = shell
        sh.handle("context SDB:Teacher select name display")
        assert "Smith" in output(out)

    def test_rule_then_query(self, shell):
        sh, out = shell
        sh.handle("if context Teacher * Section * Course "
                  "then TC (Teacher, Course)")
        assert "derives 'TC'" in output(out)
        sh.handle("context TC:Teacher select name display")
        assert "Jones" in output(out)

    def test_continuation_lines(self, shell):
        sh, out = shell
        sh.handle("context SDB:Teacher \\")
        assert sh.pending
        sh.handle("select name display")
        assert not sh.pending
        assert "Smith" in output(out)

    def test_error_reported_not_raised(self, shell):
        sh, out = shell
        sh.handle("context Nothing * Here")
        assert "error:" in output(out)

    def test_unrecognized_input_hint(self, shell):
        sh, out = shell
        sh.handle("hello world")
        assert "\\help" in output(out)

    def test_blank_line_ignored(self, shell):
        sh, out = shell
        assert sh.handle("   ")
        assert output(out) == ""


class TestMetaCommands:
    def test_help(self, shell):
        sh, out = shell
        sh.handle("\\help")
        assert "\\schema" in output(out)

    def test_schema(self, shell):
        sh, out = shell
        sh.handle("\\schema")
        assert "Teacher" in output(out)

    def test_class(self, shell):
        sh, out = shell
        sh.handle("\\class TA")
        text = output(out)
        assert "superclasses" in text
        assert "GPA" in text

    def test_class_usage(self, shell):
        sh, out = shell
        sh.handle("\\class")
        assert "usage" in output(out)

    def test_subdbs_and_subdb(self, shell):
        sh, out = shell
        sh.handle("\\subdbs")
        assert "SDB" in output(out)
        sh.handle("\\subdb SDB")
        assert "patterns (7)" in output(out)

    def test_rules_listing(self, shell):
        sh, out = shell
        sh.handle("\\rules")
        assert "(no rules)" in output(out)
        sh.handle("if context Teacher * Section then TS (Teacher)")
        sh.handle("\\rules")
        assert "then TS" in output(out)
        assert ("TS reads extents: Section, Teacher "
                "links: Teacher.teaches attrs: -") in output(out)

    def test_explain(self, shell):
        sh, out = shell
        sh.handle("if context Teacher * Section then TS (Teacher)")
        sh.handle("\\explain context TS:Teacher select name")
        assert "derivation order" in output(out)

    def test_stats(self, shell):
        sh, out = shell
        sh.handle("\\stats")
        assert "queries:" in output(out)
        assert "objects:" in output(out)

    def test_save(self, shell, tmp_path):
        sh, out = shell
        path = tmp_path / "session.json"
        sh.handle(f"\\save {path}")
        assert path.exists()
        assert "saved" in output(out)

    def test_quit(self, shell):
        sh, out = shell
        assert sh.handle("\\quit") is False

    def test_unknown_command(self, shell):
        sh, out = shell
        sh.handle("\\frobnicate")
        assert "unknown command" in output(out)


class TestBuildEngine:
    def test_default_is_paper_database(self):
        engine = build_engine([])
        assert engine.universe.has_subdb("SDB")

    def test_empty(self):
        engine = build_engine(["--empty"])
        assert len(engine.db) == 0

    def test_session_roundtrip(self, tmp_path):
        from repro.storage import save_session
        engine = build_engine([])
        engine.add_rule("if context Teacher * Section then TS (Teacher)")
        path = tmp_path / "s.json"
        save_session(engine, path)
        restored = build_engine(["--session", str(path)])
        assert [r.target for r in restored.rules] == ["TS"]

    @pytest.mark.parametrize("flag", ["--session", "--backend"])
    def test_flag_without_value_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_engine([flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}" in err

    def test_connect_without_value_is_usage_error(self, capsys):
        from repro.shell import main
        with pytest.raises(SystemExit) as exc:
            main(["--connect"])
        assert exc.value.code == 2
        assert "argument --connect" in capsys.readouterr().err

    def test_backend_seeds_then_recovers(self, tmp_path):
        store = str(tmp_path / "store")
        engine = build_engine(["--empty", "--backend", store])
        assert engine.storage_backend.has_state()
        engine.storage_backend.close()
        recovered = build_engine(["--backend", store])
        assert len(recovered.db) == 0
        recovered.storage_backend.close()


class TestMetricsCommand:
    def test_metrics_before_any_query(self, shell):
        sh, out = shell
        sh.handle("\\metrics")
        assert "no query" in output(out)

    def test_metrics_after_query(self, shell):
        sh, out = shell
        sh.handle("context SDB:Teacher * SDB:Section select name display")
        sh.handle("\\metrics")
        text = output(out)
        assert "edge_traversals:" in text
        assert "patterns_out: 3" in text


class TestIndexCommand:
    def test_index_stats_shows_the_store_counters(self, shell):
        sh, out = shell
        sh.handle("\\index add Course c#")
        sh.handle("context Course [c# >= 6000] * Section")
        sh.handle("\\index stats")
        text = output(out)
        assert "Course.c#: 4 rows" in text
        store = next(line for line in text.splitlines()
                     if line.startswith("store: "))
        for counter in ("tables_built=", "indexes_built=", "adopted=0",
                        "forked=0", "built_shared=0", "built_private=0"):
            assert counter in store


class TestCacheCommand:
    def test_cache_reports_off_by_default(self, shell):
        sh, out = shell
        sh.handle("\\cache")
        assert "cache is off" in output(out)

    def test_cache_on_hit_stats_clear_off(self, shell):
        sh, out = shell
        sh.handle("\\cache on")
        assert "cache on" in output(out)
        sh.handle("context Teacher * Section * Course")
        sh.handle("context Teacher * Section * Course")
        sh.handle("\\cache")
        assert "cache is on — " in output(out)
        sh.handle("\\metrics")
        assert "cache_hits: 1" in output(out)
        sh.handle("\\cache stats")
        text = output(out)
        assert "hits: 1" in text
        assert "misses: 1" in text
        sh.handle("\\cache clear")
        assert "cache cleared" in output(out)
        sh.handle("\\cache off")
        sh.handle("\\cache")
        assert "cache is off" in output(out)

    def test_cache_off_discards_entries(self, shell):
        sh, out = shell
        sh.handle("\\cache on")
        sh.handle("context Teacher * Section")
        sh.handle("\\cache off")
        sh.handle("\\cache stats")
        assert "entries: 0" in output(out)

    def test_cache_invalidated_by_write_stays_correct(self, shell):
        sh, out = shell
        sh.handle("\\cache on")
        sh.handle("context Teacher * Section select name display")
        sh.engine.db.insert("Teacher", "t_shell",
                            **{"SS#": "999-11-2222", "name": "Newman"})
        sh.handle("context Teacher * Section select name display")
        sh.handle("\\metrics")
        assert "cache_hits: 0" in output(out)

    def test_cache_already_toggled(self, shell):
        sh, out = shell
        sh.handle("\\cache off")
        assert "cache already off" in output(out)
        sh.handle("\\cache on")
        sh.handle("\\cache on")
        assert "cache already on" in output(out)

    def test_cache_usage_hint(self, shell):
        sh, out = shell
        sh.handle("\\cache frobnicate")
        assert "usage: \\cache" in output(out)

    def test_help_lists_cache(self, shell):
        sh, out = shell
        sh.handle("\\help")
        assert "\\cache" in output(out)


class TestTraceCommand:
    @pytest.fixture(autouse=True)
    def _no_tracer_leak(self):
        from repro import obs
        yield
        obs.uninstall()

    def test_trace_reports_off_by_default(self, shell):
        sh, out = shell
        sh.handle("\\trace")
        assert "tracing is off" in output(out)

    def test_trace_on_show_save_off(self, shell, tmp_path):
        import json
        sh, out = shell
        sh.handle("\\trace show")
        assert "no trace recorded" in output(out)
        sh.handle("\\trace on")
        assert "tracing on" in output(out)
        sh.handle("context Teacher * Section * Course")
        sh.handle("\\trace")
        assert "tracing is on — 1 trace(s) recorded" in output(out)
        sh.handle("\\trace show")
        text = output(out)
        assert "engine-query" in text
        assert "join-step" in text
        path = tmp_path / "trace.json"
        sh.handle(f"\\trace save {path}")
        assert "chrome trace saved" in output(out)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        sh.handle("\\trace off")
        sh.handle("\\trace")
        assert "tracing is off" in output(out)

    def test_trace_save_without_traces(self, shell):
        sh, out = shell
        sh.handle("\\trace on")
        sh.handle("\\trace save /tmp/never.json")
        assert "no traces to save" in output(out)

    def test_trace_usage_hint(self, shell):
        sh, out = shell
        sh.handle("\\trace frobnicate")
        assert "usage: \\trace" in output(out)

    def test_budget_trip_prints_trace_hint(self, shell):
        sh, out = shell
        sh.handle("\\trace on")
        sh.handle("\\budget max_rows=1")
        sh.handle("context Teacher * Section * Course")
        text = output(out)
        assert "partial trace" in text
        assert "\\trace show" in text

    def test_metrics_show_trace_id(self, shell):
        sh, out = shell
        sh.handle("\\trace on")
        sh.handle("context Teacher * Section")
        sh.handle("\\metrics")
        assert "trace_id: 1" in output(out)


class TestWalCommandErrorPaths:
    """\\wal / \\checkpoint / \\restore against missing, stateful and
    torn stores — every path answers with a message, never a
    traceback."""

    def test_wal_status_without_backend(self, shell):
        sh, out = shell
        sh.handle("\\wal")
        assert "no storage backend attached" in output(out)

    def test_wal_sync_and_compact_without_backend(self, shell):
        sh, out = shell
        sh.handle("\\wal sync")
        sh.handle("\\wal compact")
        assert output(out).count("no storage backend attached") == 2

    def test_wal_open_usage(self, shell):
        sh, out = shell
        sh.handle("\\wal open")
        assert "usage: \\wal open" in output(out)
        assert sh.backend is None

    def test_wal_unknown_subcommand(self, shell):
        sh, out = shell
        sh.handle("\\wal frobnicate")
        assert "usage: \\wal" in output(out)

    def test_wal_open_extra_argument_is_usage_error(self, shell,
                                                    tmp_path):
        sh, out = shell
        sh.handle(f"\\wal open {tmp_path / 'store'} parquet")
        assert "usage: \\wal open PATH" in output(out)
        assert sh.backend is None
        assert not (tmp_path / "store").exists()

    def test_checkpoint_without_backend(self, shell):
        sh, out = shell
        sh.handle("\\checkpoint")
        assert "no storage backend attached" in output(out)

    def test_restore_without_backend(self, shell):
        sh, out = shell
        sh.handle("\\restore")
        assert "no storage backend attached" in output(out)

    def test_restore_bad_seq_argument(self, shell, tmp_path):
        sh, out = shell
        sh.handle(f"\\wal open {tmp_path / 'store'}")
        sh.handle("\\restore not-a-number")
        assert "usage: \\restore" in output(out)
        sh.handle("\\quit")

    def test_wal_open_refuses_stateful_directory(self, shell, tmp_path):
        from repro.storage import open_backend
        backend = open_backend(tmp_path / "store", "json")
        engine = RuleEngine(build_paper_database().db)
        backend.attach(engine)
        engine.db.insert("Teacher", name="X", **{"SS#": "1"})
        backend.close()

        sh, out = shell
        sh.handle(f"\\wal open {tmp_path / 'store'}")
        assert "already holds a session" in output(out)
        assert sh.backend is None  # refused, nothing attached

    def test_wal_open_reports_torn_tail(self, shell, tmp_path):
        """A fresh directory whose WAL carries torn trailing bytes (a
        crash mid-append) attaches fine, with the truncation noted."""
        store = tmp_path / "store"
        store.mkdir()
        (store / "wal.jsonl").write_bytes(b'{"half": "a reco')
        sh, out = shell
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            sh.handle(f"\\wal open {store}")
        text = output(out)
        assert "backend attached" in text
        assert "torn trailing bytes were discarded" in text
        sh.handle("\\quit")

    def test_double_open_refused(self, shell, tmp_path):
        sh, out = shell
        sh.handle(f"\\wal open {tmp_path / 'one'}")
        sh.handle(f"\\wal open {tmp_path / 'two'}")
        assert "already attached" in output(out)
        sh.handle("\\quit")


class TestServeCommand:
    def test_status_when_not_serving(self, shell):
        sh, out = shell
        sh.handle("\\serve")
        assert "not serving" in output(out)

    def test_stop_when_not_serving(self, shell):
        sh, out = shell
        sh.handle("\\serve stop")
        assert "not serving" in output(out)

    def test_bad_port_usage(self, shell):
        sh, out = shell
        sh.handle("\\serve start not-a-port")
        assert "usage: \\serve start" in output(out)

    def test_bad_limit_usage(self, shell):
        sh, out = shell
        sh.handle("\\serve start 0 limit=banana")
        assert "usage: \\serve start" in output(out)

    def test_serve_start_query_stop(self, shell):
        from repro.service import ServiceClient
        sh, out = shell
        sh.handle("\\serve start 127.0.0.1:0 limit=2")
        assert "serving on 127.0.0.1:" in output(out)
        host, port = sh._service.address
        with ServiceClient(host, port) as client:
            result = client.query("context Teacher * Section * Course")
            assert result["patterns"] > 0
        sh.handle("\\serve status")
        assert "request(s)" in output(out)
        sh.handle("\\serve start 0")
        assert "already serving" in output(out)
        sh.handle("\\serve stop")
        assert "service stopped" in output(out)
        assert sh._service is None

    def test_serve_start_port_in_use_reports_error(self, shell):
        import socket
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            sh, out = shell
            sh.handle(f"\\serve start 127.0.0.1:{port}")
            assert "error:" in output(out)
            assert sh._service is None
        finally:
            blocker.close()

    def test_quit_stops_service(self, shell):
        sh, out = shell
        sh.handle("\\serve start 127.0.0.1:0")
        service = sh._service
        assert not sh.handle("\\quit")
        assert sh._service is None
        assert service._thread is None  # fully stopped
