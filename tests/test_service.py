"""Conformance suite for the asyncio query service (``repro.service``).

Covers the whole wire surface: every endpoint, malformed and oversized
frames, budget-tripped responses, mid-request disconnects, admission
control under saturation, trace-id correlation, WAL-backend serving,
and a seeded concurrent soak asserting served responses are
byte-identical to serial in-process evaluation.
"""

import contextlib
import json
import socket
import sys
import threading
import time
import random

import pytest

from repro import obs
from repro.oql.budget import QueryBudget
from repro.rules.engine import RuleEngine
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.storage.serialize import subdatabase_to_dict

from tests.test_concurrency import (
    READER_QUERIES,
    _complete_prereq,
    _dump,
    _paper_engine,
)

pytestmark = pytest.mark.service

ADVERSARIAL_QUERY = "context Course * Course_1 ^*"


# ---------------------------------------------------------------------------
# Fixtures / helpers
# ---------------------------------------------------------------------------


@pytest.fixture()
def paper_service(tmp_path):
    config = ServiceConfig(data_dir=str(tmp_path))
    with QueryService(_paper_engine(), config) as service:
        yield service


@pytest.fixture()
def client(paper_service):
    host, port = paper_service.address
    with ServiceClient(host, port, timeout=30) as c:
        yield c


def _adversarial_service(n: int = 12, **config_kwargs):
    """A service whose engine hosts a factorial ``^*`` evaluation —
    queries against it only ever finish by budget trip."""
    engine = RuleEngine(_complete_prereq(n), on_cycle="stop")
    return QueryService(engine, ServiceConfig(**config_kwargs))


def _raw_roundtrip(service, payload: bytes, timeout: float = 30.0):
    """Send raw bytes, read everything until the server closes, and
    decode the JSON-lines responses."""
    host, port = service.address
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    return [json.loads(line) for line in data.splitlines() if line.strip()]


def _frame(**body) -> bytes:
    return json.dumps(body).encode() + b"\n"


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_ping(self, client):
        result = client.ping()
        assert result["pong"] is True
        assert isinstance(result["session"], int)

    def test_parse_query(self, client):
        result = client.parse(
            "context Teacher * Section * Course select name")
        assert result["kind"] == "query"
        assert "Teacher" in result["context"]
        assert result["canonical"].startswith("context")

    def test_parse_rule(self, client):
        result = client.parse(
            "if context Teacher * Section then Busy (Teacher)")
        assert result["kind"] == "rule"
        assert result["target"] == "Busy"
        assert result["footprint"] == ("extents: Section, Teacher "
                                       "links: Teacher.teaches attrs: -")

    def test_parse_error_code(self, client):
        with pytest.raises(ServiceError) as exc:
            client.parse("context * * nonsense [")
        assert exc.value.code == "PARSE_ERROR"

    def test_query_basic(self, client):
        result = client.query("context Teacher * Section * Course")
        assert result["patterns"] > 0
        assert result["classes"] == ["Teacher", "Section", "Course"]
        assert "Teacher" in result["rendered"]
        assert isinstance(result["pinned_version"], int)

    def test_query_include_subdb_and_metrics(self, client):
        result = client.query("context Teacher * Section",
                              include=["subdb", "metrics"])
        assert result["subdatabase"]["slots"] == ["Teacher", "Section"]
        assert result["metrics"]

    def test_query_backward_chains_rule_target(self, client):
        result = client.query(
            "context Teacher_course:Teacher * Teacher_course:Course")
        assert result["patterns"] > 0

    def test_query_operation_result(self, client):
        result = client.query(
            "context Teacher * Section * Course display")
        assert "op_result" in result or result["rendered"]

    def test_query_unknown_class_is_not_found(self, client):
        with pytest.raises(ServiceError) as exc:
            client.query("context Klingon * Teacher")
        assert exc.value.code == "NOT_FOUND"

    def test_derive(self, client):
        result = client.derive("Teacher_course")
        assert result["target"] == "Teacher_course"
        assert result["patterns"] > 0
        assert result["classes"] == ["Teacher", "Course"]

    def test_derive_unknown_target(self, client):
        with pytest.raises(ServiceError) as exc:
            client.derive("No_such_target")
        assert exc.value.code == "NOT_FOUND"

    def test_rule_lifecycle(self, client):
        added = client.rule_add(
            "if context Grad * Transcript then Enrolled (Grad)",
            label="RT")
        assert added["target"] == "Enrolled"
        assert client.query("context Enrolled:Grad")["patterns"] >= 0
        removed = client.rule_remove("RT")
        assert removed["removed"] == "RT"
        with pytest.raises(ServiceError) as exc:
            client.query("context Enrolled:Grad")
        assert exc.value.code == "NOT_FOUND"

    def test_rule_remove_unknown_label(self, client):
        with pytest.raises(ServiceError) as exc:
            client.rule_remove("NOPE")
        assert exc.value.code == "SEMANTIC"

    def test_rule_add_bad_mode(self, client):
        with pytest.raises(ServiceError) as exc:
            client.rule_add("if context Teacher * Section "
                            "then B (Teacher)", mode="sideways")
        assert exc.value.code == "BAD_REQUEST"

    def test_update_insert_and_read_back(self, client):
        result = client.update({"kind": "insert", "cls": "Teacher",
                                "attrs": {"name": "Turing",
                                          "SS#": "999-00-1111"}})
        assert result["applied"] == 1
        oid = result["results"][0]["oid"]
        assert isinstance(oid, int)
        rendered = client.query("context Teacher[name = 'Turing']")
        assert rendered["patterns"] == 1

    def test_update_batch_and_mutations(self, client):
        inserted = client.update(
            {"kind": "insert", "cls": "Course",
             "attrs": {"c#": 9001, "title": "Svc", "credit_hours": 3}},
            {"kind": "insert", "cls": "Course",
             "attrs": {"c#": 9002, "title": "Svc2", "credit_hours": 3}})
        assert inserted["applied"] == 2
        a, b = (r["oid"] for r in inserted["results"])
        client.update({"kind": "associate", "owner": b,
                       "name": "prereq", "target": a})
        client.update({"kind": "set_attribute", "oid": a,
                       "name": "title", "value": "Renamed"})
        assert client.query(
            "context Course[title = 'Renamed']")["patterns"] == 1
        client.update({"kind": "dissociate", "owner": b,
                       "name": "prereq", "target": a})
        client.update({"kind": "delete", "oid": b})
        assert client.query(
            "context Course[c# = 9002]")["patterns"] == 0

    def test_update_bad_kind(self, client):
        with pytest.raises(ServiceError) as exc:
            client.update({"kind": "explode"})
        assert exc.value.code == "BAD_REQUEST"

    def test_update_requires_list(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("update", updates={})
        assert exc.value.code == "BAD_REQUEST"

    def test_snapshot_pin_and_refresh(self, paper_service, client):
        pinned = client.query("context Teacher")["pinned_version"]
        host, port = paper_service.address
        with ServiceClient(host, port) as other:
            other.update({"kind": "insert", "cls": "Teacher",
                          "attrs": {"name": "Later",
                                    "SS#": "000-00-0000"}})
        # Still pinned: the other session's write is invisible...
        again = client.query("context Teacher[name = 'Later']")
        assert again["pinned_version"] == pinned
        assert again["patterns"] == 0
        # ...until this session refreshes.
        refreshed = client.refresh()["pinned_version"]
        assert refreshed > pinned
        assert client.query(
            "context Teacher[name = 'Later']")["patterns"] == 1

    def test_session_save_and_restore(self, paper_service, client):
        client.rule_add("if context Grad * Transcript "
                        "then Enrolled (Grad)", label="KEEP")
        client.session_save("snap.json")
        client.rule_remove("KEEP")
        restored = client.session_restore("snap.json")
        assert restored["rules"] == len(paper_service.engine.rules)
        assert restored["objects"] > 0
        # The restored engine answers the saved rule's target.
        client.refresh()
        assert client.query("context Enrolled:Grad")["patterns"] >= 0

    def test_session_restore_missing_file(self, client):
        with pytest.raises(ServiceError) as exc:
            client.session_restore("never-saved.json")
        assert exc.value.code == "NOT_FOUND"

    def test_session_path_traversal_refused(self, client):
        with pytest.raises(ServiceError) as exc:
            client.session_save("../outside.json")
        assert exc.value.code == "NOT_FOUND"

    def test_stats_shape(self, client):
        client.ping()
        stats = client.stats()
        server = stats["server"]
        assert server["max_concurrency"] >= 1
        assert server["connections_total"] >= 1
        assert server["requests_total"] >= 1
        assert server["admitted_total"] >= 1
        assert server["ops"]["ping"] >= 1
        assert "engine" in stats and "db" in stats
        assert stats["rules"]  # the paper rules
        assert "workers" not in stats
        assert "cache" in stats
        assert {"adopted", "forked", "built_shared", "built_private",
                "tables_built", "indexes_built"} <= set(stats["compact"])

    def test_cache_bytes_reaches_the_sessions(self, tmp_path):
        """``cache_bytes`` serves reads: every read runs on a session's
        snapshot processor, which takes the live processor's cache
        budget, so one connection's repeated read is a cache hit."""
        config = ServiceConfig(data_dir=str(tmp_path), cache_bytes=1 << 20)
        text = "context Teacher * Section * Course"
        with QueryService(_paper_engine(), config) as service:
            with ServiceClient(*service.address, timeout=30) as c:
                first = c.query(text, name="q", include=["metrics"])
                second = c.query(text, name="q", include=["metrics"])
        assert first["metrics"]["cache_hits"] == 0
        assert second["metrics"]["cache_hits"] == 1
        assert second["rendered"] == first["rendered"]

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("frobnicate")
        assert exc.value.code == "BAD_REQUEST"
        assert "known" in str(exc.value)


# ---------------------------------------------------------------------------
# Framing: malformed, oversized, pipelined, disconnects
# ---------------------------------------------------------------------------


class TestFraming:
    def test_malformed_json_then_recovers(self, paper_service):
        responses = _raw_roundtrip(
            paper_service,
            b"this is not json\n" + _frame(id=1, op="ping"))
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "BAD_FRAME"
        # The connection survives a bad frame.
        assert responses[1]["ok"] is True
        assert responses[1]["id"] == 1

    def test_non_object_frame(self, paper_service):
        responses = _raw_roundtrip(paper_service, b"[1, 2, 3]\n")
        assert responses[0]["error"]["code"] == "BAD_FRAME"

    def test_missing_op(self, paper_service):
        responses = _raw_roundtrip(paper_service, b'{"id": 9}\n')
        assert responses[0]["error"]["code"] == "BAD_REQUEST"

    def test_blank_lines_ignored(self, paper_service):
        responses = _raw_roundtrip(
            paper_service, b"\n\n" + _frame(id=2, op="ping") + b"\n")
        assert len(responses) == 1
        assert responses[0]["id"] == 2

    def test_unterminated_final_frame_still_answered(self, paper_service):
        payload = json.dumps({"id": 3, "op": "ping"}).encode()  # no \n
        responses = _raw_roundtrip(paper_service, payload)
        assert responses[0]["ok"] is True
        assert responses[0]["id"] == 3

    def test_oversized_frame_refused_and_closed(self):
        config = ServiceConfig(max_frame_bytes=1024)
        with QueryService(_paper_engine(), config) as service:
            big = _frame(id=1, op="query", text="x" * 4096)
            responses = _raw_roundtrip(service, big)
            assert responses[0]["error"]["code"] == "OVERSIZED"
            assert len(responses) == 1  # connection closed after refusal

    def test_pipelined_requests_answered_in_order(self, paper_service):
        payload = (_frame(id="a", op="ping")
                   + _frame(id="b", op="query", text="context Teacher")
                   + _frame(id="c", op="ping"))
        responses = _raw_roundtrip(paper_service, payload)
        assert [r["id"] for r in responses] == ["a", "b", "c"]
        assert all(r["ok"] for r in responses)

    def test_mid_request_disconnect_leaves_server_healthy(self):
        """A client that walks away mid-evaluation must not wedge the
        server: the request runs to its budget verdict in the worker,
        the dead socket is tolerated, and inflight drains to zero."""
        with _adversarial_service() as service:
            host, port = service.address
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(_frame(id=1, op="query", text=ADVERSARIAL_QUERY,
                                budget={"deadline_ms": 300}))
            time.sleep(0.05)  # let the request be admitted
            sock.close()      # vanish mid-request
            with ServiceClient(host, port) as c:
                assert c.ping()["pong"] is True
            # healthz reads inflight off the event loop without being
            # admitted itself, so it can observe a true zero.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, body = _http(service,
                                     b"GET /healthz HTTP/1.1\r\n\r\n")
                assert status == 200
                if body["inflight"] == 0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("inflight never drained after disconnect")


# ---------------------------------------------------------------------------
# Budgets: trips, clamping, validation
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_deadline_trips_adversarial_query(self):
        with _adversarial_service() as service:
            with ServiceClient(*service.address) as c:
                started = time.monotonic()
                with pytest.raises(ServiceError) as exc:
                    c.query(ADVERSARIAL_QUERY,
                            budget={"deadline_ms": 150})
                elapsed = time.monotonic() - started
        assert exc.value.code == "BUDGET_EXCEEDED"
        assert exc.value.detail["verdict"] == "deadline"
        assert exc.value.detail["elapsed_ms"] >= 150
        assert elapsed < 30  # nowhere near the factorial runtime

    def test_max_rows_trips(self, client):
        with pytest.raises(ServiceError) as exc:
            client.query("context Teacher * Section * Course",
                         budget={"max_rows": 1})
        assert exc.value.code == "BUDGET_EXCEEDED"
        assert exc.value.detail["verdict"] == "max_rows"

    def test_budget_applies_to_derive_cascade(self):
        """The ambient budget charges backward-chained derivations,
        not just the query's own pattern evaluation."""
        engine = RuleEngine(_complete_prereq(12), on_cycle="stop")
        engine.add_rule("if context Course * Course_1 ^* "
                        "then Reach (Course, Course_)", label="R")
        with QueryService(engine, ServiceConfig()) as service:
            with ServiceClient(*service.address) as c:
                with pytest.raises(ServiceError) as exc:
                    c.derive("Reach", budget={"deadline_ms": 150})
        assert exc.value.code == "BUDGET_EXCEEDED"

    def test_server_caps_clamp_client_budget(self):
        """A client asking for a huge deadline still trips at the
        server's ceiling — admission control is not client-optional."""
        with _adversarial_service(max_deadline_ms=200.0) as service:
            with ServiceClient(*service.address) as c:
                started = time.monotonic()
                with pytest.raises(ServiceError) as exc:
                    c.query(ADVERSARIAL_QUERY,
                            budget={"deadline_ms": 3_600_000})
                elapsed = time.monotonic() - started
        assert exc.value.code == "BUDGET_EXCEEDED"
        assert elapsed < 30

    def test_unbudgeted_request_inherits_caps(self):
        """Even a request with no budget at all is bounded."""
        with _adversarial_service(max_deadline_ms=200.0) as service:
            with ServiceClient(*service.address) as c:
                with pytest.raises(ServiceError) as exc:
                    c.query(ADVERSARIAL_QUERY)
        assert exc.value.code == "BUDGET_EXCEEDED"

    @pytest.mark.parametrize("budget", [
        {"deadline_ms": -5},
        {"deadline_ms": "soon"},
        {"unknown_axis": 10},
        "not-a-dict",
    ])
    def test_invalid_budget_rejected(self, client, budget):
        with pytest.raises(ServiceError) as exc:
            client.request("query", text="context Teacher",
                           budget=budget)
        assert exc.value.code == "BAD_REQUEST"

    def test_from_limits_clamps_and_inherits(self):
        caps = {"deadline_ms": 1000.0, "max_rows": 100,
                "max_loop_levels": 8}
        clamped = QueryBudget.from_limits(
            {"deadline_ms": 5000, "max_rows": 7}, caps)
        assert clamped.deadline_ms == 1000.0  # clamped to cap
        assert clamped.max_rows == 7          # under cap: kept
        assert clamped.max_loop_levels == 8   # unspecified: inherits
        inherited = QueryBudget.from_limits(None, caps)
        assert (inherited.deadline_ms, inherited.max_rows) == (1000.0, 100)
        with pytest.raises(ValueError):
            QueryBudget.from_limits({"rows": 5}, caps)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_saturated_server_sheds_with_busy(self):
        """With max_concurrency=1 and the single slot burning on an
        adversarial query, a second connection is shed with a
        structured BUSY — never queued behind the hog."""
        with _adversarial_service(max_concurrency=1) as service:
            host, port = service.address
            hog_result = {}

            def hog():
                with ServiceClient(host, port, timeout=60) as c:
                    hog_result.update(c.request(
                        "query", text=ADVERSARIAL_QUERY,
                        budget={"deadline_ms": 3000},
                        raise_on_error=False))

            thread = threading.Thread(target=hog)
            thread.start()
            try:
                # Wait until the hog actually holds the slot (healthz
                # is answered on the event loop without being admitted,
                # so it cannot steal the slot or be shed itself).
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    status, body = _http(service,
                                         b"GET /healthz HTTP/1.1\r\n\r\n")
                    assert status == 200
                    if body["inflight"] >= 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("hog request was never admitted")
                saw_busy = None
                with ServiceClient(host, port, timeout=30) as probe:
                    while time.monotonic() < deadline:
                        response = probe.request("ping",
                                                 raise_on_error=False)
                        if not response["ok"]:
                            saw_busy = response["error"]
                            break
                        time.sleep(0.01)
            finally:
                thread.join()
            assert saw_busy is not None, "server never shed load"
            assert saw_busy["code"] == "BUSY"
            assert saw_busy["retry_after_ms"] > 0
            # The hog itself ended with its budget verdict...
            assert hog_result["error"]["code"] == "BUDGET_EXCEEDED"
            # ...and the server recovered: admission works again.
            with ServiceClient(host, port) as c:
                assert c.ping()["pong"] is True
                counters = c.stats()["server"]
                assert counters["shed_total"] >= 1
                # Every request was either admitted or shed.
                assert counters["requests_total"] == \
                    counters["admitted_total"] + counters["shed_total"]

    def test_concurrent_connections_under_limit_all_served(self,
                                                           paper_service):
        host, port = paper_service.address
        errors = []

        def reader(i):
            try:
                with ServiceClient(host, port) as c:
                    for _ in range(5):
                        c.query("context Teacher * Section")
            except Exception as exc:  # pragma: no cover
                errors.append((i, exc))

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


# ---------------------------------------------------------------------------
# Inline dispatch: reads run on the event loop, spill to the executor
# ---------------------------------------------------------------------------

LOOP_THREAD = "repro-service-loop"


@contextlib.contextmanager
def _switch_interval(seconds: float):
    """Set the interpreter's switch interval, which is the slice an
    inline read may take, for the duration of the block."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _record_runs(service):
    """Record every run of a request: ``(op, thread name, ms)``, in
    order — an inline attempt that spills is followed by its re-run."""
    runs = []
    execute = service._execute

    def recording(session, request_id, op, params, attempt):
        started = time.perf_counter()
        try:
            return execute(session, request_id, op, params, attempt)
        finally:
            runs.append((op, threading.current_thread().name,
                         (time.perf_counter() - started) * 1e3))

    service._execute = recording
    return runs


class TestInlineDispatch:
    def test_reads_run_on_the_loop_and_writes_never(self, paper_service,
                                                    client):
        runs = _record_runs(paper_service)
        # A long slice, so a slow machine cannot spill the reads.
        with _switch_interval(1.0):
            client.query("context Department[name = 'CIS']")
            client.update({"kind": "insert", "cls": "Teacher",
                           "attrs": {"name": "Turing",
                                     "SS#": "999-00-1111"}})
            client.ping()
        assert [(op, thread == LOOP_THREAD) for op, thread, _ in runs] \
            == [("query", True), ("update", False), ("ping", True)]
        counters = client.stats()["server"]
        assert counters["spilled_total"] == 0
        # query and ping (stats reads the counters before it counts).
        assert counters["inline_total"] == 2
        assert counters["requests_total"] == \
            counters["admitted_total"] + counters["shed_total"]

    def test_slow_read_spills_and_keeps_its_clock(self):
        """The hog outgrows its slice on the loop and is re-run on the
        executor, where it trips the client's deadline — counted from
        admission, so the inline attempt's time is spent, not
        refunded."""
        with _adversarial_service() as service:
            runs = _record_runs(service)
            with ServiceClient(*service.address) as c:
                with _switch_interval(0.1):
                    with pytest.raises(ServiceError) as exc:
                        c.query(ADVERSARIAL_QUERY,
                                budget={"deadline_ms": 200})
                counters = c.stats()["server"]
        assert exc.value.code == "BUDGET_EXCEEDED"
        assert exc.value.detail["verdict"] == "deadline"
        (_, first, inline_ms), (_, second, executor_ms) = \
            [run for run in runs if run[0] == "query"]
        assert first == LOOP_THREAD and second != LOOP_THREAD
        assert inline_ms >= 100
        # The reported clock covers both runs (less the few µs after the
        # trip), not the re-run alone.
        assert exc.value.detail["elapsed_ms"] + 5 >= inline_ms + executor_ms
        assert counters["spilled_total"] == 1

    def test_large_result_rendered_on_the_executor(self):
        """A result of more than CHECK_EVERY rows is not rendered on the
        loop, and the executor's answer is byte-identical to a serial
        one."""
        text = "context Course * Course_1"      # 70 * 69 rows
        engine = RuleEngine(_complete_prereq(70))
        serial = engine.query(text, name="q").render()
        with QueryService(engine, ServiceConfig()) as service:
            runs = _record_runs(service)
            with ServiceClient(*service.address) as c:
                with _switch_interval(1.0):   # only the row count spills
                    reply = c.query(text, name="q")
                counters = c.stats()["server"]
        assert reply["patterns"] == 70 * 69 > QueryBudget.CHECK_EVERY
        assert reply["rendered"] == serial
        assert [(op, thread == LOOP_THREAD) for op, thread, _ in runs
                if op == "query"] == [("query", True), ("query", False)]
        assert counters["spilled_total"] == 1

    def test_pipelined_inline_spilled_inline_answered_in_order(self):
        with _adversarial_service() as service:
            payload = (_frame(id="a", op="ping")
                       + _frame(id="b", op="query", text=ADVERSARIAL_QUERY,
                                budget={"deadline_ms": 100})
                       + _frame(id="c", op="ping"))
            responses = _raw_roundtrip(service, payload)
            counters = service.counters
        assert [r["id"] for r in responses] == ["a", "b", "c"]
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"]["code"] == "BUDGET_EXCEEDED"
        assert counters["inline_total"] == 2
        assert counters["spilled_total"] == 1


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_trace_id_correlates_request_to_engine_spans(self):
        fresh_install = obs.TRACER is None
        try:
            config = ServiceConfig(trace=True)
            with QueryService(_paper_engine(), config) as service:
                with ServiceClient(*service.address) as c:
                    response = c.request(
                        "query",
                        text="context Teacher_course:Teacher "
                             "* Teacher_course:Course")
                    trace_id = response["trace_id"]
                    assert isinstance(trace_id, int)
                    root = obs.TRACER.recorder.get(trace_id)
                    assert root is not None
                    assert root.name == "service-request"
                    assert root.attrs["op"] == "query"
                    # Engine work nested under the request root.
                    assert root.children

                    # Errors carry the trace id too.
                    failed = c.request("query", text="context Klingon",
                                       raise_on_error=False)
                    assert isinstance(failed["error"]["trace_id"], int)
                    assert failed["error"]["trace_id"] != trace_id
        finally:
            if fresh_install:
                obs.uninstall()


# ---------------------------------------------------------------------------
# WAL-backed serving
# ---------------------------------------------------------------------------


class TestBackendServing:
    def test_served_writes_survive_restart(self, tmp_path):
        root = str(tmp_path / "store")
        config = ServiceConfig(backend_path=root)
        with QueryService(_paper_engine(), config) as service:
            with ServiceClient(*service.address) as c:
                c.update({"kind": "insert", "cls": "Teacher",
                          "attrs": {"name": "Durable",
                                    "SS#": "123-45-6789"}})
                assert c.stats()["backend"]["kind"] == "json"
        # engine=None: the service recovers the journaled session.
        with QueryService(None, ServiceConfig(backend_path=root)) as s2:
            with ServiceClient(*s2.address) as c:
                found = c.query("context Teacher[name = 'Durable']")
                assert found["patterns"] == 1

    def test_stateful_backend_refuses_foreign_engine(self, tmp_path):
        root = str(tmp_path / "store")
        with QueryService(_paper_engine(),
                          ServiceConfig(backend_path=root)):
            pass
        with pytest.raises(ValueError, match="already"):
            QueryService(_paper_engine(),
                         ServiceConfig(backend_path=root))

    def test_restore_refused_while_backend_attached(self, tmp_path):
        config = ServiceConfig(backend_path=str(tmp_path / "store"),
                               data_dir=str(tmp_path / "data"))
        with QueryService(_paper_engine(), config) as service:
            with ServiceClient(*service.address) as c:
                c.session_save("snap.json")
                with pytest.raises(ServiceError) as exc:
                    c.session_restore("snap.json")
                assert exc.value.code == "SEMANTIC"
                assert "backend" in str(exc.value)


# ---------------------------------------------------------------------------
# HTTP face
# ---------------------------------------------------------------------------


def _http(service, request: bytes) -> tuple:
    host, port = service.address
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body.strip() else None


class TestHTTPFace:
    def test_healthz(self, paper_service):
        status, body = _http(paper_service,
                             b"GET /healthz HTTP/1.1\r\n\r\n")
        assert status == 200
        assert body["ok"] is True

    def test_post_query(self, paper_service):
        payload = json.dumps(
            {"text": "context Teacher * Section * Course"}).encode()
        request = (b"POST /v1/query HTTP/1.1\r\n"
                   b"Content-Type: application/json\r\n"
                   + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                   + payload)
        status, body = _http(paper_service, request)
        assert status == 200
        assert body["ok"] is True
        assert body["result"]["patterns"] > 0

    def test_get_stats(self, paper_service):
        status, body = _http(paper_service,
                             b"GET /v1/stats HTTP/1.1\r\n\r\n")
        assert status == 200
        assert body["result"]["server"]["requests_total"] >= 1

    def test_unknown_path_404(self, paper_service):
        status, body = _http(paper_service,
                             b"GET /nope HTTP/1.1\r\n\r\n")
        assert status == 404
        assert body["error"]["code"] == "NOT_FOUND"

    def test_parse_error_maps_to_422(self, paper_service):
        payload = json.dumps({"text": "context ["}).encode()
        request = (b"POST /v1/query HTTP/1.1\r\n"
                   + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                   + payload)
        status, body = _http(paper_service, request)
        assert status == 422
        assert body["error"]["code"] == "PARSE_ERROR"

    def test_oversized_body_maps_to_413(self):
        config = ServiceConfig(max_frame_bytes=1024)
        with QueryService(_paper_engine(), config) as service:
            payload = b'{"text": "' + b"x" * 4096 + b'"}'
            request = (b"POST /v1/query HTTP/1.1\r\n"
                       + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                       + payload)
            status, body = _http(service, request)
        assert status == 413
        assert body["error"]["code"] == "OVERSIZED"


# ---------------------------------------------------------------------------
# Seeded concurrent soak: served == serial, byte for byte
# ---------------------------------------------------------------------------


def _serial_reference(engine) -> dict:
    """Evaluate every soak query serially in-process over a pinned
    snapshot; the canonical bytes are what the service must reproduce
    under concurrency."""
    processor = engine.snapshot_session()
    try:
        return {query: _dump(processor.execute(query).subdatabase)
                for query in READER_QUERIES}
    finally:
        processor.universe.close()


def _served_dump(result: dict) -> bytes:
    doc = result["subdatabase"]
    doc["name"] = "_"
    return json.dumps(doc, sort_keys=True).encode()


class TestConcurrentSoak:
    def test_soak_responses_byte_identical_to_serial(self, paper_service):
        """The load-bearing conformance property: N connections issuing
        a seeded shuffle of reads (base patterns and backward-chained
        rule targets) each receive exactly the bytes serial in-process
        evaluation produces — concurrency changes latency, never
        answers."""
        expected = _serial_reference(paper_service.engine)
        host, port = paper_service.address
        failures = []

        def worker(worker_id):
            rng = random.Random(1000 + worker_id)
            try:
                with ServiceClient(host, port, timeout=60) as c:
                    for step in range(8):
                        query = rng.choice(READER_QUERIES)
                        result = c.query(query, include=["subdb"])
                        if _served_dump(result) != expected[query]:
                            failures.append(
                                (worker_id, step, query, "bytes differ"))
            except Exception as exc:
                failures.append((worker_id, None, None, repr(exc)))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    def test_soak_readers_isolated_from_live_writer(self, paper_service):
        """Byte-identity must hold even while a writer mutates the live
        database: reader connections pin their snapshot up front, so
        every response equals the pre-write serial reference."""
        expected = _serial_reference(paper_service.engine)
        host, port = paper_service.address
        failures = []
        stop_writing = threading.Event()

        def writer():
            with ServiceClient(host, port, timeout=60) as c:
                i = 0
                while not stop_writing.is_set():
                    i += 1
                    c.update({"kind": "insert", "cls": "Teacher",
                              "attrs": {"name": f"W{i}",
                                        "SS#": f"w-{i}"}})
                    time.sleep(0.002)

        def reader(worker_id):
            rng = random.Random(2000 + worker_id)
            try:
                with ServiceClient(host, port, timeout=60) as c:
                    pinned = c.query(READER_QUERIES[0],
                                     include=["subdb"])
                    versions = {pinned["pinned_version"]}
                    for _ in range(6):
                        query = rng.choice(READER_QUERIES)
                        result = c.query(query, include=["subdb"])
                        versions.add(result["pinned_version"])
                        if _served_dump(result) != expected[query]:
                            failures.append((worker_id, query))
                    if len(versions) != 1:
                        failures.append((worker_id, "pin moved",
                                         sorted(versions)))
            except Exception as exc:
                failures.append((worker_id, repr(exc)))

        # Readers pin before the writer starts mutating.
        readers = [threading.Thread(target=reader, args=(i,))
                   for i in range(3)]
        for t in readers:
            t.start()
        time.sleep(0.01)
        writing = threading.Thread(target=writer)
        writing.start()
        for t in readers:
            t.join()
        stop_writing.set()
        writing.join()
        assert failures == []


# ---------------------------------------------------------------------------
# Live subscriptions over the wire
# ---------------------------------------------------------------------------


SUBSCRIBE_QUERIES = (
    "context Teacher * Section",
    "context Teacher",
    "context Student * Section * Course",
    "context Course",
)


def _engine_rows(engine, text):
    """Canonical current rows by direct in-process evaluation — the
    serial reference every folded stream must converge to."""
    from repro.oql.parser import parse_query
    query = parse_query(text)
    source = engine.evaluator.evaluate(query.context, query.where)
    return {tuple(None if v is None else v.value for v in p.values)
            for p in source.patterns}


def _fold_wire(state, frames):
    """Apply drained wire frames, checking the delta invariants."""
    last_seq = 0
    for frame in frames:
        assert frame["seq"] > last_seq, "seq not strictly increasing"
        last_seq = frame["seq"]
        assert frame["kind"] in ("delta", "resync"), frame
        added = {tuple(r) for r in frame["added"]}
        removed = {tuple(r) for r in frame["removed"]}
        if frame["kind"] == "resync":
            state = added
        else:
            assert not added & state, "delta re-added a present row"
            assert removed <= state, "delta removed an absent row"
            state = (state - removed) | added
    return state


class TestLiveSubscriptions:
    def test_subscribe_delta_roundtrip(self, paper_service):
        """Snapshot, one pushed delta per relevant write, silence on
        unrelated writes, silence after unsubscribe."""
        engine = paper_service.engine
        host, port = paper_service.address
        with ServiceClient(host, port) as watcher, \
                ServiceClient(host, port) as echo, \
                ServiceClient(host, port) as writer:
            res = watcher.subscribe("context Teacher * Section")
            sid = res["subscription"]
            echo_sid = echo.subscribe("context Teacher * Section")[
                "subscription"]
            assert res["kind"] == "snapshot" and res["seq"] == 0
            assert res["incremental"] is True
            assert res["footprint"] == ("extents: Section, Teacher "
                                        "links: Teacher.teaches attrs: -")
            state = {tuple(r) for r in res["rows"]}
            assert state == _engine_rows(engine,
                                         "context Teacher * Section")
            teachers = sorted(o.value for o in engine.db.extent("Teacher"))
            sections = sorted(o.value for o in engine.db.extent("Section"))
            pair = next((t, s) for t in teachers for s in sections
                        if (t, s) not in state)
            writer.update({"kind": "associate", "owner": pair[0],
                           "name": "teaches", "target": pair[1]})
            frame = watcher.next_delta(sid, timeout=10)
            assert frame is not None
            assert frame["kind"] == "delta" and frame["seq"] == 1
            assert frame["added"] == [list(pair)]
            assert frame["removed"] == []
            # schema + 2 extents + 1 link
            assert len(frame["vector"]) == 4
            # An unrelated-class write never wakes the subscriber.
            writer.update({"kind": "insert", "cls": "Department",
                           "attrs": {"name": "Nowhere"}})
            assert watcher.next_delta(sid, timeout=0.5) is None
            # After unsubscribe, even relevant writes deliver nothing.
            assert watcher.unsubscribe(sid)["unsubscribed"] == sid
            writer.update({"kind": "dissociate", "owner": pair[0],
                           "name": "teaches", "target": pair[1]})
            assert watcher.next_delta(sid, timeout=0.5) is None
            # A second subscriber saw each relevant write exactly once.
            frames = echo.drain_deltas(echo_sid, idle=0.5)
            assert [(f["kind"], f["seq"], f["added"], f["removed"])
                    for f in frames] == [("delta", 1, [list(pair)], []),
                                         ("delta", 2, [], [list(pair)])]

    def test_soak_concurrent_subscribers_fold_to_serial(
            self, paper_service):
        """The satellite soak: 8 subscriber connections + one live
        writer; every folded stream (initial ⊕ deltas) must equal the
        final serial evaluation, and closing the clients returns the
        engine's listener count to its baseline."""
        engine = paper_service.engine
        baseline = engine.db.listener_count()
        host, port = paper_service.address
        teachers = sorted(o.value for o in engine.db.extent("Teacher"))
        sections = sorted(o.value for o in engine.db.extent("Section"))
        clients, subs, failures = [], [], []
        try:
            for i, text in enumerate(SUBSCRIBE_QUERIES * 2):
                c = ServiceClient(host, port, timeout=60)
                clients.append(c)
                res = c.subscribe(text)
                subs.append((c, text, res["subscription"],
                             {tuple(r) for r in res["rows"]}))
            assert paper_service.streaming.active_count() == len(subs)

            def write_storm():
                rng = random.Random(97)
                with ServiceClient(host, port, timeout=60) as w:
                    for i in range(40):
                        roll = rng.random()
                        try:
                            if roll < 0.35:
                                w.update({"kind": "insert",
                                          "cls": "Teacher",
                                          "attrs": {"name": f"Soak{i}",
                                                    "SS#": f"so-{i}"}})
                            elif roll < 0.70:
                                w.update({"kind": "associate",
                                          "owner": rng.choice(teachers),
                                          "name": "teaches",
                                          "target": rng.choice(sections)})
                            else:
                                w.update({"kind": "dissociate",
                                          "owner": rng.choice(teachers),
                                          "name": "teaches",
                                          "target": rng.choice(sections)})
                        except ServiceError:
                            pass  # double links / missing links

            storm = threading.Thread(target=write_storm)
            storm.start()
            storm.join()
            for c, text, sid, state in subs:
                frames = c.drain_deltas(sid, idle=0.6)
                folded = _fold_wire(state, frames)
                expected = _engine_rows(engine, text)
                if folded != expected:
                    failures.append(
                        f"{text!r}: folded {len(folded)} row(s) != "
                        f"serial {len(expected)} after "
                        f"{len(frames)} frame(s)")
        finally:
            for c in clients:
                c.close()
        assert failures == [], "\n".join(failures)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and (
                paper_service.streaming.active_count()
                or engine.db.listener_count() != baseline):
            time.sleep(0.05)
        assert paper_service.streaming.active_count() == 0
        assert engine.db.listener_count() == baseline, \
            "subscription listener leaked past client disconnect"

    def test_mid_stream_disconnect_reaps(self, paper_service):
        """An abrupt socket close (no unsubscribe) must reap the
        session's subscriptions and detach the shared listener."""
        engine = paper_service.engine
        baseline = engine.db.listener_count()
        host, port = paper_service.address
        c = ServiceClient(host, port)
        c.subscribe("context Teacher")
        assert paper_service.streaming.active_count() == 1
        assert engine.db.listener_count() == baseline + 1
        c.close()  # abrupt: the server sees EOF mid-stream
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and (
                paper_service.streaming.active_count()
                or engine.db.listener_count() != baseline):
            time.sleep(0.05)
        assert paper_service.streaming.active_count() == 0
        assert engine.db.listener_count() == baseline

    def test_subscription_cap_sheds_with_busy(self):
        config = ServiceConfig(max_subscriptions=2)
        with QueryService(_paper_engine(), config) as service:
            with ServiceClient(*service.address) as c:
                c.subscribe("context Teacher")
                c.subscribe("context Course")
                with pytest.raises(ServiceError) as exc:
                    c.subscribe("context Section")
                assert exc.value.code == "BUSY"
                assert service.streaming.active_count() == 2

    def test_subscribe_parse_and_budget_errors(self, client):
        with pytest.raises(ServiceError) as exc:
            client.subscribe("context [")
        assert exc.value.code == "PARSE_ERROR"
        with pytest.raises(ServiceError) as exc:
            client.subscribe("context Teacher * Section * Course",
                             budget={"max_rows": 1})
        assert exc.value.code == "BUDGET_EXCEEDED"

    def test_unsubscribe_unknown_id_not_found(self, client):
        with pytest.raises(ServiceError) as exc:
            client.unsubscribe(12345)
        assert exc.value.code == "NOT_FOUND"

    def test_http_subscribe_refused(self, paper_service):
        payload = json.dumps({"text": "context Teacher"}).encode()
        request = (b"POST /v1/subscribe HTTP/1.1\r\n"
                   + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                   + payload)
        status, body = _http(paper_service, request)
        assert status == 422
        assert body["error"]["code"] == "SEMANTIC"
        assert "JSON-lines" in body["error"]["message"]

    def test_stats_subscriptions_section(self, paper_service, client):
        client.subscribe("context Teacher")
        stats = client.stats()
        section = stats["subscriptions"]
        assert section["active"] == 1
        assert section["manager"]["subscribed"] == 1
        assert section["db_listener_attached"] is True
