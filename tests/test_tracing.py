"""The observability layer: span mechanics, exporters, the null-tracer
contract, and Hypothesis-driven well-formedness properties over random
query and rule workloads.

The property suite reuses the differential harness's seeded query
generator (:mod:`tests.test_differential`) so the trace shapes exercised
here match the workloads the parity tier replays.
"""

import json
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryProcessor, RuleEngine, Universe, obs
from repro.errors import ReproError
from repro.obs import (
    CountingTracer,
    TraceRecorder,
    Tracer,
    chrome_trace,
    render_tree,
    save_chrome_trace,
    to_chrome_events,
)
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.university.generator import GeneratorConfig, generate_university
from tests.test_differential import _random_spec

#: Slack for float microsecond arithmetic when checking containment.
EPS_US = 5.0

DB = generate_university(GeneratorConfig(), seed=11).db


@pytest.fixture(autouse=True)
def _no_tracer_leak():
    yield
    obs.uninstall()


def all_spans(root):
    return list(root.walk())


def assert_well_formed(root):
    """Every span closed exactly once, ids unique, one trace id, and
    children strictly nested inside their parents."""
    seen = set()
    for span in root.walk():
        assert span.closed, f"span {span.name!r} left open"
        assert span.span_id not in seen, "duplicate span id"
        seen.add(span.span_id)
        assert span.trace_id == root.trace_id
        end = span.start_us + span.wall_ms * 1000.0
        for child in span.children:
            assert child.parent_id == span.span_id
            child_end = child.start_us + child.wall_ms * 1000.0
            assert child.start_us >= span.start_us - EPS_US, (
                f"{child.name} starts before parent {span.name}")
            assert child_end <= end + EPS_US, (
                f"{child.name} ends after parent {span.name}")


# ---------------------------------------------------------------------------
# Span mechanics.
# ---------------------------------------------------------------------------


class TestTracerMechanics:
    def test_nested_spans_and_recording(self):
        tracer = Tracer()
        outer = tracer.start("outer", kind="demo")
        inner = tracer.start("inner")
        inner.add("rows_out", 7)
        tracer.finish(inner)
        tracer.finish(outer)
        root = tracer.recorder.last()
        assert root is outer
        assert root.parent_id is None
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].counters["rows_out"] == 7
        assert root.attrs["kind"] == "demo"
        assert_well_formed(root)

    def test_implicit_parent_is_thread_local(self):
        tracer = Tracer()
        root = tracer.start("root")
        captured = {}

        def worker():
            # No stack on this thread: a fresh start() makes a new root.
            span = tracer.start("isolated")
            captured["trace"] = span.trace_id
            tracer.finish(span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.finish(root)
        assert captured["trace"] != root.trace_id
        assert len(tracer.recorder) == 2

    def test_explicit_parent_stitches_across_threads(self):
        tracer = Tracer()
        root = tracer.start("root")
        parent = tracer.current_span()
        assert parent is root

        def worker(index):
            span = tracer.start("child", parent=parent, index=index)
            tracer.finish(span)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tracer.finish(root)
        assert sorted(c.attrs["index"] for c in root.children) == \
            [0, 1, 2, 3]
        assert root.children[0].trace_id == root.trace_id
        assert_well_formed(root)

    def test_double_finish_raises(self):
        tracer = Tracer()
        span = tracer.start("once")
        tracer.finish(span)
        with pytest.raises(RuntimeError, match="finished twice"):
            tracer.finish(span)

    def test_abandoned_children_are_swept(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.finish(outer)  # sweeps the still-open inner span
        assert inner.closed
        assert inner.status == "aborted"
        tracer.finish(inner)  # late finish of a swept span is a no-op
        root = tracer.recorder.last()
        assert root is outer
        assert_well_formed(root)

    def test_error_status_from_exception(self):
        tracer = Tracer()
        span = tracer.start("failing")
        try:
            raise ValueError("boom")
        except ValueError:
            tracer.finish(span)
        assert span.status == "error:ValueError"

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(max_traces=3)
        ids = []
        for _ in range(5):
            span = tracer.start("q")
            ids.append(span.trace_id)
            tracer.finish(span)
        assert len(tracer.recorder) == 3
        assert tracer.recorder.get(ids[0]) is None
        assert tracer.recorder.get(ids[-1]) is not None
        assert [r.trace_id for r in tracer.recorder.traces()] == ids[2:]

    def test_recorder_last_get_clear(self):
        recorder = TraceRecorder()
        assert recorder.last() is None
        assert recorder.get(1) is None
        tracer = Tracer()
        span = tracer.start("q")
        tracer.finish(span)
        assert tracer.recorder.last() is span
        assert tracer.recorder.get(span.trace_id) is span
        tracer.recorder.clear()
        assert len(tracer.recorder) == 0

    def test_counting_tracer_is_inert(self):
        tracer = CountingTracer()
        a = tracer.start("x", attr=1)
        b = tracer.start("y")
        a.add("rows_out", 3)
        a.set("k", "v")
        assert a.trace_id is None
        tracer.finish(a)
        tracer.finish(b)
        assert tracer.current_span() is None
        assert tracer.starts == 2

    def test_install_uninstall(self):
        assert obs.TRACER is None
        tracer = obs.install()
        assert obs.TRACER is tracer
        assert isinstance(tracer, Tracer)
        custom = Tracer(max_traces=2)
        assert obs.install(custom) is custom
        assert obs.TRACER is custom
        obs.uninstall()
        assert obs.TRACER is None
        assert obs.last_trace() is None


# ---------------------------------------------------------------------------
# Exporters.
# ---------------------------------------------------------------------------


class TestExport:
    def _sample_root(self):
        tracer = Tracer()
        root = tracer.start("query", result="r")
        child = tracer.start("join-step", slot="Course")
        child.add("rows_out", 4)
        tracer.finish(child)
        tracer.finish(root)
        return root

    def test_chrome_events_shape(self):
        root = self._sample_root()
        events = to_chrome_events([root])
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1
            assert event["tid"] == root.thread_id
            assert event["dur"] >= 0
            assert event["args"]["trace_id"] == root.trace_id
        child = next(e for e in events if e["name"] == "join-step")
        assert child["args"]["rows_out"] == 4
        assert child["args"]["slot"] == "Course"

    def test_chrome_trace_document_and_save(self, tmp_path):
        root = self._sample_root()
        doc = chrome_trace([root])
        assert doc["displayTimeUnit"] == "ms"
        path = save_chrome_trace(tmp_path / "trace.json", [root])
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))

    def test_render_tree(self):
        root = self._sample_root()
        text = render_tree(root)
        assert text.startswith(f"trace {root.trace_id}: query")
        assert "└─ join-step" in text
        assert "rows_out=4" in text
        assert "slot=Course" in text


# ---------------------------------------------------------------------------
# End-to-end instrumentation.
# ---------------------------------------------------------------------------


class TestInstrumentation:
    def _processor(self, **kwargs):
        return QueryProcessor(Universe(DB), compact=True, **kwargs)

    def test_metrics_carry_trace_id(self):
        processor = self._processor()
        result = processor.execute("context Student * Section")
        assert result.metrics.trace_id is None  # tracing off
        tracer = obs.install()
        result = processor.execute("context Student * Section")
        assert result.metrics.trace_id is not None
        root = tracer.recorder.get(result.metrics.trace_id)
        assert root is not None
        assert root.name == "query"
        assert root.counters["rows_out"] == result.metrics.patterns_out
        assert_well_formed(root)

    def test_query_trace_has_plan_and_join_steps(self):
        tracer = obs.install()
        self._processor().execute("context Student * Section * Course")
        root = tracer.recorder.last()
        names = [span.name for span in all_spans(root)]
        assert names.count("match-range") == 1
        assert names.count("join-step") == 2
        assert "plan" in names

    def test_loop_trace_has_levels(self):
        tracer = obs.install()
        self._processor().execute("context Course * Course_1 ^*")
        root = tracer.recorder.last()
        levels = [span for span in all_spans(root)
                  if span.name == "loop-level"]
        assert levels
        first = levels[0].attrs["level"]
        assert [span.attrs["level"] for span in levels] == \
            list(range(first, first + len(levels)))

    def test_explain_trace_id(self):
        engine = RuleEngine(DB)
        explanation = engine.explain("context Student * Section")
        assert explanation.trace_id is None
        tracer = obs.install()
        explanation = engine.explain("context Student * Section")
        assert explanation.trace_id is not None
        assert tracer.recorder.get(explanation.trace_id).name == "explain"

    def test_rule_derivation_cascade_spans(self):
        engine = RuleEngine(DB)
        engine.add_rule("if context Student * Section "
                        "then Enrolled (Student, Section)")
        engine.add_rule("if context Enrolled:Section * Course "
                        "then Offered (Section, Course)")
        tracer = obs.install()
        engine.derive("Offered")
        root = tracer.recorder.last()
        derives = [span for span in all_spans(root)
                   if span.name == "derive"]
        assert [span.attrs["target"] for span in derives] == \
            ["Offered", "Enrolled"]
        assert any(span.name == "rule-apply"
                   for span in all_spans(root))
        assert_well_formed(root)

    def test_refresh_span_reports_footprint_skip(self):
        """A write to a class a target reads, through a link it never
        traverses, shows as a refresh span with outcome skip-footprint
        — and only for that near miss, not for every bystander."""
        data = generate_university(GeneratorConfig(students=20), seed=3)
        engine = RuleEngine(data.db, controller="incremental")
        engine.add_rule("if context Teacher * Section "
                        "then Busy (Teacher)")
        engine.add_rule("if context Department * Course "
                        "then Offers (Department)")
        engine.add_rule("if context Student * Section "
                        "then Enrolled (Student)")
        engine.refresh()
        student = data.all_of("Student")[0]
        enrolled = data.db.schema.entity_association(student.cls,
                                                        "enrolled")
        free = next(s for s in data.all_of("Section")
                    if s.oid not in data.db.linked(student.oid, enrolled))
        tracer = obs.install()
        data.db.associate(student, "enrolled", free)
        root = tracer.recorder.last()
        assert root.name == "forward-pass"
        outcomes = {span.attrs["target"]: span.attrs["outcome"]
                    for span in all_spans(root) if span.name == "refresh"}
        assert outcomes == {"Busy": "skip-footprint",
                            "Enrolled": "incremental"}
        assert engine.stats.snapshot()["refreshes_skipped_footprint"] == 1
        assert_well_formed(root)

    def test_budget_exceeded_records_partial_trace(self):
        processor = self._processor()
        tracer = obs.install()
        budget = QueryBudget(max_rows=1)
        with pytest.raises(BudgetExceeded) as info:
            processor.execute("context Student * Section * Course",
                              budget=budget)
        exc = info.value
        assert exc.trace_id is not None
        root = tracer.recorder.get(exc.trace_id)
        assert root is not None
        assert_well_formed(root)
        query = next(span for span in all_spans(root)
                     if span.name == "query")
        assert query.status == "error:BudgetExceeded"
        assert query.attrs["budget_verdict"] == "max_rows"
        assert query.attrs["budget_checks"] >= 1

    def test_span_sites_scale_with_operators_not_rows(self):
        """Tracing-off costs one guard per span site reached, so the
        site count must not grow with the data: a chain opens the same
        spans on a larger corpus, a closure one more per loop level.
        Counted, not timed, so it repeats on any machine."""
        corpora = [generate_university(GeneratorConfig(
            departments=d, courses=c, students=n, prereqs_per_course=2,
            seed=55)).db for d, c, n in ((2, 15, 30), (4, 40, 120))]
        for text in ("context Department * Course * Section * Student",
                     "context Course * Course_1 ^*"):
            sites, rows = [], []
            for db in corpora:
                processor = QueryProcessor(Universe(db))
                counter = obs.install(CountingTracer())
                rows.append(len(processor.execute(text).subdatabase))
                obs.uninstall()
                metrics = processor.evaluator.last_metrics
                sites.append(counter.starts - metrics.loop_levels)
            assert rows[0] < rows[1]
            assert sites[0] == sites[1]


# ---------------------------------------------------------------------------
# Hypothesis properties over the differential generator.
# ---------------------------------------------------------------------------


SHARED_PROCESSOR = None


def _shared_processor():
    global SHARED_PROCESSOR
    if SHARED_PROCESSOR is None:
        SHARED_PROCESSOR = QueryProcessor(Universe(DB), compact=True)
    return SHARED_PROCESSOR


class TestTraceProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_every_query_trace_is_well_formed(self, seed):
        spec = _random_spec(random.Random(seed))
        processor = _shared_processor()
        tracer = Tracer()
        obs.install(tracer)
        try:
            try:
                result = processor.execute(spec.text())
            except ReproError:
                result = None
        finally:
            obs.uninstall()
        root = tracer.recorder.last()
        assert root is not None, "no trace recorded"
        assert_well_formed(root)
        query_spans = [span for span in all_spans(root)
                       if span.name == "query"]
        assert len(query_spans) == 1
        if result is not None:
            assert query_spans[0].counters["rows_out"] == \
                len(result.subdatabase)
            assert result.metrics.trace_id == root.trace_id

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_budget_trip_leaves_no_orphan_spans(self, seed):
        rng = random.Random(seed)
        spec = _random_spec(rng)
        processor = _shared_processor()
        tracer = Tracer()
        obs.install(tracer)
        try:
            try:
                processor.execute(spec.text(),
                                  budget=QueryBudget(max_rows=rng
                                                     .randint(1, 50)))
            except BudgetExceeded as exc:
                assert exc.trace_id is not None
                root = tracer.recorder.get(exc.trace_id)
                assert root is not None
            except ReproError:
                pass
        finally:
            obs.uninstall()
        for root in tracer.recorder.traces():
            assert_well_formed(root)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_rule_workload_traces_are_well_formed(self, seed):
        spec = _random_spec(random.Random(seed))
        if len(spec.chain) < 2 or spec.where or spec.loop:
            return
        engine = RuleEngine(DB)
        rule_text = (f"if context {spec.text()[len('context '):]} "
                     f"then Target ({spec.chain[0]}, {spec.chain[-1]})")
        tracer = Tracer()
        obs.install(tracer)
        try:
            try:
                engine.add_rule(rule_text)
                engine.derive("Target")
            except ReproError:
                return
        finally:
            obs.uninstall()
        root = tracer.recorder.last()
        assert root is not None
        assert_well_formed(root)
        names = [span.name for span in all_spans(root)]
        assert names[0] == "derive"
        assert "rule-apply" in names
        assert "query" in names
