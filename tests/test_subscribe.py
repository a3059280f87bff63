"""Live-subscription unit and property tests.

Covers the :class:`~repro.oql.subscribe.SubscriptionManager` delivery
contract — duplicate-free deltas under strictly increasing sequence
numbers, silence after unsubscribe, RESYNC-after-overflow convergence,
budget-trip recovery, terminal ``closed`` frames, empty-delta
suppression — plus the listener-lifecycle regressions in
:class:`~repro.model.database.Database` and
:class:`~repro.rules.engine.RuleEngine` (removal during notification)
that the subscription teardown paths rely on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import OQLSemanticError, UnknownSubdatabaseError
from repro.model.database import Database
from repro.model.dclass import INTEGER
from repro.model.schema import Schema
from repro.oql.parser import parse_query
from repro.oql.subscribe import SubscriptionManager, canonical_rows
from repro.rules.engine import RuleEngine
from repro.university import build_paper_database

pytestmark = pytest.mark.subscribe


def chain_db(size: int = 3):
    """A -ab-> B plus a self-association A -aa-> A (for loop shapes)."""
    schema = Schema()
    for cls in "AB":
        schema.add_eclass(cls)
        schema.add_attribute(cls, "n", INTEGER)
    schema.add_association("A", "B", name="ab")
    schema.add_association("A", "A", name="aa")
    db = Database(schema)
    objs = {}
    for cls in "AB":
        for i in range(size):
            objs[f"{cls.lower()}{i}"] = db.insert(
                cls, f"{cls.lower()}{i}", n=i)
    return db, objs


def scratch_rows(engine, text):
    """The rows of ``text`` by direct evaluation (canonical form)."""
    query = parse_query(text)
    source = engine.evaluator.evaluate(query.context, query.where)
    return {tuple(v.value for v in p.values) for p in source.patterns}


def scratch_pairs(engine):
    """The A * B pairs by direct evaluation (canonical form)."""
    return scratch_rows(engine, "context A * B")


def fold(state, frames):
    """Apply drained frames; asserts the per-frame delta invariants."""
    last_seq = -1  # the snapshot is seq 0; deltas start at 1
    for frame in frames:
        assert frame.seq > last_seq, "seq not strictly increasing"
        last_seq = frame.seq
        if frame.kind in ("resync", "snapshot"):
            state = set(frame.added)
        elif frame.kind == "delta":
            added, removed = set(frame.added), set(frame.removed)
            assert not added & state, "delta re-added a present row"
            assert removed <= state, "delta removed an absent row"
            assert not added & removed, "row both added and removed"
            state = (state - removed) | added
        else:
            state = None
    return state


# Op codes for the hypothesis sweep: (kind, owner index, target index).
OPS = st.lists(
    st.tuples(st.sampled_from(["link", "unlink", "newa", "newb"]),
              st.integers(0, 5), st.integers(0, 5)),
    min_size=1, max_size=25)


def apply_ops(db, ops, counter=[0]):
    """Replay an op list, ignoring constraint noise (double links,
    missing links); returns how many ops actually mutated."""
    from repro.errors import ReproError
    applied = 0
    a_pool = sorted(db.extent("A"))
    b_pool = sorted(db.extent("B"))
    for kind, i, j in ops:
        try:
            if kind == "link":
                db.associate(a_pool[i % len(a_pool)], "ab",
                             b_pool[j % len(b_pool)])
            elif kind == "unlink":
                db.dissociate(a_pool[i % len(a_pool)], "ab",
                              b_pool[j % len(b_pool)])
            elif kind == "newa":
                counter[0] += 1
                a_pool.append(db.insert("A", f"pa{counter[0]}", n=i))
            else:
                counter[0] += 1
                b_pool.append(db.insert("B", f"pb{counter[0]}", n=j))
            applied += 1
        except ReproError:
            continue
    return applied


class TestDeliveryProperties:
    """Hypothesis sweep of the delivery contract on a small schema."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS)
    def test_deltas_duplicate_free_and_ordered(self, ops):
        db, _ = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        sub = manager.subscribe("context A * B")
        state = fold(set(), [sub.initial])
        apply_ops(db, ops)
        state = fold(state, sub.poll())
        assert state == scratch_pairs(manager.engine)
        manager.unsubscribe(sub.id)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS)
    def test_unsubscribe_then_write_delivers_nothing(self, ops):
        db, _ = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        baseline = db.listener_count()
        sub = manager.subscribe("context A * B")
        assert manager.unsubscribe(sub.id)
        apply_ops(db, ops)
        assert sub.poll() == [] and sub.pending() == 0
        assert sub.counters["events_seen"] == 0
        assert db.listener_count() == baseline

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS)
    def test_resync_after_overflow_converges(self, ops):
        """A consumer that never polls mid-stream: with a 1-frame
        outbox the backlog degrades to RESYNC frames, and the final
        drain still converges to the scratch result."""
        db, _ = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        sub = manager.subscribe("context A * B", max_pending=1)
        state = fold(set(), [sub.initial])
        apply_ops(db, ops)
        frames = sub.poll()
        assert len(frames) <= 1, "outbox exceeded max_pending"
        if sub.counters["overflows"]:
            assert frames and frames[-1].kind == "resync"
        state = fold(state, frames)
        assert state == scratch_pairs(manager.engine)
        manager.unsubscribe(sub.id)


class TestSubscriptionSemantics:
    def test_operation_queries_rejected(self):
        db, _ = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        with pytest.raises(OQLSemanticError):
            manager.subscribe("context A display")
        assert manager.active_count == 0

    def test_relevant_write_with_unchanged_result_emits_nothing(self):
        """A write that moves the vector but not the rows (a new A with
        no links) advances silently: no frame, one empty delta."""
        db, objs = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        db.associate(objs["a0"], "ab", objs["b0"])
        sub = manager.subscribe("context A * B")
        db.insert("A", "lonely", n=99)
        assert sub.counters["wakeups"] == 1
        assert sub.counters["empty_deltas"] == 1
        assert sub.pending() == 0
        manager.unsubscribe(sub.id)

    def test_budget_trip_marks_stale_then_next_event_resyncs(self):
        """Growth past ``max_rows`` trips the budget (stale, no frame
        with partial rows); shrinking back lets the next relevant event
        recover with a full RESYNC that matches scratch."""
        db, objs = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        db.associate(objs["a0"], "ab", objs["b0"])
        # The aggregation condition forces the scratch path, whose full
        # re-evaluation is what the budget meters.
        sub = manager.subscribe("context A * B where COUNT(B by A) > 0",
                                budget_limits={"max_rows": 2})
        assert not sub.incremental
        assert sub.initial.added == ((objs["a0"].oid.value,
                                      objs["b0"].oid.value),)
        db.associate(objs["a0"], "ab", objs["b1"])  # 2 pairs: fits
        assert sub.counters["budget_trips"] == 0
        db.associate(objs["a0"], "ab", objs["b2"])  # 3 pairs: trips
        assert sub.counters["budget_trips"] == 1
        assert sub.stale
        kinds = [f.kind for f in sub.poll()]
        assert kinds == ["delta"], "tripped event must emit no frame"
        db.dissociate(objs["a0"], "ab", objs["b2"])  # back to 2: fits
        db.dissociate(objs["a0"], "ab", objs["b1"])
        frames = sub.poll()
        assert [f.kind for f in frames] == ["resync", "delta"]
        assert not sub.stale
        state = fold(set(), frames)
        assert state == scratch_pairs(manager.engine)
        manager.unsubscribe(sub.id)

    def test_maintained_budget_trip_resyncs_from_the_maintainer(self):
        """The same trip for a subscription maintained by deltas: the
        expansion of one new link passes ``max_rows``; a later event
        that shrinks the result recovers with a RESYNC that
        re-initializes the maintainer, so the write after it is again
        a small delta that folds to scratch."""
        db, objs = chain_db(4)
        manager = SubscriptionManager(RuleEngine(db))
        text = "context A * A_1 * B"
        db.associate(objs["a0"], "aa", objs["a1"])
        db.associate(objs["a1"], "ab", objs["b0"])
        sub = manager.subscribe(text, budget_limits={"max_rows": 2})
        assert sub.incremental
        db.associate(objs["a2"], "aa", objs["a1"])
        db.associate(objs["a3"], "aa", objs["a1"])
        assert sub.counters["budget_trips"] == 0
        db.associate(objs["a1"], "ab", objs["b1"])  # expands to 3: trips
        assert sub.counters["budget_trips"] == 1
        assert sub.stale
        with db.batch():                             # back to one row
            db.dissociate(objs["a1"], "ab", objs["b1"])
            db.dissociate(objs["a3"], "aa", objs["a1"])
            db.dissociate(objs["a2"], "aa", objs["a1"])
        assert not sub.stale
        assert sub.counters["budget_trips"] == 1
        frames = sub.poll()
        assert [f.kind for f in frames] == ["delta", "delta", "resync"]
        state = fold(set(sub.initial.added), frames)
        assert state == scratch_rows(manager.engine, text)
        db.dissociate(objs["a0"], "aa", objs["a1"])  # removes that row
        frames = sub.poll()
        assert [(f.kind, len(f.added), len(f.removed))
                for f in frames] == [("delta", 0, 1)]
        assert fold(state, frames) == scratch_rows(manager.engine, text)
        assert sub.incremental
        manager.unsubscribe(sub.id)

    def test_manual_resync_recovers_without_a_write(self):
        db, objs = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        sub = manager.subscribe("context A * B")
        sub.stale = True  # as if a budget trip had happened
        assert manager.resync(sub.id)
        frames = sub.poll()
        assert [f.kind for f in frames] == ["resync"]
        assert not sub.stale
        manager.unsubscribe(sub.id)

    def test_rule_removal_closes_derived_subscription(self):
        """Removing a rule a subscription reads produces one terminal
        ``closed`` frame and detaches everything."""
        engine = RuleEngine(build_paper_database().db)
        baseline = engine.db.listener_count()
        engine.add_rule(
            "if context Teacher * Section * Course "
            "then Teacher_course (Teacher, Course)", label="R1")
        manager = SubscriptionManager(engine)
        sub = manager.subscribe(
            "context Teacher_course:Teacher * Teacher_course:Course")
        assert sub.has_derived
        assert sub.initial.added  # non-vacuous
        engine.remove_rule("R1")
        frames = sub.poll()
        assert frames[-1].kind == "closed"
        assert "UnknownSubdatabaseError" in frames[-1].error
        assert not sub.active
        assert manager.active_count == 0
        assert engine.db.listener_count() == baseline

    def test_derived_subscription_wakes_on_base_class_write(self):
        """Derived references resolve to their transitive base classes:
        a teaches link (Teacher/Section) must wake a Teacher_course
        subscriber even though no Teacher_course write ever happens."""
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.add_rule(
            "if context Teacher * Section * Course "
            "then Teacher_course (Teacher, Course)", label="R1")
        manager = SubscriptionManager(engine)
        sub = manager.subscribe(
            "context Teacher_course:Teacher * Teacher_course:Course")
        assert sub.footprint.extents == {"Course", "Section", "Teacher"}
        assert sub.footprint.links == {("Teacher", "teaches"),
                                       ("Section", "course")}
        teacher = sorted(data.db.extent("Teacher"))[0]
        section = sorted(data.db.extent("Section"))[-1]
        data.db.associate(teacher, "teaches", section)
        assert sub.counters["wakeups"] == 1
        manager.unsubscribe(sub.id)

    def test_snapshot_consistency_counts_every_event_once(self):
        """initial ⊕ deltas covers each write exactly once even when
        writes surround the subscribe call."""
        db, objs = chain_db()
        manager = SubscriptionManager(RuleEngine(db))
        db.associate(objs["a0"], "ab", objs["b0"])  # before subscribe
        sub = manager.subscribe("context A * B")
        db.associate(objs["a1"], "ab", objs["b1"])  # after subscribe
        state = fold(set(), [sub.initial] + sub.poll())
        assert state == {(objs["a0"].oid.value, objs["b0"].oid.value),
                         (objs["a1"].oid.value, objs["b1"].oid.value)}
        assert sub.initial.added == canonical_rows(
            [(objs["a0"].oid.value, objs["b0"].oid.value)])
        manager.unsubscribe(sub.id)


class TestListenerLifecycle:
    """Satellite regressions: removal during notification must be safe
    and must not deliver the current event to the removed listener."""

    def test_listener_removing_another_skips_it_for_this_event(self):
        db, objs = chain_db()
        calls = []
        removed = []

        def second(event):
            calls.append("second")

        def first(event):
            calls.append("first")
            if not removed:
                db.remove_listener(second)
                removed.append(True)

        db.add_listener(first)
        db.add_listener(second)
        db.insert("A", "x1", n=1)
        assert calls == ["first"], "removed listener still notified"
        db.insert("A", "x2", n=2)
        assert calls == ["first", "first"]

    def test_listener_removing_itself_is_safe(self):
        db, _ = chain_db()
        calls = []

        def once(event):
            calls.append("once")
            db.remove_listener(once)

        db.add_listener(once)
        before = db.listener_count()
        db.insert("A", "y1", n=1)
        db.insert("A", "y2", n=2)
        assert calls == ["once"]
        assert db.listener_count() == before - 1

    def test_listeners_fire_in_registration_order(self):
        db, _ = chain_db()
        order = []
        db.add_listener(lambda e: order.append(1))
        db.add_listener(lambda e: order.append(2))
        db.add_listener(lambda e: order.append(3))
        db.insert("A", "z", n=0)
        assert order == [1, 2, 3]

    def test_rule_listener_removal_during_notification(self):
        db, _ = chain_db()
        engine = RuleEngine(db)
        calls = []

        removed = []

        def second(action, rule, mode):
            calls.append("second")

        def first(action, rule, mode):
            calls.append("first")
            if not removed:
                engine.remove_rule_listener(second)
                removed.append(True)

        engine.add_rule_listener(first)
        engine.add_rule_listener(second)
        engine.add_rule("if context A * B then AB (A, B)", label="T")
        assert calls == ["first"]
        engine.remove_rule("T")
        assert calls == ["first", "first"]

    def test_manager_attach_detach_is_paired(self):
        """One db listener + one rule listener while any subscription
        is live; none when idle."""
        db, _ = chain_db()
        engine = RuleEngine(db)
        baseline = db.listener_count()
        manager = SubscriptionManager(engine)
        assert db.listener_count() == baseline
        first = manager.subscribe("context A * B")
        second = manager.subscribe("context A")
        assert db.listener_count() == baseline + 1  # shared listener
        manager.unsubscribe(first.id)
        assert db.listener_count() == baseline + 1
        manager.unsubscribe(second.id)
        assert db.listener_count() == baseline
        assert engine._rule_listeners == []
