"""Tests for incremental maintenance: per-event delta semantics,
eligibility fallbacks, controller integration, and a hypothesis sweep
asserting incremental == from-scratch under random update sequences."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.database import Database
from repro.model.dclass import INTEGER, STRING
from repro.model.schema import Schema
from repro.rules.engine import RuleEngine
from repro.rules.incremental import IncrementalRule, NotIncremental
from repro.rules.rule import parse_rule
from repro.subdb.universe import Universe
from repro.university import build_paper_database


def chain_db():
    """A -ab-> B -bc-> C with attribute n on every class."""
    schema = Schema()
    for cls in "ABC":
        schema.add_eclass(cls)
        schema.add_attribute(cls, "n", INTEGER)
    schema.add_association("A", "B", name="ab")
    schema.add_association("B", "C", name="bc")
    db = Database(schema)
    objs = {}
    for cls in "ABC":
        for i in range(4):
            objs[f"{cls.lower()}{i}"] = db.insert(cls, f"{cls.lower()}{i}",
                                                  n=i)
    return db, objs


def maintainer(db, text):
    universe = Universe(db)
    rule = parse_rule(text)
    inc = IncrementalRule(rule, universe)
    db.add_listener(inc.on_event)
    inc.initialize()
    return inc


def fresh_rows(db, text):
    from repro.oql.evaluator import PatternEvaluator
    rule = parse_rule(text)
    source = PatternEvaluator(Universe(db)).evaluate(rule.context,
                                                     rule.where)
    return {tuple(p.values) for p in source.patterns}


RULE_ABC = "if context A * B * C then X (A, C)"


class TestEligibility:
    def test_loop_rejected(self):
        data = build_paper_database()
        rule = parse_rule("if context Course * Course_1 ^* then X "
                          "(Course, Course_)")
        with pytest.raises(NotIncremental):
            IncrementalRule(rule, Universe(data.db))

    def test_braces_rejected(self):
        data = build_paper_database()
        rule = parse_rule("if context {Grad} * Advising then X (Grad)")
        with pytest.raises(NotIncremental):
            IncrementalRule(rule, Universe(data.db))

    def test_aggregation_rejected(self):
        data = build_paper_database()
        rule = parse_rule(
            "if context Department * Course * Section * Student "
            "where COUNT(Student by Course) > 3 then X (Course)")
        with pytest.raises(NotIncremental):
            IncrementalRule(rule, Universe(data.db))

    def test_derived_source_rejected(self):
        data = build_paper_database()
        rule = parse_rule("if context Department * Suggest_offer:Course "
                          "then X (Department)")
        with pytest.raises(NotIncremental):
            IncrementalRule(rule, Universe(data.db))

    def test_plain_chain_accepted(self):
        db, _ = chain_db()
        maintainer(db, RULE_ABC)


class TestDeltaSemantics:
    def test_associate_adds_matches(self):
        db, o = chain_db()
        inc = maintainer(db, RULE_ABC)
        assert inc.rows == set()
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        assert inc.rows == {(o["a0"].oid, o["b0"].oid, o["c0"].oid)}
        assert inc.rows == fresh_rows(db, RULE_ABC)

    def test_dissociate_removes_matches(self):
        db, o = chain_db()
        inc = maintainer(db, RULE_ABC)
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        db.dissociate(o["a0"], "ab", o["b0"])
        assert inc.rows == set()

    def test_delete_removes_matches(self):
        db, o = chain_db()
        inc = maintainer(db, RULE_ABC)
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        db.delete(o["b0"].oid)
        assert inc.rows == set()
        assert inc.rows == fresh_rows(db, RULE_ABC)

    def test_new_link_fans_out(self):
        db, o = chain_db()
        inc = maintainer(db, RULE_ABC)
        db.associate(o["b0"], "bc", o["c0"])
        db.associate(o["b0"], "bc", o["c1"])
        db.associate(o["a0"], "ab", o["b0"])  # one event, two matches
        assert len(inc.rows) == 2
        assert inc.rows == fresh_rows(db, RULE_ABC)

    def test_intra_class_condition_respected(self):
        text = "if context A * B [n >= 2] * C then X (A, C)"
        db, o = chain_db()
        inc = maintainer(db, text)
        db.associate(o["a0"], "ab", o["b1"])   # n=1: filtered
        db.associate(o["b1"], "bc", o["c0"])
        db.associate(o["a0"], "ab", o["b2"])   # n=2: kept
        db.associate(o["b2"], "bc", o["c0"])
        assert inc.rows == fresh_rows(db, text)
        assert all(row[1] == o["b2"].oid for row in inc.rows)

    def test_set_attribute_moves_object_in_and_out(self):
        text = "if context A * B [n >= 2] * C then X (A, C)"
        db, o = chain_db()
        inc = maintainer(db, text)
        db.associate(o["a0"], "ab", o["b1"])
        db.associate(o["b1"], "bc", o["c0"])
        assert inc.rows == set()
        db.set_attribute(o["b1"].oid, "n", 5)     # now passes
        assert inc.rows == fresh_rows(db, text)
        assert len(inc.rows) == 1
        db.set_attribute(o["b1"].oid, "n", 0)     # fails again
        assert inc.rows == set()

    def test_where_comparison_respected(self):
        text = "if context A * B * C where A.n < C.n then X (A, C)"
        db, o = chain_db()
        inc = maintainer(db, text)
        db.associate(o["a2"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c1"])   # a2.n=2 !< c1.n=1
        db.associate(o["b0"], "bc", o["c3"])   # a2.n=2 < c3.n=3
        assert inc.rows == fresh_rows(db, text)
        assert len(inc.rows) == 1

    def test_complement_edge_roles_swap(self):
        text = "if context A ! B then X (A, B)"
        db, o = chain_db()
        inc = maintainer(db, text)
        assert len(inc.rows) == 16  # 4x4, nothing associated
        db.associate(o["a0"], "ab", o["b0"])    # removes one complement
        assert len(inc.rows) == 15
        assert inc.rows == fresh_rows(db, text)
        db.dissociate(o["a0"], "ab", o["b0"])   # restores it
        assert len(inc.rows) == 16
        assert inc.rows == fresh_rows(db, text)

    def test_insert_with_complement_edges(self):
        text = "if context A ! B then X (A, B)"
        db, o = chain_db()
        inc = maintainer(db, text)
        db.insert("B", "b9", n=9)
        assert len(inc.rows) == 20
        assert inc.rows == fresh_rows(db, text)

    def test_single_class_context_tracks_inserts_and_deletes(self):
        text = "if context A [n >= 1] then X (A)"
        db, o = chain_db()
        inc = maintainer(db, text)
        assert len(inc.rows) == 3
        fresh = db.insert("A", "a9", n=9)
        assert len(inc.rows) == 4
        db.delete(fresh.oid)
        assert len(inc.rows) == 3
        assert inc.rows == fresh_rows(db, text)

    def test_batch_replays_sub_events(self):
        db, o = chain_db()
        inc = maintainer(db, RULE_ABC)
        with db.batch():
            db.associate(o["a0"], "ab", o["b0"])
            db.associate(o["b0"], "bc", o["c0"])
            db.associate(o["a1"], "ab", o["b0"])
        assert inc.rows == fresh_rows(db, RULE_ABC)
        assert len(inc.rows) == 2

    def test_identity_edges_supported(self):
        data = build_paper_database()
        text = "if context TA * Teacher * Section then X (TA, Section)"
        inc = maintainer(data.db, text)
        before = set(inc.rows)
        db = data.db
        db.associate(data["ta1"], "teaches", data["s4"])
        assert inc.rows == fresh_rows(db, text)
        assert len(inc.rows) == len(before) + 1


class TestControllerIntegration:
    def _engine(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="incremental")
        engine.add_rule("if context Teacher * Section * Course "
                        "then TC (Teacher, Course)", label="R1")
        engine.refresh()
        return data, engine

    def test_updates_refresh_incrementally(self):
        data, engine = self._engine()
        before_derivations = engine.stats.total_derivations()
        data.db.associate(data["t4"], "teaches", data["s5"])
        assert engine.stats.total_derivations() == before_derivations
        assert engine.stats.incremental_refreshes == 1
        result = engine.query(
            "context TC:Teacher * TC:Course select Teacher[name] title "
            "display")
        assert ("Silva", "Expert Systems") in result.table.rows

    def test_incremental_equals_full(self):
        data, engine = self._engine()
        data.db.associate(data["t4"], "teaches", data["s5"])
        data.db.dissociate(data["t1"], "teaches", data["s2"])
        maintained = engine.universe.get_subdb("TC").patterns
        fresh = engine.derive("TC", force=True).patterns
        assert maintained == fresh

    def test_ineligible_rule_falls_back_to_full(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="incremental")
        engine.add_rule(
            "if context Department * Course * Section * Student "
            "where COUNT(Student by Course) > 39 "
            "then Suggest_offer (Course)", label="R2")
        engine.refresh()
        before = engine.stats.derivations["Suggest_offer"]
        student = data.db.insert("Student", name="x", **{"SS#": "x"})
        data.db.associate(student, "enrolled", data["s5"])
        assert engine.stats.derivations["Suggest_offer"] > before
        assert engine.stats.incremental_refreshes == 0

    def test_post_targets_still_lazy(self):
        from repro.rules.control import EvaluationMode
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="incremental")
        engine.add_rule("if context Teacher * Section then TS "
                        "(Teacher, Section)", label="TS",
                        mode=EvaluationMode.POST_EVALUATED)
        engine.derive("TS")
        data.db.associate(data["t4"], "teaches", data["s5"])
        assert not engine.universe.has_subdb("TS")
        assert engine.is_stale("TS")


    def test_result_controller_delta_maintains_pre_targets(self):
        """Delta maintenance belongs to PRE_EVALUATED itself, not to a
        controller spelling: under the default ``"result"`` controller
        an eligible pre-evaluated target is maintained, not re-derived."""
        from repro.rules.control import EvaluationMode
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="result")
        engine.add_rule("if context Teacher * Section * Course "
                        "then TC (Teacher, Course)", label="R1",
                        mode=EvaluationMode.PRE_EVALUATED)
        engine.refresh()
        before = engine.stats.total_derivations()
        data.db.associate(data["t4"], "teaches", data["s5"])
        assert engine.stats.total_derivations() == before
        assert engine.stats.incremental_refreshes == 1
        maintained = engine.universe.get_subdb("TC").patterns
        assert maintained == engine.derive("TC", force=True).patterns

    def test_removed_rule_leaves_no_maintainer_behind(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="incremental")
        engine.add_rule("if context Teacher * Section then TS (Teacher)",
                        label="a")
        engine.add_rule("if context Teacher[degree = 'PhD'] "
                        "then TS (Teacher)", label="b")
        engine.refresh()
        data.db.associate(data["t2"], "teaches", data["s6"])
        engine.remove_rule("b")
        engine.derive("TS")
        data.db.associate(data["t1"], "teaches", data["s6"])
        maintained = engine.universe.get_subdb("TS").patterns
        assert maintained == engine.derive("TS", force=True).patterns


class TestIncrementalProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("link_ab"), st.integers(0, 3),
                      st.integers(0, 3)),
            st.tuples(st.just("link_bc"), st.integers(0, 3),
                      st.integers(0, 3)),
            st.tuples(st.just("set_n"), st.integers(0, 3),
                      st.integers(0, 9)),
        ), min_size=0, max_size=20))
    def test_incremental_always_equals_fresh(self, ops):
        text = "if context A * B [n >= 2] * C where A.n < C.n then X (A, C)"
        db, o = chain_db()
        inc = maintainer(db, text)
        linked = {"ab": set(), "bc": set()}
        for op in ops:
            if op[0] == "link_ab":
                _, i, j = op
                src, dst = o[f"a{i}"], o[f"b{j}"]
                if (i, j) in linked["ab"]:
                    db.dissociate(src, "ab", dst)
                    linked["ab"].discard((i, j))
                else:
                    db.associate(src, "ab", dst)
                    linked["ab"].add((i, j))
            elif op[0] == "link_bc":
                _, i, j = op
                src, dst = o[f"b{i}"], o[f"c{j}"]
                if (i, j) in linked["bc"]:
                    db.dissociate(src, "bc", dst)
                    linked["bc"].discard((i, j))
                else:
                    db.associate(src, "bc", dst)
                    linked["bc"].add((i, j))
            else:
                _, i, value = op
                db.set_attribute(o[f"b{i}"].oid, "n", value)
            assert inc.rows == fresh_rows(db, text)


def delta_maintainer(db, text):
    """A maintainer whose listener checks that every ``on_event`` return
    is exactly the pair ``(after - before, before - after)`` of its
    match set."""
    universe = Universe(db)
    rule = parse_rule(text)
    inc = IncrementalRule(rule, universe)
    inc.initialize()
    deltas = []

    def listener(event):
        before = set(inc.rows)
        delta = inc.on_event(event)
        after = set(inc.rows)
        assert delta == (after - before, before - after), \
            f"{event.kind.name} returned {delta}"
        deltas.append(delta)

    db.add_listener(listener)
    return inc, deltas


class TestChangeFlags:
    """``on_event`` returns the net change of the match set."""

    def test_duplicate_associate_reports_no_change(self):
        db, o = chain_db()
        inc, deltas = delta_maintainer(db, RULE_ABC)
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        assert deltas[-1] == ({(o["a0"].oid, o["b0"].oid, o["c0"].oid)},
                              set())
        db.associate(o["a0"], "ab", o["b0"])   # re-link: same state
        assert deltas[-1] == (set(), set())
        assert inc.rows == fresh_rows(db, RULE_ABC)

    def test_irrelevant_link_reports_no_change(self):
        db, o = chain_db()
        inc, deltas = delta_maintainer(db, RULE_ABC)
        db.associate(o["b0"], "bc", o["c0"])   # no A attached: no match
        assert deltas[-1] == (set(), set())
        assert inc.rows == set()

    def test_membership_preserving_set_attribute(self):
        db, o = chain_db()
        inc, deltas = delta_maintainer(db, RULE_ABC)
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        db.set_attribute(o["b0"].oid, "n", 7)  # no condition involved
        assert deltas[-1] == (set(), set())
        assert inc.rows == fresh_rows(db, RULE_ABC)

    def test_equal_size_swap_reports_change(self):
        """A SET_ATTRIBUTE replacing one match with another leaves the
        count unchanged; the delta names both rows."""
        text = "if context A * B where A.n = B.n then X (A, B)"
        db, o = chain_db()
        db.associate(o["a1"], "ab", o["b1"])
        db.associate(o["a1"], "ab", o["b2"])
        inc, deltas = delta_maintainer(db, text)
        assert inc.rows == {(o["a1"].oid, o["b1"].oid)}
        db.set_attribute(o["a1"].oid, "n", 2)
        assert deltas[-1] == ({(o["a1"].oid, o["b2"].oid)},
                              {(o["a1"].oid, o["b1"].oid)})
        assert inc.rows == fresh_rows(db, text)

    def test_every_event_kind_returns_its_delta(self):
        from repro.model import evolution
        text = "if context A ! B * C then X (A, C)"
        db, o = chain_db()
        db.associate(o["b0"], "bc", o["c0"])
        db.associate(o["b1"], "bc", o["c1"])
        inc, deltas = delta_maintainer(db, text)
        db.associate(o["a0"], "ab", o["b0"])          # removes rows
        assert deltas[-1][1] and not deltas[-1][0]
        db.dissociate(o["a0"], "ab", o["b0"])         # restores them
        assert deltas[-1][0] and not deltas[-1][1]
        db.associate(o["b2"], "bc", o["c2"])          # adds rows
        fresh = db.insert("A", "a9", n=9)             # complement seeds
        assert len(deltas[-1][0]) == 3
        db.set_attribute(fresh.oid, "n", 1)           # no condition
        assert deltas[-1] == (set(), set())
        db.delete(o["b1"].oid)                        # removes rows
        assert len(deltas[-1][1]) == 5
        missing = next(iter(inc.rows))
        inc.rows.discard(missing)                     # drifted state
        evolution.rename_attribute(db, "C", "n", "m")  # SCHEMA: re-init
        assert deltas[-1] == ({missing}, set())
        assert inc.rows == fresh_rows(db, text)
        assert len(deltas) == 7

    def test_uninitialized_maintainer_reports_every_row_added(self):
        db, o = chain_db()
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        inc = IncrementalRule(parse_rule(RULE_ABC), Universe(db))
        events = []
        db.add_listener(events.append)
        db.associate(o["a1"], "ab", o["b0"])
        added, removed = inc.on_event(events[-1])
        assert added == fresh_rows(db, RULE_ABC) and len(added) == 2
        assert removed == set()

    def test_batch_insert_then_delete_nets_to_nothing(self):
        db, o = chain_db()
        inc, deltas = delta_maintainer(db, "if context A * B then X (A)")
        with db.batch():
            fresh = db.insert("A", "a9", n=9)
            db.associate(fresh, "ab", o["b0"])
            db.delete(fresh.oid)
        assert deltas[-1] == (set(), set())
        assert inc.rows == fresh_rows(db, "if context A * B then X (A)")

    def test_batch_relinking_an_existing_pair_nets_to_nothing(self):
        db, o = chain_db()
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        inc, deltas = delta_maintainer(db, RULE_ABC)
        with db.batch():
            db.dissociate(o["a0"], "ab", o["b0"])
            db.associate(o["a0"], "ab", o["b0"])
        assert deltas[-1] == (set(), set())
        assert inc.rows == {(o["a0"].oid, o["b0"].oid, o["c0"].oid)}


def _indexed(inc):
    """The maintainer's ``object -> rows`` index as it must be: built
    from its match set."""
    by_oid = {}
    for row in inc.rows:
        for oid in row:
            by_oid.setdefault(oid, set()).add(row)
    return by_oid


class TestRowIndex:
    """A DELETE, SET_ATTRIBUTE or DISSOCIATE reads the rows holding its
    object from a per-object index instead of scanning the match set;
    every path that changes the set keeps the index in step."""

    def test_index_tracks_the_match_set_through_every_event(self):
        text = "if context A * B [n >= 1] * C then X (A, C)"
        db, o = chain_db()
        inc = maintainer(db, text)
        steps = [
            lambda: db.associate(o["a0"], "ab", o["b1"]),
            lambda: db.associate(o["a1"], "ab", o["b1"]),
            lambda: db.associate(o["b1"], "bc", o["c0"]),
            lambda: db.associate(o["b1"], "bc", o["c2"]),
            lambda: db.set_attribute(o["b1"].oid, "n", 3),   # kept
            lambda: db.set_attribute(o["b1"].oid, "n", 0),   # dropped
            lambda: db.set_attribute(o["b1"].oid, "n", 2),   # back
            lambda: db.dissociate(o["a0"], "ab", o["b1"]),
            lambda: db.delete(o["c2"].oid),
        ]
        for step in steps:
            step()
            assert inc.rows == fresh_rows(db, text)
            assert inc._by_oid == _indexed(inc)
        inc.invalidate()
        assert inc._by_oid == {}
        inc.initialize()
        assert inc._by_oid == _indexed(inc)

    def test_delete_after_a_membership_preserving_write(self):
        # The SET_ATTRIBUTE removes and re-adds b0's rows; the DELETE
        # then finds them only through the index.
        db, o = chain_db()
        inc = maintainer(db, RULE_ABC)
        db.associate(o["a0"], "ab", o["b0"])
        db.associate(o["b0"], "bc", o["c0"])
        db.set_attribute(o["b0"].oid, "n", 7)
        db.delete(o["b0"].oid)
        assert inc.rows == set() == fresh_rows(db, RULE_ABC)


class TestWhereKeepsErrors:
    TEXT = "if context A * B where C.n > 0 then X (A)"

    def test_unknown_reference_raises_like_evaluator(self):
        from repro.errors import OQLSemanticError
        db, o = chain_db()
        inc = maintainer(db, self.TEXT)     # empty set: no rows checked
        with pytest.raises(OQLSemanticError) as incremental_error:
            db.associate(o["a0"], "ab", o["b0"])
        with pytest.raises(OQLSemanticError) as evaluator_error:
            fresh_rows(db, self.TEXT)
        assert str(incremental_error.value) == str(evaluator_error.value)
        assert "not a context class" in str(incremental_error.value)

    def test_ambiguous_reference_raises(self):
        from repro.errors import OQLSemanticError
        from repro.oql.evaluator import resolve_slot_index
        from repro.subdb.refs import ClassRef
        slots = [ClassRef("A", alias=1), ClassRef("A", alias=2)]
        with pytest.raises(OQLSemanticError, match="ambiguous"):
            resolve_slot_index(slots, ClassRef("A"))

    def test_unqualified_reference_raises(self):
        # The parser rejects unqualified where attributes; the runtime
        # guard covers programmatically built conditions.
        from repro.errors import OQLSemanticError
        from repro.oql.ast import AttrRef, Comparison, Literal
        db, o = chain_db()
        db.associate(o["a0"], "ab", o["b0"])
        rule = parse_rule("if context A * B then X (A)")
        object.__setattr__(
            rule, "where",
            (Comparison(AttrRef("n"), ">", Literal(0)),))
        inc = IncrementalRule(rule, Universe(db))
        inc.rows = {(o["a0"].oid, o["b0"].oid)}
        inc._initialized = True
        with pytest.raises(OQLSemanticError, match="must be qualified"):
            inc._where_keeps((o["a0"].oid, o["b0"].oid))


class TestControllerSkipsNoOps:
    def _engine(self):
        data = build_paper_database()
        engine = RuleEngine(data.db, controller="incremental")
        engine.add_rule("if context Teacher * Section then TS "
                        "(Teacher, Section)", label="TS")
        engine.add_rule("if context TS:Teacher then TT (Teacher)",
                        label="TT")
        engine.refresh()
        return data, engine

    def test_noop_event_keeps_stored_results(self):
        data, engine = self._engine()
        # Warm up the lazily-created maintainers (the first event after
        # creation conservatively counts as a change).
        data.db.associate(data["t1"], "teaches", data["s2"])
        before_tt = engine.stats.derivations["TT"]
        before_refreshes = engine.stats.incremental_refreshes
        # Re-associating an existing link emits ASSOCIATE but changes
        # nothing: both targets keep their stored values untouched.
        data.db.associate(data["t1"], "teaches", data["s2"])
        assert engine.stats.incremental_refreshes == before_refreshes
        assert engine.stats.derivations["TT"] == before_tt
        assert engine.stats.refreshes_skipped >= 2
        assert engine.universe.has_subdb("TS")
        assert engine.universe.has_subdb("TT")
        assert not engine.is_stale("TS")
        assert not engine.is_stale("TT")

    @pytest.mark.parametrize("controller", ["result", "incremental"])
    def test_first_event_emptying_the_match_set_is_a_change(
            self, controller):
        """A lazily created maintainer has no previous match set to diff
        against, so its first event counts as a change even when it
        leaves the set empty: the stored result came from derive()."""
        from repro.rules.control import EvaluationMode
        data = build_paper_database()
        engine = RuleEngine(data.db, controller=controller)
        engine.add_rule("if context Teacher[name = 'Smith'] "
                        "then T (Teacher)", label="T",
                        mode=EvaluationMode.PRE_EVALUATED)
        engine.refresh()
        assert len(engine.universe.get_subdb("T").patterns) == 1
        data.db.delete(data["t1"].oid)
        maintained = engine.universe.get_subdb("T").patterns
        assert maintained == engine.derive("T", force=True).patterns
        assert not maintained

    @pytest.mark.parametrize("controller", ["result", "incremental"])
    def test_schema_event_emptying_the_match_set_is_a_change(
            self, controller):
        """A SCHEMA event drops the maintainers; the fresh ones it
        builds must not mistake an emptied match set for no change."""
        from repro.model import evolution
        from repro.rules.control import EvaluationMode
        schema = Schema()
        schema.add_eclass("P")
        schema.add_eclass("Q")
        schema.add_subclass("P", "Q")
        db = Database(schema)
        db.insert("Q", "q0")
        engine = RuleEngine(db, controller=controller)
        engine.add_rule("if context P then T (P)", label="T",
                        mode=EvaluationMode.PRE_EVALUATED)
        engine.refresh()
        assert len(engine.universe.get_subdb("T").patterns) == 1
        evolution.drop_subclass(db, "P", "Q")
        maintained = engine.universe.get_subdb("T").patterns
        assert maintained == engine.derive("T", force=True).patterns
        assert not maintained

    def test_real_change_still_propagates(self):
        data, engine = self._engine()
        before_tt = engine.stats.derivations["TT"]
        data.db.associate(data["t4"], "teaches", data["s5"])
        assert engine.stats.incremental_refreshes >= 1
        assert engine.stats.derivations["TT"] > before_tt
        assert ("t4", "s5") in engine.universe.get_subdb("TS").labels()


class TestDifferentialStreams:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("link_ab"), st.integers(0, 3),
                      st.integers(0, 3)),
            st.tuples(st.just("link_bc"), st.integers(0, 3),
                      st.integers(0, 3)),
            st.tuples(st.just("relink"), st.integers(0, 3),
                      st.integers(0, 3)),
            st.tuples(st.just("set_a"), st.integers(0, 3),
                      st.integers(0, 4)),
            st.tuples(st.just("set_c"), st.integers(0, 3),
                      st.integers(0, 4)),
        ), min_size=0, max_size=25))
    def test_flags_and_rows_track_fresh_derivation(self, ops):
        """Random streams including no-op re-associates and
        equal-size-preserving attribute flips: the maintained set always
        equals a fresh derivation, and every returned delta is exact
        (asserted inside the checking listener)."""
        text = "if context A * B * C where A.n < C.n then X (A, C)"
        db, o = chain_db()
        inc, _deltas = delta_maintainer(db, text)
        linked = {"ab": set(), "bc": set()}
        for op in ops:
            kind = op[0]
            if kind in ("link_ab", "link_bc"):
                _, i, j = op
                name = kind.split("_")[1]
                src = o[f"{name[0]}{i}"]
                dst = o[f"{name[1]}{j}"]
                if (i, j) in linked[name]:
                    db.dissociate(src, name, dst)
                    linked[name].discard((i, j))
                else:
                    db.associate(src, name, dst)
                    linked[name].add((i, j))
            elif kind == "relink":
                _, i, j = op
                if (i, j) in linked["ab"]:   # duplicate: no-op event
                    db.associate(o[f"a{i}"], "ab", o[f"b{j}"])
            elif kind == "set_a":
                _, i, value = op
                db.set_attribute(o[f"a{i}"].oid, "n", value)
            else:
                _, i, value = op
                db.set_attribute(o[f"c{i}"].oid, "n", value)
            assert inc.rows == fresh_rows(db, text)
