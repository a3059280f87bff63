"""Tombstoned dense ids: a DELETE marks one id dead instead of
renumbering every intern table, value index and CSR row above it.

The state machine interleaves inserts, deletes (single ones and a purge
that crosses the compaction threshold), attribute writes, associate and
dissociate with pins taken before and after deletes and with results
held across later writes.  Every view must equal the set-based
(``compact=False``) evaluator at its version: the live engine now, each
pin at its pin, each held result at the moment it was produced — for
every ``=``/``!=``/range probe, ``!`` chain, ``^*`` loop and COUNT
below, in ``describe()``, the rendered text, the ``include: ["subdb"]``
document and the decoded labels.

The unit tests after it pin each place a dead id could leak out of the
compact layer, one test per place.
"""

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import QueryProcessor, RuleEngine, Universe
from repro.model.database import Database
from repro.model.dclass import INTEGER, STRING
from repro.model.schema import Schema
from repro.rules.control import EvaluationMode
from repro.storage.serialize import subdatabase_to_dict
from repro.subdb.refs import ClassRef

QUERIES = [
    "context Member",
    "context Lead",
    "context Member[level = 3]",
    "context Member[level != 3]",
    "context Member[level > 2]",
    "context Member[tag = 'a']",
    "context Member[tag != 'a']",
    "context Member[tag != 'absent']",
    "context Team * Member",
    "context Skill * Member * Team",
    "context Team * Member[level >= 2] * Skill",
    "context Team ! Member",
    "context Team ! Member[level > 2]",
    "context Member ! Skill",
    "context Member * Member_1 ^*",
    "context Team * Member where COUNT(Member by Team) > 1",
]

RULES = [
    ("if context Team * Member * Skill then Staffing (Team, Skill)",
     "Staffing"),
    ("if context Team ! Member * Skill then Unstaffed (Team, Skill)",
     "Unstaffed"),
]


def build_schema() -> Schema:
    schema = Schema("tombstones")
    for cls in ("Team", "Member", "Lead", "Skill"):
        schema.add_eclass(cls)
    schema.add_subclass("Member", "Lead")
    schema.add_attribute("Team", "name", STRING)
    schema.add_attribute("Member", "level", INTEGER)
    schema.add_attribute("Member", "tag", STRING)
    schema.add_attribute("Skill", "name", STRING)
    schema.add_association("Team", "Member", name="members", many=True)
    schema.add_association("Member", "Skill", name="skills", many=True)
    schema.add_association("Member", "Member", name="mentors", many=True)
    return schema


def dump(result):
    """Every face of a result, the undecoded ones first (reading
    ``.patterns`` decodes a compact result for good)."""
    subdb = result.subdatabase
    return (subdb.describe(),
            json.dumps(subdatabase_to_dict(subdb), sort_keys=True),
            result.render(),
            sorted(map(str, subdb.labels())))


def oracle(db: Database):
    """The set-based executor over a universe of its own."""
    processor = QueryProcessor(Universe(db), compact=False)
    return [dump(processor.execute(text, name="q")) for text in QUERIES]


def live_engine(db: Database) -> RuleEngine:
    engine = RuleEngine(db, controller="incremental")
    for attr in ("level", "tag"):
        engine.universe.declare_index("Member", attr)
    for text, _ in RULES:
        engine.add_rule(text, mode=EvaluationMode.PRE_EVALUATED)
    return engine


class TombstoneMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = Database(build_schema())
        self.engine = live_engine(self.db)
        self.reference = RuleEngine(self.db, compact=False)
        for text, _ in RULES:
            self.reference.add_rule(text)
        self.pins = []
        self.held = []
        self.labels = 0

    # -- helpers ---------------------------------------------------------

    def _live(self, cls):
        return sorted(self.db.extent(cls), key=lambda oid: oid.value)

    def _pick(self, cls, i):
        live = self._live(cls)
        return live[i % len(live)] if live else None

    def _label(self, prefix):
        self.labels += 1
        return f"{prefix}{self.labels}"

    # -- writes ----------------------------------------------------------

    @initialize()
    def populate(self):
        """Tables large enough to hold tombstones for a while before the
        store compacts them (dead ids reaching the live count)."""
        db = self.db
        members = [db.insert("Lead" if k % 4 == 0 else "Member",
                             self._label("m"), level=k % 5,
                             **({"tag": "ab"[k % 2]} if k % 3 else {}))
                   for k in range(12)]
        teams = [db.insert("Team", self._label("t"), name=f"T{k}")
                 for k in range(3)]
        skills = [db.insert("Skill", self._label("s"), name=f"S{k}")
                  for k in range(3)]
        for k, member in enumerate(members):
            db.associate(teams[k % 3], "members", member)
            db.associate(member, "skills", skills[k % 3])
            if k:
                db.associate(members[k // 2], "mentors", member)

    @rule(level=st.integers(0, 4), tag=st.sampled_from(["a", "b", None]),
          lead=st.booleans())
    def insert_member(self, level, tag, lead):
        attrs = {"level": level}
        if tag is not None:
            attrs["tag"] = tag
        self.db.insert("Lead" if lead else "Member", self._label("m"),
                       **attrs)

    @rule()
    def insert_team(self):
        self.db.insert("Team", self._label("t"), name=self._label("T"))

    @rule()
    def insert_skill(self):
        self.db.insert("Skill", self._label("s"), name=self._label("S"))

    @rule(i=st.integers(0, 30), level=st.integers(0, 4))
    def set_level(self, i, level):
        member = self._pick("Member", i)
        if member is not None:
            self.db.set_attribute(member, "level", level)

    @rule(i=st.integers(0, 30), j=st.integers(0, 30))
    def toggle_membership(self, i, j):
        self._toggle("Team", "members", "Member", i, j)

    @rule(i=st.integers(0, 30), j=st.integers(0, 30))
    def toggle_skill(self, i, j):
        self._toggle("Member", "skills", "Skill", i, j)

    @rule(i=st.integers(0, 30), j=st.integers(0, 30))
    def toggle_mentor(self, i, j):
        a, b = self._pick("Member", i), self._pick("Member", j)
        if a is None or a.value >= b.value:
            return  # mentoring only runs up the OIDs: no cycles
        self._toggle_pair(a, "mentors", b)

    def _toggle(self, owner_cls, name, target_cls, i, j):
        owner, target = self._pick(owner_cls, i), self._pick(target_cls, j)
        if owner is not None and target is not None:
            self._toggle_pair(owner, name, target)

    def _toggle_pair(self, owner, name, target):
        link = next(link for link in self.db.schema.aggregations()
                    if link.name == name)
        if target in self.db.linked(owner, link):
            self.db.dissociate(owner, name, target)
        else:
            self.db.associate(owner, name, target)

    @rule(cls=st.sampled_from(["Member", "Team", "Skill"]),
          i=st.integers(0, 30))
    def delete(self, cls, i):
        victim = self._pick(cls, i)
        if victim is not None:
            self.db.delete(victim)

    @rule()
    def purge(self):
        """Delete two members of every three: the Member table's dead
        ids reach its live count, and the store compacts it."""
        for victim in self._live("Member")[::3] + self._live("Member")[1::3]:
            if self.db.has(victim):
                self.db.delete(victim)

    # -- views -----------------------------------------------------------

    @rule()
    def pin(self):
        self.pins.append((self.engine.snapshot_session(), oracle(self.db)))

    @precondition(lambda self: self.pins)
    @rule(i=st.integers(0, 10))
    def close_pin(self, i):
        session, _ = self.pins.pop(i % len(self.pins))
        session.universe.close()

    @rule(q=st.integers(0, len(QUERIES) - 1))
    def hold(self, q):
        result = self.engine.query(QUERIES[q], name="q")
        self.held.append((result, oracle(self.db)[q]))

    # -- invariants ------------------------------------------------------

    @invariant()
    def live_equals_oracle(self):
        got = [dump(self.engine.query(text, name="q")) for text in QUERIES]
        assert got == oracle(self.db)

    @invariant()
    def pins_equal_oracle_at_their_version(self):
        for session, expected in self.pins:
            assert [dump(session.execute(text, name="q"))
                    for text in QUERIES] \
                == expected

    @invariant()
    def held_results_keep_their_version(self):
        for result, expected in self.held:
            assert dump(result) == expected

    @invariant()
    def maintained_equals_reference(self):
        for _, target in RULES:
            maintained = self.engine.universe.get_subdb(target).patterns
            fresh = self.reference.derive(target, force=True).patterns
            assert maintained == fresh, target

    def teardown(self):
        for session, _ in self.pins:
            session.universe.close()


TombstoneMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)

TestTombstoneMachine = TombstoneMachine.TestCase


# ----------------------------------------------------------------------
# One test per place a dead id could leave the compact layer
# ----------------------------------------------------------------------


class Fixture:
    """Six members on four teams (t0 holds m0 and m4), three skills, a
    mentor chain m0 -> m1 -> ... -> m5, and an engine that has built
    every structure."""

    def __init__(self):
        self.db = db = Database(build_schema())
        self.members = [db.insert("Member", f"m{k}", level=k % 3,
                                  tag="ab"[k % 2]).oid for k in range(6)]
        self.teams = [db.insert("Team", f"t{k}", name=f"T{k}").oid
                      for k in range(4)]
        self.skills = [db.insert("Skill", f"s{k}", name=f"S{k}").oid
                       for k in range(3)]
        for k, member in enumerate(self.members):
            db.associate(self.teams[k % 4], "members", member)
            db.associate(member, "skills", self.skills[k % 2])
            if k:
                db.associate(self.members[k - 1], "mentors", member)
        self.engine = live_engine(db)
        for text in QUERIES:
            self.engine.query(text, name="q")

    def table(self, cls="Member"):
        return self.engine.universe.intern_table(ClassRef(cls))

    def check(self, *texts):
        """Each query equals the set-based evaluator, in every face."""
        reference = QueryProcessor(Universe(self.db), compact=False)
        for text in texts:
            assert dump(self.engine.query(text, name="q")) \
                == dump(reference.execute(text, name="q")), text


class TestTombstones:
    def test_dense_ids_survive_another_objects_delete(self):
        f = Fixture()
        table = f.table()
        ids = {m: table.encode(m) for m in f.members}
        victim = f.members[2]
        f.db.delete(victim)
        assert f.table() is table
        assert table.dead == {ids[victim]}
        for oid, i in ids.items():
            assert table.oids[i] is oid     # every id still decodes
            if oid is not victim:
                assert table.encode(oid) == i
        assert table.encode(victim) is None
        assert table.live_count == 5 and len(table) == 6
        assert f.engine.universe.compact.indexes_remapped == 0

    def test_unfiltered_anchor_skips_dead_ids(self):
        f = Fixture()
        f.db.delete(f.members[0])
        f.check("context Member", "context Member * Skill")

    def test_unfiltered_slot_with_dead_ids_needs_no_filter(self):
        """A slot whose condition kept every live member is unfiltered,
        tombstones or not: equal *live* counts, not physical ones."""
        f = Fixture()
        f.db.delete(f.members[0])
        ref = ClassRef("Member")
        evaluator = f.engine.processor.evaluator
        assert evaluator._filtered_ids([f.engine.universe.extent(ref)],
                                       [f.table()]) == [None]

    def test_full_id_set_skips_dead_ids(self):
        f = Fixture()
        table = f.table()
        dead = table.encode(f.members[3])
        f.db.delete(f.members[3])
        assert table.full_id_set == frozenset(range(6)) - {dead}
        assert list(table.live_ids()) == sorted(table.full_id_set)

    def test_bang_complements_skip_dead_ids(self):
        f = Fixture()
        f.db.delete(f.members[1])
        f.check("context Team ! Member", "context Member ! Skill",
                "context Team ! Member[level > 0]")

    def test_value_index_complements_skip_dead_ids(self):
        f = Fixture()
        f.db.delete(f.members[2])
        index = f.engine.universe.attr_index(ClassRef("Member"), "tag")
        assert index.cardinality("!=", "a") == 3
        assert index.stats()["rows"] == 5
        f.check("context Member[tag != 'a']",
                "context Member[tag != 'absent']",
                "context Member[level != 0]")

    def test_csr_gather_skips_dead_targets(self):
        """Team t0's CSR row still lists the dead member's id; the
        gather from a selective Team anchor must mask it."""
        f = Fixture()
        f.db.delete(f.members[4])
        f.check("context Team[name = 'T0'] * Member",
                "context Team[name = 'T0'] * Member * Skill")

    def test_loop_expansion_skips_dead_targets(self):
        f = Fixture()
        f.db.delete(f.members[3])
        f.check("context Member * Member_1 ^*",
                "context Member[level = 0] * Member_1 ^*")

    def test_incremental_expansion_skips_dead_ids(self):
        """New skill links make both maintainers expand back to the
        teams through the Member -> Team CSR, whose row for m0 still
        holds t0's dead id (``*``), and across ``!`` from m1 against the
        Team table's live ids."""
        f = Fixture()
        reference = RuleEngine(f.db, compact=False)
        for text, _ in RULES:
            reference.add_rule(text)
        universe = f.engine.universe
        team, member = ClassRef("Team"), ClassRef("Member")
        # No query plan above crosses the edge in this direction.
        universe.adjacency(universe.resolve_edge(team, member), False,
                           member, team)
        for _, target in RULES:     # maintained from here on by deltas
            universe.get_subdb(target)
        f.db.delete(f.teams[0])
        for member in f.members[:2]:
            f.db.associate(member, "skills", f.skills[2])
        assert f.engine.stats.incremental_refreshes
        for _, target in RULES:
            assert universe.get_subdb(target).patterns \
                == reference.derive(target, force=True).patterns, target

    def test_held_result_keeps_its_version(self):
        """Rows interned before a DELETE render and decode as they were
        produced: the victim included, nothing purged or rebuilt."""
        f = Fixture()
        before = {text: f.engine.query(text, name="q")
                  for text in ("context Member", "context Team * Member")}
        expected = {text: dump(QueryProcessor(
            Universe(f.db), compact=False).execute(text, name="q"))
            for text in before}
        built = f.engine.universe.compact.tables_built
        f.db.delete(f.members[4])
        for text, result in before.items():
            assert dump(result) == expected[text]
        assert f.engine.universe.compact.tables_built == built

    def test_lent_table_forks_only_its_tombstones(self):
        f = Fixture()
        pin = f.engine.snapshot_session()
        pinned = pin.universe.intern_table(ClassRef("Member"))
        expected = [dump(pin.execute(text, name="q")) for text in QUERIES]
        f.db.delete(f.members[1])
        live = f.table()
        assert live is not pinned and not pinned.dead
        assert live.oids is pinned.oids and live.index is pinned.index
        assert [dump(pin.execute(text, name="q"))
                for text in QUERIES] == expected
        f.db.insert("Member", "late", level=1)   # copies the columns now
        assert live.oids is not pinned.oids and len(pinned) == 6
        pin.universe.close()
        f.check(*QUERIES)

    def test_compaction_once_dead_ids_reach_live_count(self):
        f = Fixture()
        store = f.engine.universe.compact
        old = f.table()
        for member in f.members[:2]:
            f.db.delete(member)
        assert store.compactions == 0 and len(old.dead) == 2
        f.db.delete(f.members[2])           # 3 dead, 3 live
        assert store.compactions == 1
        assert store.stats()["dead_ids"] == 0
        fresh = f.table()
        assert fresh is not old and fresh.layout != old.layout
        assert len(fresh) == fresh.live_count == 3
        f.check(*QUERIES)

    def test_loop_memo_follows_the_id_layout(self):
        """A read inside an open batch block resyncs the store, which
        rebuilds the Member table at an unchanged footprint vector,
        numbering its extent afresh: the loop-body memo stored over the
        tombstoned layout must miss."""
        f = Fixture()
        f.engine.processor.evaluator.result_cache.enabled = True
        f.db.delete(f.members[1])
        f.check("context Member * Member_1 ^*")
        with f.db.batch():
            f.db.insert("Team", "late", name="Late")
            # Another Where: the result cache misses, the memo would not.
            f.check("context Member * Member_1 ^* where Member.level >= 0")
            assert not f.table().dead
