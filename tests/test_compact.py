"""The interned/compact execution engine, tested differentially against
the original set-of-OIDs executor (``compact=False``).

Both executors must be observationally identical — same subdatabases,
same intensions, same loop semantics — in the planned join order and in
the left-to-right one; only speed differs.  Byte-level identity is
asserted through the canonical session serializer.
"""

import json
import random
from array import array

import numpy as np
import pytest

from repro import QueryProcessor, RuleEngine, Universe
from repro.errors import CyclicDataError
from repro.model.database import Database
from repro.oql import kernels
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.storage.serialize import subdatabase_to_dict
from repro.university import build_paper_database, build_sdb
from repro.university.schema import build_university_schema
from tests.test_concurrency import _complete_prereq
from tests.test_optimizer import left_to_right


def _prereq_chain(n: int, cyclic: bool = False) -> Database:
    """``n`` courses in a linear prereq chain c{n-1} -> ... -> c0,
    optionally closed into a cycle."""
    db = Database(build_university_schema(), name=f"chain{n}")
    courses = [db.insert("Course", f"c{i}",
                         **{"c#": 1000 + i, "title": f"C{i}",
                            "credit_hours": 3})
               for i in range(n)]
    for i in range(1, n):
        db.associate(courses[i], "prereq", courses[i - 1])
    if cyclic:
        db.associate(courses[0], "prereq", courses[-1])
    return db


def _dump(subdb) -> bytes:
    doc = subdatabase_to_dict(subdb)
    doc["name"] = "_"  # anonymous results carry a per-query counter
    return json.dumps(doc, sort_keys=True).encode()


class TestLoopAliasGeneration:
    """The run-time determined intension: repeated loop slots get
    ``_1, _2, ...`` aliases, one per level actually reached."""

    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_aliases_at_four_levels(self, compact):
        db = _prereq_chain(5)
        qp = QueryProcessor(Universe(db), compact=compact)
        subdb = qp.execute("context Course * Course_1 ^*").subdatabase
        assert subdb.slot_names == (
            "Course", "Course_1", "Course_2", "Course_3", "Course_4")
        # The longest hierarchy is the full chain.
        assert ("c4", "c3", "c2", "c1", "c0") in subdb.labels()

    def test_both_paths_emit_identical_intensions(self):
        db = _prereq_chain(6)
        dumps = [
            _dump(QueryProcessor(Universe(db), compact=compact)
                  .execute("context Course * Course_1 ^*").subdatabase)
            for compact in (True, False)]
        assert dumps[0] == dumps[1]


class TestCycleHandling:
    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_on_cycle_error_raises(self, compact):
        db = _prereq_chain(3, cyclic=True)
        qp = QueryProcessor(Universe(db), compact=compact)
        with pytest.raises(CyclicDataError):
            qp.execute("context Course * Course_1 ^*")

    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_cycle_back_to_the_root_raises_within_the_bound(self, compact):
        # c1 -> c0 -> c1: the second level's only extension of (c1, c0)
        # is the root c1 itself, found at row position 0 — a check of
        # the later root positions alone would let ^2 return
        # (c1, c0, c1).
        db = _prereq_chain(2, cyclic=True)
        qp = QueryProcessor(Universe(db), compact=compact)
        with pytest.raises(CyclicDataError):
            qp.execute("context Course * Course_1 ^2")

    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_on_cycle_stop_truncates(self, compact):
        db = _prereq_chain(3, cyclic=True)
        qp = QueryProcessor(Universe(db), on_cycle="stop",
                            compact=compact)
        subdb = qp.execute("context Course * Course_1 ^*").subdatabase
        # Every hierarchy stops before revisiting its root: rows are
        # bounded by the cycle length and never repeat an instance.
        for row in subdb.labels():
            present = [x for x in row if x is not None]
            assert len(present) == len(set(present))
            assert len(present) <= 3

    def test_stop_results_identical_across_paths(self):
        db = _prereq_chain(4, cyclic=True)
        dumps = [
            _dump(QueryProcessor(Universe(db), on_cycle="stop",
                                 compact=compact)
                  .execute("context Course * Course_1 ^*").subdatabase)
            for compact in (True, False)]
        assert dumps[0] == dumps[1]


class TestBoundedVsUnbounded:
    """``^N`` with N at or past the data's depth equals ``^*`` — the
    loop bottoms out on the data, not the bound."""

    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    @pytest.mark.parametrize("bound", ["^4", "^7"])
    def test_deep_bound_equals_star(self, compact, bound):
        db = _prereq_chain(5)  # longest hierarchy: 4 hops
        qp = QueryProcessor(Universe(db), compact=compact)
        bounded = qp.execute(
            f"context Course * Course_1 {bound}").subdatabase
        star = qp.execute("context Course * Course_1 ^*").subdatabase
        assert _dump(bounded) == _dump(star)

    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_shallow_bound_differs(self, compact):
        qp = QueryProcessor(Universe(_prereq_chain(5)), compact=compact)
        one = qp.execute("context Course * Course_1 ^1").subdatabase
        star = qp.execute("context Course * Course_1 ^*").subdatabase
        assert len(one.slot_names) < len(star.slot_names)


# ---------------------------------------------------------------------------
# Differential: the paper's rules R1-R7 plus the braces query, compact
# vs set-based, in the planned ("cost") and the left-to-right ("naive")
# join order.
# ---------------------------------------------------------------------------

R6_TEXT = ("if context Grad * TA * Teacher * Section * Student * "
           "Grad_1 ^* then Grad_teaching_grad (Grad, Grad_)")
R7_TEXT = ("if context Grad * TA * Teacher * Section * Student * "
           "Grad_1 ^* then First_and_third (Grad, Grad_2)")
BRACES_QUERY = "context {{Grad} * Advising} * Faculty"

TARGETS = ["Teacher_course", "Suggest_offer", "Deps_need_res",
           "May_teach", "Grad_teaching_grad", "First_and_third"]


ORDERS = ["naive", "cost"]


def _paper_engine(compact: bool, order: str) -> RuleEngine:
    data = build_paper_database()
    engine = RuleEngine(data.db, compact=compact)
    engine.universe.register(build_sdb(data))
    if order == "naive":
        left_to_right(engine.evaluator)
        left_to_right(engine.processor.evaluator)
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
    engine.add_rule(R6_TEXT, label="R6")
    engine.add_rule(R7_TEXT, label="R7")
    return engine


class TestDifferentialPaperRules:
    @pytest.mark.parametrize("order", ORDERS)
    def test_rules_byte_identical_across_executors(self, order):
        engines = [_paper_engine(compact, order)
                   for compact in (True, False)]
        for target in TARGETS:
            dumps = [_dump(engine.derive(target)) for engine in engines]
            assert dumps[0] == dumps[1], target

    @pytest.mark.parametrize("order", ORDERS)
    def test_braces_query_byte_identical(self, order):
        dumps = [
            _dump(_paper_engine(compact, order)
                  .query(BRACES_QUERY).subdatabase)
            for compact in (True, False)]
        assert dumps[0] == dumps[1]

    def test_executors_differ_only_in_flag(self):
        fast = _paper_engine(True, "cost")
        slow = _paper_engine(False, "cost")
        assert fast.evaluator.compact and not slow.evaluator.compact


# ---------------------------------------------------------------------------
# Vectorized kernels: fixed expected rows over one hand-built CSR
# ---------------------------------------------------------------------------


def _run_steps(specs, anchor):
    """The evaluator's hop loop, minus tracing and plan bookkeeping:
    ``(rows, per-step (distinct frontier, rows after))``."""
    cols = [kernels.anchor_column(anchor)]
    stats = []
    for spec in specs:
        cols, frontier = kernels.execute_step(cols, spec)
        stats.append((frontier, len(cols[0])))
    return list(zip(*[col.tolist() for col in cols])), stats


class TestKernelRows:
    # CSR over 4 ids: 0->{1,2}, 1->{2}, 2->{}, 3->{0,3}
    OFFSETS = array("q", [0, 2, 3, 3, 5])
    NEIGHBORS = array("q", [1, 2, 2, 0, 3])

    def _spec(self, op="*", tgt_filter=None, forward=True):
        return kernels.StepSpec(op=op, forward=forward,
                                offsets=self.OFFSETS,
                                neighbors=self.NEIGHBORS, tgt_size=4,
                                tgt_filter=tgt_filter)

    def test_star_then_bang_forward(self):
        rows, stats = _run_steps([self._spec("*"), self._spec("!")],
                                 range(4))
        assert rows == [
            (0, 1, 0), (0, 1, 1), (0, 1, 3),
            (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3),
            (1, 2, 0), (1, 2, 1), (1, 2, 2), (1, 2, 3),
            (3, 0, 0), (3, 0, 3),
            (3, 3, 1), (3, 3, 2)]
        assert stats == [(4, 5), (4, 15)]

    def test_filter_respected(self):
        rows, stats = _run_steps([self._spec("*", array("q", [2]))],
                                 range(4))
        assert rows == [(0, 2), (1, 2)]
        assert stats == [(4, 2)]
        rows, stats = _run_steps([self._spec("!", array("q", [0, 3]))],
                                 range(4))
        assert rows == [(0, 0), (0, 3), (1, 0), (1, 3), (2, 0), (2, 3)]
        assert stats == [(4, 6)]

    def test_backward_steps_prepend(self):
        rows, stats = _run_steps(
            [self._spec("*", forward=False),
             self._spec("!", array("q", [1, 3]), forward=False)],
            [3, 0])
        assert rows == [(3, 0, 3), (1, 3, 3), (1, 1, 0), (3, 1, 0),
                        (1, 2, 0), (3, 2, 0)]
        assert stats == [(2, 4), (4, 6)]

    def test_distinct_count_matches_a_set(self):
        """The per-hop frontier statistic, on seeded columns: empty, a
        single end, all-repeated and random mixes of repeats."""
        rng = random.Random(31)
        cases = [np.empty(0, dtype=np.int64), np.array([5]),
                 np.array([2, 2, 2, 2]), np.array([0, 7, 0, 7, 3])]
        for _ in range(300):
            high = rng.choice([1, 3, 50, 1 << 40])
            cases.append(np.array([rng.randrange(high)
                                   for _ in range(rng.randrange(40))],
                                  dtype=np.int64))
        for ends in cases:
            assert kernels.distinct_count(ends) == len(set(ends.tolist()))

    def test_empty_frontier(self):
        for op in ("*", "!"):
            rows, stats = _run_steps([self._spec(op), self._spec(op)], [])
            assert rows == [] and stats == [(0, 0), (0, 0)]
        rows, stats = _run_steps([self._spec("*"), self._spec("!")], [2])
        assert rows == [] and stats == [(1, 0), (0, 0)]


# ---------------------------------------------------------------------------
# Budgeted hops gather in slices
# ---------------------------------------------------------------------------


class CountingBudget(QueryBudget):
    """A budget with a small slice size that counts its clock checks."""

    CHECK_EVERY = 64

    def __init__(self, **limits):
        super().__init__(**limits)
        self.clock_checks = 0

    def check_time(self):
        self.clock_checks += 1
        super().check_time()


class TickingBudget(CountingBudget):
    """A budget whose clock reads one millisecond per clock check, so a
    deadline trips at a chosen check — counted, not timed."""

    @property
    def elapsed_ms(self):
        return float(self.clock_checks)


class TestHopSlicing:
    """A budgeted hop charges rows and checks the clock once per
    ``CHECK_EVERY`` output rows, on a chain, a loop level and a ``!``
    hop alike.  Counted, not timed."""

    CHAIN = "context Course * Course_1"     # one hop of 30 * 29 rows
    LOOP = "context Course * Course_1 ^2"   # level 2: 12 * 11 * 10 rows
    # Over a 40-course prereq chain each course's complement is every
    # course but at most one: 40 * 39 + 1 rows.
    BANG = "context Course ! Course_1"

    def _run(self, n, text, budget):
        db = _prereq_chain(n) if "!" in text else _complete_prereq(n)
        qp = QueryProcessor(Universe(db), on_cycle="stop")
        return qp.execute(text, budget=budget).subdatabase

    @pytest.mark.parametrize("n, text, limit", [(30, CHAIN, 100),
                                                (12, LOOP, 200),
                                                (40, BANG, 100)],
                             ids=["chain", "loop", "bang"])
    def test_max_rows_trips_within_one_slice(self, n, text, limit):
        budget = CountingBudget(max_rows=limit)
        with pytest.raises(BudgetExceeded) as exc:
            self._run(n, text, budget)
        assert exc.value.verdict == "max_rows"
        assert limit < exc.value.rows <= limit + budget.CHECK_EVERY

    @pytest.mark.parametrize("n, text, charged, result",
                             [(30, CHAIN, 870, 870),
                              (12, LOOP, 132 + 1320, 1320)],
                             ids=["chain", "loop"])
    def test_clock_checked_per_slice(self, n, text, charged, result):
        budget = CountingBudget(max_rows=10 ** 6)
        assert len(self._run(n, text, budget)) == result
        assert budget.rows_charged == charged
        assert budget.clock_checks >= charged // budget.CHECK_EVERY

    def test_deadline_trips_while_complements_are_built(self):
        """A ``!`` hop checks the clock as it builds its endpoints'
        complement runs — work that is not charged as rows — so a
        deadline trips before the last run is built, with nothing
        gathered yet.  Each of the 40 endpoints of a prereq chain has a
        complement of 38 or 39 courses, so the 64-entry check falls
        after the second endpoint."""
        n = 40
        offsets = array("q", [0])
        neighbors = array("q")
        for i in range(n):              # course i links to course i - 1
            if i:
                neighbors.append(i - 1)
            offsets.append(len(neighbors))
        spec = kernels.StepSpec("!", True, offsets, neighbors, n)
        cols = [kernels.anchor_column(range(n))]
        # Check 1 is the hop's entry check; check 2 trips.
        budget = TickingBudget(deadline_ms=1.0).start()
        with pytest.raises(BudgetExceeded) as exc:
            kernels.execute_step(cols, spec, budget)
        assert exc.value.verdict == "deadline"
        assert exc.value.rows == 0 and budget.clock_checks == 2
        tb = exc.value.__traceback__
        while tb.tb_frame.f_code.co_name != "_step_bang":
            tb = tb.tb_next
        built = tb.tb_frame.f_locals
        assert len(built["runs"]) < len(built["endpoints"])

    def test_sliced_hop_matches_one_gather(self):
        """Slices cut CSR runs — or ``!`` complement runs — at arbitrary
        points (zero-length runs, runs longer than a slice, masked
        targets): the concatenated slices are the single gather, row
        for row."""
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randrange(1, 12)
            runs = [sorted(rng.sample(range(size), rng.randrange(size + 1)))
                    for _ in range(size)]
            offsets = array("q", [0])
            for run in runs:
                offsets.append(offsets[-1] + len(run))
            neighbors = array("q", [v for run in runs for v in run])
            keep = array("q", sorted(rng.sample(range(size),
                                                rng.randrange(size + 1))))
            spec = kernels.StepSpec(rng.choice("*!"), True, offsets,
                                    neighbors, size,
                                    rng.choice([None, keep]))
            ends = [rng.randrange(size) for _ in range(rng.randrange(20))]
            cols = [kernels.anchor_column(ends)]
            budget = CountingBudget()
            budget.CHECK_EVERY = rng.randrange(1, 6)
            whole, _ = kernels.execute_step(cols, spec)
            sliced, _ = kernels.execute_step(cols, spec, budget.start())
            assert [c.tolist() for c in sliced] == \
                [c.tolist() for c in whole]
            assert budget.rows_charged == len(whole[0])
