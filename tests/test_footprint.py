"""Footprint precision, in both directions.

*Superset*: for hypothesis-generated queries the static
:class:`~repro.oql.footprint.Footprint` names at least everything a
traced evaluation actually read (extents, resolved links, attributes) —
so skipping a write outside it can never serve a stale answer.

*Nothing more than needed*: on the paper's University rules a write
outside a target's footprint leaves the registered subdatabase the very
same object and derives nothing, a subscription is not woken by an
attribute it never compares, and the planner re-measures only the
fan-out of the link that changed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryProcessor, RuleEngine, Universe
from repro.errors import ReproError
from repro.oql.footprint import ALL, EMPTY, Footprint, chain_terms, \
    footprint_of
from repro.oql.parser import parse_query
from repro.oql.subscribe import SubscriptionManager
from repro.rules.control import EvaluationMode
from repro.subdb.refs import ClassRef
from repro.university.generator import GeneratorConfig, generate_university
from tests.test_differential import ADJACENT

CONDITIONS = {
    "Course": ("c# < 5000", "credit_hours >= 3 and c# >= 2000",
               "not (title = 'Course 3')"),
    "Section": ("section# = 1", "textbook = 'Book3' or section# = 2"),
    "Transcript": ("grade >= 3.0", "letter = 'A'"),
    "Department": ("college = 'College1'", "name = 'Dept1'"),
    "Teacher": ("degree = 'PhD'", "name = 'Teacher1'"),
    "Faculty": ("rank = 'Full'", "degree = 'PhD'"),
    "Student": ("GPA >= 2.5",),
    "Grad": ("GPA >= 3.0", "name = 'Grad2'"),
}
#: A numeric attribute per class, for Where comparisons and aggregates.
NUMERIC = {"Course": "credit_hours", "Section": "section#",
           "Transcript": "grade", "Student": "GPA", "Grad": "GPA"}


@st.composite
def queries(draw) -> str:
    """Chains with `*`/`!`, intra-class conditions, brace groups, loops
    over the prerequisite cycle, Where comparisons and aggregates."""
    chain = [draw(st.sampled_from(sorted(ADJACENT)))]
    for _ in range(draw(st.integers(0, 3))):
        options = [c for c in ADJACENT[chain[-1]] if c not in chain]
        if not options:
            break
        chain.append(draw(st.sampled_from(options)))
    ops = [draw(st.sampled_from("***!")) for _ in chain[1:]]
    terms = []
    for cls in chain:
        if cls in CONDITIONS and draw(st.booleans()):
            terms.append(f"{cls}[{draw(st.sampled_from(CONDITIONS[cls]))}]")
        else:
            terms.append(cls)
    if len(terms) >= 3 and draw(st.booleans()):
        body = (f"{{{terms[0]} {ops[0]} {terms[1]}}} "
                + " ".join(f"{op} {t}" for op, t in zip(ops[1:], terms[2:])))
    else:
        body = terms[0] + "".join(f" {op} {t}"
                                  for op, t in zip(ops, terms[1:]))
    loop = chain[-1] == "Course" and "!" not in ops and draw(st.booleans())
    if loop:
        body += f" * Course_1 ^{draw(st.sampled_from(['*', '2']))}"
    text = f"context {body}"
    if not loop and len(chain) >= 2 and "!" not in ops:
        kind = draw(st.sampled_from(("none", "count", "sum", "cmp")))
        first, last = chain[0], chain[-1]
        if kind == "count":
            text += f" where COUNT({last} by {first}) > 1"
        elif kind == "sum" and last in NUMERIC:
            text += (f" where SUM({last}.{NUMERIC[last]} by {first}) "
                     f"> 2")
        elif kind == "cmp" and first in NUMERIC and last in NUMERIC:
            text += (f" where {first}.{NUMERIC[first]} "
                     f"<= {last}.{NUMERIC[last]}")
    return text


@pytest.fixture(scope="module")
def university():
    return generate_university(GeneratorConfig(
        students=40, grads=8, courses=10, teachers=5), seed=11)


class TracedUniverse(Universe):
    """Records what an evaluation reads, in footprint vocabulary."""

    def __init__(self, db):
        super().__init__(db)
        self.extents, self.links, self.attrs = set(), set(), set()

    def extent(self, ref):
        if ref.subdb is None:
            self.extents.add(ref.cls)
        return super().extent(ref)

    def resolve_edge(self, a, b):
        edge = super().resolve_edge(a, b)
        if edge.kind == "base":
            self.links.add(edge.resolved.link.key)
        return edge

    def attr_value(self, ref, oid, attr):
        self.attrs.add((ref.cls, attr))
        return super().attr_value(ref, oid, attr)


class TestFootprintIsASuperset:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(queries(), st.booleans())
    def test_traced_reads_are_inside_the_footprint(self, university,
                                                   text, compact):
        query = parse_query(text)
        footprint = footprint_of(chain_terms(query.context.chain),
                                 query.where, university.db.schema)
        assert not footprint.everything
        traced = TracedUniverse(university.db)
        try:
            QueryProcessor(traced, compact=compact).execute(text)
        except ReproError:
            pass  # what it read before raising still counts
        assert traced.extents <= footprint.extents, text
        assert traced.links <= footprint.links, text
        assert traced.attrs <= footprint.attrs, text

    def test_wildcard_and_union(self):
        some = Footprint(extents=frozenset(("A",)))
        assert (some | ALL) is ALL and (ALL | some) is ALL
        assert (some | EMPTY) == some
        assert ALL.describe() == "ALL"

    def test_derived_reference_composes_through_the_rule_graph(
            self, university):
        engine = RuleEngine(university.db)
        engine.add_rule("if context Teacher * Section * Course "
                        "then TC (Teacher, Course)")
        engine.add_rule("if context TC:Teacher * TC:Course "
                        "* Department[name = 'Dept1'] "
                        "then TD (Teacher, Department)")
        try:
            assert engine.direct_footprint("TD") == Footprint(
                frozenset(("Department",)),
                frozenset((("Course", "department"),)),
                frozenset((("Department", "name"),)))
            assert engine.footprint("TD") == \
                engine.direct_footprint("TD") | engine.footprint("TC")
            # A subdatabase no rule derives has no stamps.
            assert engine.footprint("Elsewhere") is ALL
            engine.add_rule("if context Elsewhere:Teacher * Section "
                            "then TE (Teacher)")
            assert engine.footprint("TE") is ALL
        finally:
            university.db.remove_listener(engine._on_update)


# ----------------------------------------------------------------------
# The converse, on the benchmark's rule stack and write kinds
# ----------------------------------------------------------------------

RULES = {
    "Teacher_course": "if context Teacher * Section * Course "
                      "then Teacher_course (Teacher, Course)",
    "Suggest_offer": "if context Department[name = 'Dept1'] * Course "
                     "* Section * Student "
                     "where COUNT(Student by Course) > 3 "
                     "then Suggest_offer (Course)",
    "Prereq_closure": "if context Course * Course_1 ^* "
                      "then Prereq_closure (Course, Course_)",
    "Teacher_dept": "if context Teacher_course:Teacher "
                    "* Teacher_course:Course * Department "
                    "then Teacher_dept (Teacher, Department)",
}
#: What each of the benchmark's write kinds can change (the
#: ``CAN_CHANGE`` table of ``benchmarks/suite/workloads.py``).
TOUCHES = {
    "enrol": {"Suggest_offer"},
    "section": {"Teacher_course", "Suggest_offer", "Teacher_dept"},
    "prereq": {"Prereq_closure"},
}


def _write(kind: str, data) -> None:
    db = data.db
    courses = data.all_of("Course")
    if kind == "enrol":
        student = data.all_of("Student")[-1]
        section = next(s for s in data.all_of("Section")
                       if s.oid not in db.linked(
                           student.oid,
                           db.schema.entity_association(student.cls,
                                                        "enrolled")))
        db.associate(student, "enrolled", section)
    elif kind == "section":
        section = db.insert("Section", "fresh",
                            **{"section#": 9, "textbook": "Bench"})
        db.associate(data.all_of("Teacher")[0], "teaches", section)
        db.associate(section, "course", courses[0])
    else:
        db.associate(courses[-1], "prereq", courses[0])


class TestWritesOutsideTheFootprintCostNothing:
    @pytest.mark.parametrize("controller", ["result", "incremental",
                                            "rule"])
    @pytest.mark.parametrize("kind", sorted(TOUCHES))
    def test_untouched_targets_keep_their_object(self, controller, kind):
        data = generate_university(GeneratorConfig(
            students=40, grads=8, courses=10, teachers=5,
            prereqs_per_course=1), seed=5)
        engine = RuleEngine(data.db, controller=controller)
        for name, text in RULES.items():
            mode = None
            if controller == "incremental":
                # As the benchmark sets it up: R1 delta-maintained, the
                # rest derived on demand.
                mode = (EvaluationMode.PRE_EVALUATED
                        if name == "Teacher_course"
                        else EvaluationMode.POST_EVALUATED)
            engine.add_rule(text, mode=mode)
        before = {name: engine.derive(name) for name in RULES}
        derived = dict(engine.stats.derivations)
        _write(kind, data)
        for name in RULES:
            if name in TOUCHES[kind]:
                continue
            assert engine.universe.has_subdb(name), (kind, name)
            assert engine.derive(name) is before[name], (kind, name)
            assert engine.stats.derivations[name] == derived[name], \
                (kind, name)
        # ... and what the write could change is right.
        oracle = RuleEngine(data.db, compact=False)
        for text in RULES.values():
            oracle.add_rule(text)
        for name in RULES:
            assert set(engine.derive(name).patterns) == \
                set(oracle.derive(name).patterns), (kind, name)

    def test_relevance_table_matches_the_benchmark(self):
        data = generate_university(GeneratorConfig(
            students=40, grads=8, courses=10, teachers=5), seed=5)
        engine = RuleEngine(data.db)
        for text in RULES.values():
            engine.add_rule(text)
        events = []
        data.db.add_listener(events.append)
        for kind, expected in TOUCHES.items():
            del events[:]
            _write(kind, data)
            affected = set()
            for event in events:
                affected |= engine.affected_by_event(event)
            assert affected == expected, kind

    def test_subscription_sleeps_through_an_unread_attribute(self):
        data = generate_university(GeneratorConfig(students=40), seed=5)
        engine = RuleEngine(data.db)
        manager = SubscriptionManager(engine)
        sub = manager.subscribe("context Student[GPA > 3.9]")
        assert sub.footprint == Footprint(
            frozenset(("Student",)), frozenset(),
            frozenset((("Student", "GPA"),)))
        student = data.all_of("Student")[0].oid
        data.db.set_attribute(student, "name", "Somebody Else")
        assert sub.counters["wakeups"] == 0
        assert sub.counters["skipped_unrelated"] == 1
        assert sub.pending() == 0
        data.db.set_attribute(student, "GPA", 3.95)
        assert sub.counters["wakeups"] == 1
        (frame,) = sub.poll()
        assert frame.added == ((student.value,),)
        manager.unsubscribe(sub.id)

    def test_planner_remeasures_only_the_link_that_changed(self):
        data = generate_university(GeneratorConfig(students=40), seed=5)
        db = data.db
        universe = Universe(db)
        stats = QueryProcessor(universe).evaluator.planner.statistics
        teacher, section, course = (ClassRef("Teacher"),
                                    ClassRef("Section"),
                                    ClassRef("Course"))
        teaches = universe.resolve_edge(teacher, section)
        offers = universe.resolve_edge(section, course)

        def measured():
            return (stats.fanout(teacher, teaches),
                    stats.fanout(section, offers),
                    stats.extent_size(section))

        def scanned():
            return (len(db.link_pairs(teaches.resolved.link))
                    / len(db.extent("Teacher")),
                    len(db.link_pairs(offers.resolved.link))
                    / len(db.extent("Section")),
                    len(db.extent("Section")))

        before = measured()
        assert before == scanned()
        first = data.all_of("Teacher")[0]
        free = next(s for s in data.all_of("Section")
                    if s.oid not in db.linked(first.oid,
                                              teaches.resolved.link))
        db.associate(first, "teaches", free)
        after = measured()
        assert after == scanned()
        assert after[0] > before[0] and after[1:] == before[1:]
        db.set_attribute(free.oid, "textbook", "Other")
        assert measured() == after
        db.associate(first, "teaches", free)     # already linked
        assert measured() == after
        db.dissociate(first, "teaches", free)
        assert measured() == before == scanned()
