"""The question inventory: every read the benchmark issues, with its
expected answer.

A question is a named OQL text (optionally with one parameter drawn
from a seeded pool).  Its expected answer is ``(row count, digest of
the canonical rows)``, computed once at set-up by the *set-based*
executor (``compact=False``) over a rule engine of its own — an oracle
that shares neither the compact columnar path, nor the value indexes,
nor the socket with the program under test.  The canonical rows are the
sorted listing ``Subdatabase.describe()`` prints, so a served reply
(``rendered``) and an in-process result (``render()``) digest the same
way as long as both name their result :data:`RESULT_NAME`.

Point questions have one expected row per key by construction (the
generator gives every student a unique name); the oracle answers a
sample of keys at set-up to prove the construction rule, and the rest
are checked against the rule.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.rules.control import EvaluationMode
from repro.rules.engine import RuleEngine

#: Every benchmark query names its result the same, because the name is
#: part of the rendered text the digest covers.
RESULT_NAME = "q"

Expected = Tuple[int, str]


def digest(rendered: str) -> str:
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:20]


# ----------------------------------------------------------------------
# Rules (the paper's closure property: R3 reads R1's subdatabase)
# ----------------------------------------------------------------------

R1 = ("R1", "if context Teacher * Section * Course "
            "then Teacher_course (Teacher, Course)")
R2 = ("R2", "if context Department[name = 'Dept1'] * Course * Section "
            "* Student where COUNT(Student by Course) > {threshold} "
            "then Suggest_offer (Course)")
TC = ("TC", "if context Course * Course_1 ^* "
            "then Prereq_closure (Course, Course_)")
R3 = ("R3", "if context Teacher_course:Teacher * Teacher_course:Course "
            "* Department then Teacher_dept (Teacher, Department)")


def rule_stack(config) -> List[Tuple[str, str]]:
    """The four-rule stack of ``embedded-deductive``.  R2's threshold is
    the mean enrolment per course, so about half the courses qualify
    whatever the corpus size."""
    mean_enrolment = ((config.students + config.grads)
                      * config.enrollments_per_student) // config.courses
    label, text = R2
    return [R1, (label, text.format(threshold=mean_enrolment)), TC, R3]


def add_rules(engine: RuleEngine, rules: Sequence[Tuple[str, str]],
              modes: Optional[Dict[str, EvaluationMode]] = None) -> None:
    for label, text in rules:
        engine.add_rule(text, label=label,
                        mode=(modes or {}).get(label))


# ----------------------------------------------------------------------
# Questions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Question:
    name: str
    #: OQL text; ``{p}`` is replaced by the drawn parameter.
    template: str
    #: ``pool(data)`` lists the parameters the schedule may draw
    #: (``None``: the question takes no parameter).
    pool: Optional[Callable[[Any], List[str]]] = None
    #: ``by_key(data, key)`` names the class and label of the one row
    #: that answers ``key``: such a question is checked by construction
    #: instead of by enumeration.
    by_key: Optional[Callable[[Any, str], Tuple[str, str]]] = None
    #: Whether the question reads a rule-derived subdatabase.
    derived: bool = False

    def text(self, param: Optional[str] = None) -> str:
        return self.template if param is None \
            else self.template.format(p=param)


def _student_names(data) -> List[str]:
    return [e.get("name") for e in data.all_of("Student")]


def _student_row(data, name: str) -> Tuple[str, str]:
    # generate_university names student i "Student{i}" and labels it
    # "st{i}".
    return "Student", "st" + name[len("Student"):]


def _loop_courses(data) -> List[str]:
    """32 courses spread over the upper half of the catalogue (higher
    numbers have longer prerequisite chains below them)."""
    courses = data.all_of("Course")
    half = len(courses) // 2
    step = max(1, (len(courses) - half) // 32)
    return [c.get("title") for c in courses[half::step]][:32]


READ_QUESTIONS: List[Question] = [
    Question("point", "context Student[name = '{p}']",
             pool=_student_names, by_key=_student_row),
    Question("range", "context Student[GPA > 3.99]"),
    Question("chain3", "context Teacher * Section * Course"),
    Question("chain4", "context Department[name = 'Dept1'] * Course "
                       "* Section * Student"),
    Question("derived", "context Teacher_course:Teacher "
                        "* Teacher_course:Course", derived=True),
    Question("loop3", "context Course[title = '{p}'] * Course_1 ^3",
             pool=_loop_courses),
]

TARGET_QUESTIONS: List[Question] = [
    Question("r1_teacher_course", "context Teacher_course:Teacher "
                                  "* Teacher_course:Course", derived=True),
    Question("r2_suggest_offer", "context Suggest_offer:Course",
             derived=True),
    Question("tc_prereq_closure", "context Prereq_closure:Course "
                                  "* Prereq_closure:Course_1",
             derived=True),
    Question("r3_teacher_dept", "context Teacher_dept:Teacher "
                                "* Teacher_dept:Department", derived=True),
]

#: Keys of a by-construction question the oracle answers at set-up.
SAMPLED_KEYS = 4


def listing(cls: str, labels: Sequence[str]) -> str:
    """What ``Subdatabase.describe()`` prints for a one-class result
    holding the objects ``labels`` — the by-construction answers."""
    lines = [f"subdatabase {RESULT_NAME!r}", f"classes: {cls}",
             f"patterns ({len(labels)}):"]
    lines.extend(f"  ({label})" for label in labels)
    return "\n".join(lines)


def answer(result) -> Expected:
    """``(rows, digest)`` of an in-process ``QueryResult`` — rendering
    forces the full materialisation a caller would pay."""
    rendered = result.render()
    return len(result.subdatabase), digest(rendered)


@contextmanager
def oracle_engine(db, rules: Sequence[Tuple[str, str]] = ()):
    """A throw-away set-based rule engine over ``db``, detached again on
    exit so it leaves no listener on the database."""
    engine = RuleEngine(db, compact=False)
    try:
        add_rules(engine, rules)
        yield engine
    finally:
        db.remove_listener(engine._on_update)
        db.remove_listener(engine.universe.compact._listener)
        engine.close()


def oracle_answers(db, rules: Sequence[Tuple[str, str]],
                   asks: Sequence[Tuple[Question, Optional[str]]]
                   ) -> Dict[Tuple[str, Optional[str]], Tuple[int, str, str]]:
    """Answer ``asks`` with the oracle; ``(rows, digest, rendered)`` per
    ask."""
    out = {}
    with oracle_engine(db, rules) as engine:
        for question, param in asks:
            result = engine.query(question.text(param), name=RESULT_NAME)
            rendered = result.render()
            out[(question.name, param)] = (len(result.subdatabase),
                                           digest(rendered), rendered)
    return out


class Inventory:
    """Expected answers for a set of questions over one corpus."""

    def __init__(self, data, rules: Sequence[Tuple[str, str]],
                 questions: Sequence[Question]):
        self.data = data
        self.rules = list(rules)
        self.questions = {q.name: q for q in questions}
        self.pools: Dict[str, List[str]] = {
            q.name: q.pool(data) for q in questions if q.pool is not None}
        self.expected: Dict[Tuple[str, Optional[str]], Expected] = {}
        #: Set by the smoke test to prove a wrong expectation is caught.
        self.corrupt = False

    def asks(self) -> List[Tuple[Question, Optional[str]]]:
        """Every (question, parameter) the oracle enumerates."""
        out: List[Tuple[Question, Optional[str]]] = []
        for question in self.questions.values():
            if question.pool is None:
                out.append((question, None))
            elif question.by_key is not None:
                pool = self.pools[question.name]
                step = max(1, len(pool) // SAMPLED_KEYS)
                out.extend((question, key)
                           for key in pool[::step][:SAMPLED_KEYS])
            else:
                out.extend((question, key)
                           for key in self.pools[question.name])
        return out

    def build(self, db, verify_keys: bool = True) -> None:
        """Compute the expected answers on the current state of ``db``.
        With ``verify_keys`` the sampled keys of by-construction
        questions must come out as the construction rule says (true at
        set-up; a write-only workload may delete a sampled key later)."""
        answers = oracle_answers(db, self.rules, self.asks())
        self.expected = {}
        for (name, param), (rows, dig, rendered) in answers.items():
            self.expected[(name, param)] = (rows, dig)
            question = self.questions[name]
            if question.by_key is None or not verify_keys:
                continue
            cls, label = question.by_key(self.data, param)
            if rendered != listing(cls, [label]):
                raise AssertionError(
                    f"question {name!r}: key {param!r} is not answered "
                    f"by exactly the one row ({label})")

    def expect(self, name: str, param: Optional[str]) -> Expected:
        if (name, param) in self.expected:
            rows, dig = self.expected[(name, param)]
        else:
            cls, label = self.questions[name].by_key(self.data, param)
            rows, dig = 1, digest(listing(cls, [label]))
        if self.corrupt:
            dig = "0" * len(dig)
        return rows, dig
