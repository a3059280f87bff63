"""Named corpus presets for the benchmark suite.

Every preset is a :class:`~repro.university.GeneratorConfig` whose
object count lands within 2 % of the nominal size in its name.  The
class shares follow the University shape the paper's queries assume:
60 % students, 3 % courses with two sections each, 2 % teachers, 7 %
grads (each with two transcripts and one advising record), 20
departments, two prerequisite edges per course.

The prerequisite DAG is laid down by :func:`build`, not drawn by the
generator: course ``i`` requires ``i-1`` and ``i-2`` inside blocks of
:data:`PREREQ_BLOCK` courses.  A random DAG of the same size has between
hundreds and tens of thousands of prerequisite paths depending on the
seed, and ``^*`` enumerates paths, so closure cost would swing by an
order of magnitude from seed to seed; the ladder has the same number of
paths (3006 per 100 courses) under every seed.

``u10k`` is the rule-stack corpus: 100 courses, so that one
``Course * Course_1 ^*`` derivation costs 50-100 ms.

``u20k`` is what the served and ingest workloads run on.  ISSUE 11
names 100k objects; set-up and the first indexed read after a write both
cost in proportion to the extent, and at 100k the builder contract's 92
runs in 3420 s hold neither the set-ups nor 200 writes a run (the
arithmetic is in the README).  ``u1k`` is the smoke test's.
"""

from __future__ import annotations

from repro.university import GeneratorConfig, generate_university

DEPARTMENTS = 20
#: Courses per independent block of the prerequisite ladder.
PREREQ_BLOCK = 12


def scaled(objects: int, courses: int | None = None) -> GeneratorConfig:
    """A config of about ``objects`` objects.  ``courses`` overrides
    the 3 % course share; students absorb the difference (and make room
    for the departments) so the total stays put."""
    default_courses = round(objects * 0.03)
    if courses is None:
        courses = default_courses
    students = round(objects * 0.6) + 3 * (default_courses - courses) \
        - DEPARTMENTS
    return GeneratorConfig(
        departments=DEPARTMENTS,
        courses=courses,
        sections_per_course=2,
        teachers=round(objects * 0.02),
        faculty=max(2, round(objects * 0.004)),
        grads=round(objects * 0.07),
        tas=max(2, round(objects * 0.002)),
        students=students,
        enrollments_per_student=3,
        transcripts_per_grad=2,
        prereqs_per_course=0,    # build() lays the ladder instead
    )


PRESETS = {
    "u1k": scaled(1_000),
    "u10k": scaled(10_000, courses=100),
    "u20k": scaled(20_000),
}


def build(preset: str, seed: int):
    """Generate the corpus ``preset`` from ``seed`` and lay the
    prerequisite ladder over its courses."""
    data = generate_university(PRESETS[preset], seed=seed)
    courses = data.all_of("Course")
    for i, course in enumerate(courses):
        for back in (1, 2):
            if i % PREREQ_BLOCK >= back:
                data.db.associate(course, "prereq", courses[i - back])
    return data
