"""Differential stress harness: seeded random queries and rules over a
generated University database, executed by two engines — the compact
interned executor and the original set-of-OIDs executor — which must
agree byte for byte on every case (through the canonical session
serializer).

The case count is tunable: ``DIFFERENTIAL_CASES`` in the environment
(default 100; CI runs the quick tier on push and 1000 nightly).  Every
case is derived from one integer seed, so a failure report is fully
reproducible; on mismatch the harness *shrinks* the failing query —
dropping the where clause, the loop, the conditions, the braces, then
trailing chain links — and reports the simplest spec that still
disagrees, alongside its seed.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro import QueryProcessor, RuleEngine, Universe, obs
from repro.errors import ReproError
from repro.oql.cache import result_nbytes
from repro.oql.footprint import EMPTY, chain_terms, footprint_of
from repro.oql.parser import parse_query
from repro.oql.subscribe import SubscriptionManager, canonical_rows
from repro.storage.serialize import subdatabase_to_dict
from repro.subdb.subdatabase import Subdatabase
from repro.university.generator import GeneratorConfig, generate_university

pytestmark = pytest.mark.differential

CASES = int(os.environ.get("DIFFERENTIAL_CASES", "100"))
DB_SEED = 7


#: Rows per chunk that :func:`_dump` formats and hashes at a time.
DUMP_ROWS = 1 << 14


def _row_chunks(subdb):
    """The rows of ``subdatabase_to_dict(subdb)["patterns"]``, in its
    order, as lists of at most ``DUMP_ROWS`` rows.  A columnar result is
    ordered and gathered chunk by chunk from its id columns, so its
    rows never exist all at once."""
    columns = subdb._columns
    if columns is None:
        rows = subdatabase_to_dict(subdb)["patterns"]
        for start in range(0, len(rows), DUMP_ROWS):
            yield rows[start:start + DUMP_ROWS]
        return
    # Nulls first, as the dictionary wants: sort on the signed ids.
    order = np.lexsort(columns[::-1]) \
        if any(len(col) and col.min() < 0 for col in columns) else None
    values = [table.values for table in subdb._tables]
    for start in range(0, len(subdb), DUMP_ROWS):
        picked = slice(start, start + DUMP_ROWS) if order is None \
            else order[start:start + DUMP_ROWS]
        gathered = [[None if i < 0 else lookup[i]
                     for i in col[picked].tolist()]
                    for col, lookup in zip(columns, values)]
        yield [list(row) for row in zip(*gathered)]


def _dump(subdb) -> Tuple[int, str]:
    """(byte length, sha256) of the subdatabase's canonical JSON
    document (``json.dumps(subdatabase_to_dict(subdb), sort_keys=True)``
    with the name blanked).  Outcomes are compared and kept by digest,
    and the document is hashed in chunks of rows: a result of millions
    of rows is never held as one row list or one text."""
    shell = Subdatabase("_", subdb.intension, (), subdb.derived_info)
    head, tail = json.dumps(subdatabase_to_dict(shell),
                            sort_keys=True).split('"patterns": []')
    digest = hashlib.sha256()
    size = 0

    def feed(text: str) -> None:
        nonlocal size
        data = text.encode()
        size += len(data)
        digest.update(data)

    feed(head + '"patterns": [')
    for k, chunk in enumerate(_row_chunks(subdb)):
        feed((", " if k else "") + json.dumps(chunk)[1:-1])
    feed("]" + tail)
    return size, digest.hexdigest()


# Class adjacency of the University schema as the evaluator resolves it
# (directly, by inheritance, or by generalization).  TA--Section is
# deliberately absent: a TA is both a Teacher (teaches) and a Grad
# (enrolled), so that edge is ambiguous and correctly rejected.
ADJACENT: Dict[str, Tuple[str, ...]] = {
    "Teacher": ("Section", "TA", "Faculty"),
    "Faculty": ("Section", "Teacher", "Advising"),
    "TA": ("Teacher", "Grad"),
    "Student": ("Section", "Department", "Transcript", "Grad"),
    "Grad": ("Section", "Department", "Student", "TA", "Advising",
             "Transcript"),
    "Undergrad": ("Section",),
    "Section": ("Course", "Student", "Teacher"),
    "Course": ("Section", "Department", "Transcript"),
    "Department": ("Course", "Student"),
    "Transcript": ("Student", "Grad", "Course"),
    "Advising": ("Faculty", "Grad"),
}

# Intra-class condition templates (all attributes populated by the
# generator, values chosen so predicates are selective but non-empty).
CONDITIONS: Dict[str, Tuple[str, ...]] = {
    "Course": ("c# < 5000", "credit_hours >= 3", "c# >= 2000"),
    "Section": ("section# = 1", "textbook = 'Book3'"),
    "Transcript": ("grade >= 3.0", "letter = 'A'"),
    "Department": ("college = 'College1'",),
    "Teacher": ("degree = 'PhD'",),
    "Faculty": ("rank = 'Full'",),
    "Student": ("GPA >= 2.5",),
    "Grad": ("GPA >= 3.0",),
}


@dataclass
class QuerySpec:
    """One generated case, kept structured so it can be shrunk."""

    chain: List[str]
    ops: List[str] = field(default_factory=list)  # len == len(chain)-1
    conds: Dict[int, str] = field(default_factory=dict)
    braces: bool = False
    loop: Optional[str] = None  # loop count spec over a Course tail
    where: Optional[str] = None

    def text(self) -> str:
        terms = []
        for index, cls in enumerate(self.chain):
            cond = self.conds.get(index)
            terms.append(f"{cls}[{cond}]" if cond else cls)
        if self.braces and len(terms) >= 3:
            body = (f"{{{terms[0]} {self.ops[0]} {terms[1]}}} "
                    + " ".join(f"{op} {term}" for op, term
                               in zip(self.ops[1:], terms[2:])))
        else:
            body = terms[0] + "".join(
                f" {op} {term}" for op, term in zip(self.ops, terms[1:]))
        if self.loop is not None:
            body += f" * {self.chain[-1]}_1 ^{self.loop}"
        text = f"context {body}"
        if self.where:
            text += f" where {self.where}"
        return text

    def shrink_variants(self) -> List["QuerySpec"]:
        """Strictly simpler specs, most aggressive simplification last."""
        out = []
        if self.where:
            out.append(replace(self, where=None))
        if self.loop is not None:
            out.append(replace(self, loop=None))
        for index in self.conds:
            conds = dict(self.conds)
            del conds[index]
            out.append(replace(self, conds=conds))
        if self.braces:
            out.append(replace(self, braces=False))
        if len(self.chain) > 1:
            out.append(QuerySpec(chain=self.chain[:-1],
                                 ops=self.ops[:-1],
                                 conds={i: c for i, c in self.conds.items()
                                        if i < len(self.chain) - 1},
                                 braces=self.braces
                                 and len(self.chain) - 1 >= 3,
                                 loop=None, where=None))
        return out


def _random_spec(rng: random.Random) -> QuerySpec:
    length = rng.randint(1, 4)
    chain = [rng.choice(sorted(ADJACENT))]
    for _ in range(length - 1):
        options = [cls for cls in ADJACENT[chain[-1]]
                   if cls not in chain]  # distinct slots keep it simple
        if not options:
            break
        chain.append(rng.choice(options))
    spec = QuerySpec(chain=chain)
    spec.ops = ["!" if rng.random() < 0.20 else "*"
                for _ in range(len(chain) - 1)]
    for index, cls in enumerate(chain):
        if cls in CONDITIONS and rng.random() < 0.25:
            spec.conds[index] = rng.choice(CONDITIONS[cls])
    if len(chain) >= 3 and rng.random() < 0.15:
        spec.braces = True
    if chain[-1] == "Course" and rng.random() < 0.5 \
            and spec.ops and set(spec.ops) == {"*"}:
        spec.loop = rng.choice(["*", "2", "3"])
    elif len(chain) == 1 and chain[0] == "Course":
        if rng.random() < 0.4:
            spec.loop = rng.choice(["*", "2"])
    if (spec.loop is None and len(chain) >= 2 and not spec.braces
            and "!" not in spec.ops and rng.random() < 0.15):
        spec.where = (f"COUNT({chain[-1]} by {chain[0]}) > "
                      f"{rng.randint(0, 3)}")
    return spec


# ---------------------------------------------------------------------------
# Executors.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def university_db():
    return generate_university(GeneratorConfig(), seed=DB_SEED).db


@pytest.fixture(scope="module")
def executors(university_db):
    """(label, QueryProcessor) tuples sharing one base database: the
    compact executor and the set-based original."""
    compact = QueryProcessor(Universe(university_db), compact=True)
    setbased = QueryProcessor(Universe(university_db), compact=False)
    return [("compact", compact), ("set-based", setbased)]


def _outcome(processor: QueryProcessor, text: str):
    """(kind, payload): a dump on success, the error type on rejection.

    All executors must agree on *both* — a query one engine answers and
    another rejects is as much a bug as differing rows."""
    try:
        return ("ok", _dump(processor.execute(text).subdatabase))
    except ReproError as exc:
        return ("error", type(exc).__name__)


def _check(executors, spec: QuerySpec):
    """None if all executors agree, else a description of the split."""
    text = spec.text()
    outcomes = [(label, _outcome(processor, text))
                for label, processor in executors]
    reference = outcomes[0][1]
    if all(outcome == reference for _, outcome in outcomes[1:]):
        return None
    return " / ".join(f"{label}: {kind}"
                      + (f"[{payload}]" if kind == "error" else
                         f"[{payload[0]}B]")
                      for label, (kind, payload) in outcomes)


def _shrink(executors, spec: QuerySpec) -> QuerySpec:
    """Greedily simplify while the disagreement persists."""
    current = spec
    progress = True
    while progress:
        progress = False
        for variant in current.shrink_variants():
            if _check(executors, variant) is not None:
                current = variant
                progress = True
                break
    return current


class TestDifferentialQueries:
    def test_seeded_random_queries_agree(self, executors):
        failures = []
        for case in range(CASES):
            seed = DB_SEED * 100_000 + case
            spec = _random_spec(random.Random(seed))
            split = _check(executors, spec)
            if split is None:
                continue
            minimal = _shrink(executors, spec)
            failures.append(
                f"seed={seed}\n  query:   {spec.text()}\n"
                f"  minimal: {minimal.text()}\n"
                f"  split:   {_check(executors, minimal) or split}")
            if len(failures) >= 5:
                break
        assert not failures, (
            f"{len(failures)} differential mismatch(es) over {CASES} "
            "cases:\n" + "\n".join(failures))

    def test_known_hard_shapes_agree(self, executors):
        """Deterministic regression shapes: every feature class the
        random generator draws from, pinned."""
        shapes = [
            "context Student * Section * Course",
            "context Student ! Section",
            "context Grad[GPA >= 3.0] * Transcript[grade >= 3.0] "
            "* Course[c# < 5000]",
            "context {Student * Section} * Course",
            "context {{Grad} * Advising} * Faculty",
            "context Course * Course_1 ^*",
            "context Course * Course_1 ^2",
            "context Section * Course * Course_1 ^*",
            "context Department * Course * Section * Student "
            "where COUNT(Student by Course) > 25",
            "context Transcript[letter = 'A'] ! Course",
        ]
        for text in shapes:
            outcomes = [(label, _outcome(processor, text))
                        for label, processor in executors]
            reference = outcomes[0][1]
            for label, outcome in outcomes[1:]:
                assert outcome == reference, (text, label)


class TestDifferentialRules:
    """Rule-shaped subset: the same chains packaged as deductive rules,
    derived through two RuleEngine configurations."""

    def _engines(self, db) -> List[Tuple[str, RuleEngine]]:
        return [("compact", RuleEngine(db, compact=True)),
                ("set-based", RuleEngine(db, compact=False))]

    def test_seeded_random_rules_agree(self, university_db):
        cases = max(CASES // 10, 5)
        engines = self._engines(university_db)
        mismatches = []
        added = 0
        for case in range(cases):
            seed = DB_SEED * 200_000 + case
            rng = random.Random(seed)
            spec = _random_spec(rng)
            if len(spec.chain) < 2 or spec.where or spec.loop:
                continue  # rule targets want two plain slots
            target = f"T{case}"
            rule_text = (f"if context {spec.text()[len('context '):]} "
                         f"then {target} "
                         f"({spec.chain[0]}, {spec.chain[-1]})")
            try:
                for _, engine in engines:
                    engine.add_rule(rule_text)
            except ReproError:
                continue  # all engines share one parser: skip uniformly
            added += 1
            dumps = {label: _dump(engine.derive(target))
                     for label, engine in engines}
            reference = dumps["compact"]
            for label, dump in dumps.items():
                if dump != reference:
                    mismatches.append(
                        f"seed={seed} rule={rule_text!r} {label} differs")
        assert added >= 3, "generator produced too few rule-shaped cases"
        assert not mismatches, "\n".join(mismatches)

    #: Then clauses over loop and brace sources — a compact source's
    #: target is projected from its columns, so these pin what that
    #: projection must reproduce: every slot kept (a permutation, no
    #: subsumption needed), slots dropped into mixed arity (subsumption
    #: needed), a level the loop never reached (an all-Null column,
    #: all-Null rows dropped), slots in another order than the source's
    #: (each column with its own intern table), a slot listed twice
    #: (rejected alike), and rules reading other rules' targets.
    SHAPES = [
        "if context Course * Course_1 ^* then L_all (Course, Course_)",
        "if context Course * Course_1 ^* then L_lvl (Course, Course_2)",
        "if context Course * Course_1 ^3 then L_mid (Course_1, Course_3)",
        "if context Course * Course_1 ^2 then L_lvl2 (Course_2)",
        "if context Course * Course_1 ^2 then L_far (Course, Course_7)",
        "if context Course * Course_1 ^2 then L_none (Course_7)",
        "if context Course * Course_1 ^* then L_rev (Course_, Course)",
        "if context Course[c# < 5000] * Course_1 ^* "
        "then L_cond (Course_1, Course)",
        "if context {Student * Section} * Course then B_ends (Student, Course)",
        "if context {Student * Section} * Course "
        "then B_perm (Course, Student, Section)",
        "if context {Student * Section} * Course then B_last (Course)",
        "if context Faculty * {Section * Course} then B_mid (Section)",
        "if context Teacher * Section * Course "
        "then C_rev (Course, Section, Teacher)",
        "if context Teacher * Section * Course "
        "then C_twice (Course, Teacher, Course)",
        "if context L_lvl:Course * L_lvl:Course_2 * Section "
        "then R_lvl (Course_2, Section)",
        "if context L_lvl:Course * L_lvl:Course_2 "
        "then R_pair (L_lvl:Course, Course_2)",
        "if context L_all:Course * L_all:Course_1 * Section "
        "then R_all (Course_1, Section)",
        "if context B_ends:Student * B_ends:Course * Department "
        "then R_ends (Student, Department)",
        "if context L_all:Course * L_all:Course_1 ^* "
        "then R_loop (Course_1, Course_2)",
    ]

    @staticmethod
    def _derived(engine: RuleEngine, target: str):
        try:
            return ("ok", _dump(engine.derive(target)))
        except ReproError as exc:
            return ("error", type(exc).__name__)

    @pytest.mark.parametrize("prereqs", [1, 2])
    def test_columnar_projection_shapes_agree(self, university_db,
                                              prereqs):
        # Two prerequisites per course branch the closure, so a root's
        # short hierarchy sits beside a longer one and dropping levels
        # leaves rows that subsumption must remove.
        db = university_db if prereqs == 1 else generate_university(
            GeneratorConfig(prereqs_per_course=prereqs), seed=DB_SEED).db
        texts = list(self.SHAPES)
        # Seeded loop contexts, projected to all levels and to one.
        for case in range(max(CASES // 10, 5) * 4):
            spec = _random_spec(random.Random(DB_SEED * 300_000 + case))
            if spec.loop is None or spec.where:
                continue
            body = spec.text()[len("context "):]
            for n, last in enumerate(("Course_", "Course_2")):
                texts.append(f"if context {body} then S{case}_{n} "
                             f"({spec.chain[0]}, {last})")
        engines = self._engines(db)
        mismatches = []
        derived = 0
        for text in texts:
            target = text.split(" then ")[1].split()[0]
            try:
                for _, engine in engines:
                    engine.add_rule(text)
            except ReproError:
                continue
            outcomes = {label: self._derived(engine, target)
                        for label, engine in engines}
            derived += outcomes["compact"][0] == "ok"
            if outcomes["compact"] != outcomes["set-based"]:
                mismatches.append(f"{text!r}: {outcomes}")
        assert derived >= len(self.SHAPES) - 1, derived
        assert not mismatches, "\n".join(mismatches)
        # The compact engine's targets took the columnar projection.
        compact = engines[0][1]
        assert compact.derive("L_lvl")._columns is not None
        assert len(compact.derive("L_none")) == 0


class TestDifferentialCache:
    """Cache tier: the seeded cases replayed with the cross-query result
    cache enabled, with random writes interleaved between repetitions,
    must stay byte-identical to a cache-off executor over the same
    database — and a write touching a query's dependency classes must
    never be answered from the cache (zero stale hits)."""

    WRITE_CLASSES = ("Department", "Course", "TA", "Teacher", "Undergrad")

    def _fresh_pair(self):
        """Function-scoped database: this tier mutates it freely."""
        db = generate_university(GeneratorConfig(), seed=DB_SEED).db
        cached = QueryProcessor(Universe(db), compact=True,
                                cache_bytes=16 << 20)
        plain = QueryProcessor(Universe(db), compact=True)
        return db, cached, plain

    def _write(self, db, rng: random.Random, tick: int) -> str:
        cls = rng.choice(self.WRITE_CLASSES)
        name = f"w{tick}"
        if cls == "Department":
            db.insert(cls, name, name=f"Dept{tick}")
        elif cls == "Course":
            db.insert(cls, name, **{"c#": 9000 + tick, "title": f"T{tick}",
                                    "credit_hours": 3})
        elif cls == "Teacher":
            db.insert(cls, name, **{"SS#": f"999-{tick:05d}", "name": name})
        else:
            db.insert(cls, name)
        return cls

    def test_cached_matches_uncached_under_interleaved_writes(self):
        db, cached, plain = self._fresh_pair()
        cases = max(CASES // 2, 25)
        rng = random.Random(DB_SEED * 300_000)
        mismatches = []
        tick = 0
        for round_no in range(3):
            for case in range(cases):
                seed = DB_SEED * 100_000 + case
                text = _random_spec(random.Random(seed)).text()
                if rng.random() < 0.30:
                    tick += 1
                    self._write(db, rng, tick)
                warm = _outcome(cached, text)
                cold = _outcome(plain, text)
                if warm != cold:
                    mismatches.append(
                        f"round={round_no} seed={seed} query={text!r}: "
                        f"cached {warm[0]} vs uncached {cold[0]}")
                if len(mismatches) >= 5:
                    break
            if len(mismatches) >= 5:
                break
        stats = cached.evaluator.result_cache.stats()
        assert stats["hits"] > 0, "cache never hit: the tier is vacuous"
        assert not mismatches, (
            f"{len(mismatches)} cache-parity mismatch(es):\n"
            + "\n".join(mismatches))

    def test_no_stale_hits_after_dependency_writes(self):
        """After any write that moves a query's version vector, the next
        run of that query must be a miss; after a write that does not,
        the entry must still be served.  A result larger than the whole
        cache is refused at admission: it is neither stored nor served
        (the 1000-case tier has one of several million rows)."""
        db, cached, plain = self._fresh_pair()
        cache = cached.evaluator.result_cache
        rng = random.Random(DB_SEED * 400_000)
        invalidated = served = 0
        tick = 0
        for case in range(max(CASES // 2, 25)):
            seed = DB_SEED * 100_000 + case
            spec = _random_spec(random.Random(seed))
            text = spec.text()
            query = parse_query(text)
            deps = footprint_of(chain_terms(query.context.chain),
                                query.where, db.schema)
            entries, used = len(cache), cache.bytes_used
            try:
                first = cached.execute(text).subdatabase
            except ReproError:
                continue
            if result_nbytes(first) > cache.max_bytes:
                assert (len(cache), cache.bytes_used) == (entries, used), \
                    f"oversized result stored: {text!r}"
                del first
                cached.execute(text)
                assert cached.evaluator.last_metrics.cache_hits == 0, \
                    f"oversized result served: {text!r}"
                continue
            del first
            _outcome(cached, text)
            assert cached.evaluator.last_metrics.cache_hits == 1, text
            before = db.version_vector(deps)
            tick += 1
            self._write(db, rng, tick)
            rerun = _outcome(cached, text)
            hits = cached.evaluator.last_metrics.cache_hits
            if db.version_vector(deps) != before:
                assert hits == 0, (
                    f"stale hit: {text!r} served from cache after a write "
                    f"touching its footprint {deps.describe()}")
                assert rerun == _outcome(plain, text), text
                invalidated += 1
            else:
                assert hits == 1, (
                    f"unrelated write needlessly evicted {text!r}")
                served += 1
        assert invalidated >= 3, "no case exercised invalidation"
        assert served >= 3, "no case exercised survival"


class TestDifferentialIndexes:
    """Value-index tier: the seeded corpus re-run against an executor with
    every CONDITIONS attribute indexed — interleaved with random writes
    (inserts, attribute updates, deletes), must match a scan-only
    executor byte for byte, including which queries error and with
    what.  The indexed side must actually probe, or the tier is
    vacuous."""

    INDEXED = (("Course", "c#"), ("Course", "credit_hours"),
               ("Section", "section#"), ("Section", "textbook"),
               ("Transcript", "grade"), ("Transcript", "letter"),
               ("Department", "college"), ("Teacher", "degree"),
               ("Faculty", "rank"), ("Student", "GPA"), ("Grad", "GPA"))

    def _executors(self, db):
        def indexed():
            processor = QueryProcessor(Universe(db), compact=True)
            for cls, attr in self.INDEXED:
                processor.universe.declare_index(cls, attr)
            return processor
        return [("scan", QueryProcessor(Universe(db), compact=True)),
                ("indexed", indexed())]

    def _write(self, db, rng: random.Random, tick: int,
               own: List) -> None:
        kind = rng.choice(("insert", "insert", "set_attribute",
                           "set_attribute", "delete"))
        if kind == "insert":
            own.append(db.insert(
                "Course", f"ix{tick}",
                **{"c#": 1000 + (tick * 37) % 9000, "title": f"T{tick}",
                   "credit_hours": rng.randint(1, 5)}).oid)
        elif kind == "set_attribute":
            course = rng.choice(sorted(db.extent("Course")))
            db.set_attribute(course, "credit_hours", rng.randint(1, 5))
        elif own:
            db.delete(own.pop(rng.randrange(len(own))))

    def test_indexed_matches_scan_under_interleaved_writes(self):
        db = generate_university(GeneratorConfig(), seed=DB_SEED).db
        executors = self._executors(db)
        rng = random.Random(DB_SEED * 600_000)
        own: List = []
        failures = []
        tick = 0
        probes = 0
        try:
            for case in range(CASES):
                seed = DB_SEED * 100_000 + case
                text = _random_spec(random.Random(seed)).text()
                if rng.random() < 0.30:
                    tick += 1
                    self._write(db, rng, tick, own)
                outcomes = [(label, _outcome(processor, text))
                            for label, processor in executors]
                reference = outcomes[0][1]
                for label, outcome in outcomes[1:]:
                    if outcome != reference:
                        failures.append(
                            f"seed={seed} {text!r}: {label} "
                            f"{outcome[0]} vs scan {reference[0]}")
                metrics = executors[1][1].evaluator.last_metrics
                if metrics is not None:
                    probes += metrics.index_probes
                if len(failures) >= 5:
                    break
        finally:
            for _, processor in executors:
                processor.close()
        assert probes > 0, "no query ever probed an index: tier vacuous"
        assert not failures, (
            f"{len(failures)} index-parity mismatch(es):\n"
            + "\n".join(failures))

    def test_maintenance_keeps_built_indexes_exact(self):
        """Directed maintenance check: build the indexes, then verify
        parity survives each write kind individually — the maintainers
        must update the built index in place, not just invalidate."""
        db = generate_university(GeneratorConfig(), seed=DB_SEED).db
        indexed = QueryProcessor(Universe(db), compact=True)
        indexed.universe.declare_index("Course", "c#")
        indexed.universe.declare_index("Course", "credit_hours")
        plain = QueryProcessor(Universe(db), compact=True)
        queries = ("context Course[c# < 5000]",
                   "context Course[credit_hours >= 3] * Section")
        for text in queries:  # builds both indexes
            assert _outcome(indexed, text) == _outcome(plain, text)
        from repro.subdb.refs import ClassRef
        ref = ClassRef("Course")
        index = indexed.universe.attr_index_if_ready(ref, "c#")
        assert index is not None, "probe did not build the index"
        rows = len(index)
        course = db.insert("Course", "mx1",
                           **{"c#": 4321, "title": "M",
                              "credit_hours": 2}).oid
        db.set_attribute(course, "c#", 1234)
        for text in queries:
            assert _outcome(indexed, text) == _outcome(plain, text)
        live = indexed.universe.attr_index_if_ready(ref, "c#")
        assert live is index and len(live) == rows + 1 \
            and live.values[-1] == 1234, (
            "writes should maintain the built index in place")
        db.delete(course)
        for text in queries:
            assert _outcome(indexed, text) == _outcome(plain, text)


class TestTracingParity:
    """Tracing must be observationally free: rerunning every case with a
    tracer installed yields byte-identical results and identical row
    counters.  Anything else means instrumentation leaked into
    evaluation."""

    COUNTERS = ("extent_objects", "edge_traversals", "rows_generated",
                "patterns_subsumed", "patterns_out", "loop_levels")

    def _counters(self, processor: QueryProcessor) -> dict:
        metrics = processor.evaluator.last_metrics
        return {name: getattr(metrics, name) for name in self.COUNTERS}

    def test_traced_runs_match_untraced(self, executors):
        mismatches = []
        for case in range(CASES):
            seed = DB_SEED * 100_000 + case
            spec = _random_spec(random.Random(seed))
            text = spec.text()
            for label, processor in executors:
                plain = _outcome(processor, text)
                counters = self._counters(processor)
                obs.install(obs.Tracer())
                try:
                    traced = _outcome(processor, text)
                    traced_counters = self._counters(processor)
                    trace_id = processor.evaluator.last_metrics.trace_id
                finally:
                    obs.uninstall()
                if traced != plain:
                    mismatches.append(
                        f"seed={seed} {label}: outcome differs under "
                        f"tracing ({plain[0]} vs {traced[0]})")
                elif traced_counters != counters:
                    mismatches.append(
                        f"seed={seed} {label}: counters differ under "
                        f"tracing ({counters} vs {traced_counters})")
                elif plain[0] == "ok" and trace_id is None:
                    mismatches.append(
                        f"seed={seed} {label}: no trace_id recorded")
                if len(mismatches) >= 5:
                    break
            if len(mismatches) >= 5:
                break
        assert not mismatches, (
            f"{len(mismatches)} tracing-parity mismatch(es) over "
            f"{CASES} cases:\n" + "\n".join(mismatches))

    def test_trace_artifact_export(self, executors, tmp_path):
        """Trace a representative sample and save a Chrome trace; when
        ``DIFFERENTIAL_TRACE_OUT`` is set (nightly CI), write it there
        so the run uploads it as a workflow artifact."""
        samples = [
            "context Student * Section * Course",
            "context Course * Course_1 ^*",
            "context Department * Course * Section * Student "
            "where COUNT(Student by Course) > 25",
        ]
        tracer = obs.Tracer()
        obs.install(tracer)
        try:
            for _, processor in executors:
                for text in samples:
                    processor.execute(text)
        finally:
            obs.uninstall()
        roots = tracer.recorder.traces()
        assert len(roots) == len(samples) * len(executors)
        out = os.environ.get("DIFFERENTIAL_TRACE_OUT")
        path = out if out else str(tmp_path / "differential_trace.json")
        saved = obs.save_chrome_trace(path, roots)
        doc = json.loads(saved.read_text())
        assert doc["traceEvents"], "empty chrome trace"


class TestDifferentialSubscriptions:
    """Subscription-conformance tier: the seeded query corpus run as
    live subscriptions over a mutating database.  After **every** write
    event, folding ``initial ⊕ deltas`` in sequence order must equal a
    scratch re-evaluation of the same query, byte for byte through the
    canonical row serialization — and a write that leaves a
    subscription's class-granular version vector untouched must produce
    no frame and no wakeup at all."""

    # (owner class, association, target class) triples to link/unlink.
    ASSOCS = (
        ("Teacher", "teaches", "Section"),
        ("Student", "enrolled", "Section"),
        ("Section", "course", "Course"),
        ("Course", "prereq", "Course"),
    )

    def _fresh(self):
        db = generate_university(GeneratorConfig(), seed=DB_SEED).db
        engine = RuleEngine(db, compact=True)
        manager = SubscriptionManager(engine)
        scratch = QueryProcessor(Universe(db), compact=True)
        return db, engine, manager, scratch

    @staticmethod
    def _rows_dump(rows) -> bytes:
        return json.dumps([list(r) for r in canonical_rows(rows)],
                          sort_keys=True).encode()

    @staticmethod
    def _scratch_rows(scratch: QueryProcessor, text: str):
        subdb = scratch.execute(text).subdatabase
        return {tuple(None if v is None else v.value for v in p.values)
                for p in subdb.patterns}

    def _random_write(self, db, rng: random.Random, tick: int,
                      own: List) -> Optional[str]:
        """One random mutation over the university schema; retries on
        constraint violations so every call lands at most one event."""
        for _ in range(8):
            kind = rng.choice(("insert", "insert", "associate",
                               "associate", "dissociate",
                               "set_attribute", "delete", "batch"))
            try:
                if kind == "batch":
                    self._random_batch(db, rng, tick)
                elif kind == "insert":
                    cls = rng.choice(("Course", "Teacher", "Department",
                                      "Undergrad"))
                    label = f"s{tick}"
                    if cls == "Course":
                        oid = db.insert(cls, label,
                                        **{"c#": 9000 + tick,
                                           "title": f"T{tick}",
                                           "credit_hours": 3})
                    elif cls == "Teacher":
                        oid = db.insert(cls, label, name=label,
                                        **{"SS#": f"999-{tick:05d}"})
                    elif cls == "Department":
                        oid = db.insert(cls, label, name=f"Dept{tick}")
                    else:
                        oid = db.insert(cls, label)
                    own.append(oid)
                elif kind in ("associate", "dissociate"):
                    owner_cls, name, target_cls = rng.choice(self.ASSOCS)
                    owner = rng.choice(sorted(db.extent(owner_cls)))
                    target = rng.choice(sorted(db.extent(target_cls)))
                    if kind == "associate":
                        db.associate(owner, name, target)
                    else:
                        db.dissociate(owner, name, target)
                elif kind == "set_attribute":
                    course = rng.choice(sorted(db.extent("Course")))
                    db.set_attribute(course, "credit_hours",
                                     rng.randint(1, 5))
                else:  # delete — only objects this tier inserted
                    if not own:
                        continue
                    db.delete(own.pop(rng.randrange(len(own))).oid)
                return kind
            except ReproError:
                continue
        return None

    @staticmethod
    def _random_batch(db, rng: random.Random, tick: int) -> None:
        """2-4 mutations in one BATCH event: a Teacher inserted, linked
        to sections and deleted again within the batch (its rows must
        cancel out of every delta), around an attribute write whose
        effect must survive the fold."""
        with db.batch():
            teacher = db.insert("Teacher", f"s{tick}", name=f"s{tick}",
                                **{"SS#": f"999-{tick:05d}"})
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.5:
                    section = rng.choice(sorted(db.extent("Section")))
                    db.associate(teacher, "teaches", section)
                else:
                    course = rng.choice(sorted(db.extent("Course")))
                    db.set_attribute(course, "credit_hours",
                                     rng.randint(1, 5))
            db.delete(teacher.oid)

    def _fold(self, state, frames, failures, context):
        """Apply a drained frame list to the folded client-side state,
        checking the per-frame invariants on the way."""
        seqs = [f.seq for f in frames]
        if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
            failures.append(f"{context}: non-monotonic seqs {seqs}")
        for frame in frames:
            if frame.kind in ("resync", "snapshot"):
                state = set(frame.added)
            elif frame.kind == "delta":
                added, removed = set(frame.added), set(frame.removed)
                if added & state:
                    failures.append(
                        f"{context}: delta re-adds present rows")
                if not removed <= state:
                    failures.append(
                        f"{context}: delta removes absent rows")
                state = (state - removed) | added
            else:  # closed
                failures.append(f"{context}: unexpected closed frame "
                                f"({frame.error})")
        return state

    def test_fold_matches_scratch_after_every_event(self):
        db, engine, manager, scratch = self._fresh()
        baseline = db.listener_count()
        failures: List[str] = []
        tested = writes = batches = 0
        tick = 0
        own: List = []
        for case in range(CASES):
            seed = DB_SEED * 500_000 + case
            rng = random.Random(seed)
            text = _random_spec(rng).text()
            try:
                scratch.execute(text)
            except ReproError:
                continue  # both sides must reject: skip uniformly
            sub = manager.subscribe(text)
            state = set(sub.initial.added)
            if self._rows_dump(state) != self._rows_dump(
                    self._scratch_rows(scratch, text)):
                failures.append(f"seed={seed} {text!r}: initial "
                                "snapshot differs from scratch")
            for _ in range(rng.randint(2, 5)):
                tick += 1
                vec_before = (db.version_vector(sub.footprint)
                              if not sub.footprint.everything else None)
                wakeups_before = sub.counters["wakeups"]
                kind = self._random_write(db, rng, tick, own)
                if kind is None:
                    continue
                writes += 1
                batches += kind == "batch"
                if vec_before is not None \
                        and db.version_vector(sub.footprint) == vec_before:
                    if sub.counters["wakeups"] != wakeups_before:
                        failures.append(
                            f"seed={seed} {text!r}: spurious wakeup on "
                            "unrelated-class write")
                    if sub.pending():
                        failures.append(
                            f"seed={seed} {text!r}: frame emitted for "
                            "unrelated-class write")
                state = self._fold(state, sub.poll(), failures,
                                   f"seed={seed} {text!r}")
                if self._rows_dump(state) != self._rows_dump(
                        self._scratch_rows(scratch, text)):
                    failures.append(
                        f"seed={seed} {text!r}: fold != scratch after "
                        f"write {tick} "
                        f"(incremental={sub.incremental})")
                if len(failures) >= 5:
                    break
            manager.unsubscribe(sub.id)
            tested += 1
            if len(failures) >= 5:
                break
        assert tested >= min(CASES * 2 // 3, 60), (
            f"only {tested} of {CASES} cases were subscribable")
        assert writes >= tested, "write generator produced too few events"
        assert batches, "write generator produced no BATCH event"
        assert not failures, (
            f"{len(failures)} subscription-conformance failure(s) over "
            f"{tested} cases / {writes} writes:\n" + "\n".join(failures))
        assert manager.active_count == 0
        assert db.listener_count() == baseline, "leaked a db listener"

    def test_unrelated_class_writes_never_wake_subscribers(self):
        """Directed version of the wakeup check: a Teacher * Section
        subscription sits through a storm of Department/Course writes
        without a single wakeup or frame."""
        db, engine, manager, scratch = self._fresh()
        sub = manager.subscribe("context Teacher * Section")
        assert sub.footprint.extents == {"Section", "Teacher"}
        assert sub.footprint.links == {("Teacher", "teaches")}
        for tick in range(25):
            db.insert("Department", f"u{tick}", name=f"D{tick}")
            db.insert("Course", f"uc{tick}",
                      **{"c#": 7000 + tick, "title": "X",
                         "credit_hours": 3})
        assert sub.counters["wakeups"] == 0
        assert sub.counters["skipped_unrelated"] == 50
        assert sub.pending() == 0 and sub.poll() == []
        manager.unsubscribe(sub.id)

    def test_incremental_and_scratch_paths_both_exercised(self):
        """The corpus must cover both delta paths, or the tier silently
        tests only one implementation."""
        db, engine, manager, scratch = self._fresh()
        modes = set()
        for case in range(CASES):
            rng = random.Random(DB_SEED * 500_000 + case)
            text = _random_spec(rng).text()
            try:
                sub = manager.subscribe(text)
            except ReproError:
                continue
            modes.add(sub.incremental)
            manager.unsubscribe(sub.id)
            if modes == {True, False}:
                return
        raise AssertionError(f"only {modes} delta paths generated")


class TestDifferentialFootprints:
    """Footprint tier: seeded random rule *stacks* (chains, braces,
    ``!``, ``^*``/``^N`` loops, COUNT where-clauses, rules reading
    rules) under interleaved random writes of every kind — including
    BATCH blocks, a cascading DELETE through a composition link and one
    SCHEMA change.  After **every** write, the footprint-maintained
    engine under each of the three controllers must render every target
    byte-identically to a fresh engine that derives everything from
    scratch with the set-based executor.  A target the write's
    footprint test spares is therefore proven unchanged, not assumed."""

    CONTROLLERS = ("result", "rule", "incremental")
    ASSOCS = TestDifferentialSubscriptions.ASSOCS + (
        ("Student", "Major", "Department"),
        ("Department", "staff", "Teacher"),
    )

    @staticmethod
    def _fresh_db():
        """The generated University plus one composition link
        (Department --staff--> Teacher), so that deleting a department
        cascades into teachers and silently drops their ``teaches``
        links.  No generated chain crosses Department--Teacher, so
        existing resolutions are untouched."""
        db = generate_university(GeneratorConfig(), seed=DB_SEED).db
        db.schema.add_composition("Department", "Teacher", name="staff")
        return db

    @staticmethod
    def _rule_stack(rng: random.Random) -> List[str]:
        """2-3 base rules drawn from the query generator, then 1-2 rules
        reading one of them (the closure property)."""
        rules: List[str] = []
        plain: List[Tuple[str, str, str]] = []  # (target, first, last)
        attempts = 0
        while len(rules) < rng.randint(2, 3) and attempts < 40:
            attempts += 1
            spec = _random_spec(rng)
            if len(spec.chain) < 2 and spec.loop is None:
                continue
            target = f"B{len(rules)}"
            body = spec.text()[len("context "):]
            if spec.loop is not None:
                if len(spec.chain) != 1:
                    continue  # only `Course * Course_1 ^N` is a cycle
                rules.append(f"if context {body} "
                             f"then {target} (Course, Course_)")
                continue
            first, last = spec.chain[0], spec.chain[-1]
            rules.append(f"if context {body} then {target} "
                         f"({first}, {last})")
            plain.append((target, first, last))
        for index in range(rng.randint(1, 2)):
            if not plain:
                break
            source, first, last = rng.choice(plain)
            tail = rng.choice(ADJACENT[last])
            if tail == first:
                continue
            op = "!" if rng.random() < 0.2 else "*"
            cond = ""
            if first in CONDITIONS and rng.random() < 0.3:
                cond = f"[{rng.choice(CONDITIONS[first])}]"
            where = ""
            if op == "*" and rng.random() < 0.3:
                where = (f" where COUNT({tail} by {source}:{first}) "
                         f"> {rng.randint(0, 2)}")
            rules.append(
                f"if context {source}:{first}{cond} * {source}:{last} "
                f"{op} {tail}{where} then S{index} ({first}, {tail})")
        return rules

    def _engines(self, db, rules: List[str], rng: random.Random
                 ) -> List[Tuple[str, RuleEngine]]:
        from repro.rules.control import EvaluationMode
        modes = (EvaluationMode.PRE_EVALUATED,
                 EvaluationMode.POST_EVALUATED)
        engines = []
        for controller in self.CONTROLLERS:
            engine = RuleEngine(db, controller=controller)
            for text in rules:
                mode = None if controller == "rule" else rng.choice(modes)
                engine.add_rule(text, mode=mode)
            engines.append((controller, engine))
        return engines

    @staticmethod
    def _render(engine: RuleEngine, name: str):
        try:
            return ("ok", _dump(engine.derive(name)))
        except ReproError as exc:
            return ("error", type(exc).__name__)

    def _oracle(self, db, rules: List[str]) -> Dict[str, tuple]:
        """Everything derived from scratch by a fresh set-based engine
        (detached again, so it never hears later writes)."""
        oracle = RuleEngine(db, compact=False)
        try:
            for text in rules:
                oracle.add_rule(text)
            return {name: self._render(oracle, name)
                    for name in oracle.target_names}
        finally:
            db.remove_listener(oracle._on_update)

    def _compare(self, engines, db, rules, context: str,
                 failures: List[str]) -> None:
        expected = self._oracle(db, rules)
        for label, engine in engines:
            for name, want in expected.items():
                got = self._render(engine, name)
                if got != want:
                    failures.append(
                        f"{context}: {label} controller renders {name} "
                        f"as {got[0]} != scratch {want[0]} "
                        f"(footprint {engine.footprint(name).describe()})")

    def _one_write(self, db, rng: random.Random, tick: int,
                   own: List, hot) -> Optional[str]:
        """One random mutation; retries on constraint violations.
        Two link and attribute writes in three land inside ``hot`` (the
        union of the stack's footprints) — a write nobody reads proves
        nothing."""
        for _ in range(8):
            kind = rng.choice(("insert", "insert", "associate",
                               "associate", "dissociate",
                               "set_attribute", "set_attribute",
                               "delete"))
            try:
                if kind == "insert":
                    cls = rng.choice(("Course", "Teacher", "Department",
                                      "Undergrad", "Section", "TA"))
                    label = f"f{tick}_{len(own)}"
                    attrs: Dict[str, object] = {}
                    if cls == "Course":
                        attrs = {"c#": 9000 + tick, "title": label,
                                 "credit_hours": 3}
                    elif cls in ("Teacher", "TA"):
                        attrs = {"name": label, "degree": "PhD"}
                    elif cls == "Department":
                        attrs = {"name": label, "college": "College1"}
                    elif cls == "Section":
                        attrs = {"section#": 1, "textbook": "Book3"}
                    own.append(db.insert(cls, label, **attrs).oid)
                elif kind in ("associate", "dissociate"):
                    read = [assoc for assoc in self.ASSOCS
                            if assoc[:2] in hot.links]
                    owner_cls, name, target_cls = rng.choice(
                        read if read and rng.random() < 0.67
                        else self.ASSOCS)
                    owner = rng.choice(sorted(db.extent(owner_cls)))
                    target = rng.choice(sorted(db.extent(target_cls)))
                    if name == "prereq" and owner <= target:
                        # Keep the prerequisite graph acyclic (edges
                        # point from newer to older courses).
                        owner, target = target, owner
                    if kind == "associate" and owner != target:
                        db.associate(owner, name, target)
                    elif kind == "dissociate":
                        linked = sorted(db.linked(
                            owner, db.schema.entity_association(
                                db.entity(owner).cls, name)))
                        if not linked:
                            continue
                        db.dissociate(owner, name, rng.choice(linked))
                    else:
                        continue
                elif kind == "set_attribute":
                    # Own and inherited attributes, the latter written
                    # through subclass instances.
                    table = (
                        ("Course", "credit_hours", rng.randint(1, 5)),
                        ("Course", "c#", rng.choice((1500, 5500))),
                        ("TA", "GPA", rng.choice((2.0, 3.5))),
                        ("Grad", "GPA", rng.choice((2.0, 3.5))),
                        ("Faculty", "degree", rng.choice(("PhD", "MS"))),
                        ("Faculty", "rank", rng.choice(("Full", "Asst"))),
                        ("Faculty", "name", f"n{tick}"),
                        ("Department", "college",
                         rng.choice(("College1", "College2"))),
                        ("Section", "textbook",
                         rng.choice(("Book3", "Book9"))),
                        ("Section", "section#", rng.randint(1, 2)),
                        ("Transcript", "grade", rng.choice((2.0, 3.5))),
                        ("Transcript", "letter", rng.choice("AB")),
                    )
                    names = {name for _, name in hot.attrs}
                    read = [row for row in table if row[1] in names]
                    cls, attr, value = rng.choice(
                        read if read and rng.random() < 0.67 else table)
                    db.set_attribute(rng.choice(sorted(db.extent(cls))),
                                     attr, value)
                else:
                    if not own:
                        continue
                    oid = own.pop(rng.randrange(len(own)))
                    if db.has(oid):  # may be gone by an earlier cascade
                        db.delete(oid)
                    else:
                        continue
                return kind
            except ReproError:
                continue
        return None

    def _write(self, db, rng: random.Random, tick: int,
               own: List, hot) -> Optional[str]:
        """A single write, or (one time in five) a BATCH of 2-3."""
        if rng.random() >= 0.2:
            return self._one_write(db, rng, tick, own, hot)
        kinds = []
        with db.batch():
            for part in range(rng.randint(2, 3)):
                kinds.append(self._one_write(db, rng, tick * 10 + part,
                                             own, hot))
        return "batch" if any(kinds) else None

    def _cascade(self, db, tick: int) -> None:
        """Delete a department whose staff (composition parts) teach:
        the cascade deletes the teachers, which silently drops their
        ``teaches`` links — several DELETE events, no DISSOCIATE."""
        dept = db.insert("Department", f"casc{tick}", name=f"casc{tick}",
                         college="College2")
        sections = sorted(db.extent("Section"))
        for index in range(2):
            teacher = db.insert("Teacher", f"casc{tick}_{index}",
                                name=f"casc{tick}_{index}", degree="PhD")
            db.associate(dept, "staff", teacher)
            db.associate(teacher, "teaches", sections[index])
        db.delete(dept.oid)

    def test_footprint_engines_match_scratch_after_every_write(self):
        from repro.model.evolution import drop_association
        cases = max(CASES // 10, 6)
        failures: List[str] = []
        writes = spared = tested = 0
        kinds_seen = set()
        for case in range(cases):
            seed = DB_SEED * 700_000 + case
            rng = random.Random(seed)
            db = self._fresh_db()
            rules = self._rule_stack(rng)
            # Keep only what derives cleanly up front: a rule that
            # raises would raise out of every write's forward pass.
            baseline = self._oracle(db, rules)
            kept = []
            for text in rules:
                name = text.split(" then ")[1].split()[0]
                reads = [src for src in baseline
                         if f"{src}:" in text and src != name]
                if baseline[name][0] == "ok" and all(
                        any(k.split(" then ")[1].split()[0] == src
                            for k in kept) for src in reads):
                    kept.append(text)
            rules = kept
            if len(rules) < 2:
                continue
            tested += 1
            engines = self._engines(db, rules, rng)
            context = f"seed={seed} rules={rules!r}"
            self._compare(engines, db, rules, f"{context} initially",
                          failures)
            hot = EMPTY
            for name in engines[0][1].target_names:
                hot |= engines[0][1].footprint(name)
            own: List = []
            steps = rng.randint(8, 12)
            # The schema change drops the composition link the
            # cascade needs, so it comes second.
            cascade_at, schema_at = sorted(rng.sample(range(steps), 2))
            for step in range(steps):
                tick = case * 100 + step
                if step == cascade_at:
                    self._cascade(db, tick)
                    kind = "cascade"
                elif step == schema_at:
                    drop_association(db, "Department", "staff")
                    kind = "schema"
                else:
                    kind = self._write(db, rng, tick, own, hot)
                if kind is None:
                    continue
                writes += 1
                kinds_seen.add(kind)
                self._compare(engines, db, rules,
                              f"{context} after write {step} ({kind})",
                              failures)
                if len(failures) >= 5:
                    break
            spared += sum(engine.stats.refreshes_skipped_footprint
                          for _, engine in engines)
            for _, engine in engines:
                db.remove_listener(engine._on_update)
            if len(failures) >= 5:
                break
        assert tested >= cases // 2, (
            f"only {tested} of {cases} rule stacks were usable")
        assert writes >= tested * 4, "write generator produced too little"
        assert {"batch", "cascade", "schema", "associate",
                "set_attribute", "insert"} <= kinds_seen, kinds_seen
        assert spared > 0, ("no write was ever spared by a footprint: "
                            "the tier is vacuous")
        assert not failures, (
            f"{len(failures)} footprint-parity failure(s) over {tested} "
            f"stacks / {writes} writes:\n" + "\n".join(failures))

    def test_generalization_cases_by_construction(self):
        """The three ways a class-level intuition goes wrong: a link
        declared on a superclass traversed through a subclass, an
        inherited attribute written through a subclass instance, and a
        DELETE whose only effect on a target is a removed link."""
        db = self._fresh_db()
        rules = [
            # Student.Major, traversed as Grad * Department.
            "if context Grad * Department then Grad_dept (Grad, Department)",
            # Student.GPA read through Grad; Person.name through Teacher.
            "if context Grad[GPA >= 3.0] * Section "
            "then Good_grads (Grad)",
            "if context Teacher[name = 'Renamed'] * Section "
            "then Renamed (Teacher)",
            # Section is not even a target class here.
            "if context Teacher * Section then Busy (Teacher)",
        ]
        engines = self._engines(db, rules, random.Random(DB_SEED))
        failures: List[str] = []
        depts = sorted(db.extent("Department"))
        ta = sorted(db.extent("TA"))[0]
        major = db.schema.entity_association(db.entity(ta).cls, "Major")
        for dept in db.linked(ta, major):
            db.dissociate(ta, "Major", dept)
            self._compare(engines, db, rules, "TA drops its Major",
                          failures)
        db.associate(ta, "Major", depts[-1])
        self._compare(engines, db, rules, "TA majors (Student.Major)",
                      failures)
        for gpa in (1.0, 3.9):
            db.set_attribute(ta, "GPA", gpa)
            self._compare(engines, db, rules,
                          f"TA.GPA = {gpa} (Student.GPA)", failures)
        faculty = next(oid for oid in sorted(db.extent("Faculty"))
                       if db.linked(oid, db.schema.entity_association(
                           "Faculty", "teaches")))
        db.set_attribute(faculty, "name", "Renamed")
        self._compare(engines, db, rules, "Faculty.name (Person.name)",
                      failures)
        teaches = db.schema.entity_association("Faculty", "teaches")
        for section in sorted(db.linked(faculty, teaches)):
            db.delete(section)
            self._compare(engines, db, rules,
                          "Section deleted under its teacher", failures)
        assert not failures, "\n".join(failures)
        for _, engine in engines:
            busy = {p.values[0] for p in engine.derive("Busy").patterns}
            assert faculty not in busy


class TestDifferentialSharedSnapshots:
    """Shared-snapshot tier: several sessions pinned at different
    versions of one mutating database, all sharing the live universe's
    event-maintained intern tables, CSR and value indexes copy-on-write.
    Writes are the footprint tier's (INSERT / SET_ATTRIBUTE / DELETE /
    ASSOCIATE / DISSOCIATE / BATCH, one composition cascade, one SCHEMA
    change), with value indexes declared and dropped between pins.
    After **every** write, every open session must answer byte for byte
    what the set-based oracle answered on the version it pinned, and a
    freshly pinned session what the oracle answers on the live state.
    Sessions ask a different sample of the queries each time, so old
    pins keep missing structures: built through the live store while
    the stamps stand, privately once they have moved."""

    SESSIONS = 3
    INDEXED = TestDifferentialIndexes.INDEXED

    @staticmethod
    def _queries(rng: random.Random) -> List[str]:
        """Five corpus queries plus four anchored on an indexable
        condition over the classes the writes insert into and update:
        two bare selections (a fresh, unlinked object shows up nowhere
        else), one ``*`` and one ``!`` hop (the complement is taken
        over the whole interned target extent)."""
        texts: List[str] = []
        while len(texts) < 5:
            text = _random_spec(rng).text()
            if text not in texts:
                texts.append(text)
        written = ("Course", "Teacher", "Department", "Section")
        for index, cls in enumerate(rng.sample(written, 4)):
            text = f"context {cls}[{rng.choice(CONDITIONS[cls])}]"
            if index >= 2:
                text += (f" {'*!'[index - 2]} "
                         f"{rng.choice(ADJACENT[cls])}")
            texts.append(text)
        return texts

    @staticmethod
    def _oracle(db, queries: List[str]) -> Dict[str, tuple]:
        """Set-based answers over a universe of its own — no structure
        in common with the engine or its sessions."""
        scratch = QueryProcessor(Universe(db), compact=False)
        return {text: _outcome(scratch, text) for text in queries}

    def test_open_sessions_match_oracle_on_their_pinned_version(self):
        from repro.model.evolution import drop_association
        writer = TestDifferentialFootprints()
        expired = ("error", "SnapshotExpiredError")
        cases = max(CASES // 10, 6)
        failures: List[str] = []
        kinds_seen = set()
        totals = dict.fromkeys(("adopted", "forked", "built_shared",
                                "built_private"), 0)
        writes = 0
        for case in range(cases):
            seed = DB_SEED * 800_000 + case
            rng = random.Random(seed)
            db = writer._fresh_db()
            engine = RuleEngine(db)
            declared = set(rng.sample(self.INDEXED, 6))
            for cls, attr in sorted(declared):
                engine.universe.declare_index(cls, attr)
            queries = self._queries(rng)
            hot = EMPTY
            for text in queries:
                try:
                    query = parse_query(text)
                    hot |= footprint_of(chain_terms(query.context.chain),
                                        query.where, db.schema)
                except ReproError:
                    pass
            #: (processor, oracle answers at its pin, pinned version)
            sessions: List[Tuple[QueryProcessor, Dict[str, tuple], int]] = []

            def pin():
                sessions.append((engine.snapshot_session(),
                                 self._oracle(db, queries), db.version))

            def compare(session, texts, context, may_expire=False):
                processor, expected, version = session
                for text in texts:
                    got = _outcome(processor, text)
                    if got != expected[text] and \
                            not (may_expire and got == expired):
                        failures.append(
                            f"seed={seed} {context}: session pinned at "
                            f"{version} answers {text!r} as {got[0]}"
                            f"{'[' + got[1] + ']' if got[0] == 'error' else ''}"
                            f", oracle at that version {expected[text][0]}")

            pin()
            compare(sessions[0], rng.sample(queries, 4), "initially")
            own: List = []
            steps = rng.randint(8, 12)
            cascade_at, schema_at = sorted(rng.sample(range(steps), 2))
            for step in range(steps):
                tick = case * 100 + step
                if rng.random() < 0.3:
                    # Declarations move between pins: open sessions
                    # keep the ones they pinned.
                    pair = rng.choice(self.INDEXED)
                    if pair in declared:
                        declared.discard(pair)
                        engine.universe.drop_index(*pair)
                    else:
                        declared.add(pair)
                        engine.universe.declare_index(*pair)
                if step == cascade_at:
                    writer._cascade(db, tick)
                    kind = "cascade"
                elif step == schema_at:
                    drop_association(db, "Department", "staff")
                    kind = "schema"
                else:
                    kind = writer._write(db, rng, tick, own, hot)
                if kind is None:
                    continue
                writes += 1
                kinds_seen.add(kind)
                context = f"after write {step} ({kind})"
                for session in sessions:
                    # A SCHEMA event expires what a pin has not read
                    # yet (the documented limit of the protocol).
                    compare(session, rng.sample(queries, 3), context,
                            may_expire=kind == "schema")
                if kind == "schema":
                    for session in sessions:
                        session[0].universe.close()
                    sessions.clear()
                pin()
                # Half the queries now; the rest this pin first asks
                # when later writes have moved the live store on.
                compare(sessions[-1], rng.sample(queries, 4),
                        f"fresh pin {context}")
                while len(sessions) > self.SESSIONS:
                    victim = sessions.pop(rng.randrange(len(sessions) - 1))
                    victim[0].universe.close()
                if len(failures) >= 5:
                    break
            for name, count in engine.universe.compact.stats().items():
                if name in totals:
                    totals[name] += count
            for session in sessions:
                session[0].universe.close()
            db.remove_listener(engine._on_update)
            if len(failures) >= 5:
                break
        assert not failures, (
            f"{len(failures)} shared-snapshot mismatch(es) over "
            f"{writes} writes:\n" + "\n".join(failures))
        assert writes >= cases * 4, "write generator produced too little"
        assert {"batch", "cascade", "schema", "associate", "dissociate",
                "set_attribute", "insert", "delete"} <= kinds_seen, \
            kinds_seen
        assert all(totals.values()), (
            f"a sharing path was never taken: {totals} — tier vacuous")
