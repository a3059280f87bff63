"""The four workloads.

Each workload builds its corpus from ``generate_university``, plays a
seeded schedule against the program, checks every answer, and reports
latency samples per operation class.  Why each exists is in its class
docstring (and in ``BENCHMARK.json``); later issues refer to them by
``name``.

Load model: the generator is this one process.  Served workloads are
*closed loop* — a ``ServiceClient`` blocks for its reply, which is how
the shell, the ``--connect`` REPL and every example use the service —
with 2 connections (``nproc`` is 2 on the reference box), each on a
thread of its own, against ``ServiceConfig(max_concurrency=2)``,
otherwise defaults: 1 thread worker, ``cache_bytes=0``, compact
executor, cost planner.  The WAL
flush policy is the backend default (``sync_every=1``: every record is
fsynced before the write is acknowledged).  ``BUSY`` sheds, budget
trips, errors and wrong answers count as failures against the number
attempted and never enter a latency sample.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import corpora
import inventory as inv
from repro.rules.control import EvaluationMode
from repro.rules.engine import RuleEngine
from repro.service import QueryService, ServiceClient, ServiceConfig
from repro.storage import open_backend
from repro.storage.session import session_to_dict

clock = time.perf_counter_ns

#: Value indexes every served workload declares.
INDEXES = [("Student", "name"), ("Student", "GPA")]
#: The live query connection B of ``served-mixed`` holds.
SUBSCRIPTION = "context Student[GPA > 3.9]"
GPA_ABOVE, GPA_BELOW = 3.95, 3.0
#: Operations of each stream that enter ``bench.schedule.sha256``: a
#: prefix every run reaches (a run that does not fails), so the same
#: seed hashes the same whatever the run's length.
HASHED_OPS = 16


# ----------------------------------------------------------------------
# Plumbing shared by the workloads
# ----------------------------------------------------------------------

class Budget:
    """How long one slice of the schedule runs: until a deadline, or for
    a fixed number of operations per stream (``--ops``, used where exact
    counters must repeat)."""

    def __init__(self, seconds: Optional[float] = None,
                 ops: Optional[int] = None):
        self.ops = ops
        self.deadline = None if seconds is None \
            else time.perf_counter() + seconds

    def more(self, done: int) -> bool:
        if self.ops is not None:
            return done < self.ops
        return time.perf_counter() < self.deadline


class Recorder:
    """Latency samples and failures of one stream of operations in one
    slice of the schedule."""

    def __init__(self) -> None:
        #: (class, name, start_ns, end_ns) of every correct operation.
        self.samples: List[Tuple[str, str, int, int]] = []
        self.attempted = 0
        self.failures: List[str] = []
        #: (question, rows) seen, for the inventory.<q>.rows metrics.
        self.rows: Dict[str, int] = {}
        #: Derived-target queries issued (for rules.rederive_ratio).
        self.derived_queries = 0
        #: Clock readings around the stream's loop.
        self.began = self.ended = 0

    def fail(self, cls: str, name: str, why: str) -> None:
        self.failures.append(f"{cls}/{name}: {why}")


class Stream:
    """A seeded source of operations that digests what it hands out.

    Operation *kinds* are dealt from shuffled blocks (:meth:`deal`), not
    drawn independently: every block holds each kind exactly its share
    of times, so any second of the schedule has the same composition
    and throughput does not ride on how many expensive operations one
    window happened to draw.  Keys and targets are drawn freely.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._hash = hashlib.sha256()
        self.drawn = 0
        self._dealt: Dict[int, List[str]] = {}

    def deal(self, block: Dict[str, int]) -> str:
        """The next kind from ``block`` (kind -> times per block)."""
        left = self._dealt.setdefault(id(block), [])
        if not left:
            left.extend(kind for kind, times in block.items()
                        for _ in range(times))
            self.rng.shuffle(left)
        return left.pop()

    def note(self, *op: Any) -> None:
        if self.drawn < HASHED_OPS:
            self._hash.update(repr(op).encode())
        self.drawn += 1


def zipf_index(rng: random.Random, n: int) -> int:
    """A rank in ``[0, n)`` with ``P(rank <= r)`` proportional to
    ``log r`` — Zipf with exponent 1, by inverse transform."""
    return min(n - 1, int(n ** rng.random()) - 1)


def session_digest(engine) -> str:
    """Digest of the canonical session document (the same document a
    checkpoint stores, so equal digests mean byte-identical state)."""
    doc = session_to_dict(engine, False)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Base class: corpus, inventory, the loop that plays a slice."""

    name = ""
    why = ""
    corpus = "u20k"
    questions = inv.READ_QUESTIONS
    #: Connections to the service (0: the engine is called in-process).
    connections = 0
    #: Streams of operations played side by side, each on its own thread
    #: (and, when served, its own connection).
    operators = 1

    def __init__(self, seed: int, preset: Optional[str], workdir: Path,
                 tracer=None):
        self.seed = seed
        self.preset = preset or self.corpus
        self.config = corpora.PRESETS[self.preset]
        self.workdir = workdir
        #: Wraps each timed call: the root ``bench.op`` span of the
        #: traced pass, a plain call otherwise.
        self.invoke: Callable = tracer.wrap(_call, "bench.op") \
            if tracer is not None else _call
        self.data = None
        self.engine: Optional[RuleEngine] = None
        self.inventory: Optional[inv.Inventory] = None
        self.generate_s = 0.0
        self.corpus_stats: Dict[str, int] = {}
        #: Problems found by the end-of-run checks (empty: all passed).
        self.problems: List[str] = []
        self.user_bytes = 0
        self.extra: Dict[str, float] = {}
        self.streams: List[Stream] = []
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ------------------------------------------------------

    def generate(self) -> None:
        started = time.perf_counter()
        self.data = corpora.build(self.preset, self.seed)
        self.generate_s = time.perf_counter() - started
        self.corpus_stats = self.data.db.stats()

    def rules(self) -> List[Tuple[str, str]]:
        return [inv.R1]

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self.engine is not None:
            self.engine.close()
        self.engine = self.data = None

    def prepare(self) -> None:
        """Untimed: expected answers from the oracle, fresh streams."""
        self.inventory = inv.Inventory(self.data, self.rules(),
                                       self.questions)
        self.inventory.build(self.data.db)
        self.streams = [Stream(self.seed * 16 + index)
                        for index in range(self.operators)]
        self._pool = ThreadPoolExecutor(self.operators)

    def run(self, budget: Budget) -> List[Recorder]:
        """Play one slice of the schedule, every stream on a thread of
        its own; one recorder per stream."""
        recorders = [Recorder() for _ in self.streams]
        for future in [self._pool.submit(self._play, index, rec, budget)
                       for index, rec in enumerate(recorders)]:
            future.result()
        return recorders

    def _play(self, index: int, rec: Recorder, budget: Budget) -> None:
        rec.began = clock()
        done = 0
        while budget.more(done):
            done += self.step(index, rec)
        rec.ended = clock()

    def step(self, index: int, rec: Recorder) -> int:
        """Play the next operations of stream ``index``; returns how
        many."""
        raise NotImplementedError

    def halfway(self) -> None:
        """Untimed hook between the two halves of the schedule."""

    def finish(self) -> None:
        """End-of-run checks; appends to :attr:`problems`."""

    def delta_latencies_ms(self) -> List[float]:
        """Write-to-subscriber latencies (only ``served-mixed`` has a
        subscriber)."""
        return []

    def counters(self) -> Dict[str, float]:
        """Cumulative public counters of the program, read before and
        after each traced slice."""
        db = self.data.db
        compact = self.engine.universe.compact
        cache = self.engine.processor.evaluator.result_cache.stats()
        out = {"model.events": db.version,
               "adj.appended": compact.indexes_appended,
               "adj.remapped": compact.indexes_remapped,
               "cache.hits": cache.get("hits", 0),
               "cache.misses": cache.get("misses", 0)}
        for key, value in self.engine.stats.snapshot().items():
            out[f"engine.{key}"] = value
        return out

    def schedule_digest(self) -> str:
        return hashlib.sha256("".join(
            stream._hash.hexdigest() for stream in self.streams
        ).encode()).hexdigest()

    # -- timing helpers -------------------------------------------------

    def timed(self, rec: Recorder, cls: str, name: str, fn: Callable,
              /, *args, **kwargs):
        """Run one operation under the clock.  Returns ``(ok, result,
        start, end)``; when it raised, ``ok`` is false and the failure
        is recorded.  The caller checks the result and calls
        :meth:`accept`."""
        rec.attempted += 1
        start = clock()
        try:
            result = self.invoke(fn, *args, **kwargs)
        except Exception as exc:  # a failed operation, not a crash
            rec.fail(cls, name, f"{type(exc).__name__}: {exc}")
            return False, None, start, clock()
        return True, result, start, clock()

    def accept(self, rec: Recorder, cls: str, name: str, start: int,
               end: int, got: inv.Expected, want: inv.Expected) -> bool:
        if got != want:
            rec.fail(cls, name, f"answered {got}, expected {want}")
            return False
        rec.samples.append((cls, name, start, end))
        rec.rows[name] = got[0]
        return True

    def draw_read(self, stream: Stream
                  ) -> Tuple[inv.Question, Optional[str]]:
        name = stream.deal(READ_BLOCK)
        question = self.inventory.questions[name]
        param = None
        pool = self.inventory.pools.get(name)
        if pool is not None:
            param = pool[self._perm[zipf_index(stream.rng, len(pool))]
                         if question.by_key is not None
                         else stream.rng.randrange(len(pool))]
        stream.note("read", name, param)
        return question, param

    def ask(self, question: inv.Question,
            param: Optional[str] = None) -> inv.Expected:
        """One question put to the engine in-process."""
        return inv.answer(self.engine.query(question.text(param),
                                            name=inv.RESULT_NAME))

    def warm_up(self, ask: Callable) -> None:
        """Part of set-up: ask each question once, so intern tables, CSR
        indexes and value indexes are built before the clock starts."""
        pools = inv.Inventory(self.data, self.rules(), self.questions).pools
        for question in self.questions:
            pool = pools.get(question.name)
            ask(question, pool[0] if pool else None)

    def _permute_keys(self) -> None:
        """Which students are popular is itself drawn from the seed."""
        count = len(self.data.all_of("Student"))
        self._perm = list(range(count))
        random.Random(self.seed ^ 0x5EED).shuffle(self._perm)

    def reask_inventory(self, ask: Callable[[inv.Question, Optional[str]],
                                            inv.Expected],
                        label: str) -> None:
        """Re-ask every enumerated question against a freshly built
        oracle on the final state."""
        final = inv.Inventory(self.data, self.rules(), self.questions)
        final.build(self.data.db, verify_keys=False)
        for question, param in final.asks():
            got = ask(question, param)
            want = final.expect(question.name, param)
            if got != want:
                self.problems.append(
                    f"{label}: {question.name}({param}) answered {got}, "
                    f"oracle says {want}")


def _call(fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------

#: The read mix of both served workloads, per block of 20 reads: 40 %
#: indexed point, 15 % indexed range, 15 % 3-chain, 10 % selective
#: 4-chain, 10 % backward-chained derived target, 10 % bounded loop.
READ_BLOCK = {"point": 8, "range": 3, "chain3": 3, "chain4": 2,
              "derived": 2, "loop3": 2}
#: Connection A of ``served-mixed``: 80 % reads, 20 % writes.
MIXED_BLOCK = {"read": 4, "write": 1}
#: Its writes, in equal shares.
MIXED_WRITES = {"insert_above": 1, "insert_below": 1, "set_gpa": 1,
                "delete": 1, "insert_teacher": 1}


class Served(Workload):
    """A ``QueryService`` in this process and blocking clients."""

    durable = False

    def setup(self) -> None:
        self.generate()
        self.engine = RuleEngine(self.data.db)
        for cls, attr in INDEXES:
            self.engine.universe.declare_index(cls, attr)
        inv.add_rules(self.engine, self.rules())
        config = ServiceConfig(port=0, max_concurrency=2)
        if self.durable:
            config.backend_path = str(self.workdir / "served-backend")
        self.service = QueryService(self.engine, config)
        self.service.start()
        self.clients = [ServiceClient(*self.service.address)
                        for _ in range(self.connections)]
        self._permute_keys()
        # Every operating connection warms its own pinned snapshot.
        for client in self.clients[:self.operators]:
            self.warm_up(functools.partial(self.ask_served, client=client))

    def teardown(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        self.clients = []
        if getattr(self, "service", None) is not None:
            self.service.stop()
            self.service = None
        shutil.rmtree(self.workdir / "served-backend", ignore_errors=True)
        super().teardown()

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["service.requests"] = self.service.counters["requests_total"]
        out["service.shed"] = self.service.counters["shed_total"]
        backend = self.service.backend
        if backend is not None:
            out["wal.bytes"] = backend.wal.size_bytes()
            out["wal.records"] = backend.wal.last_seq
        manager = self.service.streaming.stats().get("manager", {})
        out["subscribe.resyncs"] = manager.get("resyncs", 0)
        for sub in (self.service.streaming.manager.subscriptions()
                    if manager else []):
            out["subscribe.wakeups"] = sub.counters["wakeups"]
            out["subscribe.suppressed"] = sub.counters["skipped_unrelated"]
        return out

    def served_read(self, client: ServiceClient, rec: Recorder, cls: str,
                    question: inv.Question, param: Optional[str]) -> bool:
        rec.derived_queries += question.derived
        ok, reply, start, end = self.timed(
            rec, cls, question.name, client.query, question.text(param),
            name=inv.RESULT_NAME)
        if not ok:
            return False
        want = self.inventory.expect(question.name, param)
        got = (reply["patterns"], inv.digest(reply["rendered"]))
        return self.accept(rec, cls, question.name, start, end, got, want)

    def ask_served(self, question, param, client=None) -> inv.Expected:
        reply = (client or self.clients[0]).query(question.text(param),
                                                  name=inv.RESULT_NAME)
        return reply["patterns"], inv.digest(reply["rendered"])


class ServedRead(Served):
    """Read-only mix over two closed-loop connections."""

    name = "served-read"
    why = ("read-only mix on a pinned snapshot: service framing and oql "
           "parse/plan/probe/join/materialize dominate; a write-path "
           "change must show no movement here")
    connections = operators = 2

    def step(self, index: int, rec: Recorder) -> int:
        question, param = self.draw_read(self.streams[index])
        self.served_read(self.clients[index], rec, "read", question, param)
        return 1


class ServedMixed(Served):
    """The same reads with writes beside them, a WAL, and a subscriber.

    One request in five of connection A is a write.  The first read
    after a write is timed as class ``fresh_read`` (the read-your-own-
    write cost: the write dropped the session's pinned snapshot) and is
    left out of class ``read``.  Connection B holds one subscription and
    only consumes delta frames.  No write touches an object the
    inventory questions select, so their expected answers hold
    throughout; that every acknowledged write is visible is checked
    when the run ends.
    """

    name = "served-mixed"
    why = ("same reads with writes beside them, WAL and a subscriber: a write "
           "re-pins the session, so snapshot/intern/CSR/index rebuild, WAL "
           "append and delta fan-out are on the blocking path")
    connections = 2
    durable = True

    def setup(self) -> None:
        super().setup()
        self.own: List[Dict[str, Any]] = []     # students A inserted
        self.teachers = 0
        self.sent: List[Tuple[int, int, str]] = []   # (ns, oid, effect)
        self.frames: List[Tuple[int, dict]] = []     # (ns, delta frame)
        self.fresh = False      # whether A's next read follows a write
        self._stop = threading.Event()
        reply = self.clients[1].subscribe(SUBSCRIPTION)
        self.sub_id = reply["subscription"]
        self.folded = {tuple(row) for row in reply["rows"]}
        self._consumer = threading.Thread(target=self._consume)
        self._consumer.start()

    def _consume(self) -> None:
        client = self.clients[1]
        while not self._stop.is_set():
            frame = client.next_delta(self.sub_id, timeout=0.1)
            if frame is not None:
                self.frames.append((clock(), frame))

    def teardown(self) -> None:
        if getattr(self, "_consumer", None) is not None:
            self._stop.set()
            self._consumer.join()
            self._consumer = None
        super().teardown()

    # -- the schedule ---------------------------------------------------

    def step(self, index: int, rec: Recorder) -> int:
        stream, client = self.streams[0], self.clients[0]
        if stream.deal(MIXED_BLOCK) == "write":
            self._write(client, rec)
            self.fresh = True
        else:
            question, param = self.draw_read(stream)
            self.served_read(client, rec,
                             "fresh_read" if self.fresh else "read",
                             question, param)
            self.fresh = False
        return 1

    def _write(self, client, rec: Recorder) -> None:
        stream = self.streams[0]
        rng = stream.rng
        kind = stream.deal(MIXED_WRITES)
        alive = [s for s in self.own if s["alive"]]
        if kind in ("set_gpa", "delete") and not alive:
            kind = "insert_above"
        if kind in ("insert_above", "insert_below"):
            n = len(self.own)
            above = kind == "insert_above"
            record = {"kind": "insert", "cls": "Student",
                      "label": f"bs{n}",
                      "attrs": {"name": f"BenchS{n}", "SS#": f"9-{n:06d}",
                                "GPA": GPA_ABOVE if above else GPA_BELOW}}
            target = {"n": n, "above": above, "alive": True, "oid": None}
            effect = "added" if above else "none"
        elif kind == "insert_teacher":
            n = self.teachers
            record = {"kind": "insert", "cls": "Teacher",
                      "label": f"bt{n}",
                      "attrs": {"name": f"BenchT{n}", "SS#": f"8-{n:06d}",
                                "degree": "PhD"}}
            target, effect = None, "none"
        else:
            target = alive[rng.randrange(len(alive))]
            if kind == "set_gpa":
                record = {"kind": "set_attribute", "oid": target["oid"],
                          "name": "GPA",
                          "value": GPA_BELOW if target["above"]
                          else GPA_ABOVE}
                effect = "removed" if target["above"] else "added"
            else:
                record = {"kind": "delete", "oid": target["oid"]}
                effect = "removed" if target["above"] else "none"
        stream.note("write", kind, target["n"] if target else None)
        self.user_bytes += len(json.dumps(record, separators=(",", ":")))
        sent_at = clock()
        ok, reply, start, end = self.timed(rec, "write", kind,
                                           client.update, record)
        if not ok:
            return
        self.accept(rec, "write", kind, start, end,
                    (reply["applied"], ""), (1, ""))
        if kind == "insert_teacher":
            self.teachers += 1
            return
        if target["oid"] is None:
            target["oid"] = reply["results"][0]["oid"]
            self.own.append(target)
        elif kind == "set_gpa":
            target["above"] = not target["above"]
        else:
            target["alive"] = False
        if effect != "none":
            self.sent.append((sent_at, target["oid"], effect))

    # -- end-of-run checks ----------------------------------------------

    def delta_latencies_ms(self) -> List[float]:
        """Send-to-delta time of every write that changed the
        subscription's result, matched by the written object's OID."""
        arrivals: Dict[Tuple[int, str], List[int]] = {}
        for at, frame in self.frames:
            for effect in ("added", "removed"):
                for row in frame.get(effect, ()):
                    arrivals.setdefault((row[0], effect), []).append(at)
        out = []
        for sent_at, oid, effect in self.sent:
            times = arrivals.get((oid, effect))
            if times:
                out.append((times.pop(0) - sent_at) / 1e6)
        return out

    def finish(self) -> None:
        # B must have seen one delta per result-changing write.
        deadline = time.perf_counter() + 5.0
        while len(self.delta_latencies_ms()) < len(self.sent) \
                and time.perf_counter() < deadline:
            time.sleep(0.02)
        self._stop.set()
        self._consumer.join()
        self._consumer = None
        missing = len(self.sent) - len(self.delta_latencies_ms())
        if missing:
            self.problems.append(f"{missing} writes produced no delta "
                                 f"frame within 5 s")
        # initial (+) deltas must equal a from-scratch evaluation.
        folded = set(self.folded)
        for _, frame in self.frames:
            if frame["kind"] == "resync":
                folded = set()
            folded |= {tuple(row) for row in frame["added"]}
            folded -= {tuple(row) for row in frame["removed"]}
        with inv.oracle_engine(self.data.db) as scratch:
            result = scratch.query(SUBSCRIPTION)
            truth = {tuple(v.value for v in p.values)
                     for p in result.subdatabase.patterns}
        if folded != truth:
            self.problems.append(
                f"subscription fold differs from scratch evaluation "
                f"({len(folded ^ truth)} rows)")
        # Every acknowledged write must be visible to the connection
        # that made it, with no refresh asked for.
        client = self.clients[0]
        for student in self.own:
            gpa = "GPA > 3.9" if student["above"] else "GPA < 3.9"
            reply = client.query(
                f"context Student[name = 'BenchS{student['n']}' "
                f"and {gpa}]", name=inv.RESULT_NAME)
            if reply["patterns"] != (1 if student["alive"] else 0):
                self.problems.append(
                    f"write to bs{student['n']} is not visible")
        self.reask_inventory(self.ask_served, "final inventory")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------

#: What each write kind of ``embedded-deductive`` can change.
CAN_CHANGE = {
    "enrol": {"r2_suggest_offer"},
    "section": {"r1_teacher_course", "r2_suggest_offer",
                "r3_teacher_dept"},
    "prereq": {"tc_prereq_closure"},
}
#: Cycles between checks of all four targets against the oracle (the
#: cycles in between are checked for not changing what their write
#: cannot change).
ORACLE_EVERY = 8


class EmbeddedDeductive(Workload):
    """A rule stack behind an in-process engine, one write per cycle."""

    name = "embedded-deductive"
    why = ("rule stack R1, R2(COUNT), ^* closure, R3 reading R1, one small "
           "write then all four targets per cycle: rules derive/maintain "
           "and the oql loop evaluator do the work, service/storage none")
    corpus = "u10k"
    questions = inv.TARGET_QUESTIONS

    def rules(self):
        return inv.rule_stack(self.config)

    def setup(self) -> None:
        self.generate()
        self.engine = RuleEngine(self.data.db, controller="incremental")
        # R1 is kept current by delta maintenance; the others are
        # derived when a query needs them (result-oriented control).
        post = EvaluationMode.POST_EVALUATED
        inv.add_rules(self.engine, self.rules(),
                      {"R1": EvaluationMode.PRE_EVALUATED, "R2": post,
                       "TC": post, "R3": post})
        self.cycle = 0
        self.sections = 0
        self.extra_edge = None
        self.last: Dict[str, inv.Expected] = {}
        self.warm_up(self.ask)

    def step(self, index: int, rec: Recorder) -> int:
        """One cycle: a small write, then all four targets."""
        stream, db, data = self.streams[0], self.data.db, self.data
        rng = stream.rng
        kind = ("enrol", "section", "prereq")[self.cycle % 3]
        self.cycle += 1
        if kind == "enrol":
            student = rng.choice(data.all_of("Student"))
            section = rng.choice(data.all_of("Section"))
            stream.note(kind, student.oid.value, section.oid.value)
            write = lambda: db.associate(student, "enrolled", section)
        elif kind == "section":
            teacher = rng.choice(data.all_of("Teacher"))
            course = rng.choice(data.all_of("Course"))
            label = f"bsec{self.sections}"
            self.sections += 1
            stream.note(kind, teacher.oid.value, course.oid.value)

            def write():
                section = db.insert("Section", label,
                                    **{"section#": 9, "textbook": "Bench"})
                db.associate(teacher, "teaches", section)
                db.associate(section, "course", course)
        elif self.extra_edge is None:
            # A shortcut inside one block of the prerequisite ladder ...
            courses = data.all_of("Course")
            block = rng.randrange(len(courses) // corpora.PREREQ_BLOCK)
            upper = block * corpora.PREREQ_BLOCK \
                + rng.randrange(3, corpora.PREREQ_BLOCK)
            edge = self.extra_edge = (courses[upper], courses[upper - 3])
            stream.note(kind, "add", upper)
            write = lambda: db.associate(edge[0], "prereq", edge[1])
        else:
            # ... taken out again by the next prereq cycle, so the
            # closure stays the size it started at.
            edge, self.extra_edge = self.extra_edge, None
            stream.note(kind, "drop")
            write = lambda: db.dissociate(edge[0], "prereq", edge[1])
        ok, _, start, end = self.timed(rec, "write", kind, write)
        if ok:
            rec.samples.append(("write", kind, start, end))
        oracle = None
        if self.cycle % ORACLE_EVERY == 0:
            oracle = inv.oracle_answers(
                db, self.rules(), [(q, None) for q in self.questions])
        for question in self.questions:
            rec.derived_queries += 1
            ok, got, start, end = self.timed(rec, "read", question.name,
                                             self.ask, question)
            if not ok:
                continue
            want = got
            if oracle is not None:
                want = oracle[(question.name, None)][:2]
            elif question.name not in CAN_CHANGE[kind] \
                    and question.name in self.last:
                want = self.last[question.name]
            if self.accept(rec, "read", question.name, start, end, got,
                           want):
                self.last[question.name] = got
        return 1 + len(self.questions)

    def finish(self) -> None:
        self.reask_inventory(self.ask, "final inventory")


#: Write kinds of ``durable-ingest``, per block of 20: 45 % insert +
#: associate, 30 % set_attribute, 15 % delete, 10 % dissociate.
INGEST_WRITES = {"insert": 9, "set_gpa": 6, "delete": 3, "dissociate": 2}


class DurableIngest(Workload):
    """Writes with no reader, journaled, then checkpoint and recover."""

    name = "durable-ingest"
    why = ("write-only schedule on a warmed universe with a WAL, then "
           "checkpoint+recover: model mutators, event-granular index "
           "maintenance (O(extent) DELETE remap) and storage dominate")

    def setup(self) -> None:
        self.generate()
        self.engine = RuleEngine(self.data.db)
        for cls, attr in INDEXES:
            self.engine.universe.declare_index(cls, attr)
        inv.add_rules(self.engine, self.rules())
        self._permute_keys()
        # Warm the live universe, so that every write pays the
        # event-granular maintenance of what the reads built.
        self.warm_up(self.ask)
        self.root = self.workdir / "ingest-backend"
        self.backend = open_backend(self.root, "json")
        self.backend.attach(self.engine)
        self.students = list(self.data.all_of("Student"))
        self.enrolled: List[Tuple[Any, Any]] = []   # own (student, section)
        self.inserted = 0
        self.sync_point: Optional[Tuple[int, str]] = None

    def teardown(self) -> None:
        if getattr(self, "backend", None) is not None:
            self.backend.close()
            self.backend = None
        shutil.rmtree(self.workdir / "ingest-backend", ignore_errors=True)
        shutil.rmtree(self.workdir / "ingest-crash", ignore_errors=True)
        super().teardown()

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["wal.bytes"] = self.backend.wal.size_bytes()
        out["wal.records"] = self.backend.wal.last_seq
        return out

    def halfway(self) -> None:
        # The durability point: everything appended so far is fsynced;
        # remember where the log ends and what the database looks like,
        # then keep writing.
        self.backend.wal.sync()
        self.sync_point = (self.backend.wal.size_bytes(),
                           session_digest(self.engine))

    def step(self, index: int, rec: Recorder) -> int:
        stream, db = self.streams[0], self.data.db
        rng = stream.rng
        kind = stream.deal(INGEST_WRITES)
        if kind == "dissociate" and not self.enrolled:
            kind = "insert"
        if kind == "insert":
            n = self.inserted
            self.inserted += 1
            section = rng.choice(self.data.all_of("Section"))
            attrs = {"name": f"BenchS{n}", "SS#": f"9-{n:06d}",
                     "GPA": round(2.0 + rng.random() * 2.0, 2)}
            stream.note(kind, n, section.oid.value)
            self.user_bytes += len(json.dumps(attrs))

            def write():
                student = db.insert("Student", f"bs{n}", **attrs)
                db.associate(student, "enrolled", section)
                return student

            ok, student, start, end = self.timed(rec, "write", kind,
                                                 write)
            if ok:
                self.students.append(student)
                self.enrolled.append((student, section))
        elif kind == "set_gpa":
            student = rng.choice(self.students)
            value = round(2.0 + rng.random() * 2.0, 2)
            stream.note(kind, student.oid.value, value)
            self.user_bytes += len(json.dumps(value))
            ok, _, start, end = self.timed(rec, "write", kind,
                                           db.set_attribute, student.oid,
                                           "GPA", value)
        elif kind == "delete":
            student = self.students.pop(
                rng.randrange(len(self.students)))
            self.enrolled = [pair for pair in self.enrolled
                             if pair[0] is not student]
            stream.note(kind, student.oid.value)
            ok, _, start, end = self.timed(rec, "write", kind, db.delete,
                                           student.oid)
        else:
            student, section = self.enrolled.pop(
                rng.randrange(len(self.enrolled)))
            stream.note(kind, student.oid.value, section.oid.value)
            ok, _, start, end = self.timed(rec, "write", kind,
                                           db.dissociate, student,
                                           "enrolled", section)
        if ok:
            # The mutator returned with the backend listener attached:
            # the write is journaled and acknowledged.
            rec.samples.append(("write", kind, start, end))
        return 1

    def finish(self) -> None:
        backend, root = self.backend, self.root
        live = session_digest(self.engine)
        # Crash copy first (before the final checkpoint exists): the log
        # cut back to the sync point, i.e. without anything the OS had
        # not been asked to flush.
        crash = self.workdir / "ingest-crash"
        shutil.rmtree(crash, ignore_errors=True)
        shutil.copytree(root, crash)
        offset, digest_then = self.sync_point
        with open(crash / "wal.jsonl", "r+b") as handle:
            handle.truncate(offset)
        survivor = open_backend(crash, "json")
        try:
            if session_digest(survivor.recover()) != digest_then:
                self.problems.append(
                    "durability: state recovered from the log as flushed "
                    "at the sync point differs from the state then")
        finally:
            survivor.close()
        # checkpoint + WAL-tail recover of the live store.
        started = time.perf_counter()
        backend.checkpoint()
        self.extra["checkpoint_s"] = time.perf_counter() - started
        self.extra["checkpoint_bytes"] = max(
            path.stat().st_size for path in root.glob("checkpoint-*.json"))
        started = time.perf_counter()
        recovered = backend.recover()
        self.extra["recover_s"] = time.perf_counter() - started
        if session_digest(recovered) != live:
            self.problems.append("recover() is not byte-identical to the "
                                 "live database")
        self.extra["stored_bytes"] = sum(
            path.stat().st_size for path in root.iterdir())
        self.reask_inventory(self.ask, "final inventory")


WORKLOADS = {cls.name: cls for cls in (ServedRead, ServedMixed,
                                       EmbeddedDeductive, DurableIngest)}
