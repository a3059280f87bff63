"""The schema's memo of derived facts.

Every instance write asks the S-diagram for a class's generalization
closure, its visible attributes and the association it inherits by name;
:class:`~repro.model.schema.Schema` answers from a memo that each schema
edit replaces.  These tests hold the memo to a cold schema rebuilt from
the serialized S-diagram after every kind of edit, accepted or rejected,
and count the closure walks a whole corpus generation makes.
"""

import sys
import threading
import time
from collections import Counter

import pytest

from repro import QueryProcessor, Universe
from repro.errors import ConstraintViolationError, ReproError
from repro.model import evolution
from repro.model.database import Database
from repro.model.dclass import STRING
from repro.model.schema import Schema
from repro.storage.serialize import schema_from_dict, schema_to_dict
from repro.university import build_paper_database
from repro.university.generator import GeneratorConfig, generate_university

#: Every class and link name the edits below create or remove, beside
#: the university schema's own: the same questions are asked before and
#: after each edit, so a stale answer (or a stale miss) shows.
EXTRA_CLASSES = ("Visitor",)
EXTRA_NAMES = ("email", "chair", "parts", "book", "ghost")


def _ask(fn, *args):
    try:
        return fn(*args)
    except ReproError as exc:
        return type(exc).__name__


def answers(schema, classes, names):
    """Every memoized query of ``schema`` over ``classes`` × ``names``."""
    out = {}
    for cls in classes:
        attrs = _ask(schema.descriptive_attributes, cls)
        out[cls] = {
            "superclasses": _ask(schema.superclasses, cls),
            "subclasses": _ask(schema.subclasses, cls),
            "up": _ask(schema.up, cls),
            "down": _ask(schema.down, cls),
            "attributes": attrs if isinstance(attrs, str) else dict(attrs),
            "attribute": {n: _ask(schema.attribute, cls, n) for n in names},
            "association": {n: _ask(schema.entity_association, cls, n)
                            for n in names},
            "compositions": _ask(schema.compositions, cls),
            "is_subclass_of": {other: _ask(schema.is_subclass_of, cls,
                                           other) for other in classes},
        }
    return out


def cold(schema):
    return schema_from_dict(schema_to_dict(schema))


@pytest.fixture
def paper():
    data = build_paper_database()
    schema = data.db.schema
    classes = tuple(schema.eclass_names) + EXTRA_CLASSES
    names = tuple(sorted({link.name for link in schema.aggregations()})) \
        + EXTRA_NAMES

    def warm():
        return answers(schema, classes, names)

    def check():
        assert warm() == answers(cold(schema), classes, names)

    # Warm the memo on every event too, so an edit made of several
    # steps (a cascade, a tentative drop) meets warm entries at each.
    data.db.add_listener(lambda event: warm())
    warm()
    return data, schema, warm, check


class TestMemoMatchesColdSchema:
    def test_add_subclass(self, paper):
        data, schema, warm, check = paper
        schema.add_subclass("Teacher", "RA")
        check()
        assert "degree" in schema.descriptive_attributes("RA")

    def test_add_attribute_after_data_exists(self, paper):
        data, schema, warm, check = paper
        schema.add_attribute("Person", "email", STRING)
        check()
        data.db.set_attribute(data.oid("ta1"), "email", "q@u.edu")

    def test_add_association_and_composition_after_data_exists(self,
                                                               paper):
        data, schema, warm, check = paper
        schema.add_association("Department", "Faculty", name="chair",
                               many=False)
        check()
        schema.add_composition("Course", "Section", name="parts")
        check()
        assert schema.compositions("Course")

    def test_drop_association(self, paper):
        data, schema, warm, check = paper
        evolution.drop_association(data.db, "Teacher", "teaches")
        check()
        evolution.drop_association(data.db, "Section", "textbook")
        check()

    def test_drop_eclass_with_cascade(self, paper):
        data, schema, warm, check = paper
        evolution.drop_eclass(data.db, "RA", cascade=True)
        check()
        evolution.drop_eclass(data.db, "Transcript", cascade=True)
        check()

    def test_drop_eclass_without_links(self, paper):
        data, schema, warm, check = paper
        schema.add_eclass("Visitor")
        schema.add_subclass("Person", "Visitor")
        warm()
        evolution.drop_eclass(data.db, "Visitor")
        check()

    def test_drop_subclass_rejected_restores(self, paper):
        data, schema, warm, check = paper
        with pytest.raises(ConstraintViolationError):
            evolution.drop_subclass(data.db, "Teacher", "TA")
        check()
        assert "Teacher" in schema.superclasses("TA")

    def test_drop_subclass_accepted(self, paper):
        data, schema, warm, check = paper
        schema.add_eclass("Visitor")
        schema.add_subclass("Person", "Visitor")
        warm()
        evolution.drop_subclass(data.db, "Person", "Visitor")
        check()
        assert "Visitor" not in schema.subclasses("Person")

    def test_rename_attribute(self, paper):
        data, schema, warm, check = paper
        evolution.rename_attribute(data.db, "Section", "textbook", "book")
        check()

    def test_extent_follows_a_plain_subclass_edit(self, paper):
        """A plain schema edit moves no extent stamp: the database's
        extent memo must still see the new subclass's members, and so
        must every warm reader — its intern tables, its filtered-extent
        memo and its result cache's footprints."""
        data, schema, warm, check = paper
        db = data.db
        texts = ["context Teacher", "context Teacher[name != 'zz']"]
        readers = {
            "compact": QueryProcessor(Universe(db)),
            "set-based": QueryProcessor(Universe(db), compact=False),
            "cached": QueryProcessor(Universe(db), cache_bytes=1 << 20),
        }
        for reader in readers.values():
            for text in texts:
                assert len(reader.execute(text).subdatabase) == 8
        assert len(db.extent("Teacher")) == db.extent_size("Teacher") == 8
        schema.add_subclass("Teacher", "RA")
        assert len(db.extent("Teacher")) == db.extent_size("Teacher") == 9
        cold_reader = QueryProcessor(Universe(db))
        assert len(cold_reader.execute("context Teacher").subdatabase) == 9
        for name, reader in readers.items():
            for text in texts:
                assert len(reader.execute(text).subdatabase) == 9, \
                    (name, text)


class TestDeclarationsMatchColdSchema:
    @pytest.mark.parametrize("declare", ["declare_interaction",
                                         "declare_crossproduct"])
    def test_declaration(self, declare):
        schema = Schema("small")
        for cls in ("A", "B", "C"):
            schema.add_eclass(cls)
        classes, names = ("A", "B", "C"), ("a", "b", "ghost")
        answers(schema, classes, names)
        getattr(schema, declare)("C", ["A", "B"])
        assert answers(schema, classes, names) == \
            answers(cold(schema), classes, names)
        assert schema.entity_association("C", "a").target == "A"
        evolution.drop_association(Database(schema), "C", "a")
        assert answers(schema, classes, names) == \
            answers(cold(schema), classes, names)
        assert schema.entity_association("C", "b").target == "B"


def test_memoized_answers_are_read_only():
    """Every caller shares the memo's answers, so none may change them."""
    schema = build_paper_database().db.schema
    assert isinstance(schema.up("TA"), frozenset)
    with pytest.raises(TypeError):
        schema.descriptive_attributes("TA")["x"] = None


def test_generation_walks_each_closure_once_per_schema_edit(monkeypatch):
    """A corpus generation makes a thousand and more writes between two
    schema edits; each class's closure is walked at most once in each
    direction, not once per write (or per extent read)."""
    walks = Counter()
    walk = Schema._closure

    def counting(self, edges, name):
        # Keyed by the memo object itself (kept alive by the key): one
        # memo lives from one schema edit to the next.
        walks[(self._memo, id(edges), name)] += 1
        return walk(self, edges, name)

    monkeypatch.setattr(Schema, "_closure", counting)
    data = generate_university(GeneratorConfig())
    assert len(data.db) > 200
    for _ in range(2):  # the extent reads walk down
        for cls in data.db.schema.eclass_names:
            data.db.extent_size(cls)
    assert walks
    assert max(walks.values()) == 1, walks.most_common(3)


def test_readers_racing_edits_leave_no_stale_answer():
    """Threads ask while another edits: an answer computed from the
    schema before an edit must never outlive the edit.  Each round
    makes two edits while the readers fill the memo the first one left
    cold, then holds the readers while the memo is checked against a
    cold schema."""
    schema = build_paper_database().db.schema
    classes = ("Person", "Student", "Grad", "RA", "Teacher", "TA")
    names = ("degree", "teaches", "project")
    readers, rounds = 4, 300
    barrier = threading.Barrier(readers + 1, timeout=30)
    stop = threading.Event()
    errors = []

    def read():
        try:
            while not stop.is_set():
                barrier.wait()  # the writer is about to edit
                for _ in range(3):
                    answers(schema, classes, names)
                barrier.wait()  # round over: the checker looks
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=read) for _ in range(readers)]
    try:
        for thread in threads:
            thread.start()
        for i in range(rounds):
            barrier.wait()
            schema.add_subclass("Teacher", "RA")
            time.sleep(0)  # let the readers start filling the memo
            schema.drop_subclass("Teacher", "RA")
            if i == rounds - 1:
                stop.set()
            barrier.wait()
            assert answers(schema, classes, names) == \
                answers(cold(schema), classes, names), f"round {i}"
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        barrier.abort()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
