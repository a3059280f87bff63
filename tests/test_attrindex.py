"""Unit and property tests for the secondary value indexes.

The contract under test is *bit-exactness against the scan*: whenever
:meth:`AttrIndex.probe` answers ``OK``, its dense-id list must equal the
ids a per-entity scan over ``conditions.compare`` would keep — and
whenever that scan would raise ``OQLSemanticError``, the probe must
*not* answer ``OK`` (it reports ``CONFLICT`` or ``FALLBACK`` and the
caller scans, reproducing the error).  Maintenance (append / set_value /
remove of a tombstoned id) must preserve the same equivalence.
"""

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OQLSemanticError
from repro.model.interning import InternTable
from repro.model.oid import OID
from repro.oql.conditions import compare
from repro.subdb.attrindex import (
    CONFLICT,
    FALLBACK,
    OK,
    AttrIndex,
)


def table_of(n):
    """An intern table over ``n`` fresh objects (dense ids 0..n-1)."""
    return InternTable(("base", "T"), [OID(i + 1) for i in range(n)])


def index_over(values):
    return AttrIndex(table_of(len(values)), "a", list(values))


OPS = ("=", "!=", "<", "<=", ">", ">=")

# Value pools chosen to cross every census boundary: None, bool (its own
# type in compare), int/float (one numeric family, with the floats that
# break naive sorting or hashing: NaN, the infinities, negative zero),
# two string shapes.
scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50,
              allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.sampled_from(["a", "b", "zz", ""]),
)
columns = st.lists(scalar, min_size=0, max_size=30)


def scan(values, op, literal, dead=()):
    """The reference semantics: live ids kept by a per-entity scan, or
    the OQLSemanticError the scan raises first."""
    out = array("q")
    for i, value in enumerate(values):
        if i not in dead and compare(value, op, literal):
            out.append(i)
    return out


def check_parity(index, values, op, literal, dead=()):
    status, ids = index.probe(op, literal)
    try:
        expected = scan(values, op, literal, dead)
    except OQLSemanticError:
        assert status != OK, (
            f"probe answered {list(ids)} where the scan raises "
            f"({values!r} {op} {literal!r})")
        return
    if status == OK:
        assert list(ids) == list(expected), (values, op, literal)
        assert index.cardinality(op, literal) == len(expected)
    else:
        # Declining is always safe, but a conflict report must be
        # backed by an actual conflicting value somewhere: an index
        # that cries CONFLICT on clean data would turn working queries
        # into scans for no reason.  (scan() not raising here proves
        # *this* probe is clean, so only FALLBACK may decline.)
        assert status == FALLBACK, (values, op, literal)


class TestProbeParity:
    @settings(max_examples=300, deadline=None)
    @given(columns, st.sampled_from(OPS), scalar)
    def test_probe_matches_scan(self, values, op, literal):
        check_parity(index_over(values),
                     values, op, literal)

    def test_equality_merges_numeric_towers_like_python(self):
        # 1 == 1.0 == True share one dict bucket, exactly as `=` does.
        values = [1, 1.0, True, 2, False]
        index = index_over(values)
        for literal in (1, 1.0, True):
            status, ids = index.probe("=", literal)
            assert status == OK and list(ids) == [0, 1, 2]
            status, ids = index.probe("!=", literal)
            assert status == OK and list(ids) == [3, 4]

    def test_not_equal_is_exact_complement(self):
        values = ["x", "y", "x", "z"]
        index = index_over(values)
        status, ids = index.probe("!=", "x")
        assert status == OK and list(ids) == [1, 3]
        status, ids = index.probe("!=", "missing")
        assert status == OK and list(ids) == [0, 1, 2, 3]

    def test_ordering_against_none_literal_is_empty(self):
        index = index_over([1, 2, None])
        for op in ("<", "<=", ">", ">="):
            status, ids = index.probe(op, None)
            assert status == OK and list(ids) == []

    def test_none_values_never_satisfy_ordering(self):
        index = index_over([None, 5, None, 1])
        status, ids = index.probe("<", 10)
        assert status == OK and list(ids) == [1, 3]

    def test_nan_is_equal_and_ordered_to_nothing(self):
        nan = math.nan
        values = [3.0, nan, 1.0, 2.0, nan, 0.5]
        index = index_over(values)
        assert index.num_values == [0.5, 1.0, 2.0, 3.0]
        assert index.probe(">", 0.0) == (OK, array("q", [0, 2, 3, 5]))
        assert index.probe("=", nan) == (OK, array("q"))
        assert index.probe("!=", 1.0) == (OK, array("q", [0, 1, 3, 4, 5]))
        for op in ("<", "<=", ">", ">="):
            assert index.probe(op, nan) == (OK, array("q"))
            assert index.cardinality(op, nan) == 0
        # Still a number to the census: ordering it against a string
        # raises in the scan, so the probe must not answer.
        assert index_over([nan]).probe("<", "s")[0] \
            == CONFLICT
        # Maintenance keeps it out as well.
        index.set_value(1, 4.0)
        index.set_value(0, float("nan"))
        index.table.append(OID(7))
        index.append(nan)
        index.table.without(index.table.oids[2])
        index.remove(2)
        values = [nan, 4.0, 1.0, 2.0, nan, 0.5, nan]
        assert index.num_values == [0.5, 2.0, 4.0]
        for op in OPS:
            check_parity(index, values, op, 1.0, dead={2})
            check_parity(index, values, op, nan, dead={2})

    def test_mixed_type_census_reports_conflict(self):
        index = index_over([1, "s"])
        assert index.probe("<", 5)[0] == CONFLICT
        assert index.probe("<", "t")[0] == CONFLICT
        # bool is not a number for ordering: int-vs-bool conflicts too.
        assert index_over([1, True]).probe("<", 5)[0] == CONFLICT
        # ...but equality still answers through the hash index.
        assert index.probe("=", 1) == (OK, array("q", [0]))

    def test_unhashable_value_breaks_to_fallback(self):
        index = index_over([1, [2, 3]])
        assert index.broken
        for op in OPS:
            assert index.probe(op, 1)[0] == FALLBACK
            assert index.cardinality(op, 1) is None

    def test_string_ranges_bisect_the_typed_column(self):
        values = ["pear", "apple", "fig", None, "apple"]
        index = index_over(values)
        status, ids = index.probe("<=", "fig")
        assert status == OK and list(ids) == [1, 2, 4]


class TestMaintenance:
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("append"), scalar),
            st.tuples(st.just("set"), scalar),
            st.tuples(st.just("delete"), st.integers(0, 100)),
            # A snapshot pins the table and index as they stand: the
            # store forks them before the next in-place step, and a
            # delete tombstones in a twin of the lent table.
            st.tuples(st.just("lend"), st.none()),
        ),
        max_size=12)

    @settings(max_examples=300, deadline=None)
    @given(columns, ops, st.sampled_from(OPS), scalar)
    def test_maintained_equals_rebuilt(self, values, steps, op, literal):
        """Maintained through appends, sets and tombstoning deletes, an
        index equals one built over the same column and tombstones —
        and every lent table and index still answers as it did when
        lent."""
        values = list(values)
        index = index_over(values)
        dead = set()
        lent = []
        for kind, arg in steps:
            if kind == "lend":
                index.lent = index.table.lent = True
                lent.append((index, list(values), set(dead)))
                continue
            table = index.table
            live = sorted(table.full_id_set)
            if kind == "set" and not live or kind == "delete" and not live:
                continue
            if index.lent:
                index = index.fork()
            if kind == "append":
                if table.lent:
                    index.table = table.fork()
                values.append(arg)
                index.table.append(OID(len(values)))
                index.append(arg)
            elif kind == "set":
                i = live[len(live) // 2]
                values[i] = arg
                index.set_value(i, arg)
            else:
                i = live[arg % len(live)]
                index.table = table.without(table.oids[i])
                assert (index.table is table) is not table.lent
                dead.add(i)
                index.remove(i)
        for shared, pinned, pinned_dead in lent + [(index, values, dead)]:
            assert shared.table.dead == pinned_dead
            if not shared.broken:
                table = table_of(len(pinned))
                table.dead.update(pinned_dead)
                rebuilt = AttrIndex(table, "a", list(pinned))
                assert shared.stats() == rebuilt.stats()
                assert {v: list(ids) for v, ids in shared.buckets.items()} \
                    == {v: list(ids) for v, ids in rebuilt.buckets.items()}
            check_parity(shared, pinned, op, literal, pinned_dead)


class TestStoreLifecycle:
    def _universe(self):
        from repro.subdb.universe import Universe
        from repro.university import build_paper_database
        return Universe(build_paper_database().db)

    def test_declare_build_drop(self):
        from repro.subdb.refs import ClassRef
        universe = self._universe()
        assert universe.declare_index("Course", "c#")
        assert not universe.declare_index("Course", "c#")
        ref = ClassRef("Course")
        assert universe.attr_index_if_ready(ref, "c#") is None  # lazy
        index = universe.attr_index(ref, "c#")
        assert index is not None and len(index) == len(
            universe.db.extent("Course"))
        assert universe.attr_index_if_ready(ref, "c#") is index
        assert universe.drop_index("Course", "c#")
        assert universe.attr_index(ref, "c#") is None

    def test_declare_unknown_attribute_raises(self):
        with pytest.raises(Exception):
            self._universe().declare_index("Course", "nope")

    def test_stats_cover_declared_and_built(self):
        universe = self._universe()
        universe.declare_index("Course", "c#")
        universe.declare_index("Course", "title")
        from repro.subdb.refs import ClassRef
        universe.attr_index(ClassRef("Course"), "c#")
        stats = {(e["cls"], e["attr"]): e
                 for e in universe.index_stats()["indexes"]}
        assert stats[("Course", "c#")]["built"]
        assert not stats[("Course", "title")]["built"]

    def test_batch_that_inserts_and_deletes_one_object(self):
        """The BATCH event replays INSERT then DELETE when the object
        is already gone: maintenance reads the event, not the database."""
        from repro.subdb.refs import ClassRef
        universe = self._universe()
        db = universe.db
        universe.declare_index("Course", "c#")
        ref = ClassRef("Course")
        before = list(universe.attr_index(ref, "c#").values)
        with db.batch():
            course = db.insert("Course", "gone", **{"c#": 1, "title": "G",
                                                    "credit_hours": 1})
            db.set_attribute(course.oid, "c#", 2)
            db.delete(course.oid)
        index = universe.attr_index_if_ready(ref, "c#")
        # The object's id was appended, then tombstoned: its slot stays
        # but no probe reaches it.
        assert index is not None and index.table.dead == {len(before)}
        assert list(index.values[:len(before)]) == before
        assert index.probe("<", 3)[1] == array("q")

    def test_derived_refs_are_never_indexed(self):
        from repro.subdb.refs import ClassRef
        universe = self._universe()
        universe.declare_index("Course", "c#")
        derived = ClassRef("Course", subdb="Derived")
        assert universe.attr_index(derived, "c#") is None


class TestIndexedSelection:
    """A declared index answers a selective term with one probe, no
    per-entity condition evaluation and the scan's rows — counted, not
    timed, so the probe-vs-scan gap repeats on any machine."""

    @pytest.mark.parametrize("text", ["context Item[key = 200]",
                                      "context Item[measure < 100.0]"])
    def test_selective_term_is_one_probe(self, text):
        from repro.model.database import Database
        from repro.model.schema import DClass, Schema
        from repro.oql.query import QueryProcessor
        from repro.subdb.universe import Universe
        schema = Schema("items")
        schema.add_eclass("Item")
        for attr, kind in (("key", int), ("measure", float),
                           ("category", str)):
            schema.add_attribute("Item", attr, DClass(attr, kind))
        db = Database(schema)
        for i in range(400):
            db.insert("Item", f"i{i}", key=i, category=f"c{i % 8}",
                      measure=(i * 7919) % 10_000 / 10.0)
        indexed = Universe(db)
        for attr in ("key", "measure", "category"):
            indexed.declare_index("Item", attr)
        answers = []
        for universe in (indexed, Universe(db)):
            processor = QueryProcessor(universe)
            answers.append((processor.execute(text).subdatabase,
                            processor.evaluator.last_metrics))
        (rows, metrics), (scan_rows, scan_metrics) = answers
        assert (metrics.index_probes, metrics.extent_filter_evals) == (1, 0)
        assert metrics.index_rows == len(rows) > 0
        assert scan_metrics.extent_filter_evals == 400
        assert sorted(rows.labels()) == sorted(scan_rows.labels())
