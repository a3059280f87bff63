"""Unit and property tests for the secondary value indexes.

The contract under test is *bit-exactness against the scan*: whenever
:meth:`AttrIndex.probe` answers ``OK``, its dense-id list must equal the
ids a per-entity scan over ``conditions.compare`` would keep — and
whenever that scan would raise ``OQLSemanticError``, the probe must
*not* answer ``OK`` (it reports ``CONFLICT`` or ``FALLBACK`` and the
caller scans, reproducing the error).  Maintenance (append / set_value /
without) must preserve the same equivalence.
"""

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OQLSemanticError
from repro.oql.conditions import compare
from repro.subdb.attrindex import (
    CONFLICT,
    FALLBACK,
    OK,
    AttrIndex,
)


class FakeTable:
    """Stands in for an InternTable: probing never touches the table."""

    key = ("base", "T")


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


def scan(values, op, literal):
    """The reference semantics: ids kept by a per-entity scan, or the
    OQLSemanticError the scan raises first."""
    out = array("q")
    for i, value in enumerate(values):
        if compare(value, op, literal):
            out.append(i)
    return out


def check_parity(index, values, op, literal):
    status, ids = index.probe(op, literal)
    try:
        expected = scan(values, op, literal)
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
        check_parity(AttrIndex(FakeTable(), "a", list(values)),
                     values, op, literal)

    def test_equality_merges_numeric_towers_like_python(self):
        # 1 == 1.0 == True share one dict bucket, exactly as `=` does.
        values = [1, 1.0, True, 2, False]
        index = AttrIndex(FakeTable(), "a", values)
        for literal in (1, 1.0, True):
            status, ids = index.probe("=", literal)
            assert status == OK and list(ids) == [0, 1, 2]
            status, ids = index.probe("!=", literal)
            assert status == OK and list(ids) == [3, 4]

    def test_not_equal_is_exact_complement(self):
        values = ["x", "y", "x", "z"]
        index = AttrIndex(FakeTable(), "a", values)
        status, ids = index.probe("!=", "x")
        assert status == OK and list(ids) == [1, 3]
        status, ids = index.probe("!=", "missing")
        assert status == OK and list(ids) == [0, 1, 2, 3]

    def test_ordering_against_none_literal_is_empty(self):
        index = AttrIndex(FakeTable(), "a", [1, 2, None])
        for op in ("<", "<=", ">", ">="):
            status, ids = index.probe(op, None)
            assert status == OK and list(ids) == []

    def test_none_values_never_satisfy_ordering(self):
        index = AttrIndex(FakeTable(), "a", [None, 5, None, 1])
        status, ids = index.probe("<", 10)
        assert status == OK and list(ids) == [1, 3]

    def test_nan_is_equal_and_ordered_to_nothing(self):
        nan = math.nan
        values = [3.0, nan, 1.0, 2.0, nan, 0.5]
        index = AttrIndex(FakeTable(), "a", values)
        assert index.num_values == [0.5, 1.0, 2.0, 3.0]
        assert index.probe(">", 0.0) == (OK, array("q", [0, 2, 3, 5]))
        assert index.probe("=", nan) == (OK, array("q"))
        assert index.probe("!=", 1.0) == (OK, array("q", [0, 1, 3, 4, 5]))
        for op in ("<", "<=", ">", ">="):
            assert index.probe(op, nan) == (OK, array("q"))
            assert index.cardinality(op, nan) == 0
        # Still a number to the census: ordering it against a string
        # raises in the scan, so the probe must not answer.
        assert AttrIndex(FakeTable(), "a", [nan]).probe("<", "s")[0] \
            == CONFLICT
        # Maintenance keeps it out as well.
        index.set_value(1, 4.0)
        index.set_value(0, float("nan"))
        index.append(nan)
        index = index.without(2, FakeTable())
        values = [nan, 4.0, 2.0, nan, 0.5, nan]
        assert index.num_values == [0.5, 2.0, 4.0]
        for op in OPS:
            check_parity(index, values, op, 1.0)
            check_parity(index, values, op, nan)

    def test_mixed_type_census_reports_conflict(self):
        index = AttrIndex(FakeTable(), "a", [1, "s"])
        assert index.probe("<", 5)[0] == CONFLICT
        assert index.probe("<", "t")[0] == CONFLICT
        # bool is not a number for ordering: int-vs-bool conflicts too.
        assert AttrIndex(FakeTable(), "a",
                         [1, True]).probe("<", 5)[0] == CONFLICT
        # ...but equality still answers through the hash index.
        assert index.probe("=", 1) == (OK, array("q", [0]))

    def test_unhashable_value_breaks_to_fallback(self):
        index = AttrIndex(FakeTable(), "a", [1, [2, 3]])
        assert index.broken
        for op in OPS:
            assert index.probe(op, 1)[0] == FALLBACK
            assert index.cardinality(op, 1) is None

    def test_string_ranges_bisect_the_typed_column(self):
        values = ["pear", "apple", "fig", None, "apple"]
        index = AttrIndex(FakeTable(), "a", values)
        status, ids = index.probe("<=", "fig")
        assert status == OK and list(ids) == [1, 2, 4]


class TestMaintenance:
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("append"), scalar),
            st.tuples(st.just("set"), scalar),
            st.tuples(st.just("delete"), st.integers(0, 100)),
            # A snapshot pins the index as it stands: the store forks
            # it before the next in-place step, and ``without`` may no
            # longer hand its posting arrays over.
            st.tuples(st.just("lend"), st.none()),
        ),
        max_size=12)

    @settings(max_examples=300, deadline=None)
    @given(columns, ops, st.sampled_from(OPS), scalar)
    def test_maintained_equals_rebuilt(self, values, steps, op, literal):
        values = list(values)
        index = AttrIndex(FakeTable(), "a", list(values))
        lent = []
        for kind, arg in steps:
            if kind == "lend":
                index.lent = True
                lent.append((index, list(values)))
            elif kind == "append":
                values.append(arg)
                index = index.fork() if index.lent else index
                index.append(arg)
            elif kind == "set" and values:
                i = len(values) // 2
                values[i] = arg
                index = index.fork() if index.lent else index
                index.set_value(i, arg)
            elif kind == "delete" and values:
                dead = arg % len(values)
                del values[dead]
                index = index.without(dead, FakeTable())
        for shared, pinned in lent + [(index, values)]:
            if not shared.broken:
                rebuilt = AttrIndex(FakeTable(), "a", list(pinned))
                assert shared.stats() == rebuilt.stats()
                assert {v: list(ids) for v, ids in shared.buckets.items()} \
                    == {v: list(ids) for v, ids in rebuilt.buckets.items()}
            check_parity(shared, pinned, op, literal)


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
        assert index is not None and list(index.values) == before
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
