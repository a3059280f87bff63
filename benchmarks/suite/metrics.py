"""Metric names, units and bounds, and how each is computed.

``BENCHMARK.json`` lists exactly :data:`END_TO_END` and
:data:`PER_LAYER`; ``test_suite_smoke.py`` holds the two in step.

End-to-end metrics are what a caller of the system sees, measured with
tracing off, and every workload reports every one of them.  Per-layer
metrics come from the traced pass; a layer that does nothing on a
workload reports 0 there, which is itself the prediction ("storage does
nothing on served-read").

Units of the per-layer metrics: ``us/op`` is a span's *self* time summed
over the traced phase and divided by the operations the schedule
completed in it, so the ``us/op`` figures of one workload add up to its
mean operation latency; ``1/op`` is a count per completed operation.
Both stay comparable between runs of different length.
"""

from __future__ import annotations

import math
import resource
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_US = ("us/op", "lower")
_N = ("1/op", "lower")

#: Span name -> per-layer metric of its self time (spans that share a
#: metric add up).
SELF_TIME = {
    "service.decode": "service.decode.self_us",
    "service.encode": "service.encode.self_us",
    "service.dispatch": "service.dispatch.self_us",
    "service.session": "service.session.self_us",
    "service.pin": "service.session.pin_us",
    "service.push": "service.streaming.push_us",
    "oql.parse": "oql.parse.self_us",
    "oql.plan": "oql.plan.self_us",
    "oql.evaluate": "oql.evaluate.self_us",
    "oql.probe": "oql.probe.self_us",
    "oql.materialize": "oql.materialize.self_us",
    "oql.subscribe": "oql.subscribe.delta_us",
    "rules.query": "rules.query.self_us",
    "rules.derive": "rules.derive.self_us",
    "rules.incremental": "rules.incremental.event_us",
    "rules.control": "rules.control.self_us",
    "subdb.snapshot.pin": "subdb.snapshot.pin_us",
    "subdb.compact.build": "subdb.compact.build_us",
    "subdb.compact.maint": "subdb.compact.maint_us",
    "subdb.attrindex.get": "subdb.attrindex.build_us",
    "subdb.attrindex.build": "subdb.attrindex.build_us",
    "subdb.attrindex.maint": "subdb.attrindex.maint_us",
    "subdb.preimage": "subdb.preimage.pin_us",
    "model.insert": "model.insert.self_us",
    "model.set_attribute": "model.set_attribute.self_us",
    "model.delete": "model.delete.self_us",
    "model.associate": "model.associate.self_us",
    "model.dissociate": "model.dissociate.self_us",
    "model.listeners": "model.listeners.self_us",
    "model.lock": "model.lock.wait_us",
    "model.intern.without": "model.intern.without_us",
    "storage.journal": "storage.journal.self_us",
    "storage.wal.append": "storage.wal.append_us",
    "storage.wal.sync": "storage.wal.sync_us",
}
#: Span name -> per-layer metric of its call count.
CALLS = {
    "oql.probe": "oql.probe.count",
    "rules.derive": "rules.derive.count",
    "rules.incremental": "rules.incremental.count",
    "subdb.compact.build": "subdb.compact.builds.count",
    "subdb.preimage": "subdb.preimage.pins.count",
    "storage.wal.sync": "storage.wal.syncs.count",
}

INVENTORY = ["point", "range", "chain3", "chain4", "derived", "loop3",
             "r1_teacher_course", "r2_suggest_offer", "tc_prereq_closure",
             "r3_teacher_dept"]

PER_LAYER: List[Tuple[str, str, str]] = (
    [(name, *_US) for name in dict.fromkeys(SELF_TIME.values())]
    + [(name, *_N) for name in CALLS.values()]
    + [
        ("service.wire.self_us", *_US),
        ("service.requests.count", *_N),
        ("service.shed.count", *_N),
        ("oql.index_rows.count", *_N),
        ("oql.rows_examined_per_result", "ratio", "lower"),
        ("oql.loop.levels.count", *_N),
        ("oql.subscribe.wakeups.count", *_N),
        ("oql.subscribe.suppressed.count", *_N),
        ("oql.subscribe.resync.count", *_N),
        ("oql.cache.hit_ratio", "ratio", "higher"),
        ("rules.rederive_ratio", "ratio", "lower"),
        ("rules.wasted_derive.count", *_N),
        ("rules.stale_markings.count", *_N),
        ("subdb.adjindex.appended.count", *_N),
        ("subdb.adjindex.remapped.count", *_N),
        ("model.events.count", *_N),
        ("storage.wal.bytes", "B/op", "lower"),
        ("storage.wal.bytes_per_event", "B", "lower"),
        ("storage.checkpoint.s", "s", "lower"),
        ("storage.checkpoint.bytes", "B", "lower"),
        ("storage.recover.load_s", "s", "lower"),
        ("storage.recover.replay_s", "s", "lower"),
        ("storage.bytes_per_user_byte", "ratio", "lower"),
        ("university.generate.s", "s", "lower"),
        ("university.objects.count", "count", "lower"),
        ("university.links.count", "count", "lower"),
        ("class.read.p50_ms", "ms", "lower"),
        ("class.read.p95_ms", "ms", "lower"),
        ("class.write.p50_ms", "ms", "lower"),
        ("class.write.p95_ms", "ms", "lower"),
        ("class.fresh_read.p50_ms", "ms", "lower"),
        ("class.fresh_read.p95_ms", "ms", "lower"),
        ("class.delta.p50_ms", "ms", "lower"),
        ("class.delta.p95_ms", "ms", "lower"),
        ("class.recover.s", "s", "lower"),
        ("tail.op_p50_ms", "ms", "lower"),
        ("tail.op_p95_ms", "ms", "lower"),
        ("bench.trace_overhead_pct", "%", "lower"),
        ("bench.harness_share_pct", "%", "lower"),
        ("bench.trace.coverage_pct", "%", "higher"),
        ("bench.spans.count", "count", "lower"),
        ("bench.schedule.sha256", "hash48", "lower"),
    ]
    + [(f"inventory.{q}.p50_ms", "ms", "lower") for q in INVENTORY]
    + [(f"inventory.{q}.rows", "count", "lower") for q in INVENTORY]
)

CLASSES = ("read", "write", "fresh_read")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of unsorted ``values`` (0 when
    empty, so an absent class reads as 0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def durations_ms(samples: Iterable[tuple], cls: Optional[str] = None,
                 name: Optional[str] = None) -> List[float]:
    return [(end - start) / 1e6 for c, n, start, end in samples
            if (cls is None or c == cls) and (name is None or n == name)]


def slice_rate(recorders: Sequence) -> float:
    """Correct operations per second of one slice of the schedule: each
    stream's count over the time it spent inside the program, summed
    over the streams played side by side.  Every caller is a closed
    loop, so this is the rate the callers see with no think time of
    their own; the generator's own work (drawing operations, checking
    answers, the oracle) is not counted."""
    rate = 0.0
    for rec in recorders:
        busy = sum(end - start for _, _, start, end in rec.samples)
        if busy:
            rate += len(rec.samples) / (busy / 1e9)
    return rate


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s: float, peak_rss: float,
               slices: Sequence[Sequence]) -> Dict[str, float]:
    """The end-to-end metrics from the set-up time, the peak RSS at the
    end of the checks, and the recorders of every slice of the
    schedule.  ``ops_s`` is the median over the slices: one stall slows
    one slice, not the reported rate."""
    return {
        "setup_s": setup_s,
        "ops_s": median([slice_rate(recorders) for recorders in slices]),
        "peak_rss_mb": peak_rss,
    }


def with_units(values: Dict[str, float], table) -> Dict[str, dict]:
    units = {row[0]: row[1] for row in table}
    return {name: {"value": values.get(name, 0.0), "unit": units[name]}
            for name in units}
