"""One benchmark for the served deductive OODB.

    python3 benchmarks/suite/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1          # one pass of one workload
    python3 benchmarks/suite/run.py --all [--seed N] [--out FILE]

A run builds the workload's corpus from ``--seed``, sets the program up
(``setup_s``), computes the expected answers with the set-based oracle,
plays the seeded schedule in eight slices that add up to ``--seconds``
(or to exactly ``--ops`` operations per stream), checks every answer,
runs the end-of-run checks, prints every metric by name with its unit,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.
``--trace 0`` reports the end-to-end metrics with the program untouched;
``--trace 1`` wraps the layer boundaries (``spans.py``), traces every
other slice, and reports the per-layer metrics.

``--all`` runs both passes of every workload, each in a process of its
own, and writes one JSON result.

The program is measured from outside: nothing under ``src/`` is edited,
and the run fails (exit 2, no result) when ``src/repro`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_SECONDS = 20
#: Slices the schedule is played in.  ``ops_s`` is the median of their
#: rates; a traced run traces the odd ones, so traced and untraced
#: operations are drawn from the same schedule over the same state.
SLICES = 8


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program to measure: {SRC}/repro "
                         f"is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(SUITE))


# ----------------------------------------------------------------------
# Per-layer metrics from the traced phase
# ----------------------------------------------------------------------

def install_observers(tracer) -> None:
    """Counts read at span boundaries (charged to no layer)."""
    lock = threading.Lock()
    last_digest = {}

    def after_evaluate(tr, args, result):
        metrics = args[0].last_metrics
        if metrics is None:
            return
        with lock:
            c = tr.counters
            c["rows_generated"] += metrics.rows_generated
            c["rows_out"] += metrics.patterns_out
            c["loop_levels"] += metrics.loop_levels
            c["index_rows"] += metrics.index_rows

    def after_derive(tr, args, result):
        # A re-derivation whose result did not change is wasted work.
        digest = hash(frozenset(result.patterns))
        with lock:
            if last_digest.get(result.name) == digest:
                tr.counters["wasted_derives"] += 1
            last_digest[result.name] = digest

    tracer.observers["oql.evaluate"] = after_evaluate
    tracer.observers["rules.derive"] = after_derive


def per_layer(workload, final, totals, c, delta, plain_slices,
              traced_slices, spans_written: int):
    """Every per-layer metric of one traced run.  ``totals``, ``c`` and
    ``delta`` are the span totals, observer counters and growth of the
    program's own counters over the traced slices; ``final`` is the span
    totals once the end-of-run checkpoint and recoveries are in.  The
    slices are lists of recorders, one list per slice."""
    import metrics as m
    untraced = [rec for recorders in plain_slices for rec in recorders]
    traced = [rec for recorders in traced_slices for rec in recorders]
    traced_samples = [s for rec in traced for s in rec.samples]
    plain_samples = [s for rec in untraced for s in rec.samples]
    ops = max(1, len(traced_samples))
    zero = {"calls": 0, "self_ns": 0, "total_ns": 0}
    out = dict.fromkeys(m.SELF_TIME.values(), 0.0)
    for span, name in m.SELF_TIME.items():
        out[name] += totals.get(span, zero)["self_ns"] / 1e3 / ops
    for span, name in m.CALLS.items():
        out[name] = totals.get(span, zero)["calls"] / ops

    # The wire: what a client round trip costs beyond the spans the
    # server recorded for it (socket, event loop, thread hand-off, JSON
    # on the client side).
    client_ns = totals.get("client.request", zero)["total_ns"]
    server_ns = sum(totals.get(span, zero)["total_ns"] for span in
                    ("service.decode", "service.encode",
                     "service.dispatch"))
    out["service.wire.self_us"] = \
        max(0, client_ns - server_ns) / 1e3 / ops if client_ns else 0.0
    out["service.requests.count"] = delta["service.requests"] / ops
    out["service.shed.count"] = delta["service.shed"] / ops

    out["oql.index_rows.count"] = c["index_rows"] / ops
    out["oql.rows_examined_per_result"] = \
        c["rows_generated"] / c["rows_out"] if c["rows_out"] else 0.0
    out["oql.loop.levels.count"] = c["loop_levels"] / ops
    out["oql.subscribe.wakeups.count"] = delta["subscribe.wakeups"] / ops
    out["oql.subscribe.suppressed.count"] = \
        delta["subscribe.suppressed"] / ops
    out["oql.subscribe.resync.count"] = delta["subscribe.resyncs"] / ops
    lookups = delta["cache.hits"] + delta["cache.misses"]
    out["oql.cache.hit_ratio"] = \
        delta["cache.hits"] / lookups if lookups else 0.0

    derivations = totals.get("rules.derive", zero)["calls"]
    derived_queries = sum(rec.derived_queries for rec in traced)
    out["rules.rederive_ratio"] = \
        derivations / derived_queries if derived_queries else 0.0
    out["rules.wasted_derive.count"] = c["wasted_derives"] / ops
    out["rules.stale_markings.count"] = \
        delta["engine.stale_markings"] / ops
    out["subdb.adjindex.appended.count"] = delta["adj.appended"] / ops
    out["subdb.adjindex.remapped.count"] = delta["adj.remapped"] / ops
    out["model.events.count"] = delta["model.events"] / ops

    records = delta["wal.records"]
    out["storage.wal.bytes"] = delta["wal.bytes"] / ops
    out["storage.wal.bytes_per_event"] = \
        delta["wal.bytes"] / records if records else 0.0
    extra = workload.extra
    out["storage.checkpoint.s"] = extra.get("checkpoint_s", 0.0)
    out["storage.checkpoint.bytes"] = extra.get("checkpoint_bytes", 0)
    # Both recoveries of durable-ingest: the crash copy (genesis
    # checkpoint + replay of the log up to the sync point) and the live
    # store (final checkpoint, empty tail).
    out["storage.recover.load_s"] = \
        final.get("storage.recover.load", zero)["total_ns"] / 1e9
    out["storage.recover.replay_s"] = \
        final.get("storage.recover.replay", zero)["total_ns"] / 1e9
    out["storage.bytes_per_user_byte"] = \
        extra.get("stored_bytes", 0) / workload.user_bytes \
        if workload.user_bytes and "stored_bytes" in extra else 0.0
    out["class.recover.s"] = extra.get("recover_s", 0.0)

    out["university.generate.s"] = workload.generate_s
    out["university.objects.count"] = workload.corpus_stats["objects"]
    out["university.links.count"] = workload.corpus_stats["links"]

    # Latency per operation class, from the slices that ran untraced.
    for cls in m.CLASSES:
        values = m.durations_ms(plain_samples, cls=cls)
        out[f"class.{cls}.p50_ms"] = m.percentile(values, 0.50)
        out[f"class.{cls}.p95_ms"] = m.percentile(values, 0.95)
    pooled = m.durations_ms(plain_samples)
    out["tail.op_p50_ms"] = m.percentile(pooled, 0.50)
    out["tail.op_p95_ms"] = m.percentile(pooled, 0.95)
    deltas = workload.delta_latencies_ms()
    out["class.delta.p50_ms"] = m.percentile(deltas, 0.50)
    out["class.delta.p95_ms"] = m.percentile(deltas, 0.95)
    rows = {}
    for rec in untraced + traced:
        rows.update(rec.rows)
    for question in m.INVENTORY:
        out[f"inventory.{question}.p50_ms"] = m.median(
            m.durations_ms(plain_samples, cls="read", name=question))
        out[f"inventory.{question}.rows"] = rows.get(question, 0)

    rate_off = m.median([m.slice_rate(recs) for recs in plain_slices])
    rate_on = m.median([m.slice_rate(recs) for recs in traced_slices])
    out["bench.trace_overhead_pct"] = \
        100.0 * (1.0 - rate_on / rate_off) if rate_off else 0.0
    out["bench.harness_share_pct"] = harness_share(untraced)
    op_ns = totals.get("bench.op", zero)
    out["bench.trace.coverage_pct"] = \
        100.0 * (1.0 - op_ns["self_ns"] / op_ns["total_ns"]) \
        if op_ns["total_ns"] else 0.0
    out["bench.spans.count"] = spans_written
    out["bench.schedule.sha256"] = int(workload.schedule_digest()[:12], 16)
    return out


def harness_share(recorders) -> float:
    """Share of their slices the streams spent outside timed calls
    (drawing operations, checking answers, the oracle)."""
    wall = sum(rec.ended - rec.began for rec in recorders)
    busy = sum(end - start for rec in recorders
               for _, _, start, end in rec.samples)
    return 100.0 * max(0.0, 1.0 - busy / wall) if wall else 0.0


# ----------------------------------------------------------------------
# One pass of one workload
# ----------------------------------------------------------------------

def run_one(args) -> dict:
    import metrics as m
    import spans
    from workloads import HASHED_OPS, WORKLOADS, Budget

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        install_observers(tracer)
        # Installed before set-up (inactive) because listeners are
        # registered as bound methods then; activated for the traced
        # slices only.
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.corpus, workdir,
                                        tracer)
    walls = {}
    try:
        started = time.perf_counter()
        workload.setup()
        walls["setup"] = time.perf_counter() - started
        workload.prepare()
        if args.corrupt:
            workload.inventory.corrupt = True

        started = time.perf_counter()
        plain_slices, traced_slices = [], []
        delta = Counter()
        for index in range(SLICES):
            if index == SLICES // 2:
                workload.halfway()
            budget = Budget(ops=args.ops // SLICES) \
                if args.ops is not None \
                else Budget(seconds=args.seconds / SLICES)
            if tracer is None or index % 2 == 0:
                plain_slices.append(workload.run(budget))
                continue
            before = workload.counters()
            tracer.active = True
            traced_slices.append(workload.run(budget))
            tracer.active = False
            for key, value in workload.counters().items():
                delta[key] += value - before.get(key, 0)
        walls["measured"] = time.perf_counter() - started
        if tracer is not None:
            phase_totals = tracer.totals()
            phase_counters = Counter(tracer.counters)
            tracer.active = True    # the checkpoint and the recoveries
        started = time.perf_counter()
        workload.finish()
        walls["checks"] = time.perf_counter() - started
        if min(stream.drawn for stream in workload.streams) < HASHED_OPS:
            workload.problems.append(
                f"a stream played fewer than the {HASHED_OPS} operations "
                f"the schedule hash covers")

        recorders = [rec for recorders in plain_slices + traced_slices
                     for rec in recorders]
        attempted = sum(rec.attempted for rec in recorders)
        failures = [f for rec in recorders for f in rec.failures]
        if tracer is None:
            values = m.end_to_end(walls["setup"], m.peak_rss_mb(),
                                  plain_slices)
            table = m.END_TO_END
        else:
            tracer.active = False
            written = tracer.write(WORK / f"spans-{args.workload}.jsonl")
            values = per_layer(workload, tracer.totals(), phase_totals,
                               phase_counters, delta, plain_slices,
                               traced_slices, written)
            table = m.PER_LAYER
        by_class = {cls: m.durations_ms(
            (s for rec in recorders for s in rec.samples), cls=cls)
            for cls in m.CLASSES}
        detail = {
            "workload": args.workload, "seed": args.seed,
            "corpus": workload.preset, "trace": args.trace,
            "objects": workload.corpus_stats["objects"],
            "wal_sync_every": 1, "connections": workload.connections,
            "walls_s": walls,
            "samples": {cls: len(ms) for cls, ms in by_class.items()},
            "class_ms": {cls: {"p50": m.percentile(ms, 0.5),
                               "p95": m.percentile(ms, 0.95)}
                         for cls, ms in by_class.items()},
            "failures": failures[:10], "problems": workload.problems,
        }
        if tracer is not None:
            detail["layer_self_ms"] = spans.layer_self_ms(phase_totals)
        return {
            "correct": not failures and not workload.problems,
            "attempted": max(1, attempted),
            "failed": len(failures),
            "metrics": m.with_units(values, table),
            "detail": detail,
        }
    finally:
        workload.teardown()
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict) -> None:
    out = sys.stdout
    detail = result["detail"]
    out.write(f"# {detail['workload']} seed={detail['seed']} "
              f"corpus={detail['corpus']} ({detail['objects']} objects) "
              f"trace={detail['trace']} connections="
              f"{detail['connections']} wal_sync_every=1\n")
    walls = detail["walls_s"]
    out.write("# wall: set-up %.1f s, measured %.1f s, checks %.1f s\n"
              % (walls["setup"], walls["measured"], walls["checks"]))
    for cls, count in detail["samples"].items():
        if count:
            out.write("# %-10s n=%-6d p50 %.3f ms  p95 %.3f ms\n" % (
                cls, count, detail["class_ms"][cls]["p50"],
                detail["class_ms"][cls]["p95"]))
    for name, entry in result["metrics"].items():
        out.write("%-36s %14.4f %s\n" % (name, entry["value"],
                                         entry["unit"]))
    for line in detail["failures"] + detail["problems"]:
        out.write(f"# FAILED {line}\n")
    fail_ratio = result["failed"] / result["attempted"]
    out.write("# fail_ratio %.4f (%d of %d), end-of-run checks %s\n" % (
        fail_ratio, result["failed"], result["attempted"],
        "passed" if not detail["problems"] else "FAILED"))


# ----------------------------------------------------------------------
# --all: both passes of every workload, one process each
# ----------------------------------------------------------------------

def run_all(args) -> int:
    from workloads import WORKLOADS
    WORK.mkdir(exist_ok=True)
    combined = {"seed": args.seed, "seconds": args.seconds,
                "ops": args.ops, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = combined["workloads"][name] = {}
        for trace in (0, 1):
            part = WORK / f"all-{name}-{trace}.json"
            command = [sys.executable, str(SUITE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(part)]
            if args.ops is not None:
                command += ["--ops", str(args.ops)]
            if args.corpus:
                command += ["--corpus", args.corpus]
            started = time.perf_counter()
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True)
            wall = time.perf_counter() - started
            # Everything but the machine-readable last line.
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stdout.write(f"# {name} trace={trace}: {wall:.1f} s wall, "
                             f"exit {done.returncode}\n\n")
            status = status or done.returncode
            if part.exists():
                result = json.loads(part.read_text())
                part.unlink()
                key = "per_layer" if trace else "end_to_end"
                entry[key] = result["metrics"]
                entry[f"{key}_detail"] = result["detail"]
                entry[f"{key}_correct"] = result["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1,
                                             sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--ops", type=int, default=None,
                        help="play exactly this many operations per stream "
                             "instead of --seconds (exact counters then "
                             "repeat)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", default=None, choices=("u1k",),
                        help="play the workload on the smoke test's corpus "
                             "instead of its own")
    parser.add_argument("--out", default=None)
    parser.add_argument("--corrupt", action="store_true",
                        help="expect wrong digests (self-test: the run "
                             "must then fail)")
    args = parser.parse_args(argv)
    _require_program()
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_one(args)
    report(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, sort_keys=True))
    final = {key: result[key]
             for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
