"""Tier-1 smoke test of the benchmark suite (< 20 s).

Runs ``run.py --all`` (both passes of all four workloads, each in a
process of its own) on the ``u1k`` corpus with 64-operation schedules,
and checks the contract ``BENCHMARK.json`` states: every named metric is
reported, finite and carries its unit; the same seed gives the same
schedule and the same exact counters; a run timed by ``--seconds`` ends
with the contract's result line; a wrong expected digest fails the run;
without the program there is no result; ``compare.py`` tells ``worse``
from ``unresolved`` from ``ok``.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Counters that must repeat exactly under one seed and ``--ops``.
EXACT = ["bench.schedule.sha256", "storage.wal.bytes_per_event",
         "model.events.count", "oql.probe.count"]
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else [0]
SMOKE = ("--corpus", "u1k", "--ops", "64", "--seed", "5")


def suite_module(name: str):
    """A module of the suite, loaded under a private name so that this
    test process gains no top-level ``metrics`` or ``corpora``."""
    spec = importlib.util.spec_from_file_location(
        f"_suite_{name}", SUITE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def launch(index: int, *args: str,
           script: Path = SUITE / "run.py") -> subprocess.Popen:
    """Start ``run.py``; the children are dealt over the CPUs in turn."""
    cpu = CPUS[index % len(CPUS)]
    return subprocess.Popen(
        [sys.executable, str(script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu}))
        if hasattr(os, "sched_setaffinity") else None)


def finish(process: subprocess.Popen):
    out, err = process.communicate(timeout=120)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return process.returncode, result, out + err


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """(workload, trace) -> metrics of one pass of ``--all``, plus a
    repeat of every traced pass, run on its own, under key (workload,
    "again")."""
    out = tmp_path_factory.mktemp("suite") / "all.json"
    everything = launch(0, "--all", *SMOKE, "--out", str(out))
    again = {workload: launch(1, "--workload", workload, "--trace", "1",
                              *SMOKE)
             for workload in WORKLOADS}
    results = {}
    for workload, process in again.items():
        code, result, output = finish(process)
        assert code == 0 and result is not None, output[-2000:]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        results[(workload, "again")] = result["metrics"]
    code, _, output = finish(everything)
    assert code == 0, output[-2000:]
    for workload, entry in json.loads(out.read_text())["workloads"].items():
        for trace, key in enumerate(("end_to_end", "per_layer")):
            assert entry[f"{key}_correct"] is True, output[-2000:]
            results[(workload, trace)] = entry[key]
    return results


def test_benchmark_json_lists_the_suites_metrics():
    metrics = suite_module("metrics")
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == metrics.PER_LAYER
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert SPEC["command"][-1] == "benchmarks/suite/run.py"
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported(passes, workload):
    for trace, table in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        metrics = passes[(workload, trace)]
        assert set(metrics) == {m["name"] for m in table}
        for metric in table:
            entry = metrics[metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]), metric["name"]
    # End-to-end metrics may never read 0.
    for name, entry in passes[(workload, 0)].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_schedule_and_counters(passes, workload):
    first = passes[(workload, 1)]
    again = passes[(workload, "again")]
    for name in EXACT:
        assert first[name]["value"] == again[name]["value"], name
    assert first["bench.schedule.sha256"]["value"] > 0


def test_layers_that_do_nothing_report_nothing(passes):
    read = passes[("served-read", 1)]
    assert read["model.events.count"]["value"] == 0
    assert read["storage.wal.bytes"]["value"] == 0
    assert read["service.requests.count"]["value"] == 1
    ingest = passes[("durable-ingest", 1)]
    assert ingest["service.requests.count"]["value"] == 0
    assert ingest["storage.wal.bytes_per_event"]["value"] > 0
    assert ingest["class.recover.s"]["value"] > 0
    deductive = passes[("embedded-deductive", 1)]
    assert deductive["rules.derive.count"]["value"] > 0
    assert deductive["storage.wal.bytes"]["value"] == 0
    mixed = passes[("served-mixed", 1)]
    assert mixed["class.delta.p50_ms"]["value"] > 0
    assert mixed["class.fresh_read.p50_ms"]["value"] > 0


def test_a_run_timed_in_seconds_ends_with_the_result_line():
    """The contract's command line: the schedule ends at a deadline."""
    code, result, output = finish(launch(
        0, "--workload", "served-mixed", "--corpus", "u1k", "--seed", "6",
        "--seconds", "1", "--trace", "0"))
    assert code == 0, output[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 64
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_wrong_expected_digest_fails_the_run():
    code, result, output = finish(launch(
        0, "--workload", "served-read", "--trace", "0", *SMOKE, "--corrupt"))
    assert code != 0, output[-2000:]
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("preset", ["u1k", "u10k"])
def test_corpus_size_is_within_two_percent_of_its_name(preset):
    corpus = suite_module("corpora").build(preset, seed=5)
    objects = corpus.db.stats()["objects"]
    nominal = int(preset[1:-1]) * 1000
    assert abs(objects - nominal) <= 0.02 * nominal


def test_no_program_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite, the
    command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, output = finish(launch(
        0, "--workload", "served-read", "--seed", "5", "--seconds", "1",
        "--trace", "0",
        script=tmp_path / "benchmarks" / "suite" / "run.py"))
    assert code not in (0, None)
    assert result is None
    assert "missing" in output


def _results(directory: Path, metric: str, values) -> Path:
    """A directory of ``--all`` results, one per value of ``metric`` on
    ``served-read``; every other metric reads 1."""
    directory.mkdir()
    for index, value in enumerate(values):
        entry = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                 for m in SPEC["end_to_end"]}
        entry[metric]["value"] = value
        (directory / f"{index}.json").write_text(json.dumps(
            {"workloads": {"served-read": {"end_to_end": entry}}}))
    return directory


def test_compare_tells_worse_from_unresolved_from_ok(tmp_path, capsys):
    compare = suite_module("compare")
    steady = [100.0, 101.0, 99.0, 100.5]
    fresh = itertools.count()

    def verdicts(metric, a, b):
        rows = compare.compare(
            compare.load(_results(tmp_path / f"a{next(fresh)}", metric, a)),
            compare.load(_results(tmp_path / f"b{next(fresh)}", metric, b)),
            SPEC)
        return {row["metric"]: row["verdict"] for row in rows}

    # ops_s is higher-is-better; every bound is below 30 %.
    assert verdicts("ops_s", steady, [v * 0.7 for v in steady]) \
        == {**dict.fromkeys((m["name"] for m in SPEC["end_to_end"]), "ok"),
            "ops_s": "worse"}
    assert verdicts("ops_s", steady, [v * 1.3 for v in steady])["ops_s"] \
        == "ok"
    # setup_s is lower-is-better.
    assert verdicts("setup_s", steady,
                    [v * 1.3 for v in steady])["setup_s"] == "worse"
    assert verdicts("setup_s", steady,
                    [v * 0.7 for v in steady])["setup_s"] == "ok"
    # Runs that disagree among themselves by more than the bound cannot
    # tell either way.
    assert verdicts("setup_s", steady,
                    [60.0, 100.0, 140.0, 180.0])["setup_s"] == "unresolved"
    # The command exits non-zero on a worse row only.
    worse = _results(tmp_path / "worse", "ops_s", [v * 0.7 for v in steady])
    base = _results(tmp_path / "base", "ops_s", steady)
    assert compare.main([str(base), str(worse)]) == 1
    assert compare.main([str(base), str(base / "0.json")]) == 0
    assert "worse" in capsys.readouterr().out
