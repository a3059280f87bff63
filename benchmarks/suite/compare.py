"""Compare two benchmark results, one row per (workload, end-to-end
metric).

    python3 benchmarks/suite/compare.py A.json B.json

``A`` is the base and ``B`` the candidate.  Each is either one
``run.py --all --out`` result or a directory of them (repeated runs of
the same code, one seed each); with repeats the row compares medians
and knows the spread.  Every ratio is printed with its base.

Verdicts, against the bound ``BENCHMARK.json`` fixes for the metric:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is worse by more than the bound;
* ``unresolved``  the spread between repeated runs of either side (the
                  distance between the quartiles, as a share of the
                  median) exceeds the bound, so the runs cannot tell.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> List[dict]:
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() \
        else [Path(path)]
    return [json.loads(file.read_text()) for file in files]


def values(runs: List[dict], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get("end_to_end", {})
        if metric in entry:
            out.append(entry[metric]["value"])
    return out


def spread(sample: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer
    than two runs: a single run carries no spread)."""
    if len(sample) < 2:
        return 0.0
    quartiles = statistics.quantiles(sample, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(sample)


def compare(base: List[dict], cand: List[dict], spec: dict) -> List[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values(base, workload, metric["name"])
            b = values(cand, workload, metric["name"])
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = med_b / med_a if med_a else float("inf")
            # "Worse" is up for lower-is-better, down for higher.
            worsening = ratio - 1.0 if metric["better"] == "lower" \
                else 1.0 - ratio
            widest = max(spread(a), spread(b))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif worsening > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "base": med_a,
                         "candidate": med_b, "ratio": ratio,
                         "runs": (len(a), len(b)), "spread": widest,
                         "bound": metric["bound"], "verdict": verdict})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print("%-19s %-12s %12s %12s  %-18s %7s %6s  %s" % (
        "workload", "metric", "A", "B", "B/A (base A)", "spread",
        "bound", "verdict"))
    for row in rows:
        print("%-19s %-12s %12.4f %12.4f  x%-6.3f of %-8.4g %6.1f%% %5.0f%%  %s"
              % (row["workload"], row["metric"], row["base"],
                 row["candidate"], row["ratio"], row["base"],
                 100 * row["spread"], 100 * row["bound"], row["verdict"]))
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"# {len(rows)} rows: {len(worse)} worse, "
          f"{len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
