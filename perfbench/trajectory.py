"""Append one point to the bench trajectory from ``spread.py`` summaries.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload ingest_scm --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --seconds 40 --out e2e-ingest_scm.json
    python3 perfbench/spread.py --workload ingest_scm --seeds 1 --seconds 40 \\
        --trace 1 --out layer-ingest_scm.json
    python3 perfbench/trajectory.py --label "baseline" \\
        --end-to-end e2e-*.json --per-layer layer-*.json

Each point records the program commit, the machine facts, the run length,
and per workload the end-to-end summary (median, quartiles, spread, count),
the report digest of every seed, and the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")
MACHINE_KEYS = ("nproc", "numba", "python", "numpy")
SUMMARY_KEYS = ("median", "q1", "q3", "spread", "n", "unit")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build_point(label, end_to_end, per_layer):
    point = {"label": label, "program_commit": None,
             "date": datetime.date.today().isoformat(), "machine": None,
             "run_seconds": None, "end_to_end": {}, "per_layer": {}}
    for path in end_to_end:
        d = _load(path)
        facts = d["runs"][0]["facts"]
        point["program_commit"] = facts["commit"]
        point["machine"] = {k: facts[k] for k in MACHINE_KEYS}
        point["run_seconds"] = d["seconds"]
        point["end_to_end"][d["workload"]] = {
            "seeds": [r["seed"] for r in d["runs"]],
            "report_digests": {
                str(r["seed"]): r["info"]["report_digest"] for r in d["runs"]
            },
            "failed": sum(r["result"]["failed"] for r in d["runs"]),
            "attempted": sum(r["result"]["attempted"] for r in d["runs"]),
            "metrics": {
                name: {k: s[k] for k in SUMMARY_KEYS}
                for name, s in d["summary"].items()
            },
        }
    for path in per_layer:
        d = _load(path)
        run = d["runs"][0]
        point["per_layer"][d["workload"]] = {
            "seed": run["seed"],
            "trace_child_overhead_ns": run["info"].get("trace_child_overhead_ns"),
            "metrics": {
                name: [m["value"], m["unit"]]
                for name, m in run["result"]["metrics"].items()
            },
        }
    return point


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--end-to-end", nargs="+", required=True,
                        help="spread.py --out files of untraced runs")
    parser.add_argument("--per-layer", nargs="*", default=[],
                        help="spread.py --out files of traced runs")
    args = parser.parse_args(argv)

    points = _load(TRAJECTORY) if os.path.exists(TRAJECTORY) else []
    points.append(build_point(args.label, args.end_to_end, args.per_layer))
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(points, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
