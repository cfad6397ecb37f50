"""Run a workload on several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload ingest_scm --seeds 1 2 3 4 5 --seconds 40

Each seed runs ``perfbench/run.py`` in a fresh process. For every metric the
summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median. With ``--out`` the summary, the raw
values and each run's machine facts and info are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    facts = json.loads(next(ln for ln in lines if ln.startswith("facts "))[6:])
    info = json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])
    return json.loads(lines[-1]), facts, info


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary and raw runs as JSON")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        result, facts, info = run(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} "
                  "reports failed", file=sys.stderr)
        runs.append({"seed": seed, "result": result, "facts": facts, "info": info})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
        ), flush=True)

    names = list(runs[0]["result"]["metrics"])
    summary = {
        name: dict(
            summarise([r["result"]["metrics"][name]["value"] for r in runs]),
            unit=runs[0]["result"]["metrics"][name]["unit"],
        )
        for name in names
    }
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {spread} n={s['n']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "summary": summary, "runs": runs},
                      fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
