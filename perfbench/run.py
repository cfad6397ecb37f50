"""Run one macie benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload resim_default --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give each metric with its unit, the machine facts, the
report digest and the failed fraction. Workloads, metrics and bounds are
listed in ``BENCHMARK.json``; ``perfbench/DESIGN.md`` says why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine_facts(root, seed, loadavg):
    import numpy

    import macie._accel

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "numba": macie._accel.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": loadavg,
        "commit": commit,
        "seed": seed,
    }


def main(argv=None):
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "macie", "__init__.py")):
        print(f"error: no macie sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import macie

    if not os.path.abspath(macie.__file__).startswith(src + os.sep):
        print(f"error: imported macie from {macie.__file__}, not {src}",
              file=sys.stderr)
        return 2

    facts = machine_facts(ROOT, args.seed, loadavg)
    result = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        ROOT,
    )
    tally = result.tally
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {tally.failed_frac:.6g} ratio "
          f"({tally.failed} of {tally.attempted} reports)")
    print(f"{args.workload} report_digest = {tally.digest}")
    print("facts " + json.dumps(facts))
    print("info " + json.dumps(result.info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
