"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from spans import SpanTable  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(workload):
    """The same workload on one env, ten episodes and minimal sampling."""
    config = dict(workload.config, episodes=10, k=1, b=2)
    return dataclasses.replace(
        workload,
        envs=workload.envs[:1],
        config=config,
        log_episodes=10 if workload.log_episodes else None,
    )


def expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_spec(name, trace):
    result = harness.run_workload(
        tiny(harness.WORKLOADS[name]), seed=3, seconds=0, trace=bool(trace),
        root=ROOT, setup_samples=1,
    )
    emitted = {k: unit for k, (_, unit) in result.metrics.items()}
    assert emitted == expected("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(v) for v, _ in result.metrics.values())
    assert result.tally.attempted >= 1
    assert result.tally.failed == 0


def test_span_table_self_time_and_coverage():
    # spans: parent p [0, 100) with children c [10, 30) and [40, 50);
    # window w [0, 100) on another thread, covered by inner i [20, 70)
    t = SpanTable(
        names=["p", "c", "w", "i"],
        span_id=np.arange(5),
        name_id=np.array([0, 1, 1, 2, 3]),
        parent=np.array([-1, 0, 0, -1, -1]),
        start=np.array([0, 10, 40, 0, 20]),
        end=np.array([100, 30, 50, 100, 70]),
        work=np.zeros(5),
        child_overhead_ns=5.0,
    )
    assert t.self_ns[0] == 100 - 30 - 2 * 5
    assert t.calls("c") == 2 and t.leaf_calls("c") == 2 and t.leaf_calls("p") == 0
    # the union of [10, 30), [40, 50) and [20, 70) is [10, 70)
    assert t.uncovered_s("w", ("c", "i")) == pytest.approx(40e-9)


def _corrupt_nan(r):
    r["phi"][0] = float("nan")


def _corrupt_ci(r):
    r["ci"]["lows"][0] = r["ci"]["highs"][0] + 1.0


def _corrupt_ranks(r):
    r["ranks"] = [1] * r["n_agents"]


def _corrupt_efficiency(r):
    r["efficiency"]["holds"] = False


def _corrupt_text(r):
    r["explanation"]["text"] += " "


def _corrupt_bytes(r):
    r["y_fact"] += 1e-9


@pytest.fixture(scope="module")
def tiny_report():
    import macie.report

    workload = tiny(harness.WORKLOADS["resim_rollout_heavy"])
    macie.report.warmup(list(workload.envs))
    _, outputs = harness.run_once(workload, 3, None)
    return outputs[0]


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_nan, _corrupt_ci, _corrupt_ranks, _corrupt_efficiency,
     _corrupt_text, _corrupt_bytes],
)
def test_corrupted_report_counts_as_failed(tiny_report, corrupt, tmp_path):
    tally = harness.Tally(str(tmp_path))
    tally.check([tiny_report])
    assert (tally.attempted, tally.failed) == (1, 0)
    bad = copy.deepcopy(tiny_report)
    corrupt(bad)
    tally.check([bad])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_frac == 0.5


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_scm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
