"""Workloads, output checks and metrics of the macie benchmark.

A workload is a fixed set of reports built through macie's public API. One
repetition produces the whole set; its wall time covers ``run_pipeline``
(with its factual history generation) and, when the workload ingests a log,
``read_log``. Every report is checked after the timed region. A traced run
repeats the same set with spans recorded around each layer (see ``spans``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from spans import Recorder, measure_child_overhead_ns

DEFAULT_SEED = 1
# Not used while the benchmark or any change measured by it was written;
# re-check claims on it before accepting them.
HELDOUT_SEED = 7919
SETUP_SAMPLES = 9
TRACE_DIR = os.path.join("perfbench", "out")

STAGES = {
    "1": "fit_scm",
    "2": "counterfactuals",
    "3": "individual_effects",
    "3.5": "emergence",
    "4": "shapley",
    "5": "normalize",
    "6": "bootstrap",
    "7": "explain",
}
SHAPLEY_METHODS = ("shapley_exact", "shapley_mc")


@dataclass(frozen=True)
class Workload:
    """Reports of one repetition: one ``run_pipeline`` per env.

    Why each workload exists is recorded in ``BENCHMARK.json`` and
    ``perfbench/DESIGN.md``.
    """

    name: str
    envs: tuple
    config: dict = field(default_factory=dict)
    # episodes of a log simulated on envs[0] and ingested; None: no log
    log_episodes: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # `macie run` defaults; the tree SCM fit dominates
        Workload("resim_default", ("gridworld", "traffic"), {"threads": 1}),
        # 7,200 simulator replays through the thread pool; the linear fit is cheap
        Workload(
            "resim_rollout_heavy",
            ("gridworld", "coopnav", "traffic"),
            {"model": "linear", "method": "shapley_exact", "episodes": 40,
             "k": 20, "threads": 2},
        ),
        # `macie ingest`: tree fit and tree prediction, no simulator
        Workload(
            "ingest_scm",
            ("gridworld",),
            {"mode": "scm_rollout", "threads": 1},
            log_episodes=25,
        ),
    )
}


# -- inputs and one repetition -------------------------------------------------


def prepare_inputs(workload, seed, workdir):
    """Untimed set-up: write the log an ingest workload reads."""
    if workload.log_episodes is None:
        return None
    import macie

    log_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    env = macie.make_env(workload.envs[0])
    engine = macie.CounterfactualEngine(
        macie.SeedTree(log_seed),
        macie.OutcomeSpec(),
        env=env,
        policies=macie.default_policies(env.n_agents),
    )
    path = os.path.join(workdir, f"{workload.envs[0]}.log")
    macie.write_log(engine.generate_history(workload.log_episodes), path)
    return path


def run_once(workload, seed, log_path):
    """One repetition; returns (wall seconds, reports or exceptions)."""
    import macie.core
    import macie.report

    outputs = []
    t0 = time.perf_counter()
    for env in workload.envs:
        config = macie.report.RunConfig(env=env, seed=seed, **workload.config)
        try:
            history = macie.core.read_log(log_path) if log_path else None
            outputs.append(macie.report.run_pipeline(config, history=history))
        except Exception as exc:  # a report that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            outputs.append(exc)
    return time.perf_counter() - t0, outputs


def replays(report):
    """Counterfactual replays a report's config asks for."""
    cfg = report["config"]
    e, n = report["n_episodes"], report["n_agents"]
    count = e * n * cfg["k"]
    if cfg["method"] in SHAPLEY_METHODS:
        count += e * 2 ** n
    return count


# -- output checks -----------------------------------------------------------------


def _all_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def canonical_digest(report):
    """sha256 of the report without timings and thread count."""
    body = {k: v for k, v in report.items() if k != "timings_ns"}
    body["config"] = {k: v for k, v in report["config"].items() if k != "threads"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def report_problems(report, workdir):
    """Names of the output checks a report fails (empty when it passes)."""
    import macie.report

    problems = []
    if not _all_finite(report):
        problems.append("non-finite number")
    if report["config"]["method"] in SHAPLEY_METHODS and not report.get(
        "efficiency", {}
    ).get("holds"):
        problems.append("efficiency does not hold")
    ci = report["ci"]
    if not all(lo <= hi for lo, hi in zip(ci["lows"], ci["highs"])):
        problems.append("CI low above high")
    if sorted(report["ranks"]) != list(range(1, report["n_agents"] + 1)):
        problems.append("ranks are not a permutation")
    path = os.path.join(workdir, "report.json")
    macie.report.write_report(report, path)
    text = macie.report.explanation_from_report(
        macie.report.read_report(path)
    ).text
    if text != report["explanation"]["text"]:
        problems.append("explanation does not round-trip")
    return problems


class Tally:
    """Counts attempted and failed reports; every repetition must agree."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digests = None  # per report, from the first repetition

    def check(self, outputs):
        digests = []
        for i, out in enumerate(outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                digests.append(None)
                continue
            try:
                problems = report_problems(out, self.workdir)
            except Exception:  # a check that cannot run is a failed report
                traceback.print_exc(file=sys.stderr)
                problems = ["check raised"]
            digests.append(canonical_digest(out))
            if self.digests is not None and digests[i] != self.digests[i]:
                problems.append("report bytes differ from the first repetition")
            for p in problems:
                print(f"report check failed: {p}", file=sys.stderr)
            self.failed += bool(problems)
        if self.digests is None:
            self.digests = digests

    @property
    def digest(self):
        """One sha256 over the canonical digests of the first repetition."""
        joined = ",".join(d or "raised" for d in self.digests or [])
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


# -- set-up cost --------------------------------------------------------------------


def setup_seconds(root, envs, samples):
    """Fresh-process cost of ``import macie`` plus warmup, one per sample."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import macie.report\n"
        f"macie.report.warmup({list(envs)!r})\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


# -- tracing targets and per-layer metrics -------------------------------------------------


def _history_rows(args, _result):
    # transitions StructuralCausalModel.fit pools: each step with a next state
    rows = 0
    for ep in args[1].episodes:
        n = len(ep.steps)
        rows += n - 1 if ep.final_state is not None else max(n - 2, 0)
    return rows


def layer_targets(rec):
    """Every layer boundary the traced run wraps: (span, owner, attr, work)."""
    import macie.attribution
    import macie.core
    import macie.counterfactual
    import macie.envs
    import macie.report
    import macie.rng
    import macie.scm
    import macie.trees

    def stream_key(args, _result):
        rec.stream_keys.add((args[0].master_seed, args[1], tuple(args[2])))
        return 0.0

    scm = macie.scm.StructuralCausalModel
    engine = macie.counterfactual.CounterfactualEngine
    targets = [
        ("trees.grow_tree", macie.trees, "grow_tree", lambda a, r: a[0].shape[0]),
        ("trees.tree_predict", macie.trees, "tree_predict",
         lambda a, r: a[0].shape[0]),
        ("rng.derive_stream", macie.rng, "derive_stream", stream_key),
        ("scm.fit", scm, "fit", _history_rows),
        ("counterfactual.generate_history", engine, "generate_history", None),
        ("counterfactual.intervene", engine, "intervene_and_rollout", None),
        ("counterfactual.coalition", engine, "coalition_outcome", None),
        ("counterfactual.stage", macie.report, "run_interventions", None),
        ("counterfactual.stage", macie.attribution.CoalitionValues, "precompute",
         None),
        ("attribution.shapley", macie.report, "shapley_mc", None),
        ("attribution.shapley", macie.report, "shapley_exact", None),
        ("attribution.bootstrap", macie.report, "bootstrap_ci", None),
        ("collective.emergence", macie.report, "emergence_metrics", None),
        ("explain.build", macie.report, "build_explanation", None),
        ("core.read_log", macie.core, "read_log",
         lambda a, r: os.path.getsize(a[0])),
    ]
    for name in ("predict_action", "predict_next_state", "predict_reward",
                 "predict_outcome"):
        targets.append(("scm.predict", scm, name, None))
    for cls in macie.envs.Environment.__subclasses__():
        if "rollout" in cls.__dict__:
            targets.append(("envs.rollout", cls, "rollout", lambda a, r: r[4]))
    return targets


def check_targets():
    import macie.report

    return [("report.write_report", macie.report, "write_report",
             lambda a, r: os.path.getsize(a[1]))]


def layer_metrics(t):
    """Per-layer metrics of one traced repetition's :class:`SpanTable`."""
    pred_calls = t.calls("trees.tree_predict")
    rollout_s = t.total_s("envs.rollout")
    streams = t.calls("rng.derive_stream")
    coalitions = t.calls("counterfactual.coalition")
    return {
        "scm.fit.s": (t.total_s("scm.fit"), "s"),
        "scm.fit.rows": (t.work_sum("scm.fit"), "rows"),
        "trees.grow_tree.calls": (t.calls("trees.grow_tree"), "count"),
        "trees.grow_tree.self_s": (t.self_s("trees.grow_tree"), "s"),
        "trees.grow_tree.rows": (t.work_sum("trees.grow_tree"), "rows"),
        "scm.predict.calls": (t.calls("scm.predict"), "count"),
        "scm.predict.self_s": (t.self_s("scm.predict"), "s"),
        "trees.tree_predict.calls": (pred_calls, "count"),
        "trees.tree_predict.rows_per_call": (
            t.work_sum("trees.tree_predict") / pred_calls if pred_calls else 0.0,
            "rows",
        ),
        "trees.tree_predict.self_s": (t.self_s("trees.tree_predict"), "s"),
        "envs.rollout.calls": (t.calls("envs.rollout"), "count"),
        "envs.rollout.steps": (t.work_sum("envs.rollout"), "count"),
        "envs.rollout.self_s": (t.self_s("envs.rollout"), "s"),
        "envs.rollout.steps_per_s": (
            t.work_sum("envs.rollout") / rollout_s if rollout_s else 0.0, "1/s"
        ),
        "rng.derive_stream.calls": (streams, "count"),
        "rng.derive_stream.self_s": (t.self_s("rng.derive_stream"), "s"),
        "rng.derive_stream.reuse": (
            streams / t.distinct_streams if t.distinct_streams else 0.0, "ratio"
        ),
        "counterfactual.generate_history.s": (
            t.total_s("counterfactual.generate_history"), "s"
        ),
        "counterfactual.intervene.calls": (
            t.calls("counterfactual.intervene"), "count"
        ),
        "counterfactual.intervene.self_s": (
            t.self_s("counterfactual.intervene"), "s"
        ),
        "counterfactual.coalition.calls": (coalitions, "count"),
        "counterfactual.coalition.hit_ratio": (
            t.leaf_calls("counterfactual.coalition") / coalitions
            if coalitions else 0.0,
            "ratio",
        ),
        "counterfactual.stage_uncovered_s": (
            t.uncovered_s(
                "counterfactual.stage",
                ("counterfactual.intervene", "counterfactual.coalition"),
            ),
            "s",
        ),
        "attribution.shapley.s": (t.total_s("attribution.shapley"), "s"),
        "attribution.bootstrap.s": (t.total_s("attribution.bootstrap"), "s"),
        "collective.emergence.s": (t.total_s("collective.emergence"), "s"),
        "explain.build.s": (t.total_s("explain.build"), "s"),
        "core.read_log.s": (t.total_s("core.read_log"), "s"),
        "core.read_log.bytes": (t.work_sum("core.read_log"), "bytes"),
        "report.write_report.s": (t.total_s("report.write_report"), "s"),
        "report.write_report.bytes": (t.work_sum("report.write_report"), "bytes"),
    }


def stage_metrics(outputs):
    """Per-stage seconds from the reports' own timings, summed over reports."""
    sums = dict.fromkeys(STAGES.values(), 0.0)
    for out in outputs:
        if isinstance(out, Exception):
            continue
        for key, label in STAGES.items():
            sums[label] += out["timings_ns"][key] / 1e9
    return {f"report.stage.{k}_s": (v, "s") for k, v in sums.items()}


# -- a whole run --------------------------------------------------------------------


def _median_metrics(samples):
    """Median of each metric over repetitions (same names and units)."""
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def _repeat(budget_s, body):
    """Call ``body`` while another call is expected to end within ``budget_s``.

    The first call always runs; the expected length of the next is the
    median of the calls so far, so a run ends near its budget, not a whole
    repetition past it.
    """
    t_begin = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        body()
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - t_begin + statistics.median(lengths) > budget_s:
            return


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


@dataclass
class Result:
    tally: Tally
    metrics: dict
    info: dict


def run_workload(workload, seed, seconds, trace, root, setup_samples=SETUP_SAMPLES):
    """Measure one workload in this process; returns a :class:`Result`.

    Untraced, the metrics are the end-to-end ones. Traced, each step of the
    loop runs one untraced repetition (stage timings) and then one traced
    repetition (per-layer metrics). The tracing overhead is the median
    ratio within these pairs, so drift in machine speed between them
    cancels.
    """
    import macie.report

    out_dir = os.path.join(root, TRACE_DIR)
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=out_dir) as workdir:
        tally = Tally(workdir)
        setup = [] if trace else setup_seconds(root, workload.envs, setup_samples)
        macie.report.warmup(list(workload.envs))
        log_path = prepare_inputs(workload, seed, workdir)

        walls, stage_samples, rollouts = [], [], []

        def untraced():
            wall, outputs = run_once(workload, seed, log_path)
            tally.check(outputs)
            walls.append(wall)
            stage_samples.append(stage_metrics(outputs))
            rollouts.append(
                sum(replays(o) for o in outputs if not isinstance(o, Exception))
            )

        traced_walls, layer_samples, fit_stage, overheads, last = [], [], [], [], []

        def traced():
            overheads.append(measure_child_overhead_ns())
            rec = Recorder()
            with rec.installed(layer_targets(rec)):
                wall, outputs = run_once(workload, seed, log_path)
            with rec.installed(check_targets()):
                tally.check(outputs)
            table = rec.table(overheads[-1])
            traced_walls.append(wall)
            layer_samples.append(layer_metrics(table))
            fit_stage.append(stage_metrics(outputs)["report.stage.fit_scm_s"][0])
            last[:] = [table]

        info = {"workload": workload.name, "seed": seed}
        if not trace:
            _repeat(seconds, untraced)
            wall = statistics.median(walls)
            metrics = {
                "wall_s": (wall, "s"),
                "cf_rollouts_per_s": (rollouts[-1] / wall, "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "MiB",
                ),
            }
            info["setup_s_samples"] = setup
        else:
            _repeat(seconds, lambda: (untraced(), traced()))
            metrics = _median_metrics(layer_samples)
            metrics.update(_median_metrics(stage_samples))
            metrics["trace.overhead_frac"] = (
                statistics.median(t / u for t, u in zip(traced_walls, walls)) - 1.0,
                "ratio",
            )
            info["traced_wall_s_samples"] = traced_walls
            info["trace_child_overhead_ns"] = overheads
            # the same repetitions' own fit-stage timing, to compare with scm.fit.s
            info["traced_report_fit_stage_s"] = fit_stage
            path = os.path.join(out_dir, f"trace-{workload.name}.npz")
            last[0].save(path)
            info["trace_file"] = os.path.relpath(path, root)

    info.update(
        wall_s_samples=walls,
        wall_s_quartiles=_quartiles(walls),
        repetitions=len(walls),
        reports_per_repetition=len(workload.envs),
        cf_rollouts_per_repetition=rollouts[-1],
        report_digest=tally.digest,
        failed_frac=tally.failed_frac,
    )
    return Result(tally=tally, metrics=metrics, info=info)
